"""Dataset file handling and synthetic corpus generation.

Dataset files are line-delimited JSON records::

    {"tokenized_text": ["Alain", "Farley", "works"], "ner": [[0, 1, "person"]]}

Span indices are inclusive word indices. The synthetic generator fills slot
templates from small per-type lexicons, producing sentences with known gold
spans; it is the desk-scale stand-in for a large annotated corpus.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

import numpy as np

from .decoder import EntityMention
from .errors import ConfigError, DataError
from .trainer import TrainingExample

LEXICONS = {
    "person": ["alain farley", "marie curie", "john smith", "ada lovelace",
               "grace hopper", "alan turing", "rosa parks", "amelia earhart"],
    "organization": ["mcgill university", "acme corp", "red cross", "united nations",
                     "bell labs", "mit", "the world bank", "interpol"],
    "location": ["montreal", "paris", "mount fuji", "lake geneva",
                 "new york", "the sahara desert", "oslo", "kyoto"],
    "date": ["monday", "july fourth", "last winter", "next year",
             "the nineties", "midnight", "early spring", "friday evening"],
    "product": ["the roadster", "model x", "a laptop", "the new phone",
                "a vintage camera", "the espresso machine", "a drone", "the console"],
    "event": ["the olympics", "the world cup", "the summit", "the annual gala",
              "the marathon", "the eclipse", "the premiere", "the career fair"],
    "disease": ["malaria", "influenza", "measles", "cholera",
                "diabetes", "asthma", "tuberculosis", "anemia"],
    "language": ["french", "japanese", "swahili", "portuguese",
                 "mandarin", "icelandic", "tamil", "quechua"],
    "award": ["the nobel prize", "an oscar", "the fields medal", "a grammy",
              "the turing award", "a gold medal", "the booker prize", "an emmy"],
    "currency": ["dollars", "yen", "euros", "swiss francs",
                 "pounds", "rupees", "pesos", "krona"],
}

# "{ent}" marks an entity slot; the first slot carries the featured type.
TEMPLATES = [
    ["{ent}", "works", "at", "{ent}"],
    ["{ent}", "visited", "{ent}", "on", "{ent}"],
    ["{ent}", "won", "{ent}"],
    ["{ent}", "speaks", "{ent}", "fluently"],
    ["{ent}", "bought", "{ent}", "for", "a", "thousand", "{ent}"],
    ["{ent}", "attended", "{ent}", "in", "{ent}"],
    ["doctors", "treated", "{ent}", "near", "{ent}"],
    ["{ent}", "announced", "{ent}", "during", "{ent}"],
    ["the", "committee", "gave", "{ent}", "to", "{ent}"],
    ["{ent}", "was", "diagnosed", "with", "{ent}"],
]
TYPES = tuple(sorted(LEXICONS))


@dataclass
class SynthSpec:
    max_span_width: int = 12
    types = TYPES  # not a field: every corpus draws from the module's lexicons


def read_jsonl(path, parse):
    """``parse`` of each non-blank line's JSON value, in order. A bad line is a DataError
    at ``path:line``: invalid JSON or not UTF-8, or a KeyError, TypeError or ValueError
    from ``parse``. Lines end at newline bytes (not at a lone carriage return)."""
    records = []
    with open(path, "rb") as fh:  # decoded line by line, so a bad byte has a line
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                try:  # UnicodeDecodeError, JSONDecodeError, or an int too long to convert
                    rec = json.loads(line.decode("utf-8"))
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
                try:
                    records.append(parse(rec))
                except KeyError as exc:
                    raise DataError(f"{path}:{lineno}: missing key {exc}") from exc
                except (TypeError, ValueError) as exc:  # DataError, ContractError too
                    raise DataError(f"{path}:{lineno}: {exc}") from exc
    return records


def write_jsonl(path, records):
    """Write each JSON-serialisable record as one line."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def _finite(x, what):
    """JSON number ``x`` as a float; a bool, string, NaN, infinity or an int
    past the float range is refused."""
    if type(x) not in (int, float) or not abs(x) <= sys.float_info.max:
        raise DataError(f"could not convert {what} {x!r} to a finite number")
    return float(x)


def _type_name(x):
    """JSON value ``x`` as an entity type: a non-empty string."""
    if not (isinstance(x, str) and x):
        raise DataError(f"entity type {x!r} is not a non-empty string")
    return x


def _mentions(rec):
    """One parsed record's mentions; the caller adds the file position."""
    if not isinstance(rec, dict):
        raise DataError("a record must be a JSON object")
    ner = rec.get("ner", [])
    if not isinstance(ner, list):
        raise DataError("ner must be a list of [start, end, type(, score)] entries")
    mentions = []
    for item in ner:
        if not isinstance(item, list) or not 3 <= len(item) <= 4:
            raise DataError(f"malformed ner entry {item!r}: expected [start, end, type(, score)]")
        if not (type(item[0]) is int and type(item[1]) is int):
            raise DataError(f"span indices must be JSON integers in {item!r}")
        score = _finite(item[3], "score") if len(item) > 3 else 1.0
        mentions.append(EntityMention(item[0], item[1], _type_name(item[2]), score=score))
    return mentions


def _example(rec):
    """One parsed dataset record as a TrainingExample."""
    gold = _mentions(rec)
    words = rec.get("tokenized_text")
    if not (isinstance(words, list) and all(isinstance(w, str) for w in words)):
        raise DataError("tokenized_text must be a list of strings")
    if "" in words:
        raise DataError(f"tokenized_text word {words.index('')} is empty")
    return TrainingExample(words=words, gold=gold)


def load_dataset(path):
    """Parse and validate a dataset file into TrainingExamples."""
    return read_jsonl(path, _example)


def save_dataset(examples, path):
    write_jsonl(path, ({"tokenized_text": list(ex.words),
                        "ner": [[m.start, m.end, m.type] for m in ex.gold]}
                       for ex in examples))


def _fill_template(template, slot_types, rng):
    words = []
    gold = []
    slot_i = 0
    for token in template:
        if token == "{ent}":
            etype = slot_types[slot_i]
            slot_i += 1
            surface = LEXICONS[etype][rng.integers(len(LEXICONS[etype]))]
            parts = surface.split()
            gold.append(EntityMention(len(words), len(words) + len(parts) - 1, etype))
            words.extend(parts)
        else:
            words.append(token)
    return TrainingExample(words=words, gold=gold)


def synth_dataset(spec=None, train_size=50, dev_size=20, seed=0):
    """Deterministic synthetic corpus with known gold spans.

    Sentence i features type ``types[i % |types|]`` in its first slot, so
    every type appears at least floor(size / |types|) times per split.
    Remaining slots draw random types. Returns (train, dev) example lists.
    """
    spec = spec or SynthSpec()
    if min(train_size, dev_size) < 0:
        raise ConfigError(f"need train_size and dev_size >= 0, got {train_size} and {dev_size}")
    for etype in TYPES:
        if max(len(s.split()) for s in LEXICONS[etype]) > spec.max_span_width:
            raise ConfigError(f"lexicon for {etype!r} has spans wider than "
                              f"max_span_width={spec.max_span_width}")

    rng = np.random.default_rng(seed)

    def make_split(size):
        examples = []
        for i in range(size):
            featured = TYPES[i % len(TYPES)]
            template = TEMPLATES[rng.integers(len(TEMPLATES))]
            n_slots = sum(1 for t in template if t == "{ent}")
            others = [TYPES[j] for j in rng.integers(len(TYPES), size=n_slots - 1)]
            examples.append(_fill_template(template, [featured] + others, rng))
        return examples

    return make_split(train_size), make_split(dev_size)


def vocab_corpus(examples, entity_types=()):
    """Sentences plus type phrases, the input for vocabulary building."""
    corpus = [list(ex.words) for ex in examples]
    for etype in entity_types:
        corpus.append(etype.split())
    return corpus
