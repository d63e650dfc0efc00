"""Subword vocabulary and greedy longest-match segmentation.

Words are normalized (Unicode NFC + lowercase) and split left-to-right into
the longest vocabulary units available. The unit inventory is built from
corpus frequencies: whole words and character n-grams compete for slots,
single characters are always included, and ties break lexicographically so
vocabulary construction is fully deterministic. Downstream modules only ever
consume the *first* subword position of each word.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from dataclasses import dataclass

from .errors import ConfigError, ContractError, DataError

ENT = "[ENT]"
SEP = "[SEP]"
PAD = "[PAD]"
UNK = "[UNK]"
SPECIALS = (PAD, UNK, ENT, SEP)

_MAX_NGRAM = 4


def normalize(text):
    """NFC normalization + lowercasing, applied before any segmentation."""
    return unicodedata.normalize("NFC", text).lower()


@dataclass
class Vocab:
    id_to_token: list  # the units in id order; the rest is built from it once

    def __post_init__(self):
        """DataError unless the units are distinct and include the specials."""
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self) or not set(SPECIALS) <= self.token_to_id.keys():
            raise DataError(f"vocab tokens must be distinct and include {', '.join(SPECIALS)}")
        self.unk_id, self.ent_id, self.sep_id = (self.token_to_id[s] for s in (UNK, ENT, SEP))
        self.longest = max((len(t) for t in self.id_to_token if t not in SPECIALS), default=1)
        self.segments = {}  # raw word -> subword ids, see subword_ids

    def __len__(self):
        return len(self.id_to_token)

    def __contains__(self, token):
        return token in self.token_to_id

    def to_dict(self):
        return {"tokens": list(self.id_to_token)}

    @classmethod
    def from_dict(cls, d):
        """Inverse of ``to_dict``: distinct string tokens, the specials among
        them (DataError)."""
        tokens = d["tokens"]
        if not (isinstance(tokens, list) and set(map(type, tokens)) <= {str}):
            raise DataError("vocab tokens must be a list of strings")
        return cls(tokens)


@dataclass
class WordSegmentation:
    word: str
    subword_ids: list


def build_vocab(corpus, max_size=2000):
    """Build a subword vocabulary from tokenized sentences.

    ``corpus`` is an iterable of word lists. Units are ranked by frequency
    (descending), ties broken lexicographically; single characters seen in
    the corpus are always admitted ahead of multi-character units so every
    corpus word stays segmentable.
    """
    corpus = list(corpus)
    if not corpus:
        raise ContractError("corpus must be non-empty")
    if max_size < len(SPECIALS) + 1:
        raise ConfigError(f"max_size={max_size} cannot fit {len(SPECIALS)} specials plus a unit")

    counts = Counter()
    chars = set()
    for sentence in corpus:
        for word in sentence:
            w = normalize(word)
            if not w:
                continue
            chars.update(w)
            counts[w] += 1
            for n in range(2, min(_MAX_NGRAM, len(w)) + 1):
                for i in range(len(w) - n + 1):
                    counts[w[i:i + n]] += 1

    tokens = list(SPECIALS)
    budget = max_size - len(tokens)
    singles = sorted(chars)[:budget]
    tokens.extend(singles)
    budget -= len(singles)

    taken = set(tokens)
    ranked = sorted((u for u in counts if u not in taken), key=lambda u: (-counts[u], u))
    tokens.extend(ranked[:budget])

    return Vocab(tokens)


def segment(word, vocab):
    """Greedy longest-match segmentation of one word.

    The word is normalized first; at each position the longest vocabulary
    unit is consumed. An unmatchable remainder collapses to a single [UNK].
    Every call returns a fresh WordSegmentation of :func:`subword_ids`.
    """
    return WordSegmentation(word=normalize(word), subword_ids=list(subword_ids(word, vocab)))


def subword_ids(word, vocab):
    """The subword ids of :func:`segment` as a tuple. Each raw word is
    segmented once per vocab, in a cache emptied when it reaches 2**16 words."""
    cache = vocab.segments
    if word in cache:
        return cache[word]
    w = normalize(word)
    if not w:
        raise ContractError("cannot segment an empty word")
    ids = []
    pos = 0
    while pos < len(w):
        match = None
        for end in range(min(len(w), pos + vocab.longest), pos, -1):
            unit = w[pos:end]
            if unit in vocab.token_to_id and unit not in SPECIALS:
                match = unit
                break
        if match is None:
            ids.append(vocab.unk_id)
            break
        ids.append(vocab.token_to_id[match])
        pos += len(match)
    if len(cache) >= 2**16:
        cache.clear()
    cache[word] = ids = tuple(ids)
    return ids
