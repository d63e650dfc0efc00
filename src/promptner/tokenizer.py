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
from dataclasses import dataclass, field

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
    token_to_id: dict = field(default_factory=dict)
    id_to_token: list = field(default_factory=list)

    @property
    def pad_id(self):
        return self.token_to_id[PAD]

    @property
    def unk_id(self):
        return self.token_to_id[UNK]

    @property
    def ent_id(self):
        return self.token_to_id[ENT]

    @property
    def sep_id(self):
        return self.token_to_id[SEP]

    def __len__(self):
        return len(self.id_to_token)

    def __contains__(self, token):
        return token in self.token_to_id

    def max_unit_len(self):
        if not hasattr(self, "_longest"):
            self._longest = max((len(t) for t in self.id_to_token if t not in SPECIALS),
                                default=1)
        return self._longest

    def to_dict(self):
        return {"tokens": list(self.id_to_token)}

    @classmethod
    def from_dict(cls, d):
        """Inverse of ``to_dict``: distinct string tokens, the specials among
        them (DataError)."""
        tokens = d["tokens"]
        if not (isinstance(tokens, list) and set(map(type, tokens)) <= {str}):
            raise DataError("vocab tokens must be a list of strings")
        token_to_id = {t: i for i, t in enumerate(tokens)}
        if len(token_to_id) != len(tokens) or not all(s in token_to_id for s in SPECIALS):
            raise DataError(f"vocab tokens must be distinct and include {', '.join(SPECIALS)}")
        return cls(token_to_id, tokens)


@dataclass
class WordSegmentation:
    word: str
    subword_ids: list
    first_index_within_word: int = 0


def build_vocab(corpus, max_size=2000, min_freq=1):
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
    ranked = sorted((u for u, c in counts.items() if c >= min_freq and u not in taken),
                    key=lambda u: (-counts[u], u))
    tokens.extend(ranked[:budget])

    return Vocab({t: i for i, t in enumerate(tokens)}, tokens)


def segment(word, vocab):
    """Greedy longest-match segmentation of one word.

    The word is normalized first; at each position the longest vocabulary
    unit is consumed. An unmatchable remainder collapses to a single [UNK].
    """
    w = normalize(word)
    if not w:
        raise ContractError("cannot segment an empty word")
    ids = []
    pos = 0
    longest = vocab.max_unit_len()
    while pos < len(w):
        match = None
        for end in range(min(len(w), pos + longest), pos, -1):
            unit = w[pos:end]
            if unit in vocab.token_to_id and unit not in SPECIALS:
                match = unit
                break
        if match is None:
            ids.append(vocab.unk_id)
            break
        ids.append(vocab.token_to_id[match])
        pos += len(match)
    return WordSegmentation(word=w, subword_ids=ids)
