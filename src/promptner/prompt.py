"""Unified input construction: entity-type markers + sentence.

The sequence layout is ``([ENT] type_subwords) x M, [SEP], sentence_subwords``.
Each entity type is represented downstream by its own [ENT] marker position;
each word by the position of its first subword. Type and sentence words are
segmented alike, by ``tokenizer.subword_ids``; no type section is cached.
Position ids are laid out for a ``max_positions`` table: the types from 0,
the sentence from ``max_positions // 2`` whatever the number of types.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tokenizer
from .errors import ContractError, SizingError


@dataclass
class EncodedPrompt:
    token_ids: list
    positions: list           # position id per token
    ent_positions: list       # one index per entity type, at its [ENT] token
    word_positions: list      # first-subword index per sentence word
    entity_types: list
    max_positions: int        # rows of the position table the ids were laid out for

    def __post_init__(self):
        if (len(self.positions) != len(self.token_ids)
                or len(self.ent_positions) != len(self.entity_types)):
            raise ContractError("need one position id per token and one marker per entity type")


def build_prompt(entity_types, words, vocab, max_types=25, max_positions=512):
    """Assemble the unified token sequence, its position ids and its maps.

    Entity types must be pre-deduplicated (order preserved); at most
    ``max_types`` are allowed per prompt. The position ids are laid out for
    a ``max_positions`` table, which the prompt records; a type section or
    sentence that overflows its half is rejected rather than truncated.
    """
    if not entity_types or not words:
        raise ContractError("entity_types and words must both be non-empty")
    if len(set(entity_types)) != len(entity_types):
        raise ContractError("duplicate entity types; caller must dedupe")
    if len(entity_types) > max_types:
        raise ContractError(f"{len(entity_types)} entity types exceeds max_types={max_types}")

    token_ids = []
    ent_positions = []
    for etype in entity_types:
        ent_positions.append(len(token_ids))
        token_ids.append(vocab.ent_id)
        for type_word in etype.split():
            token_ids.extend(tokenizer.subword_ids(type_word, vocab))
    token_ids.append(vocab.sep_id)
    word_positions = []
    for word in words:
        word_positions.append(len(token_ids))
        token_ids.extend(tokenizer.subword_ids(word, vocab))

    sent_start, offset = word_positions[0], max_positions // 2
    n = len(token_ids) - sent_start
    if sent_start > offset:
        raise SizingError(f"type section length {sent_start} exceeds position offset {offset}")
    if offset + n > max_positions:
        raise SizingError(f"sentence length {n} exceeds {max_positions - offset} positions")
    return EncodedPrompt(token_ids, [*range(sent_start), *range(offset, offset + n)],
                         ent_positions, word_positions, list(entity_types), max_positions)


def chunk_types(entity_types, max_types):
    """Split a type list into contiguous groups of at most ``max_types``.

    Used at inference time when the caller asks for more types than fit in
    one prompt; per-group predictions are unioned downstream.
    """
    if max_types < 1:
        raise ContractError("max_types must be >= 1")
    types = list(entity_types)
    return [types[i:i + max_types] for i in range(0, len(types), max_types)]
