"""Unified input construction: entity-type markers + sentence.

The sequence layout is ``([ENT] type_subwords) x M, [SEP], sentence_subwords``.
Each entity type is represented downstream by its own [ENT] marker position;
each word by the position of its first subword.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tokenizer
from .errors import ContractError, SizingError


@dataclass
class EncodedPrompt:
    token_ids: list
    ent_positions: list       # one index per entity type, at its [ENT] token
    word_positions: list      # first-subword index per sentence word
    entity_types: list
    words: list

    def __post_init__(self):
        if (len(self.ent_positions) != len(self.entity_types)
                or len(self.word_positions) != len(self.words)):
            raise ContractError("need one position per entity type and per word")


def build_prompt(entity_types, words, vocab, max_types=25, max_positions=512):
    """Assemble the unified token sequence and its position maps.

    Entity types must be pre-deduplicated (order preserved); at most
    ``max_types`` are allowed per prompt. Sequences longer than
    ``max_positions`` are rejected rather than truncated.
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
            token_ids.extend(tokenizer.segment(type_word, vocab).subword_ids)
    token_ids.append(vocab.sep_id)

    word_positions = []
    for word in words:
        word_positions.append(len(token_ids))
        token_ids.extend(tokenizer.segment(word, vocab).subword_ids)

    if len(token_ids) > max_positions:
        raise SizingError(f"prompt length {len(token_ids)} exceeds max_positions={max_positions}")

    return EncodedPrompt(token_ids=token_ids, ent_positions=ent_positions,
                         word_positions=word_positions,
                         entity_types=list(entity_types), words=list(words))


def chunk_types(entity_types, max_types):
    """Split a type list into contiguous groups of at most ``max_types``.

    Used at inference time when the caller asks for more types than fit in
    one prompt; per-group predictions are unioned downstream.
    """
    if max_types < 1:
        raise ContractError("max_types must be >= 1")
    types = list(entity_types)
    return [types[i:i + max_types] for i in range(0, len(types), max_types)]
