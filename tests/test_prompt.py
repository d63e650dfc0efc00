import numpy as np
import pytest

from promptner.errors import ContractError, SizingError
from promptner.prompt import EncodedPrompt, build_prompt, chunk_types
from promptner.tokenizer import build_vocab, segment


def make_vocab():
    return build_vocab([["alain", "farley", "works", "at", "mcgill"],
                        ["person", "organization", "location"]], max_size=300)


def uncached_layout(entity_types, words, vocab):
    """Token ids, marker and first-subword indices built word by word from
    segment(), no cache."""
    token_ids, ent_positions, word_positions = [], [], []
    for etype in entity_types:
        ent_positions.append(len(token_ids))
        token_ids.append(vocab.ent_id)
        for type_word in etype.split():
            token_ids.extend(segment(type_word, vocab).subword_ids)
    token_ids.append(vocab.sep_id)
    for word in words:
        word_positions.append(len(token_ids))
        token_ids.extend(segment(word, vocab).subword_ids)
    return token_ids, ent_positions, word_positions


def uncached_prompt(entity_types, words, vocab, max_positions=512):
    """The prompt of ``uncached_layout``, its position ids counted one by
    one: the type section from 0, the sentence from max_positions // 2."""
    token_ids, ent_positions, word_positions = uncached_layout(entity_types, words, vocab)
    start = word_positions[0]
    positions = [i if i < start else max_positions // 2 + i - start for i in range(len(token_ids))]
    return EncodedPrompt(token_ids, positions, ent_positions, word_positions,
                         list(entity_types), max_positions)


def encoder_positions_before(token_ids, word_positions, max_positions):
    """The layout the encoder computed before prompts carried their position
    ids (SizingError if the prompt does not fit)."""
    n = len(token_ids)
    sent_start = word_positions[0]
    offset = max_positions // 2
    if sent_start > offset:
        raise SizingError(f"type section length {sent_start} exceeds position offset {offset}")
    if offset + (n - sent_start) > max_positions:
        raise SizingError(f"sentence length {n - sent_start} exceeds "
                          f"{max_positions - offset} positions")
    pos = np.arange(n)
    pos[sent_start:] = offset + np.arange(n - sent_start)
    return pos


def types_of_section(length):
    """Distinct types whose section ([ENT] markers, subwords and [SEP]) has
    ``length`` tokens: one-letter types take 2, the two-subword "ab" 3."""
    odd = length % 2
    letters = "cdefghijklmnopqrstuvwxyz"
    return ["ab"] * (1 - odd) + list(letters[:(length - 4 + odd) // 2 + odd])


class TestBuildPrompt:
    def test_layout_markers(self):
        v = make_vocab()
        p = build_prompt(["person", "organization"], ["alain", "works"], v)
        # one [ENT] per type, exactly one [SEP]
        assert p.token_ids.count(v.ent_id) == 2
        assert p.token_ids.count(v.sep_id) == 1
        # each ent_position holds the marker itself
        for pos in p.ent_positions:
            assert p.token_ids[pos] == v.ent_id

    def test_sep_separates_types_from_words(self):
        v = make_vocab()
        p = build_prompt(["person"], ["alain"], v)
        sep_at = p.token_ids.index(v.sep_id)
        assert max(p.ent_positions) < sep_at < min(p.word_positions)

    def test_word_positions_are_first_subwords(self):
        v = make_vocab()
        words = ["alain", "farley", "works"]
        p = build_prompt(["person"], words, v)
        assert len(p.word_positions) == len(words)
        assert p.word_positions == sorted(p.word_positions)

    def test_multiword_type_one_marker(self):
        v = build_vocab([["award", "name"], ["the", "nobel", "prize"]], max_size=300)
        p = build_prompt(["the nobel prize"], ["award"], v)
        assert len(p.ent_positions) == 1
        assert p.token_ids.count(v.ent_id) == 1

    def test_multi_subword_word_shifts_later_positions(self):
        v = make_vocab()
        base = build_prompt(["person"], ["at", "works"], v)
        # "farleyat" is unseen, so it splits into several subword units;
        # every later word position shifts by (pieces - 1)
        from promptner.tokenizer import segment
        pieces = len(segment("farleyat", v).subword_ids)
        assert pieces > 1
        shifted = build_prompt(["person"], ["farleyat", "works"], v)
        assert (shifted.word_positions[1] - base.word_positions[1]) == pieces - 1

    def test_same_as_the_uncached_build(self):
        # cached word ids give the same prompt, also on a cache hit, and a
        # returned prompt's lists are its own
        v = make_vocab()
        cases = [(["person", "organization"], ["alain", "works", "at", "McGill"]),
                 (["organization", "person"], ["farleyat", "#", "works"]),
                 (["the location", "person"], ["alain"]),
                 (["person", "organization"], ["mcgill", "at", "works"])]
        for types, words in cases + cases:
            p = build_prompt(types, words, v)
            assert p == uncached_prompt(types, words, make_vocab())
            p.token_ids.append(0)
            p.positions.append(0)
            p.ent_positions.append(0)
        assert build_prompt(*cases[0], v) == uncached_prompt(*cases[0], v)

    def test_empty_inputs_rejected(self):
        v = make_vocab()
        with pytest.raises(ContractError):
            build_prompt([], ["word"], v)
        with pytest.raises(ContractError):
            build_prompt(["person"], [], v)

    def test_duplicate_types_rejected(self):
        with pytest.raises(ContractError):
            build_prompt(["person", "person"], ["word"], make_vocab())

    def test_max_types_enforced(self):
        v = make_vocab()
        types = [f"t{i}" for i in range(26)]
        with pytest.raises(ContractError):
            build_prompt(types, ["word"], v, max_types=25)

    def test_overlong_sequence_rejected(self):
        v = make_vocab()
        with pytest.raises(SizingError):
            build_prompt(["person"], ["works"] * 600, v, max_positions=512)

    def test_sentence_overflow_rejected(self):
        # the sentence starts at offset 16 of a 32-row table: 20 words
        # do not fit in its 16 positions
        with pytest.raises(SizingError, match="^sentence length 20 exceeds 16 positions$"):
            build_prompt(["person"], ["works"] * 20, make_vocab(), max_positions=32)

    def test_type_section_overflow_rejected(self):
        # 12 markers, 24 type subwords and [SEP] overrun offset 16
        types = [f"t{i}" for i in range(12)]
        with pytest.raises(SizingError,
                           match="^type section length 37 exceeds position offset 16$"):
            build_prompt(types, ["works"], make_vocab(), max_positions=32)

    @pytest.mark.parametrize("max_positions", [31, 32, 33, 64])
    def test_layout_same_as_the_encoders_before(self, max_positions):
        # type sections and sentences at their half's boundary and one past
        # it lay out the ids, or are refused, as the encoder did
        v = make_vocab()
        offset = max_positions // 2
        for section in (3, 4, offset - 1, offset, offset + 1):
            for n in (1, max_positions - offset - 1, max_positions - offset,
                      max_positions - offset + 1):
                types, words = types_of_section(section), ["works"] * n
                token_ids, _, word_positions = uncached_layout(types, words, v)
                assert (word_positions[0], len(token_ids) - word_positions[0]) == (section, n)
                try:
                    want = encoder_positions_before(token_ids, word_positions,
                                                    max_positions).tolist()
                except SizingError as exc:
                    with pytest.raises(SizingError, match=f"^{exc}$"):
                        build_prompt(types, words, v, max_types=64,
                                     max_positions=max_positions)
                    continue
                p = build_prompt(types, words, v, max_types=64, max_positions=max_positions)
                assert p.positions == want and p.max_positions == max_positions

    def test_position_maps_must_match(self):
        # a checked condition, not an assert, so it also holds under python -O
        with pytest.raises(ContractError, match="one marker per entity type"):
            EncodedPrompt(token_ids=[1, 2], positions=[0, 1], ent_positions=[0],
                          word_positions=[1], entity_types=["a", "b"], max_positions=4)
        with pytest.raises(ContractError, match="one position id per token"):
            EncodedPrompt(token_ids=[1, 2], positions=[0], ent_positions=[0],
                          word_positions=[1], entity_types=["a"], max_positions=4)


class TestChunkTypes:
    def test_exact_fit(self):
        assert chunk_types(["a", "b"], 2) == [["a", "b"]]

    def test_splits_preserving_order(self):
        groups = chunk_types(list("abcde"), 2)
        assert groups == [["a", "b"], ["c", "d"], ["e"]]
        assert [t for g in groups for t in g] == list("abcde")

    def test_bad_cap_rejected(self):
        with pytest.raises(ContractError):
            chunk_types(["a"], 0)
