import pytest

from promptner.errors import ContractError, SizingError
from promptner.prompt import EncodedPrompt, build_prompt, chunk_types
from promptner.tokenizer import build_vocab


def make_vocab():
    return build_vocab([["alain", "farley", "works", "at", "mcgill"],
                        ["person", "organization", "location"]], max_size=300)


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

    def test_position_maps_must_match(self):
        # a checked condition, not an assert, so it also holds under python -O
        with pytest.raises(ContractError):
            EncodedPrompt(token_ids=[1, 2], ent_positions=[0], word_positions=[1],
                          entity_types=["a", "b"], words=["w"])


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
