import pytest

from promptner.errors import ContractError, SizingError
from promptner.prompt import EncodedPrompt, build_prompt, chunk_types
from promptner.tokenizer import build_vocab, segment


def make_vocab():
    return build_vocab([["alain", "farley", "works", "at", "mcgill"],
                        ["person", "organization", "location"]], max_size=300)


def uncached_prompt(entity_types, words, vocab):
    """The prompt layout built word by word from segment(), no cache."""
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
    return EncodedPrompt(token_ids, ent_positions, word_positions, list(entity_types),
                         list(words))


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
