import pytest
from hypothesis import given, strategies as st

from promptner.errors import ConfigError, ContractError
from promptner.tokenizer import (ENT, PAD, SEP, SPECIALS, UNK, Vocab, build_vocab,
                                 normalize, segment)


def small_vocab():
    return build_vocab([["alain", "farley", "works", "at", "mcgill"],
                        ["person", "organization", "location"]], max_size=200)


class TestNormalize:
    def test_lowercases(self):
        assert normalize("McGill") == "mcgill"

    def test_nfc_composes(self):
        # e + combining acute -> precomposed e-acute
        assert normalize("café") == "café"

    def test_idempotent(self):
        assert normalize(normalize("Brontë")) == normalize("Brontë")


class TestBuildVocab:
    def test_specials_present_and_first(self):
        v = small_vocab()
        assert tuple(v.id_to_token[:4]) == SPECIALS

    def test_single_chars_always_admitted(self):
        v = build_vocab([["abc"]], max_size=200)
        for ch in "abc":
            assert ch in v.token_to_id

    def test_frequency_then_lexicographic_ranking(self):
        # "aa" occurs twice (in "aax" twice), "ab" once; ties break by string
        v = build_vocab([["aax", "aax", "aby"]], max_size=200)
        multi = [t for t in v.id_to_token if len(t) > 1 and t not in SPECIALS]
        assert multi.index("aa") < multi.index("ab")

    def test_deterministic(self):
        corpus = [["hello", "world"], ["hello", "again"]]
        assert build_vocab(corpus).id_to_token == build_vocab(corpus).id_to_token

    def test_minimal_budget_keeps_singles(self):
        v = build_vocab([["a", "a", "b"]], max_size=6)
        assert set(v.id_to_token) == set(SPECIALS) | {"a", "b"}

    def test_size_cap_respected(self):
        v = build_vocab([["abcdefgh"]], max_size=10)
        assert len(v) <= 10

    def test_empty_corpus_rejected(self):
        with pytest.raises(ContractError):
            build_vocab([])

    def test_tiny_max_size_rejected(self):
        with pytest.raises(ConfigError):
            build_vocab([["a"]], max_size=4)


class TestSegment:
    def test_whole_word_match(self):
        v = small_vocab()
        seg = segment("mcgill", v)
        assert seg.subword_ids == [v.token_to_id["mcgill"]]

    def test_greedy_longest_first(self):
        v = Vocab.from_dict({"tokens": list(SPECIALS) + ["a", "b", "ab"]})
        assert segment("ab", v).subword_ids == [v.token_to_id["ab"]]

    def test_falls_back_to_chars(self):
        v = small_vocab()
        seg = segment("maw", v)  # unseen word, but all chars known
        assert all(i != v.unk_id for i in seg.subword_ids)
        assert "".join(v.id_to_token[i] for i in seg.subword_ids) == "maw"

    def test_unknown_remainder_is_single_unk(self):
        v = small_vocab()
        seg = segment("mc#", v)  # '#' never seen
        assert seg.subword_ids[-1] == v.unk_id
        assert seg.subword_ids.count(v.unk_id) == 1

    def test_two_unit_split(self):
        v = Vocab.from_dict({"tokens": list(SPECIALS) + list("mcgil") + ["mc", "gill"]})
        seg = segment("McGill", v)
        assert seg.subword_ids == [v.token_to_id["mc"], v.token_to_id["gill"]]
        assert seg.word == "mcgill"

    def test_normalizes_before_matching(self):
        v = small_vocab()
        assert segment("McGill", v).subword_ids == segment("mcgill", v).subword_ids

    def test_empty_word_rejected(self):
        with pytest.raises(ContractError):
            segment("", small_vocab())

    def test_special_strings_are_not_units(self):
        # a literal "[ENT]" in text must not map to the marker id
        v = build_vocab([["[ent]"]], max_size=200)
        assert v.ent_id not in segment("[ENT]", v).subword_ids

    @given(st.text(alphabet="abcdefgh", min_size=1, max_size=12))
    def test_roundtrip_covers_word(self, word):
        v = build_vocab([["abcd", "efgh", "aabb"]], max_size=200)
        seg = segment(word, v)
        rebuilt = "".join(v.id_to_token[i] if i != v.unk_id else "" for i in seg.subword_ids)
        assert normalize(word).startswith(rebuilt)

    def test_repeated_calls_return_fresh_equal_segmentations(self):
        # the second call is served from the vocab's cache: equal to a fresh
        # vocab's answer, and changing one result does not change the next
        v = small_vocab()
        first = segment("McGill", v)
        first.subword_ids.append(v.unk_id)
        first.word = "changed"
        again = segment("McGill", v)
        assert again == segment("McGill", small_vocab()) and again is not first
        assert again.word == "mcgill" and v.unk_id not in again.subword_ids

    def test_cache_is_bounded(self):
        v = small_vocab()
        for i in range(2**16 + 5):
            segment(f"w{i}", v)
        assert len(v.segments) <= 2**16


class TestVocabRoundtrip:
    def test_dict_roundtrip(self):
        v = small_vocab()
        w = Vocab.from_dict(v.to_dict())
        assert w.id_to_token == v.id_to_token
        assert w.token_to_id == v.token_to_id

    def test_special_ids(self):
        v = small_vocab()
        assert v.token_to_id[PAD] == 0  # the id the encoder pads with
        assert v.id_to_token[v.unk_id] == UNK
        assert v.id_to_token[v.ent_id] == ENT
        assert v.id_to_token[v.sep_id] == SEP
