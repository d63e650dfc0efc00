import numpy as np
import pytest

from promptner import tensor as T
from promptner.encoder import (EncoderConfig, _attention, _ffn, encode, encoder_param_shapes,
                               init_from_shapes)
from promptner.errors import ConfigError, ContractError
from promptner.prompt import build_prompt
from promptner.tokenizer import build_vocab


def setup(depth=2, width=16, heads=2, max_positions=64, dtype=np.float64, init_scale=0.02):
    config = EncoderConfig(depth=depth, width=width, heads=heads,
                           max_positions=max_positions, dropout=0.1)
    vocab = build_vocab([["alain", "farley", "works", "at", "mcgill"],
                         ["person", "organization", "location", "date", "event"]],
                        max_size=300)
    params = init_from_shapes(encoder_param_shapes(config, len(vocab)),
                              np.random.default_rng(0), dtype=dtype, init_scale=init_scale)
    return config, vocab, params


def build(entity_types, words, vocab):
    """A prompt laid out for the 64-row position table of ``setup()``."""
    return build_prompt(entity_types, words, vocab, max_positions=64)


def full_depth(prompts, params, config):
    """Eval-mode reference without the last layer's row cut: every layer and
    the final norm run on every row, then each prompt's marker rows and word
    rows are gathered, as (ent rows, word rows) lists of arrays."""
    length = max(len(p.token_ids) for p in prompts)
    ids, pos = np.zeros((2, len(prompts), length), dtype=np.int64)
    real = np.zeros(ids.shape, dtype=bool)
    for b, prompt in enumerate(prompts):
        n = len(prompt.token_ids)
        ids[b, :n], pos[b, :n], real[b, :n] = prompt.token_ids, prompt.positions, True
    x = T.add(T.gather_rows(params["encoder.tok_emb"], ids.ravel()),
              T.gather_rows(params["encoder.pos_emb"], pos.ravel()))
    for i in range(config.depth):
        pre = f"encoder.layer{i}."
        a = T.layer_norm(x, params[pre + "ln1.g"], params[pre + "ln1.b"])
        x = T.add(x, _attention(a, a, real, params, pre, config, 0.0, None))
        b = T.layer_norm(x, params[pre + "ln2.g"], params[pre + "ln2.b"])
        x = T.add(x, _ffn(b, params, pre, 0.0, None))
    x = T.layer_norm(x, params["encoder.final_ln.g"], params["encoder.final_ln.b"]).data
    return ([x[b * length + np.array(p.ent_positions)] for b, p in enumerate(prompts)],
            [x[b * length + np.array(p.word_positions)] for b, p in enumerate(prompts)])


class TestConfig:
    def test_width_heads_divisibility(self):
        with pytest.raises(ConfigError):
            EncoderConfig(width=10, heads=3)

    def test_depth_at_least_one(self):
        # the last layer is where the rows the heads do not read are cut
        with pytest.raises(ConfigError):
            EncoderConfig(depth=0)

    def test_zero_ffn_mult_accepted(self):
        # an FFN of its biases only trains; the sizes refused are in test_model
        assert EncoderConfig(ffn_mult=0).ffn_mult == 0

    def test_dropout_range(self):
        with pytest.raises(ConfigError):
            EncoderConfig(dropout=1.0)


class TestInit:
    def test_param_names_prefixed(self):
        _, _, params = setup()
        assert all(name.startswith("encoder.") for name in params)

    def test_layer_count_scales_with_depth(self):
        _, _, shallow = setup(depth=1)
        _, _, deep = setup(depth=3)
        assert sum("layer2." in n for n in deep) > 0
        assert sum("layer1." in n for n in shallow) == 0


class TestEncode:
    def test_output_shapes(self):
        config, vocab, params = setup()
        prompt = build(["person", "location"], ["alain", "works", "at", "mcgill"], vocab)
        out = encode([prompt], params, config)
        assert out.p.shape == (2, config.width)
        # the last layer's read rows: the 2 marker rows, then the 4 word rows
        assert out.h.shape == (6, config.width) and out.word_start == [2]
        assert np.array_equal(out.h.data[:2], out.p.data)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_read_rows_match_full_depth_reference(self, depth, dtype):
        # three prompts of different type and word counts, so both the
        # token rows and the read rows are padded
        config, vocab, params = setup(depth=depth, dtype=dtype, init_scale=0.3)
        prompts = [build(["person", "location"], ["alain", "works", "at", "mcgill"], vocab),
                   build(["person", "date", "event"], ["farley"], vocab),
                   build(["organization"], ["mcgill", "works", "alain"], vocab)]
        out = encode(prompts, params, config)
        ents, words = full_depth(prompts, params, config)
        assert out.h.shape == (3 * 6, config.width) and out.word_start == [2, 9, 13]
        assert np.abs(out.p.data - np.concatenate(ents)).max() < 1e-5
        for start, w in zip(out.word_start, words):
            assert np.abs(out.h.data[start:start + len(w)] - w).max() < 1e-5

    def test_eval_deterministic(self):
        config, vocab, params = setup()
        prompt = build(["person"], ["alain", "works"], vocab)
        a = encode([prompt], params, config).h.data
        b = encode([prompt], params, config).h.data
        assert np.array_equal(a, b)

    def test_train_dropout_varies(self):
        config, vocab, params = setup()
        prompt = build(["person"], ["alain", "works"], vocab)
        a = encode([prompt], params, config, mode="train", rng=np.random.default_rng(1)).h.data
        b = encode([prompt], params, config, mode="train", rng=np.random.default_rng(2)).h.data
        assert not np.array_equal(a, b)

    def test_train_needs_rng(self):
        config, vocab, params = setup()
        prompt = build(["person"], ["alain"], vocab)
        with pytest.raises(ContractError):
            encode([prompt], params, config, mode="train")

    def test_unknown_mode(self):
        config, vocab, params = setup()
        prompt = build(["person"], ["alain"], vocab)
        with pytest.raises(ContractError):
            encode([prompt], params, config, mode="test")

    def test_word_positions_stable_across_prompt_sizes(self):
        # sentence rows use a fixed position offset, so adding entity types
        # to the prompt must not shift which position embeddings words get
        config, vocab, params = setup()
        words = ["alain", "works", "at", "mcgill"]
        small = build(["person"], words, vocab)
        large = build(["person", "location", "date", "event"], words, vocab)
        h_small = encode([small], params, config).h.data
        h_large = encode([large], params, config).h.data
        # the sentence starts at another token but at the same position ids,
        # from the offset max_positions // 2
        assert small.word_positions[0] != large.word_positions[0]
        offset = config.max_positions // 2
        for p in (small, large):
            start = p.word_positions[0]
            assert p.positions[start:] == list(range(offset, offset + len(p.token_ids) - start))
        assert not np.array_equal(h_small, h_large)  # context still matters

    def test_type_permutation_equivariance_with_zeroed_positions(self):
        # with the positional table zeroed the encoder has no way to tell
        # type order apart, so permuting prompt types permutes the marker
        # rows p exactly
        config, vocab, params = setup()
        params["encoder.pos_emb"].data[:] = 0.0
        words = ["alain", "works"]
        a = encode([build(["person", "location", "date"], words, vocab)],
                   params, config).p.data
        b = encode([build(["date", "person", "location"], words, vocab)],
                   params, config).p.data
        assert np.allclose(b, a[[2, 0, 1]], atol=1e-10)

    def test_prompt_for_another_table_refused_before_any_row_is_read(self, monkeypatch):
        # ids laid out for 64 rows would sit wrong in a 32-row table: the
        # sentence would start at 32, past its offset 16 there
        config, vocab, params = setup(max_positions=32)
        prompt = build(["person"], ["alain", "works"], vocab)

        def fail(*args):
            raise AssertionError("a row was read")
        monkeypatch.setattr(T, "gather_rows", fail)
        with pytest.raises(ContractError, match="prompt 0 is laid out for 64 positions, "
                                                "the encoder has 32"):
            encode([prompt], params, config)

    def test_token_id_bounds_checked(self):
        config, vocab, params = setup()
        prompt = build(["person"], ["alain"], vocab)
        prompt.token_ids[0] = 10_000
        with pytest.raises(ContractError):
            encode([prompt], params, config)
