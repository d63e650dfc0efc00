import re

import numpy as np
import pytest

from promptner import tensor as T
from promptner.data import SynthSpec, synth_dataset, vocab_corpus
from promptner.decoder import DecodeConfig
from promptner.encoder import EncoderConfig
from promptner.errors import ConfigError, ContractError
from promptner.matcher import span_count
from promptner.model import (Model, ModelConfig, forward, forward_batch, init_params,
                             param_shapes)
from promptner.prompt import build_prompt
from promptner.tokenizer import build_vocab
from promptner.trainer import TrainConfig, batch_loss


def tiny_model(max_types=25, dtype=np.float32):
    train, _ = synth_dataset(train_size=6, dev_size=0, seed=0)
    types = ["person", "organization", "location", "date"]
    vocab = build_vocab(vocab_corpus(train, types), max_size=500)
    config = ModelConfig(max_types=max_types)
    return Model.fresh(config, vocab, seed=0, dtype=dtype), types, train


class TestForward:
    def test_logit_grid_shape(self):
        model, types, train = tiny_model()
        words = train[0].words
        enc = build_prompt(types, words, model.vocab)
        spans, logits = forward(enc, model.params, model.config)
        assert len(spans) == span_count(len(words), model.config.k)
        assert logits.shape == (len(spans), len(types))

    def test_eval_deterministic(self):
        model, types, train = tiny_model()
        enc = build_prompt(types, train[0].words, model.vocab)
        _, a = forward(enc, model.params, model.config)
        _, b = forward(enc, model.params, model.config)
        assert np.array_equal(a.data, b.data)

    def test_train_head_dropout_needs_rng(self):
        # encoder dropout off, head dropout on: the heads still need an rng
        model, types, train = tiny_model()
        enc = build_prompt(types, train[0].words, model.vocab)
        config = ModelConfig(encoder=EncoderConfig(dropout=0.0), head_dropout=0.4)
        with pytest.raises(ContractError):
            forward(enc, model.params, config, mode="train")


class TestScoreTable:
    def test_table_matches_forward(self):
        model, types, train = tiny_model()
        words = train[0].words
        table = model.score_table(words, types)
        enc = build_prompt(types, words, model.vocab)
        _, logits = forward(enc, model.params, model.config)
        assert np.array_equal(table.logits, logits.data)
        assert table.types == types
        assert table.num_words == len(words)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_logits_keep_the_parameter_dtype(self, dtype):
        # the decoder's logit cut is taken in the table's dtype; the probs
        # are computed on first read only
        model, types, train = tiny_model(dtype=dtype)
        table = model.score_table(train[0].words, types)
        assert table.logits.dtype == dtype
        assert "probs" not in vars(table)
        assert table.probs.dtype == dtype

    def test_gradient_free_forward_records_no_tape(self):
        # score_table's forward runs on gradient-free views of the parameters:
        # the same logits as the recorded forward, and no node but the result
        model, types, train = tiny_model()
        enc = build_prompt(types, train[0].words, model.vocab)
        free = {name: T.Tensor(p.data, dtype=p.dtype) for name, p in model.params.items()}
        _, logits = forward(enc, free, model.config)
        _, recorded = forward(enc, model.params, model.config)
        assert np.array_equal(logits.data, recorded.data)
        assert np.array_equal(model.score_table(train[0].words, types).logits, recorded.data)
        assert T.graph_nodes(logits) == [logits]
        assert len(T.graph_nodes(recorded)) > 1

    def test_in_place_parameter_edits_are_scored(self):
        # the gradient-free views are built once per model and share the
        # parameter arrays, as training's in-place updates need
        model, types, train = tiny_model()
        words = train[0].words
        before = model.score_table(words, types).logits
        model.params["head.ent.w1"].data *= 2.0
        after = model.score_table(words, types).logits
        enc = build_prompt(types, words, model.vocab)
        _, recorded = forward(enc, model.params, model.config)
        assert not np.array_equal(before, after)
        assert np.array_equal(after, recorded.data)

    def test_chunking_unions_columns(self):
        # more types than max_types: each chunk is scored separately and the
        # columns are concatenated in the original type order
        model, types, train = tiny_model(max_types=2)
        words = train[0].words
        table = model.score_table(words, types)
        assert table.types == types
        first = model.score_table(words, types[:2])
        assert np.array_equal(table.logits[:, :2], first.logits)

    def test_duplicate_types_rejected(self):
        model, types, train = tiny_model()
        with pytest.raises(ContractError):
            model.score_table(train[0].words, ["person", "person"])


class TestPredict:
    def test_returns_mentions_within_bounds(self):
        model, types, train = tiny_model()
        words = train[0].words
        for m in model.predict(words, types):
            assert 0 <= m.start <= m.end < len(words)
            assert m.type in types
            assert m.score > 0.5


class TestParams:
    def test_seed_reproducible(self):
        config = ModelConfig()
        a = init_params(config, 50, seed=3)
        b = init_params(config, 50, seed=3)
        assert all(np.array_equal(a[n].data, b[n].data) for n in a)

    def test_draws_do_not_depend_on_dtype(self):
        config = ModelConfig()
        a = init_params(config, 50, seed=3, dtype=np.float32)
        b = init_params(config, 50, seed=3, dtype=np.float64)
        assert all(np.array_equal(a[n].data, b[n].data.astype(np.float32)) for n in a)

    def test_params_follow_the_shape_table(self):
        config = ModelConfig(encoder=EncoderConfig(depth=3, width=16, heads=2), k=5)
        params = init_params(config, 50)
        shapes = param_shapes(config, 50)
        assert list(params) == list(shapes)
        assert all(params[n].shape == shapes[n] for n in shapes)

    @pytest.mark.parametrize("build, message", [
        (lambda: ModelConfig(k=2.5), "k must be int, got 2.5"),
        (lambda: ModelConfig(k=True), "k must be int, got true"),
        (lambda: ModelConfig(k=np.int64(12)), "k must be int, got "),
        (lambda: ModelConfig(head_dropout="0.1"), 'head_dropout must be float, got "0.1"'),
        (lambda: EncoderConfig(width=64.0), "width must be int, got 64.0"),
        (lambda: EncoderConfig(dropout=float("nan")), "dropout must be float, got NaN"),
        (lambda: TrainConfig(seed=1.5), "seed must be int, got 1.5"),
        (lambda: TrainConfig(steps=2.5), "steps must be int, got 2.5"),
        (lambda: TrainConfig(shuffle_types=1), "shuffle_types must be bool, got 1"),
        (lambda: TrainConfig(lr_head=float("inf")), "lr_head must be float, got Infinity"),
        (lambda: DecodeConfig(threshold="0.5"), 'threshold must be float, got "0.5"'),
        (lambda: DecodeConfig(mode=None), "mode must be str, got null"),
    ])
    def test_wrong_type_refused(self, build, message):
        # the Python API is checked as config files and checkpoint headers are:
        # these raised numpy or JSON errors later, or trained a rounded count
        with pytest.raises(ConfigError, match="^" + re.escape(message)):
            build()

    def test_config_dict_roundtrip(self):
        config = ModelConfig(k=7, max_types=13)
        assert ModelConfig.from_dict(config.to_dict()) == config

    @pytest.mark.parametrize("values", [
        {"head_dropout": 1.5}, {"head_dropout": 1.0}, {"head_dropout": -0.2}, {"k": 0},
        {"max_types": 0}, {"encoder": {"width": 0}}, {"encoder": {"width": -4}},
        {"encoder": {"ffn_mult": -1}}, {"encoder": {"max_positions": 0}},
        {"encoder": {"max_positions": -2}}])
    def test_out_of_range_config_rejected(self, values):
        enc = values.get("encoder", {})
        with pytest.raises(ConfigError):
            ModelConfig(**{**values, "encoder": EncoderConfig(**enc)})
        # the checkpoint and config-file path
        d = ModelConfig().to_dict()
        with pytest.raises(ConfigError):
            ModelConfig.from_dict({**d, **values, "encoder": {**d["encoder"], **enc}})


class TestBatch:
    @pytest.mark.parametrize("reduction", ["sum", "mean"])
    def test_batch_matches_one_prompt_at_a_time(self, reduction):
        # three prompts of different lengths and type counts, padded into one batch
        self.check_batch(reduction, [(0, slice(None)), (3, slice(0, 1)), (5, slice(1, 3))], 3)

    @pytest.mark.parametrize("reduction", ["sum", "mean"])
    def test_equal_lengths_match_one_prompt_at_a_time(self, reduction):
        # two prompts of one length (9 words and 2 types, 5 words and 4 types):
        # nothing is padded, yet each attends within its own prompt only
        self.check_batch(reduction, [(0, slice(1, 3)), (5, slice(None))], 1)

    def check_batch(self, reduction, picks, lengths):
        # prompts of (example, type slice) with ``lengths`` distinct token
        # lengths: each prompt's block of the batch's logits, the loss and the
        # loss's parameter grads match running each prompt alone
        model, types, train = tiny_model()
        model.config.encoder.dropout = model.config.head_dropout = 0.0
        examples = [train[i] for i, _ in picks]
        prompts = [build_prompt(types[cut], train[i].words, model.vocab) for i, cut in picks]
        assert len({len(p.token_ids) for p in prompts}) == lengths

        spans, logits = forward_batch(prompts, model.params, model.config)
        assert logits.shape == (sum(map(len, spans)),
                                sum(len(p.entity_types) for p in prompts))
        row = col = 0
        for enc, sp in zip(prompts, spans):
            alone_spans, alone = forward(enc, model.params, model.config)
            assert np.array_equal(sp, alone_spans)
            block = logits.data[row:row + len(sp), col:col + len(enc.entity_types)]
            assert np.abs(block - alone.data).max() < 1e-5
            row, col = row + len(sp), col + len(enc.entity_types)

        def run(batches):
            for p in model.params.values():
                p.zero_grad()
            total = 0.0
            for exs, encs in batches:
                loss, _ = batch_loss(model, exs, encs, rng=None, reduction=reduction)
                T.backward(loss)
                total += loss.item()
            return total, {n: p.grad for n, p in model.params.items()}

        together, together_grads = run([(examples, prompts)])
        apart, apart_grads = run([([ex], [enc]) for ex, enc in zip(examples, prompts)])
        assert abs(together - apart) / apart < 1e-5
        for name, g in apart_grads.items():
            scale = max(1.0, np.abs(g).max())
            assert np.abs(together_grads[name] - g).max() / scale < 1e-5, name


class TestTapeSize:
    def recipe(self):
        # the criterion-2 recipe: 50 sentences, their 10 types, dropout off
        train, _ = synth_dataset(SynthSpec(), train_size=50, dev_size=0, seed=0)
        types = sorted(SynthSpec().types)
        vocab = build_vocab(vocab_corpus(train, types), max_size=2000)
        config = ModelConfig(encoder=EncoderConfig(dropout=0.0), head_dropout=0.0)
        model = Model.fresh(config, vocab, seed=0, init_scale=0.05)
        return model, train, types

    def step_nodes(self, n):
        model, train, types = self.recipe()
        prompts = [build_prompt(types, ex.words, model.vocab) for ex in train[:n]]
        loss, _ = batch_loss(model, train[:n], prompts, np.random.default_rng(0))
        return T.graph_nodes(loss)

    def test_one_training_example_stays_small(self):
        # attention is one tape op, so no per-head split/rejoin nodes are
        # recorded, each projection with its bias is one linear node, one
        # span_endpoints node takes each span's endpoint rows through the
        # span head's first layer, and one span_scores node applies its second
        # layer on the type side and scores every pair
        nodes = self.step_nodes(1)
        assert len(nodes) <= 79
        assert not {n.op for n in nodes} & {"slice_cols", "scale", "softmax_rows", "concat_cols"}

    def test_one_training_step_is_one_graph(self):
        # a batch of 8 shares every node, the score product and the masked
        # BCE included, so it records no more nodes than one example
        ops = [n.op for n in self.step_nodes(8)]
        assert len(ops) <= 79 and not {"concat_cols", "transpose"} & set(ops)
        assert ops.count("bce_with_logits") == 1 and ops.count("span_scores") == 1


class TestTapeDtype:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_no_node_changes_dtype(self, dtype):
        # a train-mode step of 8 (dropout on): every node's data and every
        # leaf gradient keeps the parameters' dtype
        train, _ = synth_dataset(SynthSpec(), train_size=8, dev_size=0, seed=0)
        types = sorted(SynthSpec().types)
        model = Model.fresh(ModelConfig(), build_vocab(vocab_corpus(train, types)), dtype=dtype)
        prompts = [build_prompt(types, ex.words, model.vocab) for ex in train]
        loss, _ = batch_loss(model, train, prompts, np.random.default_rng(0))
        nodes = T.graph_nodes(loss)
        assert {"dropout", "gelu", "attention", "span_endpoints"} <= {n.op for n in nodes}
        assert {n.data.dtype for n in nodes} == {np.dtype(dtype)}
        T.backward(loss)
        assert {p.grad.dtype for p in model.params.values()} == {np.dtype(dtype)}
