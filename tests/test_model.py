import numpy as np
import pytest

from promptner import tensor as T
from promptner.data import SynthSpec, synth_dataset, vocab_corpus
from promptner.encoder import EncoderConfig
from promptner.errors import ContractError
from promptner.matcher import span_count
from promptner.model import Model, ModelConfig, forward, init_params
from promptner.prompt import build_prompt
from promptner.tokenizer import build_vocab
from promptner.trainer import TrainConfig, _example_loss


def tiny_model(max_types=25):
    train, _ = synth_dataset(train_size=6, dev_size=0, seed=0)
    types = ["person", "organization", "location", "date"]
    vocab = build_vocab(vocab_corpus(train, types), max_size=500)
    config = ModelConfig(max_types=max_types)
    return Model.fresh(config, vocab, seed=0), types, train


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

    def test_config_dict_roundtrip(self):
        config = ModelConfig(k=7, max_types=13)
        assert ModelConfig.from_dict(config.to_dict()) == config


class TestTapeSize:
    def test_one_training_example_stays_small(self):
        # the criterion-2 recipe's first sentence with its 10 types; attention
        # is one tape op, so no per-head split/rejoin nodes are recorded
        train, _ = synth_dataset(SynthSpec(), train_size=50, dev_size=0, seed=0)
        types = sorted(SynthSpec().types)
        vocab = build_vocab(vocab_corpus(train, types), max_size=2000)
        config = ModelConfig(encoder=EncoderConfig(dropout=0.0), head_dropout=0.0)
        model = Model.fresh(config, vocab, seed=0, init_scale=0.05)
        loss, _ = _example_loss(model, train[0], types, TrainConfig(),
                                np.random.default_rng(0))
        nodes = T.graph_nodes(loss)
        assert len(nodes) <= 98
        assert not {n.op for n in nodes} & {"slice_cols", "scale", "softmax_rows"}
