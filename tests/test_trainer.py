import math
import re

import numpy as np
import pytest

from promptner import tensor as T
from promptner.data import vocab_corpus
from promptner.decoder import DecodeConfig, EntityMention, decode
from promptner.encoder import EncoderConfig
from promptner.errors import ConfigError, ContractError, SizingError
from promptner.matcher import enumerate_spans
from promptner.model import Model, ModelConfig
from promptner.prompt import build_prompt
from promptner.tokenizer import build_vocab
from promptner.trainer import (BETA1, BETA2, EPS, OptimState, TrainConfig, TrainingExample,
                               adamw_step, batch_loss, build_labels, drop_types, evaluate_dataset,
                               fit, lr_at, sample_negative_types, shuffle_and_drop)


def tiny_model(data, k=12):
    """A small untrained model over the words and types of ``data``."""
    types = sorted({t for ex in data for t in ex.positive_types})
    vocab = build_vocab(vocab_corpus(data, types), max_size=300)
    config = ModelConfig(encoder=EncoderConfig(depth=1, width=16, heads=2), k=k)
    return Model.fresh(config, vocab, seed=0)


def example(words=("alain", "farley", "works", "at", "mcgill"),
            gold=((0, 1, "person"), (4, 4, "organization"))):
    return TrainingExample(list(words), [EntityMention(s, e, t) for s, e, t in gold])


class TestTrainingExample:
    def test_positive_types_sorted_unique(self):
        ex = example(gold=((0, 0, "b"), (1, 1, "a"), (2, 2, "a")))
        assert ex.positive_types == ["a", "b"]

    def test_out_of_bounds_span_rejected(self):
        with pytest.raises(ContractError):
            example(words=("one",), gold=((0, 1, "t"),))

    def test_duplicate_gold_rejected(self):
        with pytest.raises(ContractError):
            example(gold=((0, 0, "t"), (0, 0, "t")))

    @pytest.mark.parametrize("start, end, etype", [
        (0.5, 1, "x"), (True, True, "y"), (0, np.bool_(True), "y"), ("0", 1, "x"),
        (0, 0, 5), (0, 0, ""),
    ])
    def test_malformed_gold_rejected(self, start, end, etype):
        message = (f"entity type {etype!r} is not a non-empty string" if start == 0 and end == 0
                   else f"span ({start!r},{end!r}) indices must be integers")
        with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
            TrainingExample(["a", "b", "c"], [EntityMention(0, 0, "t"),
                                              EntityMention(start, end, etype)])

    def test_numpy_integer_indices_accepted(self):
        ex = TrainingExample(["a", "b"], [EntityMention(np.int64(0), np.int32(1), "t")])
        assert build_labels(ex, ["t"], enumerate_spans(2, 2)).sum() == 1


class TestBuildLabels:
    def test_ones_exactly_on_gold(self):
        ex = example()
        spans = enumerate_spans(5, 12)
        targets = build_labels(ex, ["person", "organization"], spans)
        assert targets.shape == (len(spans), 2) and targets.dtype == np.float32
        assert targets.sum() == 2
        idx = {tuple(s): i for i, s in enumerate(spans.tolist())}
        assert targets[idx[(0, 1)], 0] == 1.0
        assert targets[idx[(4, 4)], 1] == 1.0

    def test_column_order_follows_prompt(self):
        ex = example()
        spans = enumerate_spans(5, 12)
        targets = build_labels(ex, ["organization", "person"], spans)
        idx = {tuple(s): i for i, s in enumerate(spans.tolist())}
        assert targets[idx[(0, 1)], 1] == 1.0

    def test_wide_gold_counted_not_raised(self):
        # a gold span wider than K has no row, so it sets no 1; batch_loss
        # counts it from the targets
        ex = example(words=("a", "b", "c"), gold=((0, 2, "t"), (1, 1, "t")))
        assert build_labels(ex, ["t"], enumerate_spans(3, 2)).sum() == 1
        model = tiny_model([ex], k=2)
        enc = build_prompt(["t"], ex.words, model.vocab)
        _, wide = batch_loss(model, [ex], [enc], rng=np.random.default_rng(0))
        assert wide == 1

    def test_missing_gold_type_rejected(self):
        with pytest.raises(ContractError):
            build_labels(example(), ["person"], enumerate_spans(5, 12))

    def test_duplicate_prompt_types_rejected(self):
        with pytest.raises(ContractError):
            build_labels(example(), ["person", "person", "organization"],
                         enumerate_spans(5, 12))


class TestNegativeSampling:
    def test_half_ratio_matches_positive_count(self):
        ex = example()  # 2 positives
        rng = np.random.default_rng(0)
        out = sample_negative_types(ex, ["location", "date", "event"], 0.5, rng)
        assert len(out) == 4  # 2 positives + 2 negatives
        assert out[:2] == ex.positive_types

    def test_never_samples_own_positives(self):
        ex = example()
        rng = np.random.default_rng(1)
        for _ in range(50):
            out = sample_negative_types(ex, ["person", "location"], 0.5, rng)
            assert out.count("person") == 1

    def test_capped_by_pool(self):
        ex = example()
        out = sample_negative_types(ex, ["location"], 0.9, np.random.default_rng(2))
        assert len(out) == 3

    def test_capped_by_max_types(self):
        ex = example(gold=((0, 0, "t"),))
        pool = [f"n{i}" for i in range(30)]
        out = sample_negative_types(ex, pool, 0.9, np.random.default_rng(3), max_types=5)
        assert len(out) == 5

    def test_zero_ratio_gives_positives_only(self):
        ex = example()
        out = sample_negative_types(ex, ["location"], 0.0, np.random.default_rng(4))
        assert out == ex.positive_types

    def test_invalid_ratio(self):
        # refused like TrainConfig's neg_ratio, under the field's name and rule
        for ratio in (1.0, -0.1, math.nan):
            with pytest.raises(ConfigError, match=re.escape("neg_ratio must be in [0, 1)")):
                sample_negative_types(example(), [], ratio, np.random.default_rng(0))

    def test_negative_fraction_near_half(self):
        # over many batches the negative fraction at ratio 0.5 stays near 0.5
        rng = np.random.default_rng(5)
        pool = [f"n{i}" for i in range(10)]
        neg = tot = 0
        for _ in range(1000):
            ex = example()
            out = sample_negative_types(ex, pool, 0.5, rng)
            neg += len(out) - 2
            tot += len(out)
        assert 0.45 <= neg / tot <= 0.55


class TestShuffleAndDrop:
    def test_zero_drop_is_permutation(self):
        out = shuffle_and_drop(list("abcdef"), 0.0, np.random.default_rng(0))
        assert sorted(out) == list("abcdef")

    def test_at_least_one_survivor(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            out = shuffle_and_drop(["a", "b"], 0.95, rng)
            assert len(out) >= 1

    def test_survivor_mean(self):
        rng = np.random.default_rng(2)
        types = [f"t{i}" for i in range(10)]
        total = sum(len(shuffle_and_drop(types, 0.2, rng)) for _ in range(10_000))
        assert 7.8 <= total / 10_000 <= 8.2

    def test_shuffles(self):
        rng = np.random.default_rng(3)
        seen = {tuple(shuffle_and_drop(list("abcd"), 0.0, rng)) for _ in range(100)}
        assert len(seen) > 1

    def test_invalid_prob(self):
        with pytest.raises(ConfigError, match=re.escape("drop_prob must be in [0, 1), got 1.0")):
            shuffle_and_drop(["a"], 1.0, np.random.default_rng(0))

    def test_unshuffled_drop_keeps_order(self):
        # the rule fit applies when shuffle_types is off
        rng = np.random.default_rng(4)
        for _ in range(200):
            out = drop_types(list("abcdef"), 0.5, rng)
            assert out and out == [t for t in "abcdef" if t in out]
        with pytest.raises(ConfigError, match=re.escape("drop_prob must be in [0, 1), got 1.0")):
            drop_types(["a"], 1.0, rng)

    def test_no_type_draws_nothing(self):
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        assert drop_types([], 0.2, rng) == [] and shuffle_and_drop([], 0.2, rng) == []
        assert rng.bit_generator.state == state


class TestLrSchedule:
    def test_endpoints_and_midpoint(self):
        base, total = 3e-4, 1000
        assert lr_at(0, total, base) == 0.0
        assert lr_at(100, total, base) == base          # warmup end, exact
        assert lr_at(total, total, base) == pytest.approx(0.0, abs=1e-18)
        mid = (100 + total) // 2
        assert lr_at(mid, total, base) == pytest.approx(base / 2, abs=1e-9)

    def test_warmup_is_linear(self):
        base, total = 1.0, 1000
        for step in range(101):
            assert lr_at(step, total, base) == pytest.approx(base * step / 100)

    def test_decay_monotone(self):
        vals = [lr_at(s, 1000, 1.0) for s in range(100, 1001)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_out_of_range_step(self):
        with pytest.raises(ContractError):
            lr_at(-1, 10, 1.0)
        with pytest.raises(ContractError):
            lr_at(11, 10, 1.0)


class TestAdamW:
    def _params(self, value):
        return {"head.w": T.Tensor(np.array([value]), requires_grad=True,
                                   dtype=np.float64)}

    def test_descends_quadratic(self):
        params = self._params(5.0)
        state = OptimState(group_lrs={"head.": 0.1}, total_steps=200, warmup_frac=0.0)
        for _ in range(200):
            p = params["head.w"]
            p.grad = 2 * p.data  # d/dw w^2
            adamw_step(params, state)
        assert abs(params["head.w"].data[0]) < 0.5

    def test_zero_grads_zero_decay_leave_params_unchanged(self):
        params = self._params(3.0)
        state = OptimState(group_lrs={"head.": 0.1}, total_steps=100, warmup_frac=0.0)
        params["head.w"].grad = np.zeros(1)
        adamw_step(params, state)
        assert params["head.w"].data[0] == 3.0

    def test_zero_grads_decay_shrinks_by_exact_factor(self):
        params = self._params(1.0)
        state = OptimState(group_lrs={"head.": 0.1}, total_steps=100,
                          weight_decay=0.5, warmup_frac=0.0)
        params["head.w"].grad = np.zeros(1)
        adamw_step(params, state)
        lr = lr_at(1, 100, 0.1, 0.0)  # the update uses the scheduled rate
        assert params["head.w"].data[0] == pytest.approx(1.0 - lr * 0.5, abs=1e-15)

    def test_first_step_matches_hand_computation(self):
        # from zero moments with gradient g, the bias-corrected first step
        # is -lr * g / (|g| + eps) regardless of |g|
        g = 0.37
        eps = 1e-8
        params = self._params(2.0)
        params["head.w"].grad = np.array([g])
        state = OptimState(group_lrs={"head.": 0.1}, total_steps=100, warmup_frac=0.0)
        adamw_step(params, state)
        lr = lr_at(1, 100, 0.1, 0.0)
        expected = 2.0 - lr * g / (abs(g) + eps)
        assert params["head.w"].data[0] == pytest.approx(expected, rel=1e-12)

    def test_missing_gradient_rejected(self):
        params = self._params(1.0)
        params["head.w"].grad = None
        state = OptimState(group_lrs={"head.": 0.1}, total_steps=10)
        with pytest.raises(ContractError):
            adamw_step(params, state)

    def test_unmatched_group_rejected(self):
        state = OptimState(group_lrs={"encoder.": 0.1}, total_steps=10)
        with pytest.raises(ContractError):
            state.base_lr_for("head.w")

    def test_unmatched_parameter_refused_before_any_update(self):
        params = {"encoder.w": T.Tensor(np.array([1.0]), requires_grad=True, dtype=np.float64),
                  "head.w": T.Tensor(np.array([1.0]), requires_grad=True, dtype=np.float64)}
        for p in params.values():
            p.grad = np.ones(1)
        state = OptimState(group_lrs={"encoder.": 0.1}, total_steps=10, warmup_frac=0.0)
        with pytest.raises(ContractError, match="'head.w' matches no learning-rate group"):
            adamw_step(params, state)
        assert state.step == 0 and not state.m and params["encoder.w"].data[0] == 1.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_update_is_the_textbook_form_to_the_bit(self, dtype):
        # 12 steps, two groups, weight decay: params and moments equal those
        # of the expression form, so checkpoints and traces keep their bytes
        rng = np.random.default_rng(0)
        shapes = {"encoder.a": (3, 4), "encoder.b": (4,), "head.c": (5, 2)}
        params = {n: T.Tensor(rng.normal(size=s) * 0.02, requires_grad=True, dtype=dtype)
                  for n, s in shapes.items()}  # the init scale: updates are not lost in p
        ref = {n: p.data.copy() for n, p in params.items()}
        m = {n: np.zeros_like(x) for n, x in ref.items()}
        v = {n: np.zeros_like(x) for n, x in ref.items()}
        state = OptimState(group_lrs={"encoder.": 3e-3, "head.": 1e-2}, total_steps=10,
                          weight_decay=0.01)
        for t in range(1, 13):
            for n, p in params.items():
                p.grad = rng.normal(size=shapes[n]).astype(dtype)
            adamw_step(params, state)
            for n, p in params.items():
                g = p.grad
                m[n] = BETA1 * m[n] + (1 - BETA1) * g
                v[n] = BETA2 * v[n] + (1 - BETA2) * g * g
                mhat = m[n] / (1 - BETA1 ** t)
                vhat = v[n] / (1 - BETA2 ** t)
                lr = lr_at(min(t, 10), 10, state.base_lr_for(n), state.warmup_frac)
                ref[n] *= 1.0 - lr * state.weight_decay
                ref[n] -= lr * mhat / (np.sqrt(vhat) + EPS)
                assert np.array_equal(p.data, ref[n]), (t, n)
                assert np.array_equal(state.m[n], m[n]) and np.array_equal(state.v[n], v[n])

    def test_two_groups_use_their_own_rates(self):
        params = {"encoder.w": T.Tensor(np.array([1.0]), requires_grad=True, dtype=np.float64),
                  "head.w": T.Tensor(np.array([1.0]), requires_grad=True, dtype=np.float64)}
        for p in params.values():
            p.grad = np.ones(1)
        state = OptimState(group_lrs={"encoder.": 0.0, "head.": 0.1},
                          total_steps=10, warmup_frac=0.0)
        adamw_step(params, state)
        assert params["encoder.w"].data[0] == 1.0
        assert params["head.w"].data[0] < 1.0


class TestTrainConfig:
    @pytest.mark.parametrize("values", [{"batch_size": 0}, {"warmup_frac": 2.0},
                                        {"warmup_frac": -0.1}, {"reduction": "max"},
                                        {"type_policy": "all"}, {"steps": 0}, {"steps": -1},
                                        {"seed": -1}, {"neg_ratio": 1.0}, {"neg_ratio": 1.5},
                                        {"neg_ratio": -0.1}, {"drop_prob": 1.0},
                                        {"drop_prob": -0.1}, {"lr_encoder": -0.5},
                                        {"lr_head": -1.0}, {"weight_decay": -1.0},
                                        {"log_every": -1}, {"eval_every": -2},
                                        {"lr_head": float("nan")}])
    def test_out_of_range_config_rejected(self, values):
        with pytest.raises(ConfigError):
            TrainConfig(**values)

    def test_bounds_accepted(self):
        TrainConfig(steps=1, batch_size=1, warmup_frac=0.0)
        TrainConfig(warmup_frac=1.0)
        TrainConfig(neg_ratio=0.0, drop_prob=0.0, lr_encoder=0.0, lr_head=0.0,
                    weight_decay=0.0, log_every=0, eval_every=0)


class TestTrainingGradient:
    def test_equals_the_add_at_scatter_to_the_bit(self, monkeypatch):
        # gather_rows adds a row read twice into an existing grad as G + (g1 + g2),
        # where np.add.at gives (G + g1) + g2; in a training step the gathers that
        # read a row twice meet no grad yet, and the [ENT] gather, which meets one,
        # reads distinct rows, so the two agree to the bit
        data = [example(), example(("bob", "lives", "in", "paris"),
                                   ((0, 0, "person"), (3, 3, "location"))),
                example(("mcgill", "hired", "alain", "farley", "in", "montreal", "today"),
                        ((0, 0, "organization"), (2, 3, "person"), (5, 5, "location")))]
        vocab = build_vocab(vocab_corpus(data, ["location", "organization", "person"]), 300)
        model = Model.fresh(ModelConfig(encoder=EncoderConfig(width=16, heads=2), k=12), vocab, 0)
        assert model.config.encoder.depth > 1  # the read rows gathered after a first layer
        prompts = [build_prompt(ex.positive_types, ex.words, vocab) for ex in data]

        def grads():
            for p in model.params.values():
                p.zero_grad()
            T.backward(batch_loss(model, data, prompts, np.random.default_rng(4))[0])
            return {k: p.grad.tobytes() for k, p in model.params.items()}

        ours = grads()

        def add_at_gather(a, idx):
            idx = np.asarray(idx, dtype=np.int64)

            def bw(g):
                if a.grad is None:
                    a.grad = np.zeros_like(a.data)
                np.add.at(a.grad, idx, g)

            return T._result(a.data[idx], (a,), "gather_rows", bw)

        monkeypatch.setattr(T, "gather_rows", add_at_gather)
        assert grads() == ours


class TestFit:
    def test_single_example_overfits(self):
        ex = example()
        types = ex.positive_types
        vocab = build_vocab(vocab_corpus([ex], types), max_size=300)
        config = ModelConfig(encoder=EncoderConfig(dropout=0.0), head_dropout=0.0)
        model = Model.fresh(config, vocab, seed=0, init_scale=0.05)
        tcfg = TrainConfig(steps=300, batch_size=1, lr_encoder=2e-3, lr_head=2e-3,
                           neg_ratio=0.0, drop_prob=0.0, seed=0, log_every=0,
                           shuffle_types=False)
        trace = fit([ex], model, tcfg)
        assert trace[-1]["loss"] < 0.01

    def test_inventory_over_max_types_rejected(self):
        ex = example()  # two types: person, organization
        vocab = build_vocab(vocab_corpus([ex], ex.positive_types), max_size=300)
        model = Model.fresh(ModelConfig(max_types=1), vocab, seed=0)
        tcfg = TrainConfig(steps=1, type_policy="inventory", log_every=0)
        with pytest.raises(ContractError, match="2 types.*max_types=1"):
            fit([ex], model, tcfg)

    def test_bad_example_named_within_its_batch(self):
        # the batch runs as one graph, yet the error still names the dataset
        # index of the sentence the encoder cannot place: with max_positions
        # 64 the sentence gets 32 positions, and example 1 has 40 words
        long = example(words=["works"] * 38 + ["alain", "farley"], gold=((38, 39, "person"),))
        data = [example(), long, example()]
        vocab = build_vocab(vocab_corpus(data, ["person", "organization"]), max_size=300)
        config = ModelConfig(encoder=EncoderConfig(max_positions=64))
        model = Model.fresh(config, vocab, seed=0)
        tcfg = TrainConfig(steps=1, batch_size=3, log_every=0)
        with pytest.raises(ContractError,
                           match="training failed on example 1: sentence length 40 exceeds 32"):
            fit(data, model, tcfg)

    @pytest.mark.parametrize("error, expected, message", [
        (SizingError("simulated"), ContractError, "^training failed on example 0: simulated$"),
        (RuntimeError("simulated"), RuntimeError, "^simulated$"),  # not the example's fault
        (MemoryError("simulated"), MemoryError, "^simulated$"),
    ])
    def test_only_a_refused_example_is_named(self, monkeypatch, error, expected, message):
        def build_prompt(*args, **kwargs):
            raise error

        monkeypatch.setattr("promptner.prompt.build_prompt", build_prompt)
        data = [example()]
        tcfg = TrainConfig(steps=1, batch_size=1, log_every=0)
        with pytest.raises(expected, match=message) as raised:
            fit(data, tiny_model(data), tcfg)
        assert (raised.value is error) == (expected is not ContractError)

    @pytest.mark.parametrize("policy, data, message", [
        ("sample", [example(), example(words=("it", "rained", "today"), gold=())],
         r"example 1 has no gold mention, so no prompt can hold it under type_policy 'sample'; "
         r"'inventory' prompts every example with the dataset's types \(2 here\)"),
        ("inventory", [example(words=("it", "rained"), gold=()), example(gold=())],
         r"example 0 has no gold mention, so no prompt can hold it under type_policy "
         r"'inventory'; 'inventory' prompts every example with the dataset's types \(0 here\)"),
    ])
    def test_example_no_prompt_can_hold_refused_before_any_update(self, policy, data, message):
        # under "sample" an example's prompt holds its own gold types and a
        # ratio of them as negatives, so one without gold has none
        model = tiny_model(data + [example()])
        before = {n: p.data.copy() for n, p in model.params.items()}
        logged = []
        with pytest.raises(ContractError, match=f"^{message}$"):
            fit(data, model, TrainConfig(steps=3, batch_size=2, type_policy=policy, log_every=1),
                log=logged.append)
        assert logged == []
        assert all(np.array_equal(p.data, before[n]) for n, p in model.params.items())

    def test_example_without_gold_trains_under_inventory(self):
        data = [example(), example(words=("it", "rained", "today"), gold=())]
        trace = fit(data, tiny_model(data),
                    TrainConfig(steps=2, batch_size=2, type_policy="inventory", log_every=0))
        assert [rec["step"] for rec in trace] == [1, 2]

    def test_dev_f1_every_eval_every_steps(self, monkeypatch):
        # scored on the training inventory, not on each dev sentence's own gold types
        ex = example()
        model = tiny_model([ex])
        logged, asked = [], []
        monkeypatch.setattr("promptner.trainer.evaluate_dataset", lambda m, d, types:
                            asked.append(types) or evaluate_dataset(m, d, types))
        dev = example(words=("marie", "curie", "works", "at", "mcgill"), gold=((0, 1, "person"),))
        trace = fit([ex], model, TrainConfig(steps=4, batch_size=1, eval_every=2, log_every=1),
                    dev=[dev], log=logged.append)
        assert ["dev_f1" in rec for rec in trace] == [False, True, False, True]
        assert logged == trace
        assert asked == [["organization", "person"]] * 2
        assert trace[-1]["dev_f1"] == evaluate_dataset(model, [dev], ex.positive_types).f1

    def test_dev_types_is_no_parameter(self):
        ex = example()
        with pytest.raises(TypeError):
            fit([ex], tiny_model([ex]), TrainConfig(steps=1), dev=[ex], dev_types=["person"])

    def test_eval_every_without_dev_refused(self):
        ex = example()
        model = tiny_model([ex])
        before = {n: p.data.copy() for n, p in model.params.items()}
        with pytest.raises(ContractError, match="eval_every=2 needs a dev set"):
            fit([ex], model, TrainConfig(steps=4, batch_size=1, eval_every=2, log_every=1))
        assert all(np.array_equal(p.data, before[n]) for n, p in model.params.items())

    @pytest.mark.parametrize("name", ["encoder.final_ln.b", "head.span.b1", "encoder.tok_emb"])
    def test_non_finite_loss_stops_before_any_update(self, name):
        # a NaN parameter makes step 1's loss NaN: nothing is logged, no
        # gradient is computed and no parameter moves
        ex = example()
        model = tiny_model([ex])
        model.params[name].data[...] = np.nan
        before = {n: p.data.copy() for n, p in model.params.items()}
        logged = []
        with pytest.raises(ContractError, match="step 1: non-finite loss nan"):
            fit([ex], model, TrainConfig(steps=3, batch_size=1, log_every=1), log=logged.append)
        assert logged == []
        assert all(p.grad is None for p in model.params.values())
        assert all(np.array_equal(p.data, before[n], equal_nan=True)
                   for n, p in model.params.items())

    def test_wide_gold_warning_counts_every_step(self):
        # a 3-word gold span with K = 2 is in the prompt of each of the 3 steps
        ex = example(words=("a", "b", "c"), gold=((0, 2, "t"), (1, 1, "u")))
        model = tiny_model([ex], k=2)
        logged = []
        fit([ex], model, TrainConfig(steps=3, batch_size=1, drop_prob=0.0, log_every=0),
            log=logged.append)
        assert logged == [{"warning": "gold spans wider than K filtered from supervision",
                           "count": 3}]


class TestEvaluateDataset:
    def test_example_without_gold_is_predicted_on_the_given_types(self):
        # what it predicts on the given types are its false positives
        ex, empty = example(), example(gold=())
        model = tiny_model([ex])
        config = DecodeConfig(threshold=0.01)  # an untrained model scores near 0.5
        predicted = model.predict(empty.words, ex.positive_types, config)
        report = evaluate_dataset(model, [empty], ex.positive_types, config)
        assert predicted and report.fp == len(predicted) and report.tp == report.fn == 0

    def test_entity_types_are_required(self):
        ex = example()
        with pytest.raises(TypeError):
            evaluate_dataset(tiny_model([ex]), [ex])

    def test_default_config_is_built_once(self, monkeypatch):
        # every sentence decodes with the one default DecodeConfig of the call
        ex = example()
        model = tiny_model([ex])
        seen = []
        monkeypatch.setattr("promptner.trainer.decode",
                            lambda table, config: seen.append(config) or decode(table, config))
        report = evaluate_dataset(model, [ex, example(gold=()), ex], ex.positive_types)
        assert len(seen) == 3 and all(c is seen[0] for c in seen)
        assert seen[0] == DecodeConfig()
        assert report == evaluate_dataset(model, [ex, example(gold=()), ex], ex.positive_types,
                                          DecodeConfig())
