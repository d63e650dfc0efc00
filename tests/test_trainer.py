import math

import numpy as np
import pytest

from promptner import tensor as T
from promptner.decoder import EntityMention
from promptner.errors import ContractError
from promptner.matcher import enumerate_spans
from promptner.trainer import (OptimState, TrainingExample, adamw_step,
                               build_labels, drop_types, lr_at,
                               sample_negative_types, shuffle_and_drop)


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


class TestBuildLabels:
    def test_ones_exactly_on_gold(self):
        ex = example()
        spans = enumerate_spans(5, 12)
        grid = build_labels(ex, ["person", "organization"], spans)
        assert grid.targets.sum() == 2
        idx = {tuple(s): i for i, s in enumerate(spans.tolist())}
        assert grid.targets[idx[(0, 1)], 0] == 1.0
        assert grid.targets[idx[(4, 4)], 1] == 1.0

    def test_column_order_follows_prompt(self):
        ex = example()
        spans = enumerate_spans(5, 12)
        grid = build_labels(ex, ["organization", "person"], spans)
        idx = {tuple(s): i for i, s in enumerate(spans.tolist())}
        assert grid.targets[idx[(0, 1)], 1] == 1.0

    def test_wide_gold_counted_not_raised(self):
        ex = example(words=("a", "b", "c"), gold=((0, 2, "t"),))
        grid = build_labels(ex, ["t"], enumerate_spans(3, 2))
        assert grid.filtered_wide == 1
        assert grid.targets.sum() == 0

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
        with pytest.raises(ContractError):
            sample_negative_types(example(), [], 1.0, np.random.default_rng(0))

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
        with pytest.raises(ContractError):
            shuffle_and_drop(["a"], 1.0, np.random.default_rng(0))

    def test_unshuffled_drop_keeps_order(self):
        # the rule fit applies when shuffle_types is off
        rng = np.random.default_rng(4)
        for _ in range(200):
            out = drop_types(list("abcdef"), 0.5, rng)
            assert out and out == [t for t in "abcdef" if t in out]
        with pytest.raises(ContractError):
            drop_types(["a"], 1.0, rng)


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


class TestFit:
    def test_single_example_overfits(self):
        from promptner.data import vocab_corpus
        from promptner.encoder import EncoderConfig
        from promptner.model import Model, ModelConfig
        from promptner.tokenizer import build_vocab
        from promptner.trainer import TrainConfig, fit

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
