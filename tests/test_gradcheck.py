"""Finite-difference oracle behaviour and a small end-to-end model check.

The exhaustive multi-seed, both-dtype sweep lives in the acceptance suite;
here we pin the oracle machinery itself (determinism check, kink guard,
resampling) plus one fast float64 end-to-end pass.
"""

import numpy as np
import pytest

from conftest import mul, sum_all
from promptner import tensor as T
from promptner.errors import ContractError
from promptner.gradcheck import (KinkError, grad_check, grad_check_resampling,
                                 model_gradcheck)


def tensor(arr):
    return T.Tensor(np.asarray(arr, dtype=float), requires_grad=True,
                    dtype=np.float64)


class TestGradCheck:
    def test_correct_gradient_passes(self):
        params = {"w": tensor([[1.0, 2.0], [3.0, 4.0]])}
        errs = grad_check(lambda p: sum_all(mul(p["w"], p["w"])), params,
                          kink_guard=False)
        assert errs["w"] < 1e-8

    def test_detects_wrong_gradient(self):
        def bad_op(x):
            out = T.Tensor(x.data * 3.0, requires_grad=True, dtype=x.data.dtype,
                           _parents=(x,), _op="bad")
            out._backward = lambda g: x._accumulate(g * 2.0)  # wrong: 3x has grad 3
            return out

        params = {"w": tensor([[1.0, 2.0]])}
        errs = grad_check(lambda p: sum_all(bad_op(p["w"])), params, kink_guard=False)
        assert errs["w"] > 0.1

    def test_nondeterministic_f_rejected(self):
        state = {"n": 0}

        def f(p):
            state["n"] += 1
            return sum_all(mul(p["w"], float(state["n"])))

        with pytest.raises(ContractError, match="deterministic"):
            grad_check(f, {"w": tensor([[1.0]])}, kink_guard=False)

    def test_kink_guard_triggers_near_zero(self):
        params = {"w": tensor([[1e-9]])}
        with pytest.raises(KinkError):
            grad_check(lambda p: sum_all(T.relu(p["w"])), params, eps=1e-5)

    def test_kink_guard_sees_the_relu_fused_into_span_endpoints(self):
        # h = 1 and w1 = 1, so each pre-activation is 2 + b1
        spans = np.array([[0, 0], [0, 1]])
        h, w1 = tensor(np.ones((2, 1))), tensor(np.ones((2, 2)))

        def f(b1):
            return lambda p: sum_all(T.span_endpoints(p["h"], spans, p["w1"], b1))

        with pytest.raises(KinkError):
            grad_check(f(tensor([-2 + 1e-9, -1.5])), {"h": h, "w1": w1}, eps=1e-5)
        errs = grad_check(f(tensor([-2.5, -1.5])), {"h": h, "w1": w1}, eps=1e-5)
        assert max(errs.values()) < 1e-8

    def test_kink_guard_quiet_away_from_zero(self):
        params = {"w": tensor([[0.5, -0.5]])}
        errs = grad_check(lambda p: sum_all(T.relu(p["w"])), params, eps=1e-5)
        assert errs["w"] < 1e-8

    def test_bad_eps_rejected(self):
        with pytest.raises(ContractError):
            grad_check(lambda p: sum_all(p["w"]), {"w": tensor([1.0])}, eps=0.0)

    @pytest.mark.parametrize("samples", [0, -2])
    def test_no_sampled_coordinate_rejected(self, samples):
        # checking no coordinate would report an error of 0, a pass
        with pytest.raises(ContractError, match="samples per tensor >= 1"):
            grad_check(lambda p: sum_all(p["w"]), {"w": tensor([1.0])},
                       samples_per_param=samples)

    def test_sampled_coordinates_subset(self):
        params = {"w": tensor(np.random.default_rng(0).normal(size=(10, 10)))}
        errs = grad_check(lambda p: sum_all(mul(p["w"], p["w"])), params,
                          samples_per_param=5, kink_guard=False)
        assert errs["w"] < 1e-8


class TestResampling:
    def test_skips_kinked_points(self):
        calls = {"n": 0}

        def make_point(seed):
            calls["n"] += 1
            # first draw sits on a kink, later draws are clean
            val = 1e-9 if calls["n"] == 1 else 0.7
            return {"w": tensor([[val]])}

        errs, rejected = grad_check_resampling(
            make_point, lambda p: sum_all(T.relu(p["w"])), max_resamples=5)
        assert rejected == 1
        assert errs["w"] < 1e-8

    def test_gives_up_eventually(self):
        make_point = lambda seed: {"w": tensor([[1e-9]])}
        with pytest.raises(RuntimeError, match="kink-free"):
            grad_check_resampling(make_point, lambda p: sum_all(T.relu(p["w"])),
                                  max_resamples=3)


class TestModelGradcheck:
    def test_end_to_end_float64(self):
        errs = model_gradcheck(seed=0, dtype=np.float64, samples_per_param=3)
        assert max(errs.values()) < 1e-6, max(errs, key=errs.get)

    def test_every_parameter_covered(self):
        from promptner.model import ModelConfig, init_params
        errs = model_gradcheck(seed=1, dtype=np.float64, samples_per_param=2)
        reference = init_params(ModelConfig(), vocab_size=10)
        assert set(errs) == set(reference)
