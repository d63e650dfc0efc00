"""Finite-difference verification of autodiff gradients.

The oracle is a central difference (f(t+e) - f(t-e)) / 2e evaluated in
float64 regardless of the model's working precision, so the comparison
against float32 autodiff is limited by float32 rounding, not by the
difference quotient itself.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .errors import ContractError

TOLERANCE = {np.float32: 1e-3, np.float64: 1e-6}  # worst relative error, by parameter dtype


class KinkError(RuntimeError):
    """A relu pre-activation sits too close to zero for a reliable check."""


def _relu_margin(loss):
    """Smallest |pre-activation| over every ReLU in the recorded graph: a relu
    node's input, or the ``pre_relu`` a fused op keeps on its backward."""
    margin = np.inf
    for node in T.graph_nodes(loss):
        fused = getattr(node._backward, "pre_relu", None)
        x = node._parents[0].data if node.op == "relu" else fused
        if x is not None and x.size:
            margin = min(margin, float(np.abs(x).min()))
    return margin


def grad_check(f, params, eps=1e-5, samples_per_param=None, rng=None, kink_guard=True):
    """Compare autodiff grads of ``f(params)`` against central differences.

    ``f`` maps a name->Tensor dict to a scalar Tensor and must be
    deterministic (evaluate-twice check; dropout must be disabled).
    Returns a dict name -> max relative error over the checked coordinates.
    When ``samples_per_param`` is given, that many coordinates per tensor are
    checked (seeded by ``rng``); otherwise every coordinate is.

    Raises :class:`KinkError` when any relu pre-activation lies within
    ``10 * eps`` of zero: the subgradient there is ambiguous, so the caller
    should resample the evaluation point rather than fail.
    """
    if eps <= 0 or (samples_per_param is not None and samples_per_param < 1):
        raise ContractError(f"need eps > 0 and samples per tensor >= 1 (or None: all), got "
                            f"{eps} and {samples_per_param}")
    rng = rng or np.random.default_rng(0)

    loss = f(params)
    if float(f(params).data) != float(loss.data):
        raise ContractError("f is not deterministic (is dropout enabled?)")
    if kink_guard and _relu_margin(loss) < 10 * eps:
        raise KinkError("relu pre-activation within 10*eps of zero; resample the point")

    for p in params.values():
        p.zero_grad()
    T.backward(loss)
    auto = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
            for name, p in params.items()}

    # float64 shadow copy for the difference quotient
    shadow = {name: T.Tensor(p.data.astype(np.float64), requires_grad=False, dtype=np.float64)
              for name, p in params.items()}

    worst = {}
    for name, p in params.items():
        flat = shadow[name].data.reshape(-1)
        n = flat.size
        if samples_per_param is None or samples_per_param >= n:
            coords = np.arange(n)
        else:
            coords = rng.choice(n, size=samples_per_param, replace=False)
        # error is judged relative to the tensor's gradient scale, not each
        # coordinate's own magnitude: a near-zero coordinate in a tensor of
        # O(1) gradients is pure difference-quotient noise, and inflating it
        # to a relative error would only measure that noise
        g_rms = float(np.sqrt(np.mean(auto[name] ** 2)))
        err = 0.0
        for c in coords:
            orig = flat[c]
            flat[c] = orig + eps
            hi = float(f(shadow).data)
            flat[c] = orig - eps
            lo = float(f(shadow).data)
            flat[c] = orig
            fd = (hi - lo) / (2 * eps)
            ad = float(auto[name].reshape(-1)[c])
            denom = max(abs(fd), abs(ad), g_rms, 1e-8)
            err = max(err, abs(fd - ad) / denom)
        worst[name] = err
    return worst


def grad_check_resampling(make_point, f, eps=1e-5, samples_per_param=8,
                          rng=None, max_resamples=20):
    """Run :func:`grad_check`, redrawing the evaluation point on relu kinks.

    ``make_point(seed)`` returns a params dict; ``f`` accepts any such dict.
    Returns (errors, number_of_rejected_points).
    """
    rng = rng or np.random.default_rng(0)
    for attempt in range(max_resamples):
        params = make_point(int(rng.integers(2**31)))
        try:
            errs = grad_check(f, params, eps=eps,
                              samples_per_param=samples_per_param, rng=rng)
            return errs, attempt
        except KinkError:
            continue
    raise RuntimeError(f"no kink-free evaluation point found in {max_resamples} draws")


def model_gradcheck(seed=0, dtype=np.float32, samples_per_param=6):
    """Gradient-check the training loss (``trainer.batch_loss``) end to end.

    Builds a tiny fixed prompt and checks the gradient of the loss that a
    training step of it minimizes, with dropout disabled (so train mode draws
    nothing), for every parameter tensor against central differences.
    Returns a name -> max relative error dict.
    """
    from . import model as model_mod
    from . import prompt as prompt_mod
    from . import trainer as trainer_mod
    from .data import vocab_corpus
    from .decoder import EntityMention
    from .encoder import EncoderConfig
    from .tokenizer import build_vocab

    config = model_mod.ModelConfig(encoder=EncoderConfig(dropout=0.0), head_dropout=0.0)

    example = trainer_mod.TrainingExample(
        words=["alain", "farley", "works", "at", "mcgill"],
        gold=[EntityMention(0, 1, "person"), EntityMention(4, 4, "organization")])
    types = ["person", "organization", "location"]
    vocab = build_vocab(vocab_corpus([example], types), max_size=200)
    enc = prompt_mod.build_prompt(types, example.words, vocab)

    def f(params):
        model = model_mod.Model(config, vocab, params)
        return trainer_mod.batch_loss(model, [example], [enc], rng=None)[0]

    def make_point(point_seed):
        # 1/sqrt(D) weight scale keeps attention logits O(1): smaller scales
        # leave near-zero gradients whose relative error is pure noise,
        # larger ones saturate the softmax
        scale = 1.0 / math.sqrt(config.encoder.width)
        return model_mod.init_params(config, len(vocab), seed=point_seed,
                                     dtype=dtype, init_scale=scale)

    rng = np.random.default_rng(seed)
    errs, _ = grad_check_resampling(make_point, f, samples_per_param=samples_per_param,
                                    rng=rng)
    return errs
