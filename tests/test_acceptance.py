"""Acceptance criteria, one test per criterion.

Each test registers a single [PASS]/[FAIL] line printed in the terminal
summary. Criterion 8 is directional and gates a warning rather than a
failure. Training-based criteria pin every hyperparameter so runs are
reproducible bit for bit.
"""

import math
import time

import numpy as np
import pytest

from conftest import record_criterion, record_warning
from promptner import tensor as T
from promptner.data import SynthSpec, synth_dataset, vocab_corpus
from promptner.decoder import DecodeConfig, DecodeStats, decode
from promptner.encoder import EncoderConfig
from promptner.evaluation import score as eval_score
from promptner.gradcheck import model_gradcheck
from promptner.matcher import ScoreTable, enumerate_spans, span_count
from promptner.model import Model, ModelConfig
from promptner.checkpoint import load_checkpoint, save_checkpoint
from promptner.tokenizer import build_vocab
from promptner.trainer import (TrainConfig, TrainingExample, evaluate_dataset,
                               fit, lr_at, sample_negative_types,
                               shuffle_and_drop)

from test_decoder import oracle_decode, random_table


def test_criterion_1_gradient_fidelity():
    """Gradcheck of the default toy model: 5 seeds, both dtypes."""
    t0 = time.time()
    worst = {"f32": 0.0, "f64": 0.0}
    for seed in range(5):
        errs32 = model_gradcheck(seed=seed, dtype=np.float32, samples_per_param=6)
        errs64 = model_gradcheck(seed=seed, dtype=np.float64, samples_per_param=6)
        worst["f32"] = max(worst["f32"], max(errs32.values()))
        worst["f64"] = max(worst["f64"], max(errs64.values()))
    elapsed = time.time() - t0
    ok = worst["f32"] < 1e-3 and worst["f64"] < 1e-6 and elapsed < 120
    record_criterion(
        "criterion 1: gradient fidelity", ok,
        f"worst f32={worst['f32']:.2e} (<1e-3), f64={worst['f64']:.2e} (<1e-6), "
        f"{elapsed:.0f}s (<120s)")
    assert ok


def test_criterion_2_overfit_oracle():
    """50-sentence 10-type overfit: train F1 >= 0.99, held-out >= 0.80."""
    t0 = time.time()
    spec = SynthSpec()
    train, _ = synth_dataset(spec, train_size=50, dev_size=0, seed=0)
    held, _ = synth_dataset(spec, train_size=20, dev_size=0, seed=1)  # fresh seed
    types = sorted(spec.types)
    assert len(types) == 10
    vocab = build_vocab(vocab_corpus(train, types), max_size=2000)

    config = ModelConfig(encoder=EncoderConfig(dropout=0.0), head_dropout=0.0)
    model = Model.fresh(config, vocab, seed=0, init_scale=0.05)
    tcfg = TrainConfig(steps=2000, batch_size=8, lr_encoder=2e-3, lr_head=2e-3,
                       drop_prob=0.0, reduction="sum", seed=0, log_every=0,
                       type_policy="inventory", shuffle_types=False)
    fit(train, model, tcfg)

    train_f1 = evaluate_dataset(model, train, types).f1
    held_f1 = evaluate_dataset(model, held, types).f1
    elapsed = time.time() - t0
    ok = train_f1 >= 0.99 and held_f1 >= 0.80 and elapsed < 600
    record_criterion(
        "criterion 2: overfit oracle", ok,
        f"train F1={train_f1:.3f} (>=0.99), held-out F1={held_f1:.3f} (>=0.80), "
        f"{elapsed:.0f}s (<600s)")
    assert ok

    # Fig. 2 qualitative check: the trained model scores ("alain farley",
    # person) above threshold and ("alain farley", location) below it
    table = model.score_table(
        ["alain", "farley", "works", "at", "mcgill", "university"], types)
    idx = {tuple(s): i for i, s in enumerate(table.spans.tolist())}
    ti = {t: j for j, t in enumerate(table.types)}
    assert table.probs[idx[(0, 1)], ti["person"]] > 0.5
    assert table.probs[idx[(0, 1)], ti["location"]] < 0.5


def test_criterion_3_decoder_oracle():
    """1000 random tables, every other one with tied probabilities, in both
    modes with multi-label off and on: decoder == brute-force oracle,
    invariants hold."""
    t0 = time.time()
    rng = np.random.default_rng(2024)
    mismatches = 0
    for i in range(1000):
        table = random_table(rng, n_max=8, k_max=4, m_max=3, ties=i % 2 == 1)
        config = DecodeConfig(mode="flat" if i // 2 % 2 == 0 else "nested",
                              allow_multilabel=i // 4 % 2 == 1)
        out = decode(table, config)
        if out != oracle_decode(table, config):
            mismatches += 1
        ivs = [(m.start, m.end) for m in out]
        assert all(m.score > config.threshold for m in out)
        for a_i, a in enumerate(ivs):
            for b in ivs[:a_i]:
                disjoint = a[1] < b[0] or b[1] < a[0]
                contained = ((a[0] >= b[0] and a[1] <= b[1]) or
                             (b[0] >= a[0] and b[1] <= a[1])) and a != b
                assert (disjoint or (config.mode == "nested" and contained)
                        or (config.allow_multilabel and a == b))
    elapsed = time.time() - t0
    ok = mismatches == 0 and elapsed < 60
    record_criterion(
        "criterion 3: decoder oracle equivalence", ok,
        f"{mismatches}/1000 mismatches, {elapsed:.1f}s (<60s)")
    assert ok


def test_criterion_4_loss_arithmetic():
    """Stable BCE == naive BCE within 1e-6 for |logit| <= 20; ln 2 exact."""
    rng = np.random.default_rng(7)
    logits = rng.uniform(-20, 20, size=10_000)
    targets = (rng.random(10_000) < 0.5).astype(np.float64)
    stable = np.array([
        T.bce_with_logits(
            T.Tensor(np.array([[x]]), requires_grad=False, dtype=np.float64),
            np.array([[y]])).item()
        for x, y in zip(logits[:200], targets[:200])])
    sig = 1.0 / (1.0 + np.exp(-logits[:200]))
    naive = -(targets[:200] * np.log(sig) + (1 - targets[:200]) * np.log(1 - sig))
    max_err_single = float(np.abs(stable - naive).max())

    # remaining pairs in one batched call
    full = T.bce_with_logits(
        T.Tensor(logits.reshape(-1, 1), requires_grad=False, dtype=np.float64),
        targets.reshape(-1, 1)).item()
    sig_all = 1.0 / (1.0 + np.exp(-logits))
    naive_all = -(targets * np.log(sig_all) + (1 - targets) * np.log(1 - sig_all)).sum()
    batch_err = abs(full - naive_all) / abs(naive_all)

    ln2 = T.bce_with_logits(
        T.Tensor(np.array([[0.0]]), requires_grad=False, dtype=np.float64),
        np.array([[1.0]])).item()
    ln2_err = abs(ln2 - math.log(2.0))

    ok = max_err_single < 1e-6 and batch_err < 1e-6 and ln2_err < 1e-9
    record_criterion(
        "criterion 4: loss arithmetic", ok,
        f"per-pair err={max_err_single:.2e} (<1e-6), batch rel err={batch_err:.2e}, "
        f"ln2 err={ln2_err:.2e} (<1e-9)")
    assert ok


def test_criterion_5_span_enumeration_counts():
    """Enumeration size == sum over widths of (N - w + 1) on random (N, K)."""
    rng = np.random.default_rng(11)
    bad = 0
    for _ in range(100):
        n = int(rng.integers(1, 301))
        k = int(rng.integers(1, 13))
        expected = sum(n - w + 1 for w in range(1, min(k, n) + 1))
        if len(enumerate_spans(n, k)) != expected or span_count(n, k) != expected:
            bad += 1
    record_criterion("criterion 5: span enumeration counts", bad == 0,
                     f"{100 - bad}/100 random (N,K) pairs exact")
    assert bad == 0


def test_criterion_6_sampling_statistics():
    """Negative fraction near 0.5 at ratio 0.5; drop survivors near 8/10."""
    from promptner.decoder import EntityMention

    rng = np.random.default_rng(13)
    pool = [f"neg{i}" for i in range(12)]
    neg = tot = 0
    for _ in range(1000):
        n_pos = int(rng.integers(1, 4))
        ex = TrainingExample(["w"] * n_pos,
                             [EntityMention(i, i, f"pos{i}") for i in range(n_pos)])
        out = sample_negative_types(ex, pool, 0.5, rng)
        neg += len(out) - n_pos
        tot += len(out)
    neg_frac = neg / tot

    rng2 = np.random.default_rng(17)
    types = [f"t{i}" for i in range(10)]
    survivors = sum(len(shuffle_and_drop(types, 0.2, rng2)) for _ in range(10_000))
    mean_survivors = survivors / 10_000

    ok = 0.45 <= neg_frac <= 0.55 and 7.8 <= mean_survivors <= 8.2
    record_criterion(
        "criterion 6: sampling statistics", ok,
        f"neg fraction={neg_frac:.3f} (in [0.45,0.55]), "
        f"mean survivors={mean_survivors:.3f} (in [7.8,8.2])")
    assert ok


def test_criterion_7_schedule_shape():
    """lr(0)=0, lr(warmup end)=base exactly, lr(total)=0, midpoint=base/2."""
    base, total = 3e-4, 2000
    warmup = int(round(0.1 * total))
    start = lr_at(0, total, base)
    at_warmup = lr_at(warmup, total, base)
    at_end = lr_at(total, total, base)
    midpoint = lr_at((warmup + total) // 2, total, base)
    ok = (start == 0.0 and at_warmup == base and abs(at_end) < 1e-18
          and abs(midpoint - base / 2) <= 1e-9)
    record_criterion(
        "criterion 7: schedule shape", ok,
        f"lr(0)={start}, lr(warmup)={at_warmup} (==base), lr(total)={at_end:.1e}, "
        f"midpoint err={abs(midpoint - base / 2):.1e} (<=1e-9)")
    assert ok


def test_criterion_8_ablation_direction():
    """Directional Table-5 reproduction; gates a warning, not a failure."""
    spec = SynthSpec()
    train, _ = synth_dataset(spec, train_size=50, dev_size=0, seed=0)
    held, _ = synth_dataset(spec, train_size=20, dev_size=0, seed=1)
    types = sorted(spec.types)
    vocab = build_vocab(vocab_corpus(train, types), max_size=2000)

    def eval_with_absent(model, dataset):
        # per-example prompt: gold types plus the first two absent inventory
        # types appended, so precision is exposed to types with no gold
        # mentions while the layout matches the training prompts
        preds, golds = [], []
        for ex in dataset:
            gold_types = ex.positive_types
            absent = [t for t in types if t not in gold_types][:2]
            prompt = gold_types + absent
            preds.append(decode(model.score_table(ex.words, prompt), DecodeConfig()))
            golds.append(list(ex.gold))
        return eval_score(preds, golds)

    results = {}
    for neg in (0.0, 0.5, 0.75):
        config = ModelConfig(encoder=EncoderConfig(dropout=0.0), head_dropout=0.0)
        model = Model.fresh(config, vocab, seed=0, init_scale=0.05)
        tcfg = TrainConfig(steps=800, batch_size=8, lr_encoder=2e-3, lr_head=2e-3,
                           neg_ratio=neg, drop_prob=0.2, reduction="sum", seed=0,
                           log_every=0, shuffle_types=False)
        fit(train, model, tcfg)
        results[neg] = eval_with_absent(model, held)

    precision_dir = results[0.0].precision < results[0.5].precision
    recall_dir = results[0.75].recall < results[0.5].recall
    detail = (f"P(0%)={results[0.0].precision:.3f} vs P(50%)={results[0.5].precision:.3f}; "
              f"R(75%)={results[0.75].recall:.3f} vs R(50%)={results[0.5].recall:.3f}")
    record_warning("criterion 8: ablation direction (warning-gated)",
                   precision_dir and recall_dir, detail)
    # directional criterion: never a hard failure


def test_criterion_9_determinism_and_persistence(tmp_path):
    """Same seed, same trace; checkpoint round-trip, identical score tables."""
    spec = SynthSpec()
    train, _ = synth_dataset(spec, train_size=10, dev_size=0, seed=0)
    types = sorted(spec.types)
    vocab = build_vocab(vocab_corpus(train, types), max_size=2000)

    def run():
        config = ModelConfig()
        model = Model.fresh(config, vocab, seed=0, init_scale=0.05)
        tcfg = TrainConfig(steps=60, batch_size=4, seed=0, log_every=0)
        trace = fit(train, model, tcfg)
        return model, [r["loss"] for r in trace]

    model_a, trace_a = run()
    model_b, trace_b = run()
    traces_equal = trace_a == trace_b

    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model_a, seeds=[0])
    loaded, _ = load_checkpoint(path)
    tables_equal = True
    for ex in train:
        a = model_a.score_table(ex.words, types)
        b = loaded.score_table(ex.words, types)
        if not (np.array_equal(a.logits, b.logits)
                and np.array_equal(a.probs, b.probs)):
            tables_equal = False

    ok = traces_equal and tables_equal
    record_criterion(
        "criterion 9: determinism & persistence", ok,
        f"loss traces identical={traces_equal}, "
        f"round-trip score tables bit-identical={tables_equal}")
    assert ok


def test_criterion_10_decode_scaling():
    """Per-candidate decode time grows < 15x per decade; pops <= candidates."""
    # one type; num_words chosen so candidates ~= 10^3, 10^4, 10^5
    times = {}
    rng = np.random.default_rng(23)
    for target in (1_000, 10_000, 100_000):
        n = target // 10  # k=12 capped spans: roughly 12N - 66 candidates
        k = 12
        spans = enumerate_spans(n, k)
        logits = rng.normal(2.0, 0.5, size=(len(spans), 1))  # nearly all > 0.5
        table = ScoreTable(n, k, ["t"], logits=logits)
        stats = DecodeStats()
        t0 = time.perf_counter()
        decode(table, DecodeConfig(mode="flat"), stats)
        elapsed = time.perf_counter() - t0
        assert stats.pops <= stats.candidates
        times[target] = elapsed / max(stats.candidates, 1)

    r1 = times[10_000] / times[1_000]
    r2 = times[100_000] / times[10_000]
    ok = r1 < 15 and r2 < 15
    record_criterion(
        "criterion 10: decode scaling", ok,
        f"per-candidate time ratios {r1:.1f}x, {r2:.1f}x (<15x); pops<=candidates")
    assert ok
