"""The three benchmark workloads, their inputs and their output checks.

Each workload is a closed loop with one client: the next request (a training
step, a sentence or a document) starts only when the previous one returned.

- ``train``: the criterion-2 recipe in chunks of ``chunk_steps`` ``fit`` steps,
  each chunk from the same fresh model. Requests are steps.
- ``infer_short``: one ~7-word synthetic sentence per request, 10 trained
  types, flat decoding, against the fixture model.
- ``infer_long``: one ~200-word document per request, 30 types (10 trained,
  20 unseen, so two prompts), nested decoding, against the fixture model.

A run cycles through a pool of inputs made from the seed and always finishes
at least one pass over it. The output guard (``final_loss`` or ``f1``) is
taken once per run, untimed, on fixed inputs that no seed changes, so it
depends on the code only: a change that moves outputs moves it.
"""

from __future__ import annotations

import heapq
import math
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import recipe
import tracer as tracing
import promptner
from promptner import DecodeConfig, checkpoint, decoder, evaluation, prompt
from promptner import model as model_mod
from promptner import tensor, tokenizer, trainer
from promptner.data import SynthSpec, synth_dataset
from promptner.errors import PromptnerError

WORKLOADS = ("train", "infer_short", "infer_long")

UNSEEN_TYPES = [
    "animal", "vehicle", "sport", "color", "profession", "religion", "planet",
    "musical instrument", "food", "software", "law", "building", "ship",
    "chemical element", "film", "book", "river", "mountain range",
    "political party", "scientific theory",
]

# offsets that keep the inference inputs apart from the training data (seed 0)
# and the fixture's held-out check (seed 1)
SHORT_DATA_SEED = 1000
LONG_DATA_SEED = 2000
# the fixed inputs of the output guard: the train chunk's batch order, and the
# synthetic data seed of the inference guard sets
GUARD_SEED = 0
GUARD_DATA_SEED = 3000

# traced runs alternate traced and untraced blocks of about this length, and
# inference runs set up afresh at this interval, so that both see the same
# machine phases as the requests (a shared machine can alternate fast and
# slow phases of several seconds each)
TRACE_BLOCK_S = 1.0
SETUP_EVERY_S = 1.0

# a fixed reference kernel is timed about every CAL_EVERY_S through a run,
# between requests; each timed request and set-up is scaled by the kernel's
# median time in its WINDOW_S window over REF_KERNEL_S (see HostSpeed)
CAL_EVERY_S = 0.1
WINDOW_S = 1.0
REF_KERNEL_S = 0.0045

clock = time.perf_counter


@dataclass
class Sizes:
    """Input sizes; the defaults define the benchmark, tests shrink them."""
    chunk_steps: int = 28      # 4 epochs of the 50-sentence set at batch 8
    short_pool: int = 4000
    long_pool: int = 80
    long_words: int = 200
    short_guard: int = 1000    # guard sentences (infer_short)
    long_guard: int = 30       # guard documents (infer_long)


@dataclass
class Outcome:
    latencies: list = field(default_factory=list)        # seconds, untraced
    stamps: list = field(default_factory=list)           # end time of each, untraced
    keys: list = field(default_factory=list)             # input of each, untraced
    traced_latencies: list = field(default_factory=list)
    items: int = 0             # examples (train) or requests (inference), untraced
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)          # first few reasons
    setup_s: list = field(default_factory=list)
    setup_stamps: list = field(default_factory=list)      # end time of each set-up
    guard: float = math.nan    # final_loss (train) or f1 (inference), fixed inputs
    speed: HostSpeed = field(default_factory=lambda: HostSpeed())
    nodes: dict = field(default_factory=dict)             # op -> count, one example

    def fail(self, reason):
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(reason)


_KA = (np.arange(48 * 64, dtype=np.float64).reshape(48, 64) % 7.0) / 7.0
_KB = np.ascontiguousarray(_KA.T)
_KX = np.random.default_rng(0).standard_normal((2300, 64)).astype(np.float32)
_KW = np.random.default_rng(1).standard_normal((64, 30)).astype(np.float32)


def reference_kernel(reps=16):
    """Fixed work in the mix of a promptner request, on a small and a large
    working set: small numpy matmuls and element-wise ops with interpreted
    Python over dicts and lists, then a 2300 x 30 span/type-sized score table
    whose column is scanned into a heap. It uses no promptner code, so a
    change to the program does not change it."""
    acc = 0.0
    for r in range(reps):
        x = np.tanh(_KA @ _KB * 0.01)
        y = np.exp(-x).sum(axis=1)
        acc += float(y[np.argsort(y)[0]])
        d = {}
        for j in range(120):
            d[(j, r)] = j * 0.5 + len(d)
        acc += sum(v for v in d.values() if v > 3.0)
        acc += sorted(d.items(), key=lambda kv: -kv[1])[0][1]
    probs = 1.0 / (1.0 + np.exp(-(_KX @ _KW)))
    heap = []
    for i, p in enumerate(probs[:, 3].tolist()):
        if p > 0.5:
            heapq.heappush(heap, (-p, i, i + 2))
    taken = {}
    while heap:
        p, a, b = heapq.heappop(heap)
        if a not in taken and b not in taken:
            taken[a] = taken[b] = p
    return acc + len(taken)


class HostSpeed:
    """The host's speed through a run, from timings of ``reference_kernel``.

    A shared machine can run the same code up to ~1.7x slower for seconds to
    minutes at a time, on the CPU clock too, so which phase a run lands in
    sets its raw medians. The kernel slows with it; dividing a request's time
    by the kernel's median time in the request's window, over REF_KERNEL_S,
    gives the request's time at the speed where the kernel takes REF_KERNEL_S.
    """

    def __init__(self):
        self.stamps = []
        self.times = []
        self.due = 0.0

    def tick(self):
        """Time the kernel when it is due; the caller keeps this call out of
        the request times."""
        if clock() < self.due:
            return
        t0 = clock()
        reference_kernel()
        t1 = clock()
        self.stamps.append(t1)
        self.times.append(t1 - t0)
        self.due = t1 + CAL_EVERY_S

    def factors(self, stamps):
        """Slowdown factor at each of ``stamps``: the kernel's median time in
        that window over REF_KERNEL_S (the nearest window with timings when
        its own has none)."""
        if not len(stamps):
            return np.ones(0)
        t0 = min(self.stamps[0], np.min(stamps))
        win = ((np.asarray(self.stamps) - t0) // WINDOW_S).astype(int)
        have = np.unique(win)
        med = np.array([np.median(np.asarray(self.times)[win == w]) for w in have])
        want = ((np.asarray(stamps) - t0) // WINDOW_S).astype(int)
        pos = np.clip(np.searchsorted(have, want), 0, len(have) - 1)
        left = np.clip(pos - 1, 0, len(have) - 1)
        pos = np.where(np.abs(have[left] - want) <= np.abs(have[pos] - want), left, pos)
        return med[pos] / REF_KERNEL_S


class _Blocks:
    """Alternates untraced and traced blocks when a tracer is given."""

    def __init__(self, tr, hooks):
        self.tr = tr
        self.hooks = hooks
        self.uninstall = None
        self.block_end = 0.0

    @property
    def traced(self):
        return self.uninstall is not None

    def tick(self, now, force_switch=False):
        if self.tr is None or not (force_switch or now >= self.block_end):
            return
        if self.uninstall is None:
            self.uninstall = tracing.install(self.tr, promptner, self.hooks)
        else:
            self.close()
        self.block_end = now + TRACE_BLOCK_S

    def close(self):
        if self.uninstall is not None:
            self.uninstall()
            self.uninstall = None


def trace_hooks():
    """Counts recorded on spans, at the boundary where the work happens."""

    def decode_hook(args, kwargs):
        if len(args) >= 3 or kwargs.get("stats") is not None:
            return args, kwargs, None
        stats = decoder.DecodeStats()
        kwargs = dict(kwargs, stats=stats)
        table = args[0] if args else kwargs["table"]

        def after(out):
            return {"candidates": stats.candidates, "pops": stats.pops,
                    "accepted": len(out), "scan_pairs": int(np.size(table.probs))}
        return args, kwargs, after

    def match_hook(args, kwargs):
        return args, kwargs, lambda out: {"pairs": out.shape[0] * out.shape[1]}

    def prompt_hook(args, kwargs):
        return args, kwargs, lambda out: {"tokens": len(out.token_ids)}

    return {"decoder.decode": decode_hook, "matcher.match_scores": match_hook,
            "prompt.build_prompt": prompt_hook}


def nodes_per_example(model, words, gold, types):
    """Tape nodes of one example's loss, by op (via ``tensor.graph_nodes``)."""
    enc = prompt.build_prompt(types, words, model.vocab, max_types=model.config.max_types,
                              max_positions=model.config.encoder.max_positions)
    spans, logits = model_mod.forward(enc, model.params, model.config, mode="eval")
    grid = trainer.build_labels(trainer.TrainingExample(words, gold), types, spans)
    loss = trainer.bce_loss(logits, grid)
    return dict(Counter(node.op for node in tensor.graph_nodes(loss)))


# -- train ------------------------------------------------------------------

def _batch_sizes(n, batch_size, steps):
    """Examples per step, following ``fit``'s epoch-by-epoch batching."""
    sizes, left = [], 0
    for _ in range(steps):
        left = left or n
        take = min(batch_size, left)
        sizes.append(take)
        left -= take
    return sizes


def check_losses(out, losses, reference=None):
    for i, loss in enumerate(losses):
        out.attempted += 1
        if not math.isfinite(loss):
            out.fail(f"step {i + 1}: non-finite loss {loss}")
        elif reference is not None and loss != reference[i]:
            out.fail(f"step {i + 1}: loss {loss} != {reference[i]} of the first chunk")


def train_guard(out, sizes):
    """``final_loss``: mean step loss over the last two epochs of one chunk
    with the guard seed's batch order."""
    data = recipe.train_data()
    tcfg = recipe.train_config(sizes.chunk_steps, seed=GUARD_SEED, log_every=1)
    losses = []
    trainer.fit(data, recipe.fresh_model(data, seed=0), tcfg,
                log=lambda record: losses.append(record["loss"]))
    check_losses(out, losses)
    per_epoch = math.ceil(len(data) / tcfg.batch_size)
    return float(np.mean(losses[-2 * per_epoch:]))


def run_train(seed, seconds, sizes, tr=None):
    out = Outcome()
    data = recipe.train_data()
    out.nodes = nodes_per_example(recipe.fresh_model(data, seed=0), data[0].words,
                                  data[0].gold, recipe.trained_types())
    out.guard = train_guard(out, sizes)

    tcfg = recipe.train_config(sizes.chunk_steps, seed=seed, log_every=1)
    batch = _batch_sizes(len(data), tcfg.batch_size, tcfg.steps)
    reference = None
    blocks = _Blocks(tr, trace_hooks())
    deadline = clock() + seconds
    try:
        while reference is None or clock() < deadline:
            blocks.tick(clock(), force_switch=True)
            out.speed.tick()
            t0 = clock()
            data = recipe.train_data()
            model = recipe.fresh_model(data, seed=0)
            out.setup_s.append(clock() - t0)
            out.setup_stamps.append(clock())
            stamps, resumed, losses = [], [], []

            def log(record):
                stamps.append(clock())
                losses.append(record["loss"])
                if not blocks.traced:
                    out.speed.tick()
                resumed.append(clock())

            first_span = len(tr.spans) if blocks.traced else -1
            t_start = clock()
            trainer.fit(data, model, tcfg, log=log)
            steps = np.subtract(stamps, [t_start] + resumed[:-1])
            if blocks.traced:
                root = first_span
                starts = [tr.spans[root][tracing.START]] + stamps[:-1]
                for a, b in zip(starts, stamps):
                    tr.add_request(a, b, root)
                out.traced_latencies.extend(steps)
            else:
                out.latencies.extend(steps)
                out.stamps.extend(stamps)
                out.keys.extend(range(len(stamps)))   # step k of every chunk is the same
                out.items += sum(batch)
            check_losses(out, losses, reference)
            if reference is None:
                reference = losses
    finally:
        blocks.close()
    return out


# -- inference ----------------------------------------------------------------

def short_inputs(data_seed, n):
    sents, _ = synth_dataset(SynthSpec(), train_size=n, dev_size=0, seed=data_seed)
    return [(ex.words, ex.gold) for ex in sents]


def long_inputs(data_seed, n, sizes, vocab, capacity):
    """``n`` documents of at most ``long_words`` words and ``capacity`` subword
    tokens, each a run of synthetic sentences with gold offsets shifted."""
    spec = SynthSpec()
    docs, words, gold, tokens = [], [], [], 0
    batch = 0
    while len(docs) < n:
        sents, _ = synth_dataset(spec, train_size=200, dev_size=0, seed=[data_seed, batch])
        batch += 1
        for ex in sents:
            n_tok = sum(len(tokenizer.segment(w, vocab).subword_ids) for w in ex.words)
            if words and (len(words) + len(ex.words) > sizes.long_words
                          or tokens + n_tok > capacity):
                docs.append((words, gold))
                words, gold, tokens = [], [], 0
                if len(docs) == n:
                    break
            off = len(words)
            gold += [decoder.EntityMention(m.start + off, m.end + off, m.type)
                     for m in ex.gold]
            words += ex.words
            tokens += n_tok
    return docs


def check_mentions(mentions, n_words, types, cfg):
    """Reason the output breaks a decoding invariant, or None."""
    allowed = set(types)
    for m in mentions:
        if not 0 <= m.start <= m.end < n_words:
            return f"span ({m.start},{m.end}) out of bounds for {n_words} words"
        if m.type not in allowed:
            return f"type {m.type!r} was not requested"
        if not m.score > cfg.threshold:
            return f"score {m.score} not above threshold {cfg.threshold}"
    stack = []
    for start, neg_end in sorted((m.start, -m.end) for m in mentions):
        end = -neg_end
        while stack and stack[-1][1] < start:
            stack.pop()
        if stack:
            outer = stack[-1]
            if cfg.mode == "flat":
                return f"spans {outer} and {(start, end)} overlap in flat output"
            if end > outer[1] or outer == (start, end):
                return f"spans {outer} and {(start, end)} are not laminar"
        stack.append((start, end))
    return None


def run_infer(kind, seed, seconds, sizes, tr=None):
    out = Outcome()
    digest = recipe.sha256(recipe.FIXTURE)
    if digest != recipe.recorded_fixture_sha():
        raise RuntimeError(f"fixture {recipe.FIXTURE} has sha256 {digest}, "
                           f"not the recorded {recipe.recorded_fixture_sha()}")
    model, _ = checkpoint.load_checkpoint(recipe.FIXTURE)
    if kind == "infer_short":
        types = recipe.trained_types()
        cfg = DecodeConfig(mode="flat")
        pool = short_inputs(SHORT_DATA_SEED + seed, sizes.short_pool)
        guard_set = short_inputs(GUARD_DATA_SEED, sizes.short_guard)
    else:
        types = recipe.trained_types() + UNSEEN_TYPES
        cfg = DecodeConfig(mode="nested")
        max_pos = model.config.encoder.max_positions
        capacity = max_pos - max_pos // 2
        pool = long_inputs(LONG_DATA_SEED + seed, sizes.long_pool, sizes, model.vocab,
                           capacity)
        guard_set = long_inputs(GUARD_DATA_SEED, sizes.long_guard, sizes, model.vocab,
                                capacity)

    first_types = list(prompt.chunk_types(types, model.config.max_types)[0])
    out.nodes = nodes_per_example(model, pool[0][0], pool[0][1], first_types)

    def attempt(i, words):
        """One checked request: (prediction or None, start, end). Only
        ``predict`` is timed."""
        t0 = clock()
        try:
            pred, reason = model.predict(words, types, cfg), None
        except PromptnerError as exc:
            pred, reason = None, f"{type(exc).__name__}: {exc}"
        t1 = clock()
        if pred is not None:
            reason = check_mentions(pred, len(words), types, cfg)
        out.attempted += 1
        if reason is not None:
            out.fail(f"request {i}: {reason}")
        return pred, t0, t1

    guard_pred = [attempt(f"guard {j}", words)[0] or []
                  for j, (words, _) in enumerate(guard_set)]
    out.guard = evaluation.score(guard_pred, [gold for _, gold in guard_set]).f1

    def setup():
        t0 = clock()
        fresh, _ = checkpoint.load_checkpoint(recipe.FIXTURE)
        fresh.predict(pool[0][0], types, cfg)
        out.setup_s.append(clock() - t0)
        out.setup_stamps.append(clock())

    blocks = _Blocks(tr, trace_hooks())
    first_pass = []
    deadline = clock() + seconds
    next_setup = 0.0
    i = 0
    try:
        while i < len(pool) or clock() < deadline:
            blocks.tick(clock())
            out.speed.tick()
            if clock() >= next_setup:
                setup()
                next_setup = clock() + SETUP_EVERY_S
            pred, t0, t1 = attempt(i, pool[i % len(pool)][0])
            if blocks.traced:
                tr.add_request(t0, t1)
                out.traced_latencies.append(t1 - t0)
            else:
                out.latencies.append(t1 - t0)
                out.stamps.append(t1)
                out.keys.append(i % len(pool))
                out.items += 1
            if pred is not None and i >= len(pool) and pred != first_pass[i % len(pool)]:
                out.fail(f"request {i}: output differs from the first pass")
            if i < len(pool):
                first_pass.append(pred or [])
            i += 1
    finally:
        blocks.close()
    return out


def run(workload, seed, seconds, sizes=None, tr=None):
    sizes = sizes or Sizes()
    if workload == "train":
        return run_train(seed, seconds, sizes, tr)
    if workload in ("infer_short", "infer_long"):
        return run_infer(workload, seed, seconds, sizes, tr)
    raise ValueError(f"unknown workload {workload!r}")
