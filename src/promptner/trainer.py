"""Supervision construction, regularization sampling, and the training loop.

Each training step builds a prompt per example (positives plus negative
types sampled from the rest of the batch, shuffled, randomly dropped),
scores every span of the batch against every type of the batch in one
padded graph, and minimizes one binary cross-entropy of each example's
|spans| x |types| targets (``build_labels``) in its own block, masking out the rest.
Optimization is AdamW with decoupled weight decay and a linear-warmup /
cosine-decay schedule applied per parameter group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import prompt as prompt_mod
from . import tensor as T
from .decoder import decode
from .errors import ConfigError, ContractError
from .evaluation import score as eval_score
from .model import forward_batch


@dataclass
class TrainingExample:
    words: list
    gold: list  # EntityMention list (scores ignored)

    def __post_init__(self):
        n = len(self.words)
        seen = set()
        for m in self.gold:
            if not all(isinstance(i, (int, np.integer)) and type(i) is not bool
                       for i in (m.start, m.end)):
                raise ContractError(f"gold span ({m.start!r},{m.end!r}) indices must be integers")
            if not (0 <= m.start <= m.end < n):
                raise ContractError(f"gold span ({m.start},{m.end}) out of bounds for {n} words")
            if not (isinstance(m.type, str) and m.type):
                raise ContractError("gold type must be a non-empty string")
            if m.key() in seen:
                raise ContractError(f"duplicate gold triple {m.key()}")
            seen.add(m.key())

    @property
    def positive_types(self):
        return sorted({m.type for m in self.gold})


def build_labels(example, prompt_types, spans):
    """|spans| x |types| float32 targets: 1 iff the span carries that exact
    gold type. A gold span wider than the span cap has no row and sets no 1."""
    if len(set(prompt_types)) != len(prompt_types):
        raise ContractError("prompt_types must be deduplicated")
    type_index = {t: i for i, t in enumerate(prompt_types)}
    for m in example.gold:
        if m.type not in type_index:
            raise ContractError(f"gold type {m.type!r} missing from prompt types")
    gold = np.array([(m.start, m.end) for m in example.gold], dtype=np.int64).reshape(-1, 2)
    cols = np.array([type_index[m.type] for m in example.gold], dtype=np.int64)
    # spans are distinct, so each gold span matches at most one row
    rows, hits = np.nonzero((spans[:, None, :] == gold[None, :, :]).all(axis=2))
    targets = np.zeros((len(spans), len(prompt_types)), dtype=np.float32)
    targets[rows, cols[hits]] = 1.0
    return targets


def bce_loss(logits, targets, weights=None):
    """Binary cross-entropy of ``targets`` from logits, weighted by ``weights``
    (None: all 1)."""
    return T.bce_with_logits(logits, targets, weights)


def sample_negative_types(example, batch_pool, ratio, rng, max_types=25):
    """Augment the example's positive types with sampled negative types.

    The negative count targets ``ratio`` of the final prompt list
    (n_neg = round(ratio / (1-ratio) * n_pos)), capped by the pool and by
    ``max_types``; sampling is without replacement and never picks one of
    the example's own positive types.
    """
    if not 0.0 <= ratio < 1.0:
        raise ContractError(f"negative ratio {ratio} outside [0, 1)")
    positives = example.positive_types
    pool = sorted(set(batch_pool) - set(positives))
    want = int(math.floor(ratio / (1.0 - ratio) * len(positives) + 0.5))
    want = min(want, len(pool), max(0, max_types - len(positives)))
    if want == 0 or not pool:
        return list(positives)
    picked = [pool[i] for i in rng.choice(len(pool), size=want, replace=False)]
    return list(positives) + picked


def shuffle_and_drop(prompt_types, drop_prob, rng):
    """Uniformly permute the type list, then drop each type independently.

    At least one type always survives (the first of the permutation stays
    when everything else was dropped).
    """
    permuted = [prompt_types[i] for i in rng.permutation(len(prompt_types))]
    return drop_types(permuted, drop_prob, rng)


def drop_types(prompt_types, drop_prob, rng):
    """Drop each type independently, in list order; the first type stays
    when everything was dropped. ``drop_prob == 0`` or no type draws nothing."""
    if not 0.0 <= drop_prob < 1.0:
        raise ContractError(f"drop_prob {drop_prob} outside [0, 1)")
    if drop_prob == 0.0 or not prompt_types:
        return list(prompt_types)
    return [t for t in prompt_types if rng.random() >= drop_prob] or [prompt_types[0]]


def lr_at(step, total_steps, base, warmup_frac=0.1):
    """Linear warmup to ``base`` over the first warmup fraction of training,
    then cosine decay to zero at the final step."""
    if not 0 <= step <= total_steps:
        raise ContractError(f"step {step} outside [0, {total_steps}]")
    warmup = int(round(warmup_frac * total_steps))
    if warmup > 0 and step <= warmup:
        return base * step / warmup
    span = total_steps - warmup
    if span <= 0:
        return base
    return base * 0.5 * (1.0 + math.cos(math.pi * (step - warmup) / span))


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # AdamW's moment decays and denominator floor


@dataclass
class OptimState:
    group_lrs: dict                  # param-name prefix -> base learning rate
    total_steps: int
    weight_decay: float = 0.0
    warmup_frac: float = 0.1
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def base_lr_for(self, name):
        for prefix, lr in self.group_lrs.items():
            if name.startswith(prefix):
                return lr
        raise ContractError(f"parameter {name!r} matches no learning-rate group")


def adamw_step(params, state):
    """One AdamW update with bias correction and decoupled weight decay, in
    place on each parameter and its moments, with two scratch arrays per
    parameter (the arithmetic and its order are those of the textbook form)."""
    for name, p in params.items():
        if p.grad is None:
            raise ContractError(f"parameter {name!r} has no gradient")
    base = {name: state.base_lr_for(name) for name in params}  # refused before any update
    state.step += 1
    t = state.step
    sched_step = min(t, state.total_steps)
    # once per step: each group's scheduled rate and the two bias corrections
    lrs = {b: lr_at(sched_step, state.total_steps, b, state.warmup_frac)
           for b in set(base.values())}
    correct1, correct2 = 1 - BETA1 ** t, 1 - BETA2 ** t
    for name, p in params.items():
        g = p.grad
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m = state.m[name]
        v = state.v[name]
        u = np.multiply(g, 1 - BETA1)
        m *= BETA1
        m += u
        np.multiply(g, 1 - BETA2, out=u)
        u *= g
        v *= BETA2
        v += u
        np.divide(v, correct2, out=u)  # vhat
        np.sqrt(u, out=u)
        u += EPS
        step = np.divide(m, correct1)  # mhat
        lr = lrs[base[name]]
        step *= lr
        step /= u
        if state.weight_decay:
            p.data *= 1.0 - lr * state.weight_decay
        p.data -= step


@dataclass
class TrainConfig:
    steps: int = 2000
    batch_size: int = 8
    lr_encoder: float = 3e-4   # single desk-scale rate; two groups retained for parity
    lr_head: float = 3e-4
    weight_decay: float = 0.01
    warmup_frac: float = 0.1
    neg_ratio: float = 0.5
    drop_prob: float = 0.2
    reduction: str = "sum"
    seed: int = 0
    eval_every: int = 0        # 0 disables periodic dev evaluation
    log_every: int = 50
    # prompt construction policy. "sample" draws negative types from the
    # batch pool per example; "inventory" puts the full sorted type set of
    # the dataset in every prompt, which matches the inference-time prompt
    # exactly -- useful when the encoder is too small to bind type identity
    # under varying prompt composition.
    type_policy: str = "sample"
    shuffle_types: bool = True

    def __post_init__(self):
        if self.type_policy not in ("sample", "inventory"):
            raise ConfigError(f"unknown type_policy {self.type_policy!r}")
        if self.reduction not in ("sum", "mean"):
            raise ConfigError(f"unknown reduction {self.reduction!r}")
        if (min(self.batch_size, self.steps) < 1 or self.seed < 0
                or not 0.0 <= self.warmup_frac <= 1.0):
            raise ConfigError(f"need batch_size >= 1, steps >= 1, seed >= 0 and warmup_frac in "
                              f"[0, 1], got {self.batch_size}, {self.steps}, {self.seed} and "
                              f"{self.warmup_frac}")
        rates = (self.lr_encoder, self.lr_head, self.weight_decay, self.log_every, self.eval_every)
        if not (all(x >= 0 for x in rates)
                and 0 <= self.neg_ratio < 1 and 0 <= self.drop_prob < 1):
            raise ConfigError(f"need lr_encoder, lr_head, weight_decay, log_every and eval_every "
                              f">= 0 and neg_ratio and drop_prob in [0, 1), got {rates}, "
                              f"{self.neg_ratio} and {self.drop_prob}")


def batch_loss(model, examples, prompts, rng, reduction="sum"):
    """Summed BCE of a batch as one train-mode graph; example b is scored with
    ``prompts[b]`` and supervised on its gold of that prompt's types, in its own
    block of the batch's logits, whose pairs weigh 1 ("sum") or 1/its size
    ("mean"); other pairs weigh 0. Returns (loss, gold spans wider than K): the
    gold triples are distinct, so each one with a row sets one 1 of the targets."""
    spans, logits = forward_batch(prompts, model.params, model.config, mode="train", rng=rng)
    targets = np.zeros(logits.shape, dtype=logits.dtype)
    weights = np.zeros_like(targets)
    row = col = wide = 0
    for example, enc, sp in zip(examples, prompts, spans):
        gold = [m for m in example.gold if m.type in enc.entity_types]
        labels = build_labels(TrainingExample(example.words, gold), enc.entity_types, sp)
        block = (slice(row, row + len(sp)), slice(col, col + len(enc.entity_types)))
        targets[block] = labels
        weights[block] = 1.0 if reduction == "sum" else 1.0 / labels.size
        row, col = block[0].stop, block[1].stop
        wide += len(gold) - int(labels.sum())
    return bce_loss(logits, targets, weights), wide


def fit(dataset, model, tcfg, dev=None, dev_types=None, log=None):
    """Train ``model`` in place on a list of TrainingExamples.

    Deterministic given ``tcfg.seed``. Returns a per-step record list:
    each entry has the step index, mean example loss, and learning rate;
    periodic dev F1 entries are appended every ``eval_every`` steps, which
    needs ``dev`` (ContractError). ``log`` (if given) receives each record.
    """
    if not dataset:
        raise ContractError("dataset must be non-empty")
    if tcfg.eval_every and dev is None:
        raise ContractError(f"eval_every={tcfg.eval_every} needs a dev set to evaluate on")
    rng = np.random.default_rng(tcfg.seed)
    inventory = sorted({t for ex in dataset for t in ex.positive_types})
    bare = next((i for i, ex in enumerate(dataset) if not ex.gold), None)
    if bare is not None and (tcfg.type_policy == "sample" or not inventory):
        raise ContractError(f"example {bare} has no gold mention, so no prompt can hold it under "
                            f"type_policy '{tcfg.type_policy}'; 'inventory' prompts every example "
                            f"with the dataset's types ({len(inventory)} here)")
    if tcfg.type_policy == "inventory" and len(inventory) > model.config.max_types:
        raise ContractError(f"type inventory has {len(inventory)} types but "
                            f"max_types={model.config.max_types}, and type_policy "
                            f"'inventory' puts every type in each prompt")
    state = OptimState(group_lrs={"encoder.": tcfg.lr_encoder, "head.": tcfg.lr_head},
                       total_steps=tcfg.steps, weight_decay=tcfg.weight_decay,
                       warmup_frac=tcfg.warmup_frac)
    trace = []
    wide_filtered_total = 0
    order = []
    step = 0
    while step < tcfg.steps:
        if not order:
            order = list(rng.permutation(len(dataset)))
        batch_ids = [order.pop() for _ in range(min(tcfg.batch_size, len(order)))]
        batch = [dataset[i] for i in batch_ids]
        step += 1

        for p in model.params.values():
            p.zero_grad()

        prompts = []
        for bi, example in enumerate(batch):
            if tcfg.type_policy == "inventory":
                types = list(inventory)
            else:
                pool = [t for j, other in enumerate(batch) if j != bi
                        for t in other.positive_types]
                types = sample_negative_types(example, pool, tcfg.neg_ratio, rng,
                                              max_types=model.config.max_types)
            if tcfg.shuffle_types:
                types = shuffle_and_drop(types, tcfg.drop_prob, rng)
            else:
                types = drop_types(types, tcfg.drop_prob, rng)
            try:
                enc = prompt_mod.build_prompt(
                    types, example.words, model.vocab, max_types=model.config.max_types,
                    max_positions=model.config.encoder.max_positions)
            except Exception as exc:
                raise ContractError(
                    f"training failed on example {batch_ids[bi]}: {exc}") from exc
            prompts.append(enc)
        loss, wide = batch_loss(model, batch, prompts, rng, reduction=tcfg.reduction)
        wide_filtered_total += wide
        mean_loss = loss.item() / len(batch)
        if not math.isfinite(mean_loss):  # before its gradients reach the parameters
            raise ContractError(f"training stopped at step {step}: non-finite loss {mean_loss}")
        T.backward(loss)
        del loss  # free this step's graph before the next step builds its own

        adamw_step(model.params, state)
        record = {"step": step, "loss": mean_loss,
                  "lr": lr_at(min(step, tcfg.steps), tcfg.steps, tcfg.lr_encoder,
                              tcfg.warmup_frac)}
        if tcfg.eval_every and step % tcfg.eval_every == 0:
            record["dev_f1"] = evaluate_dataset(model, dev, dev_types).f1
        if log is not None and tcfg.log_every and (step % tcfg.log_every == 0
                                                  or step == tcfg.steps):
            log(record)
        trace.append(record)
    if wide_filtered_total and log is not None:
        log({"warning": "gold spans wider than K filtered from supervision",
             "count": wide_filtered_total})
    return trace


def evaluate_dataset(model, dataset, entity_types=None, decode_config=None):
    """Predict on every example and score exact-match micro F1. An example
    with neither gold nor ``entity_types`` has no type to predict: it predicts
    none (its positive types are empty exactly when its gold is)."""
    preds = [decode(model.score_table(ex.words, entity_types or ex.positive_types), decode_config)
             if entity_types or ex.gold else [] for ex in dataset]
    return eval_score(preds, [list(ex.gold) for ex in dataset])
