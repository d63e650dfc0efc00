"""Command-line surface: train, predict, evaluate, gradcheck, synth-data.

All randomness flows from --seed; identical seeds produce identical
artifacts. Errors exit nonzero with a module-attributed message.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import checkpoint as ckpt
from . import data as data_mod
from .decoder import DecodeConfig
from .encoder import EncoderConfig
from .errors import ConfigError, DataError, PromptnerError
from .evaluation import score as eval_score
from .gradcheck import model_gradcheck
from .model import Model, ModelConfig, pop_fields, typed
from .tokenizer import SPECIALS, build_vocab
from .trainer import TrainConfig, evaluate_dataset, fit


def _load_config_file(path):
    if path is None:
        return {}
    with open(path, encoding="utf-8") as fh:
        try:
            values = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or an int literal too long to convert
            raise ConfigError(f"config: {path}: invalid JSON: {exc}") from exc
    if not isinstance(values, dict):
        raise ConfigError(f"config: {path}: expected a JSON object")
    return values


def _train_setup(args):
    """ModelConfig, TrainConfig, vocab size and init scale of a train run.

    The config file's keys are the fields of EncoderConfig (``dropout``
    spelled ``encoder_dropout``), ModelConfig and TrainConfig, plus
    ``vocab_size`` and ``init_scale``; each value must have its field's type.
    Flags, named after their fields, override the file.
    """
    path = args.config
    source = f"config: {path}" if path else "command line"
    values = _load_config_file(path)
    for key in ("seed", "steps", "k", "max_types", "neg_ratio", "drop_prob"):
        if getattr(args, key) is not None:
            values[key] = getattr(args, key)
    vocab_size = typed(source, "vocab_size", values.pop("vocab_size", 2000), "int")
    init_scale = typed(source, "init_scale", values.pop("init_scale", 0.02), "float")
    if init_scale < 0:
        raise ConfigError(f"{source}: init_scale must be >= 0, got {init_scale}")
    if vocab_size < len(SPECIALS) + 1:
        raise ConfigError(f"{source}: vocab_size must fit the {len(SPECIALS)} specials plus a "
                          f"unit, got {vocab_size}")
    enc = pop_fields(EncoderConfig, values, source, dropout="encoder_dropout")
    model = pop_fields(ModelConfig, values, source, encoder=None)
    train = pop_fields(TrainConfig, values, source)
    if values:
        raise ConfigError(f"{source}: unknown key(s) {', '.join(sorted(values))}")
    try:  # the dataclasses' range checks
        mcfg = ModelConfig(encoder=EncoderConfig(**enc), **model)
        tcfg = TrainConfig(**train)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from exc
    return mcfg, tcfg, vocab_size, init_scale


def cmd_train(args):
    mcfg, tcfg, vocab_size, init_scale = _train_setup(args)
    train = data_mod.load_dataset(args.data)
    if not train:
        raise PromptnerError("trainer: dataset is empty")
    dev = data_mod.load_dataset(args.dev) if args.dev else None

    all_types = sorted({m.type for ex in train for m in ex.gold})
    vocab = build_vocab(data_mod.vocab_corpus(train, all_types), max_size=vocab_size)
    model = Model.fresh(mcfg, vocab, seed=tcfg.seed, init_scale=init_scale)

    trace = fit(train, model, tcfg, dev=dev, dev_types=all_types,
                log=lambda rec: print(json.dumps(rec)))
    if args.trace:
        data_mod.write_jsonl(args.trace, trace)

    ckpt.save_checkpoint(args.out, model, seeds=[tcfg.seed])
    if dev:
        report = evaluate_dataset(model, dev, all_types)
        print(json.dumps({"dev_report": report.to_dict()}))
    return 0


def cmd_predict(args):
    dcfg = DecodeConfig(mode=args.mode, threshold=args.threshold)
    if args.text is not None:
        if args.data:
            raise PromptnerError("app: predict takes --text or --data, not both")
        if not args.types:
            raise PromptnerError("app: --text requires --types")
        sentences = [args.text.split()]
    else:
        if not args.data:
            raise PromptnerError("app: predict needs --data or --text")
        dataset = data_mod.load_dataset(args.data)
        sentences = [ex.words for ex in dataset]
    if args.types:
        types = [t.strip() for t in args.types.split(",") if t.strip()]
    else:  # --data mode: --text without --types was refused above
        types = sorted({m.type for ex in dataset for m in ex.gold})
    if not types:
        raise PromptnerError("app: no entity types to predict")

    model, _ = ckpt.load_checkpoint(args.checkpoint)
    mentions = []
    for i, words in enumerate(sentences):
        try:
            mentions.append(model.predict(words, types, dcfg))
        except PromptnerError as exc:  # --data names the example; --text has one
            raise DataError(f"{args.data}: example {i}: {exc}") if args.data else exc
    if args.out:  # the records to the --out file, else to stdout: the same bytes
        ckpt.save_mentions(mentions, args.out, sentences)
    else:
        for rec in ckpt.mention_records(mentions, sentences):
            print(json.dumps(rec))
    return 0


def cmd_evaluate(args):
    pred = ckpt.load_mentions(args.pred)
    gold = ckpt.load_mentions(args.gold)
    report = eval_score(pred, gold).to_dict()
    print(json.dumps(report))
    if args.out:
        data_mod.write_jsonl(args.out, [report])
    return 0


def cmd_gradcheck(args):
    if args.seed < 0 or args.seeds < 1:
        raise ConfigError(f"need --seed >= 0 and --seeds >= 1, got {args.seed} and {args.seeds}")
    failed = False
    for offset in range(args.seeds):
        for dtype, tol in ((np.float32, args.tol_f32), (np.float64, args.tol_f64)):
            errs = model_gradcheck(seed=args.seed + offset, dtype=dtype,
                                   samples_per_param=args.samples)
            worst = max(errs.values())
            for name in sorted(errs):
                print(f"seed={args.seed + offset} dtype={np.dtype(dtype).name} "
                      f"{name:32s} rel_err={errs[name]:.3e}")
            status = "ok" if worst < tol else "FAIL"
            print(f"seed={args.seed + offset} dtype={np.dtype(dtype).name} "
                  f"worst={worst:.3e} tol={tol:g} {status}")
            failed = failed or status == "FAIL"
    return 1 if failed else 0


def cmd_synth_data(args):
    if args.seed < 0:
        raise ConfigError(f"need --seed >= 0, got {args.seed}")
    spec = data_mod.SynthSpec(max_span_width=args.k if args.k is not None else 12)
    train, dev = data_mod.synth_dataset(spec, train_size=args.train_size,
                                        dev_size=args.dev_size, seed=args.seed)
    data_mod.save_dataset(train, args.train_out)
    data_mod.save_dataset(dev, args.dev_out)
    print(json.dumps({"train": args.train_out, "train_size": len(train),
                      "dev": args.dev_out, "dev_size": len(dev)}))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="promptner",
                                     description="Open-type span NER by prompt matching")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model on a dataset file")
    p.add_argument("--data", required=True)
    p.add_argument("--dev")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--max-types", type=int, dest="max_types")
    p.add_argument("--neg-ratio", type=float, dest="neg_ratio")
    p.add_argument("--drop-prob", type=float, dest="drop_prob")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--trace", help="loss-trace JSONL path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="extract entities with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data")
    p.add_argument("--text")
    p.add_argument("--types", help="comma-separated entity types")
    p.add_argument("--mode", choices=["flat", "nested"], default="flat")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="exact-match F1 of predictions vs gold")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gradcheck", help="finite-difference check of the default toy model")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", type=int, default=1, help="number of seeds to run")
    p.add_argument("--samples", type=int, default=6, help="coordinates checked per tensor")
    p.add_argument("--tol-f32", type=float, default=1e-3, dest="tol_f32")
    p.add_argument("--tol-f64", type=float, default=1e-6, dest="tol_f64")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("synth-data", help="generate a synthetic dataset")
    p.add_argument("--train-out", required=True, dest="train_out")
    p.add_argument("--dev-out", required=True, dest="dev_out")
    p.add_argument("--train-size", type=int, default=50, dest="train_size")
    p.add_argument("--dev-size", type=int, default=20, dest="dev_size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int)
    p.set_defaults(func=cmd_synth_data)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PromptnerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: app: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
