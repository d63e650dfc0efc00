"""End-to-end walkthrough: synthesize data, train, extract, evaluate.

Trains the toy encoder on a small synthetic corpus with known gold spans,
then extracts entities from a fresh sentence by prompting with type names,
and finally reports exact-match micro F1 on a held-out split.

Run:  python3 demos/train_and_extract.py       (about a minute on a laptop)
"""

import time

from promptner import (DecodeConfig, EncoderConfig, Model, ModelConfig,
                       TrainConfig, build_vocab, fit)
from promptner.data import SynthSpec, synth_dataset, vocab_corpus
from promptner.trainer import evaluate_dataset


def main():
    spec = SynthSpec()
    train, _ = synth_dataset(spec, train_size=50, dev_size=0, seed=0)
    held, _ = synth_dataset(spec, train_size=20, dev_size=0, seed=1)
    types = sorted(spec.types)
    print(f"training on {len(train)} sentences, {len(types)} entity types:")
    print("  " + ", ".join(types))

    vocab = build_vocab(vocab_corpus(train, types), max_size=2000)
    config = ModelConfig(encoder=EncoderConfig(dropout=0.0), head_dropout=0.0)
    model = Model.fresh(config, vocab, seed=0, init_scale=0.05)

    # the full sorted type inventory goes in every training prompt
    # ("inventory" policy): at this model scale that matches the
    # inference-time prompt exactly and trains far more reliably than
    # per-example negative sampling with shuffled prompts.
    tcfg = TrainConfig(steps=2000, batch_size=8, lr_encoder=2e-3, lr_head=2e-3,
                       drop_prob=0.0, seed=0, log_every=400,
                       type_policy="inventory", shuffle_types=False)
    t0 = time.time()
    fit(train, model, tcfg, log=lambda rec: print(
        f"  step {rec['step']:4d}  loss {rec['loss']:.4f}  lr {rec['lr']:.2e}"))
    print(f"trained in {time.time() - t0:.1f}s")

    sentence = "alain farley works at mcgill university"
    words = sentence.split()
    print(f"\nextracting from: {sentence!r}")
    print(f"prompted with:   {types}")
    for m in model.predict(words, types, DecodeConfig(mode="flat")):
        surface = " ".join(words[m.start:m.end + 1])
        print(f"  [{m.start},{m.end}] {m.type:14s} p={m.score:.3f}  ({surface})")

    # the same span scored against a wrong type stays below threshold
    table = model.score_table(words, types)
    idx = {tuple(s): i for i, s in enumerate(table.spans.tolist())}
    col = {t: j for j, t in enumerate(table.types)}
    p_person = table.probs[idx[(0, 1)], col["person"]]
    p_location = table.probs[idx[(0, 1)], col["location"]]
    print(f'\n"alain farley" as person:   {p_person:.3f}')
    print(f'"alain farley" as location: {p_location:.3f}')

    report = evaluate_dataset(model, train, types)
    print(f"\ntrain    P={report.precision:.3f} R={report.recall:.3f} F1={report.f1:.3f}")
    report = evaluate_dataset(model, held, types)
    print(f"held-out P={report.precision:.3f} R={report.recall:.3f} F1={report.f1:.3f}")


if __name__ == "__main__":
    main()
