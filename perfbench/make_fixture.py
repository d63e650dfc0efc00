"""Train the fixture model that the inference workloads load.

The recipe is acceptance criterion 2 in full: 50 synthetic sentences (seed 0),
10 types, ``inventory`` prompts, dropout off, batch 8, lr 2e-3, 2000 steps,
seed 0. Training is deterministic, so every run writes the same bytes.

    python3 perfbench/make_fixture.py     # write fixture + its SHA-256
    git diff --quiet perfbench/fixture    # empty diff: same bytes as committed
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import recipe
from promptner import DecodeConfig
from promptner.checkpoint import save_checkpoint
from promptner.data import SynthSpec, synth_dataset
from promptner.trainer import evaluate_dataset, fit

STEPS = 2000
SEED = 0


def train_fixture(out):
    t0 = time.perf_counter()
    train = recipe.train_data()
    model = recipe.fresh_model(train, seed=SEED)
    fit(train, model, recipe.train_config(STEPS, seed=SEED))
    held, _ = synth_dataset(SynthSpec(), train_size=recipe.HELD_OUT_SIZE, dev_size=0,
                            seed=recipe.HELD_OUT_SEED)
    types = recipe.trained_types()
    flat = DecodeConfig(mode="flat")
    train_f1 = evaluate_dataset(model, train, types, flat).f1
    held_f1 = evaluate_dataset(model, held, types, flat).f1
    save_checkpoint(out, model, seeds=[SEED])
    print(f"trained {STEPS} steps in {time.perf_counter() - t0:.1f} s: "
          f"train F1 {train_f1:.3f}, held-out F1 {held_f1:.3f}")
    return recipe.sha256(out)


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    digest = train_fixture(recipe.FIXTURE)
    with open(recipe.FIXTURE_SHA, "w", encoding="utf-8") as fh:
        fh.write(f"{digest}  {os.path.basename(recipe.FIXTURE)}\n")
    print(f"sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
