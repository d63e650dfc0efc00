"""The same pipeline driven entirely through the command-line interface.

Runs, in a temporary directory:

    promptner synth-data      generate a synthetic corpus
    promptner train           train and checkpoint a model
    promptner predict         extract entities (file + ad-hoc text, flat and nested)
    promptner evaluate        exact-match F1 of predictions vs gold
    promptner gradcheck       finite-difference sanity check

Run:  python3 demos/cli_workflow.py       (about a minute)
"""

import json
import tempfile
from pathlib import Path

from promptner.cli import main as cli


def run(argv):
    print("\n$ promptner " + " ".join(argv))
    rc = cli(argv)
    assert rc == 0, f"exit code {rc}"


def main():
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        train, dev = str(d / "train.jsonl"), str(d / "dev.jsonl")
        ckpt_path = str(d / "model.ckpt")
        pred = str(d / "pred.jsonl")

        run(["synth-data", "--train-out", train, "--dev-out", dev,
             "--train-size", "50", "--dev-size", "20", "--seed", "0"])

        config = str(d / "train_config.json")
        Path(config).write_text(json.dumps({
            "steps": 2000, "lr_encoder": 2e-3, "lr_head": 2e-3,
            "init_scale": 0.05, "encoder_dropout": 0.0, "head_dropout": 0.0,
            "drop_prob": 0.0, "type_policy": "inventory",
            "shuffle_types": False, "log_every": 500,
        }))
        run(["train", "--data", train, "--dev", dev,
             "--config", config, "--out", ckpt_path])

        run(["predict", "--checkpoint", ckpt_path, "--data", dev,
             "--out", pred])
        run(["evaluate", "--pred", pred, "--gold", dev])

        # trained under the "inventory" prompt policy, the model expects
        # the same full type list at inference time
        inventory = sorted({item[2]
                            for rec in Path(train).read_text().splitlines()
                            for item in json.loads(rec)["ner"]})
        run(["predict", "--checkpoint", ckpt_path,
             "--text", "alain farley works at mcgill university",
             "--types", ",".join(inventory)])

        # another sentence decoded nested, at a lower threshold
        run(["predict", "--checkpoint", ckpt_path,
             "--text", "marie curie visited montreal on monday",
             "--types", ",".join(inventory), "--mode", "nested", "--threshold", "0.3"])

        run(["gradcheck", "--seed", "0", "--samples", "4"])


if __name__ == "__main__":
    main()
