"""The package's only dependencies are numpy and scipy: every module of
``src/promptner`` imports nothing else outside the standard library.
Inference imports numpy only; scipy.special serves the float64 GELU and
scipy.sparse the training backward, each imported by its first use."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import promptner

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy", "promptner"}


def test_imports_only_stdlib_numpy_and_scipy():
    outside = []
    for path in sorted(Path(promptner.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:  # absolute
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in ALLOWED]
    assert not outside, outside


def test_inference_loads_no_sparse_code():
    # inference runs on numpy alone: importing the CLI and predicting with a
    # float32 model in a fresh process imports no scipy module at all; then a
    # float64 GELU loads scipy.special, and one backward through a gather
    # scipy.sparse
    script = """
import sys
import numpy as np
import promptner.cli
from promptner import EncoderConfig, Model, ModelConfig, build_vocab, tensor as T
def loaded():
    print(",".join(m for m in ("scipy", "scipy.special", "scipy.sparse") if m in sys.modules) or "-")
words = ["Ada", "met", "Alan", "in", "Ada", "town"]
config = ModelConfig(encoder=EncoderConfig(depth=1, width=8, heads=2, max_positions=32))
model = Model.fresh(config, build_vocab([words]))
assert model.params["encoder.tok_emb"].dtype == np.float32
model.predict(words, ["person", "place"])
loaded()
T.gelu(T.Tensor(np.ones(3), dtype=np.float64))
loaded()
table = model.params["encoder.tok_emb"]
T.backward(T.bce_with_logits(T.gather_rows(table, [1, 1]), np.ones((2, 8))))
loaded()
"""
    src = str(Path(promptner.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         check=True).stdout.split()
    assert out == ["-", "scipy,scipy.special", "scipy,scipy.special,scipy.sparse"]
