"""The package's only dependencies are numpy and scipy: every module of
``src/promptner`` imports nothing else outside the standard library, and
inference loads no more of scipy than it uses."""

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
    # scipy.sparse serves the training backward only; predicting in a fresh
    # process must not import it, while one backward through a gather does
    script = """
import sys
import numpy as np
from promptner import EncoderConfig, Model, ModelConfig, build_vocab, tensor as T
words = ["Ada", "met", "Alan", "in", "Ada", "town"]
config = ModelConfig(encoder=EncoderConfig(depth=1, width=8, heads=2, max_positions=32))
model = Model.fresh(config, build_vocab([words]))
model.predict(words, ["person", "place"])
print("scipy.sparse" in sys.modules)
table = model.params["encoder.tok_emb"]
T.backward(T.bce_with_logits(T.gather_rows(table, [1, 1]), np.ones((2, 8))))
print("scipy.sparse" in sys.modules)
"""
    src = str(Path(promptner.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         check=True).stdout.split()
    assert out == ["False", "True"]
