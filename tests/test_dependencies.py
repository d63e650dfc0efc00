"""The package's only dependency is numpy: ``pyproject.toml`` lists nothing
else, every module of ``src/promptner`` imports nothing else outside the
standard library, and neither inference nor training loads scipy, which the
test suite uses only for its reference values."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import promptner

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "promptner"}
SRC = Path(promptner.__file__).parent.parent


def test_pyproject_depends_on_numpy_alone():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).parent.parent / "pyproject.toml"
    deps = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    assert [re.match(r"[\w.-]+", d).group() for d in deps] == ["numpy"]


def test_imports_only_stdlib_and_numpy():
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


def test_predict_float64_gelu_and_backward_load_no_scipy():
    # a fresh process imports the CLI, predicts with a float32 model, runs a
    # float64 GELU and one backward through a gather, and holds no scipy module
    script = """
import sys
import numpy as np
import promptner.cli
from promptner import EncoderConfig, Model, ModelConfig, build_vocab, tensor as T
words = ["Ada", "met", "Alan", "in", "Ada", "town"]
config = ModelConfig(encoder=EncoderConfig(depth=1, width=8, heads=2, max_positions=32))
model = Model.fresh(config, build_vocab([words]))
assert model.params["encoder.tok_emb"].dtype == np.float32
model.predict(words, ["person", "place"])
assert T.gelu(T.Tensor(np.ones(3), dtype=np.float64)).data.dtype == np.float64
table = model.params["encoder.tok_emb"]
T.backward(T.bce_with_logits(T.gather_rows(table, [1, 1]), np.ones((2, 8))))
assert table.grad is not None
print(",".join(m for m in sys.modules if m.split(".")[0].startswith("scipy")) or "-")
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         check=True).stdout.split()
    assert out == ["-"]
