"""The package's only dependencies are numpy and scipy: every module of
``src/promptner`` imports nothing else outside the standard library."""

import ast
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
