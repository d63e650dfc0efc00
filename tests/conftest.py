"""Shared pytest plumbing: the acceptance-criteria result reporter, the two
tape ops the tests build scalar losses from, and the hypothesis profile.

Acceptance tests register one line per criterion; the summary is printed at
the end of the run so it is visible without -s.

Hypothesis runs under the ``tier1`` profile: derandomized and without an
example database, so two runs of the same code draw the same examples and
the gate cannot differ between them. ``pytest --hypothesis-profile default``
explores afresh.
"""

import numpy as np
from hypothesis import settings

from promptner import tensor as T

settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")

_criterion_lines = []


def mul(a, b):
    """Elementwise a * b as a tape node: ``b`` a tensor of a's shape, or a
    constant (an array of a's shape or a scalar) taken in a's dtype."""
    if not isinstance(b, T.Tensor):
        b = T.Tensor(np.broadcast_to(b, a.shape), dtype=a.dtype)
    if a.shape != b.shape:
        raise ValueError(f"mul of shapes {a.shape} and {b.shape}")

    def bw(g):
        if a.requires_grad:
            a._accumulate(g * b.data)
        if b.requires_grad:
            b._accumulate(g * a.data)

    return T._result(a.data * b.data, (a, b), "mul", bw)


def sum_all(a):
    """The sum of every element of ``a`` as a scalar tape node."""
    return T._result(np.asarray(a.data.sum(), dtype=a.dtype), (a,), "sum",
                     lambda g: a._accumulate(np.full_like(a.data, 1.0) * g))


def record_criterion(name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    line = f"[{status}] {name}" + (f" -- {detail}" if detail else "")
    _criterion_lines.append(line)
    return line


def record_warning(name, ok, detail=""):
    status = "PASS" if ok else "WARN"
    line = f"[{status}] {name}" + (f" -- {detail}" if detail else "")
    _criterion_lines.append(line)
    return line


def pytest_terminal_summary(terminalreporter):
    if _criterion_lines:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in _criterion_lines:
            terminalreporter.write_line(line)
