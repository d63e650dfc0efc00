"""Smoke tests that run the quick demos, so demo code tracks the library."""

import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_decoding_modes_demo(capsys):
    runpy.run_path(str(DEMOS / "decoding_modes.py"))["main"]()
    out = capsys.readouterr().out
    assert "flat  : (0,2,a,p=0.90) (4,5,c,p=0.60)" in out
    assert "nested: (0,3,a,p=0.90) (1,2,b,p=0.80)" in out
    assert "flat  : (0,0,a,p=0.95)\n  nested: (0,0,a,p=0.95)\n" in out


def test_gradient_check_demo(capsys):
    # the full model, span head included, in both dtypes against its bound
    runpy.run_path(str(DEMOS / "gradient_check.py"))["main"]()
    out = capsys.readouterr().out
    assert "model parameters in float32 (tolerance 0.001)" in out
    assert "model parameters in float64 (tolerance 1e-06)" in out
    assert out.count("-> ok") == 2 and "FAIL" not in out
