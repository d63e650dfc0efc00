"""Finite-difference verification of the from-scratch autodiff core.

Builds a full model (encoder, span/type heads, BCE loss), evaluates the
analytic gradient with the tape-based backward pass, and compares each
sampled coordinate against a central finite difference computed in
float64. Evaluation points are resampled when they sit too close to a
relu kink, where the two-sided difference would straddle a non-smooth
point.

Run:  python3 demos/gradient_check.py
"""

import numpy as np

from promptner.gradcheck import TOLERANCE, model_gradcheck


def main():
    for dtype, tol in TOLERANCE.items():
        name = np.dtype(dtype).name
        print(f"model parameters in {name} (tolerance {tol:g}):")
        errs = model_gradcheck(seed=0, dtype=dtype, samples_per_param=6)
        for pname in sorted(errs):
            print(f"  {pname:34s} max rel err {errs[pname]:.3e}")
        worst = max(errs.values())
        status = "ok" if worst < tol else "FAIL"
        print(f"  worst {worst:.3e}  -> {status}\n")


if __name__ == "__main__":
    main()
