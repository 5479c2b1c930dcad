"""Regenerate the sl4-principal stress algebra file used by the benchmark.

    python3 wbench/make_sl4.py

sl4 is realized as traceless 4x4 matrices (dim 15): the twelve off-diagonal
units E_ij and H_i = e_ii - e_(i+1)(i+1). The principal sl2 triple is
E = e12 + e23 + e34, H = diag(3, 1, -1, -3), F = 3 e21 + 4 e32 + 3 e43, and the
invariant form is the trace form scaled by 1/10. The file is written with the
public ``liealg.save_algebra``; its W-generators have weights 2, 3 and 4.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SL4_FILE = os.path.join(HERE, "data", "sl4_principal.json")


def build_sl4_principal():
    from walgebras.catalog import _build_matrix_algebra, _e, _mat, _mat_add
    n = 4
    names, mats = [], []
    for i in range(n):
        for j in range(n):
            if i != j:
                names.append("E%d%d" % (i + 1, j + 1))
                mats.append(_e(n, i, j))
    for i in range(n - 1):
        names.append("H%d" % (i + 1))
        mats.append(_mat(n, {(i, i): 1, (i + 1, i + 1): -1}))
    E = _mat_add(_mat_add(_e(n, 0, 1), _e(n, 1, 2)), _e(n, 2, 3))
    H = _mat(n, {(0, 0): 3, (1, 1): 1, (2, 2): -1, (3, 3): -3})
    F = _mat_add(_mat_add(_e(n, 1, 0, 3), _e(n, 2, 1, 4)), _e(n, 3, 2, 3))
    return _build_matrix_algebra("sl4-principal", names, mats, [0] * len(mats),
                                 set(range(n)), form_scale=Fraction(1, 10),
                                 sl2_mats=(E, H, F))


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from walgebras.liealg import save_algebra, validate_algebra
    g = build_sl4_principal()
    report = validate_algebra(g)
    if report:
        raise SystemExit("sl4-principal does not validate: %s" % report[:3])
    save_algebra(g, SL4_FILE)
    print("wrote %s" % os.path.relpath(SL4_FILE, ROOT))


if __name__ == "__main__":
    main()
