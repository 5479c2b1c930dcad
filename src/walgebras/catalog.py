"""Built-in algebra catalog: sl2, sl3 (principal and minimal nilpotent),
osp(1|2), and sl(2|1) with its principal osp(1|2) embedding.

Each entry is shipped as a JSON algebra file (the stable external schema);
the builders below construct the same algebras from matrix realizations and
are used to regenerate the data files and to cross-check them in tests.

The shipped files are read by path, from the ``data`` directory next to
this module, so the package runs from a directory (an install or a source
checkout), not from a zip.  ``importlib.resources`` would also serve a zip,
but importing it pulls in tempfile, shutil, pathlib and zipfile, about half
the import time of ``walgebras.cli``, which every ``walg`` command pays.
"""

from __future__ import annotations

import os

from .liealg import (AlgebraError, LieSuperalgebra, OSPTriple, SL2Triple,
                     load_algebra, save_algebra)
from .scalars import (GRat, GR_ONE, GR_ZERO, LinearSolveError, rat,
                      solve_linear)


def _mat(n, entries):
    m = [[GR_ZERO] * n for _ in range(n)]
    for (i, j), v in entries.items():
        m[i][j] = GRat(v)
    return tuple(tuple(r) for r in m)


def _e(n, i, j, v=1):
    return _mat(n, {(i, j): v})


def _mat_mul(a, b):
    n = len(a)
    return tuple(tuple(sum((a[i][l] * b[l][j] for l in range(n)), GR_ZERO)
                       for j in range(n)) for i in range(n))


def _mat_add(a, b, sb=1):
    return tuple(tuple(x + sb * y for x, y in zip(ra, rb))
                 for ra, rb in zip(a, b))


def _super_bracket(a, pa, b, pb):
    sign = -1 if (pa * pb) % 2 else 1
    return _mat_add(_mat_mul(a, b), _mat_mul(b, a), -sign)


def _trace_pair(a, b, even_rows, scale=GR_ONE, super_tr=False):
    ab = _mat_mul(a, b)
    n = len(ab)
    tr = GR_ZERO
    for i in range(n):
        if super_tr and i not in even_rows:
            tr -= ab[i][i]
        else:
            tr += ab[i][i]
    return tr * scale


def _coords(mats, target):
    """The element whose coordinates in the basis mats give the matrix
    target, from one exact solve; raises if target is not in their span."""
    n = len(target)
    eqs = [({b: m[i][j] for b, m in enumerate(mats) if m[i][j]},
            target[i][j]) for i in range(n) for j in range(n)]
    try:
        coords = solve_linear(eqs, range(len(mats)))
    except LinearSolveError as e:
        if e.reason == "inconsistent":
            raise AlgebraError("matrix not in basis span")
        raise AlgebraError("basis matrices not independent (%s)" % e)
    return tuple((b, x) for b, x in coords.items() if x)


def _build_matrix_algebra(name, names, mats, parities, even_rows,
                          form_scale=GR_ONE, super_tr=False,
                          sl2_mats=None, osp_mats=None):
    dim = len(mats)
    struct = {(i, j): _coords(mats, _super_bracket(mats[i], parities[i],
                                                   mats[j], parities[j]))
              for i in range(dim) for j in range(dim)}
    form = [[_trace_pair(mats[i], mats[j], even_rows, form_scale, super_tr)
             for j in range(dim)] for i in range(dim)]
    sl2 = osp = None
    if osp_mats is not None:
        osp = OSPTriple(*(_coords(mats, m) for m in osp_mats))
    elif sl2_mats is not None:
        sl2 = SL2Triple(*(_coords(mats, m) for m in sl2_mats))
    return LieSuperalgebra(name, names, parities, struct, form, sl2=sl2, osp=osp)


def build_sl2() -> LieSuperalgebra:
    E, H, F = _e(2, 0, 1), _mat(2, {(0, 0): 1, (1, 1): -1}), _e(2, 1, 0)
    return _build_matrix_algebra(
        "sl2", ["E", "H", "F"], [E, H, F], [0, 0, 0], {0, 1},
        sl2_mats=(E, H, F))


def _sl3_basis():
    """The names and matrices of the root-vector basis of sl3."""
    n = 3
    names = ["E12", "E23", "E13", "H1", "H2", "E21", "E32", "E31"]
    mats = [_e(n, 0, 1), _e(n, 1, 2), _e(n, 0, 2),
            _mat(n, {(0, 0): 1, (1, 1): -1}), _mat(n, {(1, 1): 1, (2, 2): -1}),
            _e(n, 1, 0), _e(n, 2, 1), _e(n, 2, 0)]
    return names, mats


def build_sl3_principal() -> LieSuperalgebra:
    n = 3
    E = _mat_add(_e(n, 0, 1), _e(n, 1, 2))
    H = _mat(n, {(0, 0): 2, (2, 2): -2})
    F = _mat_add(_e(n, 1, 0, 2), _e(n, 2, 1, 2))
    return _build_matrix_algebra(
        "sl3-principal", *_sl3_basis(), [0] * 8, {0, 1, 2},
        form_scale=rat(1, 4), sl2_mats=(E, H, F))


def build_sl3_minimal() -> LieSuperalgebra:
    E, H, F = _e(3, 0, 2), _mat(3, {(0, 0): 1, (2, 2): -1}), _e(3, 2, 0)
    return _build_matrix_algebra(
        "sl3-minimal", *_sl3_basis(), [0] * 8, {0, 1, 2}, sl2_mats=(E, H, F))


def build_osp12() -> LieSuperalgebra:
    """Abstract osp(1|2) with the normalization used by the SUSY reduction."""
    names = ["E", "e", "H", "f", "F"]
    parities = [0, 1, 0, 1, 0]
    iE, ie, iH, if_, iF = range(5)

    def vec(**kw):
        return tuple((names.index(nm), GRat(c)) for nm, c in kw.items())

    struct = {
        (iH, iE): vec(E=2), (iH, iF): vec(F=-2), (iE, iF): vec(H=1),
        (iH, ie): vec(e=1), (iH, if_): vec(f=-1),
        (ie, ie): vec(E=2), (if_, if_): vec(F=-2), (ie, if_): vec(H=-1),
        (iF, ie): vec(f=1), (iE, if_): vec(e=1),
    }
    form = [[GR_ZERO] * 5 for _ in range(5)]
    form[iE][iF] = form[iF][iE] = GR_ONE
    form[iH][iH] = GRat(2)
    form[ie][if_], form[if_][ie] = GRat(-2), GRat(2)
    osp = OSPTriple(*(((j, GR_ONE),) for j in (iE, ie, iH, if_, iF)))
    return LieSuperalgebra("osp12", names, parities, struct, form, osp=osp)


def build_sl21() -> LieSuperalgebra:
    """sl(2|1) as supertraceless 3x3 matrices (rows 0,1 even; row 2 odd)."""
    n = 3
    names = ["E", "H", "F", "Z", "e1", "e2", "f1", "f2"]
    parities = [0, 0, 0, 0, 1, 1, 1, 1]
    E = _e(n, 0, 1)
    H = _mat(n, {(0, 0): 1, (1, 1): -1})
    F = _e(n, 1, 0)
    Z = _mat(n, {(0, 0): 1, (1, 1): 1, (2, 2): 2})
    e1, e2 = _e(n, 0, 2), _e(n, 2, 1)
    f1, f2 = _e(n, 1, 2), _e(n, 2, 0)
    mats = [E, H, F, Z, e1, e2, f1, f2]
    e = _mat_add(e1, e2)
    f = _mat_add(f1, f2, -1)
    return _build_matrix_algebra(
        "sl21", names, mats, parities, {0, 1}, super_tr=True,
        osp_mats=(E, e, H, f, F))


class CatalogEntry:
    def __init__(self, file, builder):
        self.file = file
        self.builder = builder


CATALOG = {
    "sl2": CatalogEntry("sl2.json", build_sl2),
    "sl3-principal": CatalogEntry("sl3_principal.json", build_sl3_principal),
    "sl3-minimal": CatalogEntry("sl3_minimal.json", build_sl3_minimal),
    "osp12": CatalogEntry("osp12.json", build_osp12),
    "sl21": CatalogEntry("sl21.json", build_sl21),
}


DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def load_catalog_algebra(name) -> LieSuperalgebra:
    return load_algebra(os.path.join(DATA_DIR, CATALOG[name].file))


def get_algebra(name_or_path) -> LieSuperalgebra:
    """Resolve a catalog name or an algebra-file path."""
    if name_or_path in CATALOG:
        return load_catalog_algebra(name_or_path)
    return load_algebra(name_or_path)


def regenerate_data(dirpath):
    for entry in CATALOG.values():
        save_algebra(entry.builder(), os.path.join(dirpath, entry.file))


if __name__ == "__main__":  # regenerate the shipped data files
    os.makedirs(DATA_DIR, exist_ok=True)
    regenerate_data(DATA_DIR)
    print("wrote %d algebra files to %s" % (len(CATALOG), DATA_DIR))
