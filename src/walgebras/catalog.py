"""Built-in algebra catalog: sl2, sl3 (principal and minimal nilpotent),
osp(1|2), and sl(2|1) with its principal osp(1|2) embedding.

The builders below construct each algebra from a matrix realization.
``python -m walgebras.make_catalog`` writes what they build twice, in the
algebra-file schema (the stable external one): as the JSON files of the
``data`` directory, the documented examples of that schema, and as the
Python literals of the generated module ``_catalog_data``, one function
per algebra, from which ``get_algebra`` reads a catalog name through the
same ``algebra_from_obj`` as a file.  A catalog command thus imports no
``json`` (nor the ``re`` and ``enum`` modules that ``json`` pulls in), and
no ``importlib.resources`` (with tempfile, shutil, pathlib and zipfile);
tests check that both written forms match the builders byte for byte.
Each function builds its literal when called, so no literal outlives the
read of its algebra.
"""

from __future__ import annotations

import os

from .liealg import (AlgebraError, LieSuperalgebra, OSPTriple, SL2Triple,
                     algebra_from_obj, algebra_to_obj, load_algebra,
                     save_algebra)
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


HERE = os.path.dirname(__file__)
DATA_DIR = os.path.join(HERE, "data")
DATA_MODULE = os.path.join(HERE, "_catalog_data.py")


def load_catalog_algebra(name) -> LieSuperalgebra:
    from ._catalog_data import ALGEBRAS   # a command on a file reads none
    return algebra_from_obj(ALGEBRAS[name]())


def get_algebra(name_or_path) -> LieSuperalgebra:
    """Resolve a catalog name or an algebra-file path."""
    if name_or_path in CATALOG:
        return load_catalog_algebra(name_or_path)
    return load_algebra(name_or_path)


def _data_module(objs):
    """Python source binding ALGEBRAS to {name: function}: each function
    returns its algebra's file object, built when called, with each
    top-level field on a line of its own, and each item of a list or dict
    field too."""
    lines = ['"""The catalog algebras in the algebra-file schema, as Python '
             'literals.', "",
             "Written by ``python -m walgebras.make_catalog`` from the "
             "builders in", "``catalog``; do not edit. Each function builds "
             "its algebra's literal when", "called, so that no literal "
             "outlives the read of its algebra.", '"""']
    functions = {}
    for name, obj in objs.items():
        functions[name] = "_" + "".join(ch if ch.isalnum() else "_"
                                        for ch in name)
        lines += ["", "", "def %s():" % functions[name], "    return {"]
        for key, value in obj.items():
            if isinstance(value, list):
                lines.append("        %r: [" % key)
                lines += ["            %r," % item for item in value]
                lines.append("        ],")
            elif isinstance(value, dict):
                lines.append("        %r: {" % key)
                lines += ["            %r: %r," % item for item in value.items()]
                lines.append("        },")
            else:
                lines.append("        %r: %r," % (key, value))
        lines.append("    }")
    lines += ["", "", "ALGEBRAS = {"]
    lines += ["    %r: %s," % item for item in functions.items()]
    lines.append("}")
    return "\n".join(lines) + "\n"


def regenerate_data(dirpath, module_path):
    """Write each catalog algebra, built from its matrices, as a JSON file
    in dirpath and as a literal of the module at module_path."""
    objs = {}
    for name, entry in CATALOG.items():
        g = entry.builder()
        save_algebra(g, os.path.join(dirpath, entry.file))
        objs[name] = algebra_to_obj(g)
    with open(module_path, "w") as fh:
        fh.write(_data_module(objs))
