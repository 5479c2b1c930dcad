import copy
import importlib.resources
import os
import pathlib
import pickle
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from operator import delitem, setitem

import pytest

import helpers
from walgebras.catalog import (CATALOG, build_osp12, build_sl2, build_sl21,
                               build_sl3_minimal, build_sl3_principal,
                               get_algebra, regenerate_data)
from walgebras.liealg import (AlgebraError, DualBases, LieSuperalgebra,
                              OSPTriple, SL2Triple, algebra_from_obj,
                              algebra_to_obj, check_tensor_identity,
                              _pair_dual, dual_bases_F, dual_bases_f,
                              _echelon, _kernel, load_algebra, matrix_inverse,
                              matrix_rank, save_algebra, validate_algebra)
from walgebras.scalars import GRat, GR_ONE, GR_ZERO, Scalar
from walgebras.swclassical import SUSYReductionContext
from walgebras.wclassical import ReductionContext

HALF = Fraction(1, 2)
ALL = sorted(CATALOG)
OSP = ["osp12", "sl21"]


def sc(vec, r):
    return tuple((i, x * r) for i, x in vec)


@pytest.mark.parametrize("name", ALL)
def test_catalog_valid(name):
    assert validate_algebra(helpers.algebra(name)) == []


@pytest.mark.parametrize("name", ALL)
def test_data_files_match_builders(name):
    builders = {"sl2": build_sl2, "sl3-principal": build_sl3_principal,
                "sl3-minimal": build_sl3_minimal, "osp12": build_osp12,
                "sl21": build_sl21}
    built = builders[name]()
    loaded = helpers.algebra(name)
    assert built.names == loaded.names
    assert built.struct == loaded.struct
    assert built.form == loaded.form
    assert built.gradings == loaded.gradings


def test_file_roundtrip(tmp_path):
    for name in ALL:
        g = helpers.algebra(name)
        path = tmp_path / (name + ".json")
        save_algebra(g, path)
        g2 = load_algebra(path)
        assert g2.names == g.names and g2.struct == g.struct
        assert g2.form == g.form and g2.parities == g.parities
        assert validate_algebra(g2) == []


@pytest.mark.parametrize("change", [
    lambda g, db: setitem(g.struct, (0, 2), ((1, GRat(3)),)),
    lambda g, db: delitem(g.struct, (0, 2)),
    lambda g, db: setitem(db.lower, 0, ()),
    lambda g, db: setitem(db.upper, 0, ()),
    lambda g, db: setitem(db.chain_lower[0], 0, ()),
    lambda g, db: setitem(db.chain_upper[0], 0, ()),
    lambda g, db: setitem(db.spins, 0, GRat(2))],
    ids=["struct-set", "struct-del", "lower", "upper", "chain-lower",
         "chain-upper", "spins"])
def test_algebra_and_chain_bases_are_read_only(change):
    """An algebra and its chain bases cannot be changed after they are
    built and validated: assigning into struct or into the containers of
    DualBases, or deleting from struct, raises TypeError, and [E, F] stays
    H."""
    g = helpers.algebra("sl2")
    db = dual_bases_F(g)
    with pytest.raises(TypeError):
        change(g, db)
    E, H, F = (helpers.unit(i) for i in range(3))
    assert g.bracket(E, F) == H
    assert db.spins == (1,) and validate_algebra(g) == []


@pytest.mark.parametrize("name", ALL)
def test_algebra_copies_and_pickles(name):
    """A copy or a pickle of an algebra is the same algebra, with a
    read-only struct of its own."""
    g = helpers.algebra(name)
    for h in (copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert (h.name, h.names, h.parities) == (g.name, g.names, g.parities)
        assert h.struct == g.struct and h.form == g.form
        assert h.gradings == g.gradings
        for t in ("sl2", "osp"):
            a, b = getattr(h, t), getattr(g, t)
            assert (a is None) == (b is None)
            assert a is None or vars(a) == vars(b)
        with pytest.raises(TypeError):
            setitem(h.struct, (0, 1), ())


def test_parse_error_names_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json\n")
    with pytest.raises(AlgebraError, match="line"):
        load_algebra(path)
    path.write_text('{"basis": []}')
    with pytest.raises(AlgebraError, match="field"):
        load_algebra(path)


def test_flipped_sl2_reports_triple_violation():
    g = build_sl2()
    struct = dict(g.struct)
    iE, iH, iF = 0, 1, 2
    struct[(iE, iF)] = helpers.unit(iH, -1)
    struct[(iF, iE)] = helpers.unit(iH)
    bad = LieSuperalgebra("sl2-flipped", g.names, g.parities, struct, g.form,
                          sl2=g.sl2)
    report = validate_algebra(bad)
    assert any("[E,F]=H" in r for r in report)


def test_osp_wrong_form_normalization_reported():
    g = build_osp12()
    ie, if_ = 1, 3
    form = [list(row) for row in g.form]
    form[ie][if_] = Scalar.rational(2)
    form[if_][ie] = Scalar.rational(-2)
    bad = LieSuperalgebra("osp-bad", g.names, g.parities, dict(g.struct),
                          form, sl2=g.sl2, osp=g.osp)
    report = validate_algebra(bad)
    assert any("(e|f)=-2" in r for r in report)
    assert any("invariant" in r for r in report)


def test_sl2_triple_must_share_the_osp_H():
    """g is graded once, by the H of its sl2 triple, and the SUSY chain
    bases read those gradings: without an sl2 triple the constructor takes
    (E, H, F) of the osp(1|2) data, and a triple with another H, such as
    (F, -H, E) on sl(2|1), is an AlgebraError. The flipped triple is itself
    a valid sl2 triple."""
    g = build_sl21()
    osp = g.osp

    def build(sl2):
        return LieSuperalgebra("sl21", g.names, g.parities, dict(g.struct),
                               g.form, sl2=sl2, osp=osp)

    assert vars(build(None).sl2) == vars(osp.sl2())
    assert validate_algebra(build(None)) == []
    flipped = SL2Triple(osp.F, sc(osp.H, -1), osp.E)
    assert validate_algebra(LieSuperalgebra(
        "sl21", g.names, g.parities, dict(g.struct), g.form, sl2=flipped)) == []
    with pytest.raises(AlgebraError) as err:
        build(flipped)
    assert str(err.value) == "sl2 triple and osp(1|2) data have different H"


def test_names_and_parities_of_different_lengths_rejected():
    """A parity list shorter than the basis is refused when the algebra is
    built, naming both lengths, not by an IndexError in validate."""
    with pytest.raises(AlgebraError, match=r"^names/parities length mismatch: "
                       r"2 names, 1 parities$"):
        LieSuperalgebra("x", ["a", "b"], [0], {}, [[1, 0], [0, 1]])


def test_rebase_with_wrong_number_of_names_rejected():
    g = helpers.algebra("sl2")
    vecs = [helpers.unit(i) for i in range(3)]
    with pytest.raises(AlgebraError, match=r"^names/parities length mismatch: "
                       r"2 names, 3 parities$"):
        g.rebase(vecs, ["u", "v"])


@pytest.mark.parametrize("where,bend,message", [
    ("struct", lambda g, v: _copy(g, "s", struct={**g.struct, (0, 2): v}),
     "bracket (0, 2)"),
    ("sl2", lambda g, v: _copy(g, "t", triple=(
        SL2Triple(g.osp.E, g.osp.H, v), g.osp)), "sl2 vector F"),
    ("osp", lambda g, v: _copy(g, "t", triple=(
        None, OSPTriple(v, *list(vars(g.osp).values())[1:]))), "osp vector E"),
    ("rebase", lambda g, v: g.rebase([helpers.unit(i) for i in range(4)] + [v],
                                     ["v%d" % i for i in range(5)]),
     "rebase vector 4")], ids=["struct", "sl2", "osp", "rebase"])
@pytest.mark.parametrize("vec,fault", [
    (((2, 1), (2, -1)), "index 2 is repeated"),
    (((0, 1), (5, 1)), "index 5 out of range 0..4"),
    (((-1, 1),), "index -1 out of range 0..4"),
    ((GR_ONE,) + (GR_ZERO,) * 4, ": 1 is not an (index, coefficient) pair"),
    ((("1", 1),), "index '1' is not an int")],
    ids=["repeated", "above", "negative", "dense", "not-int"])
def test_bad_element_index_rejected(where, bend, message, vec, fault):
    """A struct, triple or rebase vector with a repeated index, an index of
    a nonzero coefficient outside 0..dim-1, or pairs that are not (int,
    coefficient) raises AlgebraError naming that vector; a dense tuple of
    coefficients is not an element. A triple does not know dim: its range
    is checked when an algebra receives it."""
    g = helpers.algebra("osp12")
    with pytest.raises(AlgebraError) as err:
        bend(g, vec)
    assert str(err.value).startswith(message + ": ")
    assert fault in str(err.value)


def test_non_eigenbasis_rejected():
    # rotate the sl2 basis so H-action is no longer diagonal
    g = build_sl2()
    E, H, F = (helpers.unit(i) for i in range(3))
    vecs = [_add(E, F), H, _add(E, sc(F, -1))]
    with pytest.raises(AlgebraError, match="ad-H"):
        g.rebase(vecs, ["u", "H", "v"])


def _same_algebra(got, want):
    assert got.name == want.name and got.names == want.names
    assert got.parities == want.parities
    assert got.struct == want.struct
    assert got.form == want.form
    assert got.gradings == want.gradings
    for tag in ("sl2", "osp"):
        a, b = getattr(got, tag), getattr(want, tag)
        assert (a is None) == (b is None), tag
        if a is not None:
            assert vars(a) == vars(b), tag


@pytest.mark.parametrize("name,context", [
    *((name, ReductionContext) for name in ALL),
    ("sl4-principal", ReductionContext), ("sl32-principal", ReductionContext),
    ("osp12", SUSYReductionContext), ("sl21", SUSYReductionContext),
    ("sl32-principal", SUSYReductionContext)])
def test_rebase_matches_dense_oracle(monkeypatch, name, context):
    """Every rebase a reduction context makes equals the dense V^-1 x one."""
    sparse_rebase = LieSuperalgebra.rebase
    calls = []

    def checked(g, vectors, names):
        got = sparse_rebase(g, vectors, names)
        _same_algebra(got, helpers.dense_rebase(g, vectors, names))
        calls.append(names)
        return got

    monkeypatch.setattr(LieSuperalgebra, "rebase", checked)
    context(helpers.algebra(name))
    assert len(calls) == 1


@pytest.mark.parametrize("name,bend,message", [
    ("sl2", lambda E, H, F: [tuple((i, Scalar.term(1, 0, x)) for i, x in E),
                             H, F],
     "expected k-free scalar"),
    ("osp12", lambda E, e, H, f, F: [_add(E, e), e, H, f, F],
     "rebase vector not parity homogeneous")])
def test_rebase_rejects_bad_vectors(name, bend, message):
    g = helpers.algebra(name)
    vecs = bend(*(helpers.unit(i) for i in range(g.dim)))
    names = ["v%d" % i for i in range(g.dim)]
    for rebase in (g.rebase, lambda *a: helpers.dense_rebase(g, *a)):
        with pytest.raises(AlgebraError, match=message):
            rebase(vecs, names)


def test_dual_bases_sl2():
    g = helpers.algebra("sl2")
    db = dual_bases_F(g)
    E, H, F = (helpers.unit(i) for i in range(3))
    assert db.spins == (1,)
    assert db.chain_upper[0] == (E, sc(H, -1), sc(F, -2))
    assert db.chain_lower[0] == (F, sc(H, -HALF), sc(E, -HALF))
    # (q^0_1 | q_0^1) = (-H | -H/2) = 1
    assert g.form_value(db.chain_upper[0][1], db.chain_lower[0][1]) == GR_ONE
    assert not helpers.sharp(db, H)
    assert helpers.sharp(db, F) == F


def test_dual_bases_sl3_principal():
    g = helpers.algebra("sl3-principal")
    db = dual_bases_F(g)
    assert sorted(db.spins) == [1, 2]
    assert sorted(len(c) for c in db.chain_lower) == [3, 5]


def test_dual_bases_osp():
    g = helpers.algebra("osp12")
    db = dual_bases_f(g)
    E, e, H, f, F = (helpers.unit(i) for i in range(5))
    assert [v for v in db.lower] == [F]
    assert [v for v in db.upper] == [E]
    assert db.chain_upper[0] == (E, sc(e, -1), H, f, sc(F, -2))
    assert db.chain_lower[0] == (F, sc(f, HALF), sc(H, HALF), sc(e, HALF),
                                 sc(E, -HALF))
    # C_{0,1} = -1/2 realized on the chain: r_0^1 = -1/2 [e, F] = f/2
    assert db.chain_lower[0][1] == sc(g.bracket(e, F), Fraction(-1, 2))
    assert g.form_value(db.chain_upper[0][2], db.chain_lower[0][2]) == GR_ONE
    assert not helpers.sharp(db, H) and not helpers.sharp(db, f)
    assert helpers.sharp(db, F) == F


@pytest.mark.parametrize("name", ALL)
def test_chain_pairings_are_identity(name):
    g = helpers.algebra(name)
    db = dual_bases_F(g)
    for i in range(db.count()):
        for m in range(len(db.chain_upper[i])):
            for j in range(db.count()):
                for n in range(len(db.chain_lower[j])):
                    want = GR_ONE if (i == j and m == n) else GR_ZERO
                    assert g.form_value(db.chain_upper[i][m],
                                        db.chain_lower[j][n]) == want


@pytest.mark.parametrize("name", ALL)
def test_sharp_idempotent(name):
    g = helpers.algebra(name)
    db = dual_bases_F(g)
    for i in range(g.dim):
        v = helpers.unit(i)
        s = helpers.sharp(db, v)
        assert helpers.sharp(db, s) == s
    for q in db.lower:
        assert helpers.sharp(db, q) == q


def test_bases_not_dual_error():
    g = build_sl2()
    form = [list(row) for row in g.form]
    form[0][2] = Scalar()
    form[2][0] = Scalar()
    bad = LieSuperalgebra("sl2-degform", g.names, g.parities, dict(g.struct),
                          form, sl2=g.sl2)
    with pytest.raises(AlgebraError, match="not dual|singular"):
        dual_bases_F(bad)


def test_singular_gram_block_names_singular_pairing():
    # two copies of F against two copies of E: the Gram block [[1, 1], [1, 1]]
    # at grade -1 is nonzero and singular
    g = helpers.algebra("sl2")
    E, _H, F = (helpers.unit(i) for i in range(3))
    with pytest.raises(AlgebraError, match=r"bases not dual \(singular "
                       r"pairing at grade \(-1, 0\)\)"):
        _pair_dual(g, [(-1, 0, F), (-1, 0, F)], [(1, 0, E), (1, 0, E)])


def _random_matrix(rng, m, n):
    """An m x n matrix of Gaussian rationals; in some, a zero row, a zero
    column, and rows that are combinations of the others (rank deficient)."""
    a = [[GRat(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
               rng.choice((0, 0, rng.randint(-2, 2))))
          if rng.random() < 0.7 else GR_ZERO for _ in range(n)]
         for _ in range(m)]
    if m > 1 and rng.random() < 0.4:
        i, j = rng.sample(range(m), 2)
        f = GRat(rng.randint(-2, 2), rng.randint(-1, 1))
        a[i] = [x + f * y for x, y in zip(a[i], a[j])]
    if m and rng.random() < 0.2:
        a[rng.randrange(m)] = [GR_ZERO] * n
    if n and rng.random() < 0.2:
        c = rng.randrange(n)
        for row in a:
            row[c] = GR_ZERO
    return a


def _times(a, v):
    return [sum((x * y for x, y in zip(row, v)), GR_ZERO) for row in a]


def test_rank_and_nullspace_match_dense_reference():
    rng = random.Random(16)
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1), (1, 4)]
    shapes += [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(300)]
    deficient = 0
    for m, n in shapes:
        a = _random_matrix(rng, m, n)
        rank = matrix_rank(a)
        assert rank == helpers.dense_rank(a)
        basis = [[x[c] for c in range(n)] for x in _kernel(_echelon(a, n), n)]
        assert basis == helpers.dense_nullspace(a, n)
        assert len(basis) == n - rank
        assert all(not any(_times(a, v)) for v in basis)
        deficient += rank < min(m, n)
    assert deficient > 30


def test_inverse_matches_dense_reference():
    rng = random.Random(61)
    singular = 0
    for n in [0, 1, 1] + [rng.randint(1, 6) for _ in range(300)]:
        a = _random_matrix(rng, n, n)
        try:
            want = helpers.dense_inverse(a)
        except AlgebraError:
            singular += 1
            with pytest.raises(AlgebraError, match="^matrix not invertible$"):
                matrix_inverse(a)
            continue
        inv = matrix_inverse(a)
        assert inv == want
        assert all(_times(a, [row[j] for row in inv]) ==
                   [GR_ONE if i == j else GR_ZERO for i in range(n)]
                   for j in range(n))
    assert 30 < singular < 270
    with pytest.raises(AlgebraError, match="^matrix not invertible$"):
        matrix_inverse([[GR_ONE, GR_ZERO]])  # not square


def test_admissible_chains_sl2():
    g = helpers.algebra("sl2")
    db = dual_bases_F(g)
    chains = helpers.admissible_chains(db, Fraction(-1), Fraction(-1, 2))
    assert [] in chains  # the empty chain is always admissible
    assert [c for c in chains if c] == [[(0, 0)]]


def test_admissible_chains_osp():
    g = helpers.algebra("osp12")
    db = dual_bases_f(g)
    chains = [c for c in helpers.admissible_chains(db, Fraction(-1), Fraction(-1, 2))
              if c]
    assert sorted(chains) == [[(0, 0)], [(0, 0), (0, 1)], [(0, 1)]]


@pytest.mark.parametrize("name", ALL + ["sl32-principal"])
def test_lemma_3_4_tensor_identity(name):
    g = helpers.algebra(name)
    assert check_tensor_identity(dual_bases_F(g)) == []


@pytest.mark.parametrize("name", OSP + ["sl32-principal"])
def test_lemma_6_4_tensor_identity(name):
    g = helpers.algebra(name)
    assert check_tensor_identity(dual_bases_f(g)) == []


def _doubled_interior(db):
    """db with one interior chain_lower vector doubled."""
    j = next(j for j, chain in enumerate(db.chain_lower) if len(chain) >= 3)
    chain_lower = [list(chain) for chain in db.chain_lower]
    chain_lower[j][1] = sc(chain_lower[j][1], 2)
    return DualBases(db.g, db.kind, db.lower, db.upper, chain_lower,
                     db.chain_upper, db.spins)


@pytest.mark.parametrize("name", ALL)
def test_tensor_identity_reports_corrupted_bases(name):
    g = helpers.algebra(name)
    assert check_tensor_identity(_doubled_interior(dual_bases_F(g)))
    if g.osp is not None:
        assert check_tensor_identity(_doubled_interior(dual_bases_f(g)))


def test_sl21_kernel_dimensions():
    g = helpers.algebra("sl21")
    db = dual_bases_f(g)
    assert db.count() == 2
    assert sorted(db.spins) == [HALF, 1]
    dbF = dual_bases_F(g)
    assert dbF.count() == 4


def test_sl4_principal_fixture():
    g = helpers.sl4_principal()
    assert g.dim == 15
    assert validate_algebra(g) == []
    assert {1 + s for s in dual_bases_F(g).spins} == {2, 3, 4}


# -- the validator against the dense reference in helpers --------------------

def _add(x, y):
    """The element x + y."""
    acc = dict(x)
    for i, c in y:
        acc[i] = acc.get(i, GR_ZERO) + c
    return tuple((i, acc[i]) for i in sorted(acc) if acc[i])


def _copy(g, tag, struct=None, form=None, parities=None, triple=None):
    """g with the given fields replaced; triple is (sl2, osp)."""
    sl2, osp = triple if triple is not None else (g.sl2, g.osp)
    return LieSuperalgebra(g.name + "-" + tag, g.names,
                           g.parities if parities is None else parities,
                           dict(g.struct) if struct is None else struct,
                           g.form if form is None else form, sl2=sl2, osp=osp)


def corrupted_copies(g, form_cases=True):
    """Corrupted copies of g as (label, report fragment the copy must show,
    algebra).  Brackets and triples are changed away from the support of H,
    so that the basis stays an ad-H/2 eigenbasis and the copy constructs."""
    p, gr, dim = g.parities, g.gradings, g.dim
    supp_h = {l for l, _c in g.sl2.H}
    i, j = next((i, j) for (i, j) in sorted(g.struct)
                if i < j and not {i, j} & supp_h)
    sgn = (-1) ** (p[i] * p[j])
    out = []

    # Jacobi: one structure constant perturbed, (j, i) kept consistent
    m = next(m for m in range(dim)
             if p[m] == (p[i] + p[j]) % 2 and gr[m] != gr[i] + gr[j])
    struct = dict(g.struct)
    struct[(i, j)] = _add(g.struct[(i, j)], helpers.unit(m))
    struct[(j, i)] = sc(struct[(i, j)], -sgn)
    out.append(("jacobi", "Jacobi fails", _copy(g, "jacobi", struct=struct)))

    # (i, j) and (j, i) entries that disagree
    struct = dict(g.struct)
    struct[(j, i)] = sc(g.struct[(j, i)], -1)
    out.append(("anticomm", "super-anticommutativity fails",
                _copy(g, "anticomm", struct=struct)))

    # a basis element of the wrong parity: every bracket with it is wrong
    flipped = list(p)
    flipped[i] = 1 - flipped[i]
    out.append(("parity-flip", "bracket parity fails",
                _copy(g, "parity-flip", parities=flipped)))

    # a bracket of the wrong parity, and one of mixed parity (which the
    # parity check leaves to the Jacobi check), where both parities exist
    wrong = [m for m in range(dim) if p[m] != (p[i] + p[j]) % 2]
    if wrong:
        for tag, vec, fragment in (
                ("parity-bracket", helpers.unit(wrong[0]), "bracket parity fails"),
                ("parity-mixed", _add(g.struct[(i, j)], helpers.unit(wrong[0])),
                 "Jacobi fails")):
            struct = dict(g.struct)
            struct[(i, j)] = vec
            struct[(j, i)] = sc(vec, -sgn)
            out.append((tag, fragment, _copy(g, tag, struct=struct)))

    # a broken sl2 relation: F doubled (H is kept, so are the gradings)
    if g.osp is None:
        t = g.sl2
        out.append(("sl2", "sl2: [E,F]=H fails",
                    _copy(g, "sl2", triple=(SL2Triple(t.E, t.H, sc(t.F, 2)), None))))
    else:
        t = g.osp
        osp = OSPTriple(t.E, t.e, t.H, sc(t.f, 2), t.F)
        out.append(("osp", "osp: [e,f]=-H fails",
                    _copy(g, "osp", triple=(osp.sl2(), osp))))
    if not form_cases:
        return out

    def form_copy(tag, edit):
        form = [list(row) for row in g.form]
        edit(form)
        return _copy(g, tag, form=form)

    a, b = next((a, b) for a in range(dim) for b in range(a + 1, dim)
                if g.form[a][b])
    mixed = [(a2, b2) for a2 in range(dim) for b2 in range(dim)
             if p[a2] == 0 and p[b2] == 1]
    if mixed:
        def uneven(form):
            a2, b2 = mixed[0]
            form[a2][b2] = form[b2][a2] = GR_ONE
        out.append(("form-odd", "form not even", form_copy("form-odd", uneven)))

    def unsymmetric(form):
        form[a][b] = form[a][b] + 1
    out.append(("form-sym", "form not supersymmetric", form_copy("form-sym", unsymmetric)))

    def scaled(form):
        form[a][b] = form[a][b] * 2
        form[b][a] = form[b][a] * 2
    out.append(("form-inv", "form not invariant", form_copy("form-inv", scaled)))

    def degenerate(form):
        for c in range(dim):
            form[a][c] = form[c][a] = GR_ZERO
    out.append(("form-rank", "form degenerate", form_copy("form-rank", degenerate)))
    return out


@pytest.mark.parametrize("name", ["sl2", "sl3-minimal", "osp12", "sl21",
                                  "sl4-principal"])
def test_validate_matches_dense_reference(name):
    g = helpers.algebra(name)
    # the form cases cost a dense reference run each; on sl4 that is 1 s
    cases = corrupted_copies(g, form_cases=name != "sl4-principal")
    for label, fragment, bad in cases:
        report = validate_algebra(bad)
        assert report == helpers.dense_validate(bad), label
        assert any(fragment in r for r in report), (label, report)


@pytest.mark.parametrize("name", ["sl2", "osp12", "sl21"])
def test_file_roundtrip_keeps_violations(name):
    for label, _fragment, bad in corrupted_copies(helpers.algebra(name)):
        back = algebra_from_obj(algebra_to_obj(bad))
        assert validate_algebra(back) == validate_algebra(bad), label


def test_saved_files_match_shipped_data(tmp_path):
    """The builders write the shipped JSON files and the generated module
    of catalog literals byte for byte."""
    regenerate_data(tmp_path, tmp_path / "_catalog_data.py")
    package = importlib.resources.files("walgebras")
    data = package.joinpath("data")
    for name, entry in CATALOG.items():
        assert (tmp_path / entry.file).read_bytes() == \
            data.joinpath(entry.file).read_bytes(), name
    assert (tmp_path / "_catalog_data.py").read_bytes() == \
        package.joinpath("_catalog_data.py").read_bytes()


def test_make_catalog_runs_once_without_warnings(tmp_path):
    """python -m walgebras.make_catalog, on a copy of the package whose
    data files are removed, under -W error: no warning, its body runs once
    (one line on stdout), and it writes the shipped files byte for byte."""
    import walgebras
    package = pathlib.Path(walgebras.__file__).parent
    copied = tmp_path / "walgebras"
    shutil.copytree(package, copied,
                    ignore=shutil.ignore_patterns("__pycache__"))
    written = sorted(p.relative_to(package)
                     for p in package.joinpath("data").glob("*.json"))
    written.append(pathlib.Path("_catalog_data.py"))
    for rel in written:
        (copied / rel).unlink()
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "walgebras.make_catalog"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(tmp_path)),
        capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.count("\n") == 1 and done.stdout.startswith("wrote 5 ")
    for rel in written:
        assert (copied / rel).read_bytes() == (package / rel).read_bytes(), rel


def test_catalog_literals_are_built_per_read():
    """Each catalog algebra's literal is built when read: two reads give
    equal objects that share no list or dict."""
    from walgebras._catalog_data import ALGEBRAS
    assert list(ALGEBRAS) == list(CATALOG)
    for name, literal in ALGEBRAS.items():
        first, second = literal(), literal()
        assert first == second and first["name"] == name
        assert first is not second and first["basis"] is not second["basis"]


@pytest.mark.parametrize("name", ALL)
def test_catalog_name_reads_as_its_file(name):
    """A catalog name, read from the generated literals, gives the algebra
    that its shipped JSON file gives."""
    path = importlib.resources.files("walgebras").joinpath(
        "data", CATALOG[name].file)
    assert algebra_to_obj(get_algebra(name)) == \
        algebra_to_obj(load_algebra(str(path)))


def _random_gaussian(rng):
    r = rng.random()
    if r < 0.4:
        return GR_ZERO
    q = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return GRat(q(), q() if r > 0.7 else 0)


def _random_element(rng, dim):
    """An element of g: the nonzero draws of one Gaussian rational per
    basis index, as (index, GRat) pairs."""
    return tuple((i, c) for i in range(dim)
                 for c in (_random_gaussian(rng),) if c)


@pytest.mark.parametrize("name", ALL + ["sl4-principal"])
def test_bracket_and_form_match_dense_reference(name):
    """On random elements, bracket and form_value equal the dense loops over
    every structure constant, and every bracket is an element: strictly
    increasing indices, no zero coefficient."""
    rng = random.Random("liealg-" + name)
    g = helpers.algebra(name)
    for _ in range(40):
        x = _random_element(rng, g.dim)
        y = _random_element(rng, g.dim)
        br = g.bracket(x, y)
        assert br == helpers.dense_bracket(g, x, y)
        assert all(c for _i, c in br)
        assert all(a < b for (a, _), (b, _) in zip(br, br[1:]))
        assert g.form_value(x, y) == helpers.dense_form_value(g, x, y)


def test_k_dependent_entries_rejected_at_the_boundary():
    """Algebra data lives in Q(i): the constructor, the triples and rebase
    refuse a k- or c-dependent entry, naming it, and read constant Scalars,
    ints and Fractions as the equal GRats."""
    g = helpers.algebra("osp12")
    form = [list(row) for row in g.form]
    form[2][2] = Scalar.k() + Scalar.term(0, 0, form[2][2])
    with pytest.raises(AlgebraError, match=r"^form row 2, entry 2: expected "
                       r"k-free scalar, got 2 \+ k$"):
        _copy(g, "form-k", form=form)
    struct = dict(g.struct)
    struct[(0, 3)] = ((0, Scalar()), (1, Scalar.c()))
    with pytest.raises(AlgebraError, match=r"^bracket \(0, 3\), entry 1: "
                       r"expected k-free scalar, got c$"):
        _copy(g, "struct-c", struct=struct)
    with pytest.raises(AlgebraError, match=r"^osp vector f, entry 3: expected "
                       r"k-free scalar, got k$"):
        OSPTriple(g.osp.E, g.osp.e, g.osp.H, ((3, Scalar.k()),), g.osp.F)
    with pytest.raises(AlgebraError, match=r"^rebase vector 4, entry 4: "
                       r"expected k-free scalar, got k$"):
        g.rebase([helpers.unit(i) for i in range(4)] + [((4, Scalar.k()),)],
                 ["v%d" % i for i in range(5)])
    lifted = LieSuperalgebra(
        g.name, g.names, g.parities,
        {ij: tuple((i, Scalar.term(0, 0, x)) for i, x in vec)
         for ij, vec in g.struct.items()},
        [[Fraction(x.a, x.d) if x.d > 1 else x.a for x in row] for row in g.form],
        sl2=g.sl2, osp=OSPTriple(*(tuple((i, Scalar.term(0, 0, x)) for i, x in v)
                                   for v in vars(g.osp).values())))
    _same_algebra(lifted, g)
    assert all(type(x) is GRat for row in lifted.form for x in row)
