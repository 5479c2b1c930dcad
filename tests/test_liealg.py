import importlib.resources
from fractions import Fraction

import pytest

import helpers
from walgebras.catalog import (CATALOG, build_osp12, build_sl2, build_sl21,
                               build_sl3_minimal, build_sl3_principal,
                               regenerate_data)
from walgebras.liealg import (AlgebraError, DualBases, LieSuperalgebra,
                              OSPTriple, SL2Triple, algebra_from_obj,
                              algebra_to_obj, check_tensor_identity,
                              dual_bases_F, dual_bases_f, load_algebra,
                              save_algebra, validate_algebra)
from walgebras.scalars import Scalar
from walgebras.swclassical import SUSYReductionContext
from walgebras.wclassical import ReductionContext

HALF = Fraction(1, 2)
ALL = sorted(CATALOG)
OSP = ["osp12", "sl21"]


def sc(vec, r):
    return tuple(x.scale(r) for x in vec)


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
    minusH = tuple(x.scale(-1) for x in g.basis_vec(iH))
    struct[(iE, iF)] = minusH
    struct[(iF, iE)] = g.basis_vec(iH)
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


def test_non_eigenbasis_rejected():
    # rotate the sl2 basis so H-action is no longer diagonal
    g = build_sl2()
    E, H, F = (g.basis_vec(i) for i in range(3))
    vecs = [tuple(a + b for a, b in zip(E, F)), H,
            tuple(a - b for a, b in zip(E, F))]
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
    ("sl2", lambda E, H, F: [tuple(x * Scalar.k() for x in E), H, F],
     "expected k-free scalar"),
    ("osp12", lambda E, e, H, f, F: [tuple(a + b for a, b in zip(E, e)),
                                     e, H, f, F],
     "rebase vector not parity homogeneous")])
def test_rebase_rejects_bad_vectors(name, bend, message):
    g = helpers.algebra(name)
    vecs = bend(*(g.basis_vec(i) for i in range(g.dim)))
    names = ["v%d" % i for i in range(g.dim)]
    for rebase in (g.rebase, lambda *a: helpers.dense_rebase(g, *a)):
        with pytest.raises(AlgebraError, match=message):
            rebase(vecs, names)


def test_dual_bases_sl2():
    g = helpers.algebra("sl2")
    db = dual_bases_F(g, g.sl2)
    E, H, F = (g.basis_vec(i) for i in range(3))
    assert db.spins == [1]
    assert db.chain_upper[0] == [E, sc(H, -1), sc(F, -2)]
    assert db.chain_lower[0] == [F, sc(H, -HALF), sc(E, -HALF)]
    # (q^0_1 | q_0^1) = (-H | -H/2) = 1
    assert g.form_value(db.chain_upper[0][1], db.chain_lower[0][1]) == Scalar.one()
    assert not any(helpers.sharp(db, H))
    assert helpers.sharp(db, F) == F


def test_dual_bases_sl3_principal():
    g = helpers.algebra("sl3-principal")
    db = dual_bases_F(g, g.sl2)
    assert sorted(db.spins) == [1, 2]
    assert sorted(len(c) for c in db.chain_lower) == [3, 5]


def test_dual_bases_osp():
    g = helpers.algebra("osp12")
    db = dual_bases_f(g, g.osp)
    E, e, H, f, F = (g.basis_vec(i) for i in range(5))
    assert [v for v in db.lower] == [F]
    assert [v for v in db.upper] == [E]
    assert db.chain_upper[0] == [E, sc(e, -1), H, f, sc(F, -2)]
    assert db.chain_lower[0] == [F, sc(f, HALF), sc(H, HALF), sc(e, HALF),
                                 sc(E, -HALF)]
    # C_{0,1} = -1/2 realized on the chain: r_0^1 = -1/2 [e, F] = f/2
    assert db.chain_lower[0][1] == sc(g.bracket(e, F), Fraction(-1, 2))
    assert g.form_value(db.chain_upper[0][2], db.chain_lower[0][2]) == Scalar.one()
    assert not any(helpers.sharp(db, H)) and not any(helpers.sharp(db, f))
    assert helpers.sharp(db, F) == F


@pytest.mark.parametrize("name", ALL)
def test_chain_pairings_are_identity(name):
    g = helpers.algebra(name)
    db = dual_bases_F(g, g.sl2)
    for i in range(db.count()):
        for m in range(len(db.chain_upper[i])):
            for j in range(db.count()):
                for n in range(len(db.chain_lower[j])):
                    want = Scalar.one() if (i == j and m == n) else Scalar.zero()
                    assert g.form_value(db.chain_upper[i][m],
                                        db.chain_lower[j][n]) == want


@pytest.mark.parametrize("name", ALL)
def test_sharp_idempotent(name):
    g = helpers.algebra(name)
    db = dual_bases_F(g, g.sl2)
    for i in range(g.dim):
        v = g.basis_vec(i)
        s = helpers.sharp(db, v)
        assert helpers.sharp(db, s) == s
    for q in db.lower:
        assert helpers.sharp(db, q) == q


def test_bases_not_dual_error():
    g = build_sl2()
    form = [list(row) for row in g.form]
    form[0][2] = Scalar.zero()
    form[2][0] = Scalar.zero()
    bad = LieSuperalgebra("sl2-degform", g.names, g.parities, dict(g.struct),
                          form, sl2=g.sl2)
    with pytest.raises(AlgebraError, match="not dual|singular"):
        dual_bases_F(bad, bad.sl2)


def test_admissible_chains_sl2():
    g = helpers.algebra("sl2")
    db = dual_bases_F(g, g.sl2)
    chains = helpers.admissible_chains(db, Fraction(-1), Fraction(-1, 2))
    assert [] in chains  # the empty chain is always admissible
    assert [c for c in chains if c] == [[(0, 0)]]


def test_admissible_chains_osp():
    g = helpers.algebra("osp12")
    db = dual_bases_f(g, g.osp)
    chains = [c for c in helpers.admissible_chains(db, Fraction(-1), Fraction(-1, 2))
              if c]
    assert sorted(chains) == [[(0, 0)], [(0, 0), (0, 1)], [(0, 1)]]


@pytest.mark.parametrize("name", ALL)
def test_lemma_3_4_tensor_identity(name):
    g = helpers.algebra(name)
    assert check_tensor_identity(dual_bases_F(g, g.sl2)) == []


@pytest.mark.parametrize("name", OSP)
def test_lemma_6_4_tensor_identity(name):
    g = helpers.algebra(name)
    assert check_tensor_identity(dual_bases_f(g, g.osp)) == []


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
    assert check_tensor_identity(_doubled_interior(dual_bases_F(g, g.sl2)))
    if g.osp is not None:
        assert check_tensor_identity(_doubled_interior(dual_bases_f(g, g.osp)))


def test_sl21_kernel_dimensions():
    g = helpers.algebra("sl21")
    db = dual_bases_f(g, g.osp)
    assert db.count() == 2
    assert sorted(db.spins) == [HALF, 1]
    dbF = dual_bases_F(g, g.sl2)
    assert dbF.count() == 4


def test_sl4_principal_fixture():
    g = helpers.sl4_principal()
    assert g.dim == 15
    assert validate_algebra(g) == []
    assert {1 + s for s in dual_bases_F(g, g.sl2).spins} == {2, 3, 4}


# -- the validator against the dense reference in helpers --------------------

def _unit(g, m, r=1):
    return tuple(Scalar.rational(r) if l == m else Scalar.zero() for l in range(g.dim))


def _add(x, y):
    return tuple(a + b for a, b in zip(x, y))


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
    supp_h = {l for l, c in enumerate(g.sl2.H) if c}
    i, j = next((i, j) for (i, j) in sorted(g.struct)
                if i < j and not {i, j} & supp_h)
    sgn = (-1) ** (p[i] * p[j])
    out = []

    # Jacobi: one structure constant perturbed, (j, i) kept consistent
    m = next(m for m in range(dim)
             if p[m] == (p[i] + p[j]) % 2 and gr[m] != gr[i] + gr[j])
    struct = dict(g.struct)
    struct[(i, j)] = _add(g.struct[(i, j)], _unit(g, m))
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
                ("parity-bracket", _unit(g, wrong[0]), "bracket parity fails"),
                ("parity-mixed", _add(g.struct[(i, j)], _unit(g, wrong[0])),
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
            form[a2][b2] = form[b2][a2] = Scalar.one()
        out.append(("form-odd", "form not even", form_copy("form-odd", uneven)))

    def unsymmetric(form):
        form[a][b] = form[a][b] + Scalar.one()
    out.append(("form-sym", "form not supersymmetric", form_copy("form-sym", unsymmetric)))

    def scaled(form):
        form[a][b] = form[a][b].scale(2)
        form[b][a] = form[b][a].scale(2)
    out.append(("form-inv", "form not invariant", form_copy("form-inv", scaled)))

    def degenerate(form):
        for c in range(dim):
            form[a][c] = form[c][a] = Scalar.zero()
    out.append(("form-rank", "form degenerate", form_copy("form-rank", degenerate)))

    def k_entry(form):
        e = p.index(0)
        form[e][e] = form[e][e] + Scalar.k()
    out.append(("form-k", "form entries not constant", form_copy("form-k", k_entry)))
    return out


@pytest.mark.parametrize("name", ["sl2", "osp12", "sl21", "sl4-principal"])
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
        if label == "form-k":
            continue  # algebra files carry constant coefficients only
        back = algebra_from_obj(algebra_to_obj(bad))
        assert validate_algebra(back) == validate_algebra(bad), label


def test_saved_files_match_shipped_data(tmp_path):
    regenerate_data(tmp_path)
    data = importlib.resources.files("walgebras").joinpath("data")
    for entry in CATALOG.values():
        assert (tmp_path / entry.file).read_bytes() == \
            data.joinpath(entry.file).read_bytes(), entry.name


def _random_scalar(rng):
    r = rng.random()
    if r < 0.4:
        return Scalar.zero()
    q = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    s = Scalar.gaussian(q(), q() if r > 0.7 else 0)
    if rng.random() < 0.3:
        s = s + Scalar.k() * Scalar.gaussian(q(), q())
    return s


@pytest.mark.parametrize("name", ALL + ["sl4-principal"])
def test_bracket_and_form_match_dense_reference(name):
    import random
    rng = random.Random("liealg-" + name)
    g = helpers.algebra(name)
    for _ in range(40):
        x = tuple(_random_scalar(rng) for _ in range(g.dim))
        y = tuple(_random_scalar(rng) for _ in range(g.dim))
        assert g.bracket(x, y) == helpers.dense_bracket(g, x, y)
        assert g.form_value(x, y) == helpers.dense_form_value(g, x, y)
