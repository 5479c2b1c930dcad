import random
from fractions import Fraction

import pytest

import helpers
from helpers import exactness_witness
from walgebras import brst
from walgebras.brst import (BRSTComplex, build_complex, build_d,
                            check_thm_5_9, brst_bracket_table,
                            cohomology_generators)
from walgebras.pva import LeftBracket, check_jacobi, check_skew
from walgebras.scalars import GR_ZERO, Scalar
from walgebras.spva import ChiPoly, susy_bracket_oracle, susy_master_bracket
from walgebras.superpoly import SuperPoly, random_superpoly
from walgebras.swclassical import SUSYReductionContext

OSP = ["osp12", "sl21"]
HALF = Fraction(1, 2)
K = Scalar.k()


def sgnp(p):
    return -1 if p % 2 else 1


def star_f(ctx):
    """f in chain coordinates, read off the dual pairing with the upper
    chain vectors; it must be the f of the rebased triple."""
    fstar = tuple(ctx.g.form_value(ctx.db.chain_upper[j][n], ctx.triple.f)
                  for (j, n) in ctx.members)
    assert fstar == ctx.gstar.osp.f
    return fstar


def test_complex_generator_count_osp12():
    cplx = build_complex(helpers.algebra("osp12"))
    # j over the 5-dimensional algebra, phi and phi* over the 2-dimensional n
    assert len(cplx.alph) == 5 + 2 + 2


def test_ghost_pairing_and_decoupling():
    cplx = build_complex(helpers.algebra("osp12"))
    one = ChiPoly.of(SuperPoly.one(cplx.alph))
    for a in range(cplx.nn):
        for b in range(cplx.nn):
            ent = cplx.table.entry(cplx.phibar_index(a), cplx.phi_index(b))
            assert ent == (one if a == b else ChiPoly.zero(cplx.alph))
            ent = cplx.table.entry(cplx.phi_index(b), cplx.phibar_index(a))
            assert ent == (one if a == b else ChiPoly.zero(cplx.alph))
    for x in range(cplx.gdim):
        for a in range(cplx.nn):
            assert cplx.table.entry(x, cplx.phi_index(a)).is_zero()
            assert cplx.table.entry(x, cplx.phibar_index(a)).is_zero()


@pytest.mark.parametrize("name", OSP)
def test_complex_table_axioms(name):
    cplx = build_complex(helpers.algebra(name))
    assert check_skew(cplx.table, susy_master_bracket) == []
    if name == "osp12":
        assert check_jacobi(cplx.table, susy_master_bracket) == []


@pytest.mark.parametrize("name", OSP + ["sl32-principal"])
def test_d_squared_symbolic_c(name):
    cplx = build_complex(helpers.algebra(name))
    diff = build_d(cplx, Scalar.c())
    assert diff.d.parity() == 0
    assert diff.d_squared_defect().is_zero()
    assert diff.verify() == []


@pytest.mark.parametrize("name", OSP)
def test_d_chi_with_kept_gradient_equals_oracle(name):
    """d_chi differentiates d on its first call and reuses the gradient
    after that; the oracle never differentiates d."""
    cplx = build_complex(helpers.algebra(name))
    diff = build_d(cplx, Scalar.c())
    rng = random.Random(8)
    inputs = [SuperPoly.variable(cplx.alph, t) for t in range(len(cplx.alph))]
    inputs += [random_superpoly(cplx.alph, rng) for _ in range(3)]
    for A in inputs:
        want = susy_bracket_oracle(diff.d, A, cplx.table)
        assert diff.d_chi(A) == want
        assert diff.d_chi(A) == want
    assert diff.d.parity_gradients() is diff.d.parity_gradients()


@pytest.mark.parametrize("name", OSP)
def test_d0_is_the_chi0_coefficient_of_the_bracket(name):
    """apply_J and apply read the chi^0 coefficient alone. It equals that
    of the whole bracket {d chi A}: over jtable with a fresh operator for
    apply_J, and over the complex's table through the shared d_chi and a
    fresh master formula for apply. The inputs are the J variables and
    their first derivatives, the ansatz monomials of the H^0 solves and
    random polynomials."""
    cplx = build_complex(helpers.algebra(name))
    diff = build_d(cplx, Scalar.imag())
    full_J = LeftBracket(cplx.to_J(diff.d), cplx.jtable)
    rng = random.Random(31)
    inputs = [SuperPoly.variable(cplx.jalph, t, n)
              for t in range(len(cplx.jalph)) for n in (0, 1)]
    for j in range(cplx.ctx.db.count()):
        inputs += [SuperPoly(cplx.jalph, {M: Scalar.one()})
                   for M in helpers.cohomology_ansatz(cplx, j)[2]]
    inputs += [random_superpoly(cplx.jalph, rng, terms=3) for _ in range(4)]
    nonzero = 0
    for A in inputs:
        want = full_J(A).get(0)
        assert diff.apply_J(A) == want
        nonzero += bool(want)
        a = cplx.from_J(A)
        want = susy_master_bracket(diff.d, a, cplx.table).get(0)
        assert diff.apply(a) == want
        assert diff.d_chi(a).get(0) == want
    assert nonzero > len(inputs) // 2


def test_d0_is_odd_derivation():
    cplx = build_complex(helpers.algebra("osp12"))
    diff = build_d(cplx, Scalar.c())
    rng = random.Random(4)
    for _ in range(6):
        a = random_superpoly(cplx.alph, rng, terms=2)
        b = random_superpoly(cplx.alph, rng, terms=2)
        lhs = diff.apply(a * b)
        rhs = diff.apply(a) * b
        for pa in (0, 1):
            ah = a.parity_part(pa)
            term = ah * diff.apply(b)
            rhs = rhs + (term if pa == 0 else -term)
        assert lhs == rhs


def test_d_action_displays():
    """The three bracket displays for {d_chi .} on generators, symbolic c."""
    g = helpers.algebra("osp12")
    ctx = SUSYReductionContext(g)
    cplx = BRSTComplex(ctx)
    c = Scalar.c()
    diff = build_d(cplx, c)
    gstar, alph = ctx.gstar, cplx.alph
    fstar = star_f(ctx)

    def phibar(al):
        return SuperPoly.variable(alph, cplx.phibar_index(al))

    def phi(al):
        return SuperPoly.variable(alph, cplx.phi_index(al))

    for a in range(gstar.dim):
        got = diff.d_chi(cplx.jvar(a))
        pa = gstar.parities[a]
        expect = ChiPoly.zero(alph)
        for al, b in enumerate(cplx.n_idx):
            pb = gstar.parities[b]
            br = gstar.bracket(gstar.basis_vec(b), gstar.basis_vec(a))
            t1 = phibar(al) * helpers.j_of_vector(cplx, br)
            if (pb * pa + pb) % 2:
                t1 = -t1
            expect = expect + ChiPoly.of(t1)
            fv = gstar.form_value(gstar.basis_vec(b), gstar.basis_vec(a))
            if fv:
                term = ChiPoly.of(phibar(al)).apply_plus_d().scalar_mul(K.scale(fv))
                if pb % 2 == 0:
                    term = -term
                expect = expect + term
        assert got == expect

    for al, a in enumerate(cplx.n_idx):
        got = diff.d_chi(phi(al))
        pa = gstar.parities[a]
        expect = cplx.jvar(a, 0, Scalar.rational(-sgnp(pa)))
        expect = expect - SuperPoly.const(
            alph, c.scale(gstar.form_value(fstar, gstar.basis_vec(a))))
        for bt, b in enumerate(cplx.n_idx):
            pb = gstar.parities[b]
            br = gstar.bracket(gstar.basis_vec(b), gstar.basis_vec(a))
            t = phibar(bt) * cplx.phi_of_vector(br)
            if (pa * pb + pb) % 2:
                t = -t
            expect = expect + t
        assert got == ChiPoly.of(expect)

    duals = helpers.dual_vectors(cplx)
    for al in range(cplx.nn):
        got = diff.d_chi(phibar(al))
        pa = gstar.parities[cplx.n_idx[al]]
        expect = SuperPoly.zero(alph)
        for bt, b in enumerate(cplx.n_idx):
            pb = gstar.parities[b]
            br = gstar.bracket(gstar.basis_vec(b), duals[al])
            t = phibar(bt) * helpers.phibar_of_vector(cplx, br)
            if (pa * pb + pb) % 2:
                t = -t
            expect = expect + t.scale(HALF)
        assert got == ChiPoly.of(expect)


def test_building_block_J_F_is_bare():
    g = helpers.algebra("osp12")
    ctx = SUSYReductionContext(g)
    cplx = BRSTComplex(ctx)
    lead = ctx.star_index[(0, 0)]
    assert cplx.building_block(lead) == cplx.jvar(lead)


@pytest.mark.parametrize("name", OSP)
def test_building_block_bracket_identity(name):
    # {J_a chi J_b} = s(a,b)s(a) J_[a,b] + k chi (a|b) on g_{<=0} pairs
    g = helpers.algebra(name)
    ctx = SUSYReductionContext(g)
    cplx = BRSTComplex(ctx)
    gstar, alph = ctx.gstar, cplx.alph
    for a in ctx.kept_indices:
        for b in ctx.kept_indices:
            got = susy_master_bracket(cplx.building_block(a),
                                      cplx.building_block(b), cplx.table)
            pa, pb = gstar.parities[a], gstar.parities[b]
            br = gstar.bracket(gstar.basis_vec(a), gstar.basis_vec(b))
            Jbr = SuperPoly.zero(alph)
            for l, s_ in enumerate(br):
                if s_:
                    Jbr = Jbr + cplx.building_block(l).scale(s_)
            if (pa * pb + pa) % 2:
                Jbr = -Jbr
            expect = ChiPoly.of(Jbr) if Jbr else ChiPoly.zero(alph)
            fv = gstar.form_value(gstar.basis_vec(a), gstar.basis_vec(b))
            if fv:
                expect = expect + ChiPoly(alph, {1: SuperPoly.const(alph, K.scale(fv))})
            assert got == expect


@pytest.mark.parametrize("name", OSP)
def test_d_on_building_blocks_display(name):
    """Eq for {d_chi J_a}, a in g_{<=0}: the (u_beta|a) term is read as
    k(D+chi)phi*, whose chi^0 part is the displayed k D phi*."""
    g = helpers.algebra(name)
    ctx = SUSYReductionContext(g)
    cplx = BRSTComplex(ctx)
    c = Scalar.c()
    diff = build_d(cplx, c)
    gstar, alph = ctx.gstar, cplx.alph
    fstar = star_f(ctx)

    def phibar(al):
        return SuperPoly.variable(alph, cplx.phibar_index(al))

    for a in ctx.kept_indices:
        got = diff.d_chi(cplx.building_block(a))
        pa = gstar.parities[a]
        expect = ChiPoly.zero(alph)
        for al, b in enumerate(cplx.n_idx):
            pb = gstar.parities[b]
            br = gstar.bracket(gstar.basis_vec(b), gstar.basis_vec(a))
            br_le0 = tuple(x if gstar.gradings[l] <= 0 else GR_ZERO
                           for l, x in enumerate(br))
            Jpart = SuperPoly.zero(alph)
            for l, s_ in enumerate(br_le0):
                if s_:
                    Jpart = Jpart + cplx.building_block(l).scale(s_)
            inner = Jpart + SuperPoly.const(alph, c.scale(gstar.form_value(fstar, br)))
            t1 = phibar(al) * inner
            if (pa * pb + pb) % 2:
                t1 = -t1
            expect = expect + ChiPoly.of(t1)
            fv = gstar.form_value(gstar.basis_vec(b), gstar.basis_vec(a))
            if fv:
                t2 = ChiPoly.of(phibar(al)).apply_plus_d().scalar_mul(K.scale(fv))
                if pb % 2 == 0:
                    t2 = -t2
                expect = expect + t2
        assert got == expect


@pytest.mark.parametrize("name", OSP)
def test_jtable_axioms(name):
    cplx = build_complex(helpers.algebra(name))
    assert check_skew(cplx.jtable, susy_master_bracket) == []
    if name == "osp12":
        assert check_jacobi(cplx.jtable, susy_master_bracket) == []


@pytest.mark.parametrize("name", OSP)
@pytest.mark.parametrize("k", [None, Scalar.rational(HALF)], ids=["k", "k=1/2"])
def test_J_route_matches_j_route(name, k):
    """The generators and the bracket table computed over jtable equal the
    j-coordinate reference, at c = i."""
    cplx = BRSTComplex(SUSYReductionContext(helpers.algebra(name), k=k))
    diff = build_d(cplx, Scalar.imag())
    gens = {e.index: e for e in cohomology_generators(cplx, diff)}
    want = helpers.j_route_cohomology_generators(cplx, diff)
    assert sorted(gens) == sorted(want)
    for j, E in gens.items():
        assert E.value == want[j].value
        assert E.value_J == want[j].value_J
    table = brst_bracket_table(cplx, diff, gens)
    assert table.entries
    assert table.entries == helpers.j_route_bracket_table(cplx, diff, want).entries


@pytest.mark.parametrize("name", OSP)
def test_adaptive_H0_solve_matches_cap_solve(name):
    """Each H^0 generator, solved from the top power of k of the reduction
    generator's linear part up, equals the one solved once at
    k_degree_bound from the same J-coordinate terms."""
    cplx, diff, gens = helpers.brst(name)
    for j, E in gens.items():
        assert E.value_J == helpers.cap_cohomology_value_J(cplx, diff, j), j


def test_cohomology_value_is_built_on_first_read(monkeypatch):
    """E.value is from_J(E.value_J), expanded when read; the Thm 5.9 check
    reads value_J alone and never expands it."""
    cplx = build_complex(helpers.algebra("sl21"))
    gens = cohomology_generators(cplx, build_d(cplx, Scalar.imag()))
    for E in gens:
        assert "value" not in vars(E)
        assert E.value == cplx.from_J(E.value_J)
        assert "value" in vars(E)
    solved = []

    def recording(cplx, diff):
        solved.extend(cohomology_generators(cplx, diff))
        return solved

    monkeypatch.setattr(brst, "cohomology_generators", recording)
    assert check_thm_5_9(helpers.algebra("osp12")) == []
    assert solved and not any("value" in vars(E) for E in solved)


def test_J_coordinates_roundtrip():
    cplx = build_complex(helpers.algebra("sl21"))
    rng = random.Random(6)
    inputs = [SuperPoly.variable(cplx.alph, t) for t in range(len(cplx.alph))]
    inputs += [random_superpoly(cplx.alph, rng, terms=2) for _ in range(6)]
    for p in inputs:
        assert cplx.from_J(cplx.to_J(p)) == p


@pytest.mark.parametrize("name", OSP)
def test_cohomology_generators(name):
    ctx = SUSYReductionContext(helpers.algebra(name))
    cplx, diff, gens = helpers.brst(name)
    assert len(gens) == cplx.ctx.db.count()
    for j, E in gens.items():
        assert diff.apply(E.value).is_zero()
        assert E.weight == HALF - cplx.ctx.gstar.gradings[
            cplx.ctx.star_index[(j, 0)]]
        assert E.value.conformal_weight() == E.weight
        lead = cplx.ctx.star_index[(j, 0)]
        corr = E.value_J - SuperPoly.variable(cplx.jalph, lead)
        gi = cplx.ctx.gstar.gradings[lead]
        for mono, _c in corr.terms.items():
            lvl = sum(cplx.ctx.gstar.gradings[v[0]] * e for v, e in mono)
            assert lvl >= gi + HALF


def test_bigrade_bookkeeping():
    cplx, diff, gens = helpers.brst("osp12")
    ctx = cplx.ctx
    rng = random.Random(5)
    smin = list(ctx.kept_indices) + [cplx.phibar_index(a) for a in range(cplx.nn)]
    checked = 0
    for _ in range(10):
        poly = random_superpoly(cplx.jalph, rng, max_factors=2, max_order=1,
                                allowed_gens=smin, terms=1, with_k=False)
        for mono, c in poly.terms.items():
            bg = helpers.bigrade_mono(cplx, mono)
            if bg is None:
                continue
            X = cplx.from_J(SuperPoly(cplx.jalph, {mono: c}))
            dX = cplx.to_J(diff.apply(X))
            w0 = SuperPoly(cplx.jalph, {mono: c}).conformal_weight()
            for m2, _c2 in dX.terms.items():
                bg2 = helpers.bigrade_mono(cplx, m2)
                assert bg2 is not None
                assert bg2[0] + bg2[1] == bg[0] + bg[1] + 1
                assert bg2[0] >= bg[0]
            if dX:
                assert dX.conformal_weight() == w0
                checked += 1
    assert checked


@pytest.mark.parametrize("name", OSP)
def test_brst_bracket_table(name):
    cplx, diff, gens = helpers.brst(name)
    table = brst_bracket_table(cplx, diff, gens)
    assert check_skew(table, susy_master_bracket) == []
    assert check_jacobi(table, susy_master_bracket) == []


def test_bracket_with_exact_element_vanishes():
    cplx, diff, gens = helpers.brst("osp12")
    ctx = cplx.ctx
    # d-exact element of S(R_-): d of a J-coordinate polynomial
    Y = cplx.from_J(SuperPoly.variable(cplx.jalph, ctx.star_index[(0, 1)])
                    * SuperPoly.variable(cplx.jalph, ctx.star_index[(0, 2)]))
    X = diff.apply(Y)
    assert X and diff.apply(X).is_zero()
    raw = susy_master_bracket(gens[0].value, X, cplx.table)
    from walgebras.brst import brst_rewrite
    for p, poly in raw.coeffs.items():
        assert diff.apply(poly).is_zero()
        assert brst_rewrite(cplx, gens, cplx.to_J(poly), ctx.gen_alph).is_zero()
        assert exactness_witness(cplx, diff, cplx.to_J(poly))


@pytest.mark.parametrize("name", OSP)
def test_cohomology_classes_not_exact(name):
    cplx, diff, gens = helpers.brst(name)
    classes = [cplx.to_J(E.value) for E in gens.values() if E.value]
    assert classes
    for X in classes:
        assert not exactness_witness(cplx, diff, X)


@pytest.mark.parametrize("name", OSP)
def test_thm_5_9(name):
    assert check_thm_5_9(helpers.algebra(name)) == []


def test_thm_5_9_at_k0():
    assert check_thm_5_9(helpers.algebra("osp12"), k=Scalar.zero()) == []
