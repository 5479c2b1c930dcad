import random
from fractions import Fraction

import pytest

import helpers
from helpers import exactness_witness
from walgebras.brst import (BRSTComplex, _input_to_star, build_complex,
                            build_d, check_thm_5_9, brst_bracket_table)
from walgebras.scalars import Scalar
from walgebras.spva import (ChiPoly, check_susy_jacobi, check_susy_skew,
                            susy_bracket_oracle, susy_master_bracket)
from walgebras.superpoly import SuperPoly, random_superpoly
from walgebras.swclassical import SUSYReductionContext

OSP = ["osp12", "sl21"]
HALF = Fraction(1, 2)
K = Scalar.k()


def sgnp(p):
    return -1 if p % 2 else 1


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
    assert check_susy_skew(cplx.table) == []
    if name == "osp12":
        assert check_susy_jacobi(cplx.table) == []


@pytest.mark.parametrize("name", OSP)
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
    fstar = _input_to_star(ctx, ctx.osp.f)

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
                term = ChiPoly.of(phibar(al)).apply_chi_plus_D().scalar_mul(fv * K)
                if pb % 2 == 0:
                    term = -term
                expect = expect + term
        assert got == expect

    for al, a in enumerate(cplx.n_idx):
        got = diff.d_chi(phi(al))
        pa = gstar.parities[a]
        expect = cplx.jvar(a, 0, Scalar.rational(-sgnp(pa)))
        expect = expect - SuperPoly.const(
            alph, c * gstar.form_value(fstar, gstar.basis_vec(a)))
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
                    Jbr = Jbr + cplx.building_block(l).scalar_mul(s_)
            if (pa * pb + pa) % 2:
                Jbr = -Jbr
            expect = ChiPoly.of(Jbr) if Jbr else ChiPoly.zero(alph)
            fv = gstar.form_value(gstar.basis_vec(a), gstar.basis_vec(b))
            if fv:
                expect = expect + ChiPoly(alph, {1: SuperPoly.const(alph, fv * K)})
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
    fstar = _input_to_star(ctx, ctx.osp.f)

    def phibar(al):
        return SuperPoly.variable(alph, cplx.phibar_index(al))

    for a in ctx.kept_indices:
        got = diff.d_chi(cplx.building_block(a))
        pa = gstar.parities[a]
        expect = ChiPoly.zero(alph)
        for al, b in enumerate(cplx.n_idx):
            pb = gstar.parities[b]
            br = gstar.bracket(gstar.basis_vec(b), gstar.basis_vec(a))
            br_le0 = tuple(x if gstar.gradings[l] <= 0 else Scalar.zero()
                           for l, x in enumerate(br))
            Jpart = SuperPoly.zero(alph)
            for l, s_ in enumerate(br_le0):
                if s_:
                    Jpart = Jpart + cplx.building_block(l).scalar_mul(s_)
            inner = Jpart + SuperPoly.const(alph, c * gstar.form_value(fstar, br))
            t1 = phibar(al) * inner
            if (pa * pb + pb) % 2:
                t1 = -t1
            expect = expect + ChiPoly.of(t1)
            fv = gstar.form_value(gstar.basis_vec(b), gstar.basis_vec(a))
            if fv:
                t2 = ChiPoly.of(phibar(al)).apply_chi_plus_D().scalar_mul(fv * K)
                if pb % 2 == 0:
                    t2 = -t2
                expect = expect + t2
        assert got == expect


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
    assert check_susy_skew(table) == []
    assert check_susy_jacobi(table) == []


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
        assert brst_rewrite(cplx, gens, poly, ctx.gen_alph).is_zero()
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
