from fractions import Fraction

import pytest

import helpers
from walgebras.pva import check_jacobi, check_skew
from walgebras.scalars import Scalar
from walgebras.spva import ChiPoly, reduce_to_pva, susy_master_bracket
from walgebras.superpoly import SuperPoly
from walgebras.swclassical import (SUSYReductionContext, solve_susy_generator,
                                   susy_w_bracket_direct)
from walgebras.wclassical import (compare_closed_direct, gamma_linear,
                                  membership_defects, rewrite_in_generators,
                                  w_bracket_table)

OSP = ["osp12", "sl21"]
K = Scalar.k()
HALF = Fraction(1, 2)


def test_gamma_S_golden_osp12():
    ctx, gens = helpers.susy("osp12")
    gl = ctx.to_input(gamma_linear(ctx, 0))
    ain = ctx.alph_in
    Df = SuperPoly.variable(ain, 3, 1)
    D2H = SuperPoly.variable(ain, 2, 2)
    golden = Df.scalar_mul(K.scale(Fraction(-1, 2))) \
        + D2H.scalar_mul((K * K).scale(Fraction(-1, 2)))
    assert gl == golden


def test_gamma_S_zero_cases():
    # k = 0 and all projected chain brackets zero for osp(1|2) F-chain
    ctx0 = SUSYReductionContext(helpers.algebra("osp12"), k=Scalar())
    assert not gamma_linear(ctx0, 0)


def test_osp12_generator():
    ctx, gens = helpers.susy("osp12")
    tau = gens[0]
    assert tau.weight == Fraction(3, 2)
    assert membership_defects(ctx, tau.value) == []
    # linear part = gamma_S, leading = F~, quadratic corrections in H~, f~
    shown = ctx.to_input(tau.value)
    ain = ctx.alph_in
    expected_linear = SuperPoly.variable(ain, 4) \
        + SuperPoly.variable(ain, 3, 1).scalar_mul(K.scale(Fraction(-1, 2))) \
        + SuperPoly.variable(ain, 2, 2).scalar_mul((K * K).scale(Fraction(-1, 2)))
    quad = shown - expected_linear
    for mono, _ in quad.terms.items():
        assert len(mono) == 2 or sum(e for _v, e in mono) == 2


@pytest.mark.parametrize("name", OSP)
def test_generator_count_weights_membership(name):
    ctx, gens = helpers.susy(name)
    assert len(gens) == ctx.db.count()  # = dim g^f
    for j, w in gens.items():
        assert membership_defects(ctx, w.value) == []
        assert helpers.conformal_weight(w.value) == w.weight
        assert w.weight == HALF + ctx.db.spins[j]
        assert w.value.parity() == (ctx.g.parity_of_vec(ctx.db.lower[j]) + 1) % 2


@pytest.mark.parametrize("name", OSP)
def test_canonical_form(name):
    ctx, gens = helpers.susy(name)
    for j, w in gens.items():
        corr = w.value - SuperPoly.variable(ctx.alph, ctx.star_index[(j, 0)])
        for mono, _c in corr.terms.items():
            assert any(t in ctx.highe_indices for (t, _m), _e in mono)


@pytest.mark.parametrize("name", OSP)
def test_thm_6_5_closed_equals_direct(name):
    ctx, gens = helpers.susy(name)
    assert compare_closed_direct(
        ctx, gens, w_bracket_table(ctx, gens)) == []


@pytest.mark.parametrize("name", OSP)
def test_susy_w_table_axioms(name):
    ctx, gens = helpers.susy(name)
    table = w_bracket_table(ctx, gens)
    assert check_skew(table, susy_master_bracket) == []
    assert check_jacobi(table, susy_master_bracket) == []


@pytest.mark.parametrize("name", OSP)
def test_susy_w_reduces_to_valid_pva(name):
    ctx, gens = helpers.susy(name)
    table = w_bracket_table(ctx, gens)
    lt = reduce_to_pva(table)
    assert check_skew(lt) == []
    assert check_jacobi(lt) == []


def test_tau_bracket_closes_on_tau():
    ctx, gens = helpers.susy("osp12")
    cp = susy_w_bracket_direct(ctx, gens, 0, 0)
    # every coefficient is a k-multiple of tau, D tau, D^2 tau or central
    for p, poly in cp.coeffs.items():
        for mono, _c in poly.terms.items():
            assert mono == () or (len(mono) == 1 and mono[0][1] == 1
                                  and mono[0][0][0] == 0 and mono[0][0][1] <= 2)
    # central chi^5 term present with weight bookkeeping 0
    assert 5 in cp.coeffs and helpers.conformal_weight(cp.coeffs[5]) == 0


def test_rewrite_rejects_non_members():
    ctx, gens = helpers.susy("osp12")
    bad = SuperPoly.variable(ctx.alph, ctx.star_index[(0, 1)])
    from walgebras.wclassical import GeneratorError
    with pytest.raises(GeneratorError, match="not in W"):
        rewrite_in_generators(ctx, gens, bad)


def test_lemma_6_2_case_table():
    for name in OSP:
        ctx, _ = helpers.susy(name)
        g, db = ctx.g, ctx.db
        for (i, m) in db.members():
            h = db.grade_of(i, m)
            up = db.chain_upper[i][m]
            up_poly = SuperPoly.linear(ctx.alph, (
                (ctx.star_index[jn], cv)
                for jn, cv in helpers.full_coords(db, up).items()))
            si = (-1 if g.parity_of_vec(db.lower[i]) else 1) * (1 if m % 2 == 0 else -1)
            for (j, n) in db.members():
                t = db.grade_of(j, n)
                lo = SuperPoly.variable(ctx.alph, ctx.star_index[(j, n)])
                got = ctx.rho(susy_master_bracket(up_poly, lo, ctx.table))
                if t - h > HALF:
                    assert not got
                elif t - h == HALF:
                    want = si if (i == j and n == m + 1) else 0
                    expect = ChiPoly.of(SuperPoly.const(
                        ctx.alph, Scalar.rational(want))) if want \
                        else ChiPoly.zero(ctx.alph)
                    assert got == expect
                else:
                    br = g.bracket(up, db.chain_lower[j][n])
                    br_poly = ctx.rho(SuperPoly.linear(ctx.alph, (
                        (ctx.star_index[jn], cv)
                        for jn, cv in helpers.full_coords(db, br).items())))
                    expect = ChiPoly.of(br_poly.scale(si)) if br_poly \
                        else ChiPoly.zero(ctx.alph)
                    if i == j and m == n:
                        expect = expect + ChiPoly(
                            ctx.alph, {1: SuperPoly.const(ctx.alph, ctx.k.scale(si))})
                    assert got == expect


def test_k0_specialization():
    ctx = SUSYReductionContext(helpers.algebra("osp12"), k=Scalar())
    gens = {0: solve_susy_generator(ctx, 0)}
    assert membership_defects(ctx, gens[0].value) == []
    assert compare_closed_direct(
        ctx, gens, w_bracket_table(ctx, gens)) == []


def test_benchmark_bound_susy_names_stay_distinct_functions():
    """The SUSY names that the benchmark traces or calls are functions of
    their own, not aliases of the shared ones: its tracer wraps every
    module attribute bound to a traced function, so an alias would be
    wrapped a second time under its other name. SUSYReductionContext keeps
    an __init__ in its own namespace, which is where the tracer looks."""
    from walgebras import pva, spva, swclassical, wclassical
    for susy, shared in [
            (swclassical.solve_susy_generator, wclassical.solve_generator),
            (swclassical.solve_all_susy_generators,
             wclassical.solve_all_generators),
            (swclassical.susy_w_bracket_direct, wclassical.w_bracket_direct),
            (swclassical.susy_w_bracket_closed, wclassical.w_bracket_closed),
            (spva.susy_master_bracket, pva.master_bracket),
            (spva.susy_bracket_oracle, pva.bracket_oracle)]:
        assert susy is not shared
    assert "__init__" in vars(swclassical.SUSYReductionContext)
    for susy, shared in [(spva.susy_skew_defect, pva.skew_defect),
                         (spva.susy_jacobi_defect, pva.jacobi_defect),
                         (spva.susy_leibniz_defects, pva.leibniz_defects),
                         (spva.susy_sesquilinearity_defects,
                          pva.sesquilinearity_defects)]:
        assert susy is not shared
        assert susy.__defaults__ == (spva.susy_master_bracket,)
