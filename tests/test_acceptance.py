"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything is exact (coefficient-level equality over Q(i)[k]); the stated
runtime budgets are asserted as well.
"""

import time
from fractions import Fraction

import helpers
from walgebras.brst import BRSTComplex, build_d, check_thm_5_9
from walgebras.liealg import check_tensor_identity, dual_bases_F, dual_bases_f
from walgebras.pva import (LambdaPoly, bracket_oracle, check_jacobi,
                           check_skew, random_property_suite)
from walgebras.scalars import Scalar
from walgebras.spva import (reduce_to_pva, susy_bracket_oracle,
                            susy_master_bracket)
from walgebras.superpoly import SuperPoly
from walgebras.swclassical import SUSYReductionContext
from walgebras.wclassical import (compare_closed_direct, gamma_linear,
                                  membership_defects, w_bracket_direct,
                                  w_bracket_table, _highe_degree_part)

K = Scalar.k()
HALF = Fraction(1, 2)


def report(name, elapsed, budget):
    print("PASS %-28s (%.2fs < %ds)" % (name, elapsed, budget))
    assert elapsed < budget


def test_criterion_1_virasoro_reproduction():
    t0 = time.time()
    ctx, gens = helpers.classical("sl2")
    ain = ctx.alph_in
    F, H = SuperPoly.variable(ain, 2), SuperPoly.variable(ain, 1)
    dH = SuperPoly.variable(ain, 1, 1)
    golden_w = F + dH.scalar_mul(K.scale(HALF)) + (H * H).scale(Fraction(1, 4))
    assert ctx.to_input(gens[0].value) == golden_w
    ga = ctx.gen_alph
    w = SuperPoly.variable(ga, 0)
    golden_b = LambdaPoly(ga, {0: w.deriv().scalar_mul(K),
                               1: w.scalar_mul(K.scale(2)),
                               3: SuperPoly.const(ga, (K * K * K).scale(Fraction(-1, 2)))})
    assert w_bracket_direct(ctx, gens, 0, 0) == golden_b
    # independent oracle: the golden bracket from the axioms-driven evaluator
    raw = bracket_oracle(gens[0].value, gens[0].value, ctx.table)
    red = ctx.rho_bracket(raw)
    from walgebras.wclassical import rewrite_in_generators
    assert LambdaPoly(ga, {n: rewrite_in_generators(ctx, gens, p)
                           for n, p in red.coeffs.items()}) == golden_b
    report("1 Virasoro reproduction", time.time() - t0, 1)


def test_criterion_2_thm_3_3_and_3_6():
    t0 = time.time()
    for name in ("sl2", "sl3-principal", "sl3-minimal"):
        ctx, gens = helpers.classical(name)
        for j, w in gens.items():
            lead = SuperPoly.variable(ctx.alph, ctx.star_index[(j, 0)])
            assert _highe_degree_part(ctx, w.value - lead, 1) == gamma_linear(ctx, j)
        assert compare_closed_direct(ctx, gens, w_bracket_table(ctx, gens)) == []
    report("2 Thm 3.3 / Thm 3.6", time.time() - t0, 60)


def test_criterion_3_tensor_identities():
    t0 = time.time()
    for name in ("sl2", "sl3-principal", "sl3-minimal", "osp12", "sl21"):
        g = helpers.algebra(name)
        assert check_tensor_identity(dual_bases_F(g)) == []
        if g.osp is not None:
            assert check_tensor_identity(dual_bases_f(g)) == []
    report("3 Lemma 3.4 / Lemma 6.4", time.time() - t0, 5)


def test_criterion_4_brst_soundness():
    t0 = time.time()
    for name in ("osp12", "sl21"):
        cplx = BRSTComplex(SUSYReductionContext(helpers.algebra(name)))
        diff = build_d(cplx, Scalar.c())
        assert not diff.d_squared_defect()
        assert diff.verify() == []
    report("4 BRST d^2 = 0 (symbolic c)", time.time() - t0, 10)


def test_criterion_5_susy_w_construction():
    t0 = time.time()
    for name in ("osp12", "sl21"):
        ctx, gens = helpers.susy(name)
        assert len(gens) == ctx.db.count()
        for j, w in gens.items():
            assert membership_defects(ctx, w.value) == []
            lead = SuperPoly.variable(ctx.alph, ctx.star_index[(j, 0)])
            assert _highe_degree_part(ctx, w.value - lead, 1) == gamma_linear(ctx, j)
        assert compare_closed_direct(
            ctx, gens, w_bracket_table(ctx, gens)) == []
    report("5 SUSY W construction", time.time() - t0, 120)


def test_criterion_6_thm_5_9_equivalence():
    t0 = time.time()
    for name in ("osp12", "sl21"):
        assert check_thm_5_9(helpers.algebra(name)) == []
    report("6 Thm 5.9 equivalence", time.time() - t0, 120)


def test_criterion_7_axiom_suites():
    t0 = time.time()
    seed = 2024
    for name in ("sl2", "sl3-principal", "sl3-minimal", "osp12", "sl21"):
        g, alph, t = helpers.affine(name)
        assert check_skew(t) == []
        assert check_jacobi(t) == []
        ctx, gens = helpers.classical(name)
        wt = w_bracket_table(ctx, gens)
        assert check_skew(wt) == []
        assert check_jacobi(wt) == []
    for name in ("osp12", "sl21"):
        g, alph, st = helpers.susy_affine(name)
        assert check_skew(st, susy_master_bracket) == []
        assert check_jacobi(st, susy_master_bracket) == []
        ctx, gens = helpers.susy(name)
        swt = w_bracket_table(ctx, gens)
        assert check_skew(swt, susy_master_bracket) == []
        assert check_jacobi(swt, susy_master_bracket) == []
        for table in (st, swt):
            lt = reduce_to_pva(table)
            assert check_skew(lt) == []
            assert check_jacobi(lt) == []
    # randomized Leibniz / sesquilinearity, fixed seed, degree <= 3
    g, alph, t = helpers.affine("sl3-minimal")
    assert random_property_suite(t, seed, rounds=2) == []
    g, alph, st = helpers.susy_affine("osp12")
    assert random_property_suite(st, seed, 2, susy_master_bracket,
                                 susy_bracket_oracle) == []
    report("7 axiom suites", time.time() - t0, 60)


def test_criterion_8_conformal_weights():
    t0 = time.time()
    for name in ("sl2", "sl3-principal", "sl3-minimal", "osp12", "sl21"):
        ctx, gens = helpers.classical(name)
        for j, w in gens.items():
            grade = -ctx.db.spins[j]
            assert helpers.conformal_weight(w.value) == 1 - grade == w.weight
    for name in ("osp12", "sl21"):
        ctx, gens = helpers.susy(name)
        for j, w in gens.items():
            grade = -ctx.db.spins[j]
            assert helpers.conformal_weight(w.value) == HALF - grade == w.weight
        cplx, diff, egens = helpers.brst(name)
        for j, e in egens.items():
            grade = -cplx.ctx.db.spins[j]
            assert helpers.conformal_weight(e.value) == HALF - grade
    report("8 conformal weights", time.time() - t0, 60)
