import json
import os
import random
from fractions import Fraction

import pytest

import helpers
from walgebras import brst, wclassical
from walgebras.catalog import DATA_DIR, build_sl2
from walgebras.liealg import (AlgebraError, LieSuperalgebra, SL2Triple,
                              algebra_from_obj)
from walgebras.pva import LambdaPoly, check_jacobi, check_skew, master_bracket
from walgebras.scalars import GR_ONE, Scalar, solve_linear
from walgebras.superpoly import FLAVOR_DEL, Alphabet, SuperPoly, random_superpoly
from walgebras.wclassical import (GeneratorError, ReductionContext,
                                  ansatz_monomials, compare_closed_direct,
                                  gamma_linear, k_degree,
                                  k_degree_bound, membership_defects,
                                  rewrite_in_generators,
                                  solve_all_generators, solve_generator,
                                  w_bracket_closed, w_bracket_direct,
                                  w_bracket_table)
from walgebras.swclassical import (SUSYReductionContext,
                                   solve_all_susy_generators)

CLASSICAL = ["sl2", "sl3-principal", "sl3-minimal", "osp12", "sl21"]
K = Scalar.k()


def test_gamma_linear_sl2():
    ctx, gens = helpers.classical("sl2")
    gl = ctx.to_input(gamma_linear(ctx, 0))
    dH = SuperPoly.variable(ctx.alph_in, 1, 1)
    assert gl == dH.scalar_mul(K.scale(Fraction(1, 2)))


def test_gamma_linear_sl2_at_k0():
    ctx = ReductionContext(helpers.algebra("sl2"), k=Scalar.zero())
    assert gamma_linear(ctx, 0).is_zero()


def test_golden_virasoro_generator():
    ctx, gens = helpers.classical("sl2")
    win = ctx.to_input(gens[0].value)
    ain = ctx.alph_in
    F, H = SuperPoly.variable(ain, 2), SuperPoly.variable(ain, 1)
    dH = SuperPoly.variable(ain, 1, 1)
    golden = F + dH.scalar_mul(K.scale(Fraction(1, 2))) + (H * H).scale(Fraction(1, 4))
    assert win == golden


def test_golden_virasoro_bracket_both_routes():
    ctx, gens = helpers.classical("sl2")
    ga = ctx.gen_alph
    w = SuperPoly.variable(ga, 0)
    golden = LambdaPoly(ga, {0: w.deriv().scalar_mul(K),
                             1: w.scalar_mul(K.scale(2)),
                             3: SuperPoly.const(ga, (K * K * K).scale(Fraction(-1, 2)))})
    assert w_bracket_direct(ctx, gens, 0, 0) == golden
    assert w_bracket_closed(ctx, gens, 0, 0) == golden


def test_virasoro_membership_independent_oracle():
    """Hand-built generator checked against the raw master formula, without
    going through the solver at all."""
    g, alph, t = helpers.affine("sl2")
    E, H, F = (SuperPoly.variable(alph, i) for i in range(3))
    dH = SuperPoly.variable(alph, 1, 1)
    w = F + dH.scalar_mul(K.scale(Fraction(1, 2))) + (H * H).scale(Fraction(1, 4))
    lp = master_bracket(E, w, t)
    # rho: E -> 1, derivatives of E -> 0 (I_F reduction for sl2)
    images = {0: SuperPoly.one(alph), 1: H, 2: F}
    reduced = LambdaPoly(alph, {n: p.substitute(images)
                                for n, p in lp.coeffs.items()})
    assert reduced.is_zero()


@pytest.mark.parametrize("name", CLASSICAL)
def test_generators_membership_weights(name):
    ctx, gens = helpers.classical(name)
    assert len(gens) == ctx.db.count()
    for j, w in gens.items():
        assert membership_defects(ctx, w.value) == []
        assert w.value.conformal_weight() == w.weight
        assert w.weight == 1 + ctx.db.spins[j]
        assert w.value.parity() == ctx.g.parity_of_vec(ctx.db.lower[j])


@pytest.mark.parametrize("name", CLASSICAL)
def test_canonical_form(name):
    # corrections carry at least one variable outside P(g^F)
    ctx, gens = helpers.classical(name)
    for j, w in gens.items():
        corr = w.value - SuperPoly.variable(ctx.alph, ctx.star_index[(j, 0)])
        for mono, _c in corr.terms.items():
            assert any(t in ctx.highe_indices for (t, _m), _e in mono)


@pytest.mark.parametrize("name", CLASSICAL)
def test_thm_3_6_closed_equals_direct(name):
    ctx, gens = helpers.classical(name)
    assert compare_closed_direct(ctx, gens, w_bracket_table(ctx, gens)) == []


def test_thm_3_6_reports_a_corrupted_direct_entry():
    # compare_closed_direct reads the direct table it is given: a changed
    # entry is reported at its pair, with that entry as the direct value
    ctx, gens = helpers.classical("sl3-principal")
    direct = w_bracket_table(ctx, gens)
    bad = direct.entry(0, 1) + LambdaPoly(ctx.gen_alph, {
        0: SuperPoly.const(ctx.gen_alph, Scalar.one())})
    direct.set(0, 1, bad)
    assert [(a, b, d) for a, b, d, _ in
            compare_closed_direct(ctx, gens, direct)] == [
        (ctx.gen_labels[0], ctx.gen_labels[1], bad)]


@pytest.mark.parametrize("name", CLASSICAL)
def test_w_table_axioms(name):
    ctx, gens = helpers.classical(name)
    table = w_bracket_table(ctx, gens)
    assert check_skew(table) == []
    assert check_jacobi(table) == []


def test_rewrite_in_generators():
    ctx, gens = helpers.classical("sl2")
    w = gens[0].value
    ga = ctx.gen_alph
    sym = rewrite_in_generators(ctx, gens, w)
    assert sym == SuperPoly.variable(ga, 0)
    a = w * w + w.deriv()
    sym = rewrite_in_generators(ctx, gens, a)
    ws = SuperPoly.variable(ga, 0)
    assert sym == ws * ws + ws.deriv()
    # something outside W is rejected
    with pytest.raises(GeneratorError, match="not in W"):
        rewrite_in_generators(ctx, gens,
                              SuperPoly.variable(ctx.alph, ctx.star_index[(0, 1)]))


def test_center_like_generator_is_bare():
    """sl2 (+) C z with z central: the weight-1 generator is z itself."""
    g = build_sl2()
    names = list(g.names) + ["z"]
    parities = list(g.parities) + [0]
    struct = {}
    for (i, j), vec in g.struct.items():
        struct[(i, j)] = tuple(vec) + (Scalar.zero(),)
    form = [list(row) + [Scalar.zero()] for row in g.form]
    form.append([Scalar.zero()] * 3 + [Scalar.one()])
    sl2 = SL2Triple(g.sl2.E + (Scalar.zero(),), g.sl2.H + (Scalar.zero(),),
                    g.sl2.F + (Scalar.zero(),))
    gz = LieSuperalgebra("sl2+center", names, parities, struct, form, sl2=sl2)
    assert gz.validate() == []
    ctx = ReductionContext(gz)
    gens = solve_all_generators(ctx)
    by_weight = {w.weight: w for w in gens}
    wz = by_weight[Fraction(1)]
    assert ctx.to_input(wz.value) == SuperPoly.variable(ctx.alph_in, 3)


def test_solver_detects_corrupted_context():
    # an inconsistent bracket table must not produce a generator silently
    ctx = ReductionContext(helpers.algebra("sl2"))
    top = ctx.star_index[(0, 2)]
    lead = ctx.star_index[(0, 0)]
    ctx.table.set(top, lead, LambdaPoly.of(SuperPoly.one(ctx.alph)))
    with pytest.raises(GeneratorError):
        solve_generator(ctx, 0)


def test_lemma_3_2_case_table():
    for name in CLASSICAL:
        ctx, _ = helpers.classical(name)
        g, db = ctx.g, ctx.db
        for (i, m) in db.members():
            t1 = db.grade_of(i, m)
            up = db.chain_upper[i][m]
            up_poly = SuperPoly.linear(ctx.alph, (
                (ctx.star_index[jn], cv)
                for jn, cv in helpers.full_coords(db, up).items()))
            for (j, n) in db.members():
                t2 = db.grade_of(j, n)
                lo = SuperPoly.variable(ctx.alph, ctx.star_index[(j, n)])
                got = ctx.rho_bracket(master_bracket(up_poly, lo, ctx.table))
                if t2 - t1 > 1:
                    assert got.is_zero()
                elif t2 - t1 == 1:
                    want = Scalar.one() if (i == j and n == m + 1) else Scalar.zero()
                    expect = LambdaPoly.of(SuperPoly.const(ctx.alph, want)) \
                        if want else LambdaPoly.zero(ctx.alph)
                    assert got == expect
                else:
                    br = g.bracket(up, db.chain_lower[j][n])
                    br_poly = ctx.rho(SuperPoly.linear(ctx.alph, (
                        (ctx.star_index[jn], cv)
                        for jn, cv in helpers.full_coords(db, br).items())))
                    expect = LambdaPoly.of(br_poly) if br_poly \
                        else LambdaPoly.zero(ctx.alph)
                    if i == j and m == n:
                        expect = expect + LambdaPoly(
                            ctx.alph, {1: SuperPoly.const(ctx.alph, ctx.k)})
                    assert got == expect


def test_empty_chain_bracket_sl3_minimal():
    # pair with no admissible chains: bracket is [a,b] + k lambda (a|b) alone
    ctx, gens = helpers.classical("sl3-minimal")
    weights = {j: w.weight for j, w in gens.items()}
    j0 = [j for j, wt in weights.items() if wt == 1][0]
    lp = w_bracket_closed(ctx, gens, j0, j0)
    qa = ctx.db.lower[j0]
    expect = LambdaPoly.zero(ctx.gen_alph)
    br = helpers.sharp_symbols(ctx, ctx.g.bracket(qa, qa))
    if br:
        expect = expect + LambdaPoly.of(br)
    fv = ctx.g.form_value(qa, qa)
    if fv:
        expect = expect + LambdaPoly(
            ctx.gen_alph, {1: SuperPoly.const(ctx.gen_alph, ctx.k.scale(fv))})
    assert lp == expect
    assert lp == w_bracket_direct(ctx, gens, j0, j0)


@pytest.mark.parametrize("name", CLASSICAL + ["sl4-principal",
                                             "sl32-principal"])
def test_pi_filter_matches_substitution(name):
    """ReductionContext.pi drops the monomials with an [E, g_{<=-1/2}]
    variable; the substitution that sends those variables to 0 is its
    reference, over every context alphabet."""
    g = helpers.algebra(name)
    ctxs = [ReductionContext(g)]
    if g.osp is not None:
        ctxs.append(SUSYReductionContext(g))
    rng = random.Random(11)
    for ctx in ctxs:
        zero = SuperPoly.zero(ctx.alph)
        line = sum((SuperPoly.variable(ctx.alph, t, n)
                    for t in range(len(ctx.alph)) for n in (0, 1)), zero)
        polys = [line, line * line, zero, SuperPoly.one(ctx.alph)]
        polys += [random_superpoly(ctx.alph, rng, terms=6) for _ in range(8)]
        changed = 0
        for A in polys:
            got = ctx.pi(A)
            assert got == helpers.pi_by_substitution(ctx, A)
            changed += got != A
        assert changed >= 3


def _top_k_power(poly):
    return max(kp for c in poly.terms.values() for kp, _cp in c.terms)


@pytest.mark.parametrize("name, susy", [
    ("sl4-principal", False), ("sl32-principal", False),
    ("osp12", True), ("sl21", True), ("sl32-principal", True)])
def test_k_degree_bound_leaves_room(name, susy):
    """At symbolic k every solved generator uses powers of k strictly below
    the ansatz bound, so the bound never cuts a solution short, and its top
    power is that of its linear part, where its solve starts (sl4: the
    weights 4, 3, 2 use k^3, k^2, k against the bounds 11, 9, 7; sl(3|2):
    the even weights 3 down to 1 use k^2, k^2, k^2, k, k, k, k, k^0 against
    the bounds 9 down to 5, the SUSY weights 5/2 down to 1 use k^4, k^3,
    k^2, k). The weight-1 even generator of sl(3|2) is k-free, so there
    the top power may be 0."""
    ctx, gens = (helpers.susy if susy else helpers.classical)(name)
    for w in gens.values():
        top = _top_k_power(w.value)
        assert top < k_degree_bound(w.weight, ctx.k), w.weight
        assert top > 0 or (not susy and w.weight == 1), w.weight
        # the solve starts at the linear part's top power and needs no more
        assert top == k_degree(gamma_linear(ctx, w.index)), w.weight
    if susy and name in ("osp12", "sl21"):
        # so does the BRST H^0 solve, which starts at the same power
        for j, E in helpers.brst(name)[2].items():
            assert _top_k_power(E.value_J) == k_degree(gamma_linear(ctx, j))


@pytest.mark.parametrize("name, susy", [
    ("sl4-principal", False), ("sl32-principal", False),
    ("sl32-principal", True)])
def test_adaptive_solve_matches_cap_solve(name, susy):
    """Each generator, solved from the top power of k of its linear part
    up, equals the one solved once at k_degree_bound from the same terms."""
    ctx, gens = (helpers.susy if susy else helpers.classical)(name)
    for j, w in gens.items():
        assert w.value == helpers.cap_generator_value(ctx, j), j


def _recording_solves(monkeypatch):
    """(trial degree, outcome) of every linear solve of solve_ansatz."""
    attempts = []

    def recording(equations, unknowns):
        outcome = helpers.solve_outcome(solve_linear, equations, unknowns)[0]
        attempts.append((max(d for _M, d in unknowns), outcome))
        return solve_linear(equations, unknowns)

    monkeypatch.setattr(wclassical, "solve_linear", recording)
    return attempts


def test_solve_from_degree_zero_grows_to_the_generator(monkeypatch):
    """sl4's weight-4 generator uses k^3. Solved from degree 0, its system
    is inconsistent at 0 and 1 and solved at 3, with the same generator."""
    ctx, gens = helpers.classical("sl4-principal")
    (w,) = [w for w in gens.values() if w.weight == 4]
    assert _top_k_power(w.value) == 3
    lead = ctx.star_index[(w.index, 0)]
    monos = ansatz_monomials(ctx.alph, ctx.kept_indices, w.weight,
                             ctx.alph.parities[lead], ctx.highe_indices)
    lead_poly = SuperPoly.variable(ctx.alph, lead)
    attempts = _recording_solves(monkeypatch)
    got = wclassical.solve_ansatz(
        ctx.alph, monos, k_degree_bound(w.weight, ctx.k),
        wclassical._membership_terms(ctx, lead_poly, monos),
        "generator solution", start=0)
    assert lead_poly + got == w.value
    assert attempts == [(0, "inconsistent"), (1, "inconsistent"),
                        (3, "solved")]


def test_solve_schedule_on_a_hand_built_system(monkeypatch):
    """Conditions x_u(k) = k^4 and x_u(k) + x_uu(k) = 1 on the ansatz
    x_u u + x_uu u^2: the first is inconsistent below degree 4, so it is
    tried at 0, 1, 3 and the cap, and raises only there; the second is
    underdetermined, and raises non-unique with the cap solve's message."""
    alph = Alphabet(FLAVOR_DEL, ["u"], [0], [1])
    u, uu = (((0, 0), 1),), (((0, 0), 2),)
    one = GR_ONE
    needs_k4 = [(None, "a", 4, 0, -one), (u, "a", 0, 0, one)]
    attempts = _recording_solves(monkeypatch)
    got = wclassical.solve_ansatz(alph, [u], 5, needs_k4, "test", start=0)
    assert got == SuperPoly(alph, {u: Scalar.term(4, 0, one)})
    assert attempts == [(0, "inconsistent"), (1, "inconsistent"),
                        (3, "inconsistent"), (5, "solved")]
    del attempts[:]
    with pytest.raises(GeneratorError, match=r"^no test: inconsistent$"):
        wclassical.solve_ansatz(alph, [u], 3, needs_k4, "test", start=0)
    assert attempts == [(0, "inconsistent"), (1, "inconsistent"),
                        (3, "inconsistent")]
    free = [(None, "a", 0, 0, -one), (u, "a", 0, 0, one), (uu, "a", 0, 0, one)]
    with pytest.raises(GeneratorError) as at_cap:
        wclassical.solve_ansatz(alph, [u, uu], 3, free, "test")
    del attempts[:]
    with pytest.raises(GeneratorError) as grown:
        wclassical.solve_ansatz(alph, [u, uu], 3, free, "test", start=0)
    assert str(grown.value) == str(at_cap.value)
    assert str(grown.value).startswith("non-unique test: underdetermined")
    assert attempts == [(0, "underdetermined"), (3, "underdetermined")]


SOLVED = [(name, False) for name in CLASSICAL + ["sl4-principal"]] + [
    ("osp12", True), ("sl21", True)]


@pytest.mark.parametrize("name, susy", [p for p in SOLVED
                                        if p[0] != "sl4-principal"])
def test_generator_systems_match_gauss_jordan(monkeypatch, name, susy):
    """Every generator solve on the catalog algebras, both flavors, gives
    what the Gauss-Jordan reference gives on the same system: the same
    solution, or the same error reason and message."""
    solved = []

    def both(equations, unknowns):
        want = helpers.solve_outcome(helpers.gauss_jordan_solve, equations,
                                     unknowns)
        assert helpers.solve_outcome(solve_linear, equations, unknowns) == want
        solved.append(want[0])
        return solve_linear(equations, unknowns)

    monkeypatch.setattr(wclassical, "solve_linear", both)
    cls = SUSYReductionContext if susy else ReductionContext
    gens = solve_all_generators(cls(helpers.algebra(name)))
    assert solved == ["solved"] * len(gens)


@pytest.mark.parametrize("name, susy", SOLVED)
def test_reduced_table_matches_rho_of_bracket(name, susy):
    """rho{a_x b} by the master formula over ctx.reduced_table equals rho
    applied to the bracket over the affine table, on what the solver and
    the direct route bracket: each n of g_{>0} with the leading variable and
    each ansatz monomial of every generator, and every pair of generators."""
    ctx, gens = (helpers.susy if susy else helpers.classical)(name)
    master = ctx.flavor.master

    def check(a, b):
        want = ctx.rho_bracket(ctx.bracket(a, b))
        assert master(a, b, ctx.reduced_table) == want

    for w in gens.values():
        lead = ctx.star_index[(w.index, 0)]
        monos = ansatz_monomials(ctx.alph, ctx.kept_indices, w.weight,
                                 ctx.alph.parities[lead], ctx.highe_indices)
        polys = [ctx.n_var(lead)] + [SuperPoly(ctx.alph, {M: Scalar.one()})
                                     for M in monos]
        for t in ctx.n_indices:
            for poly in polys:
                check(ctx.n_var(t), poly)
    for a in gens.values():
        for b in gens.values():
            check(a.value, b.value)


@pytest.mark.parametrize("build, shown", [
    (ReductionContext, "sl2 triple"),
    (SUSYReductionContext, "osp(1|2) data"),
    (brst.build_complex, "osp(1|2) data"),
    (brst.check_thm_5_9, "osp(1|2) data"),
], ids=["ReductionContext", "SUSYReductionContext", "build_complex",
        "check_thm_5_9"])
def test_missing_triple_is_an_algebra_error(build, shown):
    """sl2.json without its sl2 entry carries neither triple: building a
    context of either flavor raises the engine's AlgebraError, which names
    the algebra and the triple (an input error, exit 2, in the cli)."""
    with open(os.path.join(DATA_DIR, "sl2.json")) as fh:
        obj = json.load(fh)
    del obj["sl2"]
    g = algebra_from_obj(obj)
    assert (g.sl2, g.osp) == (None, None)
    with pytest.raises(AlgebraError) as exc:
        build(g)
    assert str(exc.value) == "algebra sl2 carries no %s" % shown
