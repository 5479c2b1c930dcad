import json
import os
import random
import sys
import threading
from collections import Counter
from fractions import Fraction

import pytest

import helpers
from walgebras import brst, wclassical
from walgebras.catalog import DATA_DIR, build_sl2
from walgebras.liealg import (HALF, AlgebraError, LieSuperalgebra,
                              algebra_from_obj, dual_bases_F, dual_bases_f,
                              load_algebra)
from walgebras.pva import (BracketTable, LambdaPoly, check_jacobi, check_skew,
                           master_bracket)
from walgebras.scalars import GR_ONE, GR_ZERO, Scalar, solve_linear
from walgebras.spva import ChiPoly, doubled_alphabet, reduce_chipoly
from walgebras.superpoly import FLAVOR_DEL, Alphabet, SuperPoly, random_superpoly
from walgebras.wclassical import (GeneratorError, ReductionContext,
                                  ansatz_monomials, compare_closed_direct,
                                  gamma_linear, membership_defects,
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
    ctx = ReductionContext(helpers.algebra("sl2"), k=Scalar())
    assert not gamma_linear(ctx, 0)


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
    reduced = LambdaPoly(alph, {n: p.substitute(images, alph)
                                for n, p in lp.coeffs.items()})
    assert not reduced


@pytest.mark.parametrize("name", CLASSICAL)
def test_generators_membership_weights(name):
    ctx, gens = helpers.classical(name)
    assert len(gens) == ctx.db.count()
    for j, w in gens.items():
        assert membership_defects(ctx, w.value) == []
        assert helpers.conformal_weight(w.value) == w.weight
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
    direct = type(direct)(ctx.gen_alph, {**direct.entries, (0, 1): bad})
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
    form = [list(row) + [Scalar()] for row in g.form]
    form.append([Scalar()] * 3 + [Scalar.one()])
    gz = LieSuperalgebra("sl2+center", names, parities, dict(g.struct), form,
                         sl2=g.sl2)
    assert gz.validate() == []
    ctx = ReductionContext(gz)
    gens = solve_all_generators(ctx)
    by_weight = {w.weight: w for w in gens}
    wz = by_weight[Fraction(1)]
    assert ctx.to_input(wz.value) == SuperPoly.variable(ctx.alph_in, 3)


def test_solver_detects_corrupted_context():
    # an inconsistent bracket table must not produce a generator silently;
    # the solve reads the reduced table, whose (top, lead) entry is rho(1)
    ctx = ReductionContext(helpers.algebra("sl2"))
    top = ctx.star_index[(0, 2)]
    lead = ctx.star_index[(0, 0)]
    ctx.reduced_table = type(ctx.reduced_table)(ctx.alph, {
        **ctx.reduced_table.entries,
        (top, lead): LambdaPoly.of(SuperPoly.one(ctx.alph))})
    with pytest.raises(GeneratorError, match=r"^no generator solution: "
                       r"inconsistent \(3 x 2 system\)$"):
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
                got = ctx.rho(master_bracket(up_poly, lo, ctx.table))
                if t2 - t1 > 1:
                    assert not got
                elif t2 - t1 == 1:
                    want = Scalar.one() if (i == j and n == m + 1) else Scalar()
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


SL4_FILE = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "wbench", "data", "sl4_principal.json")


@pytest.mark.parametrize("name", CLASSICAL + ["sl4-principal",
                                             "sl32-principal"])
def test_pi_filter_matches_substitution(monkeypatch, name):
    """ReductionContext.symbols keeps the monomials in the chain heads
    alone, renamed to generator symbols (on W, the canonical-form
    projection pi renamed); the substitution that sends each head to its
    symbol and every other variable to 0 is its reference, in both flavors
    where the algebra carries both triples, over every context alphabet
    and over the J-alphabet of the BRST complex, whose ghosts it drops
    too. sl4-principal is read from the benchmark's file. A second call on
    the same polynomial unpacks no monomial."""
    from walgebras import superpoly
    g = load_algebra(SL4_FILE) if name == "sl4-principal" else \
        helpers.algebra(name)
    pairs = [(ReductionContext(g), None)]
    if g.osp is not None:
        ctx = SUSYReductionContext(g)
        cplx = brst.BRSTComplex(ctx)
        pairs += [(ctx, None), (ctx, cplx.jalph)]
    rng = random.Random(11)
    unpacked = []
    renamed = superpoly._renamed
    monkeypatch.setattr(superpoly, "_renamed",
                        lambda *a: unpacked.append(a) or renamed(*a))
    for ctx, alph in pairs:
        alph = alph or ctx.alph
        heads = [ctx.star_index[(j, 0)] for j in range(ctx.db.count())]
        zero = SuperPoly.zero(alph)
        line = sum((SuperPoly.variable(alph, t, n)
                    for t in range(len(alph)) for n in (0, 1)), zero)
        head_line = sum((SuperPoly.variable(alph, t, n)
                         for t in heads for n in (0, 1, 2)), zero)
        polys = [line, line * line, head_line * head_line * head_line,
                 zero, SuperPoly.one(alph)]
        polys += [random_superpoly(alph, rng, terms=6) for _ in range(8)]
        polys += [random_superpoly(alph, rng, max_factors=4,
                                   allowed_gens=heads, terms=6)
                  for _ in range(4)]
        lost = kept = first = 0
        for A in polys:
            del unpacked[:]
            got = ctx.symbols(A, ctx.gen_alph)
            first += len(unpacked)
            assert got == helpers.symbols_by_substitution(ctx, A, ctx.gen_alph)
            lost += len(got.terms) < len(A.terms)
            kept += bool(got)
            del unpacked[:]
            assert ctx.symbols(A, ctx.gen_alph) == got
            assert not unpacked
        assert lost >= 3 and kept >= 1 and first >= 1


@pytest.mark.parametrize("name", CLASSICAL + ["sl4-principal",
                                             "sl32-principal"])
def test_variable_maps_match_substitution(name):
    """rho, the i-twist into the BRST J-alphabet (twist_to_J), the symbol
    twist of compare_brst_reduction, the J-images of the complex and the
    Prop 4.3 doubling are each one SuperPoly.rename; their references are
    the substitutions of one SuperPoly image per generator (and the merge
    of tuple terms, and the walk over coefficients()) in helpers. Seeded
    random polynomials in every variable, and in the killed ones (orders
    0 to 3) with two kept ones, over every context alphabet in both
    flavors where the algebra carries both triples; the doubling also on
    every entry of the SUSY affine table."""
    g = load_algebra(SL4_FILE) if name == "sl4-principal" else \
        helpers.algebra(name)
    rng = random.Random(23)
    contexts = [ReductionContext(g)]
    if g.osp is not None:
        contexts.append(SUSYReductionContext(g))
    for ctx in contexts:
        alph = ctx.alph
        grads = ctx.gstar.gradings
        killed = [t for t in range(len(alph)) if ctx.flavor.killed(grads[t])]
        kept = [t for t in range(len(alph)) if t not in killed]
        assert killed and kept
        q = SuperPoly.variable(alph, kept[0])
        polys = [random_superpoly(alph, rng, max_order=3, terms=6)
                 for _ in range(8)]
        polys += [random_superpoly(alph, rng, max_factors=4, max_order=3,
                                   allowed_gens=killed + kept[:2], terms=6)
                  for _ in range(6)]
        polys += [q * SuperPoly.variable(alph, t, m) + SuperPoly.variable(
            alph, t, m) for t in killed for m in (0, 1)]
        for A in polys:
            assert ctx.rho(A) == helpers.rho_by_substitution(ctx, A)
        if not ctx.flavor.bar:
            continue
        cplx = brst.BRSTComplex(ctx)
        for A in polys:
            assert brst.twist_to_J(cplx, A) == helpers.twist_by_substitution(
                A, cplx.jalph, ctx.gstar.parities)
        for t in range(ctx.gstar.dim):
            assert cplx.to_J(cplx.jvar(t)) == \
                helpers.to_J_image_by_terms(cplx, t)
        galph = ctx.gen_alph
        twist, memos = brst._i_twist(ctx.gen_parities), {}
        for _ in range(8):
            A = random_superpoly(galph, rng, max_factors=4, max_order=3,
                                 terms=6)
            assert A.rename(twist, galph, memos) == \
                helpers.twist_by_substitution(A, galph, ctx.gen_parities)
        memos = {}
        for alph in (ctx.alph, galph):
            target = doubled_alphabet(alph)
            for _ in range(6):
                A = random_superpoly(alph, rng, max_factors=4, max_order=5,
                                     terms=6)
                assert reduce_chipoly(ChiPoly(alph, {1: A, 3: A}), target,
                                      memos) == \
                    LambdaPoly(target, {0: helpers.doubled_by_walk(A, target),
                                        1: -helpers.doubled_by_walk(A, target)})
        target = doubled_alphabet(ctx.alph)
        for cp in ctx.table.entries.values():
            assert reduce_chipoly(cp, target, memos) == LambdaPoly(target, {
                (p - 1) // 2: helpers.doubled_by_walk(v, target).scale(
                    -1 if p % 4 == 3 else 1)
                for p, v in cp.coeffs.items() if p % 2})


@pytest.mark.parametrize("name, susy", [
    ("sl4-principal", False), ("sl32-principal", False),
    ("sl32-principal", True)])
def test_adaptive_solve_matches_cap_solve(name, susy):
    """Each generator, solved with one power of k per ansatz monomial,
    equals the one solved over the wide ansatz: every power of k up to
    2 weight + 3 for every monomial, from the same terms."""
    ctx, gens = (helpers.susy if susy else helpers.classical)(name)
    for j, w in gens.items():
        assert w.value == helpers.wide_generator_value(ctx, j), j


def _rows(terms):
    """The equations that solve_ansatz reads from `terms`, as a multiset
    of (image key, k power, c power, {M: summed coefficient}): the
    monomial that names a condition, a packed key or a tuple, is left out,
    so two conditions that share a name show as one row."""
    rows = {}
    for M, (key, mono), kp, cp, gr in terms:
        cells = rows.setdefault((key, mono, kp, cp), {})
        cells[M] = cells.get(M, GR_ZERO) + gr
    return Counter((key, kp, cp, frozenset(cells.items()))
                   for (key, _mono, kp, cp), cells in rows.items())


@pytest.mark.parametrize("name, kind", [
    ("sl3-minimal", "even"), ("sl4-principal", "even"), ("sl21", "even"),
    ("osp12", "susy"), ("sl21", "susy"), ("osp12", "brst"),
    ("sl21", "brst")])
def test_packed_rows_match_tuple_rows(name, kind):
    """ansatz_terms, whose conditions are keyed by packed monomial keys,
    gives every generator solve the rows that keying them by the tuple
    monomials of coefficients() gives (helpers.tuple_ansatz_terms)."""
    if kind == "brst":
        cplx, diff, gens = helpers.brst(name)
        ansatz = [(cplx.jalph, *helpers.cohomology_ansatz(cplx, j))
                  for j in gens]
        image = lambda A: {0: diff.apply_J(A)}
    else:
        ctx, gens = (helpers.susy if kind == "susy" else
                     helpers.classical)(name)
        image = helpers.membership_map(ctx)
        ansatz = []
        for j, w in gens.items():
            lead = ctx.star_index[(j, 0)]
            ansatz.append((ctx.alph, lead, w.weight, ansatz_monomials(
                ctx.alph, ctx.kept_indices, w.weight, ctx.alph.parities[lead],
                ctx.highe_indices)))
    for alph, lead, _weight, monos in ansatz:
        lead_poly = SuperPoly.variable(alph, lead)
        packed = _rows(wclassical.ansatz_terms(image, lead_poly, monos))
        assert packed == _rows(helpers.tuple_ansatz_terms(image, lead_poly,
                                                          monos)), lead
        assert sum(packed.values()) > len(monos)


def _recording_columns(monkeypatch):
    """The unknowns of every linear solve of solve_ansatz."""
    columns = []

    def recording(equations, unknowns):
        columns.append(unknowns)
        return solve_linear(equations, unknowns)

    monkeypatch.setattr(wclassical, "solve_linear", recording)
    return columns


def test_solve_on_a_hand_built_system(monkeypatch):
    """The ansatz x_u u + x_u' u' + x_u'' u'' completes a known part of
    degree 1: u' gets k^0, u'' gets k^1 and u, with fewer derivatives than
    the degree, no column. An inhomogeneous known part is inconsistent, u
    and u^2 on one condition are non-unique, and at a constant level every
    power is 0. A failed solve names the system's rows x columns."""
    alph = Alphabet(FLAVOR_DEL, ["u"], [0], [1])
    u, u1, u2 = ((((0, m), 1),) for m in range(3))
    one = GR_ONE
    columns = _recording_columns(monkeypatch)
    terms = [(None, "a", 0, 0, -2 * one), (None, "b", 1, 0, -3 * one),
             (u, "a", 0, 0, one), (u1, "a", 0, 0, one), (u2, "b", 0, 0, one)]
    got = wclassical.solve_ansatz(alph, [u, u1, u2], terms, "test", 1)
    assert got == SuperPoly(alph, {u1: Scalar.rational(2),
                                   u2: Scalar.term(1, 0, 3 * one)})
    assert columns == [[(u1, 0), (u2, 1)]]
    mixed = [(None, "a", 0, 0, -one), (None, "a", 1, 0, -one),
             (u, "a", 0, 0, one)]
    with pytest.raises(GeneratorError,
                       match=r"^no test: inconsistent \(2 x 1 system\)$"):
        wclassical.solve_ansatz(alph, [u], mixed, "test", 0)
    uu = (((0, 0), 2),)
    free = [(None, "a", 0, 0, -one), (u, "a", 0, 0, one), (uu, "a", 0, 0, one)]
    with pytest.raises(GeneratorError) as free_error:
        wclassical.solve_ansatz(alph, [u, uu], free, "test", 0)
    assert str(free_error.value).startswith(
        "non-unique test: underdetermined: free columns ")
    assert str(free_error.value).endswith(" (1 x 2 system)")
    del columns[:]
    constant = [(None, "a", 0, 0, -2 * one), (u, "a", 0, 0, one),
                (u1, "b", 0, 0, one)]
    got = wclassical.solve_ansatz(alph, [u, u1], constant, "test", None)
    assert got == SuperPoly(alph, {u: Scalar.rational(2)})
    assert columns == [[(u, 0), (u1, 0)]]


def test_solve_from_degree_zero_grows_to_the_generator(monkeypatch):
    """sl4's weight-4 generator uses k^3. Its lead has degree 0, so one
    solve gives every ansatz monomial M the column k^n(M), which grows
    from k^0 to k^3 with the derivative count, and yields the generator."""
    ctx, gens = helpers.classical("sl4-principal")
    (w,) = [w for w in gens.values() if w.weight == 4]
    assert helpers.top_k_power(w.value) == 3
    lead = ctx.star_index[(w.index, 0)]
    monos = ansatz_monomials(ctx.alph, ctx.kept_indices, w.weight,
                             ctx.alph.parities[lead], ctx.highe_indices)
    lead_poly = SuperPoly.variable(ctx.alph, lead)
    columns = _recording_columns(monkeypatch)
    got = wclassical.solve_ansatz(
        ctx.alph, monos,
        wclassical.ansatz_terms(helpers.membership_map(ctx), lead_poly, monos),
        "generator solution", 0)
    assert lead_poly + got == w.value
    derivatives = [(M, sum(m * e for (_t, m), e in M)) for M in monos]
    assert columns == [derivatives]
    assert {p for _M, p in derivatives} == {0, 1, 2, 3}


def test_solve_schedule_on_a_hand_built_system(monkeypatch):
    """On the ansatz x_u u + x_u' u' + x_u'' u'' the power of k of each
    column falls by one per degree of the known part, and a monomial drops
    out below 0; each degree makes one linear solve. The condition
    x_u(k) = k^4 is inconsistent at degree 0, where u gets k^0, and solved
    at degree -4, where u gets k^4."""
    alph = Alphabet(FLAVOR_DEL, ["u"], [0], [1])
    u, u1, u2 = ((((0, m), 1),) for m in range(3))
    one = GR_ONE
    own_rows = [(u, "a", 0, 0, one), (u1, "b", 0, 0, one),
                (u2, "c", 0, 0, one)]
    columns = _recording_columns(monkeypatch)
    for degree in range(4):
        got = wclassical.solve_ansatz(alph, [u, u1, u2], own_rows, "test",
                                      degree)
        assert got == SuperPoly(alph, {})
    assert columns == [[(u, 0), (u1, 1), (u2, 2)], [(u1, 0), (u2, 1)],
                       [(u2, 0)], []]
    needs_k4 = [(None, "a", 4, 0, -one), (u, "a", 0, 0, one)]
    del columns[:]
    with pytest.raises(GeneratorError,
                       match=r"^no test: inconsistent \(2 x 1 system\)$"):
        wclassical.solve_ansatz(alph, [u], needs_k4, "test", 0)
    got = wclassical.solve_ansatz(alph, [u], needs_k4, "test", -4)
    assert got == SuperPoly(alph, {u: Scalar.term(4, 0, one)})
    assert columns == [[(u, 0)], [(u, 4)]]


SOLVED = [(name, False) for name in CLASSICAL + ["sl4-principal"]] + [
    ("osp12", True), ("sl21", True)]


@pytest.mark.parametrize("name, susy", SOLVED + [
    ("sl32-principal", False), ("sl32-principal", True)])
def test_k_counts_as_a_derivative(name, susy):
    """At symbolic k every term of the affine table, of the W table by both
    routes and of every generator has a power of k equal to its power of
    lambda (chi) plus its derivative count. A generator of weight w tops
    out at k^floor(w - 1/2) in the even flavor and k^(2w - 1) in the SUSY
    one."""
    ctx, gens = (helpers.susy if susy else helpers.classical)(name)
    affine = (helpers.susy_affine if susy else helpers.affine)(name)[2]
    assert helpers.inhomogeneous_term(affine) is None
    assert helpers.inhomogeneous_term(ctx.reduced_table) is None
    for w in gens.values():
        assert helpers.inhomogeneous_term(w.value) is None, w.index
        top = 2 * w.weight - 1 if susy else (w.weight - HALF) // 1
        assert helpers.top_k_power(w.value) == top, w.weight
    for route in ("direct", "closed"):
        table = w_bracket_table(ctx, gens, route)
        assert table.entries
        assert helpers.inhomogeneous_term(table) is None, route


def test_homogeneity_oracle_names_a_mutated_term():
    """One term of one affine-table entry given an extra power of k is the
    term the oracle reports."""
    table = helpers.affine("sl3-principal")[2]
    key = sorted(table.entries)[5]
    entry = table.entries[key]
    n = min(entry.coeffs)
    mono, kp, cp, gr = next(entry.coeffs[n].coefficients())
    extra = SuperPoly.from_coefficients(table.alphabet,
                                        [(mono, kp + 1, cp, gr)])
    coeffs = dict(entry.coeffs)
    coeffs[n] = coeffs[n] + extra
    mutated = BracketTable(table.alphabet,
                           {**table.entries, key: LambdaPoly(table.alphabet,
                                                             coeffs)})
    assert helpers.inhomogeneous_term(mutated) == (key, n, mono, kp + 1, cp, gr)


@pytest.mark.parametrize("name, susy", SOLVED)
def test_symbolic_generators_at_half_equal_the_half_solve(name, susy):
    """The generators solved at symbolic k, with k set to 1/2, are those
    solved at k = 1/2, an independent linear system."""
    ctx, gens = (helpers.susy if susy else helpers.classical)(name)
    half = type(ctx)(helpers.algebra(name), k=Scalar.rational(HALF))
    solve = solve_all_susy_generators if susy else solve_all_generators
    for w in solve(half):
        assert helpers.at_level(gens[w.index].value, Fraction(1, 2)) == \
            w.value, w.index


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
        want = ctx.rho(ctx.bracket(a, b))
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


# -- the Miura map, an oracle for the W tables ----------------------------
# The classical Miura map (Kupershmidt-Wilson 1981; Drinfeld-Sokolov 1985)
# sends W(g, F) into the affine PVA of g_0 as an injective PVA
# homomorphism. On a grading with no half-integer grade it is the
# restriction of mu, which kills the chain variables of negative grade.
# So a W-table entry with every generator symbol j replaced by mu(w_j) is
# the master formula of mu(w_i) and mu(w_j) over the affine table: no
# reduction route enters that side.

def _miura_images(ctx, gens):
    """mu(w_j) for each generator: the variables of negative grade go to 0."""
    images = {t: SuperPoly.zero(ctx.alph) if gr < 0 else ctx.n_var(t)
              for t, gr in enumerate(ctx.gstar.gradings)}
    return {j: gens[j].value.substitute(images, ctx.alph)
            for j in range(ctx.db.count())}


def _miura_mismatches(ctx, gens, table):
    """The pairs (i, j) where the Miura image of the W-table entry differs
    from the bracket of mu(w_i) and mu(w_j) over ctx.table."""
    mu = _miura_images(ctx, gens)
    bad = []
    for i in mu:
        for j in mu:
            entry = table.entry(i, j)
            got = type(entry)(ctx.alph, {n: p.substitute(mu, ctx.alph)
                                         for n, p in entry.coeffs.items()})
            if got != ctx.flavor.master(mu[i], mu[j], ctx.table):
                bad.append((i, j))
    return bad


@pytest.mark.parametrize("name", CLASSICAL + ["sl4-principal"])
def test_w_table_matches_the_miura_map(name):
    """At symbolic k, the even W table of every catalog algebra and of the
    sl4-principal fixture (the benchmark's sl4 file) whose grading has no
    half-integer grade goes through mu entry by entry."""
    g = helpers.algebra(name)
    if any(gr.d != 1 for gr in g.gradings):
        pytest.skip("the Miura map of a grading with a half-integer grade "
                    "is not the projection mu")
    ctx, gens = helpers.classical(name)
    assert _miura_mismatches(ctx, gens, w_bracket_table(ctx, gens)) == []


def test_miura_map_reports_a_corrupted_entry():
    """k d(w_0) added to one entry of the sl3-principal W table, built
    through the constructor, is reported at exactly that pair."""
    ctx, gens = helpers.classical("sl3-principal")
    table = w_bracket_table(ctx, gens)
    last = ctx.db.count() - 1
    extra = LambdaPoly.of(SuperPoly.variable(ctx.gen_alph, 0, 1).scalar_mul(K))
    bad = type(table)(ctx.gen_alph, {
        **table.entries, (last, 0): table.entry(last, 0) + extra})
    assert _miura_mismatches(ctx, gens, bad) == [(last, 0)]


@pytest.mark.parametrize("build, shown", [
    (ReductionContext, "sl2 triple"),
    (SUSYReductionContext, "osp(1|2) data"),
    (brst.build_complex, "osp(1|2) data"),
    (brst.check_thm_5_9, "osp(1|2) data"),
    (dual_bases_F, "sl2 triple"),
    (dual_bases_f, "osp(1|2) data"),
], ids=["ReductionContext", "SUSYReductionContext", "build_complex",
        "check_thm_5_9", "dual_bases_F", "dual_bases_f"])
def test_missing_triple_is_an_algebra_error(build, shown):
    """sl2.json without its sl2 entry carries neither triple: building a
    context of either flavor, or the dual chain bases of either triple,
    raises the engine's AlgebraError, which names the algebra and the
    triple (an input error, exit 2, in the cli)."""
    with open(os.path.join(DATA_DIR, "sl2.json")) as fh:
        obj = json.load(fh)
    del obj["sl2"]
    g = algebra_from_obj(obj)
    assert (g.sl2, g.osp) == (None, None)
    with pytest.raises(AlgebraError) as exc:
        build(g)
    assert str(exc.value) == "algebra sl2 carries no %s" % shown


@pytest.mark.parametrize("name, susy", [("sl3-principal", False),
                                        ("osp12", True)])
def test_rename_memos_start_over_when_full(monkeypatch, name, susy):
    """The context's rho and symbol memos keep at most _MEMO_SIZE monomials
    per pair of alphabets, starting over when full, and rho and the symbol
    projection give after a start-over what a context whose memos never
    filled gives, on polynomials and on bracket values read whole."""
    from walgebras import superpoly
    make = SUSYReductionContext if susy else ReductionContext
    g = helpers.algebra(name)
    rng = random.Random(name)
    ref = make(g)
    polys = [random_superpoly(ref.alph, rng, max_factors=3, terms=4)
             for _ in range(12)]
    values = [ref.bracket(a, b) for a, b in zip(polys, polys[1:4])]
    want = [(ref.rho(p), ref.symbols(p, ref.gen_alph)) for p in polys]
    want_values = [ref.rho(v) for v in values]
    assert max(map(len, ref._rho_memos.values())) > 8
    monkeypatch.setattr(superpoly, "_MEMO_SIZE", 8)
    ctx = make(g)
    for _ in range(2):
        assert [(ctx.rho(p), ctx.symbols(p, ctx.gen_alph))
                for p in polys] == want
        assert [ctx.rho(v) for v in values] == want_values
        memos = list(ctx._rho_memos.values()) + list(ctx._symbol_memos.values())
        assert memos and all(len(m) <= 8 for m in memos)


# -- the row state of the W brackets ------------------------------------------

ROW_STATE = [("sl21", False), ("sl21", True), ("sl4-principal", False)]


def _solved_context(name, susy):
    """A fresh context at symbolic k and its solved generators; the
    sl4-principal algebra is read from the benchmark's file."""
    g = load_algebra(SL4_FILE) if name == "sl4-principal" else \
        helpers.algebra(name)
    ctx = (SUSYReductionContext if susy else ReductionContext)(g)
    return ctx, {w.index: w for w in solve_all_generators(ctx)}


ROUTES = {"direct": w_bracket_direct, "closed": w_bracket_closed}


@pytest.mark.parametrize("name, susy", ROW_STATE)
def test_row_state_serves_every_pair_in_any_order(name, susy):
    """Every pair on both routes, called on one context in a seeded
    shuffled order, so that the routes and rows interleave, equals the
    table of its route built on a context of its own."""
    ctx, gens = _solved_context(name, susy)
    n = ctx.db.count()
    calls = [(route, i, j) for route in ROUTES for i in range(n)
             for j in range(n)]
    random.Random(name).shuffle(calls)
    got = {call: ROUTES[call[0]](ctx, gens, *call[1:]) for call in calls}
    for route in ROUTES:
        fresh, fresh_gens = _solved_context(name, susy)
        want = w_bracket_table(fresh, fresh_gens, route)
        assert {(i, j): got[route, i, j] for i in range(n)
                for j in range(n)} == {(i, j): want.entry(i, j)
                                       for i in range(n) for j in range(n)}
    assert len(ctx._left_brackets) == len(ctx._closed_rows) == n


def _outcome(ctx, gens, i, j):
    try:
        return w_bracket_direct(ctx, gens, i, j)
    except GeneratorError as e:
        return "GeneratorError: %s" % e


@pytest.mark.parametrize("name, susy", ROW_STATE)
def test_row_state_reads_no_stale_operator(name, susy):
    """After the brackets of the solved generators, a generator whose value
    is corrupted (scaled, or plus a kept variable that is not in W) gives on
    that context, in its row and in its column, what it gives on a fresh
    context: no operator kept for the solved value is read for it. The
    operators kept stay at most one per generator."""
    ctx, gens = _solved_context(name, susy)
    n = ctx.db.count()
    w_bracket_table(ctx, gens)
    a = n - 1
    stray = SuperPoly.variable(ctx.alph, ctx.highe_indices[0])
    for value in (gens[a].value.scale(2), gens[a].value + stray):
        bad = {**gens, a: wclassical.WGenerator(a, value, gens[a].weight)}
        fresh, _ = _solved_context(name, susy)
        pairs = [(a, j) for j in range(n)] + [(i, a) for i in range(n)]
        got = [_outcome(ctx, bad, i, j) for i, j in pairs]
        assert got == [_outcome(fresh, bad, i, j) for i, j in pairs]
        assert got != [_outcome(fresh, gens, i, j) for i, j in pairs]
        assert len(ctx._left_brackets) <= n


@pytest.mark.parametrize("name, susy", ROW_STATE)
def test_row_columns_from_low_spin_to_high(name, susy):
    """A row whose columns are bracketed from the lowest spin up (the closed
    row is then built for a column that reads the fewest members) gives,
    on both routes, what the columns from the highest spin down give."""
    up, gens = _solved_context(name, susy)
    down, _ = _solved_context(name, susy)
    n = up.db.count()
    order = sorted(range(n), key=lambda b: (up.db.spins[b], b))
    assert up.db.spins[order[0]] < up.db.spins[order[-1]]
    for route, bracket in ROUTES.items():
        for a in range(n):
            low = [bracket(up, gens, a, b) for b in order]
            high = [bracket(down, gens, a, b) for b in reversed(order)]
            assert low == high[::-1], (route, a)


@pytest.mark.parametrize("susy", [False, True], ids=["lambda", "chi"])
def test_w_brackets_hash_no_value(monkeypatch, susy):
    """The pairwise direct brackets (every pair, twice) and the direct table
    find the operator of a row without hashing a polynomial or a bracket
    value."""
    from walgebras import superpoly
    ctx, gens = _solved_context("sl21", susy)
    n = ctx.db.count()

    def refuse(self):
        raise AssertionError("a value was hashed")

    monkeypatch.setattr(superpoly._Packed, "__hash__", refuse)
    for _ in range(2):
        for i in range(n):
            for j in range(n):
                w_bracket_direct(ctx, gens, i, j)
    w_bracket_table(ctx, gens)


@pytest.mark.parametrize("susy", [False, True], ids=["lambda", "chi"])
def test_threads_that_share_a_context_get_its_tables(susy):
    """Four threads that share one fresh context, switching every
    microsecond, together bracket every pair on both routes and each build
    the direct table; every value equals the one-thread table of a context
    of its own."""
    ref, ref_gens = _solved_context("sl21", susy)
    want = {route: w_bracket_table(ref, ref_gens, route) for route in ROUTES}
    ctx, gens = _solved_context("sl21", susy)
    n = ctx.db.count()
    calls = [(route, i, j) for i in range(n) for route in ROUTES
             for j in range(n)]
    barrier, got, tables, errors = threading.Barrier(4), {}, [], []

    def run(t):
        try:
            barrier.wait(timeout=60)
            for route, i, j in calls[t::4]:
                got[route, i, j] = ROUTES[route](ctx, gens, i, j)
            tables.append(w_bracket_table(ctx, gens))
        except Exception as e:   # reported below, with the thread's values
            errors.append(repr(e))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(t,)) for t in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    assert [c for c in calls
            if got.get(c) != want[c[0]].entry(*c[1:])] == []
    assert len(tables) == 4 and all(t == want["direct"] for t in tables)
