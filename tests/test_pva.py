import copy
import pickle
import random
import threading
from fractions import Fraction

import pytest

import helpers
from walgebras.catalog import CATALOG
from walgebras.pva import (BracketTable, LambdaPoly, LeftBracket,
                           bracket_oracle, check_jacobi, check_skew,
                           jacobi_defect, leibniz_defects, master_bracket,
                           random_property_suite, sesquilinearity_defects,
                           skew_defect)
from walgebras.scalars import Scalar
from walgebras.spva import susy_bracket_oracle, susy_master_bracket
from walgebras.superpoly import SuperPoly, random_superpoly

ALL = sorted(CATALOG)
K = Scalar.k()


def test_affine_sl2_entries():
    g, alph, t = helpers.affine("sl2")
    E, H, F = (SuperPoly.variable(alph, i) for i in range(3))
    assert t.entry(0, 2) == LambdaPoly(alph, {0: H, 1: SuperPoly.const(alph, K)})
    assert t.entry(1, 1) == LambdaPoly(alph, {1: SuperPoly.const(alph, K.scale(2))})
    assert not t.entry(2, 2)


def test_master_examples_sl2():
    g, alph, t = helpers.affine("sl2")
    E, H, F = (SuperPoly.variable(alph, i) for i in range(3))
    dH = SuperPoly.variable(alph, 1, 1)
    assert master_bracket(H * H, H, t) == LambdaPoly(
        alph, {1: H.scalar_mul(K.scale(4)), 0: dH.scalar_mul(K.scale(4))})
    assert master_bracket(F, H * H, t) == LambdaPoly.of((H * F).scale(4))
    assert not master_bracket(E, SuperPoly.one(alph), t)


@pytest.mark.parametrize("name", ALL)
def test_master_reproduces_table(name):
    g, alph, t = helpers.affine(name)
    for i in range(len(alph)):
        for j in range(len(alph)):
            vi, vj = SuperPoly.variable(alph, i), SuperPoly.variable(alph, j)
            assert master_bracket(vi, vj, t) == t.entry(i, j)


@pytest.mark.parametrize("name", ALL)
def test_affine_skew_jacobi(name):
    g, alph, t = helpers.affine(name)
    assert check_skew(t) == []
    assert check_jacobi(t) == []


def test_corrupted_table_detected():
    g, alph, t = helpers.affine("sl2")
    H = SuperPoly.variable(alph, 1)
    bad = check_skew(BracketTable(alph, {**t.entries, (0, 2): LambdaPoly(
        alph, {0: H, 1: SuperPoly.const(alph, K.scale(2))})}))
    assert ("E", "F") in bad
    t2 = BracketTable(alph, {**t.entries, (1, 0): t.entry(1, 0).scalar_mul(
        Scalar.rational(3))})
    assert check_jacobi(t2) != []


@pytest.mark.parametrize("name", ["sl2", "sl3-minimal", "osp12"])
def test_randomized_suite(name):
    g, alph, t = helpers.affine(name)
    assert random_property_suite(t, seed=2024, rounds=3) == []


@pytest.mark.parametrize("name", ["sl3-minimal", "osp12", "sl21"])
def test_master_equals_axioms_oracle(name):
    g, alph, t = helpers.affine(name)
    rng = random.Random(77)
    for _ in range(5):
        a = random_superpoly(alph, rng, terms=2)
        b = random_superpoly(alph, rng, terms=2)
        assert master_bracket(a, b, t) == bracket_oracle(a, b, t)


@pytest.mark.parametrize("name, susy", [("sl21", False), ("osp12", True),
                                        ("sl21", True)])
def test_left_bracket_reused_across_right_arguments(name, susy):
    """One LeftBracket applied in turn to even, odd, mixed-parity and zero
    right arguments, and to the first again, gives each time what a fresh
    master formula and the axioms oracle give: nothing kept for one
    argument's parity, generator or n mod 2 leaks into the next."""
    g, alph, t = (helpers.susy_affine if susy else helpers.affine)(name)
    rng = random.Random(19)

    def mixed():
        while True:
            p = random_superpoly(alph, rng, terms=4)
            if p.parity_part(0) and p.parity_part(1):
                return p

    f, b, c = mixed(), mixed(), mixed()
    # every generator and its first derivative: each table entry is read
    line = sum((SuperPoly.variable(alph, j, n) for j in range(len(alph))
                for n in (0, 1)), SuperPoly.zero(alph))
    rights = [b.parity_part(0), b.parity_part(1), b, SuperPoly.zero(alph),
              c.parity_part(1), line.parity_part(0), c, line,
              b.parity_part(0)]
    # the right arguments reach odd derivative orders (nu = 1 for chi)
    assert any(n % 2 for r in rights for _p, grad in r.parity_gradients()
               for (_j, n), _d in grad)
    bracket = LeftBracket(f, t)
    for r in rights:
        got = bracket(r)
        assert got == master_bracket(f, r, t)
        assert got == bracket_oracle(f, r, t)
    assert not bracket(SuperPoly.zero(alph))


@pytest.mark.parametrize("name, susy", [("sl21", False), ("osp12", True),
                                        ("sl21", True)])
def test_left_bracket_at_zero_equals_oracle(name, susy):
    """LeftBracket.at_zero is the x^0 coefficient of the axioms oracle's
    bracket, for even, odd, mixed-parity, constant and zero arguments on
    either side, with one operator per left argument serving every right
    argument and asked for the whole bracket in between."""
    g, alph, t = (helpers.susy_affine if susy else helpers.affine)(name)
    oracle = susy_bracket_oracle if susy else bracket_oracle
    rng = random.Random(23)

    def mixed():
        while True:
            p = random_superpoly(alph, rng, terms=4)
            if p.parity_part(0) and p.parity_part(1):
                return p

    f, b, c = mixed(), mixed(), mixed()
    const = SuperPoly.const(alph, K + Scalar.one())
    zero = SuperPoly.zero(alph)
    # every generator up to its second derivative: odd and even n >= 1
    line = sum((SuperPoly.variable(alph, j, n) for j in range(len(alph))
                for n in (0, 1, 2)), zero)
    lefts = [f, f.parity_part(0), f.parity_part(1), line, const, zero]
    rights = [b.parity_part(0), b.parity_part(1), b, zero, const,
              c.parity_part(1), line.parity_part(0), c, line, b.parity_part(0)]
    nonzero = 0
    for left in lefts:
        bracket = LeftBracket(left, t)
        for n, r in enumerate(rights):
            want = oracle(left, r, t).get(0)
            if n % 2:
                assert bracket(r).get(0) == want
            assert bracket.at_zero(r) == want
            nonzero += bool(want)
    assert nonzero >= 10


def test_conformal_weights_sl2():
    g, alph, t = helpers.affine("sl2")
    E, H, F = (SuperPoly.variable(alph, i) for i in range(3))
    assert helpers.conformal_weight(F) == 2
    assert helpers.conformal_weight(H) == 1
    assert helpers.conformal_weight(E) == 0
    assert helpers.conformal_weight(H.deriv()) == 2
    w = F + SuperPoly.variable(alph, 1, 1).scalar_mul(K.scale(Fraction(1, 2))) \
        + (H * H).scale(Fraction(1, 4))
    assert helpers.conformal_weight(w) == 2


def test_lambda_poly_machinery():
    g, alph, t = helpers.affine("sl2")
    H = SuperPoly.variable(alph, 1)
    lp = LambdaPoly(alph, {0: H, 2: H * H})
    # (-lambda-del)-substitution twice returns the original
    assert lp.flip().flip() == lp
    obj = lp.to_obj()
    assert LambdaPoly.from_obj(alph, obj) == lp
    assert BracketTable.from_obj(t.to_obj()).entries == t.entries


@pytest.mark.parametrize("susy", [False, True], ids=["lambda", "chi"])
def test_tables_are_fixed_values(susy):
    """A table keeps the entries it was built with: copies and pickles
    are equal tables of the same class, item assignment on `entries`
    raises TypeError, and there is no mutator."""
    g, alph, t = (helpers.susy_affine if susy else helpers.affine)("osp12")
    for other in (copy.copy(t), copy.deepcopy(t),
                  pickle.loads(pickle.dumps(t))):
        assert type(other) is type(t) and other is not t
        assert other == t and other.entries == t.entries
    key = min(t.entries)
    tripled = t.entries[key].scalar_mul(Scalar.rational(3))
    assert type(t)(alph, {**t.entries, key: tripled}) != t
    with pytest.raises(TypeError):
        t.entries[key] = tripled
    assert not hasattr(t, "set")


def _contents(poly):
    """poly's terms down to the term dicts of its Scalars."""
    return {m: dict(c.terms) for m, c in poly.terms.items()}


def _snapshot(polys, table):
    """The contents of polys, of their memoized gradients and of every
    table entry."""
    return ([_contents(p) for p in polys],
            [[(pp, [(v, _contents(d)) for v, d in grad])
              for pp, grad in p.parity_gradients()] for p in polys],
            {key: {n: _contents(p) for n, p in v.coeffs.items()}
             for key, v in table.entries.items()})


@pytest.mark.parametrize("name, susy", [("sl2", False), ("sl3-minimal", False),
                                        ("osp12", True), ("sl21", True)])
def test_defects_leave_inputs_unchanged(name, susy):
    """The bracket-value accumulators add into private dicts only: the
    polynomials given to them, the table entries and the values handed out
    keep their contents, and every value handed out holds SuperPolys."""
    # the shared checks read the calculus from the table, lambda or chi
    g, alph, t = (helpers.susy_affine if susy else helpers.affine)(name)
    rng = random.Random(41)
    for _ in range(3):
        a, b, c = (random_superpoly(alph, rng) for _ in range(3))
        before = _snapshot((a, b, c), t)
        bc = master_bracket(b, c, t)
        bc_before = {n: _contents(p) for n, p in bc.coeffs.items()}
        jac = jacobi_defect(a, b, c, t)
        right, left = leibniz_defects(a, b, c, t)
        values = [right, left, skew_defect(a, b, t),
                  bc - master_bracket(b, c, t),
                  master_bracket(a, b, t) - bracket_oracle(a, b, t)]
        values += sesquilinearity_defects(a, b, t)
        assert _snapshot((a, b, c), t) == before
        assert {n: _contents(p) for n, p in bc.coeffs.items()} == bc_before
        assert master_bracket(b, c, t) == bc
        assert not jac and not any(values)
        for v in values + [jac, bc]:
            assert all(type(p) is SuperPoly for p in v.coeffs.values())


@pytest.mark.parametrize("name, susy", [("sl21", False), ("sl21", True)])
def test_evaluators_take_an_operator_for_the_left_argument(name, susy):
    """The master formulas take a LeftBracket over the same table in place
    of the left polynomial and give its bracket; the oracles read its
    polynomial; an operator over another table is refused."""
    g, alph, t = (helpers.susy_affine if susy else helpers.affine)(name)
    master, oracle = ((susy_master_bracket, susy_bracket_oracle) if susy
                      else (master_bracket, bracket_oracle))
    rng = random.Random(5)
    a, b, c = (random_superpoly(alph, rng, terms=2, max_factors=2)
               for _ in range(3))
    left = LeftBracket(a, t)
    for right in (b, c):
        assert master(left, right, t) == master(a, right, t)
        assert oracle(left, right, t) == oracle(a, right, t)
    other = (helpers.susy_affine if susy else helpers.affine)(name)[2]
    with pytest.raises(ValueError):
        master(left, b, other)


@pytest.mark.parametrize("zero", [False, True], ids=["powers", "zeros"])
def test_shared_operator_records_each_power_once(monkeypatch, zero):
    """Two threads that extend one operator's (x+d)-powers of a sum B (or
    the d-powers of its x^0 coefficient, for at_zero) at once both store
    the next power at its own index: patched to meet at a barrier before
    storing, they leave the list [B, (x+d)B, ...] that one thread leaves,
    and the next power read is a fresh operator's."""
    g, alph, t = helpers.affine("sl2")
    u0, u1, u2 = (SuperPoly.variable(alph, i) for i in range(3))
    du2, ddu2 = SuperPoly.variable(alph, 2, 1), SuperPoly.variable(alph, 2, 2)
    op = LeftBracket(u0 * u1, t)
    call = op.at_zero if zero else op
    call(u2)
    du2.parity_gradients()   # its partials are read before the race
    cls, name = (SuperPoly, "deriv") if zero else (LambdaPoly, "apply_plus_d")
    step = getattr(cls, name)
    barrier = threading.Barrier(2)
    met = set()

    def meeting(self, *args):
        out = step(self, *args)
        me = threading.get_ident()
        if me not in met:   # the first step of each thread waits
            met.add(me)
            barrier.wait(timeout=60)
        return out

    monkeypatch.setattr(cls, name, meeting)
    errors = []

    def run():
        try:
            call(du2)
        except Exception as e:   # reported below, in the main thread
            errors.append(e)

    threads = [threading.Thread(target=run) for _ in range(2)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=120)
    monkeypatch.undo()
    assert errors == [] and not any(th.is_alive() for th in threads)
    assert len(met) == 2
    for powers, zeros in op._sums.values():
        memo = zeros if zero else powers
        assert memo and all(memo[p] == step(memo[p - 1])
                            for p in range(1, len(memo)))
    fresh = LeftBracket(u0 * u1, t)
    assert call(ddu2) == (fresh.at_zero if zero else fresh)(ddu2)


# -- the shared-operator checks against the fresh-operator reference --------

FLAVORED = [("sl2", False), ("osp12", False), ("sl21", False),
            ("osp12", True), ("sl21", True)]


def _flavored_table(name, susy, corrupted):
    """A lambda (or chi) affine table, with one entry tripled if corrupted;
    the entry is the first one that pairs an odd generator, if any."""
    g, alph, t = (helpers.susy_affine if susy else helpers.affine)(name)
    keys = sorted(t.entries)
    i, j = next((k for k in keys if alph.parities[k[0]] or alph.parities[k[1]]),
                keys[0])
    if corrupted:
        t = type(t)(alph, {**t.entries,
                           (i, j): t.entry(i, j).scalar_mul(Scalar.rational(3))})
    return alph, t, (i, j)


def _axiom_inputs(alph, rng, i, j):
    """Mixed-parity, one-parity and zero inputs; the corrupted entry's
    generators enter the first two."""
    drawn = [random_superpoly(alph, rng, terms=3, max_factors=2)
             for _ in range(40)]
    mixed = [p for p in drawn if p.parity() is None][:2]
    single = [p for p in drawn if p and p.parity() is not None][:2]
    vi, vj = SuperPoly.variable(alph, i), SuperPoly.variable(alph, j, 1)
    if any(alph.parities):
        assert len(mixed) == 2 and (vi + mixed[0]).parity() is None
    else:
        mixed = single
    assert len(single) == 2
    zero = SuperPoly.zero(alph)
    m0, m1, s0, s1 = vi + mixed[0], vj + mixed[1], single[0], single[1]
    return [(m0, m1, s0), (m1, m0, m0), (s0, m0, m1), (s1, s0, m0),
            (m0, s1, s1), (zero, m0, m1), (m0, zero, s0), (m1, s0, zero),
            (vi, vj, m0)]


@pytest.mark.parametrize("corrupted", [False, True], ids=["valid", "corrupted"])
@pytest.mark.parametrize("name, susy", FLAVORED,
                         ids=["%s-%s" % (n, "chi" if s else "lambda")
                              for n, s in FLAVORED])
def test_checks_equal_fresh_operator_reference(name, susy, corrupted):
    """The four defect values, through operators shared inside a call and
    the folded Jacobi signs, equal the reference that brackets term by term
    with a fresh operator, on mixed-parity, one-parity and zero inputs."""
    alph, t, (i, j) = _flavored_table(name, susy, corrupted)
    rng = random.Random("%s:%d:%d" % (name, susy, corrupted))
    nonzero = 0
    for a, b, c in _axiom_inputs(alph, rng, i, j):
        skew = skew_defect(a, b, t)
        jac = jacobi_defect(a, b, c, t)
        leib = leibniz_defects(a, b, c, t)
        sesq = sesquilinearity_defects(a, b, t)
        assert skew == helpers.reference_skew_defect(a, b, t)
        assert jac.coeffs == helpers.reference_jacobi_defect(a, b, c, t).coeffs
        assert leib == helpers.reference_leibniz_defects(a, b, c, t)
        assert sesq == helpers.reference_sesquilinearity_defects(a, b, t)
        nonzero += bool(skew) + bool(jac) + any(leib) + any(sesq)
    assert bool(nonzero) == corrupted


@pytest.mark.parametrize("name, susy", FLAVORED,
                         ids=["%s-%s" % (n, "chi" if s else "lambda")
                              for n, s in FLAVORED])
def test_checks_report_the_reference_pairs_and_triples(name, susy):
    """On a table with one corrupted entry, check_skew and check_jacobi
    report the pairs and triples of the fresh-operator reference."""
    alph, t, _ij = _flavored_table(name, susy, True)
    skew = check_skew(t)
    jac = check_jacobi(t)
    assert skew and jac
    assert skew == helpers.reference_check_skew(t)
    assert jac == helpers.reference_check_jacobi(t)
