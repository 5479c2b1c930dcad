import random
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
from walgebras.spva import susy_bracket_oracle
from walgebras.superpoly import SuperPoly, random_superpoly

ALL = sorted(CATALOG)
K = Scalar.k()


def test_affine_sl2_entries():
    g, alph, t = helpers.affine("sl2")
    E, H, F = (SuperPoly.variable(alph, i) for i in range(3))
    assert t.entry(0, 2) == LambdaPoly(alph, {0: H, 1: SuperPoly.const(alph, K)})
    assert t.entry(1, 1) == LambdaPoly(alph, {1: SuperPoly.const(alph, K.scale(2))})
    assert t.entry(2, 2).is_zero()


def test_master_examples_sl2():
    g, alph, t = helpers.affine("sl2")
    E, H, F = (SuperPoly.variable(alph, i) for i in range(3))
    dH = SuperPoly.variable(alph, 1, 1)
    assert master_bracket(H * H, H, t) == LambdaPoly(
        alph, {1: H.scalar_mul(K.scale(4)), 0: dH.scalar_mul(K.scale(4))})
    assert master_bracket(F, H * H, t) == LambdaPoly.of((H * F).scale(4))
    assert master_bracket(E, SuperPoly.one(alph), t).is_zero()


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
    t.set(0, 2, LambdaPoly(alph, {0: H, 1: SuperPoly.const(alph, K.scale(2))}))
    bad = check_skew(t)
    assert ("E", "F") in bad
    g, alph, t2 = helpers.affine("sl2")
    t2.set(1, 0, t2.entry(1, 0).scalar_mul(Scalar.rational(3)))
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
    assert F.conformal_weight() == 2
    assert H.conformal_weight() == 1
    assert E.conformal_weight() == 0
    assert H.deriv().conformal_weight() == 2
    w = F + SuperPoly.variable(alph, 1, 1).scalar_mul(K.scale(Fraction(1, 2))) \
        + (H * H).scale(Fraction(1, 4))
    assert w.conformal_weight() == 2


def test_lambda_poly_machinery():
    g, alph, t = helpers.affine("sl2")
    H = SuperPoly.variable(alph, 1)
    lp = LambdaPoly(alph, {0: H, 2: H * H})
    # (-lambda-del)-substitution twice returns the original
    assert lp.flip().flip() == lp
    obj = lp.to_obj()
    assert LambdaPoly.from_obj(alph, obj) == lp
    assert BracketTable.from_obj(t.to_obj()).entries == t.entries


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
