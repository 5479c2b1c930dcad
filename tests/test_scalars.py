import random
from fractions import Fraction
from math import gcd

import pytest

import helpers
from walgebras.scalars import (GRat, GR_ZERO, LinearSolveError, Scalar, _norm,
                               parse_coeff, solve_linear)


def rand_scalar(rng, with_c=False):
    s = Scalar.zero()
    for _ in range(rng.randint(0, 3)):
        g = GRat(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                 Fraction(rng.randint(-2, 2)))
        s = s + Scalar.term(rng.randint(0, 3), rng.randint(0, 2) if with_c else 0, g)
    return s


def test_ring_axioms_randomized():
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = (rand_scalar(rng, with_c=True) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero()


def test_zero_has_empty_support():
    rng = random.Random(1)
    for _ in range(50):
        a = rand_scalar(rng)
        assert not (a - a).terms
        assert all(v for v in a.terms.values())


def test_sub_equals_add_negated():
    half, i = Scalar.rational(Fraction(1, 2)), Scalar.imag()
    k2 = Scalar.k(2).scale(3)
    multi = half + k2 + Scalar.c() * i
    cases = [
        (half, Scalar.rational(Fraction(-1, 3))),      # single terms
        (multi, k2 + Scalar.c()),                      # multi-term
        (multi, half + k2 + Scalar.c() * i),           # cancels to zero
        (Scalar.k(), Scalar.c(2) * i),                 # distinct exponents
        (Scalar.zero(), multi),
        (multi, Scalar.zero()),
    ]
    rng = random.Random(11)
    cases += [(rand_scalar(rng, with_c=True), rand_scalar(rng, with_c=True))
              for _ in range(100)]
    for a, b in cases:
        before = (dict(a.terms), dict(b.terms))
        d = a - b
        assert d == a + (-b)
        assert all(d.terms.values())
        assert (dict(a.terms), dict(b.terms)) == before
    assert not (multi - (half + k2 + Scalar.c() * i)).terms
    assert (Scalar.k() - Scalar.c(2) * i).terms == {
        (1, 0): GRat(1), (0, 2): GRat(0, -1)}


def test_gaussian_arithmetic():
    i = Scalar.imag()
    assert i * i == Scalar.rational(-1)
    assert (GRat(1, 2) / GRat(0, 1)) == GRat(2, -1)


def test_render_and_parse():
    assert Scalar.zero().render() == "0"
    assert (Scalar.k(2).scale(Fraction(1, 2))).render() == "1/2*k^2"
    assert Scalar.imag().render() == "i"
    assert parse_coeff("-2/3") == GRat(Fraction(-2, 3))
    assert parse_coeff("i") == GRat(0, 1)
    assert parse_coeff("-2i") == GRat(0, -2)
    assert parse_coeff("(1/2)i") == GRat(0, Fraction(1, 2))


def test_obj_roundtrip():
    rng = random.Random(3)
    for _ in range(40):
        s = rand_scalar(rng, with_c=True)
        assert Scalar.from_obj(s.to_obj()) == s


def test_solver_against_rref():
    from walgebras.liealg import matrix_rank
    rng = random.Random(0)
    for _ in range(300):
        n = rng.randint(1, 6)
        m = rng.randint(1, 9)
        A = [[GRat(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
              for _ in range(n)] for _ in range(m)]
        x = [GRat(rng.randint(-3, 3)) for _ in range(n)]
        b = [sum((A[i][j] * x[j] for j in range(n)), GR_ZERO) for i in range(m)]
        eqs = [({j: A[i][j] for j in range(n) if A[i][j]}, b[i]) for i in range(m)]
        rank = matrix_rank(A)
        try:
            sol = solve_linear(eqs, list(range(n)))
            assert rank == n
            assert all(sum((A[i][j] * sol.get(j, GR_ZERO) for j in range(n)),
                           GR_ZERO) == b[i] for i in range(m))
        except LinearSolveError as e:
            assert rank < n, e


def _rand_grat(rng):
    return GRat(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                rng.randint(-1, 1))


def _random_system(rng, kind):
    """Sparse random equations over Q(i) in n unknowns that the reference
    solver classifies as `kind`: "solved" (unique), "inconsistent" or
    "underdetermined". The rows are rank random base rows and random
    combinations of them, the right-hand sides those of a random solution;
    an inconsistent system gets one more combination whose right-hand side
    is off by one."""
    while True:
        n = rng.randint(2, 7)
        rank = n if kind == "solved" else rng.randint(1, n - 1)
        base = [{c: _rand_grat(rng) for c in range(n) if rng.random() < 0.5}
                for _ in range(rank)]
        rows = [dict(b) for b in base]
        for _ in range(rng.randint(0, 3) + (kind == "inconsistent")):
            row = {}
            for b in base:
                if rng.random() < 0.6:
                    f = GRat(rng.randint(-3, 3))
                    for c, g in b.items():
                        row[c] = row.get(c, GR_ZERO) + f * g
            rows.append(row)
        x = [_rand_grat(rng) for _ in range(n)]
        eqs = [(row, sum((g * x[c] for c, g in row.items()), GR_ZERO))
               for row in rows]
        if kind == "inconsistent":
            eqs[-1] = (eqs[-1][0], eqs[-1][1] + GRat(1))
        unknowns = list(range(n))
        rng.shuffle(unknowns)
        if helpers.solve_outcome(helpers.gauss_jordan_solve, eqs, unknowns)[0] == kind:
            return eqs, unknowns


@pytest.mark.parametrize("kind", ["solved", "inconsistent", "underdetermined"])
def test_solver_matches_gauss_jordan(kind):
    """The sparse solver gives the Gauss-Jordan reference's solution, or
    its error reason and message, whatever the order of the rows."""
    rng = random.Random(13)
    for _ in range(150):
        eqs, unknowns = _random_system(rng, kind)
        want = helpers.solve_outcome(helpers.gauss_jordan_solve, eqs, unknowns)
        for _ in range(4):
            rng.shuffle(eqs)
            assert helpers.solve_outcome(solve_linear, eqs, unknowns) == want
            assert helpers.solve_outcome(helpers.gauss_jordan_solve, eqs, unknowns) == want


def test_solver_inconsistent():
    eqs = [({0: GRat(1)}, GRat(1)), ({0: GRat(1)}, GRat(2))]
    with pytest.raises(LinearSolveError, match="inconsistent") as err:
        solve_linear(eqs, [0])
    assert err.value.reason == "inconsistent"
    eqs = [({0: GRat(1), 1: GRat(1)}, GRat(1))]
    with pytest.raises(LinearSolveError, match="underdetermined") as err:
        solve_linear(eqs, [0, 1])
    assert err.value.reason == "underdetermined"


# An independent model of Q(i): a pair (re, im) of Fractions.

def model_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def model_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)


def model_str(x):
    def imag(f):
        if f in (1, -1):
            return "i" if f == 1 else "-i"
        return ("%si" if f.denominator == 1 else "(%s)i") % f
    re, im = x
    if not im:
        return str(re)
    if not re:
        return imag(im)
    # a fractional negative imaginary part is bracketed, "(-1/2)i", and
    # then joined with "+"
    s = imag(im)
    return str(re) + (s if s.startswith("-") else "+" + s)


def rand_part(rng):
    """A Fraction, often 0 or an integer, over shared small denominators,
    passed to GRat as an int, a Fraction or a non-reduced 'p/q' string."""
    kind = rng.random()
    if kind < 0.2:
        value = 0
    elif kind < 0.45:
        value = rng.randint(-9, 9)
    elif kind < 0.9:
        value = Fraction(rng.randint(-30, 30), rng.choice((1, 2, 3, 4, 6, 12)))
    else:
        value = Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** 6))
    f = Fraction(value)
    if rng.random() < 0.3:
        t = rng.randint(1, 5)
        return f, "%d/%d" % (f.numerator * t, f.denominator * t)
    return f, value


def rand_grat(rng):
    (re, re_in), (im, im_in) = rand_part(rng), rand_part(rng)
    return GRat(re_in, im_in), (re, im)


def assert_normal(g):
    assert type(g.a) is int and type(g.b) is int and type(g.d) is int
    assert g.d > 0
    assert gcd(g.a, g.b, g.d) == 1
    if not g.a and not g.b:
        assert (g.a, g.b, g.d) == (0, 0, 1)


def assert_models(g, x):
    assert_normal(g)
    assert (g.re, g.im) == x
    assert type(g.re) is Fraction and type(g.im) is Fraction
    assert bool(g) == bool(x[0] or x[1])
    assert str(g) == repr(g) == model_str(x)
    # equal values have equal fields, hence equal hashes
    twin = GRat(*x)
    assert g == twin and hash(g) == hash(twin)
    assert (g.a, g.b, g.d) == (twin.a, twin.b, twin.d)


def test_grat_against_pair_model():
    rng = random.Random(20)
    for _ in range(3000):
        x, mx = rand_grat(rng)
        y, my = rand_grat(rng)
        assert_models(x, mx)
        assert_models(-x, (-mx[0], -mx[1]))
        assert_models(x + y, (mx[0] + my[0], mx[1] + my[1]))
        assert_models(x - y, (mx[0] - my[0], mx[1] - my[1]))
        assert_models(x * y, model_mul(mx, my))
        assert (x == y) == (mx == my)
        assert (x != y) == (mx != my)
        if x == y:
            assert hash(x) == hash(y)
        if my[0] or my[1]:
            assert_models(x / y, model_div(mx, my))
        else:
            with pytest.raises(ZeroDivisionError):
                x / y
        n = rng.randint(-12, 12)
        scaled = Scalar.term(0, 0, x).scale(n)
        assert scaled == Scalar.term(0, 0, GRat(mx[0] * n, mx[1] * n))
        assert_normal(scaled.constant_part())
        obj = Scalar.term(1, 0, x).to_obj()
        assert obj == ([[1, 0, str(mx[0]), str(mx[1])]] if x else [])
        assert Scalar.from_obj(obj) == Scalar.term(1, 0, x)


def test_grat_normaliser_on_raw_fields():
    rng = random.Random(21)
    for _ in range(3000):
        t = rng.choice((1, 2, 6, 35))
        a, b = rng.randint(-40, 40) * t, rng.randint(-40, 40) * t
        d = rng.choice((-1, 1)) * rng.randint(1, 30) * t
        g = _norm(a, b, d)
        assert_normal(g)
        assert (g.re, g.im) == (Fraction(a, d), Fraction(b, d))
    zero = _norm(0, 0, -7)
    assert (zero.a, zero.b, zero.d) == (0, 0, 1)


def test_grat_zero_and_division_by_zero():
    for zero in (GRat(), GRat(0, 0), GRat("0/5", Fraction(0)), GR_ZERO,
                 GRat(3) - GRat(3), GRat(0, 2) * GRat(0)):
        assert (zero.a, zero.b, zero.d) == (0, 0, 1)
        assert not zero and zero == GR_ZERO and hash(zero) == hash(GR_ZERO)
        for x in (GRat(1), GRat(0, -1), GRat(Fraction(2, 3), 5)):
            with pytest.raises(ZeroDivisionError):
                x / zero
