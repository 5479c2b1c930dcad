import random
from fractions import Fraction

import pytest

from walgebras.scalars import (GRat, GR_ZERO, LinearSolveError, Scalar,
                               ScalarError, parse_coeff, solve_linear)


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


def test_gaussian_arithmetic():
    i = Scalar.imag()
    assert i * i == Scalar.rational(-1)
    assert (GRat(1, 2) / GRat(0, 1)) == GRat(2, -1)


def test_division_rules():
    k = Scalar.k()
    half = Scalar.rational(Fraction(1, 2))
    assert (k * half).divide_constant(half) == k
    with pytest.raises(ScalarError):
        k.divide_constant(k)
    with pytest.raises(ZeroDivisionError):
        k.divide_constant(Scalar.zero())


def test_substitution():
    s = Scalar.k(2) + Scalar.c() * Scalar.rational(3)
    assert s.substitute(k_value=GRat(2)) == Scalar.rational(4) + Scalar.c().scale(3)
    assert s.substitute(k_value=GRat(0), c_value=GRat(1)) == Scalar.rational(3)


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


def test_solver_inconsistent():
    eqs = [({0: GRat(1)}, GRat(1)), ({0: GRat(1)}, GRat(2))]
    with pytest.raises(LinearSolveError, match="inconsistent") as err:
        solve_linear(eqs, [0])
    assert err.value.reason == "inconsistent"
    eqs = [({0: GRat(1), 1: GRat(1)}, GRat(1))]
    with pytest.raises(LinearSolveError, match="underdetermined") as err:
        solve_linear(eqs, [0, 1])
    assert err.value.reason == "underdetermined"
