import copy
import gc
import itertools
import os
import pickle
import random
import subprocess
import sys
import threading
from fractions import Fraction
from math import gcd

import pytest

import helpers
from walgebras.scalars import GRat, Scalar
from walgebras.superpoly import (Alphabet, ExponentOverflowError, FLAVOR_D,
                                 FLAVOR_DEL, FlavorError, SuperPoly,
                                 enumerate_monomials, random_superpoly)
from walgebras.pva import LambdaPoly

AFF = Alphabet(FLAVOR_DEL, ["E", "H", "F"], [0, 0, 0], [0, 1, 2])
SUS = Alphabet(FLAVOR_D, ["x", "y", "z"], [1, 0, 1],
               [Fraction(1, 2), Fraction(1, 2), 1])


def var(alph, i, m=0):
    return SuperPoly.variable(alph, i, m)


def variables(p):
    """The variables that occur in p, read from its terms."""
    return sorted({v for mono in p.terms for v, _e in mono})


def test_odd_square_is_zero():
    x = var(SUS, 0)
    assert not x * x
    Dy = var(SUS, 1, 1)  # D of an even generator is odd
    assert not Dy * Dy


def test_supercommutativity_signs():
    x, z = var(SUS, 0), var(SUS, 2)
    assert x * z == -(z * x)
    y = var(SUS, 1)
    assert x * y == y * x


def test_ring_axioms_randomized():
    rng = random.Random(11)
    for alph in (AFF, SUS):
        for _ in range(40):
            a = random_superpoly(alph, rng, terms=2)
            b = random_superpoly(alph, rng, terms=2)
            c = random_superpoly(alph, rng, terms=2)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            # supercommutativity on parity parts
            for pa in (0, 1):
                for pb in (0, 1):
                    ah, bh = a.parity_part(pa), b.parity_part(pb)
                    sgn = -1 if pa * pb else 1
                    assert ah * bh == (bh * ah).scale(sgn)


def test_del_examples():
    H, F = var(AFF, 1), var(AFF, 2)
    dH, dF = var(AFF, 1, 1), var(AFF, 2, 1)
    assert (H * H).deriv() == H.scale(2) * dH
    assert not SuperPoly.one(AFF).deriv()
    assert (F * dH).deriv() == dF * dH + F * var(AFF, 1, 2)


def test_derivation_property_randomized():
    rng = random.Random(5)
    deriv = SuperPoly.deriv
    for alph in (AFF, SUS):
        for _ in range(40):
            a = random_superpoly(alph, rng, terms=2)
            b = random_superpoly(alph, rng, terms=2)
            lhs = deriv(a * b)
            rhs = deriv(a) * b
            if alph.flavor == FLAVOR_D:
                for pa in (0, 1):
                    ah = a.parity_part(pa)
                    term = ah * deriv(b)
                    rhs = rhs + (term if pa == 0 else -term)
            else:
                rhs = rhs + a * deriv(b)
            assert lhs == rhs


MODEL_ALPHABETS = [Alphabet(FLAVOR_DEL, ["u", "v", "w"], [0, 1, 0]),
                   Alphabet(FLAVOR_D, ["u", "v"], [1, 0])]
# (alphabet, gaussian): coefficients in Q[k, c] over {1, 2}, or in
# Q(i)[k, c] over 1..6 (helpers.random_scalar)
MODEL_CASES = [pytest.param(MODEL_ALPHABETS[0], False, id="del"),
               pytest.param(MODEL_ALPHABETS[1], False, id="D"),
               pytest.param(MODEL_ALPHABETS[0], True, id="del-gaussian"),
               pytest.param(MODEL_ALPHABETS[1], True, id="D-gaussian")]


def _imaginary(p):
    """Whether some coefficient of p has an imaginary part."""
    return any(g.b for _m, _kp, _cp, g in p.coefficients())


def _lcm_aligned(a, b):
    """Whether neither denominator of a and b divides the other, so that
    their sum is aligned by a true lcm."""
    return a._den % b._den and b._den % a._den


def _powers(p):
    """The (k power, c power) pairs in p, and the number of monomials whose
    coefficient has more than one term."""
    pairs = {(kp, cp) for _m, kp, cp, _g in p.coefficients()}
    return pairs, sum(len(c.terms) > 1 for c in p.terms.values())


@pytest.mark.parametrize("alph, gaussian", MODEL_CASES)
def test_kernel_equals_factor_list_model(alph, gaussian):
    """Products, the derivation, partials, gradients and parities against
    the factor-list model of tests/helpers.py on seeded inputs with
    repeated and neighbouring variables, so that the derivation's merge and
    vanish paths run, and with coefficients in Q[k, c] of one and two
    terms, so that the (k power, c power) bookkeeping runs. The gaussian
    cases draw coefficients in Q(i)[k, c] over denominators 1..6, so that
    products meet i*i = -1 (and so do the derivatives and partials of such
    products), and sums and differences align denominators by their lcm."""
    rng = random.Random(23)
    merged = vanished = multi = squares = aligned = 0
    pairs = set()
    for _ in range(60):
        a = helpers.random_model_poly(alph, rng, gaussian=gaussian)
        b = helpers.random_model_poly(alph, rng, gaussian=gaussian)
        ab = a * b
        assert ab == helpers.model_mul(a, b)
        if gaussian:
            assert a + b == helpers.model_add(a, b)
            assert a - b == helpers.model_add(a, b, -1)
            squares += _imaginary(a) and _imaginary(b)
            aligned += bool(_lcm_aligned(a, b))
        for p in (a, ab):
            dp = p.deriv()
            assert dp == helpers.model_deriv(p)
            assert dp.deriv() == helpers.model_deriv(dp)
            assert p.parity() == helpers.model_parity(p)
            for q in (0, 1):
                assert p.parity_part(q) == helpers.model_parity_part(p, q)
            want = {v: helpers.model_partial(p, v) for v in variables(p)}
            assert p.gradient() == {v: d for v, d in want.items() if d}
            for v, d in want.items():
                assert p.partial(v) == d
            found, n = _powers(p)
            pairs |= found
            multi += n
            for mono in p.terms:
                for (v, _e), (w, _f) in zip(mono, mono[1:]):
                    if w == (v[0], v[1] + 1):
                        if helpers.model_var_parity(alph, w):
                            vanished += 1
                        else:
                            merged += 1
    assert merged and vanished and multi
    assert {(0, 0), (2, 2), (4, 4)} <= pairs
    if gaussian:
        assert squares >= 20 and aligned >= 10


@pytest.mark.parametrize("alph, gaussian", MODEL_CASES)
def test_substitute_equals_model(alph, gaussian):
    """substitute against the model on seeded polynomials and images with
    coefficients in Q[k, c], or in Q(i)[k, c] over denominators 1..6 (the
    images' derivatives and the products of a coefficient with the images
    then meet i*i = -1, and the terms of the result come over different
    denominators); the image of each generator is homogeneous of its
    parity, and its derivatives are the model's."""
    rng = random.Random(31)
    multi = squares = 0
    for _ in range(25):
        a = helpers.random_model_poly(alph, rng, max_factors=3,
                                      gaussian=gaussian)
        images = {i: helpers.model_parity_part(
            helpers.random_model_poly(alph, rng, terms=2, max_factors=2,
                                      gaussian=gaussian),
            alph.parities[i]) for i in range(len(alph))}
        got = a.substitute(images, alph)
        assert got == helpers.model_substitute(a, images, alph)
        multi += _powers(got)[1]
        squares += _imaginary(a) and any(map(_imaginary, images.values()))
    assert multi
    if gaussian:
        assert squares >= 10


def test_deriv_merges_into_the_next_order():
    # del flavor, u even: d(u' u'') = u''^2 + u' u'''
    u1, u2, u3 = var(AFF, 0, 1), var(AFF, 0, 2), var(AFF, 0, 3)
    assert (u1 * u2).deriv() == u2 * u2 + u1 * u3
    assert (u2 * u2).terms == {(((0, 2), 2),): Scalar.one()}
    # D flavor, u odd: D(u^[1] u^[2]) = u^[2] u^[2] + u^[1] u^[3], and the
    # odd u^[2] squares to zero
    x1, x2, x3 = var(SUS, 0, 1), var(SUS, 0, 2), var(SUS, 0, 3)
    assert (x1 * x2).deriv() == x1 * x3
    assert x1 * x3


def test_D_squared_is_even_derivation():
    rng = random.Random(9)

    def dd(p):
        return p.deriv().deriv()

    for _ in range(30):
        a = random_superpoly(SUS, rng, terms=2)
        b = random_superpoly(SUS, rng, terms=2)
        assert dd(a * b) == dd(a) * b + a * dd(b)
    # D^2 raises the derivative order by two on variables
    y = var(SUS, 1)
    assert dd(y) == var(SUS, 1, 2)


def test_koszul_signed_partials():
    x, y = var(SUS, 0), var(SUS, 2)  # both odd
    assert (x * y).partial((2, 0)) == -x
    assert (x * y).partial((0, 0)) == y
    H = var(AFF, 1)
    dH = var(AFF, 1, 1)
    assert (H * dH).partial((1, 1)) == H


@pytest.mark.parametrize("alph", [Alphabet(FLAVOR_DEL, ["a", "b", "c"], [0, 1, 1]),
                                  SUS], ids=["del", "D"])
def test_gradient_equals_partials(alph):
    rng = random.Random(17)
    top_exponent = 0
    for _ in range(40):
        p = random_superpoly(alph, rng, max_factors=4, terms=4)
        top_exponent = max([top_exponent] + [e for m in p.terms for _v, e in m])
        want = {v: p.partial(v) for v in variables(p) if p.partial(v)}
        grad = p.gradient()
        assert grad == want
        assert list(grad) == sorted(want)
        parts = [(q, p.parity_part(q)) for q in (0, 1)]
        assert p.parity_gradients() == tuple((q, tuple(h.gradient().items()))
                                             for q, h in parts if h)
        assert p.parity_gradients() is p.parity_gradients()
    assert top_exponent >= 2


def test_gradient_odd_prefix_sign():
    # x odd, D(y) odd, z odd: d/dD(y) passes x, d/dz passes x D(y) (even)
    x, Dy, z, y = var(SUS, 0), var(SUS, 1, 1), var(SUS, 2), var(SUS, 1)
    p = x * Dy * z + (y * y * z).scale(3)
    assert p.gradient() == {(0, 0): Dy * z, (1, 0): (y * z).scale(6),
                            (1, 1): -(x * z), (2, 0): x * Dy + (y * y).scale(3)}


def test_partial_commutator_with_D():
    # [d/du^[m], D] = d/du^[m-1], checked on u^[1] for m = 2
    u1 = var(SUS, 1, 1)
    lhs = u1.deriv().partial((1, 2))
    pv = SUS.var_parity((1, 2))
    rhs = u1.partial((1, 2)).deriv()
    comm = lhs - (rhs if pv == 0 else -rhs)
    assert comm == u1.partial((1, 1))
    assert comm == SuperPoly.one(SUS)


def test_partials_supercommute():
    rng = random.Random(13)
    for _ in range(30):
        a = random_superpoly(SUS, rng, terms=3)
        for v in ((0, 0), (1, 1)):
            for w in ((2, 0), (1, 0)):
                pv, pw = SUS.var_parity(v), SUS.var_parity(w)
                sgn = -1 if pv * pw else 1
                assert a.partial(v).partial(w) == a.partial(w).partial(v).scale(sgn)


def test_substitution_homomorphism():
    H, F = var(AFF, 1), var(AFF, 2)
    dH = var(AFF, 1, 1)
    # identity
    imgs = {i: var(AFF, i) for i in range(3)}
    p = F * dH + H * H
    assert p.substitute(imgs, AFF) == p
    # E -> 1 kills derivatives of E
    imgs = {0: SuperPoly.one(AFF), 1: H, 2: F}
    assert (var(AFF, 0) * dH).substitute(imgs, AFF) == dH
    assert not var(AFF, 0, 1).substitute(imgs, AFF)
    # H -> 0 on F + H^2/4
    imgs = {0: var(AFF, 0), 1: SuperPoly.zero(AFF), 2: F}
    assert (F + (H * H).scale(Fraction(1, 4))).substitute(imgs, AFF) == F
    # parity mismatch rejected
    with pytest.raises(FlavorError):
        var(SUS, 0).substitute({0: var(SUS, 1), 1: var(SUS, 1), 2: var(SUS, 2)},
                               SUS)


def test_substitution_rejects_mixed_parity_image():
    """An image of mixed parity is of neither parity: over x (even) and
    y, z (odd), y -> x + z once made (y*z) -> x*z with no complaint. The
    error names the generator; a zero image of an odd generator stays."""
    alph = Alphabet(FLAVOR_DEL, ["x", "y", "z"], [0, 1, 1])
    x, y, z = var(alph, 0), var(alph, 1), var(alph, 2)
    with pytest.raises(FlavorError, match="generator y$"):
        (y * z).substitute({1: x + z, 2: z}, alph)
    assert not (y * z).substitute({1: SuperPoly.zero(alph), 2: z}, alph)


def test_substitution_respects_derivation():
    rng = random.Random(3)
    imgs = {0: var(SUS, 2), 1: var(SUS, 1) + var(SUS, 0) * var(SUS, 2),
            2: var(SUS, 0)}
    for _ in range(20):
        p = random_superpoly(SUS, rng, terms=2)
        assert p.substitute(imgs, SUS).deriv() == p.deriv().substitute(imgs, SUS)


def test_conformal_weight():
    H, F = var(AFF, 1), var(AFF, 2)
    weight = helpers.conformal_weight
    assert weight(F) == 2
    assert weight(var(AFF, 1, 1)) == 2
    k = Scalar.k()
    w = F + var(AFF, 1, 1).scalar_mul(k.scale(Fraction(1, 2))) + (H * H).scale(Fraction(1, 4))
    assert weight(w) == 2
    assert weight(F + H) == "inhomogeneous"
    assert weight(SuperPoly.zero(AFF)) is None


def test_enumerate_monomials():
    monos = enumerate_monomials(AFF, [(1, 0), (1, 1), (2, 0)], 2)
    polys = {SuperPoly(AFF, {m: Scalar.one()}).render() for m in monos}
    assert polys == {"H^2", "H'", "F"}
    # parity filter on the susy alphabet: odd weight-1 monomials only
    monos = enumerate_monomials(SUS, [(0, 0), (0, 1), (1, 0), (1, 1)], 1, parity=1)
    assert monos
    for m in monos:
        assert sum(SUS.var_parity(v) * e for v, e in m) % 2 == 1
        assert sum(SUS.var_weight(v) * e for v, e in m) == 1


def _brute_force_monomials(alph, allowed, weight):
    """(monomial, parity) for every canonical monomial of the given weight
    in the allowed variables, sorted, found by trying every exponent
    vector: 0 to the weight over the variable's weight, at most 1 for an
    odd variable."""
    allowed = sorted(allowed)
    weights = [Fraction(str(alph.var_weight(v))) for v in allowed]
    ranges = [range(min(int(weight / w), 1) + 1 if alph.var_parity(v)
                    else int(weight / w) + 1)
              for v, w in zip(allowed, weights)]
    out = []
    for exps in itertools.product(*ranges):
        if sum(e * w for e, w in zip(exps, weights)) == weight:
            mono = tuple((v, e) for v, e in zip(allowed, exps) if e)
            out.append((mono, sum(alph.var_parity(v) * e
                                  for v, e in mono) % 2))
    return sorted(out)


def test_enumerate_monomials_matches_brute_force():
    """The integer search gives the sorted list that trying every bounded
    exponent vector gives, on an even and a SUSY alphabet with
    half-integer weights, with and without the parity and required-variable
    filters; a variable of weight 0 or below is refused."""
    even = Alphabet(FLAVOR_DEL, ["a", "b", "c"], [0, 1, 0],
                    [Fraction(1, 2), Fraction(3, 2), 1])
    cases = [(even, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 2)]),
             (SUS, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
                    (2, 0), (2, 1)])]
    found = 0
    for alph, allowed in cases:
        for twice in range(8):
            weight = Fraction(twice, 2)
            every = _brute_force_monomials(alph, allowed, weight)
            for parity in (None, 0, 1, 3):
                for required in (None, set(allowed[1:3]), {allowed[-1]}):
                    got = enumerate_monomials(alph, allowed, weight, parity,
                                              required)
                    assert got == [
                        mono for mono, p in every
                        if (parity is None or p == parity % 2) and
                        (required is None or
                         any(v in required for v, _e in mono))], \
                        (alph.flavor, weight, parity, required)
                    found += len(got)
    assert found > 500
    low = Alphabet(FLAVOR_DEL, ["a", "b", "c"], [0, 0, 0],
                   [1, Fraction(-1, 2), 0])
    for allowed in ([(0, 0), (1, 0)], [(0, 0), (2, 0)]):
        with pytest.raises(ValueError):
            enumerate_monomials(low, allowed, 2)
    assert enumerate_monomials(low, [(0, 0), (1, 1)], 1) == \
        [(((0, 0), 1),), (((1, 1), 2),)]


def test_degree_part_matches_tuple_filter():
    """degree_part keeps the terms whose factors from the given generators
    have exponents summing to the degree, as filtering the tuple
    monomials of coefficients() does."""
    rng = random.Random(5)
    for alph in (AFF, SUS):
        for _ in range(20):
            p = random_superpoly(alph, rng, max_factors=4, terms=6)
            for gens in ({0}, {1, 2}, set()):
                for degree in range(4):
                    assert p.degree_part(gens, degree) == \
                        SuperPoly.from_coefficients(alph, (
                            term for term in p.coefficients()
                            if sum(e for (t, _m), e in term[0] if t in gens)
                            == degree))


def heads_image(heads):
    """The rename image that sends generator t to generator heads[t] (each
    derivative to the same derivative) and every other variable to 0."""
    one = GRat(1)
    return lambda v: ((heads[v[0]], v[1]), one) if v[0] in heads else None


def test_rename_sign_follows_variable_order(monkeypatch):
    """A rename whose generator order differs from the heads' order: x
    and y (odd) go to w1 and w0, so x*y turns into -w0*w1, an even b^2
    stays, and a monomial with a factor of the dropped a vanishes. The
    slots are given in the order opposite to both, so only the variable
    order can give the sign. In the SUSY flavor D(y) is odd and crosses x
    the same way. A second rename unpacks nothing."""
    from walgebras import superpoly
    renamed = superpoly._renamed
    for flavor, yo in ((FLAVOR_DEL, 0), (FLAVOR_D, 1)):
        src = Alphabet(flavor, ["rn_a", "rn_x", "rn_y", "rn_b"],
                       [0, 1, 1 - yo, 0])
        tgt = Alphabet(flavor, ["rn_w0", "rn_w1", "rn_w2"], [1 - yo, 1, 0])
        # first use: y, b, x over src; w2, w1, w0 over tgt
        y, b, x, a = (var(src, 2, yo), var(src, 3), var(src, 1), var(src, 0))
        w2, w1, w0 = var(tgt, 2), var(tgt, 1), var(tgt, 0, yo)
        image = heads_image({1: 1, 2: 0, 3: 2})
        two = Scalar.rational(2)
        poly = x * y + (b * b).scalar_mul(two) + a * x + y * b * x
        memos = {}
        got = poly.rename(image, tgt, memos)
        odd_pair = (((0, yo), 1), ((1, 0), 1))   # w0^(yo) w1, canonical
        assert got == SuperPoly(tgt, {
            odd_pair: -Scalar.one(), (((2, 0), 2),): two,
            (*odd_pair, ((2, 0), 1)): Scalar.one()})
        assert got == w1 * w0 + (w2 * w2).scalar_mul(two) + w0 * w2 * w1
        assert got == poly.substitute(
            {0: SuperPoly.zero(tgt), 1: var(tgt, 1), 2: var(tgt, 0),
             3: w2}, tgt)
        unpacked = []
        with monkeypatch.context() as patch:
            patch.setattr(superpoly, "_renamed",
                          lambda *a: unpacked.append(a) or renamed(*a))
            assert poly.rename(image, tgt, memos) == got
        assert not unpacked
        with pytest.raises(FlavorError):
            x.rename(heads_image({1: 2}), tgt, {})


def test_rename_factors_constants_and_cancellation():
    """rename with factors and constant images, against substitute: rho
    sends q*u and q to q for a killed u of constant 1, so q*u - q goes to
    0, and with a constant c, q*u - c*q does too (c = 2 on the int path;
    1/2, i and (1 - i)/3 on the path over the lcm of the denominators,
    where i*i folds to -1). u' goes to 0 as the derivative of a constant,
    an odd variable with a nonzero constant raises FlavorError, and with
    the constant 0 it goes to 0."""
    alph = Alphabet(FLAVOR_DEL, ["rc_q", "rc_u", "rc_x"], [0, 0, 1])
    q, u, x = var(alph, 0), var(alph, 1), var(alph, 2)
    i = Scalar.rational(GRat(0, 1))
    for c in (GRat(1), GRat(2), GRat(1, 2), GRat(0, 1), GRat(1, -1) / 3):
        def image(v, c=c):
            if v[0] != 1:
                return v, GRat(1)
            return None if v[1] else (None, c)
        memos = {}
        scalar = Scalar.rational(c)
        assert (q * u - q.scalar_mul(scalar)).rename(image, alph, memos) == \
            SuperPoly.zero(alph)
        poly = (q * u * u * x).scalar_mul(i) + u.deriv() * q + x + u
        got = poly.rename(image, alph, memos)
        assert got == poly.substitute(
            {0: q, 1: SuperPoly.const(alph, scalar), 2: x}, alph)
        assert got == (q * x).scalar_mul(i * scalar * scalar) + x + \
            SuperPoly.const(alph, scalar)
    with pytest.raises(FlavorError):
        x.rename(lambda v: (None, GRat(1)), alph, {})
    assert not (x * q).rename(lambda v: (None, GRat(0)) if v[0] == 2
                              else (v, GRat(1)), alph, {})


def test_rename_twist_factors():
    """A twist x -> -i x on the odd generators, y -> y on the even ones,
    on random polynomials with Gaussian coefficients, against the
    substitution of the same images."""
    rng = random.Random(9)
    minus_i = GRat(0, -1)
    for alph in (AFF, SUS):
        images = {t: var(alph, t).scalar_mul(Scalar.rational(minus_i)) if p
                  else var(alph, t) for t, p in enumerate(alph.parities)}
        memos = {}
        for _ in range(20):
            p = random_superpoly(alph, rng, terms=5).scalar_mul(
                Scalar.rational(GRat(1, 2) - minus_i))
            assert p.rename(lambda v: (v, minus_i if alph.parities[v[0]]
                                       else GRat(1)), alph, memos) == \
                p.substitute(images, alph)


def test_rename_ignores_slot_order():
    """The same polynomial over two copies of one alphabet, whose variables
    were first used in opposite orders, renamed into two copies of one
    target whose variables were too, gives the same coefficients: the
    sign and the factors follow variable order alone."""
    for flavor in (FLAVOR_DEL, FLAVOR_D):
        got = []
        for tag, order in (("so1", 1), ("so2", -1)):
            src = Alphabet(flavor, [tag + n for n in "abcd"], [1, 1, 0, 1])
            tgt = Alphabet(flavor, [tag + n for n in "wxyz"], [0, 1, 1, 1])
            for alph in (src, tgt):
                for t in range(4)[::order]:
                    for m in range(3)[::order]:
                        var(alph, t, m)
            image = {0: (1, GRat(0, 1)), 1: (3, GRat(-2)), 3: (2, GRat(1, 3))}
            image_of = lambda v: None if v[0] == 2 and v[1] else (
                (None, GRat(5)) if v[0] == 2 else
                ((image[v[0]][0], v[1]), image[v[0]][1]))
            rng = random.Random(4)
            polys = [random_superpoly(src, rng, max_factors=4, terms=6)
                     for _ in range(10)]
            got.append([sorted(p.rename(image_of, tgt, {}).coefficients())
                         for p in polys])
        assert got[0] == got[1]
        assert any(got[0])


def test_render_deterministic_and_obj_roundtrip():
    rng = random.Random(21)
    for alph in (AFF, SUS):
        for _ in range(30):
            p = random_superpoly(alph, rng, terms=3)
            assert p.render() == p.render()
            assert SuperPoly.from_obj(alph, p.to_obj()) == p


def test_canonical_form_is_normal_form():
    # same polynomial assembled in different orders has identical terms
    x, y, z = var(SUS, 0), var(SUS, 1), var(SUS, 2)
    p1 = (x * y) * z + z * (y * x)
    p2 = (z * y) * x + x * (y * z)
    assert p1.terms == p2.terms


def test_zero_coefficients_drop_out():
    """A zero coefficient given to the constructor leaves no term, so the
    canonical form stays a normal form."""
    mono = (((0, 0), 1),)
    zero = SuperPoly.zero(AFF)
    for given in (Scalar(), Scalar({(1, 0): GRat(0)})):
        p = SuperPoly(AFF, {mono: given})
        assert not p
        assert p == zero and hash(p) == hash(zero)
        assert p.render() == "0" and dict(p.terms) == {}
        q = SuperPoly(AFF, {mono: Scalar.one(), (): given})
        assert q == var(AFF, 0) and q.render() == "E"
    assert SuperPoly.from_coefficients(
        AFF, [(mono, 1, 0, GRat(2)), (mono, 1, 0, GRat(-2))]) == zero
    assert not SuperPoly.const(AFF, Scalar())
    assert not var(AFF, 0).scalar_mul(Scalar())


def test_terms_view_is_read_only():
    """poly.terms is a {monomial: Scalar} view built once; writing into it
    raises TypeError and the polynomial keeps its value."""
    k = Scalar.k()
    p = var(AFF, 0).scalar_mul(k + Scalar.c()) + SuperPoly.one(AFF)
    assert p.terms is p.terms
    assert dict(p.terms) == {(): Scalar.one(), (((0, 0), 1),): k + Scalar.c()}
    with pytest.raises(TypeError):
        p.terms[()] = k
    with pytest.raises(TypeError):
        del p.terms[()]
    with pytest.raises(AttributeError):
        p.terms = {}
    assert p == var(AFF, 0).scalar_mul(k + Scalar.c()) + SuperPoly.one(AFF)


# -- the packed storage ----------------------------------------------------
# Each variable's field is given on first use, so the slot order of an
# alphabet is the order in which its variables first appear, not the
# variable order that canonical monomials and their signs follow. The tests
# below use alphabets that no other test builds, so that their slots are
# given here.

def _fresh_alphabet(tag, flavor=FLAVOR_D, parities=(1, 1, 0, 1, 1, 0, 1, 1)):
    return Alphabet(flavor, ["%s%d" % (tag, i) for i in range(len(parities))],
                    parities)


@pytest.mark.parametrize("flavor, gaussian", [
    pytest.param(FLAVOR_D, False, id="D"),
    pytest.param(FLAVOR_DEL, False, id="del"),
    pytest.param(FLAVOR_D, True, id="D-gaussian"),
    pytest.param(FLAVOR_DEL, True, id="del-gaussian")])
def test_packed_kernel_equals_model_many_odd_generators(flavor, gaussian):
    """Products, the derivation, gradients, substitution and parities
    against the factor-list model on an alphabet of eight generators, six
    of them odd, with derivative orders up to 9 (the random property suites
    reach 9): the slots are given in the random order in which the inputs
    first use the variables, so the Koszul signs of products and partials
    are counted over odd factors whose slot order and variable order
    differ. The gaussian cases draw coefficients in Q(i)[k, c] over
    denominators 1..6."""
    alph = _fresh_alphabet(("g" if gaussian else "m") + flavor, flavor)
    rng = random.Random(41)
    for _ in range(30):
        a = helpers.random_model_poly(alph, rng, terms=3, max_factors=4,
                                      max_order=9, gaussian=gaussian)
        b = helpers.random_model_poly(alph, rng, terms=3, max_factors=3,
                                      max_order=9, gaussian=gaussian)
        ab = a * b
        assert ab == helpers.model_mul(a, b)
        for p in (a, ab):
            assert p.deriv() == helpers.model_deriv(p)
            assert p.parity() == helpers.model_parity(p)
            want = {v: helpers.model_partial(p, v) for v in variables(p)}
            assert p.gradient() == {v: d for v, d in want.items() if d}
    slots = alph._layout.vars
    odd = [v for v in slots if alph.var_parity(v)]
    assert max(m for _g, m in slots) >= 9 and odd != sorted(odd)
    for _ in range(10):
        a = helpers.random_model_poly(alph, rng, max_factors=3, max_order=4,
                                      gaussian=gaussian)
        images = {i: helpers.model_parity_part(
            helpers.random_model_poly(alph, rng, terms=2, max_factors=2,
                                      max_order=3, gaussian=gaussian),
            alph.parities[i]) for i in range(len(alph))}
        assert a.substitute(images, alph) == \
            helpers.model_substitute(a, images, alph)


def test_equal_alphabets_pack_alike():
    """An equal but distinct alphabet (read back from its serialized form)
    shares the slots: the same polynomial built over either is equal, with
    equal hashes, and the two mix in sums and products."""
    alph = _fresh_alphabet("eq")
    twin = Alphabet.from_obj(alph.to_obj())
    assert twin is not alph and twin == alph and hash(twin) == hash(alph)
    rng = random.Random(43)
    for _ in range(20):
        seed = rng.random()
        p = helpers.random_model_poly(alph, random.Random(seed))
        q = helpers.random_model_poly(twin, random.Random(seed))
        assert p == q and hash(p) == hash(q)
        assert p * q == helpers.model_mul(p, q) and not p - q


def test_first_use_order_does_not_show():
    """Two fresh equal alphabets whose variables are first used in opposite
    orders give the same terms, rendering and serialization: the slot
    registry of an alphabet value lives as long as some alphabet of that
    value, so dropping the first one lets the second start afresh."""
    names = ["f%d" % i for i in range(5)]
    variables_ = [(g, m) for g in range(5) for m in range(3)]

    def build(order):
        alph = Alphabet(FLAVOR_D, names, [1, 0, 1, 1, 0])
        for g, m in order:   # first use, in this order
            var(alph, g, m)
        rng = random.Random(47)
        polys = [helpers.random_model_poly(alph, rng, terms=4) for _ in range(8)]
        polys += [a * b for a in polys[:4] for b in polys[4:]]
        polys += [p.deriv() for p in polys]
        seen = ([dict(p.terms) for p in polys], [p.render() for p in polys],
                [p.to_obj() for p in polys])
        return seen, list(alph._layout.vars)

    forward, slots = build(variables_)
    gc.collect()
    backward, slots_back = build(variables_[::-1])
    assert slots[:15] == variables_ and slots_back[:15] == variables_[::-1]
    assert forward == backward


def test_power_past_a_field_is_loud():
    """A power past 127 raises ExponentOverflowError (the CLI reports it as
    an engine error, exit 3) and never wraps into another field."""
    alph = _fresh_alphabet("ov", FLAVOR_DEL, (0, 0))
    x = var(alph, 0)
    for _ in range(6):
        x = x * x
    assert x.terms == {(((0, 0), 64),): Scalar.one()}
    with pytest.raises(ExponentOverflowError):
        x * x
    top = SuperPoly(alph, {(((0, 0), 63), ((0, 1), 127)): Scalar.one()})
    assert (top * var(alph, 0)).terms == {
        (((0, 0), 64), ((0, 1), 127)): Scalar.one()}
    with pytest.raises(ExponentOverflowError):
        top.deriv()    # d u^63 gives u^62 (u')^128
    with pytest.raises(ExponentOverflowError):
        SuperPoly(alph, {(((1, 0), 128),): Scalar.one()})
    k = Scalar.term(127, 0, GRat(1))
    with pytest.raises(ExponentOverflowError):
        var(alph, 1).scalar_mul(k).scalar_mul(Scalar.k())
    with pytest.raises(ExponentOverflowError):
        var(alph, 1).scalar_mul(k) * var(alph, 1).scalar_mul(Scalar.k())


def test_threads_on_one_fresh_alphabet():
    """Four threads (more than the cores of a small machine) that build
    polynomials on one fresh alphabet, each first using its variables in
    another order, get what one thread gets: the slot registry gives each
    variable one slot however the threads interleave."""
    names = ["t%d" % i for i in range(6)]
    variables_ = [(g, m) for g in range(6) for m in range(6)]
    orders = [variables_, variables_[::-1], variables_[1::2] + variables_[::2],
              variables_[::2] + variables_[1::2]]

    def work(alph, i):
        out = []
        rng = random.Random(i)
        for g, m in orders[i]:
            p = var(alph, g, m) * helpers.random_model_poly(alph, rng, terms=2)
            out.append((p * p.deriv()).to_obj())
        return out

    alph = Alphabet(FLAVOR_D, names, [1, 1, 0, 1, 0, 1])
    want = [work(alph, i) for i in range(len(orders))]
    del alph
    gc.collect()
    alph = Alphabet(FLAVOR_D, names, [1, 1, 0, 1, 0, 1])
    assert not alph._layout.vars   # a fresh registry
    barrier = threading.Barrier(len(orders))
    got = [None] * len(orders)

    def run(i):
        barrier.wait(timeout=60)
        got[i] = work(alph, i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(len(orders))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want
    slots = alph._layout.vars
    assert len(slots) == len(set(slots)) == len(alph._layout.units)


def test_pickles_and_copies_repack():
    """A pickled polynomial carries tuple monomials, not keys: read in a
    process whose registry gave the same alphabet's slots in another order,
    it is the same polynomial; a copy of an alphabet shares its registry."""
    alph = _fresh_alphabet("pk")
    rng = random.Random(53)
    p = helpers.random_model_poly(alph, rng, terms=4, max_order=3)
    q = helpers.random_model_poly(alph, rng, terms=4, max_order=3)
    twin = copy.deepcopy(alph)
    assert twin._layout is alph._layout
    assert copy.deepcopy(p) == p and pickle.loads(pickle.dumps(p)) == p
    script = (
        "import pickle, sys\n"
        "from walgebras.superpoly import Alphabet, SuperPoly\n"
        "p, q = pickle.loads(sys.stdin.buffer.read())\n"
        "alph = Alphabet(p.alphabet.flavor, p.alphabet.names,\n"
        "                p.alphabet.parities)\n"
        "order = sorted({v for m in (p * q).terms for v, _e in m},\n"
        "               reverse=True)\n"
        "fresh = [SuperPoly.variable(alph, g, m) for g, m in order]\n"
        "print(repr([(p * q).to_obj(), p.deriv().to_obj(),\n"
        "            (p * fresh[0]).to_obj()]))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    out = subprocess.run([sys.executable, "-c", script],
                         input=pickle.dumps((p, q)), capture_output=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True)
    first = max({v for m in (p * q).terms for v, _e in m})
    want = [(p * q).to_obj(), p.deriv().to_obj(),
            (p * var(alph, *first)).to_obj()]
    assert out.stdout.decode() == repr(want) + "\n"


def _reduced_grats(p):
    """Whether every coefficient that p gives out is a GRat in lowest terms
    with a positive denominator."""
    return all(type(g) is GRat and g.d > 0 and gcd(g.a, g.b, g.d) == 1
               for _m, _kp, _cp, g in p.coefficients())


def test_normal_form_across_build_routes():
    """The same value built by different routes is one value: ==, hash,
    rendering and the reduced GRats of coefficients() agree, and so do its
    copies and pickles. Each route leaves a common factor between the
    numerators and the denominator until the result is built: halves that
    add up to a whole, a scale and its inverse, a bracket-value sum over
    thirds and halves that cancels to integers, a derivative whose factor 2
    meets the 1/2, and a product whose i*i = -1."""
    u, du = var(AFF, 0), var(AFF, 0, 1)
    x, y = var(AFF, 1), var(AFF, 2)
    i = Scalar.imag()
    summed = (LambdaPoly.of(x.scale(Fraction(1, 3)))
              + LambdaPoly.of(x.scale(Fraction(1, 2))).mul_right(y)
              + LambdaPoly.of(x.scale(Fraction(2, 3)))
              + LambdaPoly.of(x).mul_right(y.scale(Fraction(1, 2))))
    routes = [
        (x, x.scale(Fraction(1, 2)) + x.scale(Fraction(1, 2))),
        (x, x.scale(Fraction(1, 3)).scale(3)),
        (x + x * y, summed.get(0)),
        (u * du, (u * u).scale(Fraction(1, 2)).deriv()),
        (-(x * y), x.scalar_mul(i) * y.scalar_mul(i)),
        (x.scalar_mul(i).scale(Fraction(1, 6)),
         x.scalar_mul(i).scale(Fraction(1, 2)) - x.scalar_mul(i).scale(Fraction(1, 3))),
    ]
    for want, got in routes:
        assert got == want and hash(got) == hash(want)
        assert got.render() == want.render()
        assert list(got.coefficients()) == list(want.coefficients())
        assert _reduced_grats(got)
        for copied in (copy.deepcopy(got), pickle.loads(pickle.dumps(got))):
            assert copied == want and hash(copied) == hash(want)
            assert copied.render() == want.render() and _reduced_grats(copied)
    assert routes[-1][1].render() == "(1/6)i*H"


def test_power_past_a_field_is_loud_with_i():
    """i*i = -1 folds a product's i field without touching its other
    fields: a power of a variable or of k past 127 still raises
    ExponentOverflowError when the two factors also carry i."""
    alph = _fresh_alphabet("oi", FLAVOR_DEL, (0, 0))
    i = Scalar.imag()
    x = var(alph, 0)
    for _ in range(6):
        x = x * x
    ix = x.scalar_mul(i)                  # i u^64
    assert (ix * var(alph, 0).scalar_mul(i)).terms == {
        (((0, 0), 65),): -Scalar.one()}
    with pytest.raises(ExponentOverflowError):
        ix * ix
    k = Scalar.term(127, 0, GRat(0, 1))   # i k^127
    with pytest.raises(ExponentOverflowError):
        var(alph, 1).scalar_mul(k) * var(alph, 1).scalar_mul(Scalar.k() * i)
    assert (var(alph, 1).scalar_mul(k) * var(alph, 0).scalar_mul(i)).terms == {
        (((0, 0), 1), ((1, 0), 1)): -Scalar.term(127, 0, GRat(1))}


@pytest.mark.parametrize("op", [
    lambda p: p + 1, lambda p: p - 1, lambda p: p * 2,
    lambda p: 1 + p, lambda p: 1 - p, lambda p: 2 * p,
    lambda p: p + Scalar.one(), lambda p: p * Scalar.k()],
    ids=["add", "sub", "mul", "radd", "rsub", "rmul", "add-scalar",
         "mul-scalar"])
def test_foreign_operand_is_a_type_error(op):
    """A SuperPoly meets only a SuperPoly in + - *: any other operand gives
    NotImplemented, so Python raises TypeError (scale and scalar_mul take
    numbers and Scalars)."""
    with pytest.raises(TypeError):
        op(var(AFF, 0))
