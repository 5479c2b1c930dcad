import random
from fractions import Fraction

import pytest

import helpers
from walgebras.catalog import CATALOG
from walgebras.pva import (BracketTable, LambdaPoly, bracket_oracle,
                           check_jacobi, check_skew, master_bracket,
                           random_property_suite)
from walgebras.scalars import Scalar
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
    assert lp.subs_neg_lambda_del().subs_neg_lambda_del() == lp
    obj = lp.to_obj()
    assert LambdaPoly.from_obj(alph, obj) == lp
    assert BracketTable.from_obj(t.to_obj()).entries == t.entries
