import random

import pytest

import helpers
from walgebras.pva import LambdaPoly, check_jacobi, check_skew, \
    random_property_suite
from walgebras.scalars import Scalar
from helpers import ChiDWord
from walgebras.spva import (ChiPoly, SUSYBracketTable, reduce_to_pva,
                            susy_bracket_oracle, susy_master_bracket,
                            susy_sesquilinearity_defects)
from walgebras.superpoly import SuperPoly, random_superpoly
from walgebras.wclassical import w_bracket_table

OSP = ["osp12", "sl21"]
K = Scalar.k()


def test_affine_susy_table_osp12():
    g, alph, t = helpers.susy_affine("osp12")
    iE, ie, iH, if_, iF = range(5)
    Hb = SuperPoly.variable(alph, iH)
    assert t.entry(ie, if_) == ChiPoly(alph, {0: Hb,
                                              1: SuperPoly.const(alph, K.scale(2))})
    assert t.entry(iH, iH) == ChiPoly(alph, {1: SuperPoly.const(alph, K.scale(2))})
    assert t.entry(iF, iF).is_zero()


def test_chidword_relation_and_confluence():
    rel = (ChiDWord.from_word(["chi", "D"]) + ChiDWord.from_word(["D", "chi"])
           + ChiDWord.from_word(["chi", "chi"]).scalar_mul(Scalar.rational(2)))
    assert rel == ChiDWord({})
    g, alph, t = helpers.susy_affine("osp12")
    rng = random.Random(3)
    for _ in range(25):
        letters = [rng.choice(["chi", "D"]) for _ in range(rng.randint(1, 6))]
        cut = rng.randint(0, len(letters))
        wa = ChiDWord.from_word(letters)
        wb = ChiDWord.from_word(letters[:cut]) * ChiDWord.from_word(letters[cut:])
        assert wa == wb
        v = ChiPoly.of(random_superpoly(alph, rng, terms=2))
        assert wa.apply(v) == wb.apply(v)


def test_chi_relation_annihilates_values():
    g, alph, t = helpers.susy_affine("osp12")
    rng = random.Random(8)
    rel = (ChiDWord.from_word(["chi", "D"]) + ChiDWord.from_word(["D", "chi"])
           + ChiDWord.from_word(["chi", "chi"]).scalar_mul(Scalar.rational(2)))
    for _ in range(10):
        v = ChiPoly.of(random_superpoly(alph, rng, terms=2), power=rng.randint(0, 2))
        assert rel.apply(v).is_zero()


@pytest.mark.parametrize("name", OSP)
def test_master_reproduces_table(name):
    g, alph, t = helpers.susy_affine(name)
    for i in range(len(alph)):
        for j in range(len(alph)):
            vi, vj = SuperPoly.variable(alph, i), SuperPoly.variable(alph, j)
            assert susy_master_bracket(vi, vj, t) == t.entry(i, j)


@pytest.mark.parametrize("name", OSP)
def test_susy_skew_jacobi_generators(name):
    g, alph, t = helpers.susy_affine(name)
    assert check_skew(t, susy_master_bracket) == []
    assert check_jacobi(t, susy_master_bracket) == []


@pytest.mark.parametrize("name", OSP)
def test_master_equals_oracle_on_w_table(name):
    """The W tables have entries up to chi^5, so the master formula meets
    the (chi+D)^n normal-form sign of the arrow sum at n >= 2, which no
    affine table reaches."""
    ctx, gens = helpers.susy(name)
    table = w_bracket_table(ctx, gens)
    assert max(v.max_power() for v in table.entries.values()) >= 2
    alph = table.alphabet
    rng = random.Random(31)
    polys = [SuperPoly.variable(alph, i, m)
             for i in range(len(alph)) for m in (0, 1)]
    polys += [random_superpoly(alph, rng, max_factors=2, terms=3)
              for _ in range(6)]
    for a in polys:
        for b in polys:
            assert susy_master_bracket(a, b, table) == \
                susy_bracket_oracle(a, b, table)


def test_corrupted_susy_entry_detected():
    g, alph, t = helpers.susy_affine("osp12")
    bad = SUSYBracketTable(alph, dict(t.entries))
    bad.set(1, 3, t.entry(1, 3).scalar_mul(Scalar.rational(-1)))
    assert check_skew(bad, susy_master_bracket) != []
    assert check_jacobi(bad, susy_master_bracket) != []


def test_sesquilinearity_displays():
    # [Da_chi b] = chi [a_chi b];  [a_chi Db] = -s(a)(D+chi)[a_chi b]
    g, alph, t = helpers.susy_affine("osp12")
    rng = random.Random(5)
    for _ in range(8):
        a = random_superpoly(alph, rng, terms=2)
        b = random_superpoly(alph, rng, terms=2)
        d1, d2 = susy_sesquilinearity_defects(a, b, t)
        assert d1.is_zero() and d2.is_zero()


@pytest.mark.parametrize("name", OSP)
def test_random_suite_and_oracle(name):
    g, alph, t = helpers.susy_affine(name)
    assert random_property_suite(t, 2024, 2, susy_master_bracket,
                                 susy_bracket_oracle) == []


def test_reduce_to_pva_examples():
    g, alph, t = helpers.susy_affine("osp12")
    lt = reduce_to_pva(t)
    d = lt.alphabet
    iH = alph.index("H~")
    # [H~_chi H~] = 2k chi  ->  {H~_l H~} = 2k
    assert lt.entry(2 * iH, 2 * iH) == LambdaPoly.of(
        SuperPoly.const(d, K.scale(2)))
    # zero chi-bracket -> zero lambda-bracket
    iF = alph.index("F~")
    assert lt.entry(2 * iF, 2 * iF).is_zero()


@pytest.mark.parametrize("name", OSP)
def test_reduced_table_is_pva(name):
    g, alph, t = helpers.susy_affine(name)
    lt = reduce_to_pva(t)
    assert check_skew(lt) == []
    assert check_jacobi(lt) == []
    if name == "osp12":
        assert random_property_suite(lt, seed=11, rounds=2) == []


def test_serialization_roundtrip():
    g, alph, t = helpers.susy_affine("osp12")
    obj = t.to_obj()
    assert obj["flavor"] == "chi"
    t2 = SUSYBracketTable.from_obj(obj)
    assert t2.entries == t.entries
