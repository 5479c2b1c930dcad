"""Exhaustive pinning of the master-formula signs against the oracle.

Every monomial pair of derivative order <= 1 is bracketed by the master
formula and by the axioms-driven oracle: on sl2 every pair of degree <= 2,
elsewhere degree 1 against degree <= 2 in both orders; lambda tables of all
catalog algebras and chi tables of the osp(1|2) ones.
"""

from itertools import combinations_with_replacement

import pytest

import helpers
from walgebras.catalog import CATALOG
from walgebras.pva import bracket_oracle, master_bracket
from walgebras.scalars import Scalar
from walgebras.spva import susy_bracket_oracle, susy_master_bracket
from walgebras.superpoly import SuperPoly


def _monomials(alph, degree):
    """Coefficient-1 monomials of the given degree in derivative order <= 1."""
    variables = [(i, m) for i in range(len(alph)) for m in (0, 1)]
    out = []
    for vs in combinations_with_replacement(variables, degree):
        if any(alph.var_parity(v) for v in vs if vs.count(v) > 1):
            continue   # an odd variable squares to zero
        mono = tuple((v, vs.count(v)) for v in sorted(set(vs)))
        out.append(SuperPoly(alph, {mono: Scalar.one()}))
    return out


def _pairs(name, alph):
    deg1 = _monomials(alph, 1)
    upto2 = deg1 + _monomials(alph, 2)
    if name == "sl2":
        return [(a, b) for a in upto2 for b in upto2]
    pairs = [(a, b) for a in deg1 for b in upto2]
    pairs += [(b, a) for a in deg1 for b in upto2[len(deg1):]]
    return pairs


def _mismatches(name, alph, table, master, oracle):
    return [(a.render(), b.render()) for a, b in _pairs(name, alph)
            if master(a, b, table) != oracle(a, b, table)]


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_lambda_master_equals_oracle_on_low_monomials(name):
    g, alph, t = helpers.affine(name)
    assert _mismatches(name, alph, t, master_bracket, bracket_oracle) == []


@pytest.mark.parametrize("name", ["osp12", "sl21"])
def test_chi_master_equals_oracle_on_low_monomials(name):
    g, alph, t = helpers.susy_affine(name)
    assert _mismatches(name, alph, t, susy_master_bracket,
                       susy_bracket_oracle) == []


def test_pair_counts():
    """The pair sets have the sizes worked out by hand."""
    for name, size in (("sl2", 729), ("osp12", 1120), ("sl21", 4352),
                       ("sl3-minimal", 4608), ("sl3-principal", 4608)):
        g, alph, t = helpers.affine(name)
        assert len(_pairs(name, alph)) == size
    g, alph, t = helpers.susy_affine("osp12")
    assert len(_pairs("osp12", alph)) == 1100
