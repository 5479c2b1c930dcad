"""Exhaustive pinning of the master-formula signs against the oracle.

Every monomial pair of derivative order <= 1 is bracketed by the master
formula and by the axioms-driven oracle: on sl2 every pair of degree <= 2,
elsewhere degree 1 against degree <= 2 in both orders; lambda tables of all
catalog algebras and chi tables of the osp(1|2) ones. At derivative order
2, polynomials that hold one generator at several orders pin the grouping
of the master formula by (j, n mod 2). The Jacobi sign rules are pinned
as affine in p(a), with the slopes that pva.jacobi_defect folds by.
"""

from itertools import combinations_with_replacement, product

import pytest

import helpers
from walgebras.catalog import CATALOG
from walgebras.pva import LAMBDA, _slope, bracket_oracle, master_bracket
from walgebras.scalars import Scalar
from walgebras.spva import CHI, susy_bracket_oracle, susy_master_bracket
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


def _order2_polys(alph):
    """Per generator u: u, u', u'', u + 2u'', u' - u'', u + k u' + u'',
    u u'' and u u' u''. As g, u + 2u'' and u u'' hold two orders of one
    class n mod 2. The master formula takes the parity parts of g one at a
    time, and for chi u^(n) has the parity of u plus n, so a sum such as
    u' - u'' splits into one order per part; a product such as u u' u''
    holds orders of both classes in one part. The chi sign differs between
    the classes exactly when g is even, which u u' u'' is for an odd u.
    As f, each sum holds one generator at two or three orders m."""
    k = Scalar.k()
    out = []
    for i in range(len(alph)):
        u0, u1, u2 = (SuperPoly.variable(alph, i, m) for m in range(3))
        out += [u0, u1, u2, u0 + u2.scale(2), u1 - u2,
                u0 + u1.scalar_mul(k) + u2, u0 * u2, u0 * u1 * u2]
    return out


@pytest.mark.parametrize("name, susy", [("sl2", False), ("osp12", True),
                                        ("sl21", True)])
def test_master_equals_oracle_at_order_2(name, susy):
    g, alph, t = (helpers.susy_affine if susy else helpers.affine)(name)
    master, oracle = ((susy_master_bracket, susy_bracket_oracle) if susy
                      else (master_bracket, bracket_oracle))
    polys = _order2_polys(alph)
    assert [(a.render(), b.render()) for a in polys for b in polys
            if master(a, b, t) != oracle(a, b, t)] == []


# The slope e of each Jacobi sign rule in p(a), by term, as functions of
# the inner power i and p(b) (pva.jacobi_defect's docstring).
JACOBI_SLOPES = {
    "lambda": (LAMBDA, lambda i: 0, 0, lambda pb: pb),
    "chi": (CHI, lambda i: i, 1, lambda pb: 1 + pb),
}


@pytest.mark.parametrize("flavor", sorted(JACOBI_SLOPES))
def test_jacobi_signs_separate_in_pa(flavor):
    """Each sign rule minus its value at p(a) = 0 is p(a) e mod 2, with e
    reading only i (first term), nothing (second) or p(b) (third), over
    p(a), p(b) in {0, 1} and inner and outer powers 0..6."""
    var, e1, e2, e3 = JACOBI_SLOPES[flavor]
    sign1, sign2, sign3 = var.jacobi
    for pa, pb, i, o in product((0, 1), (0, 1), range(7), range(7)):
        assert (sign1(pa, i, o) - sign1(0, i, o)) % 2 == pa * e1(i) % 2
        assert (sign2(pa, i, o) - sign2(0, i, o)) % 2 == pa * e2 % 2
        assert (sign3(pa, pb, i, o) - sign3(0, pb, i, o)) % 2 \
            == pa * e3(pb) % 2
        # the slopes as jacobi_defect reads them, at o = 0 (and i = 0)
        assert _slope(sign1, i, 0) == e1(i) % 2
        assert _slope(sign2, 0, 0) == e2
        assert _slope(sign3, pb, 0, 0) == e3(pb) % 2
