"""Chi-bracket calculus for SUSY Poisson vertex algebras.

The calculus of pva with its odd indeterminate: values live in
C[chi] (x) P with chi written to the left of coefficients, and the
C[D]-module structure obeys chi D + D chi = -2 chi^2, which forces
D(chi^n f) = (-1)^n chi^n Df - (1-(-1)^n) chi^{n+1} f. This module holds
the chi record, the value and table classes, the SUSY master formula and
its axioms-driven oracle, and the reduction of a SUSY PVA to a PVA. The
axiom checks are pva's, called with susy_master_bracket as evaluator; the
SUSY-named defect functions below exist only because the benchmark binds
them.
"""

from __future__ import annotations

from math import comb

from .pva import (BracketTable, Indeterminate, LambdaPoly, LeftBracket,
                  _oracle, affine_table, jacobi_defect, leibniz_defects,
                  sesquilinearity_defects, skew_defect)
from .scalars import rat
from .superpoly import FLAVOR_DEL, Alphabet, SuperPoly


def _chi_gamma_power(m):
    """(chi+gamma)^m = (chi^2+gamma^2)^t (chi+gamma)^r, m = 2t + r, in normal
    form {(a, b): integer coefficient}; chi and gamma anticommute."""
    t, r = divmod(m, 2)
    return {(2 * s + a, 2 * (t - s) + r - a): comb(t, s)
            for s in range(t + 1) for a in range(r + 1)}


CHI = Indeterminate(
    parity=1, glyphs=("χ", "γ"), left=True, tag="chi",
    labels=("susy-skew", "susy-jacobi", "susy-right-leibniz",
            "susy-left-leibniz", "susy-sesqui-1", "susy-sesqui-2"),
    binomial=_chi_gamma_power,
    skew=0, d_left=0, d_right=lambda q: 1 + q,
    arrow=lambda q, n: q * n + (n * (n - 1)) // 2,
    # S(a_(im), b_(jn)) with the signs of (chi+D)^m, pinned by the oracle
    master=lambda pa, pb, si, sj, m, n, pim, pjn:
        (pb + pjn) * (1 + pjn + pa) + (pa + pim) * pjn
        + n + m * n + (m * (m + 1)) // 2 + si * (n + m) + sj * m,
    # [a_chi[b_gam c]] + s(a)[[a_chi b]_{chi+gam} c]
    #   + s(a,b)s(a)s(b)[b_gam[a_chi c]]
    jacobi=(lambda pa, i, o: i * (1 + pa + o),
            lambda pa, i, o: pa + i,
            lambda pa, pb, i, o: pa * pb + pa + pb + i * (1 + pb)))


class ChiPoly(LambdaPoly):
    """sum_n chi^n f_n with f_n to the right."""

    __slots__ = ()
    var = CHI


class SUSYBracketTable(BracketTable):
    """Chi-brackets of ordered generator pairs of a D-flavored algebra."""

    value = ChiPoly


def susy_affine_table(g, alphabet, k) -> SUSYBracketTable:
    """[abar_chi bbar] = s(a)(bar[a,b] + chi k (a|b)); note p(abar)=p(a)+1."""
    return affine_table(g, alphabet, k, SUSYBracketTable,
                        lambda i, j: g.parities[i])


# The SUSY master formula and oracle are functions of their own: the
# benchmark tracer (wbench/tracer.py) tells the two master formulas and the
# two oracles apart by their names. Evaluations through a pva.LeftBracket
# (membership terms, brst's differential) go unseen.
def susy_master_bracket(a: SuperPoly, b: SuperPoly,
                        table: SUSYBracketTable) -> ChiPoly:
    """Closed master-formula evaluation of {a_chi b}."""
    return LeftBracket(a, table)(b)


def susy_bracket_oracle(a: SuperPoly, b: SuperPoly,
                        table: SUSYBracketTable) -> ChiPoly:
    """Axioms-driven evaluation (sesquilinearity, right Leibniz, skew);
    independent of the closed master formula."""
    return _oracle(a, b, table)


# The benchmark's axioms workload (wbench/workloads.py) calls these four by
# name, with susy_master_bracket as default evaluator; the pva functions
# serve both flavors everywhere else.
def susy_skew_defect(a, b, table, evaluator=susy_master_bracket) -> ChiPoly:
    """[a_chi b] - s(a,b)[b_{-chi-D} a]."""
    return skew_defect(a, b, table, evaluator)


def susy_jacobi_defect(a, b, c, table, evaluator=susy_master_bracket):
    """[a_chi[b_gam c]] + s(a)[[a_chi b]_{chi+gam} c]
    + s(a,b)s(a)s(b)[b_gam[a_chi c]]; zero iff the Jacobi identity holds."""
    return jacobi_defect(a, b, c, table, evaluator)


def susy_leibniz_defects(a, b, c, table, evaluator=susy_master_bracket):
    """Right: {a_chi bc} - {a_chi b}c - s(b,c){a_chi c}b.
    Left: {ab_chi c} - s(b,c){a_{chi+D}c}_->b - s(a,bc){b_{chi+D}c}_->a."""
    return leibniz_defects(a, b, c, table, evaluator)


def susy_sesquilinearity_defects(a, b, table, evaluator=susy_master_bracket):
    """([Da_chi b] - chi[a_chi b],  [a_chi Db] + s(a)(D+chi)[a_chi b])."""
    return sesquilinearity_defects(a, b, table, evaluator)


# ---------------------------------------------------------------------------
# SUSY PVA -> PVA reduction: a_(n)b = (-1)^n a_[2n+1]b, del = D^2
# ---------------------------------------------------------------------------

def doubled_alphabet(alph):
    """Affine alphabet over u_i and Du_i: the same algebra with del = D^2."""
    names, parities, weights = [], [], []
    for i, nm in enumerate(alph.names):
        names.extend([nm, "D" + nm])
        parities.extend([alph.parities[i], (alph.parities[i] + 1) % 2])
        if alph.weights is not None:
            weights.extend([alph.weights[i], alph.weights[i] + rat(1, 2)])
    return Alphabet(FLAVOR_DEL, names, parities,
                    None if alph.weights is None else weights)


def to_doubled(poly: SuperPoly, target) -> SuperPoly:
    """Rewrite a D-flavored polynomial over generators {u, Du} with del=D^2."""
    out = SuperPoly.zero(target)
    for mono, kp, cp, gr in poly.coefficients():
        term = SuperPoly.from_coefficients(target, [((), kp, cp, gr)])
        for (i, m), e in mono:
            img = SuperPoly.variable(target, 2 * i + (m % 2), m // 2)
            for _ in range(e):
                term = term * img
        out = out + term
    return out


def reduce_chipoly(cp: ChiPoly, target):
    """Odd chi-powers with the (-1)^n twist, as a LambdaPoly over target."""
    out = {}
    for p, poly in cp.coeffs.items():
        if p % 2:
            n = (p - 1) // 2
            q = to_doubled(poly, target)
            out[n] = -q if n % 2 else q
    return LambdaPoly(target, out)


def reduce_to_pva(table: SUSYBracketTable):
    """Lambda-bracket table over the doubled generator set {u_i, Du_i}."""
    alph = table.alphabet
    target = doubled_alphabet(alph)
    out = BracketTable(target)
    for i in range(len(alph)):
        for j in range(len(alph)):
            for e1 in (0, 1):
                for e2 in (0, 1):
                    cp = table.entry(i, j)
                    if e1:
                        cp = cp.shift()
                    if e2:
                        cp = cp.apply_plus_d()
                        if (alph.parities[i] + e1) % 2 == 0:
                            cp = -cp
                    lp = reduce_chipoly(cp, target)
                    out.set(2 * i + e1, 2 * j + e2, lp)
    return out
