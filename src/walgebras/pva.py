"""Bracket calculus for Poisson vertex algebras and their SUSY analogue.

A bracket value is a polynomial in one indeterminate x with SuperPoly
coefficients: the even lambda of a PVA, with the even derivation del
(De Sole-Kac), or the odd chi of a SUSY PVA, with the odd D and
chi D + D chi = -2 chi^2 (Heluani-Kac). An Indeterminate record holds what
the two differ in; the rest follows from the parity p of x:

    (x + d)(x^n f) = (-1)^{pn} (x^{n+1} f + x^n df),
    g x^n f = (-1)^{pqn} x^n g f for g of parity q,
    the skew flip of sum_n x^n f_n is sum_n (-1)^n (x + d)^n f_n.

The master formula evaluates the bracket of two arbitrary differential
polynomials from a generator table; the axioms-driven evaluator
(sesquilinearity, right Leibniz, skew) is its independent oracle.
Skew-symmetry, Leibniz rules and sesquilinearity are checked exactly, and
the Jacobi identity in two independent indeterminates. This module holds
the lambda record and names; spva holds chi.
"""

from __future__ import annotations

import random
from collections import namedtuple
from math import comb

from .scalars import Scalar, join_signed
from .superpoly import (FLAVOR_D, FLAVOR_DEL, Alphabet, SuperPoly,
                        random_superpoly)


class Indeterminate(namedtuple("Indeterminate", "parity glyphs left tag labels "
                               "binomial skew d_left d_right arrow master "
                               "jacobi")):
    """What the lambda and the chi calculus differ in. A sign rule gives
    the exponent e of its sign (-1)^e.

    parity          0 for lambda, 1 for chi
    glyphs          the indeterminate and its Jacobi partner (mu, gamma)
    left            powers are written left of their coefficient (chi*f)
    tag             the "flavor" entry of a serialized table, or None
    labels          failure labels of the random property suite
    binomial        (x + y)^m in normal form, {(a, b): integer}
    skew            [a_x b] = (-1)^skew s(a,b) [b_{-x-d} a]
    d_left          [da_x b] = (-1)^d_left x [a_x b]
    d_right(q)      [a_x db] = (-1)^d_right(q) (x+d) [a_x b], a of parity q
    arrow(q, n)     sign of the x^n term of {a_{x+d} b}_->, ab of parity q
    master(pf, pg, pi, pj, m, n, pim, pjn)
                    sign of the (u_i^(m), u_j^(n)) term of the master
                    formula for {f_x g}; pim, pjn are the variables' parities
    jacobi          signs (pa, pb, i, o) of the three Jacobi terms, by the
                    x- or y-powers i of the inner and o of the outer bracket
    """

    __slots__ = ()

    @property
    def symbol(self):
        """The alphabet flavor: del for an even x, D for an odd one."""
        return (FLAVOR_DEL, FLAVOR_D)[self.parity]


LAMBDA = Indeterminate(
    parity=0, glyphs=("λ", "μ"), left=False, tag=None,
    labels=("skew", "jacobi", "right-leibniz", "left-leibniz",
            "sesquilinearity-1", "sesquilinearity-2"),
    binomial=lambda m: {(t, m - t): comb(m, t) for t in range(m + 1)},
    skew=1, d_left=1, d_right=lambda q: 0, arrow=lambda q, n: 0,
    # s(f,g) s(u_i,u_j) s(g,u_j) s(u_j), pinned against the oracle on
    # superalgebras, and (-1)^m from (-lambda-del)^m
    master=lambda pf, pg, pi, pj, m, n, pim, pjn:
        pf * pg + pi * pj + pg * pj + pj + m,
    jacobi=(lambda pa, pb, i, o: 0, lambda pa, pb, i, o: 1,
            lambda pa, pb, i, o: 1 + pa * pb))


def _signed(value, e):
    return -value if e % 2 else value


def _acc(out, key, poly):
    """out[key] += poly, keeping no zero entries."""
    s = out.get(key)
    s = poly if s is None else s + poly
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def _power(glyph, n):
    return glyph if n == 1 else "%s^%d" % (glyph, n)


def _render_term(powers, body, left):
    """A coefficient times indeterminate powers, bracketed when compound."""
    if not powers:
        return body
    if ("+" in body) or (" - " in body) or body.startswith("-"):
        body = "(%s)" % body
    return "*".join(powers + [body] if left else [body] + powers)


class LambdaPoly:
    """Bracket value sum_n x^n f_n: a finite map n -> SuperPoly.

    The class's `var` is the indeterminate: lambda here, chi in the
    subclass spva.ChiPoly. No value changes after it is built.
    """

    __slots__ = ("alphabet", "coeffs")
    var = LAMBDA

    def __init__(self, alphabet, coeffs=None):
        self.alphabet = alphabet
        self.coeffs = {n: p for n, p in (coeffs or {}).items() if p}

    @classmethod
    def zero(cls, alph):
        return cls(alph)

    @classmethod
    def of(cls, poly: SuperPoly, power=0):
        return cls(poly.alphabet, {power: poly})

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.alphabet == other.alphabet and self.coeffs == other.coeffs

    def get(self, n) -> SuperPoly:
        return self.coeffs.get(n, SuperPoly.zero(self.alphabet))

    def __add__(self, other):
        out = dict(self.coeffs)
        for n, p in other.coeffs.items():
            _acc(out, n, p)
        return type(self)(self.alphabet, out)

    def __neg__(self):
        return type(self)(self.alphabet, {n: -p for n, p in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scalar_mul(self, s: Scalar):
        return type(self)(self.alphabet, {n: p.scalar_mul(s)
                                          for n, p in self.coeffs.items()})

    def mul_left(self, poly: SuperPoly):
        """poly * self: a part of parity q passes x^n at the cost (-1)^{pqn}."""
        if not self.var.parity:
            return type(self)(self.alphabet, {n: poly * p
                                              for n, p in self.coeffs.items()})
        out = {}
        for q in (0, 1):
            part = poly.parity_part(q)
            if not part:
                continue
            for n, p in self.coeffs.items():
                r = part * p
                if r:
                    _acc(out, n, -r if q and n % 2 else r)
        return type(self)(self.alphabet, out)

    def mul_right(self, poly: SuperPoly):
        return type(self)(self.alphabet, {n: p * poly
                                          for n, p in self.coeffs.items()})

    def shift(self, a=1):
        """Left multiplication by x^a."""
        return type(self)(self.alphabet, {n + a: p for n, p in self.coeffs.items()})

    def apply_plus_d(self, times=1):
        """(x + d)^times applied to self."""
        if not times:
            return self
        odd = self.var.parity
        cur = self.coeffs
        for _ in range(times):
            out = {}
            for n, p in cur.items():
                dp = p.deriv()
                if odd and n % 2:
                    p, dp = -p, -dp
                _acc(out, n + 1, p)
                if dp:
                    _acc(out, n, dp)
            cur = out
        return type(self)(self.alphabet, cur)

    def flip(self):
        """sum_n (-x-d)^n f_n: the skew-symmetry substitution."""
        out = self.zero(self.alphabet)
        for n, p in self.coeffs.items():
            out = out + _signed(self.of(p).apply_plus_d(n), n)
        return out

    subs_neg_lambda_del = flip

    def max_power(self):
        return max(self.coeffs, default=-1)

    def render(self):
        if not self.coeffs:
            return "0"
        glyph, left = self.var.glyphs[0], self.var.left
        return join_signed([_render_term([_power(glyph, n)] if n else [],
                                         self.coeffs[n].render(), left)
                            for n in sorted(self.coeffs)])

    __str__ = render
    __repr__ = render

    def to_obj(self):
        return [[n, p.to_obj()] for n, p in sorted(self.coeffs.items())]

    @classmethod
    def from_obj(cls, alph, obj):
        return cls(alph, {n: SuperPoly.from_obj(alph, p) for n, p in obj})


def arrow_apply(bracket: LambdaPoly, tail: LambdaPoly, q=0) -> LambdaPoly:
    """{a_{x+d} b}_-> tail = sum_n (-1)^arrow(q,n) (a_(n)b) (x+d)^n tail,
    ab of parity q. For chi the sign is s(ab)^n times the normal-form
    factor (-1)^{n(n-1)/2} of (chi+D)^n, so that the master formula
    reproduces table entries at every chi power (pinned by the oracle;
    only powers >= 2 are sensitive to it)."""
    arrow = bracket.var.arrow
    out = bracket.zero(bracket.alphabet)
    powers = {0: tail}
    for n in range(1, bracket.max_power() + 1):
        powers[n] = powers[n - 1].apply_plus_d()
    for n, coeff in bracket.coeffs.items():
        out = out + _signed(powers[n].mul_left(coeff), arrow(q, n))
    return out


class BracketTable:
    """Brackets of all ordered generator pairs (missing entries are zero);
    the class's `value` is the bracket-value class, ChiPoly in the
    subclass spva.SUSYBracketTable."""

    value = LambdaPoly

    def __init__(self, alphabet, entries=None):
        var = self.value.var
        if alphabet.flavor != var.symbol:
            raise TypeError("%s requires the %s flavor"
                            % (type(self).__name__, ("del", "D")[var.parity]))
        self.alphabet = alphabet
        self.entries = {key: v for key, v in (entries or {}).items() if v}

    def entry(self, i, j) -> LambdaPoly:
        return self.entries.get((i, j), self.value.zero(self.alphabet))

    def set(self, i, j, value: LambdaPoly):
        if value:
            self.entries[(i, j)] = value
        else:
            self.entries.pop((i, j), None)

    def to_obj(self):
        obj = {"alphabet": self.alphabet.to_obj()}
        if self.value.var.tag is not None:
            obj["flavor"] = self.value.var.tag
        obj["entries"] = [[i, j, v.to_obj()]
                          for (i, j), v in sorted(self.entries.items())]
        return obj

    @classmethod
    def from_obj(cls, obj):
        alph = Alphabet.from_obj(obj["alphabet"])
        t = cls(alph)
        for i, j, v in obj["entries"]:
            t.set(i, j, cls.value.from_obj(alph, v))
        return t


def affine_table(g, alphabet, k: Scalar, table_cls=BracketTable,
                 sign=lambda i, j: 0) -> BracketTable:
    """{x_i x x_j} = (-1)^sign(i,j) ([x_i, x_j] + k x (x_i|x_j)) over g's
    basis, in a new table of class table_cls."""
    table = table_cls(alphabet)
    for i in range(g.dim):
        for j in range(g.dim):
            neg = sign(i, j) % 2
            coeffs = {}
            br = g.struct.get((i, j))
            if br is not None:
                coeffs[0] = SuperPoly.linear(
                    alphabet, ((l, -s if neg else s) for l, s in enumerate(br)))
            fv = g.form[i][j]
            if fv:
                c = fv * k
                coeffs[1] = SuperPoly.const(alphabet, -c if neg else c)
            table.set(i, j, table.value(alphabet, coeffs))
    return table


def _parts(poly: SuperPoly):
    """The nonzero parity parts of poly, as (parity, part)."""
    return [(p, h) for p in (0, 1) for h in (poly.parity_part(p),) if h]


def _master(f: SuperPoly, g: SuperPoly, table: BracketTable, max_weight):
    """Master formula: the implementation of master_bracket and
    spva.susy_master_bracket."""
    alph = table.alphabet
    out = table.value.zero(alph)
    for pf, fh in _parts(f):
        for pg, gh in _parts(g):
            out = out + _master_homog(fh, pf, gh, pg, table)
    if max_weight is not None:
        out = table.value(alph, {n: p.truncate_weight(max_weight)
                                 for n, p in out.coeffs.items()})
    return out


def _master_homog(f, pf, g, pg, table: BracketTable):
    alph = table.alphabet
    sign = table.value.var.master
    out = table.value.zero(alph)
    gvars = g.variables()
    for (i, m) in f.variables():
        dfi = f.partial((i, m))
        if not dfi:
            continue
        pi, pim = alph.parities[i], alph.var_parity((i, m))
        inner = table.value.of(dfi).apply_plus_d(m)
        for (j, n) in gvars:
            dgj = g.partial((j, n))
            if not dgj:
                continue
            ent = table.entry(i, j)
            if not ent:
                continue
            pj = alph.parities[j]
            val = arrow_apply(ent, inner, pi + pj).apply_plus_d(n).mul_left(dgj)
            out = out + _signed(val, sign(pf, pg, pi, pj, m, n, pim,
                                          alph.var_parity((j, n))))
    return out


def master_bracket(f: SuperPoly, g: SuperPoly, table: BracketTable,
                   max_weight=None) -> LambdaPoly:
    """Master-formula evaluation of {f_lambda g} over the table."""
    return _master(f, g, table, max_weight)


def _oracle(a: SuperPoly, b: SuperPoly, table: BracketTable):
    """Axioms-driven evaluation: the implementation of bracket_oracle and
    spva.susy_bracket_oracle. It never calls a master formula."""
    alph = table.alphabet
    out = table.value.zero(alph)
    for mono_a, ca in a.terms.items():
        fa = SuperPoly(alph, {mono_a: ca})
        for mono_b, cb in b.terms.items():
            fb = SuperPoly(alph, {mono_b: cb})
            out = out + _oracle_mono(fa, mono_a, fb, mono_b, table)
    return out


def _factors(mono):
    out = []
    for v, e in mono:
        out.extend([v] * e)
    return out


def _oracle_mono(fa, mono_a, fb, mono_b, table):
    alph = table.alphabet
    var = table.value.var
    fac_a = _factors(mono_a)
    fac_b = _factors(mono_b)
    if not fac_a or not fac_b:
        return table.value.zero(alph)  # bracket with a constant vanishes
    if len(fac_b) > 1:
        # right Leibniz: {a_x w rest} = {a_x w} rest + s(w, rest){a_x rest} w
        w = fac_b[0]
        wpoly = SuperPoly.variable(alph, w[0], w[1])
        (v, e), rest_t = mono_b[0], mono_b[1:]
        rest_mono = ((v, e - 1),) + rest_t if e > 1 else rest_t
        rest = SuperPoly(alph, {rest_mono: fb.terms[mono_b]})
        t1 = _oracle_mono(fa, mono_a, wpoly, ((w, 1),), table).mul_right(rest)
        pw = alph.var_parity(w)
        prest = sum(alph.var_parity(u) for u in _factors(rest_mono))
        t2 = _oracle_mono(fa, mono_a, rest, rest_mono, table).mul_right(wpoly)
        return t1 + _signed(t2, pw * prest)
    if len(fac_a) > 1:
        # skew: {A_x B} = (-1)^skew s(A,B){B_{-x-d} A}; B is now composite
        pa = sum(alph.var_parity(v) for v in fac_a)
        pb = sum(alph.var_parity(v) for v in fac_b)
        rev = _oracle_mono(fb, mono_b, fa, mono_a, table).flip()
        return _signed(rev, var.skew + pa * pb)
    (i, m), = fac_a
    (j, n), = fac_b
    # sesquilinearity in both arguments, from the table entry
    val = _signed(table.entry(i, j).shift(m), var.d_left * m)
    val = _signed(val.apply_plus_d(n), var.d_right(alph.var_parity((i, m))) * n)
    return val.scalar_mul(fa.terms[mono_a] * fb.terms[mono_b])


def bracket_oracle(a: SuperPoly, b: SuperPoly, table: BracketTable) -> LambdaPoly:
    """Axioms-driven evaluation (sesquilinearity, right Leibniz, skew);
    the independent oracle for the master formula."""
    return _oracle(a, b, table)


def skew_defect(f: SuperPoly, g: SuperPoly, table: BracketTable,
                evaluator=master_bracket) -> LambdaPoly:
    """[f_x g] - (-1)^skew s(f,g)[g_{-x-d} f]; zero iff skew holds."""
    skew = table.value.var.skew
    out = evaluator(f, g, table)
    for pf, fh in _parts(f):
        for pg, gh in _parts(g):
            out = out - _signed(evaluator(gh, fh, table).flip(), skew + pf * pg)
    return out


def _labelled(table, polys):
    """The polynomials to check and their labels: the generators by default."""
    alph = table.alphabet
    if polys is None:
        return ([SuperPoly.variable(alph, i) for i in range(len(alph))],
                list(alph.names))
    return polys, ["p%d" % t for t in range(len(polys))]


def check_skew(table: BracketTable, polys=None, evaluator=master_bracket):
    """Report of violating pairs; checks the generator table by default."""
    polys, labels = _labelled(table, polys)
    return [(labels[a], labels[b]) for a in range(len(polys))
            for b in range(len(polys))
            if skew_defect(polys[a], polys[b], table, evaluator)]


class Lambda2Poly:
    """Normal form sum x^i y^j f_ij in two indeterminates of one parity:
    lambda and mu, or the anticommuting chi and gamma."""

    __slots__ = ("alphabet", "var", "coeffs")

    def __init__(self, alphabet, var):
        self.alphabet = alphabet
        self.var = var
        self.coeffs = {}

    def __bool__(self):
        return bool(self.coeffs)

    def add_term(self, i, j, poly):
        _acc(self.coeffs, (i, j), poly)

    def render(self):
        if not self.coeffs:
            return "0"
        (gx, gy), left = self.var.glyphs, self.var.left
        parts = []
        for (i, j) in sorted(self.coeffs):
            powers = ([_power(gx, i)] if i else []) + ([_power(gy, j)] if j else [])
            parts.append(_render_term(powers, self.coeffs[(i, j)].render(), left))
        return join_signed(parts)

    __str__ = render


def jacobi_defect(a: SuperPoly, b: SuperPoly, c: SuperPoly,
                  table: BracketTable, evaluator=master_bracket) -> Lambda2Poly:
    """[a_x [b_y c]] - [[a_x b]_{x+y} c] - s(a,b)[b_y [a_x c]] for lambda,
    [a_x [b_y c]] + s(a)[[a_x b]_{x+y} c] + s(a,b)s(a)s(b)[b_y [a_x c]]
    for chi (x = chi, y = gamma), exactly; zero iff Jacobi holds."""
    var = table.value.var
    sign1, sign2, sign3 = var.jacobi
    out = Lambda2Poly(table.alphabet, var)
    split = [(pa, ah, pb, bh) for pa, ah in _parts(a) for pb, bh in _parts(b)]
    # the lambda signs of the first two terms depend on no parity
    whole = split if var.parity else [(0, a, 0, b)]
    for pa, ah, pb, bh in whole:    # [a_x [b_y c]]
        for i, p in evaluator(bh, c, table).coeffs.items():
            for o, q in evaluator(ah, p, table).coeffs.items():
                out.add_term(o, i, _signed(q, sign1(pa, pb, i, o)))
    for pa, ah, pb, bh in whole:    # [[a_x b]_{x+y} c]
        for i, p in evaluator(ah, bh, table).coeffs.items():
            for o, q in evaluator(p, c, table).coeffs.items():
                s = -1 if sign2(pa, pb, i, o) % 2 else 1
                for (t, u), coeff in var.binomial(o).items():
                    out.add_term(i + t, u, q.scale(s * coeff))
    for pa, ah, pb, bh in split:    # [b_y [a_x c]]
        for i, p in evaluator(ah, c, table).coeffs.items():
            for o, q in evaluator(bh, p, table).coeffs.items():
                out.add_term(i, o, _signed(q, sign3(pa, pb, i, o)))
    return out


def check_jacobi(table: BracketTable, triples=None, polys=None,
                 evaluator=master_bracket):
    """Report of violating triples; defaults to all generator triples."""
    polys, labels = _labelled(table, polys)
    if triples is None:
        n = len(polys)
        triples = [(a, b, c) for a in range(n) for b in range(n) for c in range(n)]
    return [(labels[a], labels[b], labels[c]) for (a, b, c) in triples
            if jacobi_defect(polys[a], polys[b], polys[c], table, evaluator)]


def leibniz_defects(a, b, c, table: BracketTable, evaluator=master_bracket):
    """Right: {a_x bc} - {a_x b}c - s(b,c){a_x c}b.
    Left: {ab_x c} - s(b,c){a_{x+d}c}_->b - s(a,bc){b_{x+d}c}_->a."""
    odd = table.value.var.parity
    right = evaluator(a, b * c, table)
    left = evaluator(a * b, c, table)
    c_parts = _parts(c)
    for pa, ah in _parts(a):
        for pb, bh in _parts(b):
            # {a_x b}c takes no sign; the chi side brackets once per part of c
            for _pc, ch in (c_parts if odd else [(0, c)]):
                right = right - evaluator(ah, bh, table).mul_right(ch)
            for pc, ch in c_parts:
                t = evaluator(ah, ch, table).mul_right(bh)
                right = right - _signed(t, pb * pc)
                t1 = arrow_apply(evaluator(ah, ch, table), table.value.of(bh),
                                 pa + pc)
                t2 = arrow_apply(evaluator(bh, ch, table), table.value.of(ah),
                                 pb + pc)
                left = left - _signed(t1, pb * pc) - _signed(t2, pa * (pb + pc))
    return right, left


def sesquilinearity_defects(a, b, table: BracketTable, evaluator=master_bracket):
    """[da_x b] - (-1)^d_left x[a_x b] and
    [a_x db] - sum_q (-1)^d_right(q) (x+d)[a_q x b] over the parity parts
    a_q of a: ([da_l b] + l[a_l b], [a_l db] - (l+d)[a_l b]) for lambda,
    ([Da_chi b] - chi[a_chi b], [a_chi Db] + s(a)(D+chi)[a_chi b]) for chi."""
    var = table.value.var
    d1 = evaluator(a.deriv(), b, table)
    base = evaluator(a, b, table)
    d1 = d1 - _signed(base.shift(), var.d_left)
    d2 = evaluator(a, b.deriv(), table)
    # a lambda-bracket needs no split by the parity of a
    parts = ([(pa, evaluator(ah, b, table)) for pa, ah in _parts(a)]
             if var.parity else [(0, base)])
    for pa, value in parts:
        d2 = d2 - _signed(value.apply_plus_d(), var.d_right(pa))
    return d1, d2


def random_property_suite(table: BracketTable, seed, rounds=6, allowed_gens=None,
                          evaluator=master_bracket, oracle=bracket_oracle):
    """Seeded randomized checks: skew, Jacobi, Leibniz, sesquilinearity and
    master formula against the oracle."""
    rng = random.Random(seed)
    alph = table.alphabet
    labels = table.value.var.labels
    failures = []
    for r in range(rounds):
        a = random_superpoly(alph, rng, allowed_gens=allowed_gens)
        b = random_superpoly(alph, rng, allowed_gens=allowed_gens)
        c = random_superpoly(alph, rng, allowed_gens=allowed_gens)
        found = [skew_defect(a, b, table, evaluator),
                 jacobi_defect(a, b, c, table, evaluator)]
        found += leibniz_defects(a, b, c, table, evaluator)
        found += sesquilinearity_defects(a, b, table, evaluator)
        failures += [(label, r) for label, d in zip(labels, found) if d]
        if evaluator(a, b, table) != oracle(a, b, table):
            failures.append(("master-vs-oracle", r))
    return failures
