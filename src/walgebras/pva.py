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
    jacobi          signs (pa, i, o), (pa, i, o) and (pa, pb, i, o) of the
                    three Jacobi terms, by the x- or y-powers i of the inner
                    and o of the outer bracket; only the third reads pb
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
    jacobi=(lambda pa, i, o: 0, lambda pa, i, o: 1,
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


def _acc_value(out, value, e=0):
    """out += (-1)^e value for a bracket value; out maps n -> SuperPoly."""
    for n, p in value.coeffs.items():
        _acc(out, n, -p if e % 2 else p)


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
        out = {}
        for n, p in self.coeffs.items():
            _acc_value(out, self.of(p).apply_plus_d(n), n)
        return type(self)(self.alphabet, out)

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


def _plus_d_power(powers, n):
    """(x + d)^n powers[0], where powers lists (x + d)^p powers[0] for
    p = 0, 1, ...; it is extended as far as n on demand."""
    while len(powers) <= n:
        powers.append(powers[-1].apply_plus_d())
    return powers[n]


def _arrow(bracket: LambdaPoly, powers, q) -> LambdaPoly:
    """The arrow sum of arrow_apply, with the tail given as its list of
    (x + d)-powers, which callers reuse across brackets."""
    arrow = bracket.var.arrow
    out = {}
    for n, coeff in bracket.coeffs.items():
        _acc_value(out, _plus_d_power(powers, n).mul_left(coeff), arrow(q, n))
    return type(bracket)(bracket.alphabet, out)


def arrow_apply(bracket: LambdaPoly, tail: LambdaPoly, q=0) -> LambdaPoly:
    """{a_{x+d} b}_-> tail = sum_n (-1)^arrow(q,n) (a_(n)b) (x+d)^n tail,
    ab of parity q. For chi the sign is s(ab)^n times the normal-form
    factor (-1)^{n(n-1)/2} of (chi+D)^n, so that the master formula
    reproduces table entries at every chi power (pinned by the oracle;
    only powers >= 2 are sensitive to it). The master formula evaluates
    the same sum through _arrow, sharing the powers of its tail."""
    return _arrow(bracket, [tail], q)


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


def _master(f: SuperPoly, g: SuperPoly, table: BracketTable):
    """Master formula: the implementation of master_bracket and
    spva.susy_master_bracket."""
    out = {}
    for pf, fgrad in f.parity_gradients():
        for pg, ggrad in g.parity_gradients():
            _master_homog(out, fgrad, pf, ggrad, pg, table)
    return table.value(table.alphabet, out)


def _master_homog(out, fgrad, pf, ggrad, pg, table: BracketTable):
    """Adds the master formula of parity-homogeneous f, g to out, given
    their gradients fgrad, ggrad as (variable, partial) pairs: the sum over
    variable pairs of +-dg/du_j^(n) (x+d)^n {u_i_{x+d} u_j}_-> (x+d)^m
    df/du_i^(m).

    For each u_i^(m), the (x+d)-powers of the inner term are built once,
    as far as the highest entry power met; for each j, the arrow sum is
    built once and its (x+d)-powers serve every u_j^(n)."""
    alph = table.alphabet
    sign = table.value.var.master
    for (i, m), dfi in fgrad:
        pi, pim = alph.parities[i], alph.var_parity((i, m))
        inner = [table.value.of(dfi).apply_plus_d(m)]
        outer = {}
        for (j, n), dgj in ggrad:
            ent = table.entry(i, j)
            if not ent:
                continue
            pj = alph.parities[j]
            if j not in outer:
                outer[j] = [_arrow(ent, inner, pi + pj)]
            val = _plus_d_power(outer[j], n).mul_left(dgj)
            _acc_value(out, val, sign(pf, pg, pi, pj, m, n, pim,
                                      alph.var_parity((j, n))))


def master_bracket(f: SuperPoly, g: SuperPoly, table: BracketTable) -> LambdaPoly:
    """Master-formula evaluation of {f_lambda g} over the table."""
    return _master(f, g, table)


def _oracle(a: SuperPoly, b: SuperPoly, table: BracketTable):
    """Axioms-driven evaluation: the implementation of bracket_oracle and
    spva.susy_bracket_oracle. It never calls a master formula."""
    alph = table.alphabet
    out = {}
    for mono_a, ca in a.terms.items():
        fa = SuperPoly(alph, {mono_a: ca})
        for mono_b, cb in b.terms.items():
            fb = SuperPoly(alph, {mono_b: cb})
            _acc_value(out, _oracle_mono(fa, mono_a, fb, mono_b, table))
    return table.value(alph, out)


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


def check_skew(table: BracketTable, evaluator=master_bracket):
    """Report of the generator pairs that violate skewsymmetry."""
    alph = table.alphabet
    n, gens = len(alph), [SuperPoly.variable(alph, i) for i in range(len(alph))]
    return [(alph.names[a], alph.names[b]) for a in range(n) for b in range(n)
            if skew_defect(gens[a], gens[b], table, evaluator)]


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
    a_parts = _parts(a)
    # the first two signs read the parity of a only, the lambda ones none
    a_split = a_parts if var.parity else [(0, a)]
    bc = evaluator(b, c, table).coeffs
    for pa, ah in a_split:          # [a_x [b_y c]]
        for i, p in bc.items():
            for o, q in evaluator(ah, p, table).coeffs.items():
                out.add_term(o, i, _signed(q, sign1(pa, i, o)))
    for pa, ah in a_split:          # [[a_x b]_{x+y} c]
        for i, p in evaluator(ah, b, table).coeffs.items():
            for o, q in evaluator(p, c, table).coeffs.items():
                s = -1 if sign2(pa, i, o) % 2 else 1
                for (t, u), coeff in var.binomial(o).items():
                    out.add_term(i + t, u, q.scale(s * coeff))
    b_parts = _parts(b)
    for pa, ah in a_parts:          # [b_y [a_x c]]
        ac = evaluator(ah, c, table).coeffs
        for pb, bh in b_parts:
            for i, p in ac.items():
                for o, q in evaluator(bh, p, table).coeffs.items():
                    out.add_term(i, o, _signed(q, sign3(pa, pb, i, o)))
    return out


def check_jacobi(table: BracketTable, evaluator=master_bracket):
    """Report of the generator triples that violate the Jacobi identity."""
    alph = table.alphabet
    n, gens = len(alph), [SuperPoly.variable(alph, i) for i in range(len(alph))]
    return [(alph.names[a], alph.names[b], alph.names[c])
            for a in range(n) for b in range(n) for c in range(n)
            if jacobi_defect(gens[a], gens[b], gens[c], table, evaluator)]


def leibniz_defects(a, b, c, table: BracketTable, evaluator=master_bracket):
    """Right: {a_x bc} - {a_x b}c - s(b,c){a_x c}b.
    Left: {ab_x c} - s(b,c){a_{x+d}c}_->b - s(a,bc){b_{x+d}c}_->a."""
    alph = table.alphabet
    # {a_x b}c takes no sign
    right = {}
    _acc_value(right, evaluator(a, b * c, table))
    _acc_value(right, evaluator(a, b, table).mul_right(c), 1)
    left = {}
    _acc_value(left, evaluator(a * b, c, table))
    a_parts, b_parts, c_parts = _parts(a), _parts(b), _parts(c)
    bc = {(pb, pc): evaluator(bh, ch, table)
          for pb, bh in b_parts for pc, ch in c_parts}
    for pa, ah in a_parts:
        for pc, ch in c_parts:
            ac = evaluator(ah, ch, table)
            for pb, bh in b_parts:
                _acc_value(right, ac.mul_right(bh), 1 + pb * pc)
                _acc_value(left, arrow_apply(ac, table.value.of(bh), pa + pc),
                           1 + pb * pc)
                _acc_value(left, arrow_apply(bc[pb, pc], table.value.of(ah),
                                             pb + pc), 1 + pa * (pb + pc))
    return table.value(alph, right), table.value(alph, left)


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


def random_property_suite(table: BracketTable, seed, rounds=6,
                          evaluator=master_bracket, oracle=bracket_oracle):
    """Seeded randomized checks: skew, Jacobi, Leibniz, sesquilinearity and
    master formula against the oracle."""
    import random  # only the seeded suites draw inputs; keep it off start-up
    rng = random.Random(seed)
    alph = table.alphabet
    labels = table.value.var.labels
    failures = []
    for r in range(rounds):
        a = random_superpoly(alph, rng)
        b = random_superpoly(alph, rng)
        c = random_superpoly(alph, rng)
        found = [skew_defect(a, b, table, evaluator),
                 jacobi_defect(a, b, c, table, evaluator)]
        found += leibniz_defects(a, b, c, table, evaluator)
        found += sesquilinearity_defects(a, b, table, evaluator)
        failures += [(label, r) for label, d in zip(labels, found) if d]
        if evaluator(a, b, table) != oracle(a, b, table):
            failures.append(("master-vs-oracle", r))
    return failures
