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
polynomials from a generator table, through an operator (LeftBracket)
that keeps what its left argument contributes; the axioms-driven evaluator
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
                        accumulate_product, random_superpoly)
from .superpoly import accumulate as _acc, accumulated as _built


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


def _acc_value(out, value, e=0):
    """out += (-1)^e value for a bracket value; out is a sum map."""
    neg = e & 1
    for n, p in value.coeffs.items():
        _acc(out, n, p, neg)


def _value(cls, alph, out):
    """The bracket value of class cls summed in the sum map out."""
    return cls(alph, _built(alph, out))


def _mul_into(out, poly, q, value, neg=0):
    """out += (-1)^neg poly * value for poly of parity q: the x^n term
    takes (-1)^{pqn}, p the parity of x (q is read only for an odd x)."""
    odd = q & value.var.parity
    for n, p in value.coeffs.items():
        accumulate_product(out, n, poly, p, neg ^ (odd & n))


def _left_parts(poly, var):
    """poly as (parity, part) pairs for _mul_into: its parity parts when x
    is odd, poly itself when x is even."""
    return _parts(poly) if var.parity else ((0, poly),)


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

    def _plus(self, other, neg):
        out = dict(self.coeffs)
        _acc_value(out, other, neg)
        return _value(type(self), self.alphabet, out)

    def __add__(self, other):
        return self._plus(other, 0)

    def __sub__(self, other):
        return self._plus(other, 1)

    def __neg__(self):
        return type(self)(self.alphabet, {n: -p for n, p in self.coeffs.items()})

    def scalar_mul(self, s: Scalar):
        return type(self)(self.alphabet, {n: p.scalar_mul(s)
                                          for n, p in self.coeffs.items()})

    def mul_left(self, poly: SuperPoly):
        """poly * self: a part of parity q passes x^n at the cost (-1)^{pqn}."""
        out = {}
        for q, part in _left_parts(poly, self.var):
            _mul_into(out, part, q, self)
        return _value(type(self), self.alphabet, out)

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
        alph, odd = self.alphabet, self.var.parity
        cur = self.coeffs
        for _ in range(times):
            out = {}
            for n, p in cur.items():
                neg = odd & n
                _acc(out, n + 1, p, neg)
                _acc(out, n, p.deriv(), neg)
            cur = _built(alph, out)
        return type(self)(alph, cur)

    def flip(self):
        """sum_n (-x-d)^n f_n: the skew-symmetry substitution."""
        out = {}
        for n, p in self.coeffs.items():
            _acc_value(out, self.of(p).apply_plus_d(n), n)
        return _value(type(self), self.alphabet, out)

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
    var = bracket.var
    out = {}
    for n, coeff in bracket.coeffs.items():
        tail = _plus_d_power(powers, n)
        for pc, part in _left_parts(coeff, var):
            _mul_into(out, part, pc, tail, var.arrow(q, n) & 1)
    return _value(type(bracket), bracket.alphabet, out)


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
                coeffs[1] = SuperPoly.const(alphabet, k.scale(-fv if neg else fv))
            table.set(i, j, table.value(alphabet, coeffs))
    return table


def _parts(poly: SuperPoly):
    """The nonzero parity parts of poly, as (parity, part)."""
    return [(p, h) for p in (0, 1) for h in (poly.parity_part(p),) if h]


class LeftBracket:
    """The master formula with its left argument f fixed: calling the
    operator on g gives {f_x g} over the table, the sum over variable pairs
    of +-dg/du_j^(n) (x+d)^n {u_i_{x+d} u_j}_-> (x+d)^m df/du_i^(m), taken
    over the parity parts of f and of g.

    The lambda sign does not read n. The chi sign reads n mod 2 and the
    parity of u_j^(n), which is p(u_j) + n. Raising n by one flips both,
    and the terms of spva.CHI.master change by, in order,
    (p(f) + p(g)) + (p(f) + p(u_i^(m))) + 1 + m + p(u_i) = p(g) + 1 mod 2,
    as p(u_i^(m)) = p(u_i) + m. So for an odd g every n of a generator j
    has one sign, and for an even g the sign reads only nu = n mod 2. Let
    nu be n mod 2 for chi and an even g, and 0 otherwise. Everything but
    the factor dg/du_j^(n) then reads f alone, and the operator builds on
    demand, and keeps:
    1. for each partial df/du_i^(m) of a parity part of f, the (x+d)-powers
       of (x+d)^m df/du_i^(m), as far as the highest entry power met;
    2. for each such partial and each j, the arrow sum with the entry (i, j);
    3. for each (p(g), j, nu), the sum B of those arrow sums over the
       partials of f, each with its sign at n = nu, and the (x+d)-powers of
       B.
    A call multiplies each dg/du_j^(n) of g into (x+d)^n B_{p(g),j,nu}, so
    an operator applied to many right arguments builds each of these once;
    at_zero(g) keeps the d-powers of the x^0 coefficient of each B. The
    memos are private: f and the table are read, never changed, and every
    value handed out is new. The table must not change while the operator
    is in use."""

    def __init__(self, f: SuperPoly, table: BracketTable):
        self.table = table
        self._partials = [(pf, i, m, dfi) for pf, grad in f.parity_gradients()
                          for (i, m), dfi in grad]
        self._inner = {}   # partial index -> (x+d)-powers of its inner term
        self._arrows = {}  # (partial index, j) -> arrow sum
        self._sums = {}    # (p(g), j, nu) -> powers of B and B_0, or None

    def _sum_powers(self, pg, j, nu):
        """The (x+d)-powers of B_{pg,j,nu} and the d-powers of its x^0
        coefficient (filled by at_zero), built on first use; None for 0."""
        key = (pg, j, nu)
        if key in self._sums:
            return self._sums[key]
        table = self.table
        alph, cls = table.alphabet, table.value
        sign = cls.var.master
        pj, pjn = alph.parities[j], alph.var_parity((j, nu))
        acc = {}
        for t, (pf, i, m, dfi) in enumerate(self._partials):
            ent = table.entries.get((i, j))
            if ent is None:
                continue
            pi = alph.parities[i]
            arrow = self._arrows.get((t, j))
            if arrow is None:
                inner = self._inner.get(t)
                if inner is None:
                    inner = self._inner[t] = [cls.of(dfi).apply_plus_d(m)]
                arrow = self._arrows[t, j] = _arrow(ent, inner, pi + pj)
            _acc_value(acc, arrow, sign(pf, pg, pi, pj, m, nu,
                                        alph.var_parity((i, m)), pjn))
        sums = self._sums[key] = ([_value(cls, alph, acc)], []) if acc else None
        return sums

    def _partials_of(self, g):
        """(dg/du_j^(n), its parity, n, the powers of B) for each partial of
        g with a nonzero B: the one loop over g of both evaluations."""
        alph = self.table.alphabet
        odd_x = self.table.value.var.parity
        for pg, grad in g.parity_gradients():
            nu_mask = odd_x & (pg ^ 1)
            for (j, n), dgj in grad:
                sums = self._sum_powers(pg, j, n & nu_mask)
                if sums is not None:
                    yield dgj, pg ^ alph.var_parity((j, n)), n, sums

    def __call__(self, g: SuperPoly) -> LambdaPoly:
        out = {}
        for dgj, q, n, (powers, _zeros) in self._partials_of(g):
            _mul_into(out, dgj, q, _plus_d_power(powers, n))
        return _value(self.table.value, self.table.alphabet, out)

    def at_zero(self, g: SuperPoly) -> SuperPoly:
        """The x^0 coefficient of {f_x g}. x + d never lowers the power of
        x, so that of (x+d)^n B is d^n B_0, B_0 the x^0 coefficient of B,
        and it takes no sign from passing dg/du_j^(n)."""
        alph = self.table.alphabet
        out = {}
        for dgj, _q, n, (powers, zeros) in self._partials_of(g):
            if not zeros:
                zeros.append(powers[0].get(0))
            while len(zeros) <= n:
                zeros.append(zeros[-1].deriv())
            if zeros[n]:
                accumulate_product(out, 0, dgj, zeros[n])
        return _built(alph, out).get(0, SuperPoly.zero(alph))


def master_bracket(f: SuperPoly, g: SuperPoly, table: BracketTable) -> LambdaPoly:
    """Master-formula evaluation of {f_lambda g} over the table."""
    return LeftBracket(f, table)(g)


def _oracle(a: SuperPoly, b: SuperPoly, table: BracketTable):
    """Axioms-driven evaluation: the implementation of bracket_oracle and
    spva.susy_bracket_oracle. It never calls a master formula. The bracket
    is bilinear over Q(i)[k, c], so each pair of monomials is bracketed
    once, with coefficient 1, and taken with the product of the two
    coefficients of every pair of terms."""
    alph = table.alphabet
    out = {}
    units = {}
    for mono_a, ka, ca, ga in a.coefficients():
        for mono_b, kb, cb, gb in b.coefficients():
            unit = units.get((mono_a, mono_b))
            if unit is None:
                unit = units[mono_a, mono_b] = _oracle_mono(mono_a, mono_b,
                                                            table)
            _acc_value(out, unit.scalar_mul(Scalar.term(ka + kb, ca + cb,
                                                        ga * gb)))
    return _value(table.value, alph, out)


def _factors(mono):
    out = []
    for v, e in mono:
        out.extend([v] * e)
    return out


def _oracle_mono(mono_a, mono_b, table):
    """The bracket of the coefficient-1 monomials mono_a and mono_b."""
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
        rest = SuperPoly(alph, {rest_mono: Scalar.one()})
        t1 = _oracle_mono(mono_a, ((w, 1),), table).mul_right(rest)
        pw = alph.var_parity(w)
        prest = sum(alph.var_parity(u) for u in _factors(rest_mono))
        t2 = _oracle_mono(mono_a, rest_mono, table).mul_right(wpoly)
        return t1 + _signed(t2, pw * prest)
    if len(fac_a) > 1:
        # skew: {A_x B} = (-1)^skew s(A,B){B_{-x-d} A}; B is now composite
        pa = sum(alph.var_parity(v) for v in fac_a)
        pb = sum(alph.var_parity(v) for v in fac_b)
        rev = _oracle_mono(mono_b, mono_a, table).flip()
        return _signed(rev, var.skew + pa * pb)
    (i, m), = fac_a
    (j, n), = fac_b
    # sesquilinearity in both arguments, from the table entry
    val = _signed(table.entry(i, j).shift(m), var.d_left * m)
    return _signed(val.apply_plus_d(n), var.d_right(alph.var_parity((i, m))) * n)


def bracket_oracle(a: SuperPoly, b: SuperPoly, table: BracketTable) -> LambdaPoly:
    """Axioms-driven evaluation (sesquilinearity, right Leibniz, skew);
    the independent oracle for the master formula."""
    return _oracle(a, b, table)


def skew_defect(f: SuperPoly, g: SuperPoly, table: BracketTable,
                evaluator=master_bracket) -> LambdaPoly:
    """[f_x g] - (-1)^skew s(f,g)[g_{-x-d} f]; zero iff skew holds."""
    skew = table.value.var.skew
    out = {}
    _acc_value(out, evaluator(f, g, table))
    for pf, fh in _parts(f):
        for pg, gh in _parts(g):
            _acc_value(out, evaluator(gh, fh, table).flip(), 1 + skew + pf * pg)
    return _value(table.value, table.alphabet, out)


def check_skew(table: BracketTable, evaluator=master_bracket):
    """Report of the generator pairs that violate skewsymmetry."""
    alph = table.alphabet
    n, gens = len(alph), [SuperPoly.variable(alph, i) for i in range(len(alph))]
    return [(alph.names[a], alph.names[b]) for a in range(n) for b in range(n)
            if skew_defect(gens[a], gens[b], table, evaluator)]


class Lambda2Poly:
    """Normal form sum x^i y^j f_ij in two indeterminates of one parity:
    lambda and mu, or the anticommuting chi and gamma; coeffs maps (i, j)
    to f_ij."""

    __slots__ = ("alphabet", "var", "coeffs")

    def __init__(self, alphabet, var, coeffs=None):
        self.alphabet = alphabet
        self.var = var
        self.coeffs = {ij: p for ij, p in (coeffs or {}).items() if p}

    def __bool__(self):
        return bool(self.coeffs)

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
    out = {}   # a sum map (i, j) -> f_ij
    a_parts = _parts(a)
    # the first two signs read the parity of a only, the lambda ones none
    a_split = a_parts if var.parity else [(0, a)]
    bc = evaluator(b, c, table).coeffs
    for pa, ah in a_split:          # [a_x [b_y c]]
        for i, p in bc.items():
            for o, q in evaluator(ah, p, table).coeffs.items():
                _acc(out, (o, i), q, sign1(pa, i, o) & 1)
    for pa, ah in a_split:          # [[a_x b]_{x+y} c]
        for i, p in evaluator(ah, b, table).coeffs.items():
            for o, q in evaluator(p, c, table).coeffs.items():
                neg = sign2(pa, i, o) & 1
                for (t, u), coeff in var.binomial(o).items():
                    _acc(out, (i + t, u), q if coeff == 1 else q.scale(coeff),
                         neg)
    b_parts = _parts(b)
    for pa, ah in a_parts:          # [b_y [a_x c]]
        ac = evaluator(ah, c, table).coeffs
        for pb, bh in b_parts:
            for i, p in ac.items():
                for o, q in evaluator(bh, p, table).coeffs.items():
                    _acc(out, (i, o), q, sign3(pa, pb, i, o) & 1)
    return Lambda2Poly(table.alphabet, var, _built(table.alphabet, out))


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
    return _value(table.value, alph, right), _value(table.value, alph, left)


def sesquilinearity_defects(a, b, table: BracketTable, evaluator=master_bracket):
    """[da_x b] - (-1)^d_left x[a_x b] and
    [a_x db] - sum_q (-1)^d_right(q) (x+d)[a_q x b] over the parity parts
    a_q of a: ([da_l b] + l[a_l b], [a_l db] - (l+d)[a_l b]) for lambda,
    ([Da_chi b] - chi[a_chi b], [a_chi Db] + s(a)(D+chi)[a_chi b]) for chi."""
    var = table.value.var
    d1 = evaluator(a.deriv(), b, table)
    base = evaluator(a, b, table)
    d1 = d1 + base.shift() if var.d_left % 2 else d1 - base.shift()
    d2 = evaluator(a, b.deriv(), table)
    # a lambda-bracket needs no split by the parity of a
    parts = ([(pa, evaluator(ah, b, table)) for pa, ah in _parts(a)]
             if var.parity else [(0, base)])
    for pa, value in parts:
        plus_d = value.apply_plus_d()
        d2 = d2 + plus_d if var.d_right(pa) % 2 else d2 - plus_d
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
