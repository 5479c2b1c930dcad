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
the Jacobi identity in two independent indeterminates. Each check hands
its evaluator one operator for every left argument that it brackets more
than once, and drops it when it returns (see LeftBracket); the Jacobi
check folds the parity parts of its first argument (see jacobi_defect).
This module holds the lambda record and names; spva holds chi.

Packed values. A bracket value is stored as a SuperPoly is: one flat dict
of integer numerators over one denominator, the power n of x in each key's
x field (see superpoly), and its content cancelled once, when the value is
built. LambdaPoly and Lambda2Poly are subclasses of superpoly._Packed, so
equality, hashing, sums, negation, scalar_mul, rename and
packed_coefficients run the polynomial's code on the whole value. Every
step of the master formula runs on whole values: one product multiplies a
partial by all of (x+d)^n B, one pass over the dict applies x + d, and
the sums go into one running sum per value. The chi signs come
from the x field's low bit, an odd bit over a D alphabet: (-1)^{pqn} of a
polynomial passing chi^n from the Koszul sign of the product, (-1)^n of
(chi + D) from the pass. The Jacobi defect keeps x^i y^j f_ij the same way,
j in the y field. A power of x or y past 127 raises ExponentOverflowError.
Families. The y field also holds a tag: _tag packs up to 128 polynomials
or bracket values, member c at y^c, into one value, which a linear map
that carries the field (a LeftBracket call, at_zero, rename, substitute)
maps whole, and _untag splits the image by the field. bracket_table
brackets the columns of a row this way, and the generator solve
(wclassical.ansatz_terms) and the d_[0]^2 check (brst) their monomials
and variables; the oracle, which reads tuple monomials, takes a family
member by member.
`coeffs` is a read-only view {n: SuperPoly} built on first read, for
rendering, serialization and the readers that take a value apart; copies
and pickles go through it, as slots are given per process.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb, lcm
from operator import methodcaller
from types import MappingProxyType

from .scalars import Scalar, join_signed
from .superpoly import (FLAVOR_D, FLAVOR_DEL, Alphabet, FlavorError,
                        SuperPoly, random_superpoly)
from .superpoly import (_MAX_EXP, _X, _X_FIELD, _X_GUARD, _X_SHIFT,
                        _XY_FIELDS, _Y, _Y_FIELD, _Packed, _add_flat,
                        _add_into, _align, _cancel, _groups, _mul_flat,
                        _mul_into, _overflow, _plus_d, _poly)

_new = object.__new__


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


def _xy(i, j=0):
    """The key offset of x^i y^j; a power past 127 (or below 0) raises
    ExponentOverflowError."""
    if not (0 <= i <= _MAX_EXP and 0 <= j <= _MAX_EXP):
        _overflow()
    return i * _X + j * _Y


def _packed(alph, items):
    """(numerators, denominator) of the sum of x^i y^j f over (offset of
    x^i y^j, SuperPoly f) items with distinct offsets, each f over alph
    brought to the lcm of the denominators. Each f is in normal form, so
    the sum is too: the gcd over f of lcm / den(f) is 1."""
    den = lcm(*[f._den for _off, f in items])
    flat = {}
    for off, f in items:
        if f.alphabet is not alph and f.alphabet != alph:
            raise FlavorError("coefficient over another alphabet")
        m = den // f._den
        for key, g in f._flat.items():
            flat[key + off] = g * m
    return flat, den


def _check_flavor(alph, var):
    if alph.flavor != var.symbol:
        raise FlavorError("a %s value needs an alphabet of flavor %s"
                          % (var.glyphs[0], var.symbol))


def _value(cls, alph, flat, den):
    """A bracket value of class cls over alph that takes over flat over
    den, in normal form already."""
    v = _new(cls)
    v.alphabet = alph
    v._flat = flat
    v._den = den
    v._coeffs = None
    return v


def _built(cls, alph, entry):
    """The bracket value of class cls summed in entry, a running sum
    [numerators, denominator]: its content is cancelled here, once."""
    return _value(cls, alph, *_cancel(*entry))


def _add_value(out, value, e=0):
    """out += (-1)^e value for a bracket value; out is a running sum."""
    _add_into(out, value._flat, value._den, -1 if e & 1 else 1)


def _render(value):
    """The render of a LambdaPoly or a Lambda2Poly: each coefficient with
    the powers of x (and y) of its key, bracketed when compound."""
    coeffs = value.coeffs
    if not coeffs:
        return "0"
    glyphs, left = value.var.glyphs, value.var.left
    parts = []
    for key in sorted(coeffs):
        body = coeffs[key].render()
        powers = [g if e == 1 else "%s^%d" % (g, e) for g, e in
                  zip(glyphs, key if type(key) is tuple else (key,)) if e]
        if powers:
            if ("+" in body) or (" - " in body) or body.startswith("-"):
                body = "(%s)" % body
            body = "*".join(powers + [body] if left else [body] + powers)
        parts.append(body)
    return join_signed(parts)


class LambdaPoly(_Packed):
    """Bracket value sum_n x^n f_n, stored packed as a SuperPoly is, in a
    superpoly._Packed whose keys carry n in their x field (see the module
    docstring); a sum with another class raises TypeError. A power of x
    past 127 raises ExponentOverflowError.

    The class's `var` is the indeterminate: lambda here, chi in the
    subclass spva.ChiPoly, whose alphabet must have the matching flavor.
    `coeffs` is a read-only view {n: f_n} with SuperPoly f_n, built on first
    read; `LambdaPoly(alphabet, {n: f_n})` builds a value from one. No value
    changes after it is built.
    """

    __slots__ = ("_coeffs",)
    var = LAMBDA

    def __init__(self, alphabet, coeffs=None):
        _check_flavor(alphabet, self.var)
        self.alphabet = alphabet
        self._flat, self._den = _packed(alphabet, [
            (_xy(n), p) for n, p in (coeffs or {}).items() if p])
        self._coeffs = None

    @classmethod
    def zero(cls, alph):
        return cls(alph)

    @classmethod
    def of(cls, poly: SuperPoly):
        """poly at x^0, or the value whose whole form (_whole) poly is; the
        value shares poly's numerators, which neither changes."""
        _check_flavor(poly.alphabet, cls.var)
        return _value(cls, poly.alphabet, poly._flat, poly._den)

    def _whole(self):
        """self as one SuperPoly whose keys keep their x fields, for
        SuperPoly.substitute, which carries every bit below the variables
        over; never handed out, as its terms would drop the powers of x."""
        return _poly(self.alphabet, self._flat, self._den)

    def _like(self, alph, flat, den):
        if alph is not self.alphabet:
            _check_flavor(alph, self.var)
        return _value(type(self), alph, *_cancel(flat, den))

    @property
    def coeffs(self):
        """A read-only {n: f_n} view, built on first read."""
        view = self._coeffs
        if view is None:
            view = self._coeffs = MappingProxyType(self._split())
        return view

    def _split(self):
        """{n: f_n} by ascending n, each f_n in its own normal form; not
        kept, so that an intermediate value holds one form."""
        alph, den = self.alphabet, self._den
        return {bits >> _X_SHIFT: _poly(alph, flat, den) for bits, flat
                in sorted(_groups(self._flat, _X_FIELD).items())}

    def __reduce__(self):
        # slots are given per process: copies and pickles carry the view
        return type(self), (self.alphabet, dict(self.coeffs))

    def get(self, n) -> SuperPoly:
        return self.coeffs.get(n, SuperPoly.zero(self.alphabet))

    def mul_left(self, poly: SuperPoly):
        """poly * self: a term of parity q passes x^n at the cost (-1)^{pqn},
        the sign of chi's odd bit (see superpoly._mul_flat)."""
        self._check(poly)
        out = {}
        _mul_flat(out, poly._flat, self._flat, self.alphabet._layout)
        return self._like(self.alphabet, out, poly._den * self._den)

    def mul_right(self, poly: SuperPoly):
        self._check(poly)
        out = {}
        _mul_flat(out, self._flat, poly._flat, self.alphabet._layout)
        return self._like(self.alphabet, out, self._den * poly._den)

    def shift(self, a=1):
        """Left multiplication by x^a."""
        d = _xy(a)
        flat = {key + d: g for key, g in self._flat.items()}
        if any(key & _X_GUARD for key in flat):
            _overflow()
        return _value(type(self), self.alphabet, flat, self._den)

    def apply_plus_d(self, times=1):
        """(x + d)^times applied to self, one pass over the terms per power."""
        if not times:
            return self
        alph, flat = self.alphabet, self._flat
        for _ in range(times):
            flat = _plus_d(alph, flat)
        return self._like(alph, flat, self._den)

    def flip(self):
        """sum_n (-x-d)^n f_n, the skew-symmetry substitution, by Horner's
        rule: u_N = (-1)^N f_N, u_n = (x+d) u_(n+1) + (-1)^n f_n, and the
        flip is u_0, so each (x+d) is one pass over a whole value."""
        parts = _groups(self._flat, _X_FIELD)
        top = max(parts, default=0) >> _X_SHIFT
        if not top:
            return self
        alph = self.alphabet
        cur = parts[top * _X]
        if top & 1:
            cur = {key: -g for key, g in cur.items()}
        for n in range(top - 1, -1, -1):
            cur = _plus_d(alph, cur)
            f = parts.get(n * _X)
            if f is not None:
                _add_flat(cur, f, -1 if n & 1 else 1)
        return self._like(alph, cur, self._den)

    def substitute(self, images, target):
        """SuperPoly.substitute of every coefficient, in one substitution of
        the whole value (an even homomorphism commutes with x)."""
        return self.of(self._whole().substitute(images, target))

    render = _render
    __str__ = render
    __repr__ = render

    def to_obj(self):
        return [[n, p.to_obj()] for n, p in sorted(self.coeffs.items())]

    @classmethod
    def from_obj(cls, alph, obj):
        return cls(alph, {n: SuperPoly.from_obj(alph, p) for n, p in obj})


_PLUS_D, _DERIV = methodcaller("apply_plus_d"), methodcaller("deriv")


def _grown(seq, n, step):
    """seq[n], where seq[p + 1] = step(seq[p]); seq is extended as far as n
    on demand. Each entry is stored at its own index, never appended, so
    threads that extend one shared list at once store equal values at the
    same place instead of one after another."""
    while len(seq) <= n:
        k = len(seq)
        seq[k:k + 1] = [step(seq[k - 1])]
    return seq[n]


def _plus_d_power(powers, n):
    """(x + d)^n powers[0], where powers lists (x + d)^p powers[0] for
    p = 0, 1, ...; it is extended as far as n on demand."""
    return _grown(powers, n, _PLUS_D)


def _arrow(bracket: LambdaPoly, powers, q) -> LambdaPoly:
    """The arrow sum of arrow_apply, with the tail given as its list of
    (x + d)-powers, which callers reuse across brackets: one product of
    each coefficient of bracket with a whole power of the tail."""
    var, alph = bracket.var, bracket.alphabet
    layout, den = alph._layout, bracket._den
    out = [{}, 1]
    for bits, coeff in _groups(bracket._flat, _X_FIELD).items():
        n = bits >> _X_SHIFT
        tail = _plus_d_power(powers, n)
        _mul_into(out, coeff, den, tail._flat, tail._den, layout,
                  -1 if var.arrow(q, n) & 1 else 1)
    return _built(type(bracket), alph, out)


def arrow_apply(bracket: LambdaPoly, tail: LambdaPoly, q=0) -> LambdaPoly:
    """{a_{x+d} b}_-> tail = sum_n (-1)^arrow(q,n) (a_(n)b) (x+d)^n tail,
    ab of parity q. For chi the sign is s(ab)^n times the normal-form
    factor (-1)^{n(n-1)/2} of (chi+D)^n, so that the master formula
    reproduces table entries at every chi power (pinned by the oracle;
    only powers >= 2 are sensitive to it). The master formula evaluates
    the same sum through _arrow, sharing the powers of its tail."""
    bracket._check(tail)
    return _arrow(bracket, [tail], q)


class BracketTable:
    """Brackets of all ordered generator pairs (missing entries are zero),
    fixed when the table is built and read through the read-only mapping
    `entries`; the class's `value` is the bracket-value class, ChiPoly in
    the subclass spva.SUSYBracketTable."""

    value = LambdaPoly

    def __init__(self, alphabet, entries=None):
        var = self.value.var
        if alphabet.flavor != var.symbol:
            raise TypeError("%s requires the %s flavor"
                            % (type(self).__name__, ("del", "D")[var.parity]))
        self.alphabet = alphabet
        self.entries = MappingProxyType(
            {key: v for key, v in (entries or {}).items() if v})

    def __reduce__(self):
        # pickle cannot write the read-only entries: a copy or a pickle is
        # the table built again from them
        return type(self), (self.alphabet, dict(self.entries))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.alphabet == other.alphabet and self.entries == other.entries

    def entry(self, i, j) -> LambdaPoly:
        return self.entries.get((i, j), self.value.zero(self.alphabet))

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
        return cls(alph, {(i, j): cls.value.from_obj(alph, v)
                          for i, j, v in obj["entries"]})


def affine_table(g, alphabet, k: Scalar, table_cls=BracketTable,
                 sign=lambda i, j: 0) -> BracketTable:
    """{x_i x x_j} = (-1)^sign(i,j) ([x_i, x_j] + k x (x_i|x_j)) over g's
    basis, in a new table of class table_cls."""
    entries = {}
    for i in range(g.dim):
        for j in range(g.dim):
            neg = sign(i, j) % 2
            coeffs = {}
            br = g.struct.get((i, j))
            if br is not None:
                coeffs[0] = SuperPoly.linear(
                    alphabet, ((l, -s if neg else s) for l, s in br))
            fv = g.form[i][j]
            if fv:
                coeffs[1] = SuperPoly.const(alphabet, k.scale(-fv if neg else fv))
            entries[i, j] = table_cls.value(alphabet, coeffs)
    return table_cls(alphabet, entries)


def _parts(poly: SuperPoly):
    """The nonzero parity parts of poly, as (parity, part): poly itself
    when it has one parity, so that it keeps its memos; none for zero."""
    if not poly:
        return ()
    p = poly.parity()
    if p is not None:
        return ((p, poly),)
    return ((0, poly.parity_part(0)), (1, poly.parity_part(1)))


def _twisted(poly: SuperPoly, e):
    """poly^e as (polynomial, sign exponent): poly^0 = poly, and poly^1 =
    poly_0 - poly_1 is its parity twist, which for a one-parity poly of
    parity p is poly itself with the exponent p, so that it keeps its memos."""
    parts = _parts(poly) if e else ()
    if len(parts) == 2:
        return parts[0][1] - parts[1][1], 0
    return poly, parts[0][0] if parts else 0


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
    memos are private: f and the table (fixed when built) are only read,
    and every value handed out is new. Threads may share an operator: a
    memo entry is stored whole, so two threads that build one at once
    store equal values, and a list of powers is extended at each index
    (_grown), never appended to.

    Who shares an operator, and for how long. master_bracket and
    spva.susy_master_bracket take an operator over the same table in place
    of f, and the oracles read its f. The axiom checks build one per left
    argument that they bracket more than once and wclassical.solve_generator
    one per n, each dropped when the call returns; bracket_table builds one
    per row that it is given as a polynomial, dropped when the row is done.
    Two owners keep theirs: brst.BRSTDifferential as first-use attributes
    (d is fixed for the differential's life), and a reduction context one
    per left value of the W brackets (ReductionContext.left_bracket in
    wclassical), which every bracket of that row and the context's direct
    W tables share, until the context holds one per generator and starts
    over."""

    def __init__(self, f: SuperPoly, table: BracketTable):
        self.f = f
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
        acc = [{}, 1]
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
            _add_value(acc, arrow, sign(pf, pg, pi, pj, m, nu,
                                        alph.var_parity((i, m)), pjn))
        sums = self._sums[key] = ([_built(cls, alph, acc)], []) if acc[0] \
            else None
        return sums

    def _partials_of(self, g):
        """(dg/du_j^(n), n, the powers of B) for each partial of g with a
        nonzero B: the one loop over g of both evaluations."""
        alph = self.table.alphabet
        if g.alphabet is not alph and g.alphabet != alph:
            raise FlavorError("polynomials over different alphabets")
        odd_x = self.table.value.var.parity
        for pg, grad in g.parity_gradients():
            nu_mask = odd_x & (pg ^ 1)
            for (j, n), dgj in grad:
                sums = self._sum_powers(pg, j, n & nu_mask)
                if sums is not None:
                    yield dgj, n, sums

    def __call__(self, g: SuperPoly) -> LambdaPoly:
        """One product of each partial of g with a whole (x+d)^n B; chi's
        odd bit signs each term that passes chi^n."""
        alph = self.table.alphabet
        layout = alph._layout
        out = [{}, 1]
        for dgj, n, (powers, _zeros) in self._partials_of(g):
            tail = _plus_d_power(powers, n)
            _mul_into(out, dgj._flat, dgj._den, tail._flat, tail._den, layout)
        return _built(self.table.value, alph, out)

    def at_zero(self, g: SuperPoly) -> SuperPoly:
        """The x^0 coefficient of {f_x g}. x + d never lowers the power of
        x, so that of (x+d)^n B is d^n B_0, B_0 the x^0 coefficient of B,
        and it takes no sign from passing dg/du_j^(n). B_0 is read from B
        once, and each of its derivatives built once."""
        alph = self.table.alphabet
        layout = alph._layout
        out = [{}, 1]
        for dgj, n, (powers, zeros) in self._partials_of(g):
            if not zeros:
                b = powers[0]
                zeros[:1] = [_poly(alph, {key: v for key, v in b._flat.items()
                                          if not key & _X_FIELD}, b._den)]
            z = _grown(zeros, n, _DERIV)
            if z:
                _mul_into(out, dgj._flat, dgj._den, z._flat, z._den, layout)
        return _poly(alph, *out)


def _operator(f, table: BracketTable) -> LeftBracket:
    """f itself when it is an operator (over table), else a new one."""
    if type(f) is not LeftBracket:
        return LeftBracket(f, table)
    if f.table is not table:
        raise ValueError("operator built over another table")
    return f


def master_bracket(f, g: SuperPoly, table: BracketTable) -> LambdaPoly:
    """Master-formula evaluation of {f_lambda g} over the table; f is a
    SuperPoly or a LeftBracket of it over the same table."""
    return _operator(f, table)(g)


_FAMILY = _MAX_EXP + 1   # the members of one family: tags 0 to 127


def _tag(members):
    """One value of the members' class holding member c at y^c, all over
    the lcm of their denominators: a family, which a linear map that
    carries the y field (see superpoly, "The x and y fields") maps whole.
    At most _FAMILY members, of one class and alphabet, each with its y
    field clear: a Lambda2Poly (its power of y is in that field) or a
    member already tagged raises FlavorError. Each member is in normal
    form, so the family is too (see _packed)."""
    if len(members) > _FAMILY:
        raise ValueError("a family holds at most %d members" % _FAMILY)
    first = members[0]
    cls = type(first)
    if cls is Lambda2Poly:
        raise FlavorError("a Lambda2Poly cannot be a family member")
    den = lcm(*[p._den for p in members])
    flat = {}
    for c, p in enumerate(members):
        if type(p) is not cls:
            raise FlavorError("family members of different classes")
        first._check(p)
        m, off = den // p._den, c * _Y
        for key, g in p._flat.items():
            if key & _Y_FIELD:
                raise FlavorError("a family member already tagged")
            flat[key + off] = g * m
    return first._like(first.alphabet, flat, den)


def _families(members):
    """(s, _tag(members[s:s + _FAMILY])) for s = 0, _FAMILY, ...: the
    members of a list in as few families as hold them."""
    return [(s, _tag(members[s:s + _FAMILY]))
            for s in range(0, len(members), _FAMILY)]


def _untag(value):
    """{c: member c} of the image of a _tag family, each member with its y
    field cleared and in its own normal form; zero members are absent."""
    alph, den = value.alphabet, value._den
    return {bits // _Y: value._like(alph, part, den)
            for bits, part in _groups(value._flat, _Y_FIELD).items()}


# y^1 and the y field in a key of packed_coefficients
_TAG, _TAG_FIELD = _Y >> _X_SHIFT, _Y_FIELD >> _X_SHIFT


def _tagged_coefficients(value):
    """(c, m, kpow, cpow, g) for each term of the image of a _tag family:
    member c's packed_coefficients, c read from the y field of m and
    cleared there, with no member built apart."""
    for m, kp, cp, g in value.packed_coefficients():
        yield (m & _TAG_FIELD) // _TAG, m & ~_TAG_FIELD, kp, cp, g


def bracket_table(values, over: BracketTable, alphabet, rewrite,
                  evaluator=master_bracket) -> BracketTable:
    """The table, of the class of `over`, whose entry (i, j) is the bracket
    of values[i] and values[j] over `over` by `evaluator`, mapped through
    `rewrite` into a value over `alphabet`; one LeftBracket per row. The
    columns go as one family (_tag, _FAMILY at a time), so a row is one
    evaluator call and one rewrite, whose result _untag splits into the
    row's entries: the evaluator and rewrite must be linear in the right
    argument and carry the y field (the master formula, rename,
    substitute, and a LeftBracket's at_zero do). A value may be given as a
    LeftBracket of it over `over`, which then serves its row (as the W
    table's rows are the reduction context's operators); a row given as a
    polynomial gets an operator that is dropped when the row is done."""
    polys = [a.f if type(a) is LeftBracket else a for a in values]
    entries = {}
    families = _families(polys)
    for i, a in enumerate(values):
        row = _operator(a, over)
        for s, family in families:
            for c, v in _untag(rewrite(evaluator(row, family, over))).items():
                entries[i, s + c] = v
    return type(over)(alphabet, entries)


def _oracle(a, b: SuperPoly, table: BracketTable):
    """Axioms-driven evaluation: the implementation of bracket_oracle and
    spva.susy_bracket_oracle. It never calls a master formula: given a
    LeftBracket for a, it reads only the operator's polynomial. The bracket
    is bilinear over Q(i)[k, c], so each pair of monomials is bracketed
    once, with coefficient 1, and taken with the product of the two
    coefficients of every pair of terms. The tuple monomials it reads drop
    the y field, so a family b (_tag) is bracketed member by member and
    the results tagged back."""
    if type(a) is LeftBracket:
        a = a.f
    alph = table.alphabet
    if any(key & _Y_FIELD for key in b._flat):
        parts = _untag(b)
        zero = table.value.zero(alph)
        return _tag([_oracle(a, parts[c], table) if c in parts else zero
                     for c in range(max(parts) + 1)])
    out = [{}, 1]
    units = {}
    for mono_a, ka, ca, ga in a.coefficients():
        for mono_b, kb, cb, gb in b.coefficients():
            unit = units.get((mono_a, mono_b))
            if unit is None:
                unit = units[mono_a, mono_b] = _oracle_mono(mono_a, mono_b,
                                                            table)
            _add_value(out, unit.scalar_mul(Scalar.term(ka + kb, ca + cb,
                                                        ga * gb)))
    return _built(table.value, alph, out)


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


def bracket_oracle(a, b: SuperPoly, table: BracketTable) -> LambdaPoly:
    """Axioms-driven evaluation (sesquilinearity, right Leibniz, skew);
    the independent oracle for the master formula. a is a SuperPoly or a
    LeftBracket of it, as for master_bracket."""
    return _oracle(a, b, table)


def skew_defect(f: SuperPoly, g: SuperPoly, table: BracketTable,
                evaluator=master_bracket) -> LambdaPoly:
    """[f_x g] - (-1)^skew s(f,g)[g_{-x-d} f]; zero iff skew holds. The
    sign over the parity parts f_p of f and g_q of g is affine in p, with
    slope q, and the bracket is linear in its right argument, so each part
    g_q brackets f^q once (see _twisted): sum_p (-1)^{pq} [g_q f_p] =
    [g_q f^q]."""
    skew = table.value.var.skew
    out = [{}, 1]
    _add_value(out, evaluator(f, g, table))
    for pg, gh in _parts(g):
        fe, neg = _twisted(f, pg)
        _add_value(out, evaluator(gh, fe, table).flip(), 1 + skew + neg)
    return _built(table.value, table.alphabet, out)


def check_skew(table: BracketTable, evaluator=master_bracket):
    """Report of the generator pairs that violate skewsymmetry."""
    alph = table.alphabet
    n, gens = len(alph), [SuperPoly.variable(alph, i) for i in range(len(alph))]
    return [(alph.names[a], alph.names[b]) for a in range(n) for b in range(n)
            if skew_defect(gens[a], gens[b], table, evaluator)]


class Lambda2Poly(_Packed):
    """Normal form sum x^i y^j f_ij in two indeterminates of one parity:
    lambda and mu, or the anticommuting chi and gamma, stored packed as a
    LambdaPoly is, with j in the y field; a power past 127 raises
    ExponentOverflowError. The alphabet has var's flavor, so it fixes var,
    and equality need not read var. coeffs is a read-only view
    {(i, j): f_ij}, built on first read."""

    __slots__ = ("var", "_coeffs")

    def __init__(self, alphabet, var, coeffs=None):
        _check_flavor(alphabet, var)
        self.alphabet = alphabet
        self.var = var
        self._flat, self._den = _packed(alphabet, [
            (_xy(i, j), p) for (i, j), p in (coeffs or {}).items() if p])
        self._coeffs = None

    def _like(self, alph, flat, den):
        if alph is not self.alphabet:
            _check_flavor(alph, self.var)
        v = _value(Lambda2Poly, alph, *_cancel(flat, den))
        v.var = self.var
        return v

    @property
    def coeffs(self):
        view = self._coeffs
        if view is None:
            alph, den = self.alphabet, self._den
            view = self._coeffs = MappingProxyType(dict(sorted(
                (((bits & _X_FIELD) // _X, bits // _Y), _poly(alph, flat, den))
                for bits, flat in _groups(self._flat, _XY_FIELDS).items())))
        return view

    def __reduce__(self):
        return Lambda2Poly, (self.alphabet, self.var, dict(self.coeffs))

    render = _render
    __str__ = render


def _slope(rule, *rest):
    """The slope e of a Jacobi sign rule in p(a), at the given arguments:
    rule(p(a), *rest) = rule(0, *rest) + e p(a) mod 2."""
    return (rule(1, *rest) - rule(0, *rest)) & 1


def _place(out, value, moves):
    """out += each term x^o f of the bracket value put at x^i y^j f times s,
    for each (offset of x^i y^j, s) in moves(o); out is a running sum.
    moves is read once per power o."""
    den = value._den
    m = 1 if out[1] == den else _align(out, den)
    acc = out[0]
    get = acc.get
    found = {}
    for key, g in value._flat.items():
        bits = key & _X_FIELD
        steps = found.get(bits)
        if steps is None:
            steps = found[bits] = [(off - bits, s * m)
                                   for off, s in moves(bits >> _X_SHIFT)]
        for delta, s in steps:
            to = key + delta
            v = get(to)
            if v is None:
                acc[to] = g * s
            else:
                v += g * s
                if v:
                    acc[to] = v
                else:
                    del acc[to]


def jacobi_defect(a: SuperPoly, b: SuperPoly, c: SuperPoly,
                  table: BracketTable, evaluator=master_bracket) -> Lambda2Poly:
    """[a_x [b_y c]] - [[a_x b]_{x+y} c] - s(a,b)[b_y [a_x c]] for lambda,
    [a_x [b_y c]] + s(a)[[a_x b]_{x+y} c] + s(a,b)s(a)s(b)[b_y [a_x c]]
    for chi (x = chi, y = gamma), exactly; zero iff Jacobi holds.

    The parity fold. Each term sums, over the parity parts a_p of a,
    brackets with a_p on the left, each signed by a rule of var.jacobi.
    Every rule is affine in p = p(a) mod 2, rule(p, ...) = rule(0, ...)
    + e p, and its slope e reads
    - in the first term only the inner power i (lambda: 0, chi: i);
    - in the second term nothing (lambda: 0, chi: 1);
    - in the third term only p(b) (lambda: p(b), chi: 1 + p(b)).
    So e never reads the outer power o, which the bracket with a_p gives.
    The bracket is linear in its left argument, so a term's sum over p is
    sum_p (-1)^{e p} {a_p ...} = {a^e ...}, signed by the rule at p = 0,
    where a^0 = a and a^1 = a_0 - a_1 is the parity twist of a (see
    _twisted). For a mixed-parity a that halves the brackets of the second
    and third terms, and of the first for chi. a and its twist get one
    operator each (the twist of a one-parity a is +-a, through a's
    operator), and so does each parity part of b. Each outer bracket goes
    whole into one packed (x, y) sum (_place), its x^o terms moved to
    their x and y powers with their signs.
    tests/test_master_signs.py pins the slopes of both records."""
    var = table.value.var
    sign1, sign2, sign3 = var.jacobi
    out = [{}, 1]
    op_a = LeftBracket(a, table)
    folded = {}

    def fold(e):
        """The operator of a^e and its sign; the twist is built on first use."""
        if e not in folded:
            poly, neg = _twisted(a, e)
            folded[e] = (op_a if poly is a else LeftBracket(poly, table), neg)
        return folded[e]

    def signed(e, n=1):
        return -n if e & 1 else n

    # the second term first: its outer brackets, each through an operator
    # of its own, are the largest, and meet a's operator still small
    left, neg = fold(_slope(sign2, 0, 0))   # [[a_x b]_{x+y} c]
    for i, p in evaluator(left, b, table)._split().items():
        _place(out, evaluator(p, c, table), lambda o, i=i: [
            (_xy(i + t, u), signed(sign2(0, i, o) + neg, coeff))
            for (t, u), coeff in var.binomial(o).items()])
    b_ops = [(pb, LeftBracket(bh, table)) for pb, bh in _parts(b)]
    bc = evaluator(b_ops[0][1] if len(b_ops) == 1 else b, c, table)._split()
    for i, p in bc.items():          # [a_x [b_y c]]
        left, neg = fold(_slope(sign1, i, 0))
        _place(out, evaluator(left, p, table), lambda o, i=i, neg=neg: [
            (_xy(o, i), signed(sign1(0, i, o) + neg))])
    ac = {}   # operator of a^e -> the coefficients of [a^e_x c]
    for pb, op_b in b_ops:           # [b_y [a_x c]]
        left, neg = fold(_slope(sign3, pb, 0, 0))
        if left not in ac:
            ac[left] = evaluator(left, c, table)._split()
        for i, p in ac[left].items():
            _place(out, evaluator(op_b, p, table),
                   lambda o, i=i, pb=pb, neg=neg: [
                       (_xy(i, o), signed(sign3(0, pb, i, o) + neg))])
    v = _value(Lambda2Poly, table.alphabet, *_cancel(*out))
    v.var = var
    return v


def check_jacobi(table: BracketTable, evaluator=master_bracket):
    """Report of the generator triples that violate the Jacobi identity."""
    alph = table.alphabet
    n, gens = len(alph), [SuperPoly.variable(alph, i) for i in range(len(alph))]
    return [(alph.names[a], alph.names[b], alph.names[c])
            for a in range(n) for b in range(n) for c in range(n)
            if jacobi_defect(gens[a], gens[b], gens[c], table, evaluator)]


def leibniz_defects(a, b, c, table: BracketTable, evaluator=master_bracket):
    """Right: {a_x bc} - {a_x b}c - s(b,c){a_x c}b.
    Left: {ab_x c} - s(b,c){a_{x+d}c}_->b - s(a,bc){b_{x+d}c}_->a.
    a, its parity parts and those of b each bracket through one operator;
    a one-parity a is its own part."""
    alph = table.alphabet
    a_parts, b_parts, c_parts = _parts(a), _parts(b), _parts(c)
    a_ops = [(pa, LeftBracket(ah, table)) for pa, ah in a_parts]
    op_a = a_ops[0][1] if len(a_ops) == 1 else LeftBracket(a, table)
    # {a_x b}c takes no sign
    right = [{}, 1]
    _add_value(right, evaluator(op_a, b * c, table))
    _add_value(right, evaluator(op_a, b, table).mul_right(c), 1)
    left = [{}, 1]
    _add_value(left, evaluator(a * b, c, table))
    bc = {}
    for pb, bh in b_parts:
        op_b = LeftBracket(bh, table)
        for pc, ch in c_parts:
            bc[pb, pc] = evaluator(op_b, ch, table)
    for pa, op in a_ops:
        ah = op.f
        for pc, ch in c_parts:
            ac = evaluator(op, ch, table)
            for pb, bh in b_parts:
                _add_value(right, ac.mul_right(bh), 1 + pb * pc)
                _add_value(left, arrow_apply(ac, table.value.of(bh), pa + pc),
                           1 + pb * pc)
                _add_value(left, arrow_apply(bc[pb, pc], table.value.of(ah),
                                             pb + pc), 1 + pa * (pb + pc))
    return _built(table.value, alph, right), _built(table.value, alph, left)


def sesquilinearity_defects(a, b, table: BracketTable, evaluator=master_bracket):
    """[da_x b] - (-1)^d_left x[a_x b] and
    [a_x db] - sum_q (-1)^d_right(q) (x+d)[a_q x b] over the parity parts
    a_q of a: ([da_l b] + l[a_l b], [a_l db] - (l+d)[a_l b]) for lambda,
    ([Da_chi b] - chi[a_chi b], [a_chi Db] + s(a)(D+chi)[a_chi b]) for chi.
    a brackets b and db through one operator; d_right is affine in q, so
    the sum over q is one bracket of a^e, e its slope (see _twisted)."""
    var = table.value.var
    op_a = LeftBracket(a, table)
    d1 = evaluator(a.deriv(), b, table)
    base = evaluator(op_a, b, table)
    d1 = d1 + base.shift() if var.d_left % 2 else d1 - base.shift()
    d2 = evaluator(op_a, b.deriv(), table)
    ae, neg = _twisted(a, _slope(var.d_right))
    plus_d = (base if ae is a else evaluator(ae, b, table)).apply_plus_d()
    d2 = d2 + plus_d if (var.d_right(0) + neg) % 2 else d2 - plus_d
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
