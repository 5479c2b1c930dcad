"""Exact coefficient arithmetic for the whole engine.

Every coefficient in the engine is a polynomial in the level ``k`` (and,
for the BRST complex, the constant ``c``) whose coefficients are Gaussian
rationals.  Division is only permitted by constants; any computation that
would require dividing by a k- or c-dependent quantity raises instead of
silently moving to a rational-function field.

A Gaussian rational is fraction-free: integer numerators of its real and
imaginary parts over one positive denominator, in lowest terms.  Adding
values over equal denominators needs no cross-multiplication, and
multiplying real values no imaginary products.

GRat and Scalar are the boundary and solver types.  A polynomial does not
store them: ``superpoly`` keeps integer numerators over one denominator
per polynomial, with i as a field of the term key, and builds GRats and
Scalars only where a value leaves it (``terms``, ``coefficients()``) and
reads them where one enters (its constructors).  The linear solver, the
algebra data (structure constants, forms, gradings, spins and weights)
and the scalars of the reduction stay GRats and Scalars.

Also provides the sparse exact linear solver used by the generator and
cohomology solvers.
"""

from __future__ import annotations

import sys
from heapq import heapify, heappop, heappush
from math import gcd


class LinearSolveError(Exception):
    """Raised when an exact linear system is inconsistent or not unique.

    reason: "inconsistent", "underdetermined" or "internal"; the message
    is the reason, followed by details after a colon.
    """

    def __init__(self, reason, detail=None):
        super().__init__(reason if detail is None else "%s: %s" % (reason, detail))
        self.reason = reason


class GRat:
    """Gaussian rational ``(a + b*i)/d``: integers a, b and d > 0.

    The fields are kept in normal form, gcd(a, b, d) = 1 and zero as
    (0, 0, 1), so equal values have equal fields. Results are built by
    ``_mk``/``_norm`` without re-validating.

    GRat is also the engine's one exact rational: gradings, spins and
    weights are real GRats. A real GRat equals, orders and hashes like the
    equal ``int`` or ``Fraction``, and ints and Fractions mix with GRats on
    either side of + - * /. Two GRats meet in the fields directly; any other
    operand is handled in an ``except`` branch, so the kernel's GRat-by-GRat
    path pays nothing for it. An int n is applied to the fields (a + n*d
    over d is in normal form when a/d is), a Fraction is converted first.
    ``Fraction`` itself is imported only by ``_via_fraction``, which reads
    what ``parse_rational`` and the constructor do not read themselves:
    spellings other than integers and p/q, floats and Decimals.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.a, self.b, self.d = re, im, 1
            return
        g = _real(re)
        if type(im) is not int or im:
            h = _real(im)
            g = g + _mk(-h.b, h.a, h.d)  # re + i*im
        self.a, self.b, self.d = g.a, g.b, g.d

    def __bool__(self):
        return bool(self.a or self.b)

    def __eq__(self, other):
        if not isinstance(other, GRat):
            other = _operand(other)
            if other is None:
                return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        a, b, d = self.a, self.b, self.d
        if b:
            return hash((a, b, d))
        if d == 1:
            return hash(a)
        # the numeric hash of a/d, as int, Fraction and float compute it
        try:
            dinv = pow(d, -1, _HASH_MODULUS)
        except ValueError:
            h = _HASH_INF
        else:
            h = hash(hash(abs(a)) * dinv)
        if a < 0:
            h = -h
        return -2 if h == -1 else h

    def __lt__(self, other):
        c = _compare(self, other)
        return c if c is NotImplemented else c < 0

    def __le__(self, other):
        c = _compare(self, other)
        return c if c is NotImplemented else c <= 0

    def __gt__(self, other):
        c = _compare(self, other)
        return c if c is NotImplemented else c > 0

    def __ge__(self, other):
        c = _compare(self, other)
        return c if c is NotImplemented else c >= 0

    def __int__(self):
        if self.b:
            raise TypeError("int() of a Gaussian rational with an imaginary part")
        a, d = self.a, self.d
        return a // d if a >= 0 else -(-a // d)

    def __floordiv__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        if self.b or other.b:
            raise TypeError("floor division of a Gaussian rational with an "
                            "imaginary part")
        return (self.a * other.d) // (other.a * self.d)

    def __add__(self, other):
        try:
            d1, d2 = self.d, other.d
        except AttributeError:
            if isinstance(other, int):
                return _mk(self.a + other * self.d, self.b, self.d)
            other = _operand(other)
            return NotImplemented if other is None else self + other
        if d1 == d2:
            a, b = self.a + other.a, self.b + other.b
            return _mk(a, b, 1) if d1 == 1 else _norm(a, b, d1)
        a = self.a * d2 + other.a * d1
        b = self.b * d2 + other.b * d1
        # coprime denominators leave nothing to cancel
        return _mk(a, b, d1 * d2) if gcd(d1, d2) == 1 else _norm(a, b, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        try:
            d1, d2 = self.d, other.d
        except AttributeError:
            if isinstance(other, int):
                return _mk(self.a - other * self.d, self.b, self.d)
            other = _operand(other)
            return NotImplemented if other is None else self - other
        if d1 == d2:
            a, b = self.a - other.a, self.b - other.b
            return _mk(a, b, 1) if d1 == 1 else _norm(a, b, d1)
        a = self.a * d2 - other.a * d1
        b = self.b * d2 - other.b * d1
        return _mk(a, b, d1 * d2) if gcd(d1, d2) == 1 else _norm(a, b, d1 * d2)

    def __rsub__(self, other):
        if isinstance(other, int):
            return _mk(other * self.d - self.a, -self.b, self.d)
        other = _operand(other)
        return NotImplemented if other is None else other - self

    def __neg__(self):
        return _mk(-self.a, -self.b, self.d)

    def __mul__(self, other):
        try:
            a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        except AttributeError:
            if isinstance(other, int):
                return _times_int(self, other) if other else GR_ZERO
            other = _operand(other)
            return NotImplemented if other is None else self * other
        d = self.d * other.d
        if not b1 and not b2:
            a = a1 * a2
            if d == 1:
                return _mk(a, 0, 1)
            g = gcd(a, d)
            return _mk(a // g, 0, d // g)
        a, b = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
        return _mk(a, b, 1) if d == 1 else _norm(a, b, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # x/y = (a1 + b1 i)(a2 - b2 i) d2 / (d1 (a2^2 + b2^2))
        try:
            a2, b2 = other.a, other.b
        except AttributeError:
            if isinstance(other, int) and other:
                return _norm(self.a, self.b, self.d * other)
            other = _operand(other)
            return NotImplemented if other is None else self / other
        if not b2:
            if not a2:
                raise ZeroDivisionError("division by zero Gaussian rational")
            return _norm(self.a * other.d, self.b * other.d, self.d * a2)
        a1, b1, d2 = self.a, self.b, other.d
        return _norm((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2,
                     self.d * (a2 * a2 + b2 * b2))

    def __rtruediv__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else other / self

    def __str__(self):
        a, b, d = self.a, self.b, self.d
        if not b:
            return str(a) if d == 1 else "%d/%d" % (a, d)
        im = _imag_str(rat(b, d))
        if not a:
            return im
        # a bracketed negative part, "(-1/2)i", is joined with "+" too
        if im.startswith("-"):
            return "%s%s" % (rat(a, d), im)
        return "%s+%s" % (rat(a, d), im)

    __repr__ = __str__


_new = object.__new__
_HASH_MODULUS = sys.hash_info.modulus
_HASH_INF = sys.hash_info.inf


def _mk(a, b, d) -> GRat:
    """A GRat from fields already in normal form."""
    g = _new(GRat)
    g.a = a
    g.b = b
    g.d = d
    return g


def _norm(a, b, d) -> GRat:
    """A GRat from any fields with d != 0: cancel gcd(a, b, d), make d > 0."""
    g = gcd(a, b, d)
    if d < 0:
        g = -g
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _mk(a, b, d)


def _times_int(g: GRat, n: int) -> GRat:
    """g * n for a nonzero int n."""
    d = g.d
    if d != 1:
        h = gcd(n, d)
        if h != 1:
            n, d = n // h, d // h
    return _mk(g.a * n, g.b * n, d)


def _operand(x):
    """x as a GRat if it is one, an int or a Fraction (any exact rational
    with numerator and denominator); None otherwise."""
    if isinstance(x, GRat):
        return x
    try:
        n, d = x.numerator, x.denominator
    except AttributeError:
        return None
    return _norm(n, 0, d)


def _compare(x: GRat, y):
    """An int with the sign of x - y, for real x and a real GRat, int or
    Fraction y; NotImplemented for other y."""
    y = _operand(y)
    if y is None:
        return NotImplemented
    if x.b or y.b:
        raise TypeError("Gaussian rationals with an imaginary part are not ordered")
    return x.a * y.d - y.a * x.d


def rat(n, d=1) -> GRat:
    """The real GRat n/d, for ints n and d != 0."""
    if not d:
        raise ZeroDivisionError("rat(%s, 0)" % n)
    return _norm(n, 0, d)


GR_ZERO = GRat(0)
GR_ONE = GRat(1)


def _imag_str(y: GRat) -> str:
    """y * i for a real y: 'i', '-i', '2i' or '(1/2)i'."""
    if y.d != 1:
        return "(%s)i" % y
    if y.a == 1:
        return "i"
    if y.a == -1:
        return "-i"
    return "%di" % y.a


def parse_rational(text: str) -> GRat:
    """A real GRat from text: the value Fraction(text) has, or its error.

    Integers and p/q (a sign, then ASCII digits) are read with int. Any
    other spelling ('0.5', '1e-1', '1_000', spaces) goes to Fraction, so
    the accepted inputs, their values and the errors are Fraction's.
    """
    num, slash, den = text.partition("/")
    digits = num[1:] if num[:1] in ("+", "-") else num
    if (digits.isdigit() and digits.isascii()
            and (not slash or den.isdigit() and den.isascii())):
        n, d = int(num), int(den) if slash else 1
        if not d:
            raise ZeroDivisionError("Fraction(%s, 0)" % n)
        return _norm(n, 0, d)
    return _via_fraction(text)


def _via_fraction(x) -> GRat:
    """Fraction(x) as a GRat: the fallback for spellings and types (a float,
    a Decimal) that parse_rational and _operand do not read themselves."""
    from fractions import Fraction
    f = Fraction(x)
    return _mk(f.numerator, 0, f.denominator)


def _real(x) -> GRat:
    """x as a GRat: a GRat, an int, a Fraction, a string or anything else
    that Fraction accepts."""
    g = _operand(x)
    if g is not None:
        return g
    if isinstance(x, str):
        return parse_rational(x)
    return _via_fraction(x)


def parse_coeff(text) -> GRat:
    """Parse a file coefficient: 'p/q', '-3', 'i', '-2i', '(1/2)i'."""
    if isinstance(text, int):
        return GRat(text)
    s = str(text).strip().replace(" ", "")
    if s.endswith("i"):
        body = s[:-1].replace("(", "").replace(")", "")
        if body in ("", "+"):
            return GRat(0, 1)
        if body == "-":
            return GRat(0, -1)
        return GRat(0, parse_rational(body))
    return parse_rational(s)


class Scalar:
    """Element of Q(i)[k, c], stored as {(k_power, c_power): GRat}."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {} if terms is None else terms

    # -- constructors -------------------------------------------------
    @staticmethod
    def one() -> "Scalar":
        return Scalar({(0, 0): GR_ONE})

    @staticmethod
    def rational(value) -> "Scalar":
        g = GRat(value)
        return Scalar({(0, 0): g}) if g else Scalar()

    @staticmethod
    def imag() -> "Scalar":
        return Scalar({(0, 0): GRat(0, 1)})

    @staticmethod
    def k() -> "Scalar":
        return Scalar({(1, 0): GR_ONE})

    @staticmethod
    def c() -> "Scalar":
        return Scalar({(0, 1): GR_ONE})

    @staticmethod
    def term(kpow, cpow, coeff: GRat) -> "Scalar":
        return Scalar({(kpow, cpow): coeff}) if coeff else Scalar()

    # -- predicates ---------------------------------------------------
    def __bool__(self):
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(e == (0, 0) for e in self.terms)

    def constant_part(self) -> GRat:
        return self.terms.get((0, 0), GR_ZERO)

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        out = dict(self.terms)
        for e, g in other.terms.items():
            s = out.get(e, GR_ZERO) + g
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Scalar(out)

    def __neg__(self):
        return Scalar({e: -g for e, g in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        out = dict(self.terms)
        for e, g in other.terms.items():
            s = out.get(e)
            s = -g if s is None else s - g
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Scalar(out)

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        if len(self.terms) == 1 and len(other.terms) == 1:
            # Q(i) has no zero divisors: the one product is nonzero
            ((k1, c1), g1), = self.terms.items()
            ((k2, c2), g2), = other.terms.items()
            return Scalar({(k1 + k2, c1 + c2): g1 * g2})
        out = {}
        for (k1, c1), g1 in self.terms.items():
            for (k2, c2), g2 in other.terms.items():
                e = (k1 + k2, c1 + c2)
                s = out.get(e, GR_ZERO) + g1 * g2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Scalar(out)

    def scale(self, factor) -> "Scalar":
        if type(factor) is int:
            if not factor:
                return Scalar()
            if factor == 1:
                return self
            return Scalar({e: _times_int(v, factor) for e, v in self.terms.items()})
        g = _real(factor)
        if not g:
            return Scalar()
        return Scalar({e: v * g for e, v in self.terms.items()})

    # -- rendering / serialization -------------------------------------
    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (kp, cp) in sorted(self.terms):
            g = self.terms[(kp, cp)]
            mono = []
            if kp == 1:
                mono.append("k")
            elif kp > 1:
                mono.append("k^%d" % kp)
            if cp == 1:
                mono.append("c")
            elif cp > 1:
                mono.append("c^%d" % cp)
            gs = str(g)
            if mono and g == GR_ONE:
                parts.append("*".join(mono))
            elif mono and g == -GR_ONE:
                parts.append("-" + "*".join(mono))
            elif mono:
                if "+" in gs or (gs.count("-") and not gs.startswith("-")):
                    gs = "(%s)" % gs
                parts.append("*".join([gs] + mono))
            else:
                parts.append(gs)
        return join_signed(parts)

    __str__ = render
    __repr__ = render

    def to_obj(self):
        return [[e[0], e[1], str(rat(g.a, g.d)), str(rat(g.b, g.d))]
                for e, g in sorted(self.terms.items())]

    @staticmethod
    def from_obj(obj) -> "Scalar":
        terms = {}
        for kp, cp, re, im in obj:
            g = GRat(re, im)
            if g:
                terms[(kp, cp)] = g
        return Scalar(terms)


def join_signed(parts) -> str:
    """Join rendered terms with ' + ' / ' - ' as appropriate."""
    out = parts[0]
    for p in parts[1:]:
        if p.startswith("-"):
            out += " - " + p[1:]
        else:
            out += " + " + p
    return out


def row_echelon(equations, unknowns):
    """Sparse forward elimination of an exact system over Gaussian rationals.

    equations: iterable of (coeffs: {col: GRat}, rhs: GRat)
    unknowns:  ordered list of column keys (pivot preference order)

    Returns the pivots in creation order as (col, row, rhs): the row scaled
    to 1 at col, its lowest-order column, and kept without it. Raises
    LinearSolveError('inconsistent') if a row reduces to 0 = c != 0.

    The rows are taken sparsest first (a stable sort by entry count). Each
    is reduced against the pivots in creation order, through a heap of the
    pivot columns it holds: a pivot row holds no column of an older pivot,
    so eliminating pivot p brings in only columns of newer pivots, and each
    pivot is applied at most once. A reduced row that is not zero makes its
    lowest-order column a pivot. The pivot rows have distinct lowest-order
    columns, so these are the lowest-order columns of the row space: the
    pivot and free columns are those of the reduced row echelon form,
    whatever the order of elimination.
    """
    order = {col: n for n, col in enumerate(unknowns)}
    pivot_of = {}  # col -> creation number of its pivot
    pivots = []    # (col, row without col, rhs), lead normalized to 1

    for coeffs, rhs in sorted(equations, key=lambda eq: len(eq[0])):
        row = {c: g for c, g in coeffs.items() if g}
        heap = [pivot_of[c] for c in row if c in pivot_of]
        heapify(heap)
        while heap:
            col, prow, prhs = pivots[heappop(heap)]
            factor = row.pop(col, None)
            if factor is None:  # cancelled, or queued twice
                continue
            for c2, g2 in prow.items():
                s = row.get(c2)
                if s is None:
                    row[c2] = -(factor * g2)
                    if c2 in pivot_of:
                        heappush(heap, pivot_of[c2])
                else:
                    s = s - factor * g2
                    if s:
                        row[c2] = s
                    else:
                        del row[c2]
            rhs = rhs - factor * prhs
        if not row:
            if rhs:
                raise LinearSolveError("inconsistent")
            continue
        col = min(row, key=order.__getitem__)
        lead = row.pop(col)
        pivot_of[col] = len(pivots)
        pivots.append((col, {c: g / lead for c, g in row.items()}, rhs / lead))
    return pivots


def back_substitute(pivots, solution):
    """Fill solution ({col: GRat}, set at every free column) with the pivot
    columns of row_echelon's pivots, newest first, and return it."""
    for col, row, rhs in reversed(pivots):
        for c2, g2 in row.items():
            x = solution.get(c2)
            if x is None:
                raise LinearSolveError("internal", "pivot row reaches an "
                                       "unsolved column")
            if x:
                rhs = rhs - g2 * x
        solution[col] = rhs
    return solution


def solve_linear(equations, unknowns):
    """The unique solution {col: GRat} of row_echelon's system, in the order
    of unknowns. Raises LinearSolveError with reason 'inconsistent' or
    'underdetermined' otherwise ('internal' flags a broken elimination
    invariant). Neither the result nor the error depends on the order of
    elimination: a uniquely solvable system has one solution, a row reduces
    to 0 = c != 0 in some order exactly when the system is inconsistent, and
    the free columns named are those of the reduced row echelon form."""
    pivots = row_echelon(equations, unknowns)
    solved = {col for col, _, _ in pivots}
    free = [c for c in unknowns if c not in solved]
    if free:
        raise LinearSolveError("underdetermined", "free columns %s" % free[:4])
    solution = back_substitute(pivots, {})
    return {col: solution[col] for col in unknowns}
