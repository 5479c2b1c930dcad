"""Exact coefficient arithmetic for the whole engine.

Every coefficient in the engine is a polynomial in the level ``k`` (and,
for the BRST complex, the constant ``c``) whose coefficients are Gaussian
rationals.  Division is only permitted by constants; any computation that
would require dividing by a k- or c-dependent quantity raises instead of
silently moving to a rational-function field.

A Gaussian rational is fraction-free: integer numerators of its real and
imaginary parts over one positive denominator, in lowest terms.  Adding
values over equal denominators needs no cross-multiplication, multiplying
real values no imaginary products, and scaling by an int (as ``deriv``
and ``partial`` do) one gcd at most.

Also provides the sparse exact linear solver used by the generator and
cohomology solvers.
"""

from __future__ import annotations

from fractions import Fraction
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
    ``_mk``/``_norm`` without re-validating; ``Fraction`` appears only in
    the public constructor and in the ``re``/``im`` properties.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.a, self.b, self.d = re, im, 1
            return
        re, im = Fraction(re), Fraction(im)
        q, s = re.denominator, im.denominator
        d = q * s // gcd(q, s)
        # both parts are reduced, so gcd(a, b, d) = 1 already
        self.a = re.numerator * (d // q)
        self.b = im.numerator * (d // s)
        self.d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __bool__(self):
        return bool(self.a or self.b)

    def __eq__(self, other):
        if not isinstance(other, GRat):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __add__(self, other):
        d1, d2 = self.d, other.d
        if d1 == d2:
            a, b = self.a + other.a, self.b + other.b
            return _mk(a, b, 1) if d1 == 1 else _norm(a, b, d1)
        a = self.a * d2 + other.a * d1
        b = self.b * d2 + other.b * d1
        # coprime denominators leave nothing to cancel
        return _mk(a, b, d1 * d2) if gcd(d1, d2) == 1 else _norm(a, b, d1 * d2)

    def __sub__(self, other):
        d1, d2 = self.d, other.d
        if d1 == d2:
            a, b = self.a - other.a, self.b - other.b
            return _mk(a, b, 1) if d1 == 1 else _norm(a, b, d1)
        a = self.a * d2 - other.a * d1
        b = self.b * d2 - other.b * d1
        return _mk(a, b, d1 * d2) if gcd(d1, d2) == 1 else _norm(a, b, d1 * d2)

    def __neg__(self):
        return _mk(-self.a, -self.b, self.d)

    def __mul__(self, other):
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        d = self.d * other.d
        if not b1 and not b2:
            a = a1 * a2
            if d == 1:
                return _mk(a, 0, 1)
            g = gcd(a, d)
            return _mk(a // g, 0, d // g)
        a, b = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
        return _mk(a, b, 1) if d == 1 else _norm(a, b, d)

    def __truediv__(self, other):
        # x/y = (a1 + b1 i)(a2 - b2 i) d2 / (d1 (a2^2 + b2^2))
        a2, b2 = other.a, other.b
        if not b2:
            if not a2:
                raise ZeroDivisionError("division by zero Gaussian rational")
            return _norm(self.a * other.d, self.b * other.d, self.d * a2)
        a1, b1, d2 = self.a, self.b, other.d
        return _norm((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2,
                     self.d * (a2 * a2 + b2 * b2))

    def __str__(self):
        if not self.b:
            return _frac_str(self.re)
        if not self.a:
            return _imag_str(self.im)
        im = _imag_str(self.im)
        if im.startswith("-"):
            return "%s%s" % (_frac_str(self.re), im)
        return "%s+%s" % (_frac_str(self.re), im)

    __repr__ = __str__


_new = object.__new__


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


GR_ZERO = GRat(0)
GR_ONE = GRat(1)


def _frac_str(f: Fraction) -> str:
    return str(f)


def _imag_str(f: Fraction) -> str:
    if f == 1:
        return "i"
    if f == -1:
        return "-i"
    if f.denominator == 1:
        return "%si" % f
    return "(%s)i" % f


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
        return GRat(0, Fraction(body))
    return GRat(Fraction(s))


class Scalar:
    """Element of Q(i)[k, c], stored as {(k_power, c_power): GRat}."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {} if terms is None else terms

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero() -> "Scalar":
        return Scalar()

    @staticmethod
    def one() -> "Scalar":
        return Scalar({(0, 0): GR_ONE})

    @staticmethod
    def rational(value) -> "Scalar":
        return Scalar.gaussian(value)

    @staticmethod
    def gaussian(re, im=0) -> "Scalar":
        g = GRat(re, im)
        return Scalar({(0, 0): g}) if g else Scalar()

    @staticmethod
    def imag() -> "Scalar":
        return Scalar({(0, 0): GRat(0, 1)})

    @staticmethod
    def k(power: int = 1) -> "Scalar":
        return Scalar({(power, 0): GR_ONE})

    @staticmethod
    def c(power: int = 1) -> "Scalar":
        return Scalar({(0, power): GR_ONE})

    @staticmethod
    def term(kpow, cpow, coeff: GRat) -> "Scalar":
        return Scalar({(kpow, cpow): coeff}) if coeff else Scalar()

    # -- predicates ---------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

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

    def scale(self, rat) -> "Scalar":
        if type(rat) is int:
            if not rat:
                return Scalar()
            if rat == 1:
                return self
            return Scalar({e: _times_int(v, rat) for e, v in self.terms.items()})
        f = Fraction(rat)
        if not f:
            return Scalar()
        g = GRat(f)
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
        return [[e[0], e[1], str(g.re), str(g.im)]
                for e, g in sorted(self.terms.items())]

    @staticmethod
    def from_obj(obj) -> "Scalar":
        terms = {}
        for kp, cp, re, im in obj:
            g = GRat(Fraction(re), Fraction(im))
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


def solve_linear(equations, unknowns):
    """Solve an exact linear system over Gaussian rationals.

    equations: iterable of (coeffs: {col: GRat}, rhs: GRat)
    unknowns:  ordered list of column keys (pivot preference order)

    Returns {col: GRat} for the unique solution, in the order of unknowns.
    Raises LinearSolveError with reason 'inconsistent' or 'underdetermined'
    otherwise ('internal' flags a broken elimination invariant).

    Sparse forward elimination, then back substitution. The rows are taken
    sparsest first (a stable sort by entry count). Each row is reduced
    against the pivots in the order they were created, through a heap of
    the pivot columns it holds: a pivot row holds no column of an older
    pivot, so eliminating pivot p brings in only columns of pivots created
    after p, and each pivot is applied at most once. A reduced row that is
    not zero makes its lowest-order column (in `unknowns`) a pivot, and
    the pivot rows are solved in reverse creation order at the end.

    Neither the result nor the error depends on the order of elimination:
    a uniquely solvable system has one solution; a row reduces to
    0 = c != 0 in some order exactly when the system is inconsistent; and
    the pivots are the lowest-order columns of the vectors in the row
    space, so the free columns named by 'underdetermined' are the same.
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

    free = [c for c in unknowns if c not in pivot_of]
    if free:
        raise LinearSolveError("underdetermined", "free columns %s" % free[:4])
    solution = {}
    for col, row, rhs in reversed(pivots):
        for c2, g2 in row.items():
            if c2 not in solution:
                raise LinearSolveError("internal", "pivot row reaches an "
                                       "unsolved column")
            rhs = rhs - g2 * solution[c2]
        solution[col] = rhs
    return {col: solution[col] for col in unknowns}
