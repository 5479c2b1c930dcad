"""Canonical sparse supercommutative differential polynomials.

A polynomial lives over an :class:`Alphabet`: an ordered list of generator
symbols with parities, a derivation flavor (even ``d`` for the del-operator,
odd ``D`` for the SUSY one) and optional conformal weights.  Variables are
pairs ``(gen_index, deriv_order)``; a monomial is a sorted tuple of
``(variable, exponent)`` with odd variables squaring to zero, and
canonicalization multiplies coefficients by the Koszul sign of the
reordering.  Canonical form is a normal form: two polynomials are equal
iff their term dictionaries are equal.

The parity of u_i^(m) is ``parities[i] ^ (m & deriv_parity)``, read inline
by the kernel loops. Variables sort as ``(gen, order)`` tuples, so u^(m+1)
comes right after u^(m) and no variable lies between them. The derivative
of a factor u^(m) of a canonical monomial therefore takes that factor's
place (after u^(m)^(e-1) when its exponent e > 1, and then u^(m) is even)
with no reordering and no crossing sign. It merges only with a factor
u^(m+1) right after it, and that term vanishes when u^(m+1) is odd.

No method changes a value's alphabet or terms after it is built. The one
internal state is two first-use memos: ``parity_gradients`` keeps its
result in a private attribute, so that a polynomial bracketed many times (the
BRST element d, a generator value) is differentiated once, and ``terms``
keeps the view described below. Each memo is a pure function of the terms,
which never change, and equality and hashing do not read them. Two threads
that fill one at once compute equal results, and the attribute is set by
one atomic store, so a reader sees either no memo or a complete one; any
operation may still run concurrently with any other.

Storage. A polynomial is one flat dict ``{key: int}`` of integer
numerators with no zero values, over one positive denominator ``_den``:
the value is sum n_key key / _den. A term n i^e k^a c^b M (e = 0 or 1) is
one entry, so a monomial whose coefficient in Q(i)[k, c] has n terms, with
real and imaginary parts, holds up to 2n entries, and every sum and
product of two terms is a sum and a product of Python ints. Every kernel
loop (sum, product, derivation, partials, substitution, equality, hashing)
runs on that dict, and only this module and pva (for the x and y
fields of bracket values) read the key. A bracket value of pva is stored
the same way, so the storage (alphabet, _flat, _den) and every operation
that reads it alone (equality, hashing, sums, negation, scalar_mul, rename,
packed_coefficients) are one private base class, _Packed, of SuperPoly and
of pva's value classes, each of which supplies its constructor _like.
SuperPoly defines its own __add__, __mul__, deriv, partial and
substitute: the benchmark's tracer wraps a method only where it sits in
its class's own namespace.

- Normal form. Each built polynomial has gcd(numerators, _den) = 1, and
  zero is the empty dict over 1, so equal values have equal fields and
  equal hashes. The kernel loops do not cancel: a sum aligns the two
  denominators by their lcm, a product multiplies them, ``deriv`` and the
  partials multiply numerators by ints, and ``scale(p/q)`` multiplies the
  numerators by p and the denominator by q. The content is cancelled once,
  when the result is built (_poly); with a denominator of 1 there is
  nothing to cancel.
- Key layout. The key packs (M, e, a, b) into one int of 8-bit fields,
  after Monagan and Pearce's packed exponent vectors: bits 0-7 hold a,
  bits 8-15 hold b, bits 16-23 the power e of i, bits 24-31 the x field
  and bits 32-39 the y field, and each variable has a field of its own
  above them (from bit 40, _VAR_SHIFT). The top bit of a field is its
  guard: no field holds more than 127, so the sum of two keys carries into
  no other field and sets a guard bit exactly where a power passes 127.
  Bit 1 of the i field (i^2 reached) is a guard bit too: the rare branch
  that a guard bit takes turns i^2 into a sign, and raises only on a power
  past 127. A product of two terms is the sum of their keys, one guard
  test and one test ``o1 & o2`` of their odd bits (the low bit of each odd
  variable's field; an odd variable squares to zero), and a monomial's
  parity is the bit count of its odd bits. The coefficient is that of the
  canonical monomial, whose factors follow variable order: the Koszul sign
  of a product counts the pairs of odd factors that pass each other in
  that order, with bit masks over the odd variables' ranks.
- The x and y fields. A polynomial keeps both at 0. A bracket value of
  pva (sum_n x^n f_n, x = lambda or chi) is stored as the numerators of
  all its coefficients in one flat dict, over one denominator, with n in
  the x field; a Jacobi defect (sum x^i y^j f_ij, y = mu or gamma) puts j
  in the y field. So one product (_mul_flat) multiplies a polynomial by a
  whole value, and one pass (_plus_d) applies x + d to one. Over a D
  alphabet the x field's low bit is an odd bit of rank 0, below every
  variable: chi is odd and written left of its coefficient, so the Koszul
  sign of a product gives the sign (-1)^(qn) of a term of parity q passing
  chi^n, and _plus_d reads the sign (-1)^n of (chi + D) from that bit.
  rename and substitute carry every bit below the variables over, so they
  map a whole value at once. Nothing reads y's parity: the Jacobi defect
  places its terms with their signs (pva._place).
- Slot registry. A variable gets the next free field, its slot, when a
  polynomial over its alphabet first uses it, so slot order is first-use
  order, not variable order. The registry (slots, odd bits, guard bits and
  ranks) is shared by every equal Alphabet value, so
  ``Alphabet.from_obj(a.to_obj())`` packs as ``a`` does, and it lives as
  long as some alphabet of that value. A slot once given never moves, and
  no output reads one: ``SuperPoly(alph, {M: Scalar})``, ``terms`` (a
  read-only ``{M: Scalar}`` view, unpacked on first read; rendering and
  serialization read it), ``coefficients()`` (``(M, k power, c power,
  GRat)``, for the readers that take coefficients apart) and its inverse
  ``from_coefficients`` all take or give tuple monomials, and so do
  copies and pickles: an alphabet or polynomial read back is packed in
  the registry of the process that reads it. These boundaries also take
  and give GRat coefficients, (a + b i)/d in lowest terms: ``_ints``
  brings GRats over their lcm, and ``_grats`` joins the real and
  imaginary entries of a term and cancels each coefficient alone.
- Packed readers. Three internal readers take packed keys and give
  nothing that depends on slots: ``packed_coefficients`` (an int for
  each monomial, which the generator solve uses only to group its
  equations, so that no tuple is built for them), ``degree_part`` (the
  terms of a given degree in some generators, kept by their keys) and
  ``rename``, the one map that sends each variable to a multiple of a
  variable, to a constant or to 0 (rho, the generator symbols, the
  i-twists, the doubling, the BRST J-images). It maps each monomial once,
  through the caller's memo per map and pair of alphabet values (the
  memo holds both registries, so its keys keep their meaning), and takes
  its Koszul sign from variable order, never from slot order.
- Overflow. A power of a variable, of k, of c, of x or of y past 127
  raises ExponentOverflowError (an engine error); it never wraps. The
  powers of x that the brackets of this engine reach stay near twice the
  largest conformal weight.
- Thread safety. The registry gives out a slot under a lock and publishes
  it last, so no key holds a slot that a reader cannot find, and a key's
  meaning never changes: any operation may still run concurrently with any
  other.
- Derivative memo. A derivative reads the factors of each monomial in
  variable order, and unpacking a key costs more than the rest of its
  work. So the registry keeps the derivative of each monomial it has
  derived, as one (key offset, integer factor) pair per factor (the pairs
  are shared, one per variable and factor). The memos of all alphabets
  together hold at most _MEMO_SIZE monomials, about 1.4 MB, and start over
  when full; an entry is a pure function of the monomial and its slots. A
  rename memo holds at most _MEMO_SIZE monomials per pair of alphabets,
  and starts over the same way.

Running sums. ``_add_into`` and ``_mul_into`` add a value, or a product, in
place into a running sum [numerators, denominator] that the caller owns
(pva's sums of bracket values): an addition over another denominator
brings the sum to their lcm first, and nothing is cancelled until the
caller builds its value (``_cancel``).
"""

from __future__ import annotations

from _thread import allocate_lock
from _weakref import ref
from math import gcd, lcm
from types import MappingProxyType

from .scalars import GR_ONE, GRat, Scalar, _mk, _norm, join_signed, rat

FLAVOR_DEL = "d"   # even derivation, variables u^(m)
FLAVOR_D = "D"     # odd derivation, variables u^[m]
_HALF = rat(1, 2)  # the weight one D adds
_new = object.__new__

# the packed key (see the module docstring)
_FIELD = 8                              # bits per field
_MAX_EXP = (1 << (_FIELD - 1)) - 1      # 127; the top bit is the guard
_FIELD_MASK = (1 << _FIELD) - 1
_I = 1 << (2 * _FIELD)                  # the i field: 0 or 1 in a term
_I_SQ = _I << 1                         # i^2 reached: a guard bit
_X_SHIFT = 3 * _FIELD                   # the x field of a bracket value
_X = 1 << _X_SHIFT                      # x^1: lambda or chi
_Y = _X << _FIELD                       # y^1: mu or gamma (Jacobi)
_X_FIELD = _FIELD_MASK * _X
_XY_FIELDS = _X_FIELD | _FIELD_MASK * _Y
_VAR_SHIFT = 5 * _FIELD                 # the k, c, i, x and y fields lie below
_POWERS_MASK = (1 << _VAR_SHIFT) - 1
_POWERS_GUARD = (_MAX_EXP + 1) * (1 | 1 << _FIELD | _X | _Y) | _I_SQ
_X_GUARD = (_MAX_EXP + 1) * _X
_MEMO_SIZE = 8192   # monomials in the memos of all layouts together


class FlavorError(TypeError):
    pass


class ExponentOverflowError(OverflowError):
    """A power of a variable, of k, of c or of a bracket value's x or y past
    what a packed field holds."""


def _overflow():
    raise ExponentOverflowError("a power of a variable, k, c, x or y exceeds "
                                "%d" % _MAX_EXP)


def _fold(key, g, guard):
    """(key, g) for a sum of two keys that sets a bit of guard: i^2 = -1
    when the i field reached 2, which leaves no guard bit set; an
    overflow otherwise."""
    if key & _I_SQ:
        key -= _I_SQ
        if not key & guard:
            return key, -g
    _overflow()


class _Layout:
    """The slot registry of one alphabet value. units maps a variable to
    its unit, 1 << (its field's offset); vars lists the variables by slot;
    odd has the unit bit of every odd variable, guard the top bit of every
    field; rank maps the unit of an odd variable to 1 << (its rank among
    the odd variables in variable order). Over a D alphabet the x field's
    low bit (_X) is odd too, of rank 0, below every variable: chi is odd and
    written left of its coefficient. Slots are only added, under _LOCK, and
    units is written last; rank is replaced whole. steps and derivs hold
    the derivative memo (see the module docstring)."""

    __slots__ = ("units", "vars", "odd", "guard", "rank", "steps", "derivs",
                 "__weakref__")

    def __init__(self, odd_x):
        self.units = {}
        self.vars = []
        self.odd = _X if odd_x else 0
        self.guard = _POWERS_GUARD
        self.rank = {_X: 1} if odd_x else {}
        # (unit of u^(m), n) -> (unit of u^(m+1) - unit of u^(m), n)
        self.steps = {}
        self.derivs = {}   # monomial -> _monomial_deriv of it


# alphabet value -> a weak reference to its _Layout (threading and weakref
# are not imported: a walg command loads neither)
_LAYOUTS = {}
_LOCK = allocate_lock()
_memo_entries = 0   # taken by the memos since they last started over


class Alphabet:
    """Ordered generator set for one polynomial algebra."""

    __slots__ = ("flavor", "names", "parities", "weights", "deriv_parity",
                 "_step", "_var_weights", "_layout")

    def __init__(self, flavor, names, parities, weights=None):
        if flavor not in (FLAVOR_DEL, FLAVOR_D):
            raise FlavorError("unknown flavor %r" % flavor)
        self.flavor = flavor
        self.names = tuple(names)
        self.parities = tuple(int(p) % 2 for p in parities)
        # the parity one derivation adds: u_i^(m) has parity
        # parities[i] ^ (m & deriv_parity)
        self.deriv_parity = 1 if flavor == FLAVOR_D else 0
        self.weights = None if weights is None else tuple(GRat(w) for w in weights)
        if len(self.parities) != len(self.names):
            raise ValueError("names/parities length mismatch")
        if self.weights is not None and len(self.weights) != len(self.names):
            raise ValueError("names/weights length mismatch")
        self._step = _HALF if flavor == FLAVOR_D else GR_ONE  # the weight of d
        self._var_weights = {}   # var -> its weight, filled by var_weight
        self._layout = _layout_of(
            (self.flavor, self.names, self.parities, self.weights))

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        if not isinstance(other, Alphabet):
            return NotImplemented
        return (self.flavor == other.flavor and self.names == other.names
                and self.parities == other.parities and self.weights == other.weights)

    def __hash__(self):
        return hash((self.flavor, self.names, self.parities, self.weights))

    def __reduce__(self):
        # a copy or an unpickled alphabet shares the registry of its value
        return Alphabet, (self.flavor, self.names, self.parities, self.weights)

    def var_parity(self, var) -> int:
        i, m = var
        return self.parities[i] ^ (m & self.deriv_parity)

    def var_weight(self, var) -> GRat:
        w = self._var_weights.get(var)
        if w is None:
            if self.weights is None:
                raise ValueError("alphabet carries no weights")
            i, m = var
            w = self._var_weights[var] = self.weights[i] + m * self._step
        return w

    def var_name(self, var) -> str:
        i, m = var
        name = self.names[i]
        if m == 0:
            return name
        if self.flavor == FLAVOR_D:
            return ("D(%s)" if m == 1 else "D^" + str(m) + "(%s)") % name
        if m == 1:
            return name + "'"
        if m == 2:
            return name + "''"
        return "%s^(%d)" % (name, m)

    def to_obj(self):
        return {"flavor": self.flavor, "names": list(self.names),
                "parities": list(self.parities),
                "weights": None if self.weights is None else [str(w) for w in self.weights]}

    @staticmethod
    def from_obj(obj) -> "Alphabet":
        return Alphabet(obj["flavor"], obj["names"], obj["parities"],
                        obj.get("weights"))


def _layout_of(value):
    """The slot registry of an alphabet value, made on first use; a new one
    also drops the entries of layouts that no alphabet holds any more."""
    with _LOCK:
        found = _LAYOUTS.get(value)
        layout = None if found is None else found()
        if layout is None:
            for key in [key for key, r in _LAYOUTS.items() if r() is None]:
                del _LAYOUTS[key]
            layout = _Layout(value[0] == FLAVOR_D)
            _LAYOUTS[value] = ref(layout)
    return layout


def _unit(alph, var):
    """The unit of var over alph, giving var the next slot on first use."""
    layout = alph._layout
    u = layout.units.get(var)
    if u is not None:
        return u
    odd = alph.var_parity(var)
    with _LOCK:
        u = layout.units.get(var)
        if u is None:
            u = 1 << (_VAR_SHIFT + _FIELD * len(layout.vars))
            layout.vars.append(var)
            layout.guard |= u << (_FIELD - 1)
            if odd:
                layout.odd |= u
                units = dict(layout.units)
                units[var] = u
                chi = layout.odd & _X   # chi takes rank 0
                rank = {_X: 1} if chi else {}
                for r, v in enumerate(sorted(v for v in layout.vars
                                             if alph.var_parity(v)),
                                      1 if chi else 0):
                    rank[units[v]] = 1 << r
                layout.rank = rank
            layout.units[var] = u
    return u


def _powers(kp, cp):
    """The key of k^kp c^cp."""
    if not (0 <= kp <= _MAX_EXP and 0 <= cp <= _MAX_EXP):
        _overflow()
    return kp | cp << _FIELD


def _pack(alph, mono):
    """The key of a canonical tuple monomial, with powers 0."""
    layout = alph._layout
    units = layout.units
    key = 0
    for v, e in mono:
        u = units.get(v) or _unit(alph, v)
        if e < 1 or (e > 1 and u & layout.odd):
            raise ValueError("not a canonical monomial: %r" % (mono,))
        if e > _MAX_EXP:
            _overflow()
        key += e * u
    return key


def _factors(vars_, m):
    """(variable, exponent, unit) for each factor of m, a key shifted right
    by _VAR_SHIFT, in variable order; vars_ lists the variables by slot."""
    out = []
    while m:
        at = ((m & -m).bit_length() - 1) // _FIELD * _FIELD
        e = (m >> at) & _FIELD_MASK
        m ^= e << at
        out.append((vars_[at // _FIELD], e, 1 << (at + _VAR_SHIFT)))
    out.sort()
    return out


def _mono(vars_, m):
    """The tuple monomial of m, a key shifted right by _VAR_SHIFT."""
    return tuple([(v, e) for v, e, _u in _factors(vars_, m)])


def _key_parity(key, odd) -> int:
    return (key & odd).bit_count() & 1


def _ranks(rank, o):
    """The rank bits of the odd factors whose unit bits are o."""
    r = rank.get(o)
    if r is not None:   # one odd factor
        return r
    r = 0
    while o:
        low = o & -o
        r |= rank[low]
        o ^= low
    return r


def _below(r):
    """The xor, over the rank bits b of r, of the masks b - 1 of the ranks
    below b: the odd factors of another monomial, with rank bits r2, pass
    those with rank bits r in (_below(r) & r2).bit_count() pairs, mod 2."""
    if not r & (r - 1):
        return r - 1
    x = 0
    while r:
        low = r & -r
        x ^= low - 1
        r ^= low
    return x


def _monomial_deriv(alph, m):
    """The derivative of the monomial m (a key shifted right by _VAR_SHIFT)
    as a tuple of pairs (delta, n), one per factor in variable order: that
    factor's term is key + delta with n times key's coefficient. The
    derivative of a factor takes its place (see the module docstring), so
    the only sign is D passing the odd prefix. The pairs are shared through
    layout.steps, one per variable and n."""
    layout = alph._layout
    par, dp = alph.parities, alph.deriv_parity
    factors = _factors(layout.vars, m)
    last = len(factors) - 1
    out = []
    odd_prefix = 0
    for t, (v, e, u) in enumerate(factors):
        g, order = v
        vanishes = False
        if t < last and factors[t + 1][0] == (g, order + 1):
            # the odd derivative squares to zero
            vanishes = par[g] ^ ((order + 1) & dp)
            if not vanishes and factors[t + 1][1] == _MAX_EXP:
                _overflow()
        if not vanishes:
            n = -e if odd_prefix else e
            step = layout.steps.get((u, n))
            if step is None:
                step = layout.steps[u, n] = (_unit(alph, (g, order + 1)) - u, n)
            out.append(step)
        if dp:
            odd_prefix ^= (par[g] ^ (order & 1)) & e
    return tuple(out)


def _remember(memo, m, value):
    """memo[m] = value in the derivative memo of a _Layout; returns value.
    Once the memos of all layouts have taken _MEMO_SIZE entries, they start
    over."""
    global _memo_entries
    with _LOCK:
        if _memo_entries >= _MEMO_SIZE:
            for r in _LAYOUTS.values():
                layout = r()
                if layout is not None:
                    layout.derivs.clear()
            _memo_entries = 0
        memo[m] = value
        _memo_entries += 1
    return value


def _renamed(alph, image, target, m):
    """(key over target, factor) of the monomial m (a key shifted right by
    _VAR_SHIFT) under image (see SuperPoly.rename): factor 0 when m goes
    to 0, an int when it is one, else the fields (a, b, d) of (a + b i)/d.
    Its sign counts the pairs of odd factors put out of variable order."""
    key, factor, odd = 0, GR_ONE, []
    for v, e, _u in _factors(alph._layout.vars, m):
        w, f = image(v) or (None, 0)
        if not f:
            return 0, 0
        p = alph.var_parity(v)
        if p != (w is not None and target.var_parity(w)):
            raise FlavorError("parity mismatch for generator %s"
                              % alph.names[v[0]])
        if w is not None:
            key += e * _unit(target, w)
            if p:
                odd.append(w)
        for _ in range(e):
            factor = factor * f
    if sum(a > b for i, a in enumerate(odd) for b in odd[i + 1:]) & 1:
        factor = -factor
    return key, (factor.a, factor.b, factor.d) if factor.b or factor.d != 1 \
        else factor.a


def _cancel(flat, den):
    """(numerators, denominator) of flat over den > 0 with their gcd
    cancelled: the one place where content is cancelled, for polynomials
    (_poly) and for bracket values (pva) alike."""
    if den != 1:
        g = den
        for n in flat.values():
            g = gcd(g, n)
            if g == 1:
                break
        else:   # g divides den and every numerator (all of den for zero)
            den //= g
            flat = {key: n // g for key, n in flat.items()}
    return flat, den


def _poly(alph, flat, den=1) -> "SuperPoly":
    """A SuperPoly over alph that takes over flat, numerators in the
    storage layout with no zero values, over den > 0, content cancelled."""
    if den != 1:
        flat, den = _cancel(flat, den)
    p = _new(SuperPoly)
    p.alphabet = alph
    p._flat = flat
    p._den = den
    p._terms = None
    p._gradients = None
    return p


def _ints(pairs):
    """(numerators, denominator) in normal form of sum g key over (key,
    GRat g) pairs with distinct keys and clear i fields: each g over the
    lcm of the denominators, its imaginary part at key + _I. Every g is in
    lowest terms, so nothing cancels."""
    den = 1
    for _key, g in pairs:
        d = g.d
        if den % d:
            den = den // gcd(den, d) * d
    flat = {}
    for key, g in pairs:
        f = den // g.d
        if g.a:
            flat[key] = g.a * f
        if g.b:
            flat[key | _I] = g.b * f
    return flat, den


def _grat(a, b, den) -> GRat:
    return _mk(a, b, 1) if den == 1 else _norm(a, b, den)


def _grats(flat, den):
    """(key with its i field clear, GRat) for each coefficient of
    numerators flat over den, the real and imaginary entries of a term
    joined: the inverse of _ints."""
    for key, a in flat.items():
        if not key & _I:
            yield key, _grat(a, flat.get(key | _I, 0), den)
        elif key ^ _I not in flat:
            yield key ^ _I, _grat(0, a, den)


def _add_flat(out, flat, n=1):
    """out += n flat in place for a nonzero int n, keeping no zero values."""
    get = out.get
    if n != 1:
        for key, g in flat.items():
            g *= n
            s = get(key)
            if s is None:
                out[key] = g
            else:
                s += g
                if s:
                    out[key] = s
                else:
                    del out[key]
        return
    for key, g in flat.items():
        s = get(key)
        if s is None:
            out[key] = g
        else:
            s += g
            if s:
                out[key] = s
            else:
                del out[key]


def _add(out, key, n):
    """out[key] += n in place, keeping no zero values."""
    n += out.get(key, 0)
    if n:
        out[key] = n
    else:
        out.pop(key, None)


def _mul_flat(out, flat1, flat2, layout, n=1):
    """out += n flat1 * flat2 in place for a nonzero int n, keeping no zero
    values, over an alphabet with slot registry layout. One factor may be a
    bracket value (pva), whose keys carry the power of x, and the other a
    polynomial: over a D alphabet chi's odd bit of rank 0 then gives the
    sign (-1)^(qn) of a term of parity q passing chi^n, and no sign when
    chi^n is on the left."""
    get = out.get
    odd, guard = layout.odd, layout.guard
    inner = None
    for k1, g1 in flat1.items():
        if n != 1:
            g1 *= n
        o1 = k1 & odd
        if not o1:  # no factor of k1 is odd: no sign, no square
            for k2, g2 in flat2.items():
                key = k1 + k2
                g = g1 * g2
                if key & guard:
                    key, g = _fold(key, g, guard)
                s = get(key)
                if s is None:
                    out[key] = g
                else:
                    s += g
                    if s:
                        out[key] = s
                    else:
                        del out[key]
            continue
        if inner is None:   # flat2 with the rank bits of its odd factors
            rank = layout.rank
            inner = [(k2, g2, o2, _ranks(rank, o2) if o2 else 0)
                     for k2, g2 in flat2.items() for o2 in (k2 & odd,)]
        x1 = _below(_ranks(rank, o1))
        for k2, g2, o2, r2 in inner:
            if o1 & o2:
                continue
            key = k1 + k2
            g = g1 * g2
            if key & guard:
                key, g = _fold(key, g, guard)
            if (x1 & r2).bit_count() & 1:
                g = -g
            s = get(key)
            if s is None:
                out[key] = g
            else:
                s += g
                if s:
                    out[key] = s
                else:
                    del out[key]


def _align(entry, den):
    """Bring entry, a running sum [numerators, denominator], to a
    denominator that den divides, and return what a numerator over den is
    multiplied by to join it."""
    d = entry[1]
    if d % den:
        f = den // gcd(d, den)
        flat = entry[0]
        for key, g in flat.items():
            flat[key] = g * f
        d = entry[1] = d * f
    return d // den


class _Packed:
    """The packed storage of a polynomial or a bracket value (pva): the
    alphabet, the numerators _flat and the denominator _den (see the module
    docstring), with every operation that reads that storage alone. A
    subclass supplies _like(alph, flat, den): the value of its own class
    over alph that takes over numerators flat over den > 0, their content
    cancelled. An operand of another class gives NotImplemented, so a sum
    of two classes (or of a value and a number) raises TypeError."""

    __slots__ = ("alphabet", "_flat", "_den")

    def __bool__(self):
        return bool(self._flat)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.alphabet == other.alphabet and self._den == other._den
                and self._flat == other._flat)

    def __hash__(self):
        return hash((self.alphabet, self._den, frozenset(self._flat.items())))

    def _check(self, other):
        if self.alphabet is not other.alphabet and self.alphabet != other.alphabet:
            raise FlavorError("operands over different alphabets")

    def _plus(self, other, n):
        """self + n other for n = 1 or -1, over the lcm of the denominators;
        NotImplemented for an operand of another class."""
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        den, d2 = self._den, other._den
        if den == d2:
            out = dict(self._flat)
        else:
            den = den // gcd(den, d2) * d2
            f = den // self._den
            out = {key: g * f for key, g in self._flat.items()}
            n *= den // d2
        _add_flat(out, other._flat, n)
        return self._like(self.alphabet, out, den)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return self._like(self.alphabet,
                          {key: -g for key, g in self._flat.items()}, self._den)

    def scalar_mul(self, scalar: Scalar):
        """self times scalar: a one-term real scalar shifts the keys and
        scales the numerators, any other multiplies by the constant."""
        alph, flat, den = self.alphabet, self._flat, self._den
        st = scalar.terms
        if len(st) == 1:
            ((k2, c2), g2), = st.items()
            if not g2.b:   # one real term; Q(i) has no zero divisors
                a2 = g2.a
                if k2 or c2:
                    shift = _powers(k2, c2)
                    out = {key + shift: g * a2 for key, g in flat.items()}
                    if any(key & _POWERS_GUARD for key in out):
                        _overflow()
                else:
                    out = {key: g * a2 for key, g in flat.items()}
                return self._like(alph, out, den * g2.d)
        const = SuperPoly.const(alph, scalar)
        out = {}
        _mul_flat(out, flat, const._flat, alph._layout)
        return self._like(alph, out, den * const._den)

    def rename(self, image, target, memos):
        """The algebra map into target that sends each variable v as
        image(v) says: None (to 0), (w, f) (to f times the variable w of
        target) or (None, c) (to the constant c), for GRats f and c (a zero
        one sends v to 0). Distinct variables must go to distinct ones; a
        parity mismatch (an odd v sent to a nonzero c too) raises
        FlavorError. Monomials may meet (rho sends q*u and q to q for a
        killed u of constant 1), so terms add up. memos is the caller's
        dict for this image: per pair of alphabet values it keeps each
        monomial's key over target and its factor (Koszul sign times
        factors), so a monomial is unpacked once, up to _MEMO_SIZE
        monomials per pair, after which it starts over. An int factor
        multiplies the numerators alone; the others go over the lcm of
        denominators. Every bit below the variables (the powers of k, c
        and i, and a bracket value's x and y fields) is carried over, and
        the map keeps parities, so it commutes with x: a bracket value is
        mapped whole, as each of its coefficients would be."""
        alph = self.alphabet
        layouts = alph._layout, target._layout
        monos = memos.get(layouts)
        if monos is None:   # its key holds both registries
            monos = memos[layouts] = {}
        out = {}
        rest = []   # (key over target, numerator, (a, b, d)) of the others
        for key, n in self._flat.items():
            m = key >> _VAR_SHIFT
            found = monos.get(m)
            if found is None:
                if len(monos) >= _MEMO_SIZE:   # start over when full
                    monos.clear()
                found = monos[m] = _renamed(alph, image, target, m)
            to, f = found
            if f.__class__ is not int:
                rest.append((to | (key & _POWERS_MASK), n, f))
            elif f:
                to |= key & _POWERS_MASK
                if to in out:   # two monomials meet
                    _add(out, to, n * f)
                else:
                    out[to] = n * f
        scale = lcm(*[f[2] for _to, _n, f in rest])
        if scale != 1:
            out = {to: n * scale for to, n in out.items()}
        for to, n, (a, b, d) in rest:
            n *= scale // d
            _add(out, to, n * a)
            i_key = to ^ _I   # n b i times i^e is -n b at e = 1
            _add(out, i_key, n * b if i_key & _I else -n * b)
        return self._like(target, out, self._den * scale)

    def packed_coefficients(self):
        """(m, kpow, cpow, g) as coefficients() gives them, with m the
        monomial's packed key in place of its tuple: equal monomials over
        one alphabet value have equal keys in one process, and no output
        may read one (see the module docstring). m keeps the x and y
        fields, so a bracket value read whole (pva) gives one m per power
        of x and monomial."""
        for key, g in _grats(self._flat, self._den):
            yield (key >> _X_SHIFT, key & _FIELD_MASK,
                   (key >> _FIELD) & _FIELD_MASK, g)


class SuperPoly(_Packed):
    """Sparse supercommutative polynomial with Scalar coefficients, stored
    flat (see the module docstring). __add__ is _Packed's, written here
    again: the benchmark's tracer counts it only in this class's own
    namespace, as it does __mul__, deriv, partial and substitute."""

    __slots__ = ("_terms", "_gradients")

    def __init__(self, alphabet, terms=None):
        """sum_M c_M M over terms {M: Scalar c_M} of canonical monomials M;
        zero coefficients drop out."""
        self.alphabet = alphabet
        pairs = []
        for mono, c in (terms or {}).items():
            key = _pack(alphabet, mono)
            for (kp, cp), g in c.terms.items():
                if g:
                    pairs.append((key + _powers(kp, cp), g))
        self._flat, self._den = _ints(pairs)
        self._terms = None
        self._gradients = None

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero(alph) -> "SuperPoly":
        return _poly(alph, {})

    @staticmethod
    def const(alph, scalar: Scalar) -> "SuperPoly":
        return _poly(alph, *_ints([(_powers(kp, cp), g)
                                   for (kp, cp), g in scalar.terms.items() if g]))

    @staticmethod
    def one(alph) -> "SuperPoly":
        return _poly(alph, {0: 1})

    @staticmethod
    def variable(alph, gen, order=0) -> "SuperPoly":
        return _poly(alph, {_unit(alph, (gen, order)): 1})

    @staticmethod
    def linear(alph, coeffs) -> "SuperPoly":
        """sum_t c_t u_t over (t, c_t) pairs with distinct t and GRat c_t (the
        coordinates of an algebra element); zeros drop out."""
        return _poly(alph, *_ints([(_unit(alph, (t, 0)), c)
                                   for t, c in coeffs if c]))

    @staticmethod
    def from_coefficients(alph, items) -> "SuperPoly":
        """sum g k^kpow c^cpow M over (M, kpow, cpow, g) items, M a canonical
        monomial and g a GRat; equal (M, kpow, cpow) add up, zeros drop out."""
        out = {}
        packed = {}
        for mono, kp, cp, g in items:
            m = packed.get(mono)
            if m is None:
                m = packed[mono] = _pack(alph, mono)
            key = m + _powers(kp, cp)
            s = out.get(key)
            s = g if s is None else s + g
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return _poly(alph, *_ints(list(out.items())))

    # -- basics --------------------------------------------------------
    @property
    def terms(self):
        """A read-only {monomial: Scalar} view, built on first read."""
        view = self._terms
        if view is None:
            by_key = {}
            for key, g in _grats(self._flat, self._den):
                powers = (key & _FIELD_MASK, (key >> _FIELD) & _FIELD_MASK)
                s = by_key.get(key >> _VAR_SHIFT)
                if s is None:
                    by_key[key >> _VAR_SHIFT] = Scalar({powers: g})
                else:
                    s.terms[powers] = g
            vars_ = self.alphabet._layout.vars
            view = self._terms = MappingProxyType(
                {_mono(vars_, m): s for m, s in by_key.items()})
        return view

    def coefficients(self):
        """(M, kpow, cpow, g) for each nonzero term g k^kpow c^cpow M, g a
        GRat; a monomial appears once per power pair of its coefficient."""
        vars_ = self.alphabet._layout.vars
        monos = {}
        for key, g in _grats(self._flat, self._den):
            m = key >> _VAR_SHIFT
            mono = monos.get(m)
            if mono is None:
                mono = monos[m] = _mono(vars_, m)
            yield mono, key & _FIELD_MASK, (key >> _FIELD) & _FIELD_MASK, g

    def __reduce__(self):
        # slots are given per process: copies and pickles carry tuple
        # monomials, packed again where they are read
        return SuperPoly, (self.alphabet, dict(self.terms))

    _like = staticmethod(_poly)

    def __add__(self, other):
        return self._plus(other, 1)

    def __mul__(self, other):
        if not isinstance(other, SuperPoly):
            return NotImplemented
        self._check(other)
        alph = self.alphabet
        out = {}
        _mul_flat(out, self._flat, other._flat, alph._layout)
        return _poly(alph, out, self._den * other._den)

    def scale(self, rat) -> "SuperPoly":
        return self.scalar_mul(Scalar.rational(rat))

    def parity(self):
        """0, 1, or None when the polynomial mixes parities."""
        odd = self.alphabet._layout.odd
        p = None
        for key in self._flat:
            q = _key_parity(key, odd)
            if p is None:
                p = q
            elif p != q:
                return None
        return p

    def parity_part(self, p) -> "SuperPoly":
        odd = self.alphabet._layout.odd
        return _poly(self.alphabet, {key: g for key, g in self._flat.items()
                                     if _key_parity(key, odd) == p % 2},
                     self._den)

    def degree_part(self, gens, degree) -> "SuperPoly":
        """The terms whose factors from the generators gens (a set of
        indices) have exponents summing to degree: each term is kept or
        dropped by its key, and no monomial is packed again."""
        alph = self.alphabet
        vars_ = alph._layout.vars
        return _poly(alph, {
            key: n for key, n in self._flat.items()
            if sum(e for (t, _m), e, _u in _factors(vars_, key >> _VAR_SHIFT)
                   if t in gens) == degree}, self._den)

    # -- derivations ----------------------------------------------------
    def deriv(self) -> "SuperPoly":
        """The alphabet's derivation: even del for 'd', odd D for 'D'.

        The derivative of factor t goes into place t (see the module
        docstring), so the only sign is D passing the odd prefix."""
        alph = self.alphabet
        memo = alph._layout.derivs
        out = {}
        get = out.get
        for key, coeff in self._flat.items():
            m = key >> _VAR_SHIFT
            steps = memo.get(m)
            if steps is None:
                steps = _remember(memo, m, _monomial_deriv(alph, m))
            for delta, n in steps:
                key_d = key + delta
                c = coeff * n
                s = get(key_d)
                if s is None:
                    out[key_d] = c
                else:
                    s += c
                    if s:
                        out[key_d] = s
                    else:
                        del out[key_d]
        return _poly(alph, out, self._den)

    def partial(self, var) -> "SuperPoly":
        """Signed partial derivative with respect to variable (gen, order):
        the var entry of gradient(), zero when there is none."""
        found = self.gradient().get(var)
        return SuperPoly.zero(self.alphabet) if found is None else found

    def gradient(self):
        """Every nonzero partial derivative, {var: self.partial(var)} in
        variable order, built in one pass over the terms."""
        alph = self.alphabet
        par, dp = alph.parities, alph.deriv_parity
        vars_ = alph._layout.vars
        acc = {}
        for key, coeff in self._flat.items():
            prefix_parity = 0
            for v, e, u in _factors(vars_, key >> _VAR_SHIFT):
                pv = par[v[0]] ^ (v[1] & dp)
                # key is key - u with one more v, so no two terms share a key
                acc.setdefault(v, {})[key - u] = \
                    coeff * (-e if pv and prefix_parity else e)
                prefix_parity ^= pv & e
        return {v: _poly(alph, acc[v], self._den) for v in sorted(acc)}

    def parity_gradients(self):
        """(p, the gradient of the parity-p part as a tuple of (var,
        partial) pairs) for each nonzero part, p = 0 first; computed on the
        first call and kept (see the module docstring)."""
        if self._gradients is None:
            alph = self.alphabet
            odd = alph._layout.odd
            parts = ({}, {})
            for key, g in self._flat.items():
                parts[_key_parity(key, odd)][key] = g
            self._gradients = tuple(
                (p, tuple(_poly(alph, part, self._den).gradient().items()))
                for p, part in enumerate(parts) if part)
        return self._gradients

    # -- substitution ----------------------------------------------------
    def substitute(self, images, target) -> "SuperPoly":
        """Differential-algebra homomorphism sending generator i to images[i].

        images maps every generator index that occurs to a SuperPoly over
        the target alphabet; u^(m) goes to the m-th derivative of the image.
        Any nonzero image not of its generator's parity raises FlavorError.
        """
        derivs = {}   # generator -> [its image, the image's derivative, ...]

        def image_of(var):
            gen, order = var
            chain = derivs.get(gen)
            if chain is None:
                base = images[gen]
                if base and base.parity() != self.alphabet.parities[gen]:
                    raise FlavorError("parity mismatch for generator %s"
                                      % self.alphabet.names[gen])
                chain = derivs[gen] = [base]
            while len(chain) <= order:
                chain.append(chain[-1].deriv())
            return chain[order]

        # each monomial's coefficient, with all its power pairs (a constant
        # over the target), is multiplied by the images of the monomial's
        # factors in one pass, and added into one running sum
        coeffs = {}
        for key, g in self._flat.items():
            coeffs.setdefault(key >> _VAR_SHIFT, {})[key & _POWERS_MASK] = g
        vars_ = self.alphabet._layout.vars
        layout = target._layout
        out = [{}, 1]
        for m, term in coeffs.items():
            den = self._den
            for v, e, _u in _factors(vars_, m):
                img = image_of(v)
                for _ in range(e):
                    prod = {}
                    _mul_flat(prod, term, img._flat, layout)
                    term = prod
                    den *= img._den
                if not term:
                    break
            if term:
                _add_into(out, term, den)
        return _poly(target, *out)

    # -- rendering / serialization -----------------------------------------
    def render(self) -> str:
        terms = self.terms
        if not terms:
            return "0"
        parts = []
        for mono in sorted(terms):
            c = terms[mono]
            factors = []
            for v, e in mono:
                vs = self.alphabet.var_name(v)
                factors.append(vs if e == 1 else "%s^%d" % (vs, e))
            cs = c.render()
            if not factors:
                parts.append(cs if ("+" not in cs and " - " not in cs) else "(%s)" % cs)
                continue
            body = "*".join(factors)
            if cs == "1":
                parts.append(body)
            elif cs == "-1":
                parts.append("-" + body)
            else:
                if "+" in cs or " - " in cs or (cs.count("-") > 1):
                    cs = "(%s)" % cs
                parts.append("%s*%s" % (cs, body))
        return join_signed(parts)

    __str__ = render
    __repr__ = render

    def to_obj(self):
        return [[[ [v[0], v[1], e] for v, e in mono], c.to_obj()]
                for mono, c in sorted(self.terms.items())]

    @staticmethod
    def from_obj(alph, obj) -> "SuperPoly":
        return SuperPoly(alph, {tuple(((g, m), e) for g, m, e in mono_obj):
                                Scalar.from_obj(c_obj) for mono_obj, c_obj in obj})


def _add_into(entry, flat, den, n=1):
    """entry += n flat/den for a nonzero int n, entry a running sum
    [numerators, denominator] (see _align); nothing is cancelled."""
    _add_flat(entry[0], flat, n if entry[1] == den else n * _align(entry, den))


def _mul_into(entry, flat1, den1, flat2, den2, layout, n=1):
    """entry += n (flat1/den1)(flat2/den2) for a nonzero int n, entry a
    running sum (see _add_into), over an alphabet with slot registry
    layout; nothing is cancelled."""
    den = den1 * den2
    _mul_flat(entry[0], flat1, flat2, layout,
              n if entry[1] == den else n * _align(entry, den))


def _plus_d(alph, flat):
    """The numerators of (x + d) applied to the numerators flat of a bracket
    value over alph, over the same denominator: x^n f goes to
    x^(n+1) f + x^n df, both times (-1)^n when x is odd (chi: the x
    field's low bit is an odd bit over a D alphabet)."""
    layout = alph._layout
    odd_x = layout.odd & _X
    memo = layout.derivs
    out = {}
    get = out.get
    for key, coeff in flat.items():
        if key & odd_x:
            coeff = -coeff
        up = key + _X
        if up & _X_GUARD:
            _overflow()
        s = get(up)
        if s is None:
            out[up] = coeff
        else:
            s += coeff
            if s:
                out[up] = s
            else:
                del out[up]
        m = key >> _VAR_SHIFT
        steps = memo.get(m)
        if steps is None:
            steps = _remember(memo, m, _monomial_deriv(alph, m))
        for delta, n in steps:
            key_d = key + delta
            c = coeff * n
            s = get(key_d)
            if s is None:
                out[key_d] = c
            else:
                s += c
                if s:
                    out[key_d] = s
                else:
                    del out[key_d]
    return out


def _groups(flat, mask):
    """{bits: the terms of flat whose keys have those bits under mask, with
    them cleared}: a bracket value's coefficients by their powers of x
    (mask _X_FIELD), or of x and y (_XY_FIELDS)."""
    out = {}
    for key, g in flat.items():
        bits = key & mask
        part = out.get(bits)
        if part is None:
            part = out[bits] = {}
        part[key ^ bits] = g
    return out


def enumerate_monomials(alph, allowed_vars, weight, parity=None,
                        require_one_of=None):
    """All canonical monomials of the given conformal weight, sorted.

    allowed_vars: list of (gen, order) variables (weights must be > 0).
    require_one_of: optional set of variables; keep only monomials using
    at least one of them (counted with multiplicity >= 1).
    The search runs on integers: each weight, and the target, times the
    lcm of their denominators.
    """
    target = GRat(weight)
    vars_sorted = sorted(allowed_vars)
    weights = [alph.var_weight(v) for v in vars_sorted]
    if any(w <= 0 for w in weights):
        raise ValueError("enumeration requires positive-weight variables")
    scale = lcm(target.d, *(w.d for w in weights))
    steps = [(v, w.a * (scale // w.d), alph.var_parity(v),
              require_one_of is None or v in require_one_of)
             for v, w in zip(vars_sorted, weights)]
    last = len(steps)
    want = None if parity is None else parity % 2
    out = []
    acc = []

    def rec(idx, remaining, p, hit):
        if remaining == 0:
            if hit and (want is None or p == want):
                out.append(tuple(acc))
            return
        if idx == last:
            return
        v, w, odd, needed = steps[idx]
        top = remaining // w
        for e in range(1 if odd and top else top, 0, -1):
            acc.append((v, e))
            rec(idx + 1, remaining - w * e, p ^ (odd & e), hit or needed)
            acc.pop()
        rec(idx + 1, remaining, p, hit)

    rec(0, target.a * (scale // target.d), 0, require_one_of is None)
    return sorted(out)


def random_superpoly(alph, rng, max_factors=3, max_order=2, allowed_gens=None,
                     terms=3, with_k=True):
    """Small random polynomial for the seeded property suites."""
    gens = list(range(len(alph))) if allowed_gens is None else list(allowed_gens)
    poly = SuperPoly.zero(alph)
    for _ in range(terms):
        nfac = rng.randint(0, max_factors)
        mono = SuperPoly.one(alph)
        for _ in range(nfac):
            g = rng.choice(gens)
            m = rng.randint(0, max_order)
            mono = mono * SuperPoly.variable(alph, g, m)
        c = Scalar.rational(rat(rng.randint(-4, 4), rng.randint(1, 3)))
        if with_k and rng.random() < 0.4:
            c = c * Scalar.k()
        poly = poly + mono.scalar_mul(c)
    return poly
