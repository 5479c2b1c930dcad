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
result in a private slot, so that a polynomial bracketed many times (the
BRST element d, a generator value) is differentiated once, and ``terms``
keeps the view described below. Each memo is a pure function of the terms,
which never change, and equality and hashing do not read them. Two threads
that fill one at once compute equal results, and the slot is set by one
atomic store, so a reader sees either no memo or a complete one; any
operation may still run concurrently with any other.

Storage. A polynomial is one flat dict ``{(monomial, k power, c power):
GRat}`` with no zero values: the term g k^a c^b M is the entry
``(M, a, b): g``, and a monomial whose coefficient in Q(i)[k, c] has n
terms holds n entries. Every kernel loop (sum, product, derivation,
partials, substitution, equality, hashing) runs on that dict, so a product
term costs one GRat operation and one key, with no Scalar or coefficient
dict built around it; at a numeric level every key has powers (0, 0). Only
this module reads the layout. The public ``SuperPoly(alph, {M: Scalar})``
still builds a polynomial, dropping zero coefficients; ``terms`` is a
read-only ``{M: Scalar}`` view of it, built on first read (rendering and
serialization read it); ``coefficients()`` yields ``(M, k power, c power,
GRat)`` for the readers that take the coefficients apart, and
``from_coefficients`` is its inverse. ``accumulate`` and
``accumulate_product`` add a value, or a product, in place into a sum map
(pva's dicts of bracket-value coefficients), and ``accumulated`` turns the
map back into SuperPolys.
"""

from __future__ import annotations

from types import MappingProxyType

from .scalars import GR_ONE, GRat, Scalar, _times_int, join_signed, rat

FLAVOR_DEL = "d"   # even derivation, variables u^(m)
FLAVOR_D = "D"     # odd derivation, variables u^[m]
_HALF = rat(1, 2)  # the weight one D adds
_new = object.__new__


class FlavorError(TypeError):
    pass


class Alphabet:
    """Ordered generator set for one polynomial algebra."""

    __slots__ = ("flavor", "names", "parities", "weights", "deriv_parity")

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

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        if not isinstance(other, Alphabet):
            return NotImplemented
        return (self.flavor == other.flavor and self.names == other.names
                and self.parities == other.parities and self.weights == other.weights)

    def __hash__(self):
        return hash((self.flavor, self.names, self.parities, self.weights))

    def var_parity(self, var) -> int:
        i, m = var
        return self.parities[i] ^ (m & self.deriv_parity)

    def var_weight(self, var) -> GRat:
        if self.weights is None:
            raise ValueError("alphabet carries no weights")
        i, m = var
        step = _HALF if self.flavor == FLAVOR_D else GR_ONE
        return self.weights[i] + m * step

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


def _mono_parity(alph, mono) -> int:
    par, dp = alph.parities, alph.deriv_parity
    p = 0
    for (i, m), e in mono:
        p += (par[i] ^ (m & dp)) * e
    return p & 1


def _merge_monomials(par, dp, m1, m2):
    """Supercommutative product of two canonical monomials over an alphabet
    with parities par and deriv_parity dp.

    Returns (monomial, sign) or (None, 0) when an odd variable repeats.
    One merge walk of the two sorted tuples; the sign counts, for each odd
    factor of m1, the odd factors of m2 that must cross it, which are the
    odd factors of m2 already taken.
    """
    if not m1:
        return m2, 1
    if not m2:
        return m1, 1
    if m1[-1][0] < m2[0][0]:
        return m1 + m2, 1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    sign = odd2 = 0
    while i < n1 and j < n2:
        a, b = m1[i], m2[j]
        va, vb = a[0], b[0]
        if va < vb:
            if odd2 and par[va[0]] ^ (va[1] & dp):
                sign += odd2
            out.append(a)
            i += 1
        elif vb < va:
            if par[vb[0]] ^ (vb[1] & dp):
                odd2 += 1
            out.append(b)
            j += 1
        else:
            if par[va[0]] ^ (va[1] & dp):
                return None, 0
            out.append((va, a[1] + b[1]))
            i += 1
            j += 1
    if i < n1:
        if odd2:
            for (g, m), _e in m1[i:]:
                if par[g] ^ (m & dp):
                    sign += odd2
        out.extend(m1[i:])
    else:
        out.extend(m2[j:])
    return tuple(out), -1 if sign & 1 else 1


def _poly(alph, flat) -> "SuperPoly":
    """A SuperPoly over alph that takes over flat, a term dict in the
    storage layout with no zero values."""
    p = _new(SuperPoly)
    p.alphabet = alph
    p._flat = flat
    p._terms = None
    p._gradients = None
    return p


def _monomial_terms(mono, scalar):
    """The flat terms of scalar * mono."""
    return {(mono, kp, cp): g for (kp, cp), g in scalar.terms.items() if g}


def _add_flat(out, flat, neg=0):
    """out += (-1)^neg flat in place, keeping no zero values."""
    get = out.get
    if neg:
        for key, g in flat.items():
            s = get(key)
            if s is None:
                out[key] = -g
            else:
                s = s - g
                if s:
                    out[key] = s
                else:
                    del out[key]
    else:
        for key, g in flat.items():
            s = get(key)
            if s is None:
                out[key] = g
            else:
                s = s + g
                if s:
                    out[key] = s
                else:
                    del out[key]


def _mul_flat(out, flat1, flat2, par, dp, neg=0):
    """out += (-1)^neg flat1 * flat2 in place, keeping no zero values, over
    an alphabet with parities par and deriv_parity dp."""
    get = out.get
    for (m1, k1, c1), g1 in flat1.items():
        if neg:
            g1 = -g1
        for (m2, k2, c2), g2 in flat2.items():
            mono, sign = _merge_monomials(par, dp, m1, m2)
            if mono is None:
                continue
            key = (mono, k1 + k2, c1 + c2)
            g = g1 * g2
            s = get(key)
            if s is None:
                out[key] = -g if sign < 0 else g
            else:
                s = s - g if sign < 0 else s + g
                if s:
                    out[key] = s
                else:
                    del out[key]


class SuperPoly:
    """Sparse supercommutative polynomial with Scalar coefficients, stored
    flat (see the module docstring)."""

    __slots__ = ("alphabet", "_flat", "_terms", "_gradients")

    def __init__(self, alphabet, terms=None):
        """sum_M c_M M over terms {M: Scalar c_M} of canonical monomials M;
        zero coefficients drop out."""
        self.alphabet = alphabet
        self._flat = {(mono, kp, cp): g for mono, c in (terms or {}).items()
                      for (kp, cp), g in c.terms.items() if g}
        self._terms = None
        self._gradients = None

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero(alph) -> "SuperPoly":
        return _poly(alph, {})

    @staticmethod
    def const(alph, scalar: Scalar) -> "SuperPoly":
        return _poly(alph, _monomial_terms((), scalar))

    @staticmethod
    def one(alph) -> "SuperPoly":
        return _poly(alph, {((), 0, 0): GR_ONE})

    @staticmethod
    def variable(alph, gen, order=0, coeff=None) -> "SuperPoly":
        mono = (((gen, order), 1),)
        if coeff is None:
            return _poly(alph, {(mono, 0, 0): GR_ONE})
        return _poly(alph, _monomial_terms(mono, coeff))

    @staticmethod
    def linear(alph, coeffs) -> "SuperPoly":
        """sum_t c_t u_t over (t, c_t) pairs with distinct t and GRat c_t (the
        coordinates of an algebra element); zeros drop out."""
        return _poly(alph, {((((t, 0), 1),), 0, 0): c for t, c in coeffs if c})

    @staticmethod
    def from_coefficients(alph, items) -> "SuperPoly":
        """sum g k^kpow c^cpow M over (M, kpow, cpow, g) items, M a canonical
        monomial and g a GRat; equal (M, kpow, cpow) add up, zeros drop out."""
        out = {}
        for mono, kp, cp, g in items:
            key = (mono, kp, cp)
            s = out.get(key)
            s = g if s is None else s + g
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return _poly(alph, out)

    # -- basics --------------------------------------------------------
    @property
    def terms(self):
        """A read-only {monomial: Scalar} view, built on first read."""
        view = self._terms
        if view is None:
            by_mono = {}
            for (mono, kp, cp), g in self._flat.items():
                s = by_mono.get(mono)
                if s is None:
                    by_mono[mono] = Scalar({(kp, cp): g})
                else:
                    s.terms[(kp, cp)] = g
            view = self._terms = MappingProxyType(by_mono)
        return view

    def coefficients(self):
        """(M, kpow, cpow, g) for each nonzero term g k^kpow c^cpow M, g a
        GRat; a monomial appears once per power pair of its coefficient."""
        return ((mono, kp, cp, g) for (mono, kp, cp), g in self._flat.items())

    def __bool__(self):
        return bool(self._flat)

    def __eq__(self, other):
        if not isinstance(other, SuperPoly):
            return NotImplemented
        return self.alphabet == other.alphabet and self._flat == other._flat

    def __hash__(self):
        return hash((self.alphabet, frozenset(self._flat.items())))

    def _check(self, other):
        if self.alphabet is not other.alphabet and self.alphabet != other.alphabet:
            raise FlavorError("polynomials over different alphabets")

    def __add__(self, other):
        self._check(other)
        out = dict(self._flat)
        _add_flat(out, other._flat)
        return _poly(self.alphabet, out)

    def __neg__(self):
        return _poly(self.alphabet, {key: -g for key, g in self._flat.items()})

    def __sub__(self, other):
        self._check(other)
        out = dict(self._flat)
        _add_flat(out, other._flat, 1)
        return _poly(self.alphabet, out)

    def __mul__(self, other):
        self._check(other)
        alph = self.alphabet
        out = {}
        _mul_flat(out, self._flat, other._flat, alph.parities, alph.deriv_parity)
        return _poly(alph, out)

    def scalar_mul(self, scalar: Scalar) -> "SuperPoly":
        st = scalar.terms
        if len(st) != 1:
            return self * SuperPoly.const(self.alphabet, scalar)
        ((k2, c2), g2), = st.items()
        # Q(i) has no zero divisors: no product vanishes
        if k2 or c2:
            out = {(m, k + k2, c + c2): g * g2
                   for (m, k, c), g in self._flat.items()}
        else:
            out = {key: g * g2 for key, g in self._flat.items()}
        return _poly(self.alphabet, out)

    def scale(self, rat) -> "SuperPoly":
        return self.scalar_mul(Scalar.rational(rat))

    def parity(self):
        """0, 1, or None when the polynomial mixes parities."""
        p = None
        for m, _kp, _cp in self._flat:
            q = _mono_parity(self.alphabet, m)
            if p is None:
                p = q
            elif p != q:
                return None
        return p

    def parity_part(self, p) -> "SuperPoly":
        alph = self.alphabet
        return _poly(alph, {key: g for key, g in self._flat.items()
                            if _mono_parity(alph, key[0]) == p % 2})

    # -- derivations ----------------------------------------------------
    def deriv(self) -> "SuperPoly":
        """The alphabet's derivation: even del for 'd', odd D for 'D'.

        The derivative of factor t goes into place t (see the module
        docstring), so the only sign is D passing the odd prefix."""
        alph = self.alphabet
        par, dp = alph.parities, alph.deriv_parity
        out = {}
        get = out.get
        for (mono, kp, cp), coeff in self._flat.items():
            last = len(mono) - 1
            odd_prefix = 0
            for t, (v, e) in enumerate(mono):
                g, m = v
                dv = (g, m + 1)
                if t < last and mono[t + 1][0] == dv:
                    if par[g] ^ ((m + 1) & dp):
                        mono_d = None   # the odd dv squares to zero
                    else:
                        e2 = mono[t + 1][1] + 1
                        mono_d = mono[:t] + (((v, e - 1), (dv, e2)) if e > 1
                                             else ((dv, e2),)) + mono[t + 2:]
                else:
                    mono_d = mono[:t] + (((v, e - 1), (dv, 1)) if e > 1
                                         else ((dv, 1),)) + mono[t + 1:]
                if mono_d is not None:
                    c = coeff if e == 1 and not odd_prefix \
                        else _times_int(coeff, -e if odd_prefix else e)
                    key = (mono_d, kp, cp)
                    s = get(key)
                    if s is None:
                        out[key] = c
                    else:
                        s = s + c
                        if s:
                            out[key] = s
                        else:
                            del out[key]
                if dp:
                    odd_prefix ^= (par[g] ^ (m & 1)) & e
        return _poly(alph, out)

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
        acc = {}
        for (mono, kp, cp), coeff in self._flat.items():
            prefix_parity = 0
            for t, (v, e) in enumerate(mono):
                pv = par[v[0]] ^ (v[1] & dp)
                neg = pv and prefix_parity
                c = coeff if e == 1 and not neg \
                    else _times_int(coeff, -e if neg else e)
                if e > 1:
                    rest = mono[:t] + ((v, e - 1),) + mono[t + 1:]
                else:
                    rest = mono[:t] + mono[t + 1:]
                # mono is rest with one more v, so no two terms share a key
                acc.setdefault(v, {})[(rest, kp, cp)] = c
                prefix_parity ^= pv & e
        return {v: _poly(alph, acc[v]) for v in sorted(acc)}

    def parity_gradients(self):
        """(p, the gradient of the parity-p part as a tuple of (var,
        partial) pairs) for each nonzero part, p = 0 first; computed on the
        first call and kept (see the module docstring)."""
        if self._gradients is None:
            alph = self.alphabet
            parts = ({}, {})
            for key, g in self._flat.items():
                parts[_mono_parity(alph, key[0])][key] = g
            self._gradients = tuple(
                (p, tuple(_poly(alph, part).gradient().items()))
                for p, part in enumerate(parts) if part)
        return self._gradients

    # -- substitution ----------------------------------------------------
    def substitute(self, images, target) -> "SuperPoly":
        """Differential-algebra homomorphism sending generator i to images[i].

        images maps every generator index that occurs to a SuperPoly over
        the target alphabet; u^(m) goes to the m-th derivative of the image.
        Parity mismatches raise FlavorError.
        """
        cache = {}

        def image_of(var):
            gen, order = var
            if (gen, order) not in cache:
                if (gen, 0) not in cache:
                    base = images[gen]
                    bp = base.parity()
                    if base and bp is not None and bp != self.alphabet.parities[gen]:
                        raise FlavorError("parity mismatch for generator %s"
                                          % self.alphabet.names[gen])
                    cache[(gen, 0)] = base
                m = max(o for g, o in cache if g == gen)
                cur = cache[(gen, m)]
                for o in range(m + 1, order + 1):
                    cur = cur.deriv()
                    cache[(gen, o)] = cur
            return cache[(gen, order)]

        # each monomial's coefficient, with all its power pairs, is
        # multiplied by the images of the monomial's factors in one pass
        coeffs = {}
        for (mono, kp, cp), g in self._flat.items():
            coeffs.setdefault(mono, {})[((), kp, cp)] = g
        par, dp = target.parities, target.deriv_parity
        out = {}
        for mono, term in coeffs.items():
            for v, e in mono:
                img = image_of(v)._flat
                for _ in range(e):
                    prod = {}
                    _mul_flat(prod, term, img, par, dp)
                    term = prod
                if not term:
                    break
            _add_flat(out, term)
        return _poly(target, out)

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


def accumulate(out, key, poly, neg=0):
    """out[key] += (-1)^neg poly in a sum map, keeping no zero entries.

    An entry of a sum map is the caller's SuperPoly until its second
    addition; from then on it is a private term dict that later additions
    add into, or subtract from, in place (the first addition with neg set
    starts one at once). Only accumulated turns the entries back into
    SuperPolys, so a private dict never leaves the function that owns out,
    and no caller's value changes.
    """
    flat = poly._flat
    if not flat:
        return
    s = out.get(key)
    if s is None:
        out[key] = {k: -g for k, g in flat.items()} if neg else poly
        return
    if type(s) is not dict:
        s = out[key] = dict(s._flat)
    _add_flat(s, flat, neg)
    if not s:
        del out[key]


def accumulate_product(out, key, a, b, neg=0):
    """out[key] += (-1)^neg a * b in a sum map (see accumulate), with no
    SuperPoly built for the product."""
    a._check(b)
    s = out.get(key)
    if s is None:
        s = {}
    elif type(s) is not dict:
        s = dict(s._flat)
    alph = a.alphabet
    _mul_flat(s, a._flat, b._flat, alph.parities, alph.deriv_parity, neg)
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def accumulated(alph, out):
    """The entries of a sum map as SuperPolys over alph; out is spent."""
    return {key: _poly(alph, p) if type(p) is dict else p
            for key, p in out.items()}


def enumerate_monomials(alph, allowed_vars, weight, parity=None,
                        require_one_of=None):
    """All canonical monomials of the given conformal weight.

    allowed_vars: list of (gen, order) variables (weights must be > 0).
    require_one_of: optional set of variables; keep only monomials using
    at least one of them (counted with multiplicity >= 1).
    """
    target = GRat(weight)
    vars_sorted = sorted(allowed_vars)
    weights = [alph.var_weight(v) for v in vars_sorted]
    if any(w <= 0 for w in weights):
        raise ValueError("enumeration requires positive-weight variables")
    out = []

    def rec(idx, remaining, acc):
        if remaining == 0:
            mono = tuple(acc)
            if parity is not None and _mono_parity(alph, mono) != parity % 2:
                return
            if require_one_of is not None and not any(v in require_one_of for v, _ in mono):
                return
            out.append(mono)
            return
        if idx == len(vars_sorted):
            return
        v, w = vars_sorted[idx], weights[idx]
        max_e = int(remaining // w)
        if alph.var_parity(v):
            max_e = min(max_e, 1)
        for e in range(max_e, -1, -1):
            if e:
                acc.append((v, e))
            rec(idx + 1, remaining - w * e, acc)
            if e:
                acc.pop()

    rec(0, target, [])
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
