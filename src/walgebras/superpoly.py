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
internal state is a first-use memo: ``parity_gradients`` keeps its result
in a private slot, so that a polynomial bracketed many times (the BRST
element d, a generator value) is differentiated once. The memo is a pure
function of the terms, which never change, and equality and hashing do not
read it. Two threads that fill it at once compute equal results, and the
slot is set by one atomic store, so a reader sees either no memo or a
complete one; any operation may still run concurrently with any other.
"""

from __future__ import annotations

from .scalars import GR_ONE, GR_ZERO, GRat, Scalar, join_signed, rat

FLAVOR_DEL = "d"   # even derivation, variables u^(m)
FLAVOR_D = "D"     # odd derivation, variables u^[m]
_HALF = rat(1, 2)  # the weight one D adds


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

    def index(self, name) -> int:
        return self.names.index(name)

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


class SuperPoly:
    """Sparse supercommutative polynomial with Scalar coefficients."""

    __slots__ = ("alphabet", "terms", "_gradients")

    def __init__(self, alphabet, terms=None):
        self.alphabet = alphabet
        self.terms = {} if terms is None else terms
        self._gradients = None

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero(alph) -> "SuperPoly":
        return SuperPoly(alph)

    @staticmethod
    def const(alph, scalar: Scalar) -> "SuperPoly":
        return SuperPoly(alph, {(): scalar} if scalar else {})

    @staticmethod
    def one(alph) -> "SuperPoly":
        return SuperPoly.const(alph, Scalar.one())

    @staticmethod
    def variable(alph, gen, order=0, coeff=None) -> "SuperPoly":
        c = Scalar.one() if coeff is None else coeff
        if not c:
            return SuperPoly(alph)
        return SuperPoly(alph, {(((gen, order), 1),): c})

    @staticmethod
    def linear(alph, coeffs) -> "SuperPoly":
        """sum_t c_t u_t over (t, c_t) pairs with distinct t; zeros drop out."""
        return SuperPoly(alph, {(((t, 0), 1),): c for t, c in coeffs if c})

    # -- basics --------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, SuperPoly):
            return NotImplemented
        return self.alphabet == other.alphabet and self.terms == other.terms

    def __hash__(self):
        return hash((self.alphabet, frozenset(self.terms.items())))

    def _check(self, other):
        if self.alphabet != other.alphabet:
            raise FlavorError("polynomials over different alphabets")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            s = c if s is None else s + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return SuperPoly(self.alphabet, out)

    def __neg__(self):
        return SuperPoly(self.alphabet, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        par, dp = self.alphabet.parities, self.alphabet.deriv_parity
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono, sign = _merge_monomials(par, dp, m1, m2)
                if mono is None:
                    continue
                c = c1 * c2
                s = out.get(mono)
                if sign < 0:
                    s = -c if s is None else s - c
                else:
                    s = c if s is None else s + c
                if s:
                    out[mono] = s
                else:
                    out.pop(mono, None)
        return SuperPoly(self.alphabet, out)

    def scalar_mul(self, scalar: Scalar) -> "SuperPoly":
        if not scalar:
            return SuperPoly(self.alphabet)
        out = {}
        for m, c in self.terms.items():
            s = c * scalar
            if s:
                out[m] = s
        return SuperPoly(self.alphabet, out)

    def scale(self, rat) -> "SuperPoly":
        return self.scalar_mul(Scalar.rational(rat))

    def parity(self):
        """0, 1, or None when the polynomial mixes parities."""
        p = None
        for m in self.terms:
            q = _mono_parity(self.alphabet, m)
            if p is None:
                p = q
            elif p != q:
                return None
        return p

    def parity_part(self, p) -> "SuperPoly":
        alph = self.alphabet
        return SuperPoly(alph, {m: c for m, c in self.terms.items()
                                if _mono_parity(alph, m) == p % 2})

    def variables(self):
        seen = set()
        for m in self.terms:
            for v, _e in m:
                seen.add(v)
        return sorted(seen)

    # -- derivations ----------------------------------------------------
    def deriv(self) -> "SuperPoly":
        """The alphabet's derivation: even del for 'd', odd D for 'D'.

        The derivative of factor t goes into place t (see the module
        docstring), so the only sign is D passing the odd prefix."""
        alph = self.alphabet
        par, dp = alph.parities, alph.deriv_parity
        out = {}
        for mono, coeff in self.terms.items():
            last = len(mono) - 1
            odd_prefix = 0
            for t, (v, e) in enumerate(mono):
                g, m = v
                dv = (g, m + 1)
                c = coeff.scale(e) if e != 1 else coeff
                if odd_prefix:
                    c = -c
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
                    s = out.get(mono_d)
                    s = c if s is None else s + c
                    if s:
                        out[mono_d] = s
                    else:
                        out.pop(mono_d, None)
                if dp:
                    odd_prefix ^= (par[g] ^ (m & 1)) & e
        return SuperPoly(alph, out)

    def partial(self, var) -> "SuperPoly":
        """Signed partial derivative with respect to variable (gen, order)."""
        alph = self.alphabet
        par, dp = alph.parities, alph.deriv_parity
        pv = par[var[0]] ^ (var[1] & dp)
        out = {}
        for mono, coeff in self.terms.items():
            prefix_parity = 0
            for t, (v, e) in enumerate(mono):
                if v == var:
                    c = coeff.scale(e) if e != 1 else coeff
                    if pv and prefix_parity:
                        c = -c
                    if e > 1:
                        rest = mono[:t] + ((v, e - 1),) + mono[t + 1:]
                    else:
                        rest = mono[:t] + mono[t + 1:]
                    s = out.get(rest)
                    s = c if s is None else s + c
                    if s:
                        out[rest] = s
                    else:
                        out.pop(rest, None)
                    break
                prefix_parity ^= (par[v[0]] ^ (v[1] & dp)) & e
        return SuperPoly(alph, out)

    def gradient(self):
        """Every nonzero partial derivative, {var: self.partial(var)} in
        variable order, built in one pass over the terms."""
        alph = self.alphabet
        par, dp = alph.parities, alph.deriv_parity
        acc = {}
        for mono, coeff in self.terms.items():
            prefix_parity = 0
            for t, (v, e) in enumerate(mono):
                pv = par[v[0]] ^ (v[1] & dp)
                c = coeff.scale(e) if e != 1 else coeff
                if pv and prefix_parity:
                    c = -c
                if e > 1:
                    rest = mono[:t] + ((v, e - 1),) + mono[t + 1:]
                else:
                    rest = mono[:t] + mono[t + 1:]
                # mono is rest with one more v, so no two terms share a rest
                acc.setdefault(v, {})[rest] = c
                prefix_parity ^= pv & e
        return {v: SuperPoly(alph, acc[v]) for v in sorted(acc)}

    def parity_gradients(self):
        """(p, the gradient of the parity-p part as a tuple of (var,
        partial) pairs) for each nonzero part, p = 0 first; computed on the
        first call and kept (see the module docstring)."""
        if self._gradients is None:
            parts = ({}, {})
            for mono, coeff in self.terms.items():
                parts[_mono_parity(self.alphabet, mono)][mono] = coeff
            self._gradients = tuple(
                (p, tuple(SuperPoly(self.alphabet, part).gradient().items()))
                for p, part in enumerate(parts) if part)
        return self._gradients

    # -- substitution ----------------------------------------------------
    def substitute(self, images, target=None) -> "SuperPoly":
        """Differential-algebra homomorphism sending generator i to images[i].

        images maps every generator index that occurs to a SuperPoly over
        the target alphabet; u^(m) goes to the m-th derivative of the image.
        Parity mismatches raise FlavorError.
        """
        if target is None:
            sample = next(iter(images.values()), None)
            target = self.alphabet if sample is None else sample.alphabet
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

        out = {}
        for mono, coeff in self.terms.items():
            term = SuperPoly.const(target, coeff)
            for v, e in mono:
                img = image_of(v)
                for _ in range(e):
                    term = term * img
                if term.is_zero():
                    break
            for m, c in term.terms.items():
                s = out.get(m)
                out[m] = c if s is None else s + c
        return SuperPoly(target, {m: c for m, c in out.items() if c})

    # -- weights ----------------------------------------------------------
    def conformal_weight(self):
        """Common conformal weight, or None for 0, or 'inhomogeneous'."""
        w = None
        for mono in self.terms:
            mw = sum((self.alphabet.var_weight(v) * e for v, e in mono), GR_ZERO)
            if w is None:
                w = mw
            elif w != mw:
                return "inhomogeneous"
        return w

    # -- rendering / serialization -----------------------------------------
    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms):
            c = self.terms[mono]
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
        terms = {}
        for mono_obj, c_obj in obj:
            mono = tuple(((g, m), e) for g, m, e in mono_obj)
            c = Scalar.from_obj(c_obj)
            if c:
                terms[mono] = c
        return SuperPoly(alph, terms)


def apply_del(poly: SuperPoly) -> SuperPoly:
    """Even derivation; defined on the del-flavored algebra."""
    if poly.alphabet.flavor != FLAVOR_DEL:
        raise FlavorError("apply_del requires the del flavor")
    return poly.deriv()


def apply_D(poly: SuperPoly) -> SuperPoly:
    """Odd derivation D; D^2 equals the induced even derivation."""
    if poly.alphabet.flavor != FLAVOR_D:
        raise FlavorError("apply_D requires the D flavor")
    return poly.deriv()


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
