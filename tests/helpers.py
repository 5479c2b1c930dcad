"""Shared, lazily cached setups so expensive solves run once per session,
and the test-only oracles: chi/D operator words and exactness witnesses."""

from fractions import Fraction

from walgebras.catalog import get_algebra
from walgebras.scalars import Scalar
from walgebras.spva import ChiPoly
from walgebras.superpoly import Alphabet, FLAVOR_D, FLAVOR_DEL, SuperPoly
from walgebras.pva import affine_table
from walgebras.spva import susy_affine_table
from walgebras.wclassical import ReductionContext, solve_all_generators
from walgebras.swclassical import SUSYReductionContext, solve_all_susy_generators
from walgebras.brst import (BRSTComplex, _differential_terms, build_d,
                            cohomology_generators)
from walgebras.wclassical import GeneratorError, ansatz_monomials, solve_ansatz

_algebras = {}
_classical = {}
_susy = {}
_brst = {}


def algebra(name):
    if name not in _algebras:
        _algebras[name] = get_algebra(name)
    return _algebras[name]


def affine_alphabet(g):
    return Alphabet(FLAVOR_DEL, g.names, g.parities,
                    [1 - gr for gr in g.gradings])


def susy_alphabet(g):
    return Alphabet(FLAVOR_D, [n + "~" for n in g.names],
                    [(p + 1) % 2 for p in g.parities],
                    [Fraction(1, 2) - gr for gr in g.gradings])


def affine(name):
    g = algebra(name)
    alph = affine_alphabet(g)
    return g, alph, affine_table(g, alph, Scalar.k())


def susy_affine(name):
    g = algebra(name)
    alph = susy_alphabet(g)
    return g, alph, susy_affine_table(g, alph, Scalar.k())


def classical(name):
    if name not in _classical:
        ctx = ReductionContext(algebra(name))
        gens = {w.index: w for w in solve_all_generators(ctx)}
        _classical[name] = (ctx, gens)
    return _classical[name]


def susy(name):
    if name not in _susy:
        ctx = SUSYReductionContext(algebra(name))
        gens = {w.index: w for w in solve_all_susy_generators(ctx)}
        _susy[name] = (ctx, gens)
    return _susy[name]


def brst(name, c=None):
    key = (name, "i" if c is None else str(c))
    if key not in _brst:
        ctx = SUSYReductionContext(algebra(name))
        cplx = BRSTComplex(ctx)
        diff = build_d(cplx, Scalar.imag() if c is None else c)
        gens = {e.index: e for e in cohomology_generators(cplx, diff)}
        _brst[key] = (cplx, diff, gens)
    return _brst[key]


class ChiDWord:
    """Normalized operator word in chi and D: sum of chi^a D^b with Scalar
    coefficients, reduced by chi D + D chi = -2 chi^2."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    @staticmethod
    def identity():
        return ChiDWord({(0, 0): Scalar.one()})

    @staticmethod
    def chi():
        return ChiDWord({(1, 0): Scalar.one()})

    @staticmethod
    def D():
        return ChiDWord({(0, 1): Scalar.one()})

    @staticmethod
    def from_word(letters):
        """Compose letters 'chi'/'D' left to right (leftmost acts last)."""
        out = ChiDWord.identity()
        for letter in letters:
            out = out * (ChiDWord.chi() if letter == "chi" else ChiDWord.D())
        return out

    def __eq__(self, other):
        return self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = out.get(k, Scalar.zero()) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return ChiDWord(out)

    def scalar_mul(self, s):
        return ChiDWord({k: v * s for k, v in self.terms.items()})

    def __mul__(self, other):
        """Operator composition: (self) after (other) = self o other."""
        out = {}
        for (a, b), ca in self.terms.items():
            for (c, d), cb in other.terms.items():
                # chi^a D^b chi^c D^d: move D^b through chi^c
                for (x, y), coeff in _d_through_chi(b, c).items():
                    key = (a + x, y + d)
                    s = out.get(key, Scalar.zero()) + ca * cb * coeff
                    if s:
                        out[key] = s
                    else:
                        out.pop(key, None)
        return ChiDWord(out)

    def apply(self, value: ChiPoly) -> ChiPoly:
        out = ChiPoly.zero(value.alphabet)
        for (a, b), c in self.terms.items():
            cur = value
            for _ in range(b):
                cur = cur.apply_chi_plus_D() - cur.shift()   # D = (chi+D) - chi
            out = out + cur.shift(a).scalar_mul(c)
        return out


def _d_through_chi(b, c):
    """Normal form of D^b chi^c as {(chi_power, d_power): Scalar}."""
    cur = {(c, 0): Scalar.one()}
    for _ in range(b):
        nxt = {}
        for (n, m), coeff in cur.items():
            # D chi^n = (-1)^n chi^n D + (n odd: -2 chi^{n+1})
            key = (n, m + 1)
            s = nxt.get(key, Scalar.zero()) + (coeff.scale(-1) if n % 2 else coeff)
            if s:
                nxt[key] = s
            else:
                nxt.pop(key, None)
            if n % 2:
                key = (n + 1, m)
                s = nxt.get(key, Scalar.zero()) + coeff.scale(-2)
                if s:
                    nxt[key] = s
                else:
                    nxt.pop(key, None)
        cur = nxt
    return cur


def exactness_witness(cplx, diff, X: SuperPoly):
    """Solve X = d_[0] Y over the fixed-weight ghost-bearing part of S(R_-);
    used as the honest exactness check in the tests."""
    w = X.conformal_weight()
    if w in (None, "inhomogeneous"):
        raise GeneratorError("exactness check needs a homogeneous input")
    ctx = cplx.ctx
    ghosts = [cplx.phibar_index(a) for a in range(cplx.nn)]
    par = X.parity()
    monos = ansatz_monomials(cplx.jalph, ctx.kept_indices + ghosts, w,
                             None if par is None else (par + 1) % 2)
    kmax = max((kp for s in X.terms.values() for (kp, cp) in s.terms), default=0) + 2
    # exactness solves may be underdetermined (many witnesses); consistency
    # of the system is what matters
    try:
        solve_ansatz(cplx.jalph, monos, kmax,
                     _differential_terms(cplx, diff, -X, monos, in_J=True),
                     "exactness witness", unique=False)
    except GeneratorError:
        return False
    return True
