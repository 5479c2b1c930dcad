"""Shared, lazily cached setups so expensive solves run once per session,
and the test-only oracles: a factor-list model of the SuperPoly kernel,
chi/D operator words, the BRST solve and bracket table in j-coordinates,
the per-pair bracket table, per-monomial ansatz terms and per-variable
d_[0]^2 check that families tagged in the y field replaced,
generator solves over the wide k-ansatz, the k-grading oracle, a
symbolic level set to a rational, the conformal weight of a
polynomial (the criterion-8 oracle), exactness witnesses, a dense
reference for the Lie superalgebra bracket, form, validation and rebase, a
chain-enumerating reference for the closed chain sums, and Gauss-Jordan
references for the exact linear solver and for matrix rank, nullspace and
inverse."""

from fractions import Fraction
from functools import reduce

from walgebras.catalog import _build_matrix_algebra, _e, _mat, _mat_add, get_algebra
from walgebras.liealg import (HALF, AlgebraError, LieSuperalgebra, OSPTriple,
                              SL2Triple)
from walgebras.scalars import (GR_ONE, GR_ZERO, GRat, LinearSolveError, Scalar,
                               solve_linear)
from walgebras.spva import (ChiPoly, SUSYBracketTable, susy_affine_table,
                            susy_master_bracket)
from walgebras.superpoly import Alphabet, FLAVOR_D, FLAVOR_DEL, SuperPoly
from walgebras.pva import (BracketTable, Lambda2Poly, LeftBracket, affine_table,
                           arrow_apply)
from walgebras.wclassical import ReductionContext, solve_all_generators
from walgebras.swclassical import SUSYReductionContext, solve_all_susy_generators
from walgebras.brst import BRSTComplex, build_d, cohomology_generators
from walgebras.wclassical import (GeneratorError, WGenerator, ansatz_monomials,
                                  solve_ansatz)

_algebras = {}
_classical = {}
_susy = {}
_brst = {}


def algebra(name):
    """A catalog algebra, or one of the fixtures sl4-principal and
    sl32-principal."""
    if name == "sl4-principal":
        return sl4_principal()
    if name == "sl32-principal":
        return sl32_principal()
    if name not in _algebras:
        _algebras[name] = get_algebra(name)
    return _algebras[name]


def sl4_principal():
    """sl4 as traceless 4x4 matrices (dim 15) with its principal sl2 triple
    E = e12+e23+e34, H = diag(3,1,-1,-3), F = 3e21+4e32+3e43 and the trace
    form scaled by 1/10; W-generator weights 2, 3 and 4."""
    name = "sl4-principal"
    if name not in _algebras:
        n = 4
        names, mats = [], []
        for i in range(n):
            for j in range(n):
                if i != j:
                    names.append("E%d%d" % (i + 1, j + 1))
                    mats.append(_e(n, i, j))
        for i in range(n - 1):
            names.append("H%d" % (i + 1))
            mats.append(_mat(n, {(i, i): 1, (i + 1, i + 1): -1}))
        E = _mat_add(_mat_add(_e(n, 0, 1), _e(n, 1, 2)), _e(n, 2, 3))
        H = _mat(n, {(0, 0): 3, (1, 1): 1, (2, 2): -1, (3, 3): -3})
        F = _mat_add(_mat_add(_e(n, 1, 0, 3), _e(n, 2, 1, 4)), _e(n, 3, 2, 3))
        _algebras[name] = _build_matrix_algebra(
            name, names, mats, [0] * len(mats), set(range(n)),
            form_scale=Fraction(1, 10), sl2_mats=(E, H, F))
    return _algebras[name]


def sl32_principal():
    """sl(3|2) as supertraceless 5x5 supermatrices with row parities
    (0, 1, 0, 1, 0) (dim 24: the 20 E_ij and D_i = e_ii + e_(i+1)(i+1)),
    its principal osp(1|2) e = E01+E12+E23+E34, f = -2E10+E21-E32+2E43,
    H = diag(2, 1, 0, -1, -2), E = [e, e]/2, F = -[f, f]/2 and the
    supertrace form scaled by 1/3."""
    name = "sl32-principal"
    if name not in _algebras:
        n, rows = 5, (0, 1, 0, 1, 0)
        names, mats, parities = [], [], []
        for i in range(n):
            for j in range(n):
                if i != j:
                    names.append("E%d%d" % (i, j))
                    mats.append(_e(n, i, j))
                    parities.append((rows[i] + rows[j]) % 2)
        for i in range(n - 1):
            names.append("D%d" % i)
            mats.append(_mat(n, {(i, i): 1, (i + 1, i + 1): 1}))
            parities.append(0)
        add = lambda *ms: reduce(_mat_add, ms)
        e = add(_e(n, 0, 1), _e(n, 1, 2), _e(n, 2, 3), _e(n, 3, 4))
        f = add(_e(n, 1, 0, -2), _e(n, 2, 1), _e(n, 3, 2, -1), _e(n, 4, 3, 2))
        H = _mat(n, {(0, 0): 2, (1, 1): 1, (3, 3): -1, (4, 4): -2})
        E = add(_e(n, 0, 2), _e(n, 1, 3), _e(n, 2, 4))
        F = add(_e(n, 2, 0, 2), _e(n, 3, 1), _e(n, 4, 2, 2))
        _algebras[name] = _build_matrix_algebra(
            name, names, mats, parities, {0, 2, 4}, form_scale=Fraction(1, 3),
            super_tr=True, osp_mats=(E, e, H, f, F))
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


# -- the axiom checks, bracket by bracket -----------------------------------
# The skew, Jacobi, Leibniz and sesquilinearity defects as pva wrote them
# before its checks shared operators and folded the Jacobi signs: every
# bracket through a fresh master-formula operator, every argument split
# into its parity parts wherever a sign reads a parity (the Jacobi signs
# at each p(a), not folded), and the sums taken as bracket values.

def fresh_bracket(f, g, table):
    """{f_x g} through an operator of its own."""
    return LeftBracket(f, table)(g)


def parity_parts(poly):
    """The nonzero parity parts of poly, each a new polynomial."""
    return [(p, h) for p in (0, 1) for h in (poly.parity_part(p),) if h]


def _minus(x, y, e):
    """x - (-1)^e y."""
    return x + y if e % 2 else x - y


def reference_skew_defect(f, g, table):
    skew = table.value.var.skew
    out = fresh_bracket(f, g, table)
    for pf, fh in parity_parts(f):
        for pg, gh in parity_parts(g):
            out = _minus(out, fresh_bracket(gh, fh, table).flip(),
                         skew + pf * pg)
    return out


def reference_jacobi_defect(a, b, c, table):
    """The Jacobi defect as a Lambda2Poly; each term summed over the
    parity parts of a (the lambda terms 1 and 2 read no parity)."""
    var = table.value.var
    sign1, sign2, sign3 = var.jacobi
    out = {}

    def add(ij, q, e):
        q = -q if e % 2 else q
        out[ij] = out[ij] + q if ij in out else q

    a_split = parity_parts(a) if var.parity else [(0, a)]
    bc = fresh_bracket(b, c, table).coeffs
    for pa, ah in a_split:
        for i, p in bc.items():
            for o, q in fresh_bracket(ah, p, table).coeffs.items():
                add((o, i), q, sign1(pa, i, o))
    for pa, ah in a_split:
        for i, p in fresh_bracket(ah, b, table).coeffs.items():
            for o, q in fresh_bracket(p, c, table).coeffs.items():
                for (t, u), coeff in var.binomial(o).items():
                    add((i + t, u), q.scale(coeff), sign2(pa, i, o))
    for pa, ah in parity_parts(a):
        ac = fresh_bracket(ah, c, table).coeffs
        for pb, bh in parity_parts(b):
            for i, p in ac.items():
                for o, q in fresh_bracket(bh, p, table).coeffs.items():
                    add((i, o), q, sign3(pa, pb, i, o))
    return Lambda2Poly(table.alphabet, var, out)


# -- bracket values as dicts {n: SuperPoly} ---------------------------------
# The bracket-value operations as pva wrote them before values were packed
# into one flat dict: a value is a map n -> SuperPoly, and every operation
# works coefficient by coefficient through SuperPoly's public arithmetic.
# They and the axioms-driven oracle built on them are the independent
# reference for the packed values.

def _dict_acc(out, n, p, e=0):
    """out[n] += (-1)^e p in a dict of coefficients."""
    if p:
        p = -p if e % 2 else p
        out[n] = out[n] + p if n in out else p


class DictValue:
    """sum_n x^n f_n as a dict {n: SuperPoly}; var is pva.LAMBDA or
    spva.CHI."""

    def __init__(self, alphabet, var, coeffs=None):
        self.alphabet = alphabet
        self.var = var
        self.coeffs = {n: p for n, p in (coeffs or {}).items() if p}

    @classmethod
    def of(cls, value):
        """The dict form of a packed value."""
        return cls(value.alphabet, value.var, dict(value.coeffs))

    def _new(self, coeffs):
        return DictValue(self.alphabet, self.var, coeffs)

    def _plus(self, other, e):
        out = dict(self.coeffs)
        for n, p in other.coeffs.items():
            _dict_acc(out, n, p, e)
        return self._new(out)

    def __add__(self, other):
        return self._plus(other, 0)

    def __sub__(self, other):
        return self._plus(other, 1)

    def __neg__(self):
        return self._new({n: -p for n, p in self.coeffs.items()})

    def scalar_mul(self, s):
        return self._new({n: p.scalar_mul(s) for n, p in self.coeffs.items()})

    def mul_left(self, poly):
        """poly * self: a part of parity q passes x^n at the cost (-1)^{pqn}."""
        out = {}
        parts = parity_parts(poly) if self.var.parity else [(0, poly)]
        for q, part in parts:
            for n, p in self.coeffs.items():
                _dict_acc(out, n, part * p, q * n * self.var.parity)
        return self._new(out)

    def mul_right(self, poly):
        return self._new({n: p * poly for n, p in self.coeffs.items()})

    def shift(self, a=1):
        return self._new({n + a: p for n, p in self.coeffs.items()})

    def apply_plus_d(self, times=1):
        """(x + d)(x^n f) = (-1)^{pn} (x^{n+1} f + x^n df), times times."""
        cur = self.coeffs
        for _ in range(times):
            out = {}
            for n, p in cur.items():
                neg = self.var.parity & n
                _dict_acc(out, n + 1, p, neg)
                _dict_acc(out, n, p.deriv(), neg)
            cur = out
        return self._new(cur)

    def flip(self):
        """sum_n (-x-d)^n f_n."""
        out = {}
        for n, p in self.coeffs.items():
            for m, q in self._new({0: p}).apply_plus_d(n).coeffs.items():
                _dict_acc(out, m, q, n)
        return self._new(out)


def dict_arrow_apply(bracket: DictValue, tail: DictValue, q=0) -> DictValue:
    """sum_n (-1)^arrow(q,n) (a_(n)b) (x+d)^n tail."""
    out = DictValue(bracket.alphabet, bracket.var)
    for n, coeff in bracket.coeffs.items():
        term = tail.apply_plus_d(n).mul_left(coeff)
        out = out - term if bracket.var.arrow(q, n) % 2 else out + term
    return out


def dict_oracle(a, b, table) -> DictValue:
    """The axioms-driven bracket of pva (sesquilinearity, right Leibniz,
    skew), on dict values and the table's entries in dict form."""
    out = DictValue(table.alphabet, table.value.var)
    units = {}
    for mono_a, ka, ca, ga in a.coefficients():
        for mono_b, kb, cb, gb in b.coefficients():
            unit = units.get((mono_a, mono_b))
            if unit is None:
                unit = units[mono_a, mono_b] = _dict_oracle_mono(
                    mono_a, mono_b, table)
            out = out + unit.scalar_mul(Scalar.term(ka + kb, ca + cb, ga * gb))
    return out


def _dict_oracle_mono(mono_a, mono_b, table):
    alph, var = table.alphabet, table.value.var
    fac_a = [v for v, e in mono_a for _ in range(e)]
    fac_b = [v for v, e in mono_b for _ in range(e)]
    if not fac_a or not fac_b:
        return DictValue(alph, var)
    if len(fac_b) > 1:
        w = fac_b[0]
        (v, e), rest_t = mono_b[0], mono_b[1:]
        rest_mono = ((v, e - 1),) + rest_t if e > 1 else rest_t
        rest = SuperPoly(alph, {rest_mono: Scalar.one()})
        t1 = _dict_oracle_mono(mono_a, ((w, 1),), table).mul_right(rest)
        t2 = _dict_oracle_mono(mono_a, rest_mono, table).mul_right(
            SuperPoly.variable(alph, w[0], w[1]))
        prest = sum(alph.var_parity(u) for u, e in rest_mono for _ in range(e))
        return t1 - t2 if alph.var_parity(w) * prest % 2 else t1 + t2
    if len(fac_a) > 1:
        pa = sum(alph.var_parity(v) for v in fac_a)
        pb = sum(alph.var_parity(v) for v in fac_b)
        rev = _dict_oracle_mono(mono_b, mono_a, table).flip()
        return -rev if (var.skew + pa * pb) % 2 else rev
    (i, m), = fac_a
    (j, n), = fac_b
    val = DictValue.of(table.entry(i, j)).shift(m)
    val = -val if var.d_left * m % 2 else val
    val = val.apply_plus_d(n)
    return -val if var.d_right(alph.var_parity((i, m))) * n % 2 else val


def dict_jacobi_defect(a, b, c, table):
    """The Jacobi defect as a dict {(i, j): SuperPoly}, each term summed over
    the parity parts of a (and of b in the third), every bracket by
    dict_oracle."""
    var = table.value.var
    sign1, sign2, sign3 = var.jacobi
    out = {}
    a_split = parity_parts(a) if var.parity else [(0, a)]
    bc = dict_oracle(b, c, table).coeffs
    for pa, ah in a_split:
        for i, p in bc.items():
            for o, q in dict_oracle(ah, p, table).coeffs.items():
                _dict_acc(out, (o, i), q, sign1(pa, i, o))
    for pa, ah in a_split:
        for i, p in dict_oracle(ah, b, table).coeffs.items():
            for o, q in dict_oracle(p, c, table).coeffs.items():
                for (t, u), coeff in var.binomial(o).items():
                    _dict_acc(out, (i + t, u), q.scale(coeff), sign2(pa, i, o))
    for pa, ah in parity_parts(a):
        ac = dict_oracle(ah, c, table).coeffs
        for pb, bh in parity_parts(b):
            for i, p in ac.items():
                for o, q in dict_oracle(bh, p, table).coeffs.items():
                    _dict_acc(out, (i, o), q, sign3(pa, pb, i, o))
    return {ij: q for ij, q in out.items() if q}


def reference_leibniz_defects(a, b, c, table):
    right = (fresh_bracket(a, b * c, table)
             - fresh_bracket(a, b, table).mul_right(c))
    left = fresh_bracket(a * b, c, table)
    for pa, ah in parity_parts(a):
        for pc, ch in parity_parts(c):
            ac = fresh_bracket(ah, ch, table)
            for pb, bh in parity_parts(b):
                bc = fresh_bracket(bh, ch, table)
                right = _minus(right, ac.mul_right(bh), pb * pc)
                left = _minus(left, arrow_apply(ac, table.value.of(bh),
                                                pa + pc), pb * pc)
                left = _minus(left, arrow_apply(bc, table.value.of(ah),
                                                pb + pc), pa * (pb + pc))
    return right, left


def reference_sesquilinearity_defects(a, b, table):
    var = table.value.var
    base = fresh_bracket(a, b, table)
    d1 = _minus(fresh_bracket(a.deriv(), b, table), base.shift(), var.d_left)
    d2 = fresh_bracket(a, b.deriv(), table)
    parts = ([(pa, fresh_bracket(ah, b, table)) for pa, ah in parity_parts(a)]
             if var.parity else [(0, base)])
    for pa, value in parts:
        d2 = _minus(d2, value.apply_plus_d(), var.d_right(pa))
    return d1, d2


def reference_check_skew(table):
    alph = table.alphabet
    gens = [SuperPoly.variable(alph, i) for i in range(len(alph))]
    return [(alph.names[a], alph.names[b]) for a in range(len(alph))
            for b in range(len(alph))
            if reference_skew_defect(gens[a], gens[b], table)]


def reference_check_jacobi(table):
    alph = table.alphabet
    n, gens = len(alph), [SuperPoly.variable(alph, i) for i in range(len(alph))]
    return [(alph.names[a], alph.names[b], alph.names[c])
            for a in range(n) for b in range(n) for c in range(n)
            if reference_jacobi_defect(gens[a], gens[b], gens[c], table)]


# -- factor-list model of the SuperPoly kernel ----------------------------
# A monomial is a list of variables with repeats. A product concatenates
# the lists and bubble-sorts them, each swap of two odd neighbours a sign,
# and vanishes on a repeated odd variable; the derivation applies the
# Leibniz rule factor by factor. Nothing here calls the kernel.

def model_var_parity(alph, var):
    i, m = var
    return (alph.parities[i] + (m if alph.flavor == FLAVOR_D else 0)) % 2


def model_factors(mono):
    return [v for v, e in mono for _ in range(e)]


def _model_sort(alph, factors):
    """(sorted factors, sign), or (None, 0) when an odd variable repeats."""
    fs, sign = list(factors), 1
    for end in range(len(fs) - 1, 0, -1):
        for t in range(end):
            if fs[t] > fs[t + 1]:
                if model_var_parity(alph, fs[t]) and model_var_parity(alph, fs[t + 1]):
                    sign = -sign
                fs[t], fs[t + 1] = fs[t + 1], fs[t]
    if any(a == b and model_var_parity(alph, a) for a, b in zip(fs, fs[1:])):
        return None, 0
    return fs, sign


def model_poly(alph, terms):
    """The polynomial sum c * factors over (factors, Scalar c) pairs."""
    out = {}
    for factors, c in terms:
        fs, sign = _model_sort(alph, factors)
        if fs is not None:
            mono = tuple((v, fs.count(v)) for v in sorted(set(fs)))
            out[mono] = out.get(mono, Scalar()) + (c if sign > 0 else -c)
    return SuperPoly(alph, {m: c for m, c in out.items() if c})


def model_add(a, b, sign=1):
    """a + sign * b, summed term by term as Scalars."""
    return model_poly(a.alphabet, [(model_factors(m), c) for m, c in a.terms.items()]
                      + [(model_factors(m), c if sign > 0 else -c)
                         for m, c in b.terms.items()])


def model_mul(a, b):
    return model_poly(a.alphabet, [(model_factors(m1) + model_factors(m2), c1 * c2)
                                   for m1, c1 in a.terms.items()
                                   for m2, c2 in b.terms.items()])


def model_deriv(a):
    """d or D of a: the derivative of each factor in turn; D passing the
    factors before it takes the sign of their parity."""
    alph = a.alphabet
    odd = alph.flavor == FLAVOR_D
    terms = []
    for mono, c in a.terms.items():
        fs, prefix = model_factors(mono), 0
        for t, (i, m) in enumerate(fs):
            terms.append((fs[:t] + [(i, m + 1)] + fs[t + 1:],
                          -c if odd and prefix % 2 else c))
            prefix += model_var_parity(alph, (i, m))
    return model_poly(alph, terms)


def model_mono_parity(alph, mono):
    return sum(model_var_parity(alph, v) for v in model_factors(mono)) % 2


def model_parity(a):
    """0 or 1 for a nonzero homogeneous a, else None."""
    found = {model_mono_parity(a.alphabet, m) for m in a.terms}
    return found.pop() if len(found) == 1 else None


def model_parity_part(a, p):
    return SuperPoly(a.alphabet, {m: c for m, c in a.terms.items()
                                  if model_mono_parity(a.alphabet, m) == p})


def model_partial(a, var):
    """The signed partial derivative of a by var: each occurrence of var in
    a factor list is taken out in turn, passing the factors before it with
    the sign of their parity when var is odd."""
    alph = a.alphabet
    odd = model_var_parity(alph, var)
    terms = []
    for mono, c in a.terms.items():
        fs, prefix = model_factors(mono), 0
        for t, v in enumerate(fs):
            if v == var:
                terms.append((fs[:t] + fs[t + 1:],
                              -c if odd and prefix % 2 else c))
            prefix += model_var_parity(alph, v)
    return model_poly(alph, terms)


def model_substitute(a, images, target):
    """u_i^(m) -> the m-th model_deriv of images[i], applied factor by
    factor: the factor lists of the images are concatenated in order and
    sorted once, by model_poly."""
    terms = []
    for mono, c in a.terms.items():
        expanded = [([], c)]
        for i, m in model_factors(mono):
            img = images[i]
            for _ in range(m):
                img = model_deriv(img)
            expanded = [(fs + model_factors(m2), s * s2) for fs, s in expanded
                        for m2, s2 in img.terms.items()]
        terms += expanded
    return model_poly(target, terms)


def random_scalar(rng, gaussian=False):
    """One or two terms r k^a c^b with a, b <= 2, such as (1/2 + 3k)c: r in
    {-3..3}/{1, 2}, or with gaussian r = (x + y i)/d with x, y in {-3..3}
    and d in 1..6, such as (1/5 - (2/5)i)k; zero terms drop out."""
    s = Scalar()
    for _ in range(rng.randint(1, 2)):
        kp, cp = rng.randint(0, 2), rng.randint(0, 2)
        if gaussian:
            d = rng.randint(1, 6)
            r = GRat(Fraction(rng.randint(-3, 3), d),
                     Fraction(rng.randint(-3, 3), d))
        else:
            r = GRat(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        s = s + Scalar.term(kp, cp, r)
    return s


def random_model_poly(alph, rng, terms=3, max_factors=4, max_order=2,
                      gaussian=False):
    """Seeded random polynomial built by the model, with repeated and
    neighbouring variables (u^(m), u^(m+1)) common and coefficients in
    Q[k, c], or with gaussian in Q(i)[k, c] (random_scalar)."""
    return model_poly(alph, [
        ([(rng.randrange(len(alph)), rng.randint(0, max_order))
          for _ in range(rng.randint(0, max_factors))],
         random_scalar(rng, gaussian))
        for _ in range(terms)])


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
            s = out.get(k, Scalar()) + v
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
                    s = out.get(key, Scalar()) + ca * cb * coeff
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
                cur = cur.apply_plus_d() - cur.shift()   # D = (chi+D) - chi
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
            s = nxt.get(key, Scalar()) + (coeff.scale(-1) if n % 2 else coeff)
            if s:
                nxt[key] = s
            else:
                nxt.pop(key, None)
            if n % 2:
                key = (n + 1, m)
                s = nxt.get(key, Scalar()) + coeff.scale(-2)
                if s:
                    nxt[key] = s
                else:
                    nxt.pop(key, None)
        cur = nxt
    return cur


def phibar_of_vector(cplx, vec) -> SuperPoly:
    """phi^xbar = phi^{bar(pi_- x)}: expand over the dual-ghost basis."""
    g = cplx.ctx.gstar
    # coefficient of u^alpha in pi_-(x) is (x | u_alpha)
    return SuperPoly.linear(cplx.alph, (
        (cplx.phibar_index(alpha), g.form_value(vec, unit(a)))
        for alpha, a in enumerate(cplx.n_idx)))


def dual_vectors(cplx):
    """The basis u^alpha of n_- dual to the n-basis u_beta of the complex,
    (u^alpha | u_beta) = delta, from the inverse of the Gram matrix."""
    g = cplx.ctx.gstar
    minus = [t for t, gr in enumerate(g.gradings) if gr < 0]
    gram = [[g.form_value(unit(a), unit(b)) for b in cplx.n_idx]
            for a in minus]
    inv = dense_inverse(gram)
    return [_pairs(inv[alpha][minus.index(t)] if t in minus else GR_ZERO
                   for t in range(g.dim))
            for alpha in range(cplx.nn)]


def sharp(db, vec):
    """Projection onto ker ad F (resp. ker ad f) along [E,g] (resp. [e,g])."""
    out = [GR_ZERO] * db.g.dim
    for up, low in zip(db.upper, db.lower):
        c = db.g.form_value(up, vec)
        out = [a + b * c for a, b in zip(out, _dense(db.g, low))]
    return _pairs(out)


def j_of_vector(cplx, vec) -> SuperPoly:
    return SuperPoly.linear(cplx.alph, vec)


def bigrade_mono(cplx, mono):
    """gr of a J-alphabet monomial: (g_a, -g_a) for J, the ghost rule for
    ph*, None when an R_+ ghost occurs; D does not change the bigrade."""
    g = cplx.ctx.gstar
    p = q = Fraction(0)
    for (t, _m), e in mono:
        if t < cplx.gdim:
            ga = g.gradings[t]
            bg = (ga, -ga)
        elif t >= cplx.gdim + cplx.nn:
            gb = g.gradings[cplx.n_idx[t - cplx.gdim - cplx.nn]]
            bg = (-gb + HALF, gb + HALF)
        else:
            return None
        p += bg[0] * e
        q += bg[1] * e
    return (p, q)


def full_coords(db, vec):
    """Coordinates of vec in the complete chain basis {chain_lower[j][n]}."""
    coords = {}
    for j in range(len(db.lower)):
        for n in range(len(db.chain_lower[j])):
            c = db.g.form_value(db.chain_upper[j][n], vec)
            if c:
                coords[(j, n)] = c
    return coords


# The BRST side in j-coordinates: d_[0] of the from_J image of each ansatz
# monomial and the brackets over the complex's own table, with no use of
# BRSTComplex.jtable. It is the reference for the J-coordinate engine, and
# takes d_[0] as the chi^0 coefficient of the whole master bracket, not
# through BRSTDifferential.apply.

def j_route_d0(diff, A):
    """d_[0] A, read off the full bracket {d_chi A} over the complex's
    table."""
    return susy_master_bracket(diff.d, A, diff.cplx.table).get(0)


def j_route_differential_terms(cplx, diff, known, monos, in_J=False):
    """Ansatz terms of d_[0](sum x_M M) + known = 0 over J-coordinate
    monomials M, with d_[0] applied to from_J(M) in j-coordinates; the
    conditions are read in j-, or with in_J in J-coordinates."""
    for mono, s in known.terms.items():
        for (kp, cp), gr in s.terms.items():
            yield None, mono, kp, cp, gr
    for M in monos:
        dm = j_route_d0(diff, cplx.from_J(SuperPoly(cplx.jalph, {M: Scalar.one()})))
        if in_J:
            dm = cplx.to_J(dm)
        for mono, s in dm.terms.items():
            for (kp, cp), gr in s.terms.items():
                yield M, mono, kp, cp, gr


def cohomology_ansatz(cplx, j):
    """(lead index, weight, monomials by decreasing filtration level) of the
    H^0 solve for generator j."""
    ctx = cplx.ctx
    lead = ctx.star_index[(j, 0)]
    weight = HALF + ctx.db.spins[j]
    monos = ansatz_monomials(cplx.jalph, ctx.kept_indices, weight,
                             cplx.jalph.parities[lead], ctx.highe_indices)

    def filt(mono):
        return sum(ctx.gstar.gradings[v[0]] * e for v, e in mono)

    return lead, weight, sorted(monos, key=lambda mono: (-filt(mono), mono))


def j_route_cohomology_generators(cplx, diff):
    """The cohomology generators solved with the conditions read in
    j-coordinates, as {index: WGenerator} with value and value_J."""
    ctx = cplx.ctx
    out = {}
    for j in range(ctx.db.count()):
        lead, weight, monos = cohomology_ansatz(cplx, j)
        known = j_route_d0(diff, cplx.building_block(lead))
        value_J = SuperPoly.variable(cplx.jalph, lead) + solve_ansatz(
            cplx.jalph, monos,
            j_route_differential_terms(cplx, diff, known, monos),
            "filtration correction for generator %d" % j,
            None if ctx.k.is_constant() else 0)
        gen = WGenerator(j, cplx.from_J(value_J), weight)
        gen.value_J = value_J
        out[j] = gen
    return out


def j_route_bracket_table(cplx, diff, gens):
    """brst_bracket_table with the generators bracketed in j-coordinates
    over cplx.table, and every check read there."""
    ctx = cplx.ctx
    gen_alph = Alphabet(FLAVOR_D, ["E_" + lb for lb in ctx.gen_labels],
                        ctx.gen_alph.parities, ctx.gen_alph.weights)
    entries = {}
    n = ctx.db.count()
    values = {j: gens[j].value for j in range(n)}
    for i in range(n):
        for j in range(n):
            raw = susy_master_bracket(gens[i].value, gens[j].value, cplx.table)
            coeffs = {}
            for p, poly in raw.coeffs.items():
                if j_route_d0(diff, poly):
                    raise GeneratorError("bracket coefficient not d-closed")
                sym = ctx.symbols(cplx.to_J(poly), gen_alph)
                back = sym.substitute(values, cplx.alph)
                resid = poly - back
                if ctx.symbols(cplx.to_J(resid), gen_alph):
                    raise GeneratorError("representative not reduced")
                if j_route_d0(diff, resid):
                    raise GeneratorError("residual not d-closed")
                if sym:
                    coeffs[p] = sym
            entries[i, j] = ChiPoly(gen_alph, coeffs)
    return SUSYBracketTable(gen_alph, entries)


# The routes that pva.bracket_table, wclassical.ansatz_terms and
# BRSTDifferential.verify replaced by one evaluation of a family tagged in
# the y field: one evaluator call and one rewrite per pair, one image per
# ansatz monomial, two d_[0] per variable. The batched routes are checked
# against them for exact equality.

def pairwise_bracket_table(values, over, alphabet, rewrite, evaluator):
    """pva.bracket_table with one evaluator call and one rewrite per
    pair, through one LeftBracket per row."""
    entries = {}
    for i, a in enumerate(values):
        row = LeftBracket(a, over)
        for j, b in enumerate(values):
            entries[i, j] = rewrite(evaluator(row, b, over))
    return type(over)(alphabet, entries)


def monomial_ansatz_terms(image, lead, monos):
    """wclassical.ansatz_terms with image applied to each ansatz monomial
    alone, with coefficient 1."""
    for M in [None, *monos]:
        poly = lead if M is None else SuperPoly(lead.alphabet,
                                                {M: Scalar.one()})
        for key, value in image(poly).items():
            for m, kp, cp, gr in value.packed_coefficients():
                yield M, (key, m), kp, cp, gr


def variablewise_d_squared_report(diff):
    """BRSTDifferential.verify with d_[0]^2 applied to each variable of the
    complex alone."""
    report = []
    if diff.d_squared_defect():
        report.append("{d_chi d} != 0")
    for t in range(len(diff.cplx.alph)):
        v = SuperPoly.variable(diff.cplx.alph, t)
        if diff.apply(diff.apply(v)):
            report.append("d_[0]^2 != 0 on %s" % diff.cplx.alph.names[t])
    return report


# The ansatz sum_{d <= 2 Delta + 3} k^d M over every monomial M, solved
# with solve_linear directly: the reference for solve_ansatz's one power
# of k per monomial. Its rows are read from the tuple monomials of
# coefficients(), not from the packed keys that wclassical.ansatz_terms
# reads, so the engine's rows are checked against a path they do not share.

def tuple_ansatz_terms(image, lead, monos):
    """wclassical.ansatz_terms with each condition keyed by the tuple
    monomial of the image's term (coefficients())."""
    for M in [None, *monos]:
        poly = lead if M is None else SuperPoly(lead.alphabet,
                                                {M: Scalar.one()})
        for key, value in image(poly).items():
            for mono, kp, cp, gr in value.coefficients():
                yield M, (key, mono), kp, cp, gr


def wide_ansatz_solve(alph, monos, terms, weight, what):
    """The solution of `terms` (solve_ansatz's format) over the columns
    (M, d) for every monomial M and every d <= 2 weight + 3."""
    degrees = range(int(2 * weight) + 4)
    known, cells = {}, {}
    for M, key, kp, cp, gr in terms:
        if M is None:
            known[key, kp, cp] = known.get((key, kp, cp), GR_ZERO) - gr
            continue
        for d in degrees:
            row = cells.setdefault((key, kp + d, cp), {})
            row[M, d] = row.get((M, d), GR_ZERO) + gr
    try:
        sol = solve_linear(
            [({col: gr for col, gr in cells.get(row, {}).items() if gr},
              known.get(row, GR_ZERO)) for row in {**known, **cells}],
            [(M, d) for M in monos for d in degrees])
    except LinearSolveError as e:
        raise GeneratorError("no %s: %s" % (what, e))
    return SuperPoly.from_coefficients(
        alph, ((M, d, 0, gr) for (M, d), gr in sol.items()))


def membership_map(ctx):
    """The map solve_generator's solve must send to zero: poly ->
    {(n, lambda power): rho{n_lambda poly} there} over the n of g_{>0},
    one LeftBracket over ctx.reduced_table per n."""
    brackets = [(t, LeftBracket(ctx.n_var(t), ctx.reduced_table))
                for t in ctx.n_indices]
    return lambda poly: {(t, lam): coeff for t, bracket in brackets
                         for lam, coeff in bracket(poly).coeffs.items()}


def wide_generator_value(ctx, j):
    """The value of solve_generator(ctx, j), from its membership terms
    solved over the wide ansatz."""
    weight = ctx.flavor.shift + ctx.db.spins[j]
    lead = ctx.star_index[(j, 0)]
    monos = ansatz_monomials(ctx.alph, ctx.kept_indices, weight,
                             ctx.alph.parities[lead], ctx.highe_indices)
    lead_poly = SuperPoly.variable(ctx.alph, lead)
    return lead_poly + wide_ansatz_solve(
        ctx.alph, monos,
        tuple_ansatz_terms(membership_map(ctx), lead_poly, monos), weight,
        "generator solution")


def wide_cohomology_value_J(cplx, diff, j):
    """The value_J of H^0 generator j, from the J-coordinate terms of the
    engine solved over the wide ansatz."""
    lead, weight, monos = cohomology_ansatz(cplx, j)
    lead_J = SuperPoly.variable(cplx.jalph, lead)
    return lead_J + wide_ansatz_solve(
        cplx.jalph, monos,
        tuple_ansatz_terms(lambda A: {0: diff.apply_J(A)}, lead_J, monos),
        weight,
        "filtration correction for generator %d" % j)


# k counts as a derivative: del, D, lambda and chi have degree 1, k degree
# -1, and every table entry and generator has degree 0.

def derivative_count(mono):
    return sum(m * e for (_t, m), e in mono)


def inhomogeneous_term(value):
    """The first term of value (a SuperPoly, a bracket value or a bracket
    table) whose power of k is not its power of lambda or chi plus its
    derivative count, as (table key, power of lambda or chi, monomial,
    k power, c power, coefficient); None when there is none."""
    if isinstance(value, SuperPoly):
        items = [(None, 0, value)]
    elif isinstance(value, BracketTable):
        items = [(key, n, p) for key, v in sorted(value.entries.items())
                 for n, p in sorted(v.coeffs.items())]
    else:
        items = [(None, n, p) for n, p in sorted(value.coeffs.items())]
    for key, n, poly in items:
        for mono, kp, cp, gr in poly.coefficients():
            if kp != n + derivative_count(mono):
                return key, n, mono, kp, cp, gr
    return None


def top_k_power(poly):
    return max(kp for _mono, kp, _cp, _gr in poly.coefficients())


def at_level(poly, level: Fraction):
    """poly with the symbolic level k set to the rational `level`."""
    return SuperPoly.from_coefficients(poly.alphabet, (
        (mono, 0, cp, gr * GRat(level ** kp))
        for mono, kp, cp, gr in poly.coefficients()))


def conformal_weight(poly):
    """The common conformal weight of poly's monomials, read from its
    alphabet's generator weights (u^(m) adds m, u^[m] adds m/2): the
    criterion-8 oracle. None for 0, "inhomogeneous" when two differ."""
    alph = poly.alphabet
    step = HALF if alph.flavor == FLAVOR_D else 1
    weights = {sum((alph.weights[i] + m * step) * e for (i, m), e in mono)
               for mono in poly.terms}
    if not weights:
        return None
    return weights.pop() if len(weights) == 1 else "inhomogeneous"


def exactness_witness(cplx, diff, X: SuperPoly):
    """Solve X = d_[0] Y over the fixed-weight ghost-bearing part of S(R_-);
    used as the honest exactness check in the tests."""
    w = conformal_weight(X)
    if w in (None, "inhomogeneous"):
        raise GeneratorError("exactness check needs a homogeneous input")
    ctx = cplx.ctx
    ghosts = [cplx.phibar_index(a) for a in range(cplx.nn)]
    par = X.parity()
    monos = ansatz_monomials(cplx.jalph, ctx.kept_indices + ghosts, w,
                             None if par is None else (par + 1) % 2)
    # d_[0] keeps the k-grading, so Y has the degree of X
    degrees = {derivative_count(mono) - kp
               for mono, kp, _cp, _gr in X.coefficients()}
    if ctx.k.is_constant():
        degree = None
    elif len(degrees) == 1:
        (degree,) = degrees
    else:
        raise GeneratorError("exactness check needs an input homogeneous in k")
    # exactness solves may be underdetermined (many witnesses); consistency
    # of the system is what matters
    try:
        solve_ansatz(cplx.jalph, monos,
                     j_route_differential_terms(cplx, diff, -X, monos, in_J=True),
                     "exactness witness", degree)
    except GeneratorError as e:
        return str(e).startswith("non-unique ")
    return True


# Dense Gauss-Jordan reference for liealg's rank, nullspace and inverse
# (which run on the sparse scalars.row_echelon).

def dense_rref(rows):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        lead = rows[r][col]
        rows[r] = [x / lead for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def dense_rank(rows) -> int:
    return len(dense_rref(rows)[0])


def dense_nullspace(rows, ncols):
    """The nullspace basis read off the RREF: one vector per free column."""
    red, pivots = dense_rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [GR_ZERO] * ncols
        vec[fc] = GR_ONE
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


def dense_inverse(rows):
    """The right half of the RREF of [A | 1]; AlgebraError if A is singular."""
    n = len(rows)
    aug = [list(r) + [GR_ONE if i == j else GR_ZERO for j in range(n)]
           for i, r in enumerate(rows)]
    red, pivots = dense_rref(aug)
    if pivots[:n] != list(range(n)):
        raise AlgebraError("matrix not invertible")
    return [r[n:] for r in red]


# Dense reference for liealg, in GRat arithmetic: the bracket as a loop over
# every structure constant of g.struct, the form as a double loop over
# coordinates, and the validation loops on dense basis vectors. Elements of
# g, (index, GRat) pairs, are made dense where they enter (_dense) and
# turned back where they leave (_pairs); inside, a vector is the tuple of
# its dim coordinates.

def unit(i, c=1):
    """The element c x_i."""
    return ((i, GRat(c)),)


def _dense(g, vec):
    out = [GR_ZERO] * g.dim
    for i, x in vec:
        out[i] = x
    return tuple(out)


def _pairs(coords):
    return tuple((i, x) for i, x in enumerate(coords) if x)


def _dense_bracket(g, x, y):
    out = [GR_ZERO] * g.dim
    for (i, j), vec in g.struct.items():
        if not (x[i] and y[j]):
            continue
        c = x[i] * y[j]
        for l, s in enumerate(_dense(g, vec)):
            if s:
                out[l] = out[l] + c * s
    return tuple(out)


def dense_bracket(g, x, y):
    """LieSuperalgebra.bracket of two elements."""
    return _pairs(_dense_bracket(g, _dense(g, x), _dense(g, y)))


def dense_form_value(g, x, y):
    """LieSuperalgebra.form_value of two elements."""
    return _dense_form_value(g, _dense(g, x), _dense(g, y))


def _dense_form_value(g, x, y):
    out = GR_ZERO
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            if xi and yj and g.form[i][j]:
                out = out + xi * yj * g.form[i][j]
    return out


def _dense_parity(g, vec):
    ps = {g.parities[i] for i, c in enumerate(vec) if c}
    return ps.pop() if len(ps) == 1 else None


def _dense_scaled(vec, r):
    return tuple(x * r for x in vec)


def _dense_sl2_report(g, t, tag):
    report = []
    E, H, F = (_dense(g, v) for v in (t.E, t.H, t.F))
    br = lambda x, y: _dense_bracket(g, x, y)
    for label, got, want in (("[H,E]=2E", br(H, E), _dense_scaled(E, 2)),
                             ("[H,F]=-2F", br(H, F), _dense_scaled(F, -2)),
                             ("[E,F]=H", br(E, F), H)):
        if got != want:
            report.append("%s: %s fails" % (tag, label))
    if _dense_form_value(g, E, F) != GR_ONE:
        report.append("%s: (E|F)=1 fails" % tag)
    if _dense_form_value(g, H, H) != GRat(2):
        report.append("%s: (H|H)=2 fails" % tag)
    for v, nm in ((E, "E"), (H, "H"), (F, "F")):
        if _dense_parity(g, v) not in (0, None):
            report.append("%s: %s not even" % (tag, nm))
    return report


def _dense_osp_report(g, t):
    """The osp(1|2) relations t fails; its (E, H, F) relations only when
    they are not the sl2 triple's, which is reported once, as sl2."""
    s = g.sl2
    shared = s is not None and [t.E, t.H, t.F] == [s.E, s.H, s.F]
    report = [] if shared else _dense_sl2_report(g, t.sl2(), "osp")
    E, e, H, f, F = (_dense(g, v) for v in (t.E, t.e, t.H, t.f, t.F))
    br = lambda x, y: _dense_bracket(g, x, y)
    for label, got, want in (("[H,e]=e", br(H, e), e),
                             ("[H,f]=-f", br(H, f), _dense_scaled(f, -1)),
                             ("[e,e]=2E", br(e, e), _dense_scaled(E, 2)),
                             ("[f,f]=-2F", br(f, f), _dense_scaled(F, -2)),
                             ("[e,f]=-H", br(e, f), _dense_scaled(H, -1)),
                             ("[F,e]=f", br(F, e), f),
                             ("[E,f]=e", br(E, f), e)):
        if got != want:
            report.append("osp: %s fails" % label)
    if _dense_form_value(g, e, f) != GRat(-2):
        report.append("osp: (e|f)=-2 fails")
    for v, nm in ((e, "e"), (f, "f")):
        if _dense_parity(g, v) not in (1, None):
            report.append("osp: %s not odd" % nm)
    return report


def _dense_basis(g):
    return [tuple(GR_ONE if j == i else GR_ZERO for j in range(g.dim))
            for i in range(g.dim)]


def _dense_eigenbasis_error(g):
    H = _dense(g, g.sl2.H)
    for i, x in enumerate(_dense_basis(g)):
        img = _dense_bracket(g, H, x)
        for l, s in enumerate(img):
            if s:
                if l != i:
                    return "basis not ad-H/2 homogeneous (index %d)" % i
                if s.b:
                    return "non-rational ad-H eigenvalue"
    return None


def dense_validate(g):
    """The report of LieSuperalgebra.validate, from dense brackets."""
    report = []
    n, p, dim = g.names, g.parities, g.dim
    basis = _dense_basis(g)
    zero = (GR_ZERO,) * dim
    br = lambda x, y: _dense_bracket(g, x, y)
    pair = [[br(x, y) for y in basis] for x in basis]
    for i in range(dim):
        for j in range(dim):
            bij, bji = pair[i][j], pair[j][i]
            sgn = (-1) ** (p[i] * p[j])
            if any(a + b * sgn for a, b in zip(bij, bji)):
                report.append("super-anticommutativity fails at (%s,%s)" % (n[i], n[j]))
            pb = _dense_parity(g, bij)
            if pb is not None and bij != zero and pb != (p[i] + p[j]) % 2:
                report.append("bracket parity fails at (%s,%s)" % (n[i], n[j]))
    for i in range(dim):
        for j in range(dim):
            for l in range(dim):
                lhs = br(basis[i], pair[j][l])
                r1 = br(pair[i][j], basis[l])
                sgn = (-1) ** (p[i] * p[j])
                r2 = br(basis[j], pair[i][l])
                if any(a - b - c * sgn for a, b, c in zip(lhs, r1, r2)):
                    report.append("Jacobi fails at (%s,%s,%s)" % (n[i], n[j], n[l]))
    for i in range(dim):
        for j in range(dim):
            fij = g.form[i][j]
            if p[i] != p[j] and fij:
                report.append("form not even at (%s,%s)" % (n[i], n[j]))
            if fij != g.form[j][i] * (-1) ** (p[i] * p[j]):
                report.append("form not supersymmetric at (%s,%s)" % (n[i], n[j]))
    for i in range(dim):
        for j in range(dim):
            for l in range(dim):
                if _dense_form_value(g, pair[i][j], basis[l]) != \
                        _dense_form_value(g, basis[i], pair[j][l]):
                    report.append("form not invariant at (%s,%s,%s)" % (n[i], n[j], n[l]))
    if dense_rank(g.form) != dim:
        report.append("form degenerate (rank %d of %d)" % (dense_rank(g.form), dim))
    if g.sl2 is not None:
        report.extend(_dense_sl2_report(g, g.sl2, "sl2"))
        err = _dense_eigenbasis_error(g)
        if err:
            report.append(err)
    if g.osp is not None:
        report.extend(_dense_osp_report(g, g.osp))
    return report


def _dense_grats(g, vec):
    """The element vec, given as (index, coefficient) pairs, as a dense
    tuple of GRats; a Scalar coefficient must be constant."""
    out = [GR_ZERO] * g.dim
    for i, x in vec:
        if isinstance(x, Scalar):
            if any(e != (0, 0) for e in x.terms):
                raise AlgebraError("expected k-free scalar, got %s" % x)
            x = x.terms.get((0, 0), GR_ZERO)
        out[i] = GRat(x)
    return tuple(out)


def dense_rebase(g, vectors, names):
    """LieSuperalgebra.rebase from dense brackets and forms: coordinates in
    the new basis as the full product V^-1 x of each dense vector. The
    vectors are elements whose coefficients may be ints, Fractions, GRats
    or constant Scalars."""
    vectors = [_dense_grats(g, v) for v in vectors]
    if len(vectors) != g.dim:
        raise AlgebraError("rebase needs %d vectors" % g.dim)
    Vinv = dense_inverse([[vectors[j][i] for j in range(g.dim)]
                          for i in range(g.dim)])

    def coords(x):
        return _pairs(sum((Vinv[r][c] * x[c] for c in range(g.dim)), GR_ZERO)
                      for r in range(g.dim))

    parities = []
    for v in vectors:
        p = _dense_parity(g, v)
        if p is None:
            raise AlgebraError("rebase vector not parity homogeneous")
        parities.append(p)
    struct = {}
    for i, vi in enumerate(vectors):
        for j, vj in enumerate(vectors):
            b = _dense_bracket(g, vi, vj)
            if any(b):
                struct[(i, j)] = coords(b)
    form = [tuple(_dense_form_value(g, vi, vj) for vj in vectors) for vi in vectors]
    sl2 = osp = None
    if g.sl2 is not None:
        t = g.sl2
        sl2 = SL2Triple(*(coords(_dense(g, x)) for x in (t.E, t.H, t.F)))
    if g.osp is not None:
        t = g.osp
        osp = OSPTriple(*(coords(_dense(g, x)) for x in (t.E, t.e, t.H, t.f, t.F)))
    return LieSuperalgebra(g.name + "*", names, parities,
                           struct, form, sl2=sl2, osp=osp)


# Chain-enumerating reference for the closed chain sums of wclassical: every
# admissible chain listed, each chain's factors applied one after another.

def admissible_chains(db, min_grade, max_grade):
    """All chains (j_0,n_0) < ... < (j_p,n_p) with consecutive grade gaps
    >= 1 (kind F) or >= 1/2 (kind f), entries graded within
    [min_grade, max_grade].  Includes the empty chain.
    """
    gap = Fraction(1) if db.kind == "F" else HALF
    lo, hi = min_grade, max_grade
    items = [(db.grade_of(j, n), (j, n)) for (j, n) in db.members()
             if lo <= db.grade_of(j, n) <= hi]
    items.sort()
    chains = [[]]

    def extend(prefix, min_next):
        for grade, jn in items:
            if grade >= min_next:
                chain = prefix + [jn]
                chains.append(chain)
                extend(chain, grade + gap)

    extend([], lo)
    return chains


def _odd_members(ctx, chain):
    return sum(1 for j, _n in chain if ctx.g.parity_of_vec(ctx.db.lower[j]))


def symbols_by_substitution(ctx, poly, gen_alph):
    """ReductionContext.symbols as the substitution that sends each chain
    head q_j^0 to symbol j of gen_alph and every other variable of poly's
    alphabet (the ghosts of a BRST J-alphabet too) to 0."""
    images = {t: SuperPoly.zero(gen_alph) for t in range(len(poly.alphabet))}
    for t, (j, n) in enumerate(ctx.members):
        if n == 0:
            images[t] = SuperPoly.variable(gen_alph, j)
    return poly.substitute(images, gen_alph)


def rho_by_substitution(ctx, poly):
    """ReductionContext.rho as the substitution that sends each kept
    variable to itself and each killed one to its constant (F|x), resp.
    (f|x), built as one SuperPoly image per generator."""
    fl, g, db = ctx.flavor, ctx.g, ctx.db
    grads = ctx.gstar.gradings
    nilpotent = getattr(ctx.triple, fl.nilpotent)
    images = {}
    for t, (j, n) in enumerate(ctx.members):
        if fl.killed(grads[t]):
            c = g.form_value(nilpotent, db.chain_lower[j][n])
            images[t] = SuperPoly.from_coefficients(
                ctx.alph, [((), 0, 0, c)])
        else:
            images[t] = SuperPoly.variable(ctx.alph, t)
    return poly.substitute(images, ctx.alph)


def twist_by_substitution(poly, alph, parities):
    """The i-twist abar -> i^{-p(a)} abar into alph, for the parities p(a)
    of its first variables, as the substitution of one SuperPoly image per
    generator (brst.twist_to_J into the J-alphabet, and the symbol twist
    of compare_brst_reduction)."""
    minus_i = Scalar.rational(GRat(0, -1))
    images = {t: SuperPoly.variable(alph, t).scalar_mul(minus_i) if p % 2
              else SuperPoly.variable(alph, t)
              for t, p in enumerate(parities)}
    return poly.substitute(images, alph)


def to_J_image_by_terms(cplx, t):
    """The J-coordinate image of j_t, J_t + (j_t - J_t), by merging the
    tuple terms of J_t over the J-alphabet with those of j_t - J_t (the
    ghost terms, whose indices the two alphabets share)."""
    J = cplx.building_block(t)
    return SuperPoly(cplx.jalph, {**SuperPoly.variable(cplx.jalph, t).terms,
                                  **(cplx.jvar(t) - J).terms})


def doubled_by_walk(poly, target):
    """A D-flavored polynomial over generators {u, Du} with del = D^2, term
    by term: D^m u_i goes to del^(m // 2) of u_i or of Du_i, and each term
    is rebuilt from its coefficient and multiplied out over target."""
    out = SuperPoly.zero(target)
    for mono, kp, cp, gr in poly.coefficients():
        term = SuperPoly.from_coefficients(target, [((), kp, cp, gr)])
        for (i, m), e in mono:
            img = SuperPoly.variable(target, 2 * i + (m % 2), m // 2)
            for _ in range(e):
                term = term * img
        out = out + term
    return out


def sharp_poly(ctx, vec):
    """g^F projection of an algebra vector, as a degree-1 polynomial in the
    chain coordinates of ctx."""
    db = ctx.db
    return SuperPoly.linear(ctx.alph, (
        (ctx.star_index[(j, 0)], ctx.g.form_value(db.upper[j], vec))
        for j in range(db.count())))


def sharp_symbols(ctx, vec):
    """g^F projection of an algebra vector, in generator symbols."""
    db = ctx.db
    return SuperPoly.linear(ctx.gen_alph, (
        (j, ctx.g.form_value(db.upper[j], vec)) for j in range(db.count())))


def chain_constants(ctx, x, y):
    """The triple of ReductionContext.chain_constants, computed from the
    vectors x and y themselves."""
    br = ctx.g.bracket(x, y)
    return sharp_poly(ctx, br), sharp_symbols(ctx, br), ctx.g.form_value(x, y)


def chain_factor(ctx, x, y, tail):
    """([x, y]^sharp - (x|y) k del) applied to the tail, from the vectors."""
    sharp, _sym, c = chain_constants(ctx, x, y)
    out = sharp * tail
    if c:
        out = out - tail.deriv().scalar_mul(ctx.k.scale(c))
    return out


def closed_factor(ctx, x, y, tail):
    """(omega([x,y]^sharp) - (x|y) k (lambda+del)) applied to the tail,
    from the vectors."""
    _sharp, sym, c = chain_constants(ctx, x, y)
    out = tail.mul_left(sym) if sym else tail.zero(ctx.gen_alph)
    if c:
        out = out - tail.apply_plus_d().scalar_mul(ctx.k.scale(c))
    return out


def chain_gamma_linear(ctx, j):
    """wclassical.gamma_linear, summed chain by chain."""
    db = ctx.db
    out = SuperPoly.zero(ctx.alph)
    for chain in admissible_chains(db, -db.spins[j], -HALF):
        if not chain:
            continue
        jp, np_ = chain[-1]
        val = SuperPoly.variable(ctx.alph, ctx.star_index[(jp, np_ + 1)])
        for t in range(len(chain) - 1, 0, -1):
            x = db.chain_lower_or_zero(chain[t - 1][0], chain[t - 1][1] + 1)
            y = db.chain_upper[chain[t][0]][chain[t][1]]
            val = chain_factor(ctx, x, y, val)
        y = db.chain_upper[chain[0][0]][chain[0][1]]
        val = chain_factor(ctx, db.lower[j], y, val)
        if ctx.flavor.signed_chains and _odd_members(ctx, chain) % 2:
            val = -val
        out = out + val
    return out


def chain_w_bracket_closed(ctx, a, b):
    """wclassical.w_bracket_closed, summed chain by chain."""
    g, db, fl = ctx.g, ctx.db, ctx.flavor
    value = fl.table.value
    qa, qb = db.lower[a], db.lower[b]
    out = value.zero(ctx.gen_alph)
    br = sharp_symbols(ctx, g.bracket(qa, qb))
    if br:
        out = out + value.of(br)
    fv = g.form_value(qa, qb)
    if fv:
        out = out + value(ctx.gen_alph,
                          {1: SuperPoly.const(ctx.gen_alph, ctx.k.scale(fv))})
    pa = g.parity_of_vec(qa)
    pb = g.parity_of_vec(qb)
    total = value.zero(ctx.gen_alph)
    for chain in admissible_chains(db, -db.spins[b], db.spins[a] - fl.shift):
        if not chain:
            continue
        jp, np_ = chain[-1]
        x_last = db.chain_lower_or_zero(jp, np_ + 1)
        val = closed_factor(ctx, x_last, qa,
                            value.of(SuperPoly.one(ctx.gen_alph)))
        for t in range(len(chain) - 1, 0, -1):
            x = db.chain_lower_or_zero(chain[t - 1][0], chain[t - 1][1] + 1)
            y = db.chain_upper[chain[t][0]][chain[t][1]]
            val = closed_factor(ctx, x, y, val)
        y0 = db.chain_upper[chain[0][0]][chain[0][1]]
        val = closed_factor(ctx, qb, y0, val)
        if fl.signed_chains and _odd_members(ctx, chain) % 2:
            val = -val
        total = total + val
    if (pa * pb) % 2:
        out = out + total
    else:
        out = out - total
    if fl.signed_head and pa:
        out = -out
    return out


def gauss_jordan_solve(equations, unknowns):
    """Reference for scalars.solve_linear: Gauss-Jordan elimination in the
    given row order, every pivot row kept fully reduced (each new pivot is
    eliminated from all older pivot rows). Same contract: the solution by
    column, or LinearSolveError with the same reason and message."""
    order = {col: n for n, col in enumerate(unknowns)}
    pivots = {}  # col -> (rowdict, rhs), row normalized, fully reduced

    for coeffs, rhs in equations:
        row = {c: g for c, g in coeffs.items() if g}
        # reduce against existing pivots (pivot rows are stored without
        # their own pivot column, so drop it from the row explicitly)
        for col in sorted(row, key=order.__getitem__):
            if col in pivots and row.get(col):
                factor = row.pop(col)
                prow, prhs = pivots[col]
                for c2, g2 in prow.items():
                    s = row.get(c2, GR_ZERO) - factor * g2
                    if s:
                        row[c2] = s
                    else:
                        row.pop(c2, None)
                rhs = rhs - factor * prhs
        row = {c: g for c, g in row.items() if g}
        if not row:
            if rhs:
                raise LinearSolveError("inconsistent")
            continue
        col = min(row, key=order.__getitem__)
        lead = row.pop(col)
        row = {c: g / lead for c, g in row.items()}
        rhs = rhs / lead
        # eliminate the new pivot column from older pivot rows
        for pcol, (prow, prhs) in list(pivots.items()):
            f = prow.get(col)
            if f:
                del prow[col]
                for c2, g2 in row.items():
                    s = prow.get(c2, GR_ZERO) - f * g2
                    if s:
                        prow[c2] = s
                    else:
                        prow.pop(c2, None)
                pivots[pcol] = (prow, prhs - f * rhs)
        pivots[col] = (row, rhs)

    free = [c for c in unknowns if c not in pivots]
    if free:
        raise LinearSolveError("underdetermined", "free columns %s" % free[:4])
    solution = {}
    for col, (row, rhs) in pivots.items():
        if row:
            raise LinearSolveError("internal", "unreduced pivot row")
        solution[col] = rhs
    return solution


def solve_outcome(solver, equations, unknowns):
    """("solved", solution) or (reason, message) of a LinearSolveError."""
    try:
        return "solved", solver(equations, unknowns)
    except LinearSolveError as e:
        return e.reason, str(e)
