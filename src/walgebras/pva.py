"""Lambda-bracket calculus for Poisson vertex algebras.

Bracket values are polynomials in the even indeterminate lambda with
SuperPoly coefficients.  The master formula evaluates the bracket of two
arbitrary differential polynomials from a generator table; skew-symmetry
and the Jacobi identity are checked exactly, the latter in two independent
even indeterminates.
"""

from __future__ import annotations

from math import comb

from .scalars import Scalar, join_signed
from .superpoly import FLAVOR_DEL, SuperPoly, random_superpoly


class LambdaPoly:
    """Finite map n -> SuperPoly: the coefficient of lambda^n."""

    __slots__ = ("alphabet", "coeffs")

    def __init__(self, alphabet, coeffs=None):
        self.alphabet = alphabet
        self.coeffs = {}
        if coeffs:
            for n, p in coeffs.items():
                if p:
                    self.coeffs[n] = p

    @staticmethod
    def zero(alph):
        return LambdaPoly(alph)

    @staticmethod
    def of(poly: SuperPoly, power=0):
        return LambdaPoly(poly.alphabet, {power: poly})

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, LambdaPoly):
            return NotImplemented
        return self.alphabet == other.alphabet and self.coeffs == other.coeffs

    def get(self, n) -> SuperPoly:
        return self.coeffs.get(n, SuperPoly.zero(self.alphabet))

    def __add__(self, other):
        out = dict(self.coeffs)
        for n, p in other.coeffs.items():
            s = out.get(n)
            s = p if s is None else s + p
            if s:
                out[n] = s
            else:
                out.pop(n, None)
        return LambdaPoly(self.alphabet, out)

    def __neg__(self):
        return LambdaPoly(self.alphabet, {n: -p for n, p in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scalar_mul(self, s: Scalar):
        return LambdaPoly(self.alphabet, {n: p.scalar_mul(s)
                                          for n, p in self.coeffs.items()})

    def mul_left(self, poly: SuperPoly):
        """poly * self; lambda is even, so no Koszul signs against powers."""
        return LambdaPoly(self.alphabet, {n: poly * p
                                          for n, p in self.coeffs.items()})

    def mul_right(self, poly: SuperPoly):
        return LambdaPoly(self.alphabet, {n: p * poly
                                          for n, p in self.coeffs.items()})

    def apply_lambda_del(self, sign=1):
        """Apply (lambda + del) (sign=1) or (-lambda - del) (sign=-1)."""
        out = {}
        for n, p in self.coeffs.items():
            for m, q in ((n + 1, p), (n, p.deriv())):
                if sign < 0:
                    q = -q
                if q:
                    s = out.get(m)
                    s = q if s is None else s + q
                    if s:
                        out[m] = s
                    else:
                        out.pop(m, None)
        return LambdaPoly(self.alphabet, out)

    def subs_neg_lambda_del(self):
        """Sum_n (-lambda-del)^n coeff_n: the skew-symmetry substitution."""
        out = LambdaPoly.zero(self.alphabet)
        for n, p in self.coeffs.items():
            cur = LambdaPoly.of(p)
            for _ in range(n):
                cur = cur.apply_lambda_del(sign=-1)
            out = out + cur
        return out

    def max_power(self):
        return max(self.coeffs, default=-1)

    def render(self):
        if not self.coeffs:
            return "0"
        parts = []
        for n in sorted(self.coeffs):
            body = self.coeffs[n].render()
            if n == 0:
                parts.append(body)
                continue
            lam = "λ" if n == 1 else "λ^%d" % n
            if ("+" in body) or (" - " in body) or body.startswith("-"):
                body = "(%s)" % body
            parts.append("%s*%s" % (body, lam))
        return join_signed(parts)

    __str__ = render
    __repr__ = render

    def to_obj(self):
        return [[n, p.to_obj()] for n, p in sorted(self.coeffs.items())]

    @staticmethod
    def from_obj(alph, obj):
        return LambdaPoly(alph, {n: SuperPoly.from_obj(alph, p) for n, p in obj})


def arrow_apply(bracket: LambdaPoly, tail: LambdaPoly) -> LambdaPoly:
    """{a_{lambda+del} c}_-> tail  =  sum_n (a_(n)c) (lambda+del)^n tail."""
    out = LambdaPoly.zero(bracket.alphabet)
    powers = {0: tail}
    top = bracket.max_power()
    for n in range(1, top + 1):
        powers[n] = powers[n - 1].apply_lambda_del()
    for n, coeff in bracket.coeffs.items():
        out = out + powers[n].mul_left(coeff)
    return out


class BracketTable:
    """Lambda-brackets of all ordered generator pairs of an affine-flavored
    polynomial algebra (missing entries are zero)."""

    def __init__(self, alphabet, entries=None):
        if alphabet.flavor != FLAVOR_DEL:
            raise TypeError("BracketTable requires the del flavor")
        self.alphabet = alphabet
        self.entries = {}
        if entries:
            for key, lp in entries.items():
                if lp:
                    self.entries[key] = lp

    def entry(self, i, j) -> LambdaPoly:
        return self.entries.get((i, j), LambdaPoly.zero(self.alphabet))

    def set(self, i, j, lp: LambdaPoly):
        if lp:
            self.entries[(i, j)] = lp
        else:
            self.entries.pop((i, j), None)

    def pairs(self):
        n = len(self.alphabet)
        return [(i, j) for i in range(n) for j in range(n)]

    def to_obj(self):
        return {"alphabet": self.alphabet.to_obj(),
                "entries": [[i, j, lp.to_obj()]
                            for (i, j), lp in sorted(self.entries.items())]}

    @staticmethod
    def from_obj(obj):
        from .superpoly import Alphabet
        alph = Alphabet.from_obj(obj["alphabet"])
        t = BracketTable(alph)
        for i, j, lp in obj["entries"]:
            t.set(i, j, LambdaPoly.from_obj(alph, lp))
        return t


def affine_table(g, alphabet, k: Scalar) -> BracketTable:
    """{x_i lambda x_j} = [x_i, x_j] + k lambda (x_i|x_j) over g's basis."""
    table = BracketTable(alphabet)
    for i in range(g.dim):
        for j in range(g.dim):
            coeffs = {}
            br = g.struct.get((i, j))
            if br is not None:
                poly = SuperPoly.zero(alphabet)
                for l, s in enumerate(br):
                    if s:
                        poly = poly + SuperPoly.variable(alphabet, l, 0, s)
                if poly:
                    coeffs[0] = poly
            fv = g.form[i][j]
            if fv:
                coeffs[1] = SuperPoly.const(alphabet, fv * k)
            if coeffs:
                table.set(i, j, LambdaPoly(alphabet, coeffs))
    return table


def _sign(p):
    return -1 if p % 2 else 1


def master_bracket(f: SuperPoly, g: SuperPoly, table: BracketTable,
                   max_weight=None) -> LambdaPoly:
    """Master-formula evaluation of {f_lambda g} over the table."""
    alph = table.alphabet
    out = LambdaPoly.zero(alph)
    for pf in (0, 1):
        fh = f.parity_part(pf)
        if not fh:
            continue
        for pg in (0, 1):
            gh = g.parity_part(pg)
            if not gh:
                continue
            out = out + _master_homog(fh, pf, gh, pg, table)
    if max_weight is not None:
        out = LambdaPoly(alph, {n: p.truncate_weight(max_weight)
                                for n, p in out.coeffs.items()})
    return out


def _master_homog(f, pf, g, pg, table: BracketTable) -> LambdaPoly:
    alph = table.alphabet
    out = LambdaPoly.zero(alph)
    fvars = f.variables()
    gvars = g.variables()
    for (i, mi) in fvars:
        dfi = f.partial((i, mi))
        if not dfi:
            continue
        inner0 = LambdaPoly.of(dfi)
        inner = inner0
        for _ in range(mi):
            inner = inner.apply_lambda_del(sign=-1)
        for (j, nj) in gvars:
            dgj = g.partial((j, nj))
            if not dgj:
                continue
            ent = table.entry(i, j)
            if not ent:
                continue
            val = arrow_apply(ent, inner)
            for _ in range(nj):
                val = val.apply_lambda_del()
            val = val.mul_left(dgj)
            # sign pinned against the axioms-driven oracle on superalgebras:
            # s(f,g) s(u_i,u_j) s(g,u_j) s(u_j)
            pi, pj = alph.parities[i], alph.parities[j]
            if (pf * pg + pi * pj + pg * pj + pj) % 2:
                val = -val
            out = out + val
    return out


def bracket_oracle(a: SuperPoly, b: SuperPoly, table: BracketTable) -> LambdaPoly:
    """Axioms-driven evaluation (sesquilinearity, right Leibniz, skew);
    the independent oracle for the master formula."""
    alph = table.alphabet
    out = LambdaPoly.zero(alph)
    for mono_a, ca in a.terms.items():
        for mono_b, cb in b.terms.items():
            fa = SuperPoly(alph, {mono_a: ca})
            fb = SuperPoly(alph, {mono_b: cb})
            out = out + _oracle_mono(fa, mono_a, fb, mono_b, table)
    return out


def _mono_factors(mono):
    out = []
    for v, e in mono:
        out.extend([v] * e)
    return out


def _oracle_mono(fa, mono_a, fb, mono_b, table) -> LambdaPoly:
    alph = table.alphabet
    fac_a = _mono_factors(mono_a)
    fac_b = _mono_factors(mono_b)
    if not fac_a or not fac_b:
        return LambdaPoly.zero(alph)
    if len(fac_b) > 1:
        w = fac_b[0]
        wpoly = SuperPoly.variable(alph, w[0], w[1])
        (v, e), rest_t = mono_b[0], mono_b[1:]
        rest_mono = ((v, e - 1),) + rest_t if e > 1 else rest_t
        rest = SuperPoly(alph, {rest_mono: fb.terms[mono_b]})
        t1 = _oracle_mono(fa, mono_a, wpoly, ((w, 1),), table).mul_right(rest)
        pw = alph.var_parity(w)
        prest = sum(alph.var_parity(u) for u in _mono_factors(rest_mono)) % 2
        t2 = _oracle_mono(fa, mono_a, rest, rest_mono, table).mul_right(wpoly)
        if _sign(pw * prest) < 0:
            t2 = -t2
        return t1 + t2
    if len(fac_a) > 1:
        # skew: {A_l B} = -s(A,B){B_{-l-d} A}; right side is now composite
        pa = sum(alph.var_parity(v) for v in fac_a) % 2
        pb = sum(alph.var_parity(v) for v in fac_b) % 2
        rev = _oracle_mono(fb, mono_b, fa, mono_a, table).subs_neg_lambda_del()
        return -rev if _sign(pa * pb) > 0 else rev
    (i, m), = fac_a
    (j, n), = fac_b
    val = table.entry(i, j)
    for _ in range(m):  # [da_l b] = -l [a_l b]
        val = LambdaPoly(alph, {p + 1: -q for p, q in val.coeffs.items()})
    for _ in range(n):  # [a_l db] = (l+d)[a_l b]
        val = val.apply_lambda_del()
    return val.scalar_mul(fa.terms[mono_a] * fb.terms[mono_b])


def skew_defect(f: SuperPoly, g: SuperPoly, table: BracketTable) -> LambdaPoly:
    """[f_lambda g] + s(f,g)[g_{-lambda-del} f]; zero iff skew holds."""
    alph = table.alphabet
    out = master_bracket(f, g, table)
    for pf in (0, 1):
        fh = f.parity_part(pf)
        if not fh:
            continue
        for pg in (0, 1):
            gh = g.parity_part(pg)
            if not gh:
                continue
            rev = master_bracket(gh, fh, table).subs_neg_lambda_del()
            if _sign(pf * pg) < 0:
                rev = -rev
            out = out + rev
    return out


def check_skew(table: BracketTable, polys=None):
    """Report of violating pairs; checks the generator table by default."""
    alph = table.alphabet
    bad = []
    if polys is None:
        polys = [SuperPoly.variable(alph, i) for i in range(len(alph))]
        labels = list(alph.names)
    else:
        labels = ["p%d" % t for t in range(len(polys))]
    for a in range(len(polys)):
        for b in range(len(polys)):
            d = skew_defect(polys[a], polys[b], table)
            if d:
                bad.append((labels[a], labels[b]))
    return bad


class Lambda2Poly:
    """Polynomial in two even indeterminates (lambda, mu)."""

    __slots__ = ("alphabet", "coeffs")

    def __init__(self, alphabet, coeffs=None):
        self.alphabet = alphabet
        self.coeffs = {k: v for k, v in (coeffs or {}).items() if v}

    def __eq__(self, other):
        return self.alphabet == other.alphabet and self.coeffs == other.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def add_term(self, nl, nm, poly):
        key = (nl, nm)
        s = self.coeffs.get(key)
        s = poly if s is None else s + poly
        if s:
            self.coeffs[key] = s
        else:
            self.coeffs.pop(key, None)

    def __add__(self, other):
        out = Lambda2Poly(self.alphabet, dict(self.coeffs))
        for (nl, nm), p in other.coeffs.items():
            out.add_term(nl, nm, p)
        return out

    def __neg__(self):
        return Lambda2Poly(self.alphabet, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def render(self):
        if not self.coeffs:
            return "0"
        parts = []
        for (nl, nm) in sorted(self.coeffs):
            body = self.coeffs[(nl, nm)].render()
            mono = []
            if nl:
                mono.append("λ" if nl == 1 else "λ^%d" % nl)
            if nm:
                mono.append("μ" if nm == 1 else "μ^%d" % nm)
            if not mono:
                parts.append(body)
            else:
                if ("+" in body) or (" - " in body) or body.startswith("-"):
                    body = "(%s)" % body
                parts.append("*".join([body] + mono))
        return join_signed(parts)

    __str__ = render


def jacobi_defect(a: SuperPoly, b: SuperPoly, c: SuperPoly,
                  table: BracketTable) -> Lambda2Poly:
    """[a_l [b_m c]] - [[a_l b]_{l+m} c] - s(a,b)[b_m [a_l c]], exactly."""
    alph = table.alphabet
    out = Lambda2Poly(alph)

    # [a_lambda [b_mu c]]
    inner = master_bracket(b, c, table)
    for m, pm in inner.coeffs.items():
        outer = master_bracket(a, pm, table)
        for n, pn in outer.coeffs.items():
            out.add_term(n, m, pn)

    # -[[a_lambda b]_{lambda+mu} c]
    inner = master_bracket(a, b, table)
    for n, pn in inner.coeffs.items():
        outer = master_bracket(pn, c, table)
        for m, pm in outer.coeffs.items():
            # lambda^n (mu+lambda)^m pm
            for t in range(m + 1):
                out.add_term(n + t, m - t, pm.scale(-comb(m, t)))

    # -s(a,b) [b_mu [a_lambda c]]
    for pa in (0, 1):
        ah = a.parity_part(pa)
        if not ah:
            continue
        for pb in (0, 1):
            bh = b.parity_part(pb)
            if not bh:
                continue
            sgn = -_sign(pa * pb)
            inner = master_bracket(ah, c, table)
            for n, pn in inner.coeffs.items():
                outer = master_bracket(bh, pn, table)
                for m, pm in outer.coeffs.items():
                    out.add_term(n, m, pm.scale(sgn))
    return out


def check_jacobi(table: BracketTable, triples=None, polys=None):
    """Report of violating triples; defaults to all generator triples."""
    alph = table.alphabet
    if polys is None:
        polys = [SuperPoly.variable(alph, i) for i in range(len(alph))]
        labels = list(alph.names)
    else:
        labels = ["p%d" % t for t in range(len(polys))]
    if triples is None:
        n = len(polys)
        triples = [(a, b, c) for a in range(n) for b in range(n) for c in range(n)]
    bad = []
    for (a, b, c) in triples:
        if jacobi_defect(polys[a], polys[b], polys[c], table):
            bad.append((labels[a], labels[b], labels[c]))
    return bad


def leibniz_defects(a, b, c, table: BracketTable):
    """Right and left Leibniz defects for the property suites."""
    alph = table.alphabet
    right = master_bracket(a, b * c, table)
    left = master_bracket(a * b, c, table)
    for pa in (0, 1):
        ah = a.parity_part(pa)
        if not ah:
            continue
        for pb in (0, 1):
            bh = b.parity_part(pb)
            if not bh:
                continue
            # right: {a_l b c} = {a_l b} c + s(a,b) b {a_l c}
            term1 = master_bracket(ah, bh, table).mul_right(c)
            for pc in (0, 1):
                ch = c.parity_part(pc)
                if not ch:
                    continue
                t2 = master_bracket(ah, ch, table).mul_left(bh)
                if _sign(pa * pb) < 0:
                    t2 = -t2
                right = right - t2
            right = right - term1
            # left: {a b_l c} = s(b,c){a_{l+d} c}_->b + s(a,bc){b_{l+d} c}_->a
            for pc in (0, 1):
                ch = c.parity_part(pc)
                if not ch:
                    continue
                t1 = arrow_apply(master_bracket(ah, ch, table), LambdaPoly.of(bh))
                if _sign(pb * pc) < 0:
                    t1 = -t1
                t2 = arrow_apply(master_bracket(bh, ch, table), LambdaPoly.of(ah))
                if _sign(pa * (pb + pc)) < 0:
                    t2 = -t2
                left = left - t1 - t2
    return right, left


def sesquilinearity_defects(a, b, table: BracketTable):
    """([da_l b] + l[a_l b],  [a_l db] - (l+d)[a_l b])."""
    d1 = master_bracket(a.deriv(), b, table)
    base = master_bracket(a, b, table)
    lam_base = LambdaPoly(table.alphabet,
                          {n + 1: p for n, p in base.coeffs.items()})
    d2 = master_bracket(a, b.deriv(), table) - base.apply_lambda_del()
    return d1 + lam_base, d2


def random_property_suite(table: BracketTable, seed, rounds=6,
                          allowed_gens=None):
    """Seeded randomized checks: skew, Jacobi, Leibniz, sesquilinearity."""
    import random as _random
    rng = _random.Random(seed)
    alph = table.alphabet
    failures = []
    for r in range(rounds):
        a = random_superpoly(alph, rng, allowed_gens=allowed_gens)
        b = random_superpoly(alph, rng, allowed_gens=allowed_gens)
        c = random_superpoly(alph, rng, allowed_gens=allowed_gens)
        if skew_defect(a, b, table):
            failures.append(("skew", r))
        if jacobi_defect(a, b, c, table):
            failures.append(("jacobi", r))
        rd, ld = leibniz_defects(a, b, c, table)
        if rd:
            failures.append(("right-leibniz", r))
        if ld:
            failures.append(("left-leibniz", r))
        s1, s2 = sesquilinearity_defects(a, b, table)
        if s1:
            failures.append(("sesquilinearity-1", r))
        if s2:
            failures.append(("sesquilinearity-2", r))
    return failures
