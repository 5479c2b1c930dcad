"""Chi-bracket calculus for SUSY Poisson vertex algebras.

Values live in C[chi] (x) P with the odd indeterminate chi written to the
left of coefficients; the C[D]-module structure obeys chi D + D chi =
-2 chi^2, which forces D(chi^n f) = (-1)^n chi^n D f - (1-(-1)^n) chi^{n+1} f.
Operator words in chi and D normalize to sums chi^a D^b (ChiDWord).

Two evaluators are provided: the closed master formula, and an
axioms-driven recursive evaluator (sesquilinearity + right Leibniz + skew)
used as an independent oracle for it in the test suites.
"""

from __future__ import annotations

from math import comb

from .scalars import Scalar, join_signed
from .superpoly import FLAVOR_D, SuperPoly


def _sign(p):
    return -1 if p % 2 else 1


class ChiPoly:
    """Finite map n -> SuperPoly: sum_n chi^n f_n with f_n to the right."""

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
        return ChiPoly(alph)

    @staticmethod
    def of(poly: SuperPoly, power=0):
        return ChiPoly(poly.alphabet, {power: poly})

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, ChiPoly):
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
        return ChiPoly(self.alphabet, out)

    def __neg__(self):
        return ChiPoly(self.alphabet, {n: -p for n, p in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scalar_mul(self, s: Scalar):
        return ChiPoly(self.alphabet, {n: p.scalar_mul(s)
                                       for n, p in self.coeffs.items()})

    def scale(self, r):
        return self.scalar_mul(Scalar.rational(r))

    def mul_left(self, poly: SuperPoly):
        """poly * self; moving poly through chi^n costs s(poly)^n."""
        out = ChiPoly.zero(self.alphabet)
        for pp in (0, 1):
            ph = poly.parity_part(pp)
            if not ph:
                continue
            for n, p in self.coeffs.items():
                q = ph * p
                if pp and n % 2:
                    q = -q
                if q:
                    out = out + ChiPoly(self.alphabet, {n: q})
        return out

    def mul_right(self, poly: SuperPoly):
        return ChiPoly(self.alphabet, {n: p * poly
                                       for n, p in self.coeffs.items()})

    def shift_chi(self, a=1):
        """Left multiplication by chi^a."""
        return ChiPoly(self.alphabet, {n + a: p for n, p in self.coeffs.items()})

    def apply_D(self):
        """D(chi^n f) = (-1)^n chi^n Df + (n odd: -2 chi^{n+1} f)."""
        out = ChiPoly.zero(self.alphabet)
        for n, p in self.coeffs.items():
            dp = p.deriv()
            if dp:
                out = out + ChiPoly(self.alphabet,
                                    {n: -dp if n % 2 else dp})
            if n % 2:
                out = out + ChiPoly(self.alphabet, {n + 1: p.scale(-2)})
        return out

    def apply_chi_plus_D(self, times=1):
        cur = self
        for _ in range(times):
            cur = cur.shift_chi() + cur.apply_D()
        return cur

    def flip(self):
        """sum_n (-D-chi)^n f_n: the skew-symmetry substitution."""
        out = ChiPoly.zero(self.alphabet)
        for n, p in self.coeffs.items():
            cur = ChiPoly.of(p).apply_chi_plus_D(n)
            if n % 2:
                cur = -cur
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
            ch = "χ" if n == 1 else "χ^%d" % n
            if ("+" in body) or (" - " in body) or body.startswith("-"):
                body = "(%s)" % body
            parts.append("%s*%s" % (ch, body))
        return join_signed(parts)

    __str__ = render
    __repr__ = render

    def to_obj(self):
        return [[n, p.to_obj()] for n, p in sorted(self.coeffs.items())]

    @staticmethod
    def from_obj(alph, obj):
        return ChiPoly(alph, {n: SuperPoly.from_obj(alph, p) for n, p in obj})


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
                cur = cur.apply_D()
            out = out + cur.shift_chi(a).scalar_mul(c)
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


class SUSYBracketTable:
    """Chi-brackets of ordered generator pairs of a D-flavored algebra."""

    def __init__(self, alphabet, entries=None):
        if alphabet.flavor != FLAVOR_D:
            raise TypeError("SUSYBracketTable requires the D flavor")
        self.alphabet = alphabet
        self.entries = {}
        if entries:
            for key, cp in entries.items():
                if cp:
                    self.entries[key] = cp

    def entry(self, i, j) -> ChiPoly:
        return self.entries.get((i, j), ChiPoly.zero(self.alphabet))

    def set(self, i, j, cp: ChiPoly):
        if cp:
            self.entries[(i, j)] = cp
        else:
            self.entries.pop((i, j), None)

    def to_obj(self):
        return {"alphabet": self.alphabet.to_obj(), "flavor": "chi",
                "entries": [[i, j, cp.to_obj()]
                            for (i, j), cp in sorted(self.entries.items())]}

    @staticmethod
    def from_obj(obj):
        from .superpoly import Alphabet
        alph = Alphabet.from_obj(obj["alphabet"])
        t = SUSYBracketTable(alph)
        for i, j, cp in obj["entries"]:
            t.set(i, j, ChiPoly.from_obj(alph, cp))
        return t


def susy_affine_table(g, alphabet, k: Scalar) -> SUSYBracketTable:
    """[abar_chi bbar] = s(a)(bar[a,b] + chi k (a|b)); note p(abar)=p(a)+1."""
    table = SUSYBracketTable(alphabet)
    for i in range(g.dim):
        for j in range(g.dim):
            sgn = _sign(g.parities[i])
            coeffs = {}
            br = g.struct.get((i, j))
            if br is not None:
                poly = SuperPoly.zero(alphabet)
                for l, s in enumerate(br):
                    if s:
                        poly = poly + SuperPoly.variable(alphabet, l, 0,
                                                         s if sgn > 0 else -s)
                if poly:
                    coeffs[0] = poly
            fv = g.form[i][j]
            if fv:
                c = fv * k
                coeffs[1] = SuperPoly.const(alphabet, c if sgn > 0 else -c)
            if coeffs:
                table.set(i, j, ChiPoly(alphabet, coeffs))
    return table


def chi_arrow_apply(bracket: ChiPoly, pi, pj, tail: ChiPoly) -> ChiPoly:
    """{u_i_{chi+D} u_j}_-> tail = sum_n s(u_i u_j)^n (u_i[n]u_j)(chi+D)^n tail.

    Carries the normal-form factor (-1)^{n(n-1)/2} of (chi+D)^n so that the
    master formula reproduces table entries at every chi power (pinned by
    the axioms oracle; only powers >= 2 are sensitive to it).
    """
    out = ChiPoly.zero(bracket.alphabet)
    powers = {0: tail}
    for n in range(1, bracket.max_power() + 1):
        powers[n] = powers[n - 1].apply_chi_plus_D()
    sij = (pi + pj) % 2
    for n, coeff in bracket.coeffs.items():
        val = powers[n].mul_left(coeff)
        if (sij * n + (n * (n - 1)) // 2) % 2:
            val = -val
        out = out + val
    return out


def susy_master_bracket(a: SuperPoly, b: SuperPoly, table: SUSYBracketTable,
                        max_weight=None) -> ChiPoly:
    """Closed master-formula evaluation of {a_chi b}."""
    alph = table.alphabet
    out = ChiPoly.zero(alph)
    for pa in (0, 1):
        ah = a.parity_part(pa)
        if not ah:
            continue
        for pb in (0, 1):
            bh = b.parity_part(pb)
            if not bh:
                continue
            out = out + _susy_master_homog(ah, pa, bh, pb, table)
    if max_weight is not None:
        out = ChiPoly(alph, {n: p.truncate_weight(max_weight)
                             for n, p in out.coeffs.items()})
    return out


def _susy_master_homog(a, pa, b, pb, table) -> ChiPoly:
    alph = table.alphabet
    out = ChiPoly.zero(alph)
    for (i, m) in a.variables():
        da = a.partial((i, m))
        if not da:
            continue
        p_uim = alph.var_parity((i, m))
        p_da = (pa + p_uim) % 2
        inner = ChiPoly.of(da).apply_chi_plus_D(m)
        for (j, n) in b.variables():
            db = b.partial((j, n))
            if not db:
                continue
            ent = table.entry(i, j)
            if not ent:
                continue
            p_ujn = alph.var_parity((j, n))
            p_db = (pb + p_ujn) % 2
            val = chi_arrow_apply(ent, alph.parities[i], alph.parities[j], inner)
            val = val.apply_chi_plus_D(n)
            val = val.mul_left(db)
            si, sj = alph.parities[i], alph.parities[j]
            exp = (p_db + p_db * (p_ujn + pa) + p_da * p_ujn      # S(a_(im), b_(jn))
                   + n + m * n + (m * (m + 1)) // 2
                   + si * (n + m) + sj * m)
            if exp % 2:
                val = -val
            out = out + val
    return out


def susy_bracket_oracle(a: SuperPoly, b: SuperPoly,
                        table: SUSYBracketTable) -> ChiPoly:
    """Axioms-driven evaluation (sesquilinearity, right Leibniz, skew);
    independent of the closed master formula."""
    alph = table.alphabet
    out = ChiPoly.zero(alph)
    for mono_a, ca in a.terms.items():
        fa = SuperPoly(alph, {mono_a: ca})
        for mono_b, cb in b.terms.items():
            fb = SuperPoly(alph, {mono_b: cb})
            out = out + _oracle_mono(fa, mono_a, fb, mono_b, table)
    return out


def _factors(mono):
    out = []
    for v, e in mono:
        out.extend([v] * e)
    return out


def _oracle_mono(fa, mono_a, fb, mono_b, table) -> ChiPoly:
    alph = table.alphabet
    fac_a = _factors(mono_a)
    fac_b = _factors(mono_b)
    if not fac_a or not fac_b:
        return ChiPoly.zero(alph)  # bracket with a constant vanishes
    if len(fac_b) > 1:
        # right Leibniz: {a_chi w rest} = {a_chi w} rest + s(w, rest){a_chi rest} w
        w = fac_b[0]
        wpoly = SuperPoly.variable(alph, w[0], w[1])
        (v, e), rest_t = mono_b[0], mono_b[1:]
        rest_mono = ((v, e - 1),) + rest_t if e > 1 else rest_t
        rest = SuperPoly(alph, {rest_mono: fb.terms[mono_b]})
        t1 = _oracle_mono(fa, mono_a, wpoly, ((w, 1),), table).mul_right(rest)
        pw = alph.var_parity(w)
        prest = sum(alph.var_parity(u) for u in _factors(rest_mono)) % 2
        t2 = _oracle_mono(fa, mono_a, rest, rest_mono, table).mul_right(wpoly)
        if _sign(pw * prest) < 0:
            t2 = -t2
        return t1 + t2
    if len(fac_a) > 1:
        # skew: {A_chi B} = s(A,B) {B_{-chi-D} A}; right side is now composite
        pa = sum(alph.var_parity(v) for v in fac_a) % 2
        pb = sum(alph.var_parity(v) for v in fac_b) % 2
        rev = _oracle_mono(fb, mono_b, fa, mono_a, table).flip()
        return rev if _sign(pa * pb) > 0 else -rev
    (i, m), = fac_a
    (j, n), = fac_b
    ca = fa.terms[mono_a]
    cb = fb.terms[mono_b]
    base = table.entry(i, j)
    val = base.shift_chi(m) if m else base  # [D^m x_chi y] = chi^m [x_chi y]
    s_left = (alph.parities[i] + m) % 2
    for _ in range(n):
        val = val.apply_chi_plus_D()
        if s_left == 0:
            val = -val  # [x_chi D y] = -s(x)(D+chi)[x_chi y]
    return val.scalar_mul(ca * cb)


def check_susy_skew(table: SUSYBracketTable, polys=None,
                    evaluator=susy_master_bracket):
    alph = table.alphabet
    if polys is None:
        polys = [SuperPoly.variable(alph, i) for i in range(len(alph))]
        labels = list(alph.names)
    else:
        labels = ["p%d" % t for t in range(len(polys))]
    bad = []
    for x in range(len(polys)):
        for y in range(len(polys)):
            if susy_skew_defect(polys[x], polys[y], table, evaluator):
                bad.append((labels[x], labels[y]))
    return bad


def susy_skew_defect(a, b, table, evaluator=susy_master_bracket) -> ChiPoly:
    """[a_chi b] - s(a,b)[b_{-chi-D} a]."""
    out = evaluator(a, b, table)
    for pa in (0, 1):
        ah = a.parity_part(pa)
        if not ah:
            continue
        for pb in (0, 1):
            bh = b.parity_part(pb)
            if not bh:
                continue
            rev = evaluator(bh, ah, table).flip()
            if _sign(pa * pb) < 0:
                rev = -rev
            out = out - rev
    return out


class Chi2Poly:
    """Normal form sum chi^i gamma^j f_ij for the SUSY Jacobi identity;
    chi and gamma are odd and anticommute."""

    __slots__ = ("alphabet", "coeffs")

    def __init__(self, alphabet, coeffs=None):
        self.alphabet = alphabet
        self.coeffs = {k: v for k, v in (coeffs or {}).items() if v}

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return self.alphabet == other.alphabet and self.coeffs == other.coeffs

    def add_term(self, i, j, poly):
        key = (i, j)
        s = self.coeffs.get(key)
        s = poly if s is None else s + poly
        if s:
            self.coeffs[key] = s
        else:
            self.coeffs.pop(key, None)

    def __add__(self, other):
        out = Chi2Poly(self.alphabet, dict(self.coeffs))
        for (i, j), p in other.coeffs.items():
            out.add_term(i, j, p)
        return out

    def __neg__(self):
        return Chi2Poly(self.alphabet, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def render(self):
        if not self.coeffs:
            return "0"
        parts = []
        for (i, j) in sorted(self.coeffs):
            mono = []
            if i:
                mono.append("χ" if i == 1 else "χ^%d" % i)
            if j:
                mono.append("γ" if j == 1 else "γ^%d" % j)
            body = self.coeffs[(i, j)].render()
            if mono:
                if ("+" in body) or (" - " in body) or body.startswith("-"):
                    body = "(%s)" % body
                parts.append("*".join(mono + [body]))
            else:
                parts.append(body)
        return join_signed(parts)

    __str__ = render


def _chi_gamma_power(m):
    """(chi+gamma)^m in normal form: {(a, b): integer coefficient}."""
    out = {}
    if m % 2 == 0:
        t = m // 2
        for s in range(t + 1):
            out[(2 * s, 2 * (t - s))] = comb(t, s)
    else:
        t = (m - 1) // 2
        for s in range(t + 1):
            out[(2 * s + 1, 2 * (t - s))] = comb(t, s)
            out[(2 * s, 2 * (t - s) + 1)] = comb(t, s)
    return out


def susy_jacobi_defect(a, b, c, table, evaluator=susy_master_bracket) -> Chi2Poly:
    """[a_chi[b_gam c]] + s(a)[[a_chi b]_{chi+gam} c]
    + s(a,b)s(a)s(b)[b_gam[a_chi c]]; zero iff the Jacobi identity holds."""
    alph = table.alphabet
    out = Chi2Poly(alph)
    for pa in (0, 1):
        ah = a.parity_part(pa)
        if not ah:
            continue
        for pb in (0, 1):
            bh = b.parity_part(pb)
            if not bh:
                continue
            sa, sb = _sign(pa), _sign(pb)

            inner = evaluator(bh, c, table)
            for n, xn in inner.coeffs.items():
                outer = evaluator(ah, xn, table)
                for m, y in outer.coeffs.items():
                    sgn = ((-sa) ** n) * ((-1) ** (n * m))
                    out.add_term(m, n, y.scale(sgn))

            inner = evaluator(ah, bh, table)
            for n, yn in inner.coeffs.items():
                outer = evaluator(yn, c, table)
                for m, z in outer.coeffs.items():
                    for (xp, gp), coeff in _chi_gamma_power(m).items():
                        sgn = sa * ((-1) ** n) * coeff
                        out.add_term(n + xp, gp, z.scale(sgn))

            inner = evaluator(ah, c, table)
            for n, zn in inner.coeffs.items():
                outer = evaluator(bh, zn, table)
                for m, w in outer.coeffs.items():
                    sgn = _sign(pa * pb) * sa * sb * ((-sb) ** n)
                    out.add_term(n, m, w.scale(sgn))
    return out


def check_susy_jacobi(table, triples=None, polys=None,
                      evaluator=susy_master_bracket):
    alph = table.alphabet
    if polys is None:
        polys = [SuperPoly.variable(alph, i) for i in range(len(alph))]
        labels = list(alph.names)
    else:
        labels = ["p%d" % t for t in range(len(polys))]
    if triples is None:
        n = len(polys)
        triples = [(x, y, z) for x in range(n) for y in range(n) for z in range(n)]
    bad = []
    for (x, y, z) in triples:
        if susy_jacobi_defect(polys[x], polys[y], polys[z], table, evaluator):
            bad.append((labels[x], labels[y], labels[z]))
    return bad


def susy_leibniz_defects(a, b, c, table, evaluator=susy_master_bracket):
    """Right: {a_chi bc} - {a_chi b}c - s(b,c){a_chi c}b.
    Left: {ab_chi c} - s(b,c){a_{chi+D}c}_->b - s(a,bc){b_{chi+D}c}_->a."""
    alph = table.alphabet
    right = evaluator(a, b * c, table)
    left = evaluator(a * b, c, table)
    for pa in (0, 1):
        ah = a.parity_part(pa)
        if not ah:
            continue
        for pb in (0, 1):
            bh = b.parity_part(pb)
            if not bh:
                continue
            for pc in (0, 1):
                ch = c.parity_part(pc)
                if not ch:
                    continue
                t1 = evaluator(ah, bh, table).mul_right(ch)
                t2 = evaluator(ah, ch, table).mul_right(bh)
                if _sign(pb * pc) < 0:
                    t2 = -t2
                right = right - t1 - t2
                u1 = chi_arrow_apply(evaluator(ah, ch, table), pa, pc, ChiPoly.of(bh))
                if _sign(pb * pc) < 0:
                    u1 = -u1
                u2 = chi_arrow_apply(evaluator(bh, ch, table), pb, pc, ChiPoly.of(ah))
                if _sign(pa * (pb + pc)) < 0:
                    u2 = -u2
                left = left - u1 - u2
    return right, left


def susy_sesquilinearity_defects(a, b, table, evaluator=susy_master_bracket):
    """([Da_chi b] - chi[a_chi b],  [a_chi Db] + s(a)(D+chi)[a_chi b])."""
    base = evaluator(a, b, table)
    d1 = evaluator(a.deriv(), b, table) - base.shift_chi()
    d2 = evaluator(a, b.deriv(), table)
    for pa in (0, 1):
        ah = a.parity_part(pa)
        if not ah:
            continue
        t = evaluator(ah, b, table).apply_chi_plus_D()
        if _sign(pa) > 0:
            d2 = d2 + t
        else:
            d2 = d2 - t
    return d1, d2


def random_susy_property_suite(table, seed, rounds=5, allowed_gens=None,
                               evaluator=susy_master_bracket):
    import random as _random
    from .superpoly import random_superpoly
    rng = _random.Random(seed)
    alph = table.alphabet
    failures = []
    for r in range(rounds):
        a = random_superpoly(alph, rng, allowed_gens=allowed_gens)
        b = random_superpoly(alph, rng, allowed_gens=allowed_gens)
        c = random_superpoly(alph, rng, allowed_gens=allowed_gens)
        if susy_skew_defect(a, b, table, evaluator):
            failures.append(("susy-skew", r))
        if susy_jacobi_defect(a, b, c, table, evaluator):
            failures.append(("susy-jacobi", r))
        rd, ld = susy_leibniz_defects(a, b, c, table, evaluator)
        if rd:
            failures.append(("susy-right-leibniz", r))
        if ld:
            failures.append(("susy-left-leibniz", r))
        s1, s2 = susy_sesquilinearity_defects(a, b, table, evaluator)
        if s1:
            failures.append(("susy-sesqui-1", r))
        if s2:
            failures.append(("susy-sesqui-2", r))
        if evaluator(a, b, table) != susy_bracket_oracle(a, b, table):
            failures.append(("master-vs-oracle", r))
    return failures


# ---------------------------------------------------------------------------
# SUSY PVA -> PVA reduction: a_(n)b = (-1)^n a_[2n+1]b, del = D^2
# ---------------------------------------------------------------------------

def doubled_alphabet(alph):
    """Affine alphabet over u_i and Du_i: the same algebra with del = D^2."""
    from .superpoly import Alphabet, FLAVOR_DEL
    names, parities, weights = [], [], []
    from fractions import Fraction
    for i, nm in enumerate(alph.names):
        names.extend([nm, "D" + nm])
        parities.extend([alph.parities[i], (alph.parities[i] + 1) % 2])
        if alph.weights is not None:
            weights.extend([alph.weights[i], alph.weights[i] + Fraction(1, 2)])
    return Alphabet(FLAVOR_DEL, names, parities,
                    None if alph.weights is None else weights)


def to_doubled(poly: SuperPoly, target) -> SuperPoly:
    """Rewrite a D-flavored polynomial over generators {u, Du} with del=D^2."""
    out = SuperPoly.zero(target)
    for mono, c in poly.terms.items():
        term = SuperPoly.const(target, c)
        for (i, m), e in mono:
            img = SuperPoly.variable(target, 2 * i + (m % 2), m // 2)
            for _ in range(e):
                term = term * img
        out = out + term
    return out


def reduce_chipoly(cp: ChiPoly, target):
    """Odd chi-powers with the (-1)^n twist, as a LambdaPoly over target."""
    from .pva import LambdaPoly
    out = {}
    for p, poly in cp.coeffs.items():
        if p % 2 == 1:
            n = (p - 1) // 2
            q = to_doubled(poly, target)
            if n % 2:
                q = -q
            if q:
                out[n] = out.get(n, SuperPoly.zero(target)) + q
    return LambdaPoly(target, {n: p for n, p in out.items() if p})


def reduce_to_pva(table: SUSYBracketTable):
    """Lambda-bracket table over the doubled generator set {u_i, Du_i}."""
    from .pva import BracketTable
    alph = table.alphabet
    target = doubled_alphabet(alph)
    out = BracketTable(target)
    for i in range(len(alph)):
        for j in range(len(alph)):
            for e1 in (0, 1):
                for e2 in (0, 1):
                    cp = table.entry(i, j)
                    if e1:
                        cp = cp.shift_chi()
                    if e2:
                        cp = cp.apply_chi_plus_D()
                        if (alph.parities[i] + e1) % 2 == 0:
                            cp = -cp
                    lp = reduce_chipoly(cp, target)
                    out.set(2 * i + e1, 2 * j + e2, lp)
    return out
