"""SUSY classical BRST complex: differential, building blocks, cohomology.

The complex tensors the current algebra (I) over j-variables with the
ghost algebra (II) over phi / phi* pairs for the positive part n and its
dual.  The differential d^c is chi-bracketing with the cubic element d;
H^0 is computed by an exact linear solve over the ghost-free part, with
the filtration ordering the unknowns; that solve is the linear-ansatz
solve of the reduction engine (wclassical), and _differential_terms also
yields the rows of an exactness-witness solve in J-coordinates.  The
equivalence with the Hamiltonian reduction (imaginary-unit twist) is
verified generator by generator and on whole bracket tables.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import Scalar
from .pva import affine_table
from .spva import ChiPoly, SUSYBracketTable, susy_master_bracket
from .superpoly import Alphabet, FLAVOR_D, SuperPoly
from .swclassical import SUSYReductionContext
from .wclassical import (GeneratorError, WGenerator, ansatz_monomials,
                         k_degree_bound, solve_all_generators, solve_ansatz,
                         w_bracket_table)

HALF = Fraction(1, 2)


class BRSTComplex:
    """Complex C(g, f) over the chain-adapted basis of the reduction context.

    Variable layout: j(x) for every chain basis element x, then phi(a) for
    the basis of n, then phi*(a) for the dual basis of n_- (indexed by the
    same n-labels through the pairing).
    """

    def __init__(self, ctx: SUSYReductionContext):
        self.ctx = ctx
        g = ctx.gstar
        self.gdim = g.dim
        self.n_idx = list(ctx.n_indices)
        self.nn = len(self.n_idx)
        names, parities, weights = [], [], []
        for t in range(g.dim):
            names.append("j(%s)" % g.names[t])
            parities.append((g.parities[t] + 1) % 2)
            weights.append(HALF - g.gradings[t])
        for a in self.n_idx:
            names.append("ph(%s)" % g.names[a])
            parities.append(g.parities[a])
            weights.append(HALF - g.gradings[a])
        for a in self.n_idx:
            names.append("ph*(%s)" % g.names[a])
            parities.append((g.parities[a] + 1) % 2)
            weights.append(g.gradings[a])
        self.alph = Alphabet(FLAVOR_D, names, parities, weights)
        self.table = self._build_table()
        # J-coordinate alphabet: same names/parities, J(x) replacing j(x)
        jnames = ["J(%s)" % g.names[t] for t in range(g.dim)] + list(names[g.dim:])
        self.jalph = Alphabet(FLAVOR_D, jnames, parities, weights)
        # the building blocks J_t (building_block): s(a,beta)s(a)s(beta) is
        # -1 unless a and u_beta are both even
        blocks = [self.jvar(t) for t in range(g.dim)]
        for beta, b in enumerate(self.n_idx):
            phibar = SuperPoly.variable(self.alph, self.phibar_index(beta))
            for t in range(g.dim):
                term = phibar * self.phi_of_vector(
                    g.bracket(g.basis_vec(b), g.basis_vec(t)))
                if term:
                    odd = g.parities[t] or g.parities[b]
                    blocks[t] = blocks[t] + term if odd else blocks[t] - term
        # j_t -> J_t and back, and the twist abar -> i^{-p(a)} J_abar; the
        # ghosts map to themselves, and j_t maps to J_t + (j_t - J_t)
        minus_i = Scalar.gaussian(0, -1)
        self._twist_images = {t: J.scalar_mul(minus_i) if g.parities[t] % 2
                              else J for t, J in enumerate(blocks)}
        self._from_J_images = dict(enumerate(blocks))
        self._to_J_images = {
            t: SuperPoly(self.jalph, {**SuperPoly.variable(self.jalph, t).terms,
                                      **(self.jvar(t) - J).terms})
            for t, J in enumerate(blocks)}
        for t in range(g.dim, len(self.alph)):
            self._from_J_images[t] = SuperPoly.variable(self.alph, t)
            self._to_J_images[t] = SuperPoly.variable(self.jalph, t)

    # -- variable helpers ------------------------------------------------
    def jvar(self, t, order=0, coeff=None):
        return SuperPoly.variable(self.alph, t, order, coeff)

    def phi_index(self, alpha):
        return self.gdim + alpha

    def phibar_index(self, alpha):
        return self.gdim + self.nn + alpha

    def phi_of_vector(self, vec) -> SuperPoly:
        """phi_x = phi_{pi_+ x}: expand the n-part of x over the phi ghosts."""
        return SuperPoly.linear(self.alph, ((self.phi_index(pos), vec[t])
                                            for pos, t in enumerate(self.n_idx)))

    def _build_table(self) -> SUSYBracketTable:
        """The affine chi-brackets of the j's, signed s(x, ybar), and
        [ph*_a chi ph_a] = [ph_a chi ph*_a] = 1 for the ghost pairs."""
        g = self.ctx.gstar
        table = affine_table(g, self.alph, self.ctx.k, SUSYBracketTable,
                             lambda x, y: g.parities[x] * (g.parities[y] + 1))
        one = Scalar.one()
        for alpha in range(self.nn):
            pb = self.phibar_index(alpha)
            ph = self.phi_index(alpha)
            table.set(pb, ph, ChiPoly.of(SuperPoly.const(self.alph, one)))
            table.set(ph, pb, ChiPoly.of(SuperPoly.const(self.alph, one)))
        return table

    # -- J coordinates -----------------------------------------------------
    def building_block(self, t) -> SuperPoly:
        """J_abar = j_abar - sum_beta s(a,beta)s(a)s(beta) ph*_beta ph_{[u_beta,a]}."""
        return self._from_J_images[t]

    def to_J(self, poly: SuperPoly) -> SuperPoly:
        """Rewrite a complex polynomial in building-block coordinates."""
        return poly.substitute(self._to_J_images, self.jalph)

    def from_J(self, poly: SuperPoly) -> SuperPoly:
        return poly.substitute(self._from_J_images, self.alph)


def build_complex(g, k=None) -> BRSTComplex:
    """Spec operation: the complex over a fresh reduction context."""
    return BRSTComplex(SUSYReductionContext(g, k=k))


class BRSTDifferential:
    def __init__(self, cplx: BRSTComplex, c: Scalar):
        self.cplx = cplx
        self.c = c
        self.d = self._assemble()
        if self.d.parity() != 0:
            raise GeneratorError("BRST element d is not even")

    def _assemble(self) -> SuperPoly:
        cplx = self.cplx
        g = cplx.ctx.gstar
        fvec = _input_to_star(cplx.ctx, cplx.ctx.osp.f)
        out = SuperPoly.zero(cplx.alph)
        for alpha, a in enumerate(cplx.n_idx):
            coeff = g.form_value(fvec, g.basis_vec(a))
            head = cplx.jvar(a) - SuperPoly.const(cplx.alph, self.c * coeff)
            out = out + head * SuperPoly.variable(cplx.alph, cplx.phibar_index(alpha))
        for alpha, a in enumerate(cplx.n_idx):
            pa = g.parities[a]
            for beta, b in enumerate(cplx.n_idx):
                pb = g.parities[b]
                br = g.bracket(g.basis_vec(a), g.basis_vec(b))
                phipart = cplx.phi_of_vector(br)
                if not phipart:
                    continue
                term = (phipart
                        * SuperPoly.variable(cplx.alph, cplx.phibar_index(beta))
                        * SuperPoly.variable(cplx.alph, cplx.phibar_index(alpha)))
                if (pa * pb + pb) % 2:
                    term = -term
                out = out + term.scale(HALF)
        return out

    def d_chi(self, A: SuperPoly) -> ChiPoly:
        return susy_master_bracket(self.d, A, self.cplx.table)

    def apply(self, A: SuperPoly) -> SuperPoly:
        """d_[0] A = {d_chi A}|_{chi=0}."""
        return self.d_chi(A).get(0)

    def d_squared_defect(self) -> ChiPoly:
        return self.d_chi(self.d)

    def verify(self):
        """Report for {d_chi d} = 0 and d_[0]^2 = 0 on all generators."""
        report = []
        if self.d_squared_defect():
            report.append("{d_chi d} != 0")
        for t in range(len(self.cplx.alph)):
            v = SuperPoly.variable(self.cplx.alph, t)
            if self.apply(self.apply(v)):
                report.append("d_[0]^2 != 0 on %s" % self.cplx.alph.names[t])
        return report


def build_d(cplx: BRSTComplex, c: Scalar) -> BRSTDifferential:
    return BRSTDifferential(cplx, c)


def _input_to_star(ctx, vec):
    """Input-basis vector -> chain coordinates via the dual pairing."""
    coords = [Scalar.zero()] * ctx.gstar.dim
    for t, (j, n) in enumerate(ctx.members):
        c = ctx.g.form_value(ctx.db.chain_upper[j][n], vec)
        if c:
            coords[t] = c
    return tuple(coords)


def cohomology_generators(cplx: BRSTComplex, diff: BRSTDifferential):
    """One generator per basis element of g^f, solved at fixed weight.

    The ansatz is the ghost-free part of S(R_-): monomials in the
    building-block variables over g_{<=0}, each containing at least one
    [e, g_{<=-1/2}] variable; unknowns are ordered by filtration level.
    """
    ctx = cplx.ctx
    out = []
    for j in range(ctx.db.count()):
        out.append(_solve_cohomology_generator(cplx, diff, j))
    return out


def _solve_cohomology_generator(cplx, diff, j) -> WGenerator:
    ctx = cplx.ctx
    lead = ctx.star_index[(j, 0)]
    weight = HALF + ctx.db.spins[j]
    monos = ansatz_monomials(cplx.jalph, ctx.kept_indices, weight,
                             cplx.jalph.parities[lead], ctx.highe_indices)

    # order unknowns by decreasing filtration level of the monomial
    def filt(mono):
        return sum(ctx.gstar.gradings[v[0]] * e for v, e in mono)

    monos = sorted(monos, key=lambda mono: (-filt(mono), mono))
    known = diff.apply(cplx.building_block(lead))
    value_J = SuperPoly.variable(cplx.jalph, lead) + solve_ansatz(
        cplx.jalph, monos, k_degree_bound(weight, ctx.k, diff.c),
        _differential_terms(cplx, diff, known, monos),
        "filtration correction for generator %d" % j)
    gen = WGenerator(j, cplx.from_J(value_J), weight)
    gen.value_J = value_J
    return gen


def _differential_terms(cplx, diff, known, monos, in_J=False):
    """Ansatz terms of d_[0](sum x_M M) + known = 0 over J-coordinate
    monomials M; the conditions are read in j-, or with in_J in J-coordinates."""
    for mono, s in known.terms.items():
        yield None, mono, s
    for M in monos:
        dm = diff.apply(cplx.from_J(SuperPoly(cplx.jalph, {M: Scalar.one()})))
        if in_J:
            dm = cplx.to_J(dm)
        for mono, s in dm.terms.items():
            yield M, mono, s


def brst_rewrite(cplx: BRSTComplex, gens, X: SuperPoly,
                 gen_alph) -> SuperPoly:
    """Class of X in E-coordinates: J-coordinates, kill ghosts and
    non-kernel J variables, rename J(g^f) to generator symbols."""
    ctx = cplx.ctx
    images = {ctx.star_index[(j, 0)]: SuperPoly.variable(gen_alph, j)
              for j in range(ctx.db.count())}
    # keep the monomials in J(g^f) alone: ghosts and other J's are killed
    projected = {mono: c for mono, c in cplx.to_J(X).terms.items()
                 if all(t in images for (t, _m), _e in mono)}
    return SuperPoly(cplx.jalph, projected).substitute(images, gen_alph)


def brst_bracket_table(cplx: BRSTComplex, diff: BRSTDifferential,
                       gens) -> SUSYBracketTable:
    """Chi-brackets of the cohomology generators, in E-coordinates.

    Each coefficient of the raw bracket is in ker d_[0]; the rewrite is the
    ghost-and-correction-killing projection, verified by checking that the
    difference from the evaluated symbols is d_[0]-closed with zero
    projection.
    """
    ctx = cplx.ctx
    gen_alph = Alphabet(FLAVOR_D, ["E_" + lb for lb in ctx.gen_labels],
                        ctx.gen_alph.parities, ctx.gen_alph.weights)
    table = SUSYBracketTable(gen_alph)
    n = ctx.db.count()
    values = {j: gens[j].value for j in range(n)}
    for i in range(n):
        for j in range(n):
            raw = susy_master_bracket(gens[i].value, gens[j].value, cplx.table)
            coeffs = {}
            for p, poly in raw.coeffs.items():
                if diff.apply(poly):
                    raise GeneratorError("bracket coefficient not d-closed")
                sym = brst_rewrite(cplx, gens, poly, gen_alph)
                back = sym.substitute(values, cplx.alph)
                resid = poly - back
                if brst_rewrite(cplx, gens, resid, gen_alph):
                    raise GeneratorError("representative not reduced")
                if diff.apply(resid):
                    raise GeneratorError("residual not d-closed")
                if sym:
                    coeffs[p] = sym
            table.set(i, j, ChiPoly(gen_alph, coeffs))
    return table


def twist_to_complex(cplx: BRSTComplex, poly: SuperPoly) -> SuperPoly:
    """Reduction-side polynomial (bar variables over g_{<=0}) rewritten in
    j-coordinates of the complex and mapped through building blocks:
    abar -> i^{-p(a)} J_abar (the i^a twist of the equivalence theorem)."""
    return poly.substitute(cplx._twist_images, cplx.alph)


def check_thm_5_9(g, k=None):
    """Equivalence of the reduction and BRST(c = i) constructions.

    Verifies, generator by generator: d-closure of the twisted reduction
    generators, equality with the canonical cohomology generators, the
    coefficient correspondence between ad_chi-membership data and the
    differential, and equality of the two bracket tables after the twist.
    Returns a report list (empty = verified).
    """
    report = []
    ctx = SUSYReductionContext(g, k=k)
    cplx = BRSTComplex(ctx)
    diff = build_d(cplx, Scalar.imag())
    if diff.verify():
        report.append("BRST differential fails d^2 = 0")
        return report
    taus = solve_all_generators(ctx)
    Es = cohomology_generators(cplx, diff)
    i_unit = Scalar.imag()
    for j, tau in enumerate(taus):
        image = twist_to_complex(cplx, tau.value)
        if diff.apply(image):
            report.append("twisted generator %d not d-closed" % j)
            continue
        expected = image.scalar_mul(i_unit) \
            if ctx.g.parity_of_vec(ctx.db.lower[j]) else image
        if Es[j].value != expected:
            report.append("generator %d: BRST and twisted reduction "
                          "representatives differ" % j)
        rep511 = _check_correspondence_511(cplx, diff, ctx, tau.value)
        if rep511:
            report.append("generator %d: coefficient correspondence fails: %s"
                          % (j, rep511[:2]))
    # bracket tables after the symbol twist
    gens_r = {j: t for j, t in enumerate(taus)}
    gens_b = {j: e for j, e in enumerate(Es)}
    red_table = w_bracket_table(ctx, gens_r)
    brst_table = brst_bracket_table(cplx, diff, gens_b)
    galph = brst_table.alphabet
    sym_images = {}
    for c in range(ctx.db.count()):
        img = SuperPoly.variable(galph, c)
        if ctx.g.parity_of_vec(ctx.db.lower[c]) % 2:
            img = img.scalar_mul(Scalar.gaussian(0, -1))
        sym_images[c] = img
    n = ctx.db.count()
    for a in range(n):
        for b in range(n):
            red = red_table.entry(a, b)
            pa = ctx.g.parity_of_vec(ctx.db.lower[a])
            pb = ctx.g.parity_of_vec(ctx.db.lower[b])
            pref = Scalar.one()
            for _ in range(pa + pb):
                pref = pref * i_unit
            twisted = ChiPoly(galph, {p: poly.substitute(sym_images, galph)
                                          .scalar_mul(pref)
                                      for p, poly in red.coeffs.items()})
            if twisted != brst_table.entry(a, b):
                report.append("bracket (%d,%d): tables differ after twist"
                              % (a, b))
    return report


def _check_correspondence_511(cplx, diff, ctx, A: SuperPoly):
    """Coefficient-by-coefficient form of the membership <-> differential
    correspondence: the D^m phi* components of d(U(A)) against the chi^m
    coefficients of the twisted membership brackets."""
    bad = []
    Y = diff.apply(twist_to_complex(cplx, A))
    i_unit = Scalar.imag()
    for alpha, b in enumerate(cplx.n_idx):
        X = ctx.rho_bracket(susy_master_bracket(ctx.n_var(b), A, ctx.table))
        if ctx.gstar.parities[b] % 2:
            X = X.scalar_mul(i_unit)
        s_beta = -1 if ctx.gstar.parities[b] % 2 else 1
        top = X.max_power()
        for m in range(0, max(top + 1, 1)):
            n1 = m % 2
            n0 = (m - n1) // 2
            K = X.get(m)
            if (n0 % 2):
                K = -K  # chi^{2n0+n1} = (-1)^{n0} (-chi^2)^{n0} chi^{n1}
            C = Y.partial((cplx.phibar_index(alpha), m))
            want = twist_to_complex(cplx, K)
            if n1 and s_beta < 0:
                want = -want
            if C != want:
                bad.append((ctx.gstar.names[b], m))
    return bad
