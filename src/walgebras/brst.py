"""SUSY classical BRST complex: differential, building blocks, cohomology.

The complex tensors the current algebra (I) over j-variables with the
ghost algebra (II) over phi / phi* pairs for the positive part n and its
dual.  The differential d^c is chi-bracketing with the cubic element d;
H^0 is computed by the reduction engine's canonical-generator solve
(wclassical.solve_canonical) over the ghost-free part, with d_[0] as the
map that must vanish.  The equivalence with the Hamiltonian reduction
(imaginary-unit twist) is verified generator by generator and on whole
bracket tables.

Coordinates.  The building blocks J_a replace the j-variables one for
one, and from_J (J_a -> its j-expansion, ghosts fixed) is a
differential-algebra isomorphism with inverse to_J.  So the chi-brackets
of the J-alphabet, written in J-coordinates (BRSTComplex.jtable), are the
structure of the complex in those coordinates: the master formula over
jtable, applied to J-coordinate polynomials, is to_J of their bracket in
the complex.  The H^0 solve, d_[0] of its ansatz monomials, the
cohomology bracket table and the Thm 5.9 checks run there, where the
generators are short (on sl(2|1) 7 and 3 terms against 52 and 17 in
j-coordinates).  What stays in j-coordinates: the complex's own table and
d, with d^2 = 0 (BRSTDifferential.verify, d_chi and apply), and the printed
generator values E.value (expanded from E.value_J on first read).
"""

from __future__ import annotations

from functools import cached_property

from .liealg import HALF
from .scalars import GR_ONE, GRat, Scalar
from .pva import LeftBracket, affine_table, bracket_table
from .spva import ChiPoly, SUSYBracketTable, susy_master_bracket
from .superpoly import Alphabet, FLAVOR_D, SuperPoly
from .swclassical import SUSYReductionContext
from .wclassical import (GeneratorError, WGenerator, membership_defects,
                         solve_all_generators, solve_canonical,
                         w_bracket_table)


def _i_twist(parities):
    """The i-twist abar -> i^{-p(a)} abar, for the parities p(a) of the
    first variables, as SuperPoly.rename reads it."""
    minus_i = GRat(0, -1)
    return lambda var: (var, minus_i if parities[var[0]] % 2 else GR_ONE)


class BRSTComplex:
    """Complex C(g, f) over the chain-adapted basis of the reduction context.

    Variable layout: j(x) for every chain basis element x, then phi(a) for
    the basis of n, then phi*(a) for the dual basis of n_- (indexed by the
    same n-labels through the pairing). j(x) has the parity and weight of
    the reduction's variable x~; phi(a) has the weight of a~, and phi*(a)
    the parity of a~.
    """

    def __init__(self, ctx: SUSYReductionContext):
        self.ctx = ctx
        g, red = ctx.gstar, ctx.alph
        self.gdim = g.dim
        self.n_idx = n_idx = list(ctx.n_indices)
        self._n_pos = {t: pos for pos, t in enumerate(n_idx)}
        self.nn = len(n_idx)
        ghosts = ["ph(%s)" % g.names[a] for a in n_idx] + [
            "ph*(%s)" % g.names[a] for a in n_idx]
        parities = (red.parities + tuple(g.parities[a] for a in n_idx)
                    + tuple(red.parities[a] for a in n_idx))
        weights = (red.weights + tuple(red.weights[a] for a in n_idx)
                   + tuple(g.gradings[a] for a in n_idx))
        self.alph = Alphabet(FLAVOR_D, ["j(%s)" % nm for nm in g.names] + ghosts,
                             parities, weights)
        self.table = self._build_table()
        # J-coordinate alphabet: the same but J(x) replacing j(x)
        self.jalph = Alphabet(FLAVOR_D, ["J(%s)" % nm for nm in g.names] + ghosts,
                              parities, weights)
        # the building blocks J_t (building_block): s(a,beta)s(a)s(beta) is
        # -1 unless a and u_beta are both even
        blocks = [self.jvar(t) for t in range(len(self.alph))]
        for beta, b in enumerate(self.n_idx):
            phibar = SuperPoly.variable(self.alph, self.phibar_index(beta))
            for t in range(g.dim):
                term = phibar * self.phi_of_vector(g.struct.get((b, t), ()))
                if term:
                    odd = g.parities[t] or g.parities[b]
                    blocks[t] = blocks[t] + term if odd else blocks[t] - term
        # j_t -> J_t and back; the ghosts map to themselves, and j_t maps
        # to J_t + (j_t - J_t), whose ghost terms a rename carries over
        self._from_J_images = dict(enumerate(blocks))
        self._to_J_images = {
            t: SuperPoly.variable(self.jalph, t) + (self.jvar(t) - J).rename(
                lambda v: (v, GR_ONE), self.jalph, {})
            for t, J in enumerate(blocks)}

    # -- variable helpers ------------------------------------------------
    def jvar(self, t):
        return SuperPoly.variable(self.alph, t)

    def phi_index(self, alpha):
        return self.gdim + alpha

    def phibar_index(self, alpha):
        return self.gdim + self.nn + alpha

    def phi_of_vector(self, vec) -> SuperPoly:
        """phi_x = phi_{pi_+ x}: expand the n-part of the element x over the
        phi ghosts."""
        return SuperPoly.linear(self.alph, ((self.phi_index(self._n_pos[t]), c)
                                            for t, c in vec if t in self._n_pos))

    def _build_table(self) -> SUSYBracketTable:
        """The affine chi-brackets of the j's, signed s(x, ybar), and
        [ph*_a chi ph_a] = [ph_a chi ph*_a] = 1 for the ghost pairs."""
        g = self.ctx.gstar
        entries = dict(affine_table(
            g, self.alph, self.ctx.k, SUSYBracketTable,
            lambda x, y: g.parities[x] * (g.parities[y] + 1)).entries)
        one = ChiPoly.of(SuperPoly.one(self.alph))
        for alpha in range(self.nn):
            pb, ph = self.phibar_index(alpha), self.phi_index(alpha)
            entries[pb, ph] = entries[ph, pb] = one
        return SUSYBracketTable(self.alph, entries)

    # -- J coordinates -----------------------------------------------------
    def building_block(self, t) -> SuperPoly:
        """J_abar = j_abar - sum_beta s(a,beta)s(a)s(beta) ph*_beta ph_{[u_beta,a]}."""
        return self._from_J_images[t]

    def to_J(self, poly: SuperPoly) -> SuperPoly:
        """Rewrite a complex polynomial in building-block coordinates."""
        return poly.substitute(self._to_J_images, self.jalph)

    def from_J(self, poly: SuperPoly) -> SuperPoly:
        return poly.substitute(self._from_J_images, self.alph)

    @cached_property
    def jtable(self) -> SUSYBracketTable:
        """The chi-brackets of the J-alphabet in J-coordinates, built on
        first use: entry (s, t) is to_J of {from_J(J_s) chi from_J(J_t)}.

        from_J is a differential-algebra isomorphism and to_J its inverse,
        so the master formula over this table, applied to J-coordinate
        polynomials A and B, is to_J{from_J(A) chi from_J(B)}.
        """
        return bracket_table(
            [self._from_J_images[t] for t in range(len(self.jalph))],
            self.table, self.jalph, self.to_J, susy_master_bracket)


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
        fvec = g.osp.f
        out = SuperPoly.zero(cplx.alph)
        for alpha, a in enumerate(cplx.n_idx):
            coeff = g.form_value(fvec, ((a, GR_ONE),))
            head = cplx.jvar(a) - SuperPoly.const(cplx.alph, self.c.scale(coeff))
            out = out + head * SuperPoly.variable(cplx.alph, cplx.phibar_index(alpha))
        for alpha, a in enumerate(cplx.n_idx):
            pa = g.parities[a]
            for beta, b in enumerate(cplx.n_idx):
                pb = g.parities[b]
                phipart = cplx.phi_of_vector(g.struct.get((a, b), ()))
                if not phipart:
                    continue
                term = (phipart
                        * SuperPoly.variable(cplx.alph, cplx.phibar_index(beta))
                        * SuperPoly.variable(cplx.alph, cplx.phibar_index(alpha)))
                if (pa * pb + pb) % 2:
                    term = -term
                out = out + term.scale(HALF)
        return out

    @cached_property
    def d_bracket(self) -> LeftBracket:
        """{d_chi .} over the complex's table, built on first use and shared
        by d_chi, apply and d_squared_defect."""
        return LeftBracket(self.d, self.cplx.table)

    def d_chi(self, A: SuperPoly) -> ChiPoly:
        return self.d_bracket(A)

    def apply(self, A: SuperPoly) -> SuperPoly:
        """d_[0] A = {d_chi A}|_{chi=0}, computed alone (at_zero)."""
        return self.d_bracket.at_zero(A)

    @cached_property
    def d_J_bracket(self) -> LeftBracket:
        """{d_chi .} in J-coordinates: the master formula over the complex's
        jtable with d in J-coordinates fixed on the left, built on first
        use and shared by every apply_J."""
        return LeftBracket(self.cplx.to_J(self.d), self.cplx.jtable)

    def apply_J(self, A: SuperPoly) -> SuperPoly:
        """d_[0] of a J-coordinate polynomial, in J-coordinates (at_zero)."""
        return self.d_J_bracket.at_zero(A)

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


def cohomology_generators(cplx: BRSTComplex, diff: BRSTDifferential):
    """One generator per basis element of g^f: the reduction's canonical
    solve over the J-alphabet (the ghost-free part of S(R_-)), with d_[0]
    in J-coordinates as the map that must vanish."""
    ctx = cplx.ctx
    return [CohomologyGenerator(cplx, j, solve_canonical(
        ctx, j, cplx.jalph, lambda A: {0: diff.apply_J(A)},
        "filtration correction for generator %d" % j),
        ctx.gen_alph.weights[j]) for j in range(ctx.db.count())]


class CohomologyGenerator(WGenerator):
    """An H^0 generator, solved in J-coordinates (value_J). Its value in
    j-coordinates, from_J(value_J), is built on first read: on sl(3|2) the
    expansion is most of the H^0 solve, and only the printed generators
    read it; the bracket table and the Thm 5.9 checks use value_J."""

    def __init__(self, cplx, index, value_J, weight):
        self.index = index
        self.value_J = value_J
        self.weight = weight
        self._cplx = cplx

    @cached_property
    def value(self):
        return self._cplx.from_J(self.value_J)


def brst_bracket_table(cplx: BRSTComplex, diff: BRSTDifferential,
                       gens) -> SUSYBracketTable:
    """Chi-brackets of the cohomology generators, in E-coordinates.

    The generators are bracketed in J-coordinates, over cplx.jtable. Each
    coefficient of the raw bracket is in ker d_[0]; the rewrite is the
    reduction's projection onto generator symbols (ctx.symbols, which kills
    the ghosts and the J's off the chain heads), verified by checking that
    the difference from the evaluated symbols is d_[0]-closed with zero
    projection.
    """
    ctx = cplx.ctx
    gen_alph = Alphabet(FLAVOR_D, ["E_" + lb for lb in ctx.gen_labels],
                        ctx.gen_alph.parities, ctx.gen_alph.weights)
    values = {j: gens[j].value_J for j in range(ctx.db.count())}

    def reduced(poly):
        if diff.apply_J(poly):
            raise GeneratorError("bracket coefficient not d-closed")
        sym = ctx.symbols(poly, gen_alph)
        resid = poly - sym.substitute(values, cplx.jalph)
        if ctx.symbols(resid, gen_alph):
            raise GeneratorError("representative not reduced")
        if diff.apply_J(resid):
            raise GeneratorError("residual not d-closed")
        return sym

    return bracket_table(list(values.values()), cplx.jtable, gen_alph,
                         lambda v: ChiPoly(gen_alph, {
                             n: reduced(p) for n, p in v.coeffs.items()}),
                         susy_master_bracket)


def twist_to_J(cplx: BRSTComplex, poly: SuperPoly) -> SuperPoly:
    """Reduction-side polynomial (bar variables over g_{<=0}) mapped to the
    J-coordinates of the complex: abar -> i^{-p(a)} J_abar (the i^a twist
    of the equivalence theorem), one SuperPoly.rename."""
    return poly.rename(_i_twist(cplx.ctx.gstar.parities), cplx.jalph, {})


def check_thm_5_9(g, k=None):
    """Equivalence of the reduction and BRST(c = i) constructions for the
    algebra g at level k (symbolic when None); see compare_brst_reduction,
    to which it passes the complex over a new SUSY context, the context's
    generator solve and its W bracket table. Returns a report list (empty =
    verified)."""
    ctx = SUSYReductionContext(g, k=k)
    taus = {w.index: w for w in solve_all_generators(ctx)}
    return compare_brst_reduction(BRSTComplex(ctx), taus,
                                  w_bracket_table(ctx, taus))


def compare_brst_reduction(cplx: BRSTComplex, taus, red_table):
    """Equivalence of the reduction and BRST(c = i) constructions.

    cplx is the complex over a SUSY reduction context ctx (cplx.ctx), which
    a caller may share with other checks (walg verify builds one per run),
    taus the context's generators {j: WGenerator} and red_table their W
    bracket table. Verifies, generator by generator:
    d-closure of the twisted reduction generators, equality with the
    canonical cohomology generators, and membership in W of each generator
    whose image is d-closed; then equality of the two bracket tables after
    the twist. Returns a report list (empty = verified).

    Membership is the coefficient correspondence between the D^m phi*
    components of d of the twisted image and the chi^m coefficients of the
    twisted rho{n chi tau}. Those components are zero where it is checked,
    and the twist and from_J are injective, so it fails exactly at the
    nonzero chi^m coefficients of rho{n chi tau}, which are reported.
    """
    report = []
    ctx = cplx.ctx
    diff = build_d(cplx, Scalar.imag())
    if diff.verify():
        report.append("BRST differential fails d^2 = 0")
        return report
    Es = cohomology_generators(cplx, diff)
    i_unit = Scalar.imag()
    for j, tau in taus.items():
        image = twist_to_J(cplx, tau.value)
        if diff.apply_J(image):
            report.append("twisted generator %d not d-closed" % j)
            continue
        expected = image.scalar_mul(i_unit) if ctx.gen_parities[j] else image
        if Es[j].value_J != expected:
            report.append("generator %d: BRST and twisted reduction "
                          "representatives differ" % j)
        bad = [(name, m) for name, value in membership_defects(ctx, tau.value)
               for m in sorted(value.coeffs)]
        if bad:
            report.append("generator %d: coefficient correspondence fails: %s"
                          % (j, bad[:2]))
    # bracket tables after the symbol twist
    brst_table = brst_bracket_table(cplx, diff, dict(enumerate(Es)))
    galph = brst_table.alphabet
    twist, memos = _i_twist(ctx.gen_parities), {}
    n = ctx.db.count()
    for a in range(n):
        for b in range(n):
            red = red_table.entry(a, b)
            pref = Scalar.one()
            for _ in range(ctx.gen_parities[a] + ctx.gen_parities[b]):
                pref = pref * i_unit
            twisted = red.rename(twist, galph, memos).scalar_mul(pref)
            if twisted != brst_table.entry(a, b):
                report.append("bracket (%d,%d): tables differ after twist"
                              % (a, b))
    return report
