"""Classical W-algebras W(g, F) and W(g, f): one reduction engine.

The even W(g, F) lives in lambda-bracket language over the affine PVA; the
SUSY W(g, f) is its chi-bracket analogue over the SUSY affine PVA. Both are
built by the same reduction, the same chain-sum formulas and the same
invariance solve. A Flavor record carries what differs: the dual chain
bases (F or f), the weight shift (1 or 1/2), the SUSY bar-variables, the
labels, the bracket calculus and the signs of the closed formulas. This
module holds the engine and the EVEN flavor; swclassical holds SUSY.

The reduction works in the chain-adapted coordinates: the algebra is
rebased onto the dual-chain basis, in which the quotient map rho (kill
g_{>=1}, resp. g_{>0}, up to pairing constants with F, resp. f) and the
canonical-form projection pi (kill the [E, g_{<=-1/2}] variables) act
variable by variable.

Generators are produced two ways and cross-checked: by the closed
chain-sum formula (linear part) and by an exact linear solve of the
membership constraints (full generator, including higher-degree parts).
Brackets likewise: closed chain-sum formula vs direct reduction. Both
chain sums (Thm 3.6 and its SUSY mirror Thm 6.5) go through one evaluator,
_chain_sum, which fills a path sum over the chain members from the top grade
down instead of listing the chains. The linear-ansatz solve (solve_ansatz)
also serves the BRST cohomology; it expands the unknowns in k only as far
as the linear part's top power of k, and further only when that fails.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .liealg import HALF, AlgebraError, dual_bases_F
from .pva import (BracketTable, LeftBracket, affine_table, bracket_oracle,
                  master_bracket)
from .scalars import GR_ONE, GR_ZERO, LinearSolveError, Scalar, solve_linear
from .superpoly import Alphabet, SuperPoly, enumerate_monomials


class Flavor(namedtuple("Flavor", "name triple shift bar letter prefix "
                        "nilpotent killed dual_bases affine_table master "
                        "oracle table signed_chains signed_head")):
    """What the even reduction W(g, F) and the SUSY one W(g, f) differ in.

    name            bracket variable ("lambda", "chi")
    triple          the algebra attribute holding the triple, and its display
                    name: ("sl2", "sl2 triple") or ("osp", "osp(1|2) data")
    shift           a variable of grading j has conformal weight shift - j
    bar             variables are bar-variables: parity flipped, name + "~"
    letter, prefix  chain-member letter ("q", "r"), generator prefix ("w_", "t_")
    nilpotent       the triple's element that rho pairs with ("F", "f")
    killed          grading test of the variables that rho makes constant
    dual_bases      builder of the dual chain bases
    affine_table, master, oracle, table
                    the bracket calculus: affine table, master formula, its
                    axioms-driven oracle and table class; table.value is the
                    value class, whose indeterminate gives the alphabet flavor
    signed_chains   a chain term carries the sign s(q) of each chain member
    signed_head     the closed bracket of a and b carries an overall s(a)
    """

    __slots__ = ()

    def triple_of(self, g):
        """g's triple of this flavor; an AlgebraError when g carries none."""
        attr, shown = self.triple
        triple = getattr(g, attr)
        if triple is None:
            raise AlgebraError("algebra %s carries no %s" % (g.name, shown))
        return triple


# The traced module-level functions (dual bases, master formula, oracle) are
# called through their names, so that wrappers installed on those names by
# the benchmark tracer (wbench/tracer.py) see the calls. The membership terms
# of a solve apply one pva.LeftBracket per n instead, unseen by the tracer.
EVEN = Flavor(
    name="lambda", triple=("sl2", "sl2 triple"), shift=1, bar=False,
    letter="q", prefix="w_", nilpotent="F", killed=lambda gr: gr >= 1,
    dual_bases=lambda g, triple: dual_bases_F(g, triple),
    affine_table=affine_table,
    master=lambda a, b, table: master_bracket(a, b, table),
    oracle=lambda a, b, table: bracket_oracle(a, b, table),
    table=BracketTable, signed_chains=True, signed_head=False)


class GeneratorError(RuntimeError):
    pass


class WGenerator:
    """Free generator: leading g^F basis index, value, conformal weight."""

    def __init__(self, index, value, weight):
        self.index = index
        self.value = value
        self.weight = weight


def _alphabet(fl: Flavor, names, parities, gradings) -> Alphabet:
    """Variables (bar-variables for SUSY) of weight shift - grading."""
    suffix = "~" if fl.bar else ""
    return Alphabet(fl.table.value.var.symbol, [nm + suffix for nm in names],
                    [(p + fl.bar) % 2 for p in parities],
                    [fl.shift - gr for gr in gradings])


class ReductionContext:
    """Reduction data in chain coordinates; the class's flavor picks the
    construction and the triple of g it reads (EVEN here, SUSY for
    swclassical.SUSYReductionContext)."""

    flavor = EVEN

    def __init__(self, g, k=None):
        fl = self.flavor
        self.g = g
        self.triple = fl.triple_of(g)
        self.k = Scalar.k() if k is None else k
        self.db = db = fl.dual_bases(g, self.triple)
        members = sorted(db.members(),
                         key=lambda jn: (db.grade_of(*jn), jn[0], jn[1]))
        self.members = members
        self.star_index = {jn: t for t, jn in enumerate(members)}
        vectors = [db.chain_lower[j][n] for (j, n) in members]
        names = ["%s%d" % (fl.letter, j) if n == 0
                 else "%s%d^%d" % (fl.letter, j, n) for (j, n) in members]
        self.gstar = g.rebase(vectors, names)
        grads = self.gstar.gradings
        self.alph = _alphabet(fl, names, self.gstar.parities, grads)
        self.table = fl.affine_table(self.gstar, self.alph, self.k)
        self.n_indices = [t for t, gr in enumerate(grads) if gr > 0]
        self.kept_indices = [t for t, gr in enumerate(grads)
                             if not fl.killed(gr)]
        self.highe_indices = [t for t, (j, n) in enumerate(members)
                              if n >= 1 and not fl.killed(grads[t])]
        # rho: x -> pi_kept(x) + (F|x), variable-diagonal in this basis
        nilpotent = getattr(self.triple, fl.nilpotent)
        self._rho_images = {}
        for t, (j, n) in enumerate(members):
            if fl.killed(grads[t]):
                c = g.form_value(nilpotent, db.chain_lower[j][n])
                self._rho_images[t] = SuperPoly.from_coefficients(
                    self.alph, [((), 0, 0, c)])
            else:
                self._rho_images[t] = SuperPoly.variable(self.alph, t)
        labels = []
        for j in range(db.count()):
            vec = db.lower[j]
            hits = [(i, c) for i, c in enumerate(vec) if c]
            if len(hits) == 1 and hits[0][1] == GR_ONE:
                labels.append(g.names[hits[0][0]])
            else:
                labels.append("%s%d" % (fl.letter, j))
        self.gen_labels = labels
        self.gen_alph = Alphabet(
            fl.table.value.var.symbol, [fl.prefix + lb for lb in labels],
            [(g.parity_of_vec(db.lower[j]) + fl.bar) % 2
             for j in range(db.count())],
            [fl.shift + db.spins[j] for j in range(db.count())])
        self.alph_in = _alphabet(fl, g.names, g.parities, g.gradings)
        self._chain_constants = {}   # filled by chain_constants

    # -- maps ------------------------------------------------------------
    def bracket(self, a: SuperPoly, b: SuperPoly):
        """{a_lambda b} (resp. {a_chi b}) in the affine algebra."""
        return self.flavor.master(a, b, self.table)

    @cached_property
    def reduced_table(self):
        """rho of every entry of the affine table, built on first use.

        rho is a differential-algebra homomorphism that fixes the kept
        variables, so rho{a_lambda b} is the master formula of a and b over
        this table whenever every partial derivative of a and of b is fixed
        by rho: for a and b in the kept variables, and for a single variable
        a (an n of g_{>0}, killed or not) with b in the kept variables. For
        any other input use rho_bracket(bracket(a, b)). A first-use memo:
        it reads `table` when first asked for and is not rebuilt after.
        """
        reduced = self.flavor.table(self.alph)
        for (i, j), value in self.table.entries.items():
            reduced.set(i, j, self.rho_bracket(value))
        return reduced

    def rho(self, poly: SuperPoly) -> SuperPoly:
        return poly.substitute(self._rho_images, self.alph)

    def rho_bracket(self, value):
        """rho applied to every coefficient of a bracket value."""
        return type(value)(self.alph, {n: self.rho(p)
                                       for n, p in value.coeffs.items()})

    def pi(self, poly: SuperPoly) -> SuperPoly:
        """The canonical-form projection: it kills the [E, g_{<=-1/2}]
        variables and fixes the others, so it drops the monomials with one."""
        return _highe_degree_part(self, poly, 0)

    def to_input(self, poly: SuperPoly) -> SuperPoly:
        """Express a chain-coordinate polynomial over the input basis."""
        images = {}
        for t, (j, n) in enumerate(self.members):
            images[t] = SuperPoly.linear(self.alph_in,
                                         enumerate(self.db.chain_lower[j][n]))
        return poly.substitute(images, self.alph_in)

    def chain_constants(self, x, y, y_upper=True):
        """([x, y]^sharp in chain coordinates and in generator symbols,
        (x|y)) for x the chain_lower vector of member x and y the
        chain_upper (or chain_lower) vector of member y, members given by
        star index; computed on first use and kept."""
        key = (x, y, y_upper)
        found = self._chain_constants.get(key)
        if found is None:
            db, g = self.db, self.g
            j, n = self.members[x]
            vx = db.chain_lower[j][n]
            j, n = self.members[y]
            vy = (db.chain_upper if y_upper else db.chain_lower)[j][n]
            br = g.bracket(vx, vy)
            sharp = [(j, g.form_value(db.upper[j], br))
                     for j in range(db.count())]
            found = self._chain_constants[key] = (
                SuperPoly.linear(self.alph, ((self.star_index[(j, 0)], c)
                                             for j, c in sharp)),
                SuperPoly.linear(self.gen_alph, sharp), g.form_value(vx, vy))
        return found

    def n_var(self, t) -> SuperPoly:
        return SuperPoly.variable(self.alph, t)


def _chain_sum(ctx: ReductionContext, lo, hi, head, last, factor):
    """Sum over the admissible chains u_0 < ... < u_p of members graded in
    [lo, hi], consecutive grades at least db.step apart, of
    factor(head, y_0)[factor(x_0, y_1)[... factor(x_{p-1}, y_p)[last(u_p)]]],
    times s(u_0)...s(u_p) when the flavor signs chains; x_t, y_t are the
    successor chain_lower and the chain_upper vector of u_t. Members are
    star indices: head names a chain_lower vector, last gets the successor
    of u_p (None for x_p = 0), and a factor gets ctx.chain_constants of its
    two members. Where x_t = 0 the factors vanish and are skipped.

    Evaluated as a path sum, never listing chains: from the top grade down,
    V(u) = s(u) (last(u) + sum_{grade v >= grade u + step} factor(x(u), y(v))[V(v)])
    is the signed sum over the chains that start at u, because every factor
    is linear in its tail. Returns the terms factor(head, y(u))[V(u)].
    """
    db, g = ctx.db, ctx.g
    sums = []                      # (grade, v, V(v)), grades descending
    for t in reversed(range(len(ctx.members))):
        (j, n), grade = ctx.members[t], db.grade_of(*ctx.members[t])
        if not lo <= grade <= hi:
            continue
        x = ctx.star_index.get((j, n + 1))
        val = last(x)
        if x is not None:
            for grade_v, v, val_v in sums:
                if grade_v < grade + db.step:
                    break
                val = val + factor(ctx, ctx.chain_constants(x, v), val_v)
        if ctx.flavor.signed_chains and g.parity_of_vec(db.lower[j]):
            val = -val
        sums.append((grade, t, val))
    return [factor(ctx, ctx.chain_constants(head, v), val)
            for _grade, v, val in sums]


def gamma_linear(ctx: ReductionContext, j) -> SuperPoly:
    """Closed chain-sum formula for the part of the generator that is
    linear in the [E, g_{<=-1/2}] variables."""
    db = ctx.db
    terms = _chain_sum(
        ctx, -db.spins[j], -HALF, ctx.star_index[(j, 0)],
        lambda x: SuperPoly.variable(ctx.alph, x),
        _chain_factor)
    return sum(terms, SuperPoly.zero(ctx.alph))


def _chain_factor(ctx, constants, tail: SuperPoly) -> SuperPoly:
    """([x, y]^sharp - (x|y) k del) applied to the tail (D for SUSY), from
    the ctx.chain_constants of x and y."""
    sharp, _symbols, c = constants
    out = sharp * tail
    if c:
        out = out - tail.deriv().scalar_mul(ctx.k.scale(c))
    return out


def membership_defects(ctx: ReductionContext, w: SuperPoly):
    """rho{n_lambda w} for every basis element n of g_{>0}; all must vanish.
    w may be any polynomial, so rho is applied to each bracket value."""
    out = []
    for t in ctx.n_indices:
        value = ctx.rho_bracket(ctx.bracket(ctx.n_var(t), w))
        if value:
            out.append((ctx.alph.names[t], value))
    return out


# -- linear ansatz -----------------------------------------------------------

def ansatz_monomials(alph, indices, weight, parity, required=None):
    """Monomials of the given weight and parity in the variables `indices`
    and their derivatives; with `required`, each uses one of those."""
    slots = []
    for t in indices:
        m = 0
        while alph.var_weight((t, m)) <= weight:
            slots.append((t, m))
            m += 1
    need = None if required is None else {v for v in slots if v[0] in required}
    return enumerate_monomials(alph, slots, weight, parity, require_one_of=need)


def k_degree_bound(weight, *levels) -> int:
    """The cap on the powers of k in an ansatz coefficient: corrections are
    polynomial in a symbolic level, and constant levels need no expansion.
    A heuristic; solve_ansatz solves at the cap only when asked to, or when
    no lower degree gives a consistent system."""
    if all(level.is_constant() for level in levels):
        return 0
    return int(2 * weight) + 3


def k_degree(poly: SuperPoly) -> int:
    """The top power of k in poly (0 for zero)."""
    return max((kp for _mono, kp, _cp, _gr in poly.coefficients()), default=0)


def solve_ansatz(alph, monos, kmax, terms, what, unique=True, start=None):
    """Solve for the coefficients x_{M,d} of the ansatz sum k^d M, d <= kmax.

    `terms` yields (M, key, kp, cp, gr): the GRat gr is the coefficient of
    k^kp c^cp in what the monomial M adds to the linear condition `key`, or
    for M None in the known part of it; each power of k and c in a
    condition is one equation. Returns the solved polynomial over alph. No
    solution, or several when `unique` is set, raises GeneratorError naming
    `what`; without `unique`, several give None.

    Without `start` the system is solved once, at d <= kmax. With it, the
    trial degree D starts at start and grows, D -> min(2D + 1, kmax), while
    the system truncated to d <= D is inconsistent. Every column at D is a
    column at any larger D, and a solution at D is one at D' > D with zeros
    in the new columns. So a consistent D stays consistent, two solutions
    at D stay two, and when the solve at kmax has one solution the first
    consistent D returns it. An underdetermined D is solved again at kmax,
    so the error reads as there. Only one case reads differently: one
    solution at D but several at kmax. Their difference would be a nonzero
    element of W built from ansatz monomials alone, each with a
    [E, g_{<=-1/2}] variable; pi kills every such monomial, and pi is
    injective on W (De Sole-Kac-Valeri, JEMS 2016; W is freely generated),
    so that case does not occur on a valid algebra.
    """
    known, cells = {}, {}
    for M, key, kp, cp, gr in terms:
        if M is None:
            known[key, kp, cp] = known.get((key, kp, cp), GR_ZERO) - gr
        else:
            cells[key, kp, cp, M] = cells.get((key, kp, cp, M), GR_ZERO) + gr
    cells = {cell: gr for cell, gr in cells.items() if gr}
    degree = kmax if start is None else min(start, kmax)
    while True:
        rows = {row: ({}, rhs) for row, rhs in known.items()}
        for (key, kp, cp, M), gr in cells.items():
            for d in range(degree + 1):
                row = rows.get((key, kp + d, cp))
                if row is None:
                    row = rows[key, kp + d, cp] = ({}, GR_ZERO)
                row[0][M, d] = gr
        try:
            sol = solve_linear(list(rows.values()), [
                (M, d) for M in monos for d in range(degree + 1)])
        except LinearSolveError as e:
            if degree < kmax and e.reason == "inconsistent":
                degree = min(2 * degree + 1, kmax)
                continue
            if degree < kmax and unique and e.reason == "underdetermined":
                degree = kmax
                continue
            if e.reason != "underdetermined":
                raise GeneratorError("no %s: %s" % (what, e))
            if unique:
                raise GeneratorError("non-unique %s: %s" % (what, e))
            return None
        return SuperPoly.from_coefficients(
            alph, ((M, d, 0, gr) for (M, d), gr in sol.items()))


def solve_generator(ctx: ReductionContext, j) -> WGenerator:
    """Exact linear solve for the canonical generator with leading term q_j,
    starting at the top power of k of its linear part."""
    weight = ctx.flavor.shift + ctx.db.spins[j]
    lead = ctx.star_index[(j, 0)]
    monos = ansatz_monomials(ctx.alph, ctx.kept_indices, weight,
                             ctx.alph.parities[lead], ctx.highe_indices)
    lead_poly = SuperPoly.variable(ctx.alph, lead)
    linear = gamma_linear(ctx, j)
    solution = solve_ansatz(ctx.alph, monos, k_degree_bound(weight, ctx.k),
                            _membership_terms(ctx, lead_poly, monos),
                            "generator solution", start=k_degree(linear))
    value = lead_poly + solution
    if _highe_degree_part(ctx, solution, 1) != linear:
        raise GeneratorError("solver linear part disagrees with the chain "
                             "formula for generator %d" % j)
    return WGenerator(j, value, weight)


def _membership_terms(ctx, lead_poly, monos):
    """rho{n_lambda lead + sum x_M M} = 0 for every n in g_{>0}; lead and
    the monomials are in the kept variables, so each rho{n_lambda M} is the
    master formula over ctx.reduced_table, through one LeftBracket per n."""
    polys = [(None, lead_poly)] + [(M, SuperPoly(ctx.alph, {M: Scalar.one()}))
                                   for M in monos]
    for t in ctx.n_indices:
        bracket = LeftBracket(ctx.n_var(t), ctx.reduced_table)
        for M, poly in polys:
            for lam, coeff in bracket(poly).coeffs.items():
                for mono, kp, cp, gr in coeff.coefficients():
                    yield M, (t, lam, mono), kp, cp, gr


def _highe_degree_part(ctx, poly: SuperPoly, degree) -> SuperPoly:
    """The terms of poly of degree `degree` in the [E, g_{<=-1/2}] variables."""
    highe = set(ctx.highe_indices)
    return SuperPoly.from_coefficients(ctx.alph, (
        term for term in poly.coefficients()
        if sum(e for (t, _m), e in term[0] if t in highe) == degree))


def solve_all_generators(ctx: ReductionContext):
    return [solve_generator(ctx, j) for j in range(ctx.db.count())]


# -- generator coordinates and brackets --------------------------------------

def rewrite_in_generators(ctx: ReductionContext, gens, A: SuperPoly) -> SuperPoly:
    """pi(A) with g^F variables renamed to generator symbols; verifies that
    evaluating the result on the generators reproduces A exactly."""
    projected = ctx.pi(A)
    images = {}
    for t, (j, n) in enumerate(ctx.members):
        if n == 0:
            images[t] = SuperPoly.variable(ctx.gen_alph, j)
        else:
            images[t] = SuperPoly.zero(ctx.gen_alph)
    sym = projected.substitute(images, ctx.gen_alph)
    back = sym.substitute({j: gens[j].value for j in range(ctx.db.count())},
                          ctx.alph)
    if back != A:
        raise GeneratorError("input not in W or generators not canonical")
    return sym


def w_bracket_direct(ctx: ReductionContext, gens, i, j):
    """Master bracket in P(g), reduced mod I_F, rewritten in generators;
    the generators are in the kept variables, so the reduced bracket is
    the master formula over ctx.reduced_table."""
    red = ctx.flavor.master(gens[i].value, gens[j].value, ctx.reduced_table)
    return type(red)(ctx.gen_alph, {n: rewrite_in_generators(ctx, gens, p)
                                    for n, p in red.coeffs.items()})


def w_bracket_closed(ctx: ReductionContext, gens, a, b):
    """Closed chain-sum bracket formula evaluated in generator symbols.

    Even: [a,b] + lambda k(a|b) - s(a,b) (chain sum with factors
    (omega([x,y]^sharp) - k(x|y)(lambda+del)) and chain signs). SUSY: the
    same with chi, D and no chain signs, all times s(a).
    """
    g, db, fl = ctx.g, ctx.db, ctx.flavor
    value = fl.table.value
    ta, tb = ctx.star_index[(a, 0)], ctx.star_index[(b, 0)]
    out = value.zero(ctx.gen_alph)
    _sharp, br, fv = ctx.chain_constants(ta, tb, False)
    if br:
        out = out + value.of(br)
    if fv:
        out = out + value(ctx.gen_alph,
                          {1: SuperPoly.const(ctx.gen_alph, ctx.k.scale(fv))})
    one, zero = value.of(SuperPoly.one(ctx.gen_alph)), value.zero(ctx.gen_alph)
    total = sum(_chain_sum(
        ctx, -db.spins[b], db.spins[a] - fl.shift, tb,
        lambda x: zero if x is None else
        _closed_factor(ctx, ctx.chain_constants(x, ta, False), one),
        _closed_factor), zero)
    pa = g.parity_of_vec(db.lower[a])
    pb = g.parity_of_vec(db.lower[b])
    if (pa * pb) % 2:
        out = out + total
    else:
        out = out - total
    if fl.signed_head and pa:
        out = -out
    return out


def _closed_factor(ctx, constants, tail):
    """(omega([x,y]^sharp) - (x|y) k (lambda+del)) applied to the tail,
    from the ctx.chain_constants of x and y; on the trailing 1 the
    (lambda+del) reduces to a bare lambda."""
    _sharp, sym, form_val = constants
    out = tail.mul_left(sym) if sym else tail.zero(ctx.gen_alph)
    if form_val:
        out = out - tail.apply_plus_d().scalar_mul(ctx.k.scale(form_val))
    return out


def w_bracket_table(ctx: ReductionContext, gens, route="direct"):
    bracket = w_bracket_direct if route == "direct" else w_bracket_closed
    table = ctx.flavor.table(ctx.gen_alph)
    n = ctx.db.count()
    for i in range(n):
        for j in range(n):
            table.set(i, j, bracket(ctx, gens, i, j))
    return table


def compare_closed_direct(ctx: ReductionContext, gens, direct):
    """Per-pair report of closed-formula brackets against `direct`, the
    W table by the direct route (w_bracket_table(ctx, gens))."""
    mismatches = []
    n = ctx.db.count()
    for i in range(n):
        for j in range(n):
            d = direct.entry(i, j)
            c = w_bracket_closed(ctx, gens, i, j)
            if d != c:
                mismatches.append((ctx.gen_labels[i], ctx.gen_labels[j], d, c))
    return mismatches
