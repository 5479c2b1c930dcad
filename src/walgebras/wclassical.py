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
projection onto generator symbols (keep the monomials in the chain heads
q_j^0; on W, the canonical-form projection pi) act variable by variable.

Generators are produced two ways and cross-checked: by the closed
chain-sum formula (linear part) and by an exact linear solve of the
membership constraints (full generator, including higher-degree parts).
Brackets likewise: closed chain-sum formula vs direct reduction. Both
chain sums (Thm 3.6 and its SUSY mirror Thm 6.5) go through one evaluator
in two steps: _chain_values fills a path sum over the chain members from
the top grade down instead of listing the chains, and _chain_heads takes
the head factor. A context keeps, per row a of the W brackets, what reads
a alone: the master-formula operator of w_a on the direct route, the path
sums of row a on the closed one, each built on first use and read by
every later bracket of the row. The canonical-generator solve
(solve_canonical) also serves the BRST cohomology, with d_[0] in place of
the membership map; at a symbolic level each unknown is one multiple of
the power of k that its monomial's derivative count fixes (k counts as a
derivative, so every generator is homogeneous).
"""

from __future__ import annotations

from _thread import allocate_lock
from collections import namedtuple
from functools import cached_property

from .liealg import HALF, dual_bases_F
from .pva import (BracketTable, LeftBracket, _families, _tagged_coefficients,
                  affine_table, bracket_oracle, bracket_table, master_bracket)
from .scalars import GR_ONE, GR_ZERO, LinearSolveError, Scalar, solve_linear
from .superpoly import Alphabet, SuperPoly, enumerate_monomials


class Flavor(namedtuple("Flavor", "name triple shift bar letter prefix "
                        "nilpotent killed dual_bases affine_table master "
                        "oracle table signed_chains signed_head")):
    """What the even reduction W(g, F) and the SUSY one W(g, f) differ in.

    name            bracket variable ("lambda", "chi")
    triple          the algebra attribute holding the triple ("sl2", "osp"),
                    read through LieSuperalgebra.triple
    shift           a variable of grading j has conformal weight shift - j
    bar             variables are bar-variables: parity flipped, name + "~"
    letter, prefix  chain-member letter ("q", "r"), generator prefix ("w_", "t_")
    nilpotent       the triple's element that rho pairs with ("F", "f")
    killed          grading test of the variables that rho makes constant
    dual_bases      builder of the dual chain bases over g's own triple
    affine_table, master, oracle, table
                    the bracket calculus: affine table, master formula, its
                    axioms-driven oracle and table class; table.value is the
                    value class, whose indeterminate gives the alphabet flavor
    signed_chains   a chain term carries the sign s(q) of each chain member
    signed_head     the closed bracket of a and b carries an overall s(a)
    """

    __slots__ = ()


# The traced module-level functions (dual bases, master formula, oracle) are
# called through their names, so that wrappers installed on those names by
# the benchmark tracer (wbench/tracer.py) see the calls. The membership terms
# of a solve apply one pva.LeftBracket per n instead, unseen by the tracer.
EVEN = Flavor(
    name="lambda", triple="sl2", shift=1, bar=False,
    letter="q", prefix="w_", nilpotent="F", killed=lambda gr: gr >= 1,
    dual_bases=lambda g: dual_bases_F(g),
    affine_table=affine_table,
    master=lambda a, b, table: master_bracket(a, b, table),
    oracle=lambda a, b, table: bracket_oracle(a, b, table),
    table=BracketTable, signed_chains=True, signed_head=False)


_FIRST_USE = allocate_lock()   # taken by ReductionContext.reduced_table


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
        self.triple = g.triple(fl.triple)
        self.k = Scalar.k() if k is None else k
        self.db = db = fl.dual_bases(g)
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
        self._killed = {t: g.form_value(nilpotent, db.chain_lower[j][n])
                        for t, (j, n) in enumerate(members)
                        if fl.killed(grads[t])}
        # q_j is labelled by the basis vector it is, if it is one
        self.gen_labels = labels = [
            g.names[q[0][0]] if len(q) == 1 and q[0][1] == GR_ONE
            else "%s%d" % (fl.letter, j) for j, q in enumerate(db.lower)]
        self.gen_parities = tuple(g.parity_of_vec(q) for q in db.lower)
        self.gen_alph = Alphabet(
            fl.table.value.var.symbol, [fl.prefix + lb for lb in labels],
            [(p + fl.bar) % 2 for p in self.gen_parities],
            [fl.shift + db.spins[j] for j in range(db.count())])
        self.alph_in = _alphabet(fl, g.names, g.parities, g.gradings)
        self._chain_constants = {}   # filled by chain_constants
        self._heads = {self.star_index[(j, 0)]: j for j in range(db.count())}
        self._rho_memos, self._symbol_memos = {}, {}   # rename memos
        # the row state of the W brackets, filled on first use: a master-
        # formula operator per left value (direct route) and the path-sum
        # values per row index (closed route); separate, so that each route
        # stays an oracle of the other
        self._left_brackets, self._closed_rows = {}, {}

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
        any other input use rho(bracket(a, b)). A first-use memo:
        it reads `table` when first asked for and is not rebuilt after.
        Threads that ask at once get one table, since the operators kept
        per row (left_bracket) are checked against it by identity: it is
        built and stored under a lock, as cached_property takes none from
        Python 3.12 on.
        """
        with _FIRST_USE:
            table = self.__dict__.get("reduced_table")
            if table is None:
                table = self.__dict__["reduced_table"] = self.flavor.table(
                    self.alph, {key: self.rho(value)
                                for key, value in self.table.entries.items()})
        return table

    def left_bracket(self, value: SuperPoly) -> LeftBracket:
        """The operator {value_x .} over reduced_table, kept per left value:
        the part of a direct W bracket that reads its left generator alone
        (the partials of value, the arrow sums, the sums B_j and their
        (x+d)-powers) is built once for the row. Keyed by the value, so
        other polynomials get operators of their own; the memo starts over
        once it holds as many operators as there are generators."""
        ops = self._left_brackets
        op = ops.get(value)
        if op is None:
            if len(ops) >= self.db.count():
                ops.clear()
            op = ops[value] = LeftBracket(value, self.reduced_table)
        return op

    def rho(self, value):
        """Each kept variable to itself, each killed one u to its constant
        (F|u), resp. (f|u), and its derivatives to 0, in a polynomial or in
        every coefficient of a bracket value at once: one rename of the
        whole value (superpoly._Packed.rename)."""
        return value.rename(self._rho_of, self.alph, self._rho_memos)

    def _rho_of(self, var):
        c = self._killed.get(var[0])
        return (var, GR_ONE) if c is None else None if var[1] else (None, c)

    def symbols(self, poly: SuperPoly, gen_alph) -> SuperPoly:
        """The monomials of poly in the chain heads q_j^0 alone, with q_j^0
        renamed to symbol j of gen_alph. poly is over alph or over an
        alphabet that shares its indices (the BRST J-alphabet). A kept
        variable that is not a head is an [E, g_{<=-1/2}] one, which the
        canonical-form projection pi kills; so on W this is pi, renamed.
        A SuperPoly.rename, whose memo the context keeps, so a monomial
        seen before is not unpacked again."""
        return poly.rename(self._symbol_of, gen_alph, self._symbol_memos)

    def _symbol_of(self, var):
        j = self._heads.get(var[0])
        return None if j is None else ((j, var[1]), GR_ONE)

    def to_input(self, poly: SuperPoly) -> SuperPoly:
        """Express a chain-coordinate polynomial over the input basis."""
        images = {t: SuperPoly.linear(self.alph_in, self.db.chain_lower[j][n])
                  for t, (j, n) in enumerate(self.members)}
        return poly.substitute(images, self.alph_in)

    def chain_constants(self, x, y, y_upper=True):
        """([x, y]^sharp in chain coordinates and in generator symbols,
        (x|y)) for x the chain_lower vector of member x and y the
        chain_upper (or chain_lower) vector of member y, members given by
        star index; computed on first use and kept. The coordinate of
        [x, y]^sharp on q_j is (q^j | [x, y]), one form_value of the element
        [x, y] against each upper vector of the dual bases."""
        key = (x, y, y_upper)
        found = self._chain_constants.get(key)
        if found is None:
            db, g = self.db, self.g
            j, n = self.members[x]
            vx = db.chain_lower[j][n]
            j, n = self.members[y]
            vy = (db.chain_upper if y_upper else db.chain_lower)[j][n]
            br = g.bracket(vx, vy)
            sharp = [(j, g.form_value(up, br)) for j, up in enumerate(db.upper)]
            found = self._chain_constants[key] = (
                SuperPoly.linear(self.alph, ((self.star_index[(j, 0)], c)
                                             for j, c in sharp)),
                SuperPoly.linear(self.gen_alph, sharp), g.form_value(vx, vy))
        return found

    def n_var(self, t) -> SuperPoly:
        return SuperPoly.variable(self.alph, t)


def _chain_values(ctx: ReductionContext, lo, hi, last, factor):
    """The path sums of a chain sum, the first of its two steps.

    The chain sum is the sum over the admissible chains u_0 < ... < u_p of
    members graded in [lo, hi], consecutive grades at least db.step apart,
    of factor(head, y_0)[factor(x_0, y_1)[...
    factor(x_{p-1}, y_p)[last(u_p)]]], times s(u_0)...s(u_p) when the
    flavor signs chains; x_t, y_t are the successor chain_lower and the
    chain_upper vector of u_t. Members are star indices: head names a
    chain_lower vector, last gets the successor of u_p (None for x_p = 0),
    and a factor gets ctx.chain_constants of its two members. Where
    x_t = 0 the factors vanish and are skipped.

    It is evaluated as a path sum, never listing chains: from the top grade
    down, V(u) = s(u) (last(u) + sum_{grade v >= grade u + step}
    factor(x(u), y(v))[V(v)]) is the signed sum over the chains that start
    at u, because every factor is linear in its tail. Returns the list of
    (grade, u, V(u)) over the members graded in [lo, hi], grades
    descending. V(u) reads only hi, last and the members above u, not lo
    or head: a caller may keep the values for a lower lo and hand them to
    _chain_heads with a higher one (the closed bracket keeps one list per
    row, down to the lowest grade).
    """
    db = ctx.db
    sums = []                      # (grade, v, V(v)), grades descending
    for t in reversed(range(len(ctx.members))):
        (j, n), grade = ctx.members[t], ctx.gstar.gradings[t]
        if not lo <= grade <= hi:
            continue
        x = ctx.star_index.get((j, n + 1))
        val = last(x)
        if x is not None:
            for grade_v, v, val_v in sums:
                if grade_v < grade + db.step:
                    break
                val = val + factor(ctx, ctx.chain_constants(x, v), val_v)
        if ctx.flavor.signed_chains and ctx.gen_parities[j]:
            val = -val
        sums.append((grade, t, val))
    return sums


def _chain_heads(ctx: ReductionContext, values, lo, head, factor):
    """The second step of a chain sum: its terms factor(head, y(u))[V(u)]
    over the members u graded at least lo, from the _chain_values list."""
    out = []
    for grade, v, val in values:
        if grade < lo:
            break
        out.append(factor(ctx, ctx.chain_constants(head, v), val))
    return out


def gamma_linear(ctx: ReductionContext, j) -> SuperPoly:
    """Closed chain-sum formula for the part of the generator that is
    linear in the [E, g_{<=-1/2}] variables."""
    lo = -ctx.db.spins[j]
    values = _chain_values(ctx, lo, -HALF,
                           lambda x: SuperPoly.variable(ctx.alph, x),
                           _chain_factor)
    terms = _chain_heads(ctx, values, lo, ctx.star_index[(j, 0)],
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
    """(name of n in g, rho{n_lambda w}) for every basis element n of
    g_{>0} where that is not zero; w is in W iff there is none. w may be
    any polynomial, so rho is applied to each bracket value."""
    out = []
    for t in ctx.n_indices:
        value = ctx.rho(ctx.bracket(ctx.n_var(t), w))
        if value:
            out.append((ctx.gstar.names[t], value))
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


def solve_ansatz(alph, monos, terms, what, degree):
    """Solve for the coefficients x_M of the homogeneous ansatz
    sum_M x_M k^(n(M) - degree) M, with n(M) the number of derivatives
    (del or D) in M; a monomial with n(M) < degree has no column. At a
    constant level `degree` is None and every power of k is 0.

    `terms` yields (M, key, kp, cp, gr): the GRat gr is the coefficient of
    k^kp c^cp in what the monomial M adds to the linear condition `key`, or
    for M None in the known part of it; each power of k and c in a
    condition is one equation. The terms may come in any order (those of
    ansatz_terms come family by family, not monomial by monomial): the
    solution is unique, so the order moves neither it nor the shape. Returns
    the solved polynomial over alph. No solution, or several, raises
    GeneratorError naming `what` and the system's shape, rows x columns.

    One power of k per monomial suffices. Give del, D, lambda and chi
    degree 1, k degree -1, and variables and constants (c and the 1 of rho
    included) degree 0. The affine bracket [a, b] + k lambda (a|b) (chi in
    the SUSY flavor) has degree 0. The master formula keeps degree: the
    partial derivative by u^(m) lowers it by m, and (lambda + del)^m raises
    it by m. rho is homogeneous, and so is d_[0]: J, phibar and c have
    degree 0, and chi = 0 keeps the part of degree 0. So the map that must
    vanish keeps degree, and the part of degree `degree` of a solution is
    a solution on its own. The lead q_j of solve_canonical has degree 0,
    and its lift is unique: pi (ReductionContext.symbols on W) kills every
    ansatz monomial and is injective on W (De Sole-Kac-Valeri, JEMS 2016;
    W is freely generated). So the lift equals its part of degree 0: x_M
    is a multiple of k^n(M). An inhomogeneous known part has no
    homogeneous solution and reads as inconsistent.
    """
    power = {}
    for M in monos:
        p = 0 if degree is None else sum(m * e for (_t, m), e in M) - degree
        if p >= 0:
            power[M] = p
    rows = {}
    for M, key, kp, cp, gr in terms:
        if M is None:
            row = rows.setdefault((key, kp, cp), [{}, GR_ZERO])
            row[1] = row[1] - gr
        elif M in power:
            col = M, power[M]
            cells = rows.setdefault((key, kp + col[1], cp), [{}, GR_ZERO])[0]
            cells[col] = cells.get(col, GR_ZERO) + gr
    try:
        sol = solve_linear(list(rows.values()), list(power.items()))
    except LinearSolveError as e:
        raise GeneratorError("%s %s: %s (%d x %d system)" % (
            "non-unique" if e.reason == "underdetermined" else "no", what, e,
            len(rows), len(power)))
    return SuperPoly.from_coefficients(
        alph, ((M, p, 0, gr) for (M, p), gr in sol.items()))


def ansatz_terms(image, lead: SuperPoly, monos):
    """The terms, for solve_ansatz, of image(lead + sum x_M M) = 0: image
    maps a polynomial linearly to {key: SuperPoly or bracket value}, and
    each monomial (with its power of x, for a value read whole) of each
    value is one condition, keyed by (key, its packed key; see
    SuperPoly.packed_coefficients). image is applied once to the lead and
    once per family of up to 128 monomials (pva._families), each with
    coefficient 1 at its own power of y, so it must carry the y field
    (LeftBracket calls and at_zero do). A term's column is read from the
    y field of its packed key and its condition from the rest
    (pva._tagged_coefficients), so no member is built apart; the
    conditions only group the equations, so no tuple monomial is built
    for them."""
    for key, value in image(lead).items():
        for m, kp, cp, gr in value.packed_coefficients():
            yield None, (key, m), kp, cp, gr
    one = Scalar.one()
    for s, family in _families([SuperPoly(lead.alphabet, {M: one})
                                for M in monos]):
        for key, value in image(family).items():
            for c, m, kp, cp, gr in _tagged_coefficients(value):
                yield monos[s + c], (key, m), kp, cp, gr


def solve_canonical(ctx: ReductionContext, j, alph, image, what) -> SuperPoly:
    """The lift q_j + sum x_M M that `image` maps to 0, over ctx.alph or
    the BRST J-alphabet (which shares ctx.alph's first indices), M over
    the kept monomials of symbol j's weight with an [E, g_{<=-1/2}] factor,
    homogeneous of q_j's degree 0 in k and the derivatives (solve_ansatz)."""
    weight = ctx.gen_alph.weights[j]
    lead = ctx.star_index[(j, 0)]
    monos = ansatz_monomials(alph, ctx.kept_indices, weight,
                             alph.parities[lead], ctx.highe_indices)
    lead_poly = SuperPoly.variable(alph, lead)
    return lead_poly + solve_ansatz(
        alph, monos, ansatz_terms(image, lead_poly, monos), what,
        None if ctx.k.is_constant() else 0)


def solve_generator(ctx: ReductionContext, j) -> WGenerator:
    """The canonical generator q_j + ... in W: rho{n_lambda w} = 0 for each
    n of g_{>0}, the master formula over ctx.reduced_table through one
    LeftBracket per n, applied to the lead and to each family of ansatz
    monomials (ansatz_terms). Its linear part must be the chain formula's."""
    brackets = [(t, LeftBracket(ctx.n_var(t), ctx.reduced_table))
                for t in ctx.n_indices]
    value = solve_canonical(ctx, j, ctx.alph, lambda w: {
        t: bracket(w) for t, bracket in brackets}, "generator solution")
    if _highe_degree_part(ctx, value, 1) != gamma_linear(ctx, j):
        raise GeneratorError("solver linear part disagrees with the chain "
                             "formula for generator %d" % j)
    return WGenerator(j, value, ctx.gen_alph.weights[j])


def _highe_degree_part(ctx, poly: SuperPoly, degree) -> SuperPoly:
    """The terms of poly of degree `degree` in the [E, g_{<=-1/2}] variables."""
    return poly.degree_part(set(ctx.highe_indices), degree)


def solve_all_generators(ctx: ReductionContext):
    return [solve_generator(ctx, j) for j in range(ctx.db.count())]


# -- generator coordinates and brackets --------------------------------------

def rewrite_in_generators(ctx: ReductionContext, gens, A):
    """A in generator symbols (ctx.symbols); verifies that evaluating the
    result on the generators reproduces A exactly. A is a SuperPoly, or a
    bracket value, which is read whole (its rename and substitute)."""
    sym = ctx.symbols(A, ctx.gen_alph)
    back = sym.substitute({j: gens[j].value for j in range(ctx.db.count())},
                          ctx.alph)
    if back != A:
        raise GeneratorError("input not in W or generators not canonical")
    return sym


def w_bracket_direct(ctx: ReductionContext, gens, i, j):
    """Master bracket in P(g), reduced mod I_F, rewritten in generators;
    the generators are in the kept variables, so the reduced bracket is
    the master formula over ctx.reduced_table, applied through the
    context's operator of the left value (ReductionContext.left_bracket),
    which every bracket of the row shares."""
    return rewrite_in_generators(ctx, gens, ctx.flavor.master(
        ctx.left_bracket(gens[i].value), gens[j].value, ctx.reduced_table))


def w_bracket_closed(ctx: ReductionContext, gens, a, b):
    """Closed chain-sum bracket formula evaluated in generator symbols.

    Even: [a,b] + lambda k(a|b) - s(a,b) (chain sum with factors
    (omega([x,y]^sharp) - k(x|y)(lambda+del)) and chain signs). SUSY: the
    same with chi, D and no chain signs, all times s(a).
    """
    db, fl = ctx.db, ctx.flavor
    value = fl.table.value
    ta, tb = ctx.star_index[(a, 0)], ctx.star_index[(b, 0)]
    out = value.zero(ctx.gen_alph)
    _sharp, br, fv = ctx.chain_constants(ta, tb, False)
    if br:
        out = out + value.of(br)
    if fv:
        out = out + value(ctx.gen_alph,
                          {1: SuperPoly.const(ctx.gen_alph, ctx.k.scale(fv))})
    zero = value.zero(ctx.gen_alph)
    total = sum(_chain_heads(ctx, _closed_row(ctx, a), -db.spins[b], tb,
                             _closed_factor), zero)
    pa, pb = ctx.gen_parities[a], ctx.gen_parities[b]
    out = out + total if pa and pb else out - total
    if fl.signed_head and pa:
        out = -out
    return out


def _closed_row(ctx: ReductionContext, a):
    """The path sums V(u) of row a of the closed bracket (_chain_values),
    down to the lowest grade, so that they serve every column b: they read
    spins[a] and t_a, and b only picks the members graded at least
    -spins[b] and the head factor. Built on first use and kept per row;
    a row built twice at once is stored twice, equal."""
    values = ctx._closed_rows.get(a)
    if values is None:
        db, fl = ctx.db, ctx.flavor
        value = fl.table.value
        one = value.of(SuperPoly.one(ctx.gen_alph))
        zero = value.zero(ctx.gen_alph)
        ta = ctx.star_index[(a, 0)]
        values = ctx._closed_rows[a] = _chain_values(
            ctx, -max(db.spins), db.spins[a] - fl.shift,
            lambda x: zero if x is None else
            _closed_factor(ctx, ctx.chain_constants(x, ta, False), one),
            _closed_factor)
    return values


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
    """The W table by either route: the direct one is w_bracket_direct of
    every pair, through pva.bracket_table over ctx.reduced_table with the
    context's operators as its rows, and the closed one w_bracket_closed
    of every pair; so a table and pairwise calls on one context share the
    context's row state on either route."""
    n = ctx.db.count()
    if route == "direct":
        return bracket_table(
            [ctx.left_bracket(gens[i].value) for i in range(n)],
            ctx.reduced_table, ctx.gen_alph,
            lambda p: rewrite_in_generators(ctx, gens, p), ctx.flavor.master)
    return ctx.flavor.table(ctx.gen_alph, {
        (i, j): w_bracket_closed(ctx, gens, i, j)
        for i in range(n) for j in range(n)})


def compare_closed_direct(ctx: ReductionContext, gens, direct):
    """Per-pair report of the closed-route W table against `direct`, the
    W table by the direct route (w_bracket_table(ctx, gens))."""
    closed = w_bracket_table(ctx, gens, "closed")
    n = ctx.db.count()
    return [(ctx.gen_labels[i], ctx.gen_labels[j], direct.entry(i, j),
             closed.entry(i, j)) for i in range(n) for j in range(n)
            if direct.entry(i, j) != closed.entry(i, j)]
