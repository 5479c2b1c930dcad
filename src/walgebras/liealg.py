"""Lie superalgebra data: validation, gradings, dual bases, file format.

An algebra is described by a basis with parities, exact structure constants,
an even supersymmetric invariant bilinear form, and distinguished sl2 /
osp(1|2) elements.  The basis must be an eigenbasis of ad H/2; the engine
validates this and never diagonalizes.  Triples are inputs, not searched for.

Elements are coefficient vectors (tuples of Scalar) over the basis.

Brackets run on sparse vectors.  At construction the algebra indexes its
nonzero structure constants once, as {(i, j): ((l, c), ...)} with
[x_i, x_j] = sum c x_l, and one private helper brackets two sparse vectors
{index: Scalar} through that index: the cost is a few lookups per pair of
nonzero coordinates, not a pass over every structure constant.  The public
``bracket`` converts dense tuples to and from this form; ``validate`` runs
its per-basis-element checks on unit vectors {i: 1} directly.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb, factorial

from .scalars import GR_ZERO, GR_ONE, Scalar, parse_coeff

HALF = Fraction(1, 2)


class AlgebraError(ValueError):
    pass


# ---------------------------------------------------------------------------
# exact dense linear algebra over Gaussian rationals
# ---------------------------------------------------------------------------

def _rref(rows):
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


def matrix_rank(rows) -> int:
    return len(_rref(rows)[0])


def nullspace(rows, ncols):
    """Deterministic basis of the right nullspace of a GRat matrix."""
    red, pivots = _rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [GR_ZERO] * ncols
        vec[fc] = GR_ONE
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


def matrix_inverse(rows):
    n = len(rows)
    aug = [list(r) + [GR_ONE if i == j else GR_ZERO for j in range(n)]
           for i, r in enumerate(rows)]
    red, pivots = _rref(aug)
    if pivots[:n] != list(range(n)):
        raise AlgebraError("matrix not invertible")
    return [r[n:] for r in red]


def vec_grat(vec):
    """Scalar vector -> GRat vector; entries must be constant."""
    out = []
    for s in vec:
        if not s.is_constant():
            raise AlgebraError("expected k-free scalar, got %s" % s)
        out.append(s.constant_part())
    return out


def grat_vec_scalar(vec):
    return tuple(Scalar.term(0, 0, g) for g in vec)


# ---------------------------------------------------------------------------
# the algebra
# ---------------------------------------------------------------------------

def _in_range(i, dim) -> bool:
    return isinstance(i, int) and 0 <= i < dim


def _sparse(vec):
    """Dense coefficient vector -> sparse {index: Scalar} of its nonzeros."""
    return {i: c for i, c in enumerate(vec) if c}


def _sparse_sum(terms):
    """sum of sign * u over (sign, u) pairs of sparse vectors, zeros dropped."""
    out = {}
    for sign, u in terms:
        for l, c in u.items():
            c = c.scale(sign)
            t = out.get(l)
            out[l] = c if t is None else t + c
    return {l: c for l, c in out.items() if c}


def _swapped(vec, p, q):
    """[x_j, x_i] = -(-1)^{p_i p_j} [x_i, x_j], for parities p, q of i, j."""
    s = Scalar.one() if (p * q) % 2 else Scalar.rational(-1)
    return tuple(x * s for x in vec)


class SL2Triple:
    """Vectors E, H, F with [H,E]=2E, [H,F]=-2F, [E,F]=H, (E|F)=(H|H)/2=1."""

    def __init__(self, E, H, F):
        self.E, self.H, self.F = tuple(E), tuple(H), tuple(F)


class OSPTriple:
    """Quintuple (E, e, H, f, F) spanning a copy of osp(1|2); e, f odd."""

    def __init__(self, E, e, H, f, F):
        self.E, self.e, self.H, self.f, self.F = map(tuple, (E, e, H, f, F))

    def sl2(self) -> SL2Triple:
        return SL2Triple(self.E, self.H, self.F)


class LieSuperalgebra:
    def __init__(self, name, names, parities, struct, form, sl2=None, osp=None):
        """struct: {(i, j): vector} for the nonzero brackets [x_i, x_j].

        Missing (j, i) entries are completed by super-anticommutativity.
        Gradings are computed from ad H/2 when an sl2 triple is present.
        Indices outside 0..dim-1, vectors of another length and a form
        that is not dim x dim raise AlgebraError.
        """
        self.name = name
        self.names = tuple(names)
        self.parities = tuple(int(p) % 2 for p in parities)
        self.dim = len(self.names)
        full = {}
        for (i, j), vec in struct.items():
            if not (_in_range(i, self.dim) and _in_range(j, self.dim)):
                raise AlgebraError("bracket index (%r, %r) out of range 0..%d"
                                   % (i, j, self.dim - 1))
            vec = tuple(vec)
            if len(vec) != self.dim:
                raise AlgebraError("bracket (%d, %d) has %d coefficients, expected %d"
                                   % (i, j, len(vec), self.dim))
            if any(vec):
                full[(i, j)] = vec
        for (i, j), vec in list(full.items()):
            if (j, i) not in full:
                full[(j, i)] = _swapped(vec, self.parities[i], self.parities[j])
        self.struct = full
        self._index = {ij: tuple((l, c) for l, c in enumerate(vec) if c)
                       for ij, vec in full.items()}
        self.form = tuple(tuple(row) for row in form)
        if len(self.form) != self.dim or any(len(row) != self.dim for row in self.form):
            raise AlgebraError("form is not %d x %d" % (self.dim, self.dim))
        for tag, triple in (("sl2", sl2), ("osp", osp)):
            for nm, vec in vars(triple).items() if triple is not None else ():
                if len(vec) != self.dim:
                    raise AlgebraError("%s vector %s has %d entries, expected %d"
                                       % (tag, nm, len(vec), self.dim))
        self.sl2 = sl2
        self.osp = osp
        self.gradings = self._compute_gradings() if sl2 is not None else None

    # -- element helpers -----------------------------------------------
    def zero_vec(self):
        return tuple(Scalar.zero() for _ in range(self.dim))

    def basis_vec(self, i):
        return tuple(Scalar.one() if j == i else Scalar.zero()
                     for j in range(self.dim))

    def _br(self, u, v):
        """[u, v] of sparse vectors {index: Scalar}, zero entries dropped."""
        index = self._index
        out = {}
        for i, a in u.items():
            for j, b in v.items():
                entry = index.get((i, j))
                if entry:
                    ab = a * b
                    for l, c in entry:
                        s = out.get(l)
                        out[l] = ab * c if s is None else s + ab * c
        return {l: s for l, s in out.items() if s}

    def _form(self, u, v) -> Scalar:
        """(u | v) of sparse vectors {index: Scalar}."""
        out = Scalar.zero()
        for i, a in u.items():
            row = self.form[i]
            for j, b in v.items():
                if row[j]:
                    out = out + a * b * row[j]
        return out

    def bracket(self, x, y):
        out = self._br(_sparse(x), _sparse(y))
        zero = Scalar.zero()
        return tuple(out.get(l, zero) for l in range(self.dim))

    def form_value(self, x, y) -> Scalar:
        return self._form(_sparse(x), _sparse(y))

    def parity_of_vec(self, vec):
        p = None
        for i, c in enumerate(vec):
            if c:
                if p is None:
                    p = self.parities[i]
                elif p != self.parities[i]:
                    return None
        return p

    def grading_of_vec(self, vec):
        g = None
        for i, c in enumerate(vec):
            if c:
                if g is None:
                    g = self.gradings[i]
                elif g != self.gradings[i]:
                    return None
        return g

    def _compute_gradings(self):
        """Eigenvalue of ad H/2 on every basis vector; raises if not diagonal."""
        H = _sparse(self.sl2.H)
        one = Scalar.one()
        grads = []
        for i in range(self.dim):
            img = self._br(H, {i: one})
            ev = None
            for l in sorted(img):
                if l != i:
                    raise AlgebraError("basis not ad-H/2 homogeneous (index %d)" % i)
                if not img[l].is_constant():
                    raise AlgebraError("non-constant ad-H eigenvalue")
                g = img[l].constant_part()
                if g.im:
                    raise AlgebraError("non-rational ad-H eigenvalue")
                ev = g.re
            grads.append(Fraction(0) if ev is None else ev / 2)
        return tuple(grads)

    # -- validation ------------------------------------------------------
    def validate(self):
        """Report every violated axiom; an empty list means valid."""
        report = []
        one = Scalar.one()
        unit = [{i: one} for i in range(self.dim)]
        pair = [[self._br(u, v) for v in unit] for u in unit]

        for i in range(self.dim):
            for j in range(self.dim):
                bij = pair[i][j]
                sgn = (-1) ** (self.parities[i] * self.parities[j])
                if _sparse_sum(((1, bij), (sgn, pair[j][i]))):
                    report.append("super-anticommutativity fails at (%s,%s)"
                                  % (self.names[i], self.names[j]))
                pb = {self.parities[l] for l in bij}
                if len(pb) == 1 and pb != {(self.parities[i] + self.parities[j]) % 2}:
                    report.append("bracket parity fails at (%s,%s)"
                                  % (self.names[i], self.names[j]))

        for i in range(self.dim):
            for j in range(self.dim):
                sgn = (-1) ** (self.parities[i] * self.parities[j])
                for l in range(self.dim):
                    lhs = self._br(unit[i], pair[j][l])
                    r1 = self._br(pair[i][j], unit[l])
                    r2 = self._br(unit[j], pair[i][l])
                    if _sparse_sum(((1, lhs), (-1, r1), (-sgn, r2))):
                        report.append("Jacobi fails at (%s,%s,%s)"
                                      % (self.names[i], self.names[j], self.names[l]))

        for i in range(self.dim):
            for j in range(self.dim):
                fij = self.form[i][j]
                if self.parities[i] != self.parities[j] and fij:
                    report.append("form not even at (%s,%s)" % (self.names[i], self.names[j]))
                sgn = (-1) ** (self.parities[i] * self.parities[j])
                if fij != self.form[j][i].scale(sgn):
                    report.append("form not supersymmetric at (%s,%s)"
                                  % (self.names[i], self.names[j]))

        for i in range(self.dim):
            for j in range(self.dim):
                for l in range(self.dim):
                    if self._form(pair[i][j], unit[l]) != self._form(unit[i], pair[j][l]):
                        report.append("form not invariant at (%s,%s,%s)"
                                      % (self.names[i], self.names[j], self.names[l]))

        try:
            rows = [vec_grat(row) for row in self.form]
        except AlgebraError as e:
            report.append("form entries not constant: %s" % e)
        else:
            rank = matrix_rank(rows)
            if rank != self.dim:
                report.append("form degenerate (rank %d of %d)" % (rank, self.dim))

        # the sl2 eigenbasis condition was checked when the gradings were made
        if self.sl2 is not None:
            report.extend(self._validate_sl2(self.sl2))
        if self.osp is not None:
            report.extend(self._validate_osp(self.osp))
        return report

    def _validate_sl2(self, t, tag="sl2"):
        report = []
        checks = [
            ("[H,E]=2E", self.bracket(t.H, t.E), tuple(x.scale(2) for x in t.E)),
            ("[H,F]=-2F", self.bracket(t.H, t.F), tuple(x.scale(-2) for x in t.F)),
            ("[E,F]=H", self.bracket(t.E, t.F), t.H),
        ]
        for label, got, want in checks:
            if got != want:
                report.append("%s: %s fails" % (tag, label))
        if self.form_value(t.E, t.F) != Scalar.one():
            report.append("%s: (E|F)=1 fails" % tag)
        if self.form_value(t.H, t.H) != Scalar.rational(2):
            report.append("%s: (H|H)=2 fails" % tag)
        for v, nm in ((t.E, "E"), (t.H, "H"), (t.F, "F")):
            if self.parity_of_vec(v) not in (0, None):
                report.append("%s: %s not even" % (tag, nm))
        return report

    def _validate_osp(self, t):
        report = self._validate_sl2(t.sl2(), tag="osp")
        checks = [
            ("[H,e]=e", self.bracket(t.H, t.e), t.e),
            ("[H,f]=-f", self.bracket(t.H, t.f), tuple(x.scale(-1) for x in t.f)),
            ("[e,e]=2E", self.bracket(t.e, t.e), tuple(x.scale(2) for x in t.E)),
            ("[f,f]=-2F", self.bracket(t.f, t.f), tuple(x.scale(-2) for x in t.F)),
            ("[e,f]=-H", self.bracket(t.e, t.f), tuple(x.scale(-1) for x in t.H)),
            ("[F,e]=f", self.bracket(t.F, t.e), t.f),
            ("[E,f]=e", self.bracket(t.E, t.f), t.e),
        ]
        for label, got, want in checks:
            if got != want:
                report.append("osp: %s fails" % label)
        if self.form_value(t.e, t.f) != Scalar.rational(-2):
            report.append("osp: (e|f)=-2 fails")
        for v, nm in ((t.e, "e"), (t.f, "f")):
            if self.parity_of_vec(v) not in (1, None):
                report.append("osp: %s not odd" % nm)
        return report

    # -- change of basis ---------------------------------------------------
    def rebase(self, vectors, names):
        """Express the algebra in a new basis (each vector homogeneous).

        With V the matrix whose columns are the new basis vectors, the
        coordinates of x are V^-1 x.  V is inverted once and the columns of
        V^-1 are kept sparse, as [(r, V^-1[r][c]), ...] over the nonzeros,
        so a sparse bracket [v_i, v_j] maps through the columns of its own
        nonzero entries, not through a dense dim x dim product.
        """
        cols = [vec_grat(v) for v in vectors]
        dim = self.dim
        if len(cols) != dim:
            raise AlgebraError("rebase needs %d vectors" % dim)
        Vinv = matrix_inverse([[cols[j][i] for j in range(dim)]
                               for i in range(dim)])
        inv_cols = [[(r, Vinv[r][c]) for r in range(dim) if Vinv[r][c]]
                    for c in range(dim)]

        def coords(vec):
            """New-basis coordinates of a sparse vector {index: Scalar}."""
            out = {}
            for l in sorted(vec):
                s = vec[l]
                if not s.is_constant():
                    raise AlgebraError("expected k-free scalar, got %s" % s)
                x = s.constant_part()
                for r, m in inv_cols[l]:
                    t = out.get(r)
                    out[r] = m * x if t is None else t + m * x
            return grat_vec_scalar([out.get(r, GR_ZERO) for r in range(dim)])

        parities, struct = [], {}
        for v in vectors:
            p = self.parity_of_vec(v)
            if p is None:
                raise AlgebraError("rebase vector not parity homogeneous")
            parities.append(p)
        sparse = [_sparse(v) for v in vectors]
        for i, u in enumerate(sparse):
            for j, v in enumerate(sparse):
                b = self._br(u, v)
                if b:
                    struct[(i, j)] = coords(b)
        form = [tuple(self._form(u, v) for v in sparse) for u in sparse]

        def mapped(*triple):
            return [coords(_sparse(x)) for x in triple]

        sl2 = osp = None
        if self.sl2 is not None:
            t = self.sl2
            sl2 = SL2Triple(*mapped(t.E, t.H, t.F))
        if self.osp is not None:
            t = self.osp
            osp = OSPTriple(*mapped(t.E, t.e, t.H, t.f, t.F))
        return LieSuperalgebra(self.name + "*", names, parities,
                               struct, form, sl2=sl2, osp=osp)


def validate_algebra(g: LieSuperalgebra):
    """Spec operation: full invariant report (empty list = valid)."""
    return g.validate()


# ---------------------------------------------------------------------------
# dual bases from sl2 / osp(1|2) representation theory
# ---------------------------------------------------------------------------

class DualBases:
    """Chain bases attached to an sl2 triple (kind 'F') or osp one (kind 'f').

    lower[j]  : q_j (resp. r_j), basis of ker ad F (resp. ker ad f)
    upper[j]  : q^j (resp. r^j), dual basis of ker ad E (resp. ker ad e)
    chain_upper[j][m] : (ad F)^m q^j          (resp. (ad f)^m r^j)
    chain_lower[j][n] : normalized (ad E)^n q_j  (resp. C_{j,n} (ad e)^n r_j)
    spins[j]  : alpha_j with q_j in g(-alpha_j)
    """

    def __init__(self, g, kind, lower, upper, chain_lower, chain_upper, spins):
        self.g = g
        self.kind = kind
        self.lower = lower
        self.upper = upper
        self.chain_lower = chain_lower
        self.chain_upper = chain_upper
        self.spins = spins
        self.step = Fraction(1) if kind == "F" else HALF
        # index sets: grade -> [(j, n)]
        self.index_sets = {}
        for j, alpha in enumerate(spins):
            for n in range(len(chain_lower[j])):
                grade = -alpha + n * self.step
                self.index_sets.setdefault(grade, []).append((j, n))
        for v in self.index_sets.values():
            v.sort()

    def count(self):
        return len(self.lower)

    def grade_of(self, j, n):
        return -self.spins[j] + n * self.step

    def chain_lower_or_zero(self, j, n):
        if n < len(self.chain_lower[j]):
            return self.chain_lower[j][n]
        return self.g.zero_vec()

    def chain_upper_or_zero(self, j, n):
        if n < len(self.chain_upper[j]):
            return self.chain_upper[j][n]
        return self.g.zero_vec()

    def members(self):
        out = []
        for j in range(len(self.lower)):
            for n in range(len(self.chain_lower[j])):
                out.append((j, n))
        return out


def _graded_kernel_basis(g, ad_vec):
    """Kernel of ad(ad_vec), split into homogeneous pieces, sorted by grading."""
    dim = g.dim
    cols = []
    for i in range(dim):
        img = g.bracket(ad_vec, g.basis_vec(i))
        cols.append(vec_grat(img))
    groups = {}
    for i in range(dim):
        groups.setdefault((g.gradings[i], g.parities[i]), []).append(i)
    members = []
    for (grade, par) in sorted(groups):
        idxs = groups[(grade, par)]
        rows = [[cols[i][r] for i in idxs] for r in range(dim)]
        for nv in nullspace(rows, len(idxs)):
            vec = [Scalar.zero()] * dim
            for pos, i in enumerate(idxs):
                if nv[pos]:
                    vec[i] = Scalar.term(0, 0, nv[pos])
            members.append((grade, par, tuple(vec)))
    members.sort(key=lambda t: (t[0], t[1]))
    return members


def _pair_dual(g, lows, ups):
    """Correct the upper kernel basis so that (q^i | q_j) = delta_{ij}."""
    by_grade_low = {}
    for grade, par, vec in lows:
        by_grade_low.setdefault((grade, par), []).append(vec)
    by_grade_up = {}
    for grade, par, vec in ups:
        by_grade_up.setdefault((-grade, par), []).append(vec)
    lower, upper = [], []
    for key in sorted(by_grade_low, key=lambda t: (t[0], t[1])):
        lvs = by_grade_low[key]
        uvs = by_grade_up.get(key)
        if uvs is None or len(uvs) != len(lvs):
            raise AlgebraError("bases not dual (mismatched kernels at grade %s)" % (key,))
        gram = [[g.form_value(u, l) for l in lvs] for u in uvs]
        try:
            inv = matrix_inverse([vec_grat(r) for r in gram])
        except AlgebraError:
            raise AlgebraError("bases not dual (singular pairing at grade %s)" % (key,))
        for r in range(len(lvs)):
            vec = [Scalar.zero()] * g.dim
            for a in range(len(uvs)):
                c = inv[r][a]
                if c:
                    for t in range(g.dim):
                        vec[t] = vec[t] + uvs[a][t] * Scalar.term(0, 0, c)
            lower.append(lvs[r])
            upper.append(tuple(vec))
    return lower, upper


def _chain_bases(g, kind, lowering, raising, length, norm) -> DualBases:
    """Chain bases of either kind: the kernels of ad lowering and ad raising,
    paired dually; chain_upper[j] applies ad lowering to q^j, chain_lower[j]
    applies ad raising to q_j, each step n >= 1 scaled by
    norm(n, 2 alpha_j, s(q_j)); length(alpha_j) is the length of chain j."""
    lower, upper = _pair_dual(g, _graded_kernel_basis(g, lowering),
                              _graded_kernel_basis(g, raising))
    spins, chain_lower, chain_upper = [], [], []
    for q, up in zip(lower, upper):
        grade = g.grading_of_vec(q)
        if grade is None:
            raise AlgebraError("kernel basis not graded")
        alpha = Fraction(-grade)
        size = length(alpha)
        up_chain = [up]
        for _ in range(size):
            up_chain.append(g.bracket(lowering, up_chain[-1]))
        if not any(up_chain[size - 1]) or any(up_chain[size]):
            raise AlgebraError("%schain length does not match spin %s"
                               % ("SUSY " if kind == "f" else "", alpha))
        sign = -1 if g.parity_of_vec(q) else 1
        lo_chain, cur = [q], q
        for n in range(1, size):
            cur = g.bracket(raising, cur)
            coeff = norm(n, int(2 * alpha), sign)
            lo_chain.append(tuple(x.scale(coeff) for x in cur))
        spins.append(alpha)
        chain_upper.append(up_chain[:size])
        chain_lower.append(lo_chain)
    db = DualBases(g, kind, lower, upper, chain_lower, chain_upper, spins)
    _verify_chain_pairings(db)
    return db


def dual_bases_F(g: LieSuperalgebra, triple: SL2Triple) -> DualBases:
    """Chain bases for the even reduction (Lemma on dual bases, sl2 case):
    chains of length 2 alpha + 1, q_j^n = (-1)^n (ad E)^n q_j / (n!^2 C(2 alpha, n))."""
    return _chain_bases(
        g, "F", triple.F, triple.E, lambda alpha: int(2 * alpha) + 1,
        lambda n, two_alpha, _s: Fraction((-1) ** n,
                                          factorial(n) ** 2 * comb(two_alpha, n)))


def _susy_norm(n, two_alpha, sj):
    """C_{j,n}: 1/(m!^2 C(2 alpha, m)) at n = 2m,
    -s(r_j)/((m+1)! m! C(2 alpha, m+1)) at n = 2m + 1."""
    m, odd = divmod(n, 2)
    if not odd:
        return Fraction(1, factorial(m) ** 2 * comb(two_alpha, m))
    return Fraction(-sj, factorial(m + 1) * factorial(m) * comb(two_alpha, m + 1))


def dual_bases_f(g: LieSuperalgebra, osp: OSPTriple) -> DualBases:
    """Chain bases for the SUSY reduction: chains of length 4 alpha + 1,
    r_j^n = C_{j,n} (ad e)^n r_j."""
    return _chain_bases(g, "f", osp.f, osp.e, lambda alpha: int(4 * alpha) + 1,
                        _susy_norm)


def _verify_chain_pairings(db: DualBases):
    g = db.g
    for i in range(db.count()):
        for m in range(len(db.chain_upper[i])):
            for j in range(db.count()):
                for n in range(len(db.chain_lower[j])):
                    val = g.form_value(db.chain_upper[i][m], db.chain_lower[j][n])
                    want = Scalar.one() if (i == j and m == n) else Scalar.zero()
                    if val != want:
                        raise AlgebraError(
                            "bases not dual: (chain_up[%d][%d]|chain_lo[%d][%d]) = %s"
                            % (i, m, j, n, val))


# ---------------------------------------------------------------------------
# tensor identities (exact checks on the dual bases)
# ---------------------------------------------------------------------------

def _tensor_sum(g, pairs):
    """Sum of outer products sum c * x (x) y as a dim x dim Scalar matrix."""
    out = [[Scalar.zero()] * g.dim for _ in range(g.dim)]
    for sign, x, y in pairs:
        for a in range(g.dim):
            if not x[a]:
                continue
            for b in range(g.dim):
                if y[b]:
                    v = x[a] * y[b]
                    if sign < 0:
                        v = -v
                    out[a][b] = out[a][b] + v
    return out


def check_tensor_identity(db: DualBases):
    """Lemma 3.4 (kind F) and Lemma 6.4 (kind f): for every t,
    sum_{J_{-t}} s(j) q^j_n (x) q_j^{n+1} = - sum_{J_{t-step}} q_i^{m+1} (x) q^i_m,
    where s(j) is the parity sign of q_j for kind F and 1 for kind f.
    Returns the list of failing t."""
    g, step = db.g, db.step
    ts = sorted({-gr for gr in db.index_sets} | {gr + step for gr in db.index_sets})
    bad = []
    for t in ts:
        left_pairs = []
        for (j, n) in db.index_sets.get(-t, []):
            sj = -1 if db.kind == "F" and g.parity_of_vec(db.lower[j]) else 1
            left_pairs.append((sj, db.chain_upper_or_zero(j, n),
                               db.chain_lower_or_zero(j, n + 1)))
        right_pairs = [(-1, db.chain_lower_or_zero(i, m + 1),
                        db.chain_upper_or_zero(i, m))
                       for (i, m) in db.index_sets.get(t - step, [])]
        if _tensor_sum(g, left_pairs) != _tensor_sum(g, right_pairs):
            bad.append(t)
    return bad


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def algebra_to_obj(g: LieSuperalgebra):
    def coeff_str(s: Scalar):
        if not s:
            return "0"
        gr = s.constant_part()
        if not s.is_constant():
            raise AlgebraError("algebra files carry constant coefficients only")
        if gr.im and gr.re:
            raise AlgebraError("mixed Gaussian coefficient in file")
        if gr.im:
            return ("%si" % gr.im) if gr.im not in (1, -1) else ("i" if gr.im == 1 else "-i")
        return str(gr.re)

    def vec_obj(vec):
        return [coeff_str(s) for s in vec]

    obj = {
        "name": g.name,
        "basis": [{"label": n, "parity": "odd" if p else "even"}
                  for n, p in zip(g.names, g.parities)],
        "brackets": [],
        "form": [[coeff_str(s) for s in row] for row in g.form],
    }
    # an (i, j) entry with i > j is left out only when loading completes it
    # as it is, so an inconsistent (j, i) entry survives the round trip
    for (i, j), vec in sorted(g.struct.items()):
        if i > j and (j, i) in g.struct and vec == _swapped(
                g.struct[(j, i)], g.parities[i], g.parities[j]):
            continue
        coeffs = [[l, coeff_str(s)] for l, s in enumerate(vec) if s]
        obj["brackets"].append({"i": i, "j": j, "coeffs": coeffs})
    if g.sl2 is not None:
        obj["sl2"] = {"E": vec_obj(g.sl2.E), "H": vec_obj(g.sl2.H), "F": vec_obj(g.sl2.F)}
    if g.osp is not None:
        obj["osp"] = {"E": vec_obj(g.osp.E), "e": vec_obj(g.osp.e),
                      "H": vec_obj(g.osp.H), "f": vec_obj(g.osp.f),
                      "F": vec_obj(g.osp.F)}
    return obj


def _file_coeff(text, where) -> Scalar:
    try:
        return Scalar.term(0, 0, parse_coeff(text))
    except (ValueError, ZeroDivisionError):
        raise AlgebraError("%s: coefficient %r is not a number" % (where, text))


def algebra_from_obj(obj) -> LieSuperalgebra:
    try:
        names = [b["label"] for b in obj["basis"]]
        parities = []
        for b in obj["basis"]:
            if b["parity"] not in ("even", "odd"):
                raise AlgebraError('basis element %r: parity %r is not "even" or "odd"'
                                   % (b["label"], b["parity"]))
            parities.append(1 if b["parity"] == "odd" else 0)
        dim = len(names)
        struct = {}
        for ent in obj["brackets"]:
            vec = [Scalar.zero()] * dim
            where = "bracket (%r, %r)" % (ent["i"], ent["j"])
            for l, cs in ent["coeffs"]:
                if not _in_range(l, dim):
                    raise AlgebraError("%s: coefficient index %r out of range 0..%d"
                                       % (where, l, dim - 1))
                vec[l] = _file_coeff(cs, where)
            struct[(ent["i"], ent["j"])] = tuple(vec)
        form = [[_file_coeff(cs, "form row %d" % r) for cs in row]
                for r, row in enumerate(obj["form"])]

        def vec_of(tag, triple, name):
            where = "%s vector %s" % (tag, name)
            return tuple(_file_coeff(cs, where) for cs in triple[name])

        sl2 = osp = None
        if "osp" in obj and obj["osp"]:
            osp = OSPTriple(*(vec_of("osp", obj["osp"], nm) for nm in "EeHfF"))
            sl2 = osp.sl2()
        if "sl2" in obj and obj["sl2"]:
            sl2 = SL2Triple(*(vec_of("sl2", obj["sl2"], nm) for nm in "EHF"))
        return LieSuperalgebra(obj.get("name", "?"), names, parities, struct,
                               form, sl2=sl2, osp=osp)
    except (KeyError, IndexError, TypeError) as e:
        raise AlgebraError("malformed algebra file: missing/bad field %s" % e)


def save_algebra(g: LieSuperalgebra, path):
    with open(path, "w") as fh:
        json.dump(algebra_to_obj(g), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_algebra(path) -> LieSuperalgebra:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as e:
            raise AlgebraError("parse error in %s at line %d: %s"
                               % (path, e.lineno, e.msg))
    return algebra_from_obj(obj)
