"""Lie superalgebra data: validation, gradings, dual bases, file format.

An algebra is described by a basis with parities, exact structure constants,
an even supersymmetric invariant bilinear form, and distinguished sl2 /
osp(1|2) elements.  The basis must be an eigenbasis of ad H/2; the engine
validates this and never diagonalizes.  Triples are inputs, not searched for.

All of it lives in Q(i): the level k enters only in the affine table
(pva.affine_table).  Elements are coefficient vectors (tuples of GRat) over
the basis; structure constants, form entries and the values of ``bracket``
and ``form_value`` are GRats.  Numbers are converted once, at the boundary:
the file reader parses coefficients straight into GRats, and the
constructor, the triples and ``rebase`` take ints, Fractions, GRats and
constant Scalars, and raise AlgebraError on a k- or c-dependent Scalar.

Brackets run on sparse vectors.  At construction the algebra indexes its
nonzero structure constants once, as {(i, j): ((l, c), ...)} with
[x_i, x_j] = sum c x_l, and one private helper brackets two sparse vectors
{index: GRat} through that index: the cost is a few lookups per pair of
nonzero coordinates, not a pass over every structure constant.  The public
``bracket`` converts dense tuples to and from this form; ``validate`` sums
products of structure constants read from the index.
"""

from __future__ import annotations

import json
from math import comb, factorial

from .scalars import (GR_ZERO, GR_ONE, GRat, Scalar, back_substitute,
                      parse_coeff, rat, row_echelon)

HALF = rat(1, 2)
_MINUS_ONE = -GR_ONE


class AlgebraError(ValueError):
    pass


# ---------------------------------------------------------------------------
# exact linear algebra over Gaussian rationals, on scalars.row_echelon
# ---------------------------------------------------------------------------

def _echelon(rows, ncols):
    """Pivots of the homogeneous system whose matrix has the given rows."""
    rows = ({c: x for c, x in enumerate(r) if x} for r in rows)
    return row_echelon([(r, GR_ZERO) for r in rows if r], range(ncols))


def matrix_rank(rows) -> int:
    return len(_echelon(rows, len(rows[0]) if rows else 0))


def nullspace(rows, ncols):
    """Deterministic basis of the right nullspace of a GRat matrix: for each
    free column in order, the kernel vector that is 1 there and 0 at the
    other free columns. The free columns are those of the reduced row
    echelon form (see scalars.row_echelon), and a kernel vector is fixed by
    its free entries, so this is the basis read off the RREF."""
    pivots = _echelon(rows, ncols)
    pivot_cols = {col for col, _, _ in pivots}
    free = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for fc in free:
        x = back_substitute(pivots, {c: GR_ONE if c == fc else GR_ZERO
                                     for c in free})
        basis.append([x[c] for c in range(ncols)])
    return basis


def matrix_inverse(rows):
    """The inverse of a square GRat matrix A, read off the kernel of
    [A | -1]: that matrix has rank n, its pivot columns are those of A
    exactly when A is invertible, and then the kernel vector that is 1 at
    column n + j and 0 at the rest of the -1 block is (A^-1 e_j, e_j)."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise AlgebraError("matrix not invertible")
    pivots = _echelon([list(r) + [_MINUS_ONE if c == i else GR_ZERO
                                  for c in range(n)]
                       for i, r in enumerate(rows)], 2 * n)
    if any(col >= n for col, _, _ in pivots):
        raise AlgebraError("matrix not invertible")
    cols = [back_substitute(pivots, {n + i: GR_ONE if i == j else GR_ZERO
                                     for i in range(n)})
            for j in range(n)]
    return [[x[i] for x in cols] for i in range(n)]


def _vector(vec, what, *args):
    """vec as a tuple of GRats, from ints, Fractions, GRats and constant
    Scalars; what % args names it in the error on a k- or c-dependent entry."""
    out = tuple(vec)
    if all(type(x) is GRat for x in out):
        return out
    for n, x in enumerate(out):
        if isinstance(x, Scalar) and not x.is_constant():
            raise AlgebraError("%s, entry %d: expected k-free scalar, got %s"
                               % (what % args, n, x))
    return tuple(x.constant_part() if isinstance(x, Scalar) else GRat(x)
                 for x in out)


# ---------------------------------------------------------------------------
# the algebra
# ---------------------------------------------------------------------------

def _in_range(i, dim) -> bool:
    return type(i) is int and 0 <= i < dim


def _sparse(vec):
    """Dense coefficient vector -> sparse {index: GRat} of its nonzeros."""
    return {i: c for i, c in enumerate(vec) if c}


def _scaled(vec, r):
    return tuple(x * r if x else x for x in vec)


def _swapped(vec, p, q):
    """[x_j, x_i] = -(-1)^{p_i p_j} [x_i, x_j], for parities p, q of i, j."""
    return vec if (p * q) % 2 else tuple(-x if x else x for x in vec)


def _common(values, vec):
    """The value values[i] shared by every nonzero vec[i]; None when they
    differ or vec is zero."""
    seen = {values[i] for i, c in enumerate(vec) if c}
    return seen.pop() if len(seen) == 1 else None


def _add_products(out, pairs, rows, neg=False):
    """out[n] += (-1)^neg x y over (m, x) in pairs and (n, y) in rows[m]; for
    pairs from [u, v] and rows[m] from [x_m, w], that adds [[u, v], w]."""
    for m, x in pairs:
        row = rows.get(m)
        if row:
            if neg:
                x = -x
            for n, y in row:
                s = out.get(n)
                out[n] = x * y if s is None else s + x * y


class SL2Triple:
    """Vectors E, H, F with [H,E]=2E, [H,F]=-2F, [E,F]=H, (E|F)=(H|H)/2=1."""

    def __init__(self, E, H, F):
        self.E, self.H, self.F = (_vector(v, "sl2 vector %s", nm)
                                  for v, nm in zip((E, H, F), "EHF"))


class OSPTriple:
    """Quintuple (E, e, H, f, F) spanning a copy of osp(1|2); e, f odd."""

    def __init__(self, E, e, H, f, F):
        self.E, self.e, self.H, self.f, self.F = (
            _vector(v, "osp vector %s", nm)
            for v, nm in zip((E, e, H, f, F), "EeHfF"))

    def sl2(self) -> SL2Triple:
        return SL2Triple(self.E, self.H, self.F)


class LieSuperalgebra:
    def __init__(self, name, names, parities, struct, form, sl2=None, osp=None):
        """struct: {(i, j): vector} for the nonzero brackets [x_i, x_j].

        Missing (j, i) entries are completed by super-anticommutativity.
        With osp(1|2) data, sl2 defaults to its triple (E, H, F); a given
        sl2 must share its H, as g is graded once, by that H.
        Gradings are computed from ad H/2 when an sl2 triple is present.
        A name or basis label that is not a string, a repeated label,
        indices outside 0..dim-1, vectors of another length, a form that is
        not dim x dim and a k- or c-dependent entry raise AlgebraError.
        """
        if not isinstance(name, str):
            raise AlgebraError("algebra name %r is not a string" % (name,))
        self.name = name
        self.names = tuple(names)
        for n, label in enumerate(self.names):
            if not isinstance(label, str):
                raise AlgebraError("basis label %r is not a string" % (label,))
            if label in self.names[:n]:
                raise AlgebraError("basis label %r is repeated" % label)
        self.parities = tuple(int(p) % 2 for p in parities)
        self.dim = len(self.names)
        full = {}
        for (i, j), vec in struct.items():
            if not (_in_range(i, self.dim) and _in_range(j, self.dim)):
                raise AlgebraError("bracket index (%r, %r) out of range 0..%d"
                                   % (i, j, self.dim - 1))
            vec = _vector(vec, "bracket (%d, %d)", i, j)
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
        self.form = tuple(_vector(row, "form row %d", r)
                          for r, row in enumerate(form))
        if len(self.form) != self.dim or any(len(row) != self.dim for row in self.form):
            raise AlgebraError("form is not %d x %d" % (self.dim, self.dim))
        for tag, triple in (("sl2", sl2), ("osp", osp)):
            for nm, vec in vars(triple).items() if triple is not None else ():
                if len(vec) != self.dim:
                    raise AlgebraError("%s vector %s has %d entries, expected %d"
                                       % (tag, nm, len(vec), self.dim))
        if osp is not None:
            if sl2 is None:
                sl2 = osp.sl2()
            elif sl2.H != osp.H:
                raise AlgebraError("sl2 triple and osp(1|2) data have different H")
        self.sl2, self.osp = sl2, osp
        self.gradings = self._compute_gradings() if sl2 is not None else None

    def triple(self, attr):
        """The sl2 triple (attr "sl2") or the osp(1|2) data ("osp") of the
        algebra; an AlgebraError naming both when it carries none."""
        found = getattr(self, attr)
        if found is None:
            raise AlgebraError("algebra %s carries no %s" % (
                self.name, "sl2 triple" if attr == "sl2" else "osp(1|2) data"))
        return found

    # -- element helpers -----------------------------------------------
    def zero_vec(self):
        return (GR_ZERO,) * self.dim

    def basis_vec(self, i):
        return tuple(GR_ONE if j == i else GR_ZERO for j in range(self.dim))

    def _br(self, u, v):
        """[u, v] of sparse vectors {index: GRat}, zero entries dropped."""
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

    def _form(self, u, v) -> GRat:
        """(u | v) of sparse vectors {index: GRat}."""
        out = GR_ZERO
        for i, a in u.items():
            row = self.form[i]
            for j, b in v.items():
                if row[j]:
                    out = out + a * b * row[j]
        return out

    def bracket(self, x, y):
        out = self._br(_sparse(x), _sparse(y))
        return tuple(out.get(l, GR_ZERO) for l in range(self.dim))

    def form_value(self, x, y) -> GRat:
        return self._form(_sparse(x), _sparse(y))

    def parity_of_vec(self, vec):
        return _common(self.parities, vec)

    def grading_of_vec(self, vec):
        return _common(self.gradings, vec)

    def _compute_gradings(self):
        """Eigenvalue of ad H/2 on every basis vector; raises if not diagonal."""
        H = _sparse(self.sl2.H)
        grads = []
        for i in range(self.dim):
            img = self._br(H, {i: GR_ONE})
            ev = GR_ZERO
            for l in sorted(img):
                if l != i:
                    raise AlgebraError("basis not ad-H/2 homogeneous (index %d)" % i)
                ev = img[l]
                if ev.b:
                    raise AlgebraError("non-rational ad-H eigenvalue")
            grads.append(ev / 2)
        return tuple(grads)

    # -- validation ------------------------------------------------------
    def validate(self):
        """Report every violated axiom; an empty list means valid.

        Each check sums products of structure constants ([x_i, x_j] =
        sum_m c_ij^m x_m) read from the index, one dict per pair or triple,
        with s = (-1)^{p_i p_j}: c_ij + s c_ji = 0; the Jacobiator of
        (i, j, l), sum_m c_jl^m c_im - c_ij^m c_ml - s c_il^m c_jm; and
        invariance, sum_m c_ij^m F_ml = sum_m F_im c_jl^m for every l.
        """
        report = []
        dim, p, names, form = self.dim, self.parities, self.names, self.form
        index = self._index
        left = [{} for _ in range(dim)]    # left[i][m]: entries of [x_i, x_m]
        right = [{} for _ in range(dim)]   # right[l][m]: of [x_m, x_l]
        over = [{} for _ in range(dim)]    # over[j][m]: (l, c_jl^m) pairs
        for (i, j), entry in index.items():
            left[i][j] = right[j][i] = entry
            for m, c in entry:
                over[i].setdefault(m, []).append((j, c))
        rows = {m: tuple((l, f) for l, f in enumerate(row) if f)
                for m, row in enumerate(form)}

        for i in range(dim):
            for j in range(dim):
                bij = index.get((i, j), ())
                odd = p[i] * p[j]
                # nonzero entries only, so c_ij = -s c_ji as dicts
                if dict(bij) != {l: c if odd else -c
                                 for l, c in index.get((j, i), ())}:
                    report.append("super-anticommutativity fails at (%s,%s)"
                                  % (names[i], names[j]))
                pb = {p[l] for l, _c in bij}
                if len(pb) == 1 and pb != {(p[i] + p[j]) % 2}:
                    report.append("bracket parity fails at (%s,%s)"
                                  % (names[i], names[j]))

        for i in range(dim):
            for j in range(dim):
                bij = index.get((i, j), ())
                odd = p[i] * p[j]
                for l in range(dim):
                    out = {}
                    _add_products(out, index.get((j, l), ()), left[i])
                    _add_products(out, bij, right[l], neg=True)
                    _add_products(out, index.get((i, l), ()), left[j], neg=not odd)
                    if any(out.values()):
                        report.append("Jacobi fails at (%s,%s,%s)"
                                      % (names[i], names[j], names[l]))

        for i in range(dim):
            for j in range(dim):
                fij, fji = form[i][j], form[j][i]
                if p[i] != p[j] and fij:
                    report.append("form not even at (%s,%s)" % (names[i], names[j]))
                if fij != (-fji if p[i] * p[j] else fji):
                    report.append("form not supersymmetric at (%s,%s)"
                                  % (names[i], names[j]))

        for i in range(dim):
            for j in range(dim):
                lhs, rhs = {}, {}
                _add_products(lhs, index.get((i, j), ()), rows)
                _add_products(rhs, rows[i], over[j])
                for l in range(dim):
                    if lhs.get(l, GR_ZERO) != rhs.get(l, GR_ZERO):
                        report.append("form not invariant at (%s,%s,%s)"
                                      % (names[i], names[j], names[l]))

        rank = matrix_rank(form)
        if rank != dim:
            report.append("form degenerate (rank %d of %d)" % (rank, dim))

        return report + self.validate_triples()

    def validate_triples(self):
        """The defining relations that the sl2 triple and the osp(1|2) data
        fail (the sl2 eigenbasis condition is checked by the gradings).
        Each distinct triple is checked once: when the osp(1|2) data's
        (E, H, F) is the sl2 triple, it adds only its own relations."""
        report = self._validate_sl2(self.sl2) if self.sl2 else []
        if self.osp:
            t, s = self.osp, self.sl2
            shared = s is not None and (t.E, t.H, t.F) == (s.E, s.H, s.F)
            report += self._validate_osp(t, shared)
        return report

    def _validate_sl2(self, t, tag="sl2"):
        report = []
        checks = [
            ("[H,E]=2E", self.bracket(t.H, t.E), _scaled(t.E, 2)),
            ("[H,F]=-2F", self.bracket(t.H, t.F), _scaled(t.F, -2)),
            ("[E,F]=H", self.bracket(t.E, t.F), t.H),
        ]
        for label, got, want in checks:
            if got != want:
                report.append("%s: %s fails" % (tag, label))
        if self.form_value(t.E, t.F) != 1:
            report.append("%s: (E|F)=1 fails" % tag)
        if self.form_value(t.H, t.H) != 2:
            report.append("%s: (H|H)=2 fails" % tag)
        for v, nm in ((t.E, "E"), (t.H, "H"), (t.F, "F")):
            if self.parity_of_vec(v) not in (0, None):
                report.append("%s: %s not even" % (tag, nm))
        return report

    def _validate_osp(self, t, sl2_checked):
        report = [] if sl2_checked else self._validate_sl2(t.sl2(), tag="osp")
        checks = [
            ("[H,e]=e", self.bracket(t.H, t.e), t.e),
            ("[H,f]=-f", self.bracket(t.H, t.f), _scaled(t.f, -1)),
            ("[e,e]=2E", self.bracket(t.e, t.e), _scaled(t.E, 2)),
            ("[f,f]=-2F", self.bracket(t.f, t.f), _scaled(t.F, -2)),
            ("[e,f]=-H", self.bracket(t.e, t.f), _scaled(t.H, -1)),
            ("[F,e]=f", self.bracket(t.F, t.e), t.f),
            ("[E,f]=e", self.bracket(t.E, t.f), t.e),
        ]
        for label, got, want in checks:
            if got != want:
                report.append("osp: %s fails" % label)
        if self.form_value(t.e, t.f) != -2:
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
        nonzero entries, not through a dense dim x dim product.  The
        vectors are read as the constructor reads its inputs, so a k- or
        c-dependent entry raises AlgebraError; the rest is GRat arithmetic.
        """
        vectors = [_vector(v, "rebase vector %d", n) for n, v in enumerate(vectors)]
        dim = self.dim
        if len(vectors) != dim:
            raise AlgebraError("rebase needs %d vectors" % dim)
        Vinv = matrix_inverse([[v[i] for v in vectors] for i in range(dim)])
        inv_cols = [[(r, Vinv[r][c]) for r in range(dim) if Vinv[r][c]]
                    for c in range(dim)]

        def coords(vec):
            """New-basis coordinates of a sparse vector {index: GRat}."""
            out = {}
            for l, x in vec.items():
                for r, m in inv_cols[l]:
                    t = out.get(r)
                    out[r] = m * x if t is None else t + m * x
            return tuple(out.get(r, GR_ZERO) for r in range(dim))

        parities = [self.parity_of_vec(v) for v in vectors]
        if None in parities:
            raise AlgebraError("rebase vector not parity homogeneous")
        struct = {}
        sparse = [_sparse(v) for v in vectors]
        for i, u in enumerate(sparse):
            for j, v in enumerate(sparse):
                b = self._br(u, v)
                if b:
                    struct[(i, j)] = coords(b)
        form = [tuple(self._form(u, v) for v in sparse) for u in sparse]

        def mapped(cls, triple):
            return None if triple is None else cls(
                *(coords(_sparse(x)) for x in vars(triple).values()))

        return LieSuperalgebra(self.name + "*", names, parities, struct, form,
                               sl2=mapped(SL2Triple, self.sl2),
                               osp=mapped(OSPTriple, self.osp))


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
        self.step = GR_ONE if kind == "F" else HALF
        self._upper_sparse = [_sparse(v) for v in upper]   # for upper_values
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

    def upper_values(self, y):
        """[(q^j | y) for each j], with y made sparse once and the q^j kept
        sparse: g.form_value(upper[j], y) for every j, term for term."""
        ys = _sparse(y)
        return [self.g._form(u, ys) for u in self._upper_sparse]

    def grade_of(self, j, n):
        return -self.spins[j] + n * self.step

    def chain_lower_or_zero(self, j, n):
        chain = self.chain_lower[j]
        return chain[n] if n < len(chain) else self.g.zero_vec()

    def chain_upper_or_zero(self, j, n):
        chain = self.chain_upper[j]
        return chain[n] if n < len(chain) else self.g.zero_vec()

    def members(self):
        return [(j, n) for j in range(len(self.lower))
                for n in range(len(self.chain_lower[j]))]


def _graded_kernel_basis(g, ad_vec):
    """Kernel of ad(ad_vec), split into homogeneous pieces, sorted by grading."""
    dim = g.dim
    cols = [g.bracket(ad_vec, g.basis_vec(i)) for i in range(dim)]
    groups = {}
    for i in range(dim):
        groups.setdefault((g.gradings[i], g.parities[i]), []).append(i)
    members = []
    for (grade, par) in sorted(groups):
        idxs = groups[(grade, par)]
        rows = [[cols[i][r] for i in idxs] for r in range(dim)]
        for nv in nullspace(rows, len(idxs)):
            coords = dict(zip(idxs, nv))
            members.append((grade, par, tuple(coords.get(i, GR_ZERO)
                                              for i in range(dim))))
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
            inv = matrix_inverse(gram)
        except AlgebraError:
            raise AlgebraError("bases not dual (singular pairing at grade %s)" % (key,))
        lower.extend(lvs)
        for row in inv:
            upper.append(tuple(sum((u[t] * c for u, c in zip(uvs, row) if c and u[t]),
                                   GR_ZERO) for t in range(g.dim)))
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
        alpha = -grade
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
            lo_chain.append(_scaled(cur, coeff))
        spins.append(alpha)
        chain_upper.append(up_chain[:size])
        chain_lower.append(lo_chain)
    db = DualBases(g, kind, lower, upper, chain_lower, chain_upper, spins)
    _verify_chain_pairings(db)
    return db


def dual_bases_F(g: LieSuperalgebra) -> DualBases:
    """Chain bases for the even reduction over g's sl2 triple (Lemma on dual
    bases, sl2 case): chains of length 2 alpha + 1,
    q_j^n = (-1)^n (ad E)^n q_j / (n!^2 C(2 alpha, n))."""
    sl2 = g.triple("sl2")
    return _chain_bases(
        g, "F", sl2.F, sl2.E, lambda alpha: int(2 * alpha) + 1,
        lambda n, two_alpha, _s: rat((-1) ** n,
                                     factorial(n) ** 2 * comb(two_alpha, n)))


def _susy_norm(n, two_alpha, sj):
    """C_{j,n}: 1/(m!^2 C(2 alpha, m)) at n = 2m,
    -s(r_j)/((m+1)! m! C(2 alpha, m+1)) at n = 2m + 1."""
    m, odd = divmod(n, 2)
    if not odd:
        return rat(1, factorial(m) ** 2 * comb(two_alpha, m))
    return rat(-sj, factorial(m + 1) * factorial(m) * comb(two_alpha, m + 1))


def dual_bases_f(g: LieSuperalgebra) -> DualBases:
    """Chain bases for the SUSY reduction over g's osp(1|2) data: chains of
    length 4 alpha + 1, r_j^n = C_{j,n} (ad e)^n r_j."""
    osp = g.triple("osp")
    return _chain_bases(g, "f", osp.f, osp.e,
                        lambda alpha: int(4 * alpha) + 1, _susy_norm)


def _verify_chain_pairings(db: DualBases):
    g = db.g
    lows = [[_sparse(v) for v in chain] for chain in db.chain_lower]
    for i, chain in enumerate(db.chain_upper):
        for m, up in enumerate(map(_sparse, chain)):
            for j, los in enumerate(lows):
                for n, lo in enumerate(los):
                    val = g._form(up, lo)
                    if val != (GR_ONE if (i == j and m == n) else GR_ZERO):
                        raise AlgebraError(
                            "bases not dual: (chain_up[%d][%d]|chain_lo[%d][%d]) = %s"
                            % (i, m, j, n, val))


# ---------------------------------------------------------------------------
# tensor identities (exact checks on the dual bases)
# ---------------------------------------------------------------------------

def _tensor_sum(g, pairs):
    """Sum of outer products sum c * x (x) y as a dim x dim GRat matrix."""
    out = [[GR_ZERO] * g.dim for _ in range(g.dim)]
    for sign, x, y in pairs:
        ys = _sparse(y)
        for a, xa in _sparse(x).items():
            for b, yb in ys.items():
                out[a][b] = out[a][b] + (xa * yb if sign > 0 else -(xa * yb))
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
    def coeff_str(gr: GRat):
        if gr.b and gr.a:
            raise AlgebraError("mixed Gaussian coefficient in file")
        if gr.b:
            im = rat(gr.b, gr.d)
            return ("%si" % im) if im not in (1, -1) else ("i" if im == 1 else "-i")
        return str(gr)

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
    for tag in ("sl2", "osp"):
        if getattr(g, tag) is not None:
            obj[tag] = {nm: [coeff_str(s) for s in vec]
                        for nm, vec in vars(getattr(g, tag)).items()}
    return obj


def _file_coeff(text, where) -> GRat:
    """A coefficient of the file; a JSON true or false is not a number,
    though parse_coeff would read it as the int 1 or 0."""
    try:
        if isinstance(text, bool):
            raise ValueError(text)
        return parse_coeff(text)
    except (ValueError, ZeroDivisionError):
        raise AlgebraError("%s: coefficient %r is not a number" % (where, text))


def _file_list(value, where):
    """A JSON array of the file; anything else (a string would be read
    character by character) raises AlgebraError naming the field."""
    if not isinstance(value, list):
        raise AlgebraError("%s is not a list: %r" % (where, value))
    return value


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
            vec = [GR_ZERO] * dim
            where = "bracket (%r, %r)" % (ent["i"], ent["j"])
            for pair in _file_list(ent["coeffs"], where + " coeffs"):
                if not (isinstance(pair, list) and len(pair) == 2):
                    raise AlgebraError("%s: coefficient %r is not an [index, "
                                       "value] pair" % (where, pair))
                l, cs = pair
                if not _in_range(l, dim):
                    raise AlgebraError("%s: coefficient index %r out of range 0..%d"
                                       % (where, l, dim - 1))
                vec[l] = _file_coeff(cs, where)
            struct[(ent["i"], ent["j"])] = tuple(vec)
        form = [[_file_coeff(cs, "form row %d" % r)
                 for cs in _file_list(row, "form row %d" % r)]
                for r, row in enumerate(_file_list(obj["form"], "form"))]

        def vec_of(tag, triple, name):
            where = "%s vector %s" % (tag, name)
            return tuple(_file_coeff(cs, where)
                         for cs in _file_list(triple[name], where))

        sl2 = osp = None
        if "osp" in obj and obj["osp"]:
            osp = OSPTriple(*(vec_of("osp", obj["osp"], nm) for nm in "EeHfF"))
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
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as e:
            raise AlgebraError("parse error in %s at line %d: %s"
                               % (path, e.lineno, e.msg))
        except UnicodeDecodeError as e:
            raise AlgebraError("cannot decode %s as UTF-8: %s" % (path, e.reason))
    return algebra_from_obj(obj)
