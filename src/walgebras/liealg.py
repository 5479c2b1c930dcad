"""Lie superalgebra data: validation, gradings, dual bases, file format.

An algebra is described by a basis with parities, exact structure constants,
an even supersymmetric invariant bilinear form, and distinguished sl2 /
osp(1|2) elements.  The basis must be an eigenbasis of ad H/2; the engine
validates this and never diagonalizes.  Triples are inputs, not searched for.

All of it lives in Q(i): the level k enters only in the affine table
(pva.affine_table).  An element of g is one value everywhere, from the file
reader to the chain bases: a tuple of (index, GRat) pairs in increasing
index with no zero coefficient, so that it cannot change and == is value
equality.  The zero element is ().  ``struct`` is the one store of the
structure constants, a read-only {(i, j): element} mapping with [x_i, x_j]
that element, for the nonzero brackets only; ``bracket`` and ``validate``
read it directly, a few lookups per pair of nonzero coordinates.  An
algebra, once validated, cannot be changed through it, nor through the
chain bases, whose containers are tuples.  The form stays a dense
dim x dim matrix of GRats.

Numbers are converted once, at the boundary: the file reader parses
coefficients straight into GRats, and the constructor, the triples and
``rebase`` take elements as (index, coefficient) pairs, with ints,
Fractions, GRats and constant Scalars as coefficients.  They raise
AlgebraError on a k- or c-dependent coefficient and on an index that is
repeated or, among the nonzero coefficients, outside 0..dim-1.
"""

from __future__ import annotations

from math import comb, factorial
from types import MappingProxyType

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


def _kernel(pivots, ncols):
    """Deterministic basis of the right nullspace of a system with
    row_echelon's pivots, as {col: GRat}: for each free column in order, the
    kernel vector that is 1 there and 0 at the other free columns. The free
    columns are those of the reduced row echelon form (see
    scalars.row_echelon), and a kernel vector is fixed by its free entries,
    so this is the basis read off the RREF, whatever the order of the rows."""
    pivot_cols = {col for col, _, _ in pivots}
    free = [c for c in range(ncols) if c not in pivot_cols]
    return [back_substitute(pivots, {c: GR_ONE if c == fc else GR_ZERO
                                     for c in free})
            for fc in free]


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


def _grat(x, what, *args) -> GRat:
    """x as a GRat, from an int, Fraction, GRat or constant Scalar; what %
    args names it in the error on a k- or c-dependent Scalar."""
    if type(x) is GRat:
        return x
    if isinstance(x, Scalar):
        if not x.is_constant():
            raise AlgebraError("%s: expected k-free scalar, got %s"
                               % (what % args, x))
        return x.constant_part()
    return GRat(x)


# ---------------------------------------------------------------------------
# elements: tuples of (index, GRat) pairs in increasing index, no zeros
# ---------------------------------------------------------------------------

def _element(acc):
    """The element with coordinates acc {index: GRat}, zeros dropped."""
    return tuple((i, acc[i]) for i in sorted(acc) if acc[i])


def _accumulate(acc, vec, c):
    """acc[i] += c x over the pairs (i, x) of the element vec."""
    for i, x in vec:
        s = acc.get(i)
        acc[i] = c * x if s is None else s + c * x


def _combination(terms):
    """The element sum c v over the (c, v) of terms."""
    acc = {}
    for c, vec in terms:
        _accumulate(acc, vec, c)
    return _element(acc)


def _vector(pairs, dim, what, *args):
    """pairs as an element, coefficients read by _grat; what % args names it
    in the error on a pair that is not (int index, coefficient), a repeated
    index, and (unless dim is None) an index of a nonzero coefficient
    outside 0..dim-1."""
    acc = {}
    for pair in pairs:
        if not (isinstance(pair, (tuple, list)) and len(pair) == 2):
            raise AlgebraError("%s: %r is not an (index, coefficient) pair"
                               % (what % args, pair))
        i, x = pair
        if type(i) is not int or i in acc:
            raise AlgebraError("%s: index %r is %s" % (
                what % args, i, "not an int" if type(i) is not int else "repeated"))
        acc[i] = x if type(x) is GRat else _grat(x, "%s, entry %d",
                                                 what % args, i)
    vec = _element(acc)
    if dim is not None and vec and (vec[0][0] < 0 or vec[-1][0] >= dim):
        raise AlgebraError("%s: index %d out of range 0..%d" % (
            what % args, vec[0][0] if vec[0][0] < 0 else vec[-1][0], dim - 1))
    return vec


def _scaled(vec, r):
    """r vec, for r != 0."""
    return tuple((i, x * r) for i, x in vec)


def _swapped(vec, p, q):
    """[x_j, x_i] = -(-1)^{p_i p_j} [x_i, x_j], for parities p, q of i, j."""
    return vec if (p * q) % 2 else tuple((i, -x) for i, x in vec)


def _common(values, vec):
    """The value values[i] shared by every index i of vec; None when they
    differ or vec is zero."""
    seen = {values[i] for i, _x in vec}
    return seen.pop() if len(seen) == 1 else None


# ---------------------------------------------------------------------------
# the algebra
# ---------------------------------------------------------------------------

def _in_range(i, dim) -> bool:
    return type(i) is int and 0 <= i < dim


def _add_products(out, pairs, rows, neg=False):
    """out[n] += (-1)^neg x y over (m, x) in pairs and (n, y) in rows[m]; for
    pairs from [u, v] and rows[m] from [x_m, w], that adds [[u, v], w]."""
    for m, x in pairs:
        row = rows.get(m)
        if row:
            _accumulate(out, row, -x if neg else x)


class SL2Triple:
    """Elements E, H, F with [H,E]=2E, [H,F]=-2F, [E,F]=H, (E|F)=(H|H)/2=1.
    A triple does not know dim: the algebra checks the index range."""

    def __init__(self, E, H, F):
        self.E, self.H, self.F = (_vector(v, None, "sl2 vector %s", nm)
                                  for v, nm in zip((E, H, F), "EHF"))


class OSPTriple:
    """Quintuple (E, e, H, f, F) spanning a copy of osp(1|2); e, f odd."""

    def __init__(self, E, e, H, f, F):
        self.E, self.e, self.H, self.f, self.F = (
            _vector(v, None, "osp vector %s", nm)
            for v, nm in zip((E, e, H, f, F), "EeHfF"))

    def sl2(self) -> SL2Triple:
        return SL2Triple(self.E, self.H, self.F)


class LieSuperalgebra:
    def __init__(self, name, names, parities, struct, form, sl2=None, osp=None):
        """struct: {(i, j): element} for the brackets [x_i, x_j]; the zero
        ones may be left out.

        Missing (j, i) entries are completed by super-anticommutativity.
        With osp(1|2) data, sl2 defaults to its triple (E, H, F); a given
        sl2 must share its H, as g is graded once, by that H.
        Gradings are computed from ad H/2 when an sl2 triple is present.
        A name or basis label that is not a string, a repeated label, names
        and parities of different lengths, bracket keys outside 0..dim-1,
        an element with a repeated or out-of-range index, a form that is not
        dim x dim and a k- or c-dependent entry raise AlgebraError.
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
        if len(self.parities) != self.dim:
            raise AlgebraError("names/parities length mismatch: %d names, %d "
                               "parities" % (self.dim, len(self.parities)))
        full = {}
        for (i, j), vec in struct.items():
            if not (_in_range(i, self.dim) and _in_range(j, self.dim)):
                raise AlgebraError("bracket index (%r, %r) out of range 0..%d"
                                   % (i, j, self.dim - 1))
            vec = _vector(vec, self.dim, "bracket (%d, %d)", i, j)
            if vec:
                full[(i, j)] = vec
        for (i, j), vec in list(full.items()):
            if (j, i) not in full:
                full[(j, i)] = _swapped(vec, self.parities[i], self.parities[j])
        self.struct = MappingProxyType(full)
        self.form = tuple(tuple(_grat(x, "form row %d, entry %d", r, c)
                                for c, x in enumerate(row))
                          for r, row in enumerate(form))
        if len(self.form) != self.dim or any(len(row) != self.dim for row in self.form):
            raise AlgebraError("form is not %d x %d" % (self.dim, self.dim))
        for tag, triple in (("sl2", sl2), ("osp", osp)):
            for nm, vec in vars(triple).items() if triple is not None else ():
                _vector(vec, self.dim, "%s vector %s", tag, nm)
        if osp is not None:
            if sl2 is None:
                sl2 = osp.sl2()
            elif sl2.H != osp.H:
                raise AlgebraError("sl2 triple and osp(1|2) data have different H")
        self.sl2, self.osp = sl2, osp
        self.gradings = self._compute_gradings() if sl2 is not None else None

    def __reduce__(self):
        # pickle cannot write the read-only struct: a copy or a pickle is
        # the algebra built again from its data
        return LieSuperalgebra, (self.name, self.names, self.parities,
                                 dict(self.struct), self.form, self.sl2,
                                 self.osp)

    def triple(self, attr):
        """The sl2 triple (attr "sl2") or the osp(1|2) data ("osp") of the
        algebra; an AlgebraError naming both when it carries none."""
        found = getattr(self, attr)
        if found is None:
            raise AlgebraError("algebra %s carries no %s" % (
                self.name, "sl2 triple" if attr == "sl2" else "osp(1|2) data"))
        return found

    # -- elements --------------------------------------------------------
    def bracket(self, x, y):
        """[x, y] of two elements, from the structure constants of the pairs
        of their nonzero coordinates."""
        struct = self.struct
        return _combination((a * b, struct[(i, j)]) for i, a in x
                            for j, b in y if (i, j) in struct)

    def form_value(self, x, y) -> GRat:
        """(x | y) of two elements."""
        out = GR_ZERO
        for i, a in x:
            row = self.form[i]
            for j, b in y:
                if row[j]:
                    out = out + a * b * row[j]
        return out

    def parity_of_vec(self, vec):
        return _common(self.parities, vec)

    def grading_of_vec(self, vec):
        return _common(self.gradings, vec)

    def _compute_gradings(self):
        """Eigenvalue of ad H/2 on every basis vector; raises if not diagonal."""
        grads = []
        for i in range(self.dim):
            ev = GR_ZERO
            for l, ev in self.bracket(self.sl2.H, ((i, GR_ONE),)):
                if l != i:
                    raise AlgebraError("basis not ad-H/2 homogeneous (index %d)" % i)
                if ev.b:
                    raise AlgebraError("non-rational ad-H eigenvalue")
            grads.append(ev / 2)
        return tuple(grads)

    # -- validation ------------------------------------------------------
    def validate(self):
        """Report every violated axiom; an empty list means valid.

        Each check sums products of structure constants ([x_i, x_j] =
        sum_m c_ij^m x_m) read from struct, one dict per pair or triple,
        with s = (-1)^{p_i p_j}: c_ij + s c_ji = 0; the Jacobiator of
        (i, j, l), sum_m c_jl^m c_im - c_ij^m c_ml - s c_il^m c_jm; and
        invariance, sum_m c_ij^m F_ml = sum_m F_im c_jl^m for every l.
        """
        report = []
        dim, p, names, form = self.dim, self.parities, self.names, self.form
        struct = self.struct
        left = [{} for _ in range(dim)]    # left[i][m]: entries of [x_i, x_m]
        right = [{} for _ in range(dim)]   # right[l][m]: of [x_m, x_l]
        over = [{} for _ in range(dim)]    # over[j][m]: (l, c_jl^m) pairs
        for (i, j), entry in struct.items():
            left[i][j] = right[j][i] = entry
            for m, c in entry:
                over[i].setdefault(m, []).append((j, c))
        rows = {m: tuple((l, f) for l, f in enumerate(row) if f)
                for m, row in enumerate(form)}

        for i in range(dim):
            for j in range(dim):
                bij = struct.get((i, j), ())
                odd = p[i] * p[j]
                # nonzero entries only, so c_ij = -s c_ji as dicts
                if dict(bij) != {l: c if odd else -c
                                 for l, c in struct.get((j, i), ())}:
                    report.append("super-anticommutativity fails at (%s,%s)"
                                  % (names[i], names[j]))
                pb = {p[l] for l, _c in bij}
                if len(pb) == 1 and pb != {(p[i] + p[j]) % 2}:
                    report.append("bracket parity fails at (%s,%s)"
                                  % (names[i], names[j]))

        for i in range(dim):
            for j in range(dim):
                bij = struct.get((i, j), ())
                odd = p[i] * p[j]
                for l in range(dim):
                    out = {}
                    _add_products(out, struct.get((j, l), ()), left[i])
                    _add_products(out, bij, right[l], neg=True)
                    _add_products(out, struct.get((i, l), ()), left[j], neg=not odd)
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
                _add_products(lhs, struct.get((i, j), ()), rows)
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
        V^-1 are kept as elements, so an element maps through the columns of
        its own nonzero coordinates, not through a dense dim x dim product.
        The vectors are read as the constructor reads its elements, so a k-
        or c-dependent coefficient and a repeated or out-of-range index
        raise AlgebraError; the rest is GRat arithmetic.
        """
        dim = self.dim
        vectors = [_vector(v, dim, "rebase vector %d", n)
                   for n, v in enumerate(vectors)]
        if len(vectors) != dim:
            raise AlgebraError("rebase needs %d vectors" % dim)
        V = [[GR_ZERO] * dim for _ in range(dim)]
        for c, v in enumerate(vectors):
            for r, x in v:
                V[r][c] = x
        Vinv = matrix_inverse(V)
        inv_cols = [_element({r: Vinv[r][c] for r in range(dim)})
                    for c in range(dim)]

        def coords(vec):
            """New-basis coordinates of an element."""
            return _combination((x, inv_cols[l]) for l, x in vec)

        parities = [self.parity_of_vec(v) for v in vectors]
        if None in parities:
            raise AlgebraError("rebase vector not parity homogeneous")
        struct = {}
        for i, u in enumerate(vectors):
            for j, v in enumerate(vectors):
                b = self.bracket(u, v)
                if b:
                    struct[(i, j)] = coords(b)
        form = [tuple(self.form_value(u, v) for v in vectors) for u in vectors]

        def mapped(cls, triple):
            return None if triple is None else cls(
                *(coords(x) for x in vars(triple).values()))

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

    Every vector is an element of g, (index, GRat) pairs (module docstring),
    and every container below is a tuple:

    lower[j]  : q_j (resp. r_j), basis of ker ad F (resp. ker ad f)
    upper[j]  : q^j (resp. r^j), dual basis of ker ad E (resp. ker ad e)
    chain_upper[j][m] : (ad F)^m q^j          (resp. (ad f)^m r^j)
    chain_lower[j][n] : normalized (ad E)^n q_j  (resp. C_{j,n} (ad e)^n r_j)
    spins[j]  : alpha_j with q_j in g(-alpha_j)

    The coordinate of x on q_j in g = ker ad F + [E, g] is (q^j | x).
    """

    def __init__(self, g, kind, lower, upper, chain_lower, chain_upper, spins):
        self.g = g
        self.kind = kind
        self.lower = tuple(lower)
        self.upper = tuple(upper)
        self.chain_lower = tuple(map(tuple, chain_lower))
        self.chain_upper = tuple(map(tuple, chain_upper))
        self.spins = tuple(spins)
        self.step = GR_ONE if kind == "F" else HALF
        # index sets: grade -> ((j, n), ...), sorted
        index_sets = {}
        for j, alpha in enumerate(spins):
            for n in range(len(chain_lower[j])):
                grade = -alpha + n * self.step
                index_sets.setdefault(grade, []).append((j, n))
        self.index_sets = {grade: tuple(sorted(v))
                           for grade, v in index_sets.items()}

    def count(self):
        return len(self.lower)

    def grade_of(self, j, n):
        return -self.spins[j] + n * self.step

    def chain_lower_or_zero(self, j, n):
        chain = self.chain_lower[j]
        return chain[n] if n < len(chain) else ()

    def members(self):
        return [(j, n) for j in range(len(self.lower))
                for n in range(len(self.chain_lower[j]))]


def _graded_kernel_basis(g, ad_vec):
    """Kernel of ad(ad_vec), split into homogeneous pieces, sorted by
    grading: (grading, parity, element) for each kernel vector of each block
    of basis vectors of one grading and parity."""
    groups = {}
    for i in range(g.dim):
        groups.setdefault((g.gradings[i], g.parities[i]), []).append(i)
    members = []
    for key in sorted(groups):
        idxs = groups[key]
        rows = {}   # rows[r][pos]: coordinate r of [ad_vec, x_idxs[pos]]
        for pos, i in enumerate(idxs):
            for r, c in g.bracket(ad_vec, ((i, GR_ONE),)):
                rows.setdefault(r, {})[pos] = c
        pivots = row_echelon([(row, GR_ZERO) for row in rows.values()],
                             range(len(idxs)))
        for x in _kernel(pivots, len(idxs)):
            members.append((*key, _element({idxs[pos]: c
                                            for pos, c in x.items()})))
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
        upper.extend(_combination(zip(row, uvs)) for row in inv)
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
        if not up_chain[size - 1] or up_chain[size]:
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
    for i, chain in enumerate(db.chain_upper):
        for m, up in enumerate(chain):
            for j, los in enumerate(db.chain_lower):
                for n, lo in enumerate(los):
                    val = g.form_value(up, lo)
                    if val != (GR_ONE if (i == j and m == n) else GR_ZERO):
                        raise AlgebraError(
                            "bases not dual: (chain_up[%d][%d]|chain_lo[%d][%d]) = %s"
                            % (i, m, j, n, val))


# ---------------------------------------------------------------------------
# tensor identities (exact checks on the dual bases)
# ---------------------------------------------------------------------------

def _tensor_sum(pairs):
    """sum s x (x) y over the (s, x, y) of pairs, s = +-1, as an element of
    g (x) g: ((a, b), GRat) pairs in increasing (a, b), no zeros."""
    return _combination((xa if s > 0 else -xa, [((a, b), yb) for b, yb in y])
                        for s, x, y in pairs for a, xa in x)


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
        for (j, n) in db.index_sets.get(-t, ()):
            sj = -1 if db.kind == "F" and g.parity_of_vec(db.lower[j]) else 1
            left_pairs.append((sj, db.chain_upper[j][n],
                               db.chain_lower_or_zero(j, n + 1)))
        right_pairs = [(-1, db.chain_lower_or_zero(i, m + 1),
                        db.chain_upper[i][m])
                       for (i, m) in db.index_sets.get(t - step, ())]
        if _tensor_sum(left_pairs) != _tensor_sum(right_pairs):
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
        coeffs = [[l, coeff_str(s)] for l, s in vec]
        obj["brackets"].append({"i": i, "j": j, "coeffs": coeffs})
    for tag in ("sl2", "osp"):
        triple = getattr(g, tag)
        if triple is not None:
            obj[tag] = {}
            for nm, vec in vars(triple).items():
                coeffs = dict(vec)   # the file writes a triple's vectors dense
                obj[tag][nm] = [coeff_str(coeffs.get(l, GR_ZERO))
                                for l in range(g.dim)]
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
            vec = []
            where = "bracket (%r, %r)" % (ent["i"], ent["j"])
            for pair in _file_list(ent["coeffs"], where + " coeffs"):
                if not (isinstance(pair, list) and len(pair) == 2):
                    raise AlgebraError("%s: coefficient %r is not an [index, "
                                       "value] pair" % (where, pair))
                l, cs = pair
                if not _in_range(l, dim):
                    raise AlgebraError("%s: coefficient index %r out of range 0..%d"
                                       % (where, l, dim - 1))
                vec.append((l, _file_coeff(cs, where)))
            struct[(ent["i"], ent["j"])] = vec
        form = [[_file_coeff(cs, "form row %d" % r)
                 for cs in _file_list(row, "form row %d" % r)]
                for r, row in enumerate(_file_list(obj["form"], "form"))]

        def vec_of(tag, triple, name):
            """A triple's vector, which the file writes dense."""
            where = "%s vector %s" % (tag, name)
            coeffs = [_file_coeff(cs, where)
                      for cs in _file_list(triple[name], where)]
            if len(coeffs) != dim:
                raise AlgebraError("%s has %d entries, expected %d"
                                   % (where, len(coeffs), dim))
            return enumerate(coeffs)

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
    import json
    with open(path, "w") as fh:
        json.dump(algebra_to_obj(g), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_algebra(path) -> LieSuperalgebra:
    # json loads with the first file read: the catalog algebras are read
    # from Python literals (catalog.get_algebra), so a catalog command
    # imports neither json nor the re and enum modules that it pulls in
    import json
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as e:
            raise AlgebraError("parse error in %s at line %d: %s"
                               % (path, e.lineno, e.msg))
        except UnicodeDecodeError as e:
            raise AlgebraError("cannot decode %s as UTF-8: %s" % (path, e.reason))
    return algebra_from_obj(obj)
