"""Packed bracket values against their dict-of-SuperPoly reference.

A LambdaPoly or ChiPoly keeps sum_n x^n f_n as one flat dict whose keys
carry n in their x field, and a Jacobi defect keeps x^i y^j f_ij the same
way. helpers.DictValue keeps the operations as they were written on dicts
{n: SuperPoly}, and helpers.dict_oracle and helpers.dict_jacobi_defect
bracket through them alone. Every operation is compared with them on
seeded inputs over the lambda tables of the five catalog algebras and of
sl4-principal, and the chi tables of osp12 and sl21. A result must equal
the reference both coefficient by coefficient (its read-only `coeffs`
view) and as a value, against the value built from the reference's
coefficients, which holds only when its content was cancelled. The maps
that read a value whole (rename, packed_coefficients) are compared with
the same map applied to each coefficient.
"""

import copy
import pickle
import random

import pytest

import helpers
from helpers import DictValue
from walgebras import brst
from walgebras.catalog import get_algebra
from walgebras.pva import (BracketTable, Lambda2Poly, LambdaPoly, LeftBracket,
                           arrow_apply, bracket_oracle, jacobi_defect,
                           master_bracket)
from walgebras.scalars import GRat, Scalar
from walgebras.spva import CHI, ChiPoly
from walgebras.superpoly import (ExponentOverflowError, FlavorError,
                                 SuperPoly, random_superpoly)
from walgebras.swclassical import SUSYReductionContext
from walgebras.wclassical import ReductionContext

TABLES = [(name, False) for name in ("sl2", "sl3-principal", "sl3-minimal",
                                     "osp12", "sl21", "sl4-principal")]
TABLES += [("osp12", True), ("sl21", True)]
IDS = ["%s-%s" % (name, "chi" if susy else "lambda") for name, susy in TABLES]


def _table(name, susy):
    return (helpers.susy_affine if susy else helpers.affine)(name)[2]


def _same(got, want: DictValue):
    """got, a packed value, equals the reference want."""
    assert type(got).var is want.var
    assert got.coeffs == want.coeffs
    assert got == type(got)(want.alphabet, want.coeffs)


def _random_value(cls, alph, rng, top=3):
    """A seeded value with up to four powers of x up to top."""
    return cls(alph, {n: random_superpoly(alph, rng, max_factors=2, terms=2)
                      for n in rng.sample(range(top + 1),
                                          rng.randint(1, min(4, top + 1)))})


def _corrupted(t):
    """t with x^2 u_i u_j added to the entry (i, j), the first that pairs an
    odd generator if any, so that Jacobi fails on (u_i, u_j, u_i); and
    (i, j)."""
    alph = t.alphabet
    keys = sorted(t.entries)
    i, j = next((k for k in keys if alph.parities[k[0]] or alph.parities[k[1]]),
                keys[0])
    extra = SuperPoly.variable(alph, i) * SuperPoly.variable(alph, j)
    if not extra:   # an odd u_i = u_j squares to 0
        extra = SuperPoly.variable(alph, i)
    bad = type(t)(alph, {**t.entries, (i, j): t.entry(i, j) + t.value(
        alph, {2: extra})})
    return bad, i, j


def _mixed(alph, rng):
    """A seeded polynomial with terms of both parities when the alphabet has
    odd variables."""
    for _ in range(50):
        p = random_superpoly(alph, rng, max_factors=2, terms=3)
        if p.parity() is None:
            return p
    assert not any(alph.parities)
    return p


SCALARS = [Scalar.k(), Scalar.c(), Scalar.imag(),
           Scalar.rational(GRat(-2, 3)),
           Scalar.one().scale(GRat(1, 2)) + Scalar.k() * Scalar.imag()]


@pytest.mark.parametrize("name, susy", TABLES, ids=IDS)
def test_value_arithmetic_matches_dict_reference(name, susy):
    """+, -, negation, scalar_mul (k, c, i, a rational and a two-term
    scalar), mul_left of a mixed-parity polynomial, mul_right, shift,
    (x + d)^0..4 and flip, on seeded values."""
    t = _table(name, susy)
    alph, cls = t.alphabet, t.value
    rng = random.Random("values:%s:%d" % (name, susy))
    for _ in range(3):
        u, v = (_random_value(cls, alph, rng) for _ in range(2))
        du, dv = DictValue.of(u), DictValue.of(v)
        _same(u + v, du + dv)
        _same(u - v, du - dv)
        _same(-u, -du)
        assert not u - u and u + (-u) == cls.zero(alph)
        for s in SCALARS:
            _same(u.scalar_mul(s), du.scalar_mul(s))
        mixed = _mixed(alph, rng)
        _same(u.mul_left(mixed), du.mul_left(mixed))
        _same(u.mul_right(mixed), du.mul_right(mixed))
        _same(u.shift(), du.shift())
        _same(u.shift(5), du.shift(5))
        for times in range(5):
            _same(u.apply_plus_d(times), du.apply_plus_d(times))
        _same(u.flip(), du.flip())
        assert u.flip().flip() == u   # (-x-d) undone by itself


@pytest.mark.parametrize("name, susy", TABLES, ids=IDS)
def test_arrow_and_at_zero_match_dict_reference(name, susy):
    """arrow_apply of table entries and of seeded values on a seeded tail,
    for both parities q, and LeftBracket.at_zero against the x^0
    coefficient of the dict oracle; the master formula equals that oracle
    whole."""
    t = _table(name, susy)
    alph, cls = t.alphabet, t.value
    rng = random.Random("arrow:%s:%d" % (name, susy))
    keys = sorted(t.entries)
    for _ in range(3):
        tail = _random_value(cls, alph, rng, top=2)
        for bracket in (t.entries[rng.choice(keys)], _random_value(cls, alph, rng)):
            for q in (0, 1):
                _same(arrow_apply(bracket, tail, q),
                      helpers.dict_arrow_apply(DictValue.of(bracket),
                                               DictValue.of(tail), q))
        f, g = (random_superpoly(alph, rng, max_factors=2, terms=2)
                for _ in range(2))
        want = helpers.dict_oracle(f, g, t)
        _same(master_bracket(f, g, t), want)
        assert LeftBracket(f, t).at_zero(g) == want.coeffs.get(
            0, SuperPoly.zero(alph))


@pytest.mark.parametrize("name, susy", TABLES, ids=IDS)
def test_jacobi_value_matches_dict_reference(name, susy):
    """The Jacobi defect, on the table and on it with one entry changed so
    that it is not zero, equals the dict reference: the outer brackets'
    x powers land in the right x and y fields with their signs and
    binomials. On the changed table, which is no PVA, the master formula
    and the oracle differ, so both sides bracket by the oracle (pva's on
    packed values, the dict oracle on dict values)."""
    t = _table(name, susy)
    alph = t.alphabet
    bad, i, j = _corrupted(t)
    rng = random.Random("jacobi:%s:%d" % (name, susy))
    nonzero = 0
    vi, vj = SuperPoly.variable(alph, i), SuperPoly.variable(alph, j)
    for a, b, c in [(vi, vj, vi), (vj, vi, vj)] + [
            tuple(random_superpoly(alph, rng, max_factors=1, terms=2) + v
                  for v in (vi, vj, vi)) for _ in range(2)]:
        for table in (t, bad):
            got = jacobi_defect(a, b, c, table, bracket_oracle)
            want = helpers.dict_jacobi_defect(a, b, c, table)
            assert got.coeffs == want
            assert got == Lambda2Poly(alph, table.value.var, want)
            nonzero += bool(got)
    assert nonzero


def test_powers_past_127_raise():
    """An x or y power past 127 raises ExponentOverflowError at every write
    of those fields: shift to 127 and then (x + d), a shift or a value
    built past it, and a Jacobi binomial (i + t past 127 in the second
    term); a negative power raises too."""
    g, alph, t = helpers.affine("sl2")
    u = SuperPoly.variable(alph, 0)
    top = LambdaPoly.of(u).shift(127)
    assert top.coeffs == {127: u}
    with pytest.raises(ExponentOverflowError):
        top.apply_plus_d()
    with pytest.raises(ExponentOverflowError):
        top.shift()
    with pytest.raises(ExponentOverflowError):
        LambdaPoly.of(u).shift(128)
    with pytest.raises(ExponentOverflowError):
        LambdaPoly(alph, {128: u})
    with pytest.raises(ExponentOverflowError):
        LambdaPoly(alph, {-1: u})
    with pytest.raises(ExponentOverflowError):
        Lambda2Poly(alph, LambdaPoly.var, {(0, 128): u})
    # [u_x u] = x^127 u: the second Jacobi term puts x^127 (x+y)^127 u u
    tall = BracketTable(alph, {(0, 0): LambdaPoly(alph, {127: u})})
    assert master_bracket(u, u, tall).coeffs == {127: u}
    with pytest.raises(ExponentOverflowError):
        jacobi_defect(u, u, u, tall)


@pytest.mark.parametrize("susy", [False, True], ids=["lambda", "chi"])
def test_values_and_tables_round_trip(susy):
    """Copies and pickles of values, of Jacobi defects and of tables are
    equal to the original and render the same; they are built again from
    the coeffs view, as slots are given per process."""
    t = _table("sl21", susy)
    alph, cls = t.alphabet, t.value
    rng = random.Random(7)
    values = [_random_value(cls, alph, rng) for _ in range(3)]
    values += [cls.zero(alph), t.entries[min(t.entries)]]
    for v in values:
        for other in (copy.copy(v), copy.deepcopy(v),
                      pickle.loads(pickle.dumps(v))):
            assert type(other) is cls and other == v
            assert other.render() == v.render() and other.coeffs == v.coeffs
    bad, i, j = _corrupted(t)
    vi, vj = SuperPoly.variable(alph, i), SuperPoly.variable(alph, j)
    jac = jacobi_defect(vi, vj, vi, bad) or jacobi_defect(vi, vj, vj, bad)
    assert jac and copy.deepcopy(jac) == jac
    assert copy.deepcopy(jac).render() == jac.render()
    for other in (copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert other == t and other.to_obj() == t.to_obj()


def test_values_are_read_only():
    """No value can be changed through its coefficients: item assignment on
    the coeffs view of a LambdaPoly, a ChiPoly, a Lambda2Poly and a table
    entry raises TypeError, and the entry keeps its value."""
    ctx = ReductionContext(get_algebra("sl2"))
    entry = ctx.table.entry(0, 2)
    before = entry.render()
    g, salph, st = helpers.susy_affine("osp12")
    alph = ctx.alph
    one = SuperPoly.one(alph)
    values = [entry, LambdaPoly(alph, {0: one}), ChiPoly(salph, {1: SuperPoly.one(salph)}),
              Lambda2Poly(alph, LambdaPoly.var, {(1, 2): one})]
    for v in values:
        with pytest.raises(TypeError):
            v.coeffs[5] = SuperPoly.one(v.alphabet)
        with pytest.raises(TypeError):
            del v.coeffs[next(iter(v.coeffs))]
    assert entry.render() == before == ctx.table.entry(0, 2).render()
    assert 5 not in entry.coeffs


def test_values_refuse_foreign_alphabets():
    """A value's alphabet has its indeterminate's flavor, and its
    coefficients and operands are over that alphabet."""
    g, alph, t = helpers.affine("osp12")
    g, salph, st = helpers.susy_affine("osp12")
    with pytest.raises(FlavorError):
        LambdaPoly(salph, {0: SuperPoly.one(salph)})
    with pytest.raises(FlavorError):
        ChiPoly.of(SuperPoly.one(alph))
    with pytest.raises(FlavorError):
        LambdaPoly(alph, {0: SuperPoly.one(helpers.affine("sl2")[1])})
    with pytest.raises(FlavorError):
        LambdaPoly.of(SuperPoly.one(alph)).mul_left(
            SuperPoly.one(helpers.affine("sl2")[1]))


def test_sums_refuse_other_classes_and_equal_values_hash_equal():
    """A sum or a difference of a bracket value and an operand of another
    class (a polynomial, a Jacobi defect, a number, a value in the other
    indeterminate) raises TypeError from either side, and does not read
    the operand's numerators as a value's; equal values hash equal."""
    ctx = ReductionContext(get_algebra("sl2"))
    entry = ctx.table.entry(0, 2)
    one = SuperPoly.one(ctx.alph)
    two = Lambda2Poly(ctx.alph, LambdaPoly.var, {(1, 2): one})
    g, salph, st = helpers.susy_affine("osp12")
    chi = ChiPoly(salph, {1: SuperPoly.one(salph)})
    for a, b in [(entry, one), (entry, two), (entry, 1), (entry, chi),
                 (one, two), (one, 1), (two, 1)]:
        for x, y in ((a, b), (b, a)):
            for op in (lambda: x + y, lambda: x - y):
                with pytest.raises(TypeError) as err:
                    op()
                assert type(err.value) is TypeError   # not a FlavorError
    twin = ReductionContext(get_algebra("sl2")).table.entry(0, 2)
    assert twin == entry and hash(twin) == hash(entry)
    assert {entry: 1}[pickle.loads(pickle.dumps(entry))] == 1
    rng = random.Random("hash")
    for v in (_random_value(LambdaPoly, ctx.alph, rng),
              _random_value(ChiPoly, salph, rng), two,
              LambdaPoly.zero(ctx.alph), chi):
        w = v + v - v
        assert w == v and w is not v and hash(w) == hash(v)
        assert hash(copy.deepcopy(v)) == hash(v)
    assert len({entry, twin, -entry, -(-entry)}) == 2


def test_lambda2poly_refuses_an_alphabet_of_the_other_flavor():
    """A Jacobi-defect value, like a LambdaPoly or a ChiPoly, needs an
    alphabet of its indeterminate's flavor; so the alphabet fixes the
    indeterminate, and equality need not read it."""
    alph = ReductionContext(get_algebra("sl2")).alph
    g, salph, st = helpers.susy_affine("osp12")
    with pytest.raises(FlavorError):
        Lambda2Poly(alph, CHI, {(1, 1): SuperPoly.one(alph)})
    with pytest.raises(FlavorError):
        Lambda2Poly(alph, CHI)
    with pytest.raises(FlavorError):
        Lambda2Poly(salph, LambdaPoly.var, {(0, 1): SuperPoly.one(salph)})
    assert Lambda2Poly(salph, CHI, {(1, 1): SuperPoly.one(salph)}).render() \
        == "χ*γ*1"


def _per_coefficient(value, alph, f):
    """The value over alph whose coefficients are f of those of value."""
    return type(value)(alph, {n: f(p) for n, p in value.coeffs.items()})


@pytest.mark.parametrize("name", ["sl2", "sl3-principal", "sl3-minimal",
                                  "osp12", "sl21"])
def test_whole_value_maps_match_each_coefficient(name):
    """rename and packed_coefficients of a whole bracket value, in both
    flavors where the algebra carries both triples, equal the same map on
    each coefficient: rho, the symbols projection and the i-twist against
    their substitution references (helpers), and packed_coefficients
    against those of each coefficient, whose m gains n in the x field (the
    low byte of m). On every entry of the context's affine table and on
    seeded values; each result equals the reference coefficient by
    coefficient and as a value."""
    g = get_algebra(name)
    contexts = [ReductionContext(g)]
    if g.osp is not None:
        contexts.append(SUSYReductionContext(g))
    rng = random.Random("whole:" + name)
    for ctx in contexts:
        alph, cls = ctx.alph, ctx.table.value
        parities = ctx.gstar.parities
        twist, memos = brst._i_twist(parities), {}
        values = list(ctx.table.entries.values())
        values += [_random_value(cls, alph, rng) for _ in range(4)]
        for v in values:
            for got, want in [
                    (ctx.rho(v), _per_coefficient(
                        v, alph, lambda p: helpers.rho_by_substitution(ctx, p))),
                    (ctx.symbols(v, ctx.gen_alph), _per_coefficient(
                        v, ctx.gen_alph, lambda p: helpers.symbols_by_substitution(
                            ctx, p, ctx.gen_alph))),
                    (v.rename(twist, alph, memos), _per_coefficient(
                        v, alph, lambda p: helpers.twist_by_substitution(
                            p, alph, parities)))]:
                assert type(got) is cls and got.coeffs == want.coeffs
                assert got == want
            whole = {(m, kp, cp): c for m, kp, cp, c in v.packed_coefficients()}
            assert len(whole) == sum(1 for _ in v.packed_coefficients())
            assert whole == {(m + n, kp, cp): c
                             for n, p in v.coeffs.items()
                             for m, kp, cp, c in p.packed_coefficients()}
