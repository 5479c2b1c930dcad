"""Families tagged in the y field, against the routes they replaced.

pva.bracket_table brackets the columns of a row as one family (each member
at its own power of y), wclassical.ansatz_terms applies its image to
families of ansatz monomials, and BRSTDifferential.verify applies d_[0]
twice to the family of all variables of the complex. tests/helpers keeps the
per-pair, per-monomial and per-variable routes as references; every table,
generator and report must be equal to theirs, exactly."""

import os

import pytest

import helpers
from walgebras import brst, pva, wclassical
from walgebras.brst import (BRSTComplex, brst_bracket_table, build_d,
                            cohomology_generators)
from walgebras.liealg import HALF, load_algebra
from walgebras.pva import (_FAMILY, Lambda2Poly, LAMBDA, _tag, _untag,
                           bracket_oracle, bracket_table, master_bracket)
from walgebras.scalars import Scalar
from walgebras.spva import susy_bracket_oracle, susy_master_bracket
from walgebras.superpoly import FlavorError, SuperPoly, random_superpoly
from walgebras.swclassical import SUSYReductionContext
from walgebras.wclassical import (GeneratorError, ReductionContext,
                                  WGenerator, solve_all_generators,
                                  w_bracket_table)

SL4_FILE = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "wbench", "data", "sl4_principal.json")
ALGEBRAS = ["sl2", "sl3-principal", "sl3-minimal", "osp12", "sl21",
            "sl4-file", "sl32-principal"]


def _algebra(name):
    return load_algebra(SL4_FILE) if name == "sl4-file" \
        else helpers.algebra(name)


def _constructions(g, k):
    """Every generator and bracket table that the batched routes build for
    g at level k: per flavor the generators and the direct W table, and
    for an algebra with osp(1|2) data the complex's jtable, the H^0
    generators and their table, each over contexts of its own."""
    out = {}
    flavors = [ReductionContext] + ([SUSYReductionContext]
                                    if g.osp is not None else [])
    for make in flavors:
        ctx = make(g, k)
        gens = {w.index: w for w in solve_all_generators(ctx)}
        out[make.__name__, "generators"] = [w.value for w in gens.values()]
        out[make.__name__, "W table"] = w_bracket_table(ctx, gens)
    if g.osp is not None:
        cplx = BRSTComplex(SUSYReductionContext(g, k))
        diff = build_d(cplx, Scalar.imag())
        out["jtable"] = cplx.jtable
        es = cohomology_generators(cplx, diff)
        out["H0 generators"] = [e.value_J for e in es]
        out["H0 table"] = brst_bracket_table(cplx, diff, dict(enumerate(es)))
    return out


@pytest.mark.parametrize("level", [None, HALF], ids=["symbolic-k", "k=1/2"])
@pytest.mark.parametrize("name", ALGEBRAS)
def test_batched_routes_match_the_references(monkeypatch, name, level):
    """The direct W tables, jtable and H^0 table (pva.bracket_table) and
    every generator and H^0 solve (wclassical.ansatz_terms), in both
    flavors, equal those of the per-pair and per-monomial references. On
    sl(3|2) some ansatz has more monomials than a family holds, so its
    solve spans several families (the widest on the sl4 file, its weight-4
    generator's, has 101)."""
    g = _algebra(name)
    k = None if level is None else Scalar.rational(level)
    batched = _constructions(g, k)
    widest, tables = [0], [0]

    def terms(image, lead, monos):
        widest[0] = max(widest[0], len(monos))
        return helpers.monomial_ansatz_terms(image, lead, monos)

    def table(*args):
        tables[0] += 1
        return helpers.pairwise_bracket_table(*args)

    monkeypatch.setattr(wclassical, "ansatz_terms", terms)
    monkeypatch.setattr(wclassical, "bracket_table", table)
    monkeypatch.setattr(brst, "bracket_table", table)
    assert _constructions(g, k) == batched
    assert tables[0] == (4 if g.osp is not None else 1)
    assert (widest[0] > _FAMILY) == (name == "sl32-principal")


@pytest.mark.parametrize("name", ["sl3-principal", "sl21", "sl4-file"])
def test_small_families_change_nothing(monkeypatch, name):
    """With families of 3 members every table row, ansatz and d_[0]^2
    check spans several families, and every table, generator and report
    is the same as with families of 128."""
    g = _algebra(name)

    def built():
        out = _constructions(g, None)
        if g.osp is not None:
            out["d report"] = build_d(BRSTComplex(SUSYReductionContext(g)),
                                      Scalar.c()).verify()
        return out

    want = built()
    monkeypatch.setattr(pva, "_FAMILY", 3)
    assert built() == want


@pytest.mark.parametrize("make", [ReductionContext, SUSYReductionContext])
def test_corrupted_generator_raises_from_a_batched_row(monkeypatch, make):
    """A generator that is not canonical fails the rewrite of its row
    with the text the per-pair route gives."""
    ctx = make(helpers.algebra("sl21"))
    gens = {w.index: w for w in solve_all_generators(ctx)}
    w = gens[1]
    lead = SuperPoly.variable(ctx.alph, ctx.star_index[(1, 0)])
    gens[1] = WGenerator(1, w.value + (w.value - lead), w.weight)
    with pytest.raises(GeneratorError) as batched:
        w_bracket_table(ctx, gens)
    monkeypatch.setattr(wclassical, "bracket_table",
                        helpers.pairwise_bracket_table)
    with pytest.raises(GeneratorError) as pairwise:
        w_bracket_table(make(helpers.algebra("sl21")), gens)
    assert str(batched.value) == str(pairwise.value) == \
        "input not in W or generators not canonical"


@pytest.mark.parametrize("susy", [False, True], ids=["lambda", "chi"])
def test_oracle_refuses_a_family(susy):
    """The oracle reads tuple monomials, which drop the y field, so it
    refuses a family (a right argument tagged in the y field); the
    master formula's family table equals the per-pair oracle table."""
    import random
    rng = random.Random(7)
    if susy:
        _g, alph, table = helpers.susy_affine("osp12")
        master, oracle = susy_master_bracket, susy_bracket_oracle
    else:
        _g, alph, table = helpers.affine("sl2")
        master, oracle = master_bracket, bracket_oracle
    values = [random_superpoly(alph, rng, max_factors=2, terms=2)
              for _ in range(3)]
    values.append(SuperPoly.zero(alph))
    values.append(SuperPoly.variable(alph, 1, 1))
    want = helpers.pairwise_bracket_table(values, table, alph,
                                          lambda v: v, oracle)
    assert bracket_table(values, table, alph, lambda v: v, master) == want
    with pytest.raises(FlavorError):
        oracle(values[0], _tag(values), table)
    with pytest.raises(FlavorError):
        bracket_table(values, table, alph, lambda v: v, oracle)


def test_tag_refuses_what_a_family_cannot_hold():
    _g, alph, _table = helpers.affine("sl2")
    u = SuperPoly.variable(alph, 0)
    family = _tag([u, u * u])
    assert _untag(family) == {0: u, 1: u * u}
    with pytest.raises(FlavorError):
        _tag([family])
    with pytest.raises(FlavorError):
        _tag([u, family])
    with pytest.raises(FlavorError):
        _tag([Lambda2Poly(alph, LAMBDA, {(0, 0): u})])
    with pytest.raises(FlavorError):
        _tag([u, Lambda2Poly(alph, LAMBDA, {(0, 0): u})])
    with pytest.raises(ValueError):
        _tag([u] * (_FAMILY + 1))
    assert _untag(_tag([u] * _FAMILY)) == dict.fromkeys(range(_FAMILY), u)


@pytest.mark.parametrize("family", [128, 3])
@pytest.mark.parametrize("name", ["osp12", "sl21"])
def test_d_squared_report_matches_the_variable_loop(monkeypatch, name,
                                                    family):
    """verify applies d_[0] twice to the family of all variables (to
    several families when they hold 3 members each); with a d whose cubic
    ghost term is rescaled it names the same variables, in the same order,
    as the loop over the variables."""
    monkeypatch.setattr(pva, "_FAMILY", family)
    cplx = BRSTComplex(SUSYReductionContext(helpers.algebra(name)))
    diff = build_d(cplx, Scalar.c())
    assert diff.verify() == helpers.variablewise_d_squared_report(diff) == []
    ghosts = set(range(cplx.gdim, len(cplx.alph)))
    cubic = [mono for mono in diff.d.terms
             if sum(e for (t, _m), e in mono if t in ghosts) == 3]
    bad = build_d(cplx, Scalar.c())
    bad.d = bad.d + SuperPoly(cplx.alph, {cubic[0]: bad.d.terms[cubic[0]]})
    report = bad.verify()
    assert report == helpers.variablewise_d_squared_report(bad)
    assert len([line for line in report
                if line.startswith("d_[0]^2 != 0 on ")]) > 1
