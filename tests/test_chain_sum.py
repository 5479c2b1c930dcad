"""The closed chain sums of Thm 3.6 / Thm 6.5 (wclassical._chain_values and
_chain_heads, a path sum over chain members) against the chain-enumerating
reference in helpers, and the closed bracket route against the direct one
beyond the catalog."""

from fractions import Fraction

import pytest

import helpers
from walgebras.catalog import CATALOG
from walgebras.cli import main
from walgebras.liealg import (dual_bases_F, dual_bases_f, save_algebra,
                              validate_algebra)
from walgebras.swclassical import SUSYReductionContext
from walgebras.wclassical import (ReductionContext, compare_closed_direct,
                                  gamma_linear, solve_all_generators,
                                  w_bracket_closed, w_bracket_table)

HALF = Fraction(1, 2)


def assert_matches_enumeration(ctx, pairs=None):
    n = ctx.db.count()
    for j in range(n):
        assert gamma_linear(ctx, j) == helpers.chain_gamma_linear(ctx, j), j
    if pairs is None:
        pairs = [(a, b) for a in range(n) for b in range(n)]
    for a, b in pairs:
        # the closed route reads no generator values
        assert w_bracket_closed(ctx, None, a, b) == \
            helpers.chain_w_bracket_closed(ctx, a, b), (a, b)


@pytest.mark.parametrize("name", sorted(CATALOG) + ["sl4-principal"])
def test_path_sum_matches_chain_enumeration(name):
    g = helpers.sl4_principal() if name == "sl4-principal" else helpers.algebra(name)
    assert_matches_enumeration(ReductionContext(g))
    if g.osp is not None:
        assert_matches_enumeration(SUSYReductionContext(g))


def test_sl32_fixture():
    g = helpers.sl32_principal()
    assert g.dim == 24
    assert validate_algebra(g) == []
    assert sorted(dual_bases_F(g).spins, reverse=True) == \
        [2, 3 * HALF, 3 * HALF, 1, 1, HALF, HALF, 0]
    assert sorted(dual_bases_f(g).spins, reverse=True) == [2, 3 * HALF, 1, HALF]


def test_sl32_lambda_path_sum_matches_chain_enumeration():
    ctx = ReductionContext(helpers.sl32_principal())
    assert ctx.db.count() == 8
    assert_matches_enumeration(ctx)


def test_sl32_chi_path_sum_matches_chain_enumeration():
    # pair (0, 0) alone walks 36,000 chains; the pairs with spin sum at most 2
    # walk at most 500 each
    ctx = SUSYReductionContext(helpers.sl32_principal())
    spins = ctx.db.spins
    pairs = [(a, b) for a in range(4) for b in range(4) if spins[a] + spins[b] <= 2]
    assert len(pairs) == 6
    assert_matches_enumeration(ctx, pairs)


@pytest.mark.parametrize("name, susy", [("sl4-principal", False),
                                        ("sl32-principal", False),
                                        ("sl32-principal", True)])
def test_one_context_serves_every_closed_bracket(name, susy):
    """One context's chain constants, filled on first use, serve every
    closed bracket in reverse pair order and then every gamma_linear; each
    result equals that of a fresh context, and each kept triple equals the
    one computed from the two chain vectors."""
    g = helpers.algebra(name)
    cls = SUSYReductionContext if susy else ReductionContext
    ctx = cls(g)
    n = ctx.db.count()
    pairs = [(a, b) for a in range(n) for b in range(n)][::-1]
    shared = [w_bracket_closed(ctx, None, a, b) for a, b in pairs]
    for (a, b), got in zip(pairs, shared):
        assert got == w_bracket_closed(cls(g), None, a, b), (a, b)
    for j in range(n):
        assert gamma_linear(ctx, j) == gamma_linear(cls(g), j), j
    db = ctx.db
    for (x, y, y_upper), got in ctx._chain_constants.items():
        vx = db.chain_lower[ctx.members[x][0]][ctx.members[x][1]]
        chain = db.chain_upper if y_upper else db.chain_lower
        vy = chain[ctx.members[y][0]][ctx.members[y][1]]
        assert got == helpers.chain_constants(ctx, vx, vy), (x, y, y_upper)


def test_sl4_closed_route_matches_direct():
    ctx = ReductionContext(helpers.sl4_principal())
    gens = {w.index: w for w in solve_all_generators(ctx)}
    assert compare_closed_direct(ctx, gens, w_bracket_table(ctx, gens)) == []


def test_sl4_cli_closed_route(tmp_path, capsys):
    path = str(tmp_path / "sl4.json")
    save_algebra(helpers.sl4_principal(), path)
    assert main(["verify", "--algebra", path, "--suite", "thm-3-6"]) == 0
    assert "PASS thm-3-6" in capsys.readouterr().out
    tables = {}
    for route in ("direct", "closed"):
        assert main(["bracket-table", "--algebra", path, "--route", route]) == 0
        tables[route] = capsys.readouterr().out
    assert tables["closed"] == tables["direct"]
