"""SUSY classical W-algebra W(g, f): the SUSY flavor of the reduction engine.

The construction is the one of wclassical in chi-bracket language: the
algebra is rebased onto the osp(1|2) chain basis, the variables are the
parity-flipped bar-variables a~ of weight 1/2 - grading, rho_S kills the
g_{>0} variables up to (f|.) constants, and generators are solved from the
ad_chi-invariance constraints with the closed chain-sum formula as
cross-check for the linear part. The closed bracket formula drops the
chain signs and carries an overall s(a). This module holds that flavor
record, the context constructor and the SUSY names of the shared
functions; the BRST route (brst module) provides the comparison
construction for the equivalence check.
"""

from __future__ import annotations

from .liealg import HALF, dual_bases_f
from .spva import SUSYBracketTable, susy_affine_table, susy_master_bracket
from .wclassical import (Flavor, ReductionContext, compare_closed_direct,
                         gamma_linear, membership_defects,
                         rewrite_in_generators, solve_all_generators,
                         solve_generator, w_bracket_closed, w_bracket_direct,
                         w_bracket_table)

# dual bases and master formula go through their module names, as in EVEN
SUSY = Flavor(
    name="chi", shift=HALF, bar=True, letter="r",
    prefix="t_", nilpotent="f", killed=lambda gr: gr > 0,
    dual_bases=lambda g, osp: dual_bases_f(g, osp),
    affine_table=susy_affine_table,
    master=lambda a, b, table: susy_master_bracket(a, b, table),
    table=SUSYBracketTable, signed_chains=False, signed_head=True)


class SUSYReductionContext(ReductionContext):
    flavor = SUSY

    def __init__(self, g, k=None):
        if g.osp is None:
            raise ValueError("algebra carries no osp(1|2) data")
        self.osp = g.osp
        super().__init__(g, g.osp, k)


gamma_S_linear = gamma_linear
susy_membership_defects = membership_defects
susy_rewrite_in_generators = rewrite_in_generators
susy_w_bracket_table = w_bracket_table
compare_susy_closed_direct = compare_closed_direct


# The SUSY names that the benchmark tracer times (wbench/tracer.py) are
# functions of their own, not aliases: the tracer wraps each traced name
# once, and would wrap an alias a second time under its other name.
def solve_susy_generator(ctx, j):
    return solve_generator(ctx, j)


def solve_all_susy_generators(ctx):
    return solve_all_generators(ctx)


def susy_w_bracket_direct(ctx, gens, i, j):
    return w_bracket_direct(ctx, gens, i, j)


def susy_w_bracket_closed(ctx, gens, a, b):
    return w_bracket_closed(ctx, gens, a, b)
