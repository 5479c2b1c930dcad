"""SUSY classical W-algebra W(g, f): the SUSY flavor of the reduction engine.

The construction is the one of wclassical in chi-bracket language: the
algebra is rebased onto the osp(1|2) chain basis, the variables are the
parity-flipped bar-variables a~ of weight 1/2 - grading, rho_S kills the
g_{>0} variables up to (f|.) constants, and generators are solved from the
ad_chi-invariance constraints with the closed chain-sum formula as
cross-check for the linear part. The closed bracket formula drops the
chain signs and carries an overall s(a). This module holds that flavor
record (with the osp(1|2) data as its triple and the chi master formula
and oracle as its evaluators) and the context class; every function of the
reduction is wclassical's, and the four SUSY-named wrappers below exist
only because the benchmark binds them. The BRST route (brst module)
provides the comparison construction for the equivalence check.
"""

from __future__ import annotations

from .liealg import HALF, dual_bases_f
from .spva import (SUSYBracketTable, susy_affine_table, susy_bracket_oracle,
                   susy_master_bracket)
from .wclassical import (Flavor, ReductionContext, solve_all_generators,
                         solve_generator, w_bracket_closed, w_bracket_direct)

# the traced functions go through their module names, as in EVEN
SUSY = Flavor(
    name="chi", triple="osp", shift=HALF, bar=True,
    letter="r", prefix="t_", nilpotent="f", killed=lambda gr: gr > 0,
    dual_bases=lambda g: dual_bases_f(g),
    affine_table=susy_affine_table,
    master=lambda a, b, table: susy_master_bracket(a, b, table),
    oracle=lambda a, b, table: susy_bracket_oracle(a, b, table),
    table=SUSYBracketTable, signed_chains=False, signed_head=True)


class SUSYReductionContext(ReductionContext):
    """The reduction context of W(g, f), over g's osp(1|2) data."""

    flavor = SUSY

    # A constructor of its own: the benchmark tracer times a class through
    # the __init__ in its own namespace and reports it missing without one.
    def __init__(self, g, k=None):
        super().__init__(g, k)


# The SUSY names that the benchmark (wbench/tracer.py, wbench/workloads.py)
# binds are functions of their own, not aliases: the tracer wraps each
# traced name once, and would wrap an alias a second time under its other
# name. They go when the benchmark stops binding them.
def solve_susy_generator(ctx, j):
    return solve_generator(ctx, j)


def solve_all_susy_generators(ctx):
    return solve_all_generators(ctx)


def susy_w_bracket_direct(ctx, gens, i, j):
    return w_bracket_direct(ctx, gens, i, j)


def susy_w_bracket_closed(ctx, gens, a, b):
    return w_bracket_closed(ctx, gens, a, b)
