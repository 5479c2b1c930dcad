"""Exact symbolic engine for classical and SUSY W-algebra structures."""

from .scalars import GRat, Scalar
from .superpoly import Alphabet, SuperPoly
from .liealg import (LieSuperalgebra, OSPTriple, SL2Triple, dual_bases_F,
                     dual_bases_f, load_algebra, save_algebra,
                     validate_algebra)
from .catalog import CATALOG, get_algebra
from .pva import BracketTable, LambdaPoly, affine_table, check_jacobi, \
    check_skew, master_bracket
from .spva import (ChiPoly, SUSYBracketTable, reduce_to_pva,
                   susy_affine_table, susy_master_bracket)
from .wclassical import (ReductionContext, gamma_linear, solve_generator,
                         w_bracket_closed, w_bracket_direct)
from .swclassical import (SUSYReductionContext, solve_susy_generator,
                          susy_w_bracket_closed, susy_w_bracket_direct)
from .brst import build_complex, build_d, check_thm_5_9, cohomology_generators

__version__ = "0.1.0"
