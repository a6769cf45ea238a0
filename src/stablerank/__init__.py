"""Exact stable-rank computations for tensors.

Sparse exact tensors and their supports, an exact rational LP solver with
primal-dual certificates, support-level rank and slice-cover computations,
and the cap-set upper-bound pipeline.  This namespace is the exact core and
runs on the standard library.  The double-precision lower bounds for complex
tensors live in ``stablerank.complexrank``, the one module that imports numpy.
"""

from .capset import (
    THETA,
    CapsetLPResult,
    ConjectureReport,
    asymptotic_report,
    capset_bound,
    conjectured_t,
    eg_bound,
    eg_prime_bound,
    full_capset_lp,
    reduced_lp,
    trinomial,
    verify_conjecture,
)
from .lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    LPSizeError,
    LPSolution,
    solve,
    verify_certificate,
)
from .ranks import (
    MatrixTuple,
    SliceLimitError,
    SubspaceLimitError,
    TRankResult,
    TSliceResult,
    build_lp,
    dual_trank,
    grank_upper_search,
    matrix_tuple_tensor,
    ncrk_bruteforce,
    ncrk_via_grank,
    trank,
    tslice,
)
from .tensors import (
    RATIONAL,
    SparseTensor,
    Support,
    as_weight,
    boxplus,
    boxtimes,
    mod_domain,
    mode_transform,
    modulus_of,
    ones_weight,
    outer,
    psg_slope,
    support_of,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
