"""Exact engine for gl(M|N) Gaudin Bethe-ansatz populations.

``__all__`` is the public API: what the command line, the README example
and the acceptance tests use.  Everything else is reached through its
submodule, for example ``gaudin.rational.order_at_place``.
"""

from .rational import Poly, RatFun, log_deriv, qq, wronskian, zero_pole_radical
from .skew import CompleteFactorization, DiffOp, OreFraction, ore_swap, refactor_to_parity, right_divide
from .weights import (
    ParitySequence,
    ProblemData,
    Weight,
    dominant,
    hook_weight,
    weight_at_infinity,
    weight_polys,
    weight_polys_by_swaps,
    weight_polys_from_collisions,
)
from .bethe import (
    BethePoint,
    bae_check_direct,
    eigenvalue_conservation,
    gaudin_eigenvalue,
    populate,
    site_eigenvalues,
    verify_r_invariance,
)
from .spaces import SuperFlag, flag_factorization, kernel_spaces, space_weight_polys, verify_operator_to_population
from .reps import (
    TensorSystem,
    check_lowering_bridge,
    gl11_module,
    gl11_nonpoly_report,
    gl11_spectrum_report,
    master_polynomial,
    singular_space,
    vector_rep,
    weight_function,
)

__all__ = [
    "BethePoint",
    "CompleteFactorization",
    "DiffOp",
    "OreFraction",
    "ParitySequence",
    "Poly",
    "ProblemData",
    "RatFun",
    "SuperFlag",
    "TensorSystem",
    "Weight",
    "bae_check_direct",
    "check_lowering_bridge",
    "dominant",
    "eigenvalue_conservation",
    "flag_factorization",
    "gaudin_eigenvalue",
    "gl11_module",
    "gl11_nonpoly_report",
    "gl11_spectrum_report",
    "hook_weight",
    "kernel_spaces",
    "log_deriv",
    "master_polynomial",
    "ore_swap",
    "populate",
    "qq",
    "refactor_to_parity",
    "right_divide",
    "singular_space",
    "site_eigenvalues",
    "space_weight_polys",
    "vector_rep",
    "verify_operator_to_population",
    "verify_r_invariance",
    "weight_at_infinity",
    "weight_function",
    "weight_polys",
    "weight_polys_by_swaps",
    "weight_polys_from_collisions",
    "wronskian",
    "zero_pole_radical",
]
__version__ = "0.1.0"
