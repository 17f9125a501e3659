"""Exact engine for gl(M|N) Gaudin Bethe-ansatz populations."""

from .rational import (
    Poly,
    Q,
    RatFun,
    log_deriv,
    order_at,
    order_at_place,
    poly_gcd,
    qq,
    radical,
    rational_antiderivative,
    wronskian,
    zero_pole_radical,
)
from .linalg import solve_linear
from .skew import (
    CompleteFactorization,
    DiffOp,
    OreFraction,
    common_right_multiple,
    ore_swap,
    rational_kernel,
    refactor_to_parity,
    right_divide,
    right_gcd,
)
from .weights import (
    ParitySequence,
    ProblemData,
    Weight,
    cartan_pairing,
    collision_poly,
    dominant,
    hook_weight,
    swap_coords,
    typical_sequence,
    weight_at_infinity,
    weight_polys,
    weight_polys_by_swaps,
    weight_polys_from_collisions,
)
from .bethe import (
    BethePoint,
    Population,
    ReproductionFamily,
    bae_check_criterion,
    bae_check_direct,
    bosonic_reproduce,
    eigenvalue_conservation,
    fermionic_reproduce,
    gaudin_eigenvalue,
    gaudin_eigenvalues,
    admissible_sites,
    genericity_check,
    populate,
    population_factorization,
    population_operator,
    site_eigenvalues,
    verify_r_invariance,
)
from .spaces import (
    RationalSpace,
    SuperFlag,
    exponents,
    flag_factorization,
    flag_from_factorization,
    flag_polynomial,
    generating_map,
    generating_tuple,
    interleave_basis,
    is_gl_space,
    kernel_spaces,
    space_weight_polys,
    verify_operator_to_population,
)
from .reps import (
    SuperModule,
    TensorSystem,
    check_lowering_bridge,
    gl11_module,
    gl11_nonpoly_report,
    gl11_spectrum_report,
    master_polynomial,
    monic_divisors,
    singular_space,
    vector_rep,
    weight_function,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
