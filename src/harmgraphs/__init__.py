"""Exact harmonic functions on multiplicative graded graphs.

Public surface: partitions and the four graphs, closed-form harmonic
families with exact harmonicity/normalization checks, the interpolation
polynomial evaluators behind them, and the finite-face boundary
machinery (densities, exact Selberg-type integrals, extreme kernels,
convergence experiments).
"""

from .exact import (
    RationalMatrix,
    ShapeError,
    SingularMatrixError,
    as_rational,
    det,
    format_rational,
    parse_rational,
    pfaffian,
    pochhammer,
    solve_linear,
)
from .partitions import FrobeniusCoords, Partition, partitions_of
from .graphs import (
    GraphKind,
    KINGMAN,
    SCHUR,
    YOUNG,
    covers_up,
    dim,
    dim_closed_form,
    edge_multiplicity,
    jack,
    level,
    sweep,
)
from .interp import (
    FunctionalSpec,
    apply_functional,
    express_in_generator_basis,
    factorial_monomial_eval,
    gauss_2f1_check,
    jacobi_trudi,
    monomial_eval,
    pstar_eval,
    pstar_one_row_values,
    schur_eval,
    shifted_schur_eval,
    super_h_star_values,
)
from .harmonic import (
    FamilyError,
    GammaShaped,
    HarmonicFamily,
    JackZZ,
    KingmanTA,
    SchurT,
    TruncKingman,
    TruncSchur,
    TruncYoung,
    YoungZZ,
    check_harmonicity,
    lattice_bound_approx,
    level_measure,
    parse_family,
)
from .boundary import (
    DensitySpec,
    ThomaPoint,
    convergence_experiment,
    density_spec,
    kingman_kernel,
    selberg_verify,
    young_kernel,
)

__version__ = "0.1.0"

# the names imported above from the package's modules
__all__ = [
    name for name, value in globals().items() if getattr(value, "__module__", "").startswith(f"{__name__}.")
]
