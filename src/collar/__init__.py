"""Numerical laboratory for degenerate diffusion with Dirichlet collar data.

The package studies ``rho(x) du/dt = Lap[G(u)]`` on bounded 1-D and radial
domains: it solves collar-approximated problems implicitly, constructs and
certifies sub/supersolution barriers with explicit constant rules, and runs
duality-based uniqueness and boundary-attainment diagnostics.
"""

from .errors import (
    CollarError,
    ConfigError,
    ConfigParseError,
    DomainError,
    GeometryError,
    HypothesisError,
    LinearSolveError,
    ModelError,
    RangeError,
    RegimeError,
    ResolutionError,
    ShapeError,
    SolveError,
    SourceError,
    SpliceError,
    StepError,
)
from .geometry import (
    Domain,
    Grid,
    NodeClassification,
    build_grid,
    collar_decomposition,
)
from .models import (
    BoundaryData,
    DensityModel,
    H4Result,
    HypothesisReport,
    InitialData,
    Nonlinearity,
    PowerMajorant,
    build_nondegenerate_surrogate,
    check_hypotheses,
    global_bound,
    h4_integral,
)
from .barriers import (
    Barrier,
    BarrierConstants,
    BarrierParams,
    BoundaryPotential,
    MillerBarrier,
    ResidualReport,
    build_barrier,
    build_boundary_potential,
    build_miller_barrier,
    select_barrier_constants,
    select_localization_radius,
    verify_barrier_residual,
)
from .solver import (
    ApproxProblem,
    LimitDiagnostics,
    SolverScheme,
    SpaceTimeField,
    blend_initial_data,
    collar_cutoff,
    extract_limit_solution,
    flux_balance_defect,
    solve_eps_eta,
    solve_members,
    step_implicit,
)
from .analysis import (
    AttainmentReport,
    DualityPotential,
    OrderingVerdict,
    boundary_attainment,
    comparison_check,
    maximality_check,
    solve_duality_potential,
    uniqueness_functional,
    unit_bump_source,
)
from .config import ExperimentConfig, parse_config, parse_config_file
from .experiments import run_experiment

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
