"""Explicit resolvent theory for a two-phase Stokes half-space interface
model, with numerical certification of every bound it rests on.

The upper fluid (x_N > 0) is compressible, the lower (x_N < 0)
incompressible; a partial Fourier transform in the tangential variables
reduces the resolvent problem at each (lambda, xi') to boundary-value ODEs
in x_N that this package solves in closed form.  On top of the solution
formulas sit the certification layers: a lower-bound scan of the boundary
determinant, invertibility of the height symbol lambda + K, symbol-class
estimates for the solution-operator multipliers, and FFT reconstruction of
physical-space fields with residual checks.

Module map
    params        fluid parameters, sector, spectral points
    symbols       characteristic roots and the exponential kernels
    lopatinski    boundary matrix L, its cofactors, determinant bounds,
                  asymptotics; one formula set for scalars and arrays
    coefficients  closed-form amplitudes, height symbol K, height curve
    resolvent     profile solutions, residuals, energy balance, fuzzing
    multiplier    anisotropic symbol-class certification
    transform     tangential FFT solves, kernel decay
    reports       deterministic CSV/JSON artifacts
    config        run configuration and tolerances
    cli           the `lopstokes` command
"""

from .config import (
    REFERENCE_PARAMS,
    STRESS_PARAM_SETS,
    ClassGridSpec,
    GridSpec,
    RunConfig,
    Tolerances,
    default_config,
    load_config,
)
from .errors import (
    AsymptoticMismatch,
    ConfigError,
    EnvelopeUnbounded,
    EqualDensities,
    GridTooCoarse,
    HeightNotInvertible,
    LopStokesError,
    NoCutoffFound,
    NonPositiveOmega,
    NonPositiveParameter,
    OutOfSector,
    QuadratureFailure,
    SingularDetL,
    WrongSign,
    ZeroModeData,
)
from .params import FluidParams, Sector, SpectralPoint
from .symbols import (
    CharRoots,
    char_roots,
    exp_diff_quot,
    stokes_kernel_minus,
    stokes_kernel_plus,
)
from .lopatinski import (
    LopatinskiMatrix,
    ScanReport,
    assemble,
    asymptotic_report,
    omega1,
    omega2,
    scan_lower_bound,
)
from .coefficients import (
    BetaSolution,
    CoefficientSet,
    HeightCurve,
    HeightScanReport,
    coefficient_symbols,
    height_curve,
    height_scan,
    omega3,
    omega4_formula,
    slope_limit,
    solve_betas,
)
from .resolvent import (
    BoundaryData,
    EnergyReport,
    FuzzReport,
    InterfaceResiduals,
    Profile,
    ProfileSolution,
    assemble_profiles,
    energy_balance,
    fuzz_residuals,
    inner_product,
    interface_residual,
    ode_residual,
)
from .multiplier import (
    Claim,
    MultiplierClassReport,
    certify_table,
    declared_claims,
    estimate_class,
)
from .transform import (
    DecayReport,
    PhysicalField,
    PhysicalSolution,
    kernel_decay_check,
    solve_physical,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # params
    "FluidParams", "Sector", "SpectralPoint",
    "REFERENCE_PARAMS", "STRESS_PARAM_SETS",
    # symbols
    "CharRoots", "char_roots", "exp_diff_quot",
    "stokes_kernel_plus", "stokes_kernel_minus",
    # lopatinski
    "LopatinskiMatrix", "ScanReport", "assemble", "asymptotic_report",
    "omega1", "omega2", "scan_lower_bound",
    # coefficients
    "BetaSolution", "CoefficientSet", "HeightCurve", "HeightScanReport",
    "coefficient_symbols", "height_curve", "height_scan",
    "omega3", "omega4_formula", "slope_limit", "solve_betas",
    # resolvent
    "BoundaryData", "EnergyReport", "FuzzReport", "InterfaceResiduals",
    "Profile", "ProfileSolution", "assemble_profiles", "energy_balance",
    "fuzz_residuals", "inner_product", "interface_residual", "ode_residual",
    # multiplier
    "Claim", "MultiplierClassReport", "certify_table", "declared_claims",
    "estimate_class",
    # transform
    "DecayReport", "PhysicalField", "PhysicalSolution", "kernel_decay_check",
    "solve_physical",
    # config
    "ClassGridSpec", "GridSpec", "RunConfig", "Tolerances", "default_config",
    "load_config",
    # errors
    "LopStokesError", "NonPositiveParameter", "EqualDensities", "OutOfSector",
    "WrongSign", "SingularDetL", "NonPositiveOmega", "AsymptoticMismatch",
    "HeightNotInvertible", "NoCutoffFound", "GridTooCoarse", "ZeroModeData",
    "QuadratureFailure", "EnvelopeUnbounded", "ConfigError",
]
