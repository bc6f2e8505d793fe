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
    params        fluid parameters and the resolvent sector
    symbols       characteristic roots and the divided-exponential kernel
    lopatinski    boundary matrix L, its cofactors, determinant scan,
                  asymptotic deviations
    coefficients  closed-form amplitudes, height symbol K, height curve
    resolvent     profile solutions, residuals, energy balance, fuzzing
    multiplier    anisotropic symbol-class certification
    transform     tangential FFT solves, kernel decay
    reports       deterministic CSV/JSON artifacts
    config        run defaults (RunConfig), the one grid type (GridSpec),
                  tolerances, the elision threshold and the config reader
    cli           the `lopstokes` command; every pass/fail gate

Every formula is array arithmetic over points; a single point is an array
of length one, run through the same code as any batch.  The library
measures; the commands judge.
"""

from .config import (
    REFERENCE_PARAMS,
    STRESS_PARAM_SETS,
    GridSpec,
    RunConfig,
    Tolerances,
    default_config,
    load_config,
)
from .errors import (
    ConfigError,
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
from .params import FluidParams, Sector
from .symbols import char_roots_batch, exp_diff_quot_batch
from .lopatinski import (
    ScanReport,
    asymptotic_report,
    omega1,
    omega2,
    scan_lower_bound,
)
from .coefficients import (
    HeightCurve,
    HeightScanReport,
    SymbolKit,
    height_curve,
    height_scan,
    omega3,
    omega4_formula,
    slope_limit,
)
from .resolvent import (
    FuzzReport,
    Profile,
    ProfileBatch,
    assemble_batch,
    fuzz_residuals,
    inner_product,
)
from .multiplier import (
    Claim,
    MultiplierClassReport,
    certify_table,
    declared_claims,
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
    "FluidParams", "Sector",
    "REFERENCE_PARAMS", "STRESS_PARAM_SETS",
    # symbols
    "char_roots_batch", "exp_diff_quot_batch",
    # lopatinski
    "ScanReport", "asymptotic_report", "omega1", "omega2", "scan_lower_bound",
    # coefficients
    "HeightCurve", "HeightScanReport", "SymbolKit", "height_curve", "height_scan",
    "omega3", "omega4_formula", "slope_limit",
    # resolvent
    "FuzzReport", "Profile", "ProfileBatch",
    "assemble_batch", "fuzz_residuals", "inner_product",
    # multiplier
    "Claim", "MultiplierClassReport", "certify_table", "declared_claims",
    # transform
    "DecayReport", "PhysicalField", "PhysicalSolution", "kernel_decay_check",
    "solve_physical",
    # config
    "GridSpec", "RunConfig", "Tolerances", "default_config",
    "load_config",
    # errors
    "LopStokesError", "NonPositiveParameter", "EqualDensities", "OutOfSector",
    "WrongSign", "SingularDetL", "NonPositiveOmega", "HeightNotInvertible",
    "NoCutoffFound", "GridTooCoarse", "ZeroModeData", "QuadratureFailure",
    "ConfigError",
]
