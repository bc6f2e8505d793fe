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
    pool          the process pool the multiplier classes, the
                  determinant scan and the verify fuzz run their tasks on,
                  as ordered maps
    config        run defaults (RunConfig), the one grid type (GridSpec),
                  tolerances and the config reader
    cli           the `lopstokes` command; every pass/fail gate

Every formula is array arithmetic over points; a single point is an array
of length one, run through the same code as any batch.  A product of two
complex operands takes a temporary only as its left operand, or is an
np.multiply call: numpy evaluates x * <temporary> as <temporary> * x on
large arrays, and the two differ in the last bit.  So no result depends on
the batch size.  The library measures; the commands judge.

Importing the package loads none of these modules: each exported name
(`from lopstokes import FluidParams`) imports its module on first use, so a
process compiles only the layers it reaches.  Importing `cli` loads only the
config, errors and params layers, and not numpy.
"""

import importlib

__version__ = "0.1.0"

# Each exported name and the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in (
        ("params", "FluidParams Sector"),
        ("symbols", "char_roots_batch"),
        ("lopatinski", "ScanReport asymptotic_report omega1 omega2 scan_lower_bound"),
        ("coefficients", "HeightCurve HeightScanReport SymbolKit height_curve "
                         "height_scan omega3 omega4_formula slope_limit"),
        ("resolvent", "FuzzReport Profile ProfileBatch assemble_batch fuzz_residuals "
                      "inner_product"),
        ("multiplier", "Claim MultiplierClassReport certify_table declared_claims"),
        ("transform", "DecayReport PhysicalField PhysicalSolution kernel_decay_check "
                      "solve_physical"),
        ("config", "REFERENCE_PARAMS STRESS_PARAM_SETS GridSpec RunConfig Tolerances "
                   "default_config load_config"),
        ("errors", "LopStokesError NonPositiveParameter EqualDensities OutOfSector "
                   "WrongSign SingularDetL NonPositiveOmega HeightNotInvertible "
                   "NoCutoffFound ZeroModeData QuadratureFailure ConfigError WorkerLost"),
    )
    for name in names.split()
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value         # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
