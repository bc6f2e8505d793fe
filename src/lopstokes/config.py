"""Centralized tolerances, scan grids, and run-configuration parsing.

Each decision has one owner here.  Every numeric threshold the library
applies lives in Tolerances, so the CLI and the tests share one set of
defaults; GridSpec, the one grid type, lays out the scan and class grids;
RunConfig holds the run defaults (fluid, sector, grids, seed, samples),
which the library functions take as arguments.  Run configurations are
JSON files, each block read through its dataclass: unknown keys are
rejected with their full path, so typos cannot silently fall back to
defaults, and the record validates itself.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from typing import TYPE_CHECKING, Any

from .errors import ConfigError, LopStokesError
from .params import FluidParams, Sector

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Tolerances",
    "GridSpec",
    "RunConfig",
    "load_config",
    "default_config",
    "SOLVE_MODES",
    "REFERENCE_PARAMS",
    "STRESS_PARAM_SETS",
    "MAX_GRID_POINTS",
]

# The most points a GridSpec may lay out.  No consumer holds a whole grid's
# point columns, only a run of at most a scan task's points (a scan task or
# a run of one height magnitude) or a class chunk at a time, so the bound
# checks the count and caps the scan CSV, a row per point (about 95 bytes,
# a gigabyte at 10^7 points).  It admits the default scan grid (190,333
# points) fifty times over, and turns an absurd density or angle count into
# a ConfigError (exit 65) before any work starts.
MAX_GRID_POINTS = 10**7


# Reference parameter set used by scans and the acceptance suite: distinct
# unit-scale densities, unit viscosities, unit surface tension.
REFERENCE_PARAMS = FluidParams(
    rho_plus=1.0, rho_minus=2.0, mu_plus=1.0, mu_minus=1.0, nu_plus=1.0, sigma=1.0
)

# Stress sets: extreme viscosity/density ratios and the sigma edge cases.
STRESS_PARAM_SETS: tuple[FluidParams, ...] = (
    FluidParams(1.0, 2.0, 1e-3, 1.0, 1e-3, 1.0),
    FluidParams(1.0, 2.0, 1e3, 1.0, 1e3, 1.0),
    FluidParams(1.0, 2.0, 1.0, 1e-3, 1.0, 1.0),
    FluidParams(1.0, 2.0, 1.0, 1e3, 1.0, 1.0),
    FluidParams(1e-3, 1.0, 1.0, 1.0, 1.0, 1.0),
    FluidParams(1e3, 1.0, 1.0, 1.0, 1.0, 1.0),
    FluidParams(1.0, 2.0, 1.0, 1.0, 1e3, 0.0),
    FluidParams(2.0, 1.0, 0.5, 2.0, 3.0, 10.0),
)


@dataclass(frozen=True)
class Tolerances:
    """Every threshold the library applies, in one record.

    scale() multiplies the acceptance-style residual thresholds by a factor,
    for the CLI --tolerance-scale; the convergence gates, the height levels,
    zero_mode, energy_quad_rel and decay_margin keep their values.
    """

    # boundary matrix
    asym_dev_at_100: float = 0.05

    # height symbol
    height_floor: float = 1e-3          # HeightCurve.cutoff acceptance level
    height_inv_rel: float = 1e-10       # HeightNotInvertible below rel*(|lam|+A)

    # multiplier classes
    class_drift: float = 2.0            # largest refined/base constant ratio

    # resolvent
    fuzz_residual: float = 1e-10
    energy_defect: float = 1e-10
    quadrature_cross: float = 1e-8
    energy_quad_rel: float = 1e-9       # energy quadrature error estimate, relative
    decay_margin: float = 1.0 + 1e-9    # fuzz decay ratio, |component| over its envelope

    # physical layer
    envelope_drift: float = 2.0
    zero_mode: float = 1e-12

    def scale(self, factor: float) -> "Tolerances":
        if factor <= 0 or not math.isfinite(factor):
            raise ConfigError(f"tolerance scale must be positive, got {factor!r}")
        scaled = {
            name: getattr(self, name) * factor
            for name in ("fuzz_residual", "energy_defect", "quadrature_cross",
                         "asym_dev_at_100")
        }
        return replace(self, **scaled)


@dataclass(frozen=True)
class GridSpec:
    """Log-magnitude x angle x log-magnitude scan grid.

    |lambda| runs log-spaced [lam_min, lam_max] at lam_per_decade points per
    decade; arg(lambda) takes n_angles values evenly spaced on
    [-(pi-eps), pi-eps] (odd n_angles keeps 0 and the half/extreme rays on the
    grid); A runs log-spaced [a_min, a_max] likewise.
    """

    lam_min: float = 1e-4
    lam_max: float = 1e8
    lam_per_decade: int = 10
    n_angles: int = 13
    a_min: float = 1e-4
    a_max: float = 1e8
    a_per_decade: int = 10

    def __post_init__(self) -> None:
        if self.lam_min <= 0 or self.lam_max <= self.lam_min:
            raise ConfigError("grid lambda range must satisfy 0 < lam_min < lam_max")
        if self.a_min <= 0 or self.a_max <= self.a_min:
            raise ConfigError("grid A range must satisfy 0 < a_min < a_max")
        if self.lam_per_decade < 1 or self.a_per_decade < 1 or self.n_angles < 3:
            raise ConfigError("grid density too low (need >=1/decade and >=3 angles)")
        # counted from logs: a huge density or angle count allocates nothing
        log_points = sum(map(math.log10, (
            _axis_len(self.lam_min, self.lam_max, self.lam_per_decade), self.n_angles,
            _axis_len(self.a_min, self.a_max, self.a_per_decade))))
        if log_points > math.log10(MAX_GRID_POINTS):
            raise ConfigError(f"grid has 10^{log_points:.2f} points, above the limit "
                              f"of {MAX_GRID_POINTS:,}")

    def lam_mags(self) -> np.ndarray:
        return _log_axis(self.lam_min, self.lam_max, self.lam_per_decade)

    def a_vals(self) -> np.ndarray:
        return _log_axis(self.a_min, self.a_max, self.a_per_decade)

    def angles(self, epsilon: float) -> np.ndarray:
        import numpy as np

        span = math.pi - epsilon
        return np.linspace(-span, span, self.n_angles)

    def points(self, epsilon: float, mags: np.ndarray | None = None,
               avals: np.ndarray | None = None,
               index: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(lam, a) of only the points at the flat indices index of the grid
        order (mag, angle, a); of the whole grid when index is None.

        mags and avals replace the grid's |lambda| and A values (lam_mags()
        and a_vals() by default), so a caller can lay out one magnitude, a
        floored list or an orbit image the same way.
        """
        import numpy as np

        mags = self.lam_mags() if mags is None else mags
        avals = self.a_vals() if avals is None else avals
        shape = (mags.size, self.n_angles, avals.size)
        index = np.arange(math.prod(shape)) if index is None else index
        m, j, k = np.unravel_index(index, shape)
        return mags[m] * np.exp(1j * self.angles(epsilon))[j], avals[k]


def _axis_len(lo: float, hi: float, per_decade: int):
    """Points on a log axis: an int, or inf where the count overflows a float."""
    span = math.log10(hi / lo) * per_decade
    return int(round(span)) + 1 if span < math.inf else math.inf


def _log_axis(lo: float, hi: float, per_decade: int) -> np.ndarray:
    import numpy as np

    return np.logspace(math.log10(lo), math.log10(hi), _axis_len(lo, hi, per_decade))


@dataclass(frozen=True)
class RunConfig:
    fluid: FluidParams = REFERENCE_PARAMS
    sector: Sector = Sector(epsilon=math.pi / 4)
    grid: GridSpec = GridSpec()
    # the multiplier-class grid, smaller than the scan grid: every point
    # costs a 12-coefficient Taylor jet of every claimed symbol
    class_grid: GridSpec = GridSpec(lam_max=1e6, lam_per_decade=3, n_angles=7,
                                    a_max=1e4, a_per_decade=3)
    seed: int = 20260817
    samples: int = 10000
    out_dir: str = "reports"
    solve: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must fit in an unsigned 64-bit value, got {self.seed}")
        if self.samples < 1:
            raise ConfigError(f"samples must be >= 1, got {self.samples}")


# The two boundary-data modes of a solve: the height H given, or the normal
# velocity d given and H recovered through lambda + K.
SOLVE_MODES = ("explicit-H", "kinematic")

_SOLVE_KEYS = {"lambda_re", "lambda_im", "mode", "x_levels", "box", "shape", "data"}


def _require_mapping(obj: Any, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object, got {type(obj).__name__}")
    return obj


def _check_keys(obj: dict, allowed, path: str) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {unknown}; allowed: {sorted(allowed)}")


def _number(v: Any, path: str, integer: bool = False):
    """v as a float, or as an int where the field is one; finite either way."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {v!r}")
    # json.loads accepts NaN and +-Infinity; a huge integer is no float either
    if not abs(v) <= sys.float_info.max:
        raise ConfigError(f"{path}: expected a finite number, got {v!r}")
    if integer:
        if isinstance(v, float) and not v.is_integer():
            raise ConfigError(f"{path}: expected an integer, got {v!r}")
        return int(v)
    return float(v)


def _record(current, doc: Any, path: str):
    """current with the fields doc sets, each read by its annotation; an
    error the record raises keeps its class and is prefixed with path."""
    doc = _require_mapping(doc, path)
    kinds = {f.name: f.type for f in fields(current)}
    _check_keys(doc, kinds, path)
    new = {}
    for key, v in doc.items():
        where = f"{path}.{key}"
        if is_dataclass(getattr(current, key)):
            new[key] = _record(getattr(current, key), v, where)
        elif key == "solve":
            new[key] = _solve(v, where)
        elif kinds[key] in ("str", str):
            if not isinstance(v, str):
                raise ConfigError(f"{where}: expected a string, got {v!r}")
            new[key] = v
        else:
            new[key] = _number(v, where, integer=kinds[key] in ("int", int))
    try:
        return replace(current, **new)
    except LopStokesError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _solve(doc: Any, path: str) -> dict:
    """The solve block as given, once each present value is checked."""
    doc = _require_mapping(doc, path)
    _check_keys(doc, _SOLVE_KEYS, path)
    for key, v in doc.items():
        where = f"{path}.{key}"
        if key in ("lambda_re", "lambda_im"):
            _number(v, where)
        elif key == "mode":
            if v not in SOLVE_MODES:
                raise ConfigError(f"{where}: expected one of {list(SOLVE_MODES)}, got {v!r}")
        elif not isinstance(v, list):
            raise ConfigError(f"{where}: expected a list, got {v!r}")
        elif key == "data":
            if not all(isinstance(x, str) for x in v):
                raise ConfigError(f"{where}: expected a list of strings, got {v!r}")
        else:
            for i, x in enumerate(v):
                x = _number(x, f"{where}[{i}]", integer=key == "shape")
                if key == "box" and not x > 0:
                    raise ConfigError(f"{where}[{i}]: expected a positive number, got {x!r}")
                if key == "x_levels" and not x >= 0:
                    raise ConfigError(f"{where}[{i}]: expected a number >= 0, got {x!r}")
    return dict(doc)


def default_config() -> RunConfig:
    return RunConfig()


def parse_config(doc: dict) -> RunConfig:
    """Build a RunConfig from a parsed JSON document, rejecting unknown keys."""
    return _record(RunConfig(), doc, "config")


def load_config(path: str) -> RunConfig:
    """Parse a JSON run configuration; errors carry line/column diagnostics,
    a file that is not UTF-8 or is nested too deeply is a ConfigError that
    names it, and every error of a record names the file and its key path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ConfigError(f"{path}: JSON nested too deeply") from exc
    try:
        return parse_config(doc)
    except LopStokesError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def config_document(cfg: RunConfig) -> dict:
    """Canonical JSON-ready document for hashing and report headers: every
    field but the output directory, which changes where, never what."""
    doc = asdict(cfg)
    del doc["out_dir"]
    return doc
