"""Centralized tolerances, scan grids, and run-configuration parsing.

Each decision has one owner here.  Every numeric threshold the library
applies lives in Tolerances, so the CLI and the tests share one set of
defaults; GridSpec.points lays out every (|lambda|, arg lambda, A) scan
grid; RunConfig holds the run defaults (fluid, sector, grids, seed,
samples), which the library functions take as arguments;
ELISION_THRESHOLD bounds every chunked evaluation.  Run
configurations are JSON files; unknown keys are rejected with their full path
so typos cannot silently fall back to defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from typing import Any

import numpy as np

from .errors import ConfigError
from .params import FluidParams, Sector

__all__ = [
    "Tolerances",
    "GridSpec",
    "ClassGridSpec",
    "RunConfig",
    "load_config",
    "default_config",
    "REFERENCE_PARAMS",
    "STRESS_PARAM_SETS",
    "ELISION_THRESHOLD",
]

# numpy's temporary-elision threshold in complex128 values (256 KiB).  From
# that size on numpy evaluates x * <temporary> as the in-place
# temporary *= x, that is t * x, and complex multiply is not bitwise
# commutative: the last bit of an expression then depends on the array
# size.  A chunked evaluation reproduces the whole-grid bits only when every
# chunk array stays below this many values.
ELISION_THRESHOLD = 16384


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

    scale() multiplies the acceptance-style residual thresholds (not the
    internal algorithm switches) by a factor, for the CLI --tolerance-scale.
    """

    # boundary matrix
    asym_dev_at_100: float = 0.05

    # height symbol
    height_floor: float = 1e-3          # HeightCurve.cutoff acceptance level
    height_inv_rel: float = 1e-10       # HeightNotInvertible below rel*(|lam|+A)

    # multiplier classes
    class_drift: float = 2.0
    fd_step_rel: float = 1e-4
    noise_gate: float = 10.0

    # resolvent
    fuzz_residual: float = 1e-10
    energy_defect: float = 1e-10
    quadrature_cross: float = 1e-8
    energy_quad_rel: float = 1e-9

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

    def lam_mags(self) -> np.ndarray:
        decades = math.log10(self.lam_max / self.lam_min)
        n = int(round(decades * self.lam_per_decade)) + 1
        return np.logspace(math.log10(self.lam_min), math.log10(self.lam_max), n)

    def a_vals(self) -> np.ndarray:
        decades = math.log10(self.a_max / self.a_min)
        n = int(round(decades * self.a_per_decade)) + 1
        return np.logspace(math.log10(self.a_min), math.log10(self.a_max), n)

    def angles(self, epsilon: float) -> np.ndarray:
        span = math.pi - epsilon
        return np.linspace(-span, span, self.n_angles)

    def refined(self) -> "GridSpec":
        """Double the per-decade density (same ranges, same angle count + 12)."""
        return replace(
            self,
            lam_per_decade=2 * self.lam_per_decade,
            a_per_decade=2 * self.a_per_decade,
            n_angles=self.n_angles + 12,
        )

    def points(self, epsilon: float,
               mags: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Flattened (lam, a) arrays in deterministic order (mag, angle, a).

        mags replaces the grid's |lambda| values (lam_mags() by default), so
        a caller can lay out one magnitude or a floored list the same way.
        """
        mags = self.lam_mags() if mags is None else mags
        angs = self.angles(epsilon)
        avals = self.a_vals()
        lam = (mags[:, None] * np.exp(1j * angs)[None, :]).reshape(-1)
        lam_full = np.repeat(lam, avals.size)
        a_full = np.tile(avals, lam.size)
        return lam_full, a_full


@dataclass(frozen=True)
class ClassGridSpec(GridSpec):
    """Grid for multiplier-class estimation (dim-3 frequencies, two directions).

    Kept smaller than the scan grid: every point costs a full finite-difference
    stencil.  refined() doubles density and widens both ranges a decade per
    side, which is what exposes wrong-degree claims.
    """

    lam_min: float = 1e-4
    lam_max: float = 1e6
    lam_per_decade: int = 3
    n_angles: int = 7
    a_min: float = 1e-4
    a_max: float = 1e4
    a_per_decade: int = 3

    def refined(self) -> "ClassGridSpec":
        return ClassGridSpec(
            lam_min=self.lam_min / 10.0,
            lam_max=self.lam_max * 10.0,
            lam_per_decade=2 * self.lam_per_decade,
            n_angles=self.n_angles,
            a_min=self.a_min / 10.0,
            a_max=self.a_max * 10.0,
            a_per_decade=2 * self.a_per_decade,
        )


@dataclass(frozen=True)
class RunConfig:
    fluid: FluidParams = REFERENCE_PARAMS
    sector: Sector = Sector(epsilon=math.pi / 4)
    grid: GridSpec = GridSpec()
    class_grid: ClassGridSpec = ClassGridSpec()
    seed: int = 20260817
    samples: int = 10000
    out_dir: str = "reports"
    solve: dict = field(default_factory=dict)


_FLUID_KEYS = {"rho_plus", "rho_minus", "mu_plus", "mu_minus", "nu_plus", "sigma"}
_SECTOR_KEYS = {"epsilon"}
_GRID_KEYS = {"lam_min", "lam_max", "lam_per_decade", "n_angles", "a_min", "a_max", "a_per_decade"}
_SOLVE_KEYS = {"lambda_re", "lambda_im", "mode", "x_levels", "box", "shape", "data"}
_TOP_KEYS = {"fluid", "sector", "grid", "class_grid", "seed", "samples", "out_dir", "solve"}


def _require_mapping(obj: Any, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object, got {type(obj).__name__}")
    return obj


def _check_keys(obj: dict, allowed: set, path: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {unknown}; allowed: {sorted(allowed)}")


def _number(obj: dict, key: str, path: str, default: float, integer: bool = False):
    if key not in obj:
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number, got {v!r}")
    if integer:
        if float(v) != int(v):
            raise ConfigError(f"{path}.{key}: expected an integer, got {v!r}")
        return int(v)
    return float(v)


def default_config() -> RunConfig:
    return RunConfig()


def parse_config(doc: dict, base: RunConfig | None = None) -> RunConfig:
    """Build a RunConfig from a parsed JSON document, rejecting unknown keys."""
    base = base or default_config()
    doc = _require_mapping(doc, "config")
    _check_keys(doc, _TOP_KEYS, "config")

    fluid = base.fluid
    if "fluid" in doc:
        sub = _require_mapping(doc["fluid"], "config.fluid")
        _check_keys(sub, _FLUID_KEYS, "config.fluid")
        fluid = FluidParams(
            rho_plus=_number(sub, "rho_plus", "config.fluid", base.fluid.rho_plus),
            rho_minus=_number(sub, "rho_minus", "config.fluid", base.fluid.rho_minus),
            mu_plus=_number(sub, "mu_plus", "config.fluid", base.fluid.mu_plus),
            mu_minus=_number(sub, "mu_minus", "config.fluid", base.fluid.mu_minus),
            nu_plus=_number(sub, "nu_plus", "config.fluid", base.fluid.nu_plus),
            sigma=_number(sub, "sigma", "config.fluid", base.fluid.sigma),
        )

    sector = base.sector
    if "sector" in doc:
        sub = _require_mapping(doc["sector"], "config.sector")
        _check_keys(sub, _SECTOR_KEYS, "config.sector")
        sector = Sector(
            epsilon=_number(sub, "epsilon", "config.sector", base.sector.epsilon),
        )

    def grid_of(key: str, cls, current):
        if key not in doc:
            return current
        sub = _require_mapping(doc[key], f"config.{key}")
        _check_keys(sub, _GRID_KEYS, f"config.{key}")
        kw = {}
        for f in fields(cls):
            kw[f.name] = _number(
                sub, f.name, f"config.{key}", getattr(current, f.name),
                integer=f.name.endswith("per_decade") or f.name == "n_angles",
            )
        return cls(**kw)

    grid = grid_of("grid", GridSpec, base.grid)
    class_grid = grid_of("class_grid", ClassGridSpec, base.class_grid)

    solve = base.solve
    if "solve" in doc:
        sub = _require_mapping(doc["solve"], "config.solve")
        _check_keys(sub, _SOLVE_KEYS, "config.solve")
        solve = dict(sub)

    seed = _number(doc, "seed", "config", base.seed, integer=True)
    samples = _number(doc, "samples", "config", base.samples, integer=True)
    if seed < 0 or seed >= 2**64:
        raise ConfigError(f"config.seed: must fit in an unsigned 64-bit value, got {seed}")
    if samples < 1:
        raise ConfigError(f"config.samples: must be >= 1, got {samples}")
    out_dir = doc.get("out_dir", base.out_dir)
    if not isinstance(out_dir, str):
        raise ConfigError(f"config.out_dir: expected a string, got {out_dir!r}")

    return RunConfig(
        fluid=fluid, sector=sector, grid=grid, class_grid=class_grid,
        seed=seed, samples=samples, out_dir=out_dir, solve=solve,
    )


def load_config(path: str, base: RunConfig | None = None) -> RunConfig:
    """Parse a JSON run configuration; errors carry line/column diagnostics."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    try:
        return parse_config(doc, base=base)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def config_document(cfg: RunConfig) -> dict:
    """Canonical JSON-ready document for hashing and report headers."""
    return {
        "fluid": cfg.fluid.to_dict(),
        "sector": {"epsilon": cfg.sector.epsilon},
        "grid": {f.name: getattr(cfg.grid, f.name) for f in fields(GridSpec)},
        "class_grid": {f.name: getattr(cfg.class_grid, f.name) for f in fields(ClassGridSpec)},
        "seed": cfg.seed,
        "samples": cfg.samples,
        "solve": cfg.solve,
    }
