"""Parameter records and admissibility checks.

The model couples a compressible phase on the upper half-space x_N > 0
(density rho_plus, shear viscosity mu_plus, second viscosity nu_plus) to an
incompressible phase on x_N < 0 (rho_minus, mu_minus), with surface tension
sigma on the flat interface x_N = 0.  Resolvent parameters live in the sector
|arg(lambda)| <= pi - epsilon, lambda != 0.  Tangential frequencies xi' never
vanish; A = |xi'|.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from dataclasses import dataclass

from .errors import EqualDensities, NonPositiveParameter, OutOfSector

__all__ = ["FluidParams", "Sector", "validate_params", "first_offender"]


@dataclass(frozen=True)
class FluidParams:
    """Physical constants of the two phases.

    sigma_plus/sigma_minus are the density-weighted surface-tension
    coefficients rho_pm * sigma / (rho_minus - rho_plus) that enter the
    normal-stress conditions; they may be negative when rho_minus < rho_plus.
    """

    rho_plus: float
    rho_minus: float
    mu_plus: float
    mu_minus: float
    nu_plus: float
    sigma: float = 1.0

    def __post_init__(self) -> None:
        validate_params(self)

    @property
    def sigma_plus(self) -> float:
        return self.rho_plus * self.sigma / (self.rho_minus - self.rho_plus)

    @property
    def sigma_minus(self) -> float:
        return self.rho_minus * self.sigma / (self.rho_minus - self.rho_plus)

    def to_dict(self) -> dict[str, float]:
        """The six constants by field name, as reports and config hashes record them."""
        return dataclasses.asdict(self)


def validate_params(p: FluidParams) -> None:
    """Raise NonPositiveParameter / EqualDensities on inadmissible constants."""
    for name in ("rho_plus", "rho_minus", "mu_plus", "mu_minus", "nu_plus"):
        value = getattr(p, name)
        if not (value > 0.0) or not math.isfinite(value):
            raise NonPositiveParameter(f"{name} must be positive and finite, got {value!r}")
    if not (p.sigma >= 0.0) or not math.isfinite(p.sigma):
        raise NonPositiveParameter(f"sigma must be >= 0 and finite, got {p.sigma!r}")
    if p.rho_plus == p.rho_minus:
        raise EqualDensities(
            f"rho_plus == rho_minus == {p.rho_plus!r}: surface-tension weights are undefined"
        )


@dataclass(frozen=True)
class Sector:
    """Resolvent sector |arg(lambda)| <= pi - epsilon, lambda != 0.

    epsilon is restricted to (0, pi/2]: the estimates degrade as epsilon -> 0
    and the model is never used beyond a right-half-plane-plus margin.
    """

    epsilon: float

    def __post_init__(self) -> None:
        if not (0.0 < self.epsilon <= math.pi / 2.0):
            raise NonPositiveParameter(
                f"sector epsilon must lie in (0, pi/2], got {self.epsilon!r}"
            )

    def contains(self, lam: complex) -> bool:
        lam = complex(lam)
        if lam == 0:
            return False
        return abs(cmath.phase(lam)) <= math.pi - self.epsilon + 1e-15

    def require(self, lam: complex) -> None:
        if not self.contains(lam):
            raise OutOfSector(
                f"lambda={lam!r} outside sector(epsilon={self.epsilon})"
            )


def first_offender(bad, lam, a) -> tuple[int, str] | None:
    """(index, "lam=..., A=...") of the first point flagged in bad, else None.

    bad, lam and a are scalars or equal-shape arrays; for more than one
    point the text also names the sample index, so a batch error points at
    its culprit.
    """
    import numpy as np

    flat = np.ravel(bad)
    if not flat.any():
        return None
    i = int(np.argmax(flat))
    where = f"lam={complex(np.ravel(lam)[i])!r}, A={float(np.ravel(a)[i])!r}"
    return i, (f"sample {i}: {where}" if flat.size > 1 else where)
