"""Boundary determinant: the 3x3 interface matrix, its cofactors and bounds.

The interface system couples (i xi'.beta'_minus, beta_plus_N, beta_minus_N)
through a 3x3 matrix L assembled from eight scalar entries, four per phase.
Production entries avoid the A_plus*B_plus - A^2 cancellation (it vanishes
like lambda) by routing every division through

    P = (A_plus B_plus + A^2) / (rho_plus (2 mu_plus + nu_plus)^{-1} lambda + A^2),

whose denominator stays comparable to (sqrt|lambda| + A)^2 on the sector.
Every formula is plain field arithmetic over arrays of
points; a single point is an array of length one.  The determinant obeys

    |det L| >= omega (sqrt|lambda| + A)^4

with explicit constants omega1 (A-dominated regime) and omega2
(lambda-dominated regime); scan_lower_bound estimates the sector-wide omega
on the GridSpec scan grid, in chunks below the elision threshold, and
asymptotic_report measures the distance to the two limits.  Both only
measure: the scan-lopatinski command judges the results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .config import ELISION_THRESHOLD, GridSpec
from .errors import ConfigError, NonPositiveOmega, SingularDetL
from .params import FluidParams, Sector, first_offender
from .symbols import char_roots_batch, check_roots

__all__ = [
    "ScanReport",
    "boundary_entries",
    "block_det",
    "cofactor_entries",
    "cofactor_solve",
    "checked_entries",
    "det_ratios",
    "omega1",
    "omega2",
    "scan_lower_bound",
    "asymptotic_report",
    "ENTRY_DEGREES",
]

# parabolic degree of each entry: value under (lam, xi') -> (s^2 lam, s xi')
ENTRY_DEGREES = {
    "l11p": 1, "l12p": 2, "l21p": 0, "l22p": 1,
    "l11m": 1, "l12m": 2, "l21m": 1, "l22m": 2,
    "det": 4,
}


def boundary_entries(fluid: FluidParams, lam, a, ap, bp, bm):
    """Stabilized entries ((L+11, L+12, L+21, L+22), (L-11, L-12, L-21, L-22), P).

    Plain field arithmetic over equal-shape arrays lam, a and roots.  The
    +-side entries route every division through P; the --side difference
    B- - A is taken as rho-*lam/(mu-*(B-+A)).
    """
    mu, nu = fluid.mu_plus, fluid.nu_plus
    a2 = a * a
    p = (ap * bp + a2) / (fluid.rho_plus / (2.0 * mu + nu) * lam + a2)
    c_pn = (mu + nu) / (2.0 * mu + nu)
    l_plus = (
        mu * c_pn * ap * p,
        mu * a2 * (2.0 - c_pn * p),
        (2.0 * mu * nu / (2.0 * mu + nu) * ap / (bp + ap)
         - mu * (nu - mu) / (2.0 * mu + nu)) * p,
        mu * c_pn * bp * p,
    )
    mm = fluid.mu_minus
    bm_minus_a = fluid.rho_minus * lam / (mm * (bm + a))
    l_minus = (mm * (a + bm), mm * a * bm_minus_a, mm * bm_minus_a, mm * (a + bm) * bm)
    return l_plus, l_minus, p


def block_det(l_plus, l_minus):
    """(det L, det L+, det L-) from the two 2x2 blocks, never by naive expansion."""
    det_p = l_plus[0] * l_plus[3] - l_plus[1] * l_plus[2]
    det_m = l_minus[0] * l_minus[3] - l_minus[1] * l_minus[2]
    return l_minus[3] * det_p + l_plus[3] * det_m, det_p, det_m


def cofactor_entries(l_plus, l_minus):
    """The nine cofactors (c11, c12, ..., c33), row-major: (L^{-1})_ij = c_ij/det L."""
    l11p, l12p, l21p, l22p = l_plus
    l11m, l12m, l21m, l22m = l_minus
    l11 = l11p + l11m
    return (
        l22p * l22m, -l22p * l12m, l12p * l22m,
        -l21p * l22m, l21p * l12m, l12m * l21m - l11 * l22m,
        -l22p * l21m, l11 * l22p - l12p * l21p, -l12p * l21m,
    )


def cofactor_solve(cofactors, det, rhs):
    """(x1, x2, x3) with L x = rhs, from the nine cofactors and det L.

    Field arithmetic, so one right-hand side or one per point of a batch.
    """
    c11, c12, c13, c21, c22, c23, c31, c32, c33 = cofactors
    r1, r2, r3 = rhs
    return ((c11 * r1 + c12 * r2 + c13 * r3) / det,
            (c21 * r1 + c22 * r2 + c23 * r3) / det,
            (c31 * r1 + c32 * r2 + c33 * r3) / det)


def det_ratios(fluid: FluidParams, lam: np.ndarray, a: np.ndarray):
    """(|det L|, |det L|/(sqrt|lam|+A)^4) over arrays, for lower-bound scans.

    Forms only the entries and det L, no cofactors, so a scan chunk keeps
    few arrays alive.
    """
    l_plus, l_minus, _ = boundary_entries(fluid, lam, a, *char_roots_batch(fluid, lam, a))
    absdet = np.abs(block_det(l_plus, l_minus)[0])
    return absdet, absdet / (np.sqrt(np.abs(lam)) + a) ** 4


def checked_entries(fluid: FluidParams, lam, a, roots):
    """(l_plus, l_minus, P, (det L, det L+, det L-)) with a singularity check.

    Raises SingularDetL at the first point with |det L| < 1e-300.
    """
    lp, lm, p = boundary_entries(fluid, lam, a, *roots)
    dets = block_det(lp, lm)
    hit = first_offender(abs(dets[0]) < 1e-300, lam, a)
    if hit is not None:
        i, where = hit
        raise SingularDetL(
            f"det L = {complex(np.ravel(dets[0])[i])!r} at {where}; "
            "vanishing determinant inside the sector is a certification failure"
        )
    return lp, lm, p, dets


def omega1(fluid: FluidParams) -> float:
    """A-dominated limit constant: det L ~ omega1 * A^4 as A/sqrt|lam| -> inf."""
    mp, mm, nup = fluid.mu_plus, fluid.mu_minus, fluid.nu_plus
    return 8.0 * mp * mm * (mp * nup + mm * (mp + nup)) / (2.0 * mp + nup)


def omega2(fluid: FluidParams) -> float:
    """lambda-dominated limit constant: det L ~ omega2 * lam^2 as A -> 0."""
    mp, mm, nup = fluid.mu_plus, fluid.mu_minus, fluid.nu_plus
    rp, rm = fluid.rho_plus, fluid.rho_minus
    return math.sqrt(mp + nup) * (
        math.sqrt(mp) * rp * rm + math.sqrt(mm) * math.sqrt(rp) * rm ** 1.5
    )


@dataclass(frozen=True)
class ScanReport:
    """Grid infimum of |det L|/(sqrt|lam|+A)^4 plus the regime constants."""

    fluid: FluidParams
    epsilon: float
    grid: GridSpec
    omega: float
    omega1: float
    omega2: float
    r1: float
    r2: float
    delta1: float
    delta2: float
    worst_lam: complex
    worst_a: float
    n_points: int
    refine_drift: float
    # base-grid (lam, A, |det L|, ratio) arrays in grid order, the scan CSV
    columns: tuple = field(default=(), repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "fluid": self.fluid.to_dict(),
            "epsilon": self.epsilon,
            "grid": {
                "lam_magnitudes": list(self.grid.lam_mags()),
                "angles": list(self.grid.angles(self.epsilon)),
                "a_values": list(self.grid.a_vals()),
            },
            "omega": self.omega,
            "omega_kind": "grid minimum, an upper estimate of the infimum",
            "omega1": self.omega1,
            "omega2": self.omega2,
            "regime_thresholds": {"R1": self.r1, "R2": self.r2},
            "regime_deviations": {"delta1": self.delta1, "delta2": self.delta2},
            "worst_point": {
                "re_lambda": self.worst_lam.real,
                "im_lambda": self.worst_lam.imag,
                "A": self.worst_a,
                "ratio": self.omega,
            },
            "n_points": self.n_points,
            "refine_drift": self.refine_drift,
        }


# Points per scan chunk: below the elision threshold, so the scan bits do
# not depend on the chunk size.
_CHUNK = ELISION_THRESHOLD // 2

# A/sqrt|lam| (and its reciprocal) at which asymptotic_report probes the two
# regimes; the scan report records it as the regime thresholds R1 and R2.
_REGIME_RATIO = 100.0


def _det_chunks(fluid: FluidParams, sector: Sector, grid: GridSpec):
    """(lam, A, |det L|, ratio) over the grid in grid order, in bounded-size
    chunks; raises NonPositiveOmega at the first nonfinite ratio."""
    lam, a = grid.points(sector.epsilon)
    for start in range(0, lam.size, _CHUNK):
        lam_c = lam[start:start + _CHUNK]
        a_c = a[start:start + _CHUNK]
        absdet, ratio = det_ratios(fluid, lam_c, a_c)
        if not np.all(np.isfinite(ratio)):
            bad = int(np.argmin(np.isfinite(ratio)))
            raise NonPositiveOmega(
                f"nonfinite |det L| ratio at lam={lam_c[bad]!r}, A={a_c[bad]!r}"
            )
        yield lam_c, a_c, absdet, ratio


def _scan_min(chunks):
    """(omega, worst_lam, worst_a, n) over _det_chunks output."""
    best = math.inf
    worst_lam, worst_a, n = 0j, 0.0, 0
    for lam_c, a_c, _, ratio in chunks:
        n += lam_c.size
        k = int(np.argmin(ratio))
        if ratio[k] < best:
            best = float(ratio[k])
            worst_lam = complex(lam_c[k])
            worst_a = float(a_c[k])
    return best, worst_lam, worst_a, n


def scan_lower_bound(
    fluid: FluidParams,
    sector: Sector,
    grid: GridSpec,
) -> ScanReport:
    """Estimate omega = inf |det L|/(sqrt|lam|+A)^4 over the scan grid.

    The infimum is empirical (grid minimum); the grid is re-run at double
    density with 12 more angles over the same ranges, and the relative
    movement of omega is recorded as refine_drift.  Each grid is evaluated
    once: the refined one is only reduced, chunk by chunk and first, so that
    its peak memory does not overlap the base grid's per-point values, which
    stay on the report as the scan CSV columns.  Raises NonPositiveOmega if
    the minimum is not strictly positive, and ConfigError if the refinement
    has more than MAX_GRID_POINTS points.
    """
    try:
        fine = replace(grid, lam_per_decade=2 * grid.lam_per_decade,
                       a_per_decade=2 * grid.a_per_decade, n_angles=grid.n_angles + 12)
    except ConfigError as exc:
        raise ConfigError(f"scan refinement (double density, 12 more angles): {exc}") from exc
    omega_r = _scan_min(_det_chunks(fluid, sector, fine))[0]
    base = list(_det_chunks(fluid, sector, grid))
    omega, worst_lam, worst_a, n = _scan_min(base)
    if not omega > 0.0:
        raise NonPositiveOmega(
            f"scan infimum {omega!r} at lam={worst_lam!r}, A={worst_a!r}"
        )
    w1, w2, (d1, d2) = asymptotic_report(fluid, sector, _REGIME_RATIO)
    return ScanReport(
        fluid=fluid, epsilon=sector.epsilon, grid=grid, omega=omega, omega1=w1, omega2=w2,
        r1=_REGIME_RATIO, r2=_REGIME_RATIO, delta1=d1, delta2=d2,
        worst_lam=worst_lam, worst_a=worst_a, n_points=n,
        refine_drift=abs(omega_r - omega) / omega,
        columns=tuple(np.concatenate(col) for col in zip(*base)),
    )


def asymptotic_report(fluid: FluidParams, sector: Sector, ratio: float = _REGIME_RATIO):
    """Measure how far det L sits from omega1*A^4 and omega2*lam^2 at a
    regime ratio.

    Probes A/sqrt|lam| = ratio (and its reciprocal) across scales and
    sector angles; returns (omega1, omega2, (dev1, dev2)) with
    dev1 = max |det L/(omega1 A^4) - 1| and dev2 = max |det L/(omega2 lam^2) - 1|.
    Judging the deviations is the caller's business.
    """
    w1 = omega1(fluid)
    w2 = omega2(fluid)
    span = math.pi - sector.epsilon
    rot = [complex(math.cos(t), math.sin(t))
           for t in (0.0, 0.5 * span, -0.5 * span, span, -span)]
    scales = (1e-2, 1.0, 1e2)
    # A-dominated probes A = ratio * sqrt|lam|, then lambda-dominated
    # probes sqrt|lam| = ratio * A, one per scale and sector angle
    a1 = np.repeat(scales, len(rot))
    lam1 = np.array([(s / ratio) ** 2 * r for s in scales for r in rot])
    lam2 = np.array([s * s * r for s in scales for r in rot])
    a2 = np.repeat([math.sqrt(s * s) / ratio for s in scales], len(rot))
    lam = np.concatenate([lam1, lam2])
    a = np.concatenate([a1, a2])
    roots = char_roots_batch(fluid, lam, a)
    check_roots(roots, lam, a)
    dets = checked_entries(fluid, lam, a, roots)[3]
    det1, det2 = np.split(dets[0], 2)
    dev1 = float(np.max(np.abs(det1 / (w1 * a1 ** 4) - 1.0)))
    dev2 = float(np.max(np.abs(det2 / (w2 * lam2 * lam2) - 1.0)))
    return w1, w2, (dev1, dev2)
