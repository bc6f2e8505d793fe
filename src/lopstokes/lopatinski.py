"""Boundary determinant: the 3x3 interface matrix, its cofactors and bounds.

The interface system couples (i xi'.beta'_minus, beta_plus_N, beta_minus_N)
through a 3x3 matrix L assembled from eight scalar entries, four per phase.
Only beta_plus_N and beta_minus_N are read, so only rows 2 and 3 of the
adjugate of L are formed.
Production entries avoid the A_plus*B_plus - A^2 cancellation (it vanishes
like lambda) by routing every division through

    P = (A_plus B_plus + A^2) / (rho_plus (2 mu_plus + nu_plus)^{-1} lambda + A^2),

whose denominator stays comparable to (sqrt|lambda| + A)^2 on the sector.
Every formula is plain field arithmetic over arrays of
points; a single point is an array of length one.  The determinant obeys

    |det L| >= omega (sqrt|lambda| + A)^4

with explicit constants omega1 (A-dominated regime) and omega2
(lambda-dominated regime); scan_lower_bound estimates the sector-wide omega
as the minimum over one pass of the GridSpec scan grid, run as tasks of
consecutive grid points on the shared process pool (pool.run), each
evaluated in one det_ratios call and returning its least ratio and its rows
of the scan CSV, and asymptotic_report measures the distance to the two
limits.  No process holds the whole grid: each task lays out only its own
points (GridSpec.points at their flat indices), and the caller keeps only
the least ratio so far and the rows not yet written.  Both only measure:
the scan-lopatinski command judges the results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import pool, reports
from .config import GridSpec
from .errors import NonPositiveOmega
from .params import FluidParams, Sector
from .symbols import char_roots_batch, check_det, check_roots

__all__ = [
    "ScanReport",
    "boundary_entries",
    "block_det",
    "cofactor_entries",
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
    """Rows 2 and 3 of the adjugate, (c21, c22, c23, c31, c32, c33), row-major:
    (L^{-1})_ij = c_ij/det L."""
    l11p, l12p, l21p, l22p = l_plus
    l11m, l12m, l21m, l22m = l_minus
    l11 = l11p + l11m
    return (
        -l21p * l22m, l21p * l12m, l12m * l21m - l11 * l22m,
        -l22p * l21m, l11 * l22p - l12p * l21p, -l12p * l21m,
    )


def det_ratios(fluid: FluidParams, lam: np.ndarray, a: np.ndarray):
    """(|det L|, |det L|/(sqrt|lam|+A)^4) over arrays, for lower-bound scans.

    Forms only the entries and det L, no cofactors, so a scan chunk keeps
    few arrays alive.
    """
    l_plus, l_minus, _ = boundary_entries(fluid, lam, a, *char_roots_batch(fluid, lam, a))
    absdet = np.abs(block_det(l_plus, l_minus)[0])
    return absdet, absdet / (np.sqrt(np.abs(lam)) + a) ** 4


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
    regime_ratio: float      # the regime thresholds R1 = R2
    delta1: float
    delta2: float
    worst_lam: complex
    worst_a: float
    n_points: int

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
            "regime_thresholds": {"R1": self.regime_ratio, "R2": self.regime_ratio},
            "regime_deviations": {"delta1": self.delta1, "delta2": self.delta2},
            "worst_point": {
                "re_lambda": self.worst_lam.real,
                "im_lambda": self.worst_lam.imag,
                "A": self.worst_a,
                "ratio": self.omega,
            },
            "n_points": self.n_points,
        }


# Scan points per pool task, evaluated in one det_ratios call: the call's
# arrays take about 1.9 MB at 8,192 points, and the task's CSV text (about
# 0.75 MB) reaches the caller whole.  On the default grid (2 cores, 10 runs
# each) scan-lopatinski peaks at a median 35.3 MB with 8,192 points against
# 39.6 MB with 16,384, in the same wall time.
_TASK_POINTS = 8192

# A/sqrt|lam| (and its reciprocal) at which asymptotic_report probes the two
# regimes; the scan report records it as the regime thresholds R1 and R2.
_REGIME_RATIO = 100.0


def _scan_task(task) -> tuple:
    """(ratio, lam, A, rows) of the scan grid points [i, j) in grid order,
    task = (i, j), laid out by GridSpec.points and evaluated in one
    det_ratios call: the first nonfinite ratio and its point if there is
    one, else the least ratio and the first point attaining it; rows is the
    scan CSV text of the points."""
    fluid, epsilon, grid = pool.work()
    lam, a = grid.points(epsilon, index=np.arange(*task))
    absdet, ratio = det_ratios(fluid, lam, a)
    k = int(np.argmin(np.where(np.isfinite(ratio), ratio, -np.inf)))
    return ratio[k], lam[k], a[k], reports.scan_rows(lam, a, absdet, ratio)


def scan_lower_bound(
    fluid: FluidParams,
    sector: Sector,
    grid: GridSpec,
    csv_path: str,
) -> ScanReport:
    """Estimate omega = inf |det L|/(sqrt|lam|+A)^4 over the scan grid.

    The infimum is empirical: the grid minimum, taken at the first point in
    grid order that attains it.  The grid is evaluated once, as tasks of
    _TASK_POINTS consecutive grid points (a task may split a magnitude) on
    the shared process pool (pool.run); each task lays out and evaluates
    only its own points, in one call (_scan_task), so no process holds more
    than a task of points, whatever the size of a magnitude.  The
    results are folded here in grid order and their rows are written to
    csv_path as they come.  Raises NonPositiveOmega at the first nonfinite
    ratio in grid order, or if the minimum is not strictly positive;
    csv_path is then partly written.
    """
    n_points = grid.lam_mags().size * grid.n_angles * grid.a_vals().size
    tasks = [(i, min(i + _TASK_POINTS, n_points)) for i in range(0, n_points, _TASK_POINTS)]
    # the least ratio so far and its point, the first in grid order on a tie
    worst = []

    def folded(results):
        for ratio, lam, a, rows in results:
            if not np.isfinite(ratio):
                raise NonPositiveOmega(f"nonfinite |det L| ratio at lam={lam!r}, A={a!r}")
            if not worst or ratio < worst[0]:
                worst[:] = ratio, lam, a
            yield rows

    with pool.run((fluid, sector.epsilon, grid)) as run:
        reports.write_scan_rows(csv_path, folded(run(_scan_task, tasks)))
    omega, worst_lam, worst_a = float(worst[0]), complex(worst[1]), float(worst[2])
    if not omega > 0.0:
        raise NonPositiveOmega(
            f"scan infimum {omega!r} at lam={worst_lam!r}, A={worst_a!r}"
        )
    w1, w2, (d1, d2) = asymptotic_report(fluid, sector, _REGIME_RATIO)
    return ScanReport(
        fluid=fluid, epsilon=sector.epsilon, grid=grid, omega=omega, omega1=w1, omega2=w2,
        regime_ratio=_REGIME_RATIO, delta1=d1, delta2=d2,
        worst_lam=worst_lam, worst_a=worst_a, n_points=n_points,
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
    l_plus, l_minus, _ = boundary_entries(fluid, lam, a, *roots)
    det = block_det(l_plus, l_minus)[0]
    check_det(det, lam, a)
    det1, det2 = np.split(det, 2)
    dev1 = float(np.max(np.abs(det1 / (w1 * a1 ** 4) - 1.0)))
    dev2 = float(np.max(np.abs(det2 / (w2 * lam2 * lam2) - 1.0)))
    return w1, w2, (dev1, dev2)
