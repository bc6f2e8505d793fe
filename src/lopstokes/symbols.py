"""Characteristic roots and the one-dimensional profile kernels.

Everything downstream is built from three square roots per spectral point,

    A_plus = sqrt(rho_plus/(mu_plus+nu_plus)*lam + A^2),
    B_pm   = sqrt(rho_pm/mu_pm*lam + A^2),

taken on the principal branch (Re > 0 off the negative axis), together with
the divided-exponential kernel

    M(a, b; x) = (exp(b*x) - exp(a*x)) / (b - a),

which is evaluated by a confluent series when b is close to a so that nearby
roots never cost accuracy.  The root formula is written once: scalar points
take it with cmath.sqrt on Python complex numbers, batches with np.sqrt on
numpy arrays.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import WrongSign
from .params import FluidParams, SpectralPoint, first_offender

__all__ = [
    "CharRoots",
    "char_roots",
    "char_roots_batch",
    "check_roots",
    "exp_diff_quot",
    "exp_diff_quot_batch",
    "stokes_kernel_plus",
    "stokes_kernel_minus",
    "root_envelope_ratio",
]

CONFLUENT_SWITCH = 1e-4
SERIES_TERM = 1e-16


@dataclass(frozen=True)
class CharRoots:
    """The three decay rates at one spectral point (A_minus is A itself)."""

    a_plus: complex
    b_plus: complex
    b_minus: complex
    a: float
    lam: complex

    @property
    def a_minus(self) -> float:
        return self.a

    def as_tuple(self) -> tuple[complex, complex, complex]:
        return self.a_plus, self.b_plus, self.b_minus


def _roots(fluid: FluidParams, lam, a2, sqrt):
    """(A_plus, B_plus, B_minus) from lambda and A^2 through the given sqrt."""
    return (
        sqrt(fluid.rho_plus / (fluid.mu_plus + fluid.nu_plus) * lam + a2),
        sqrt(fluid.rho_plus / fluid.mu_plus * lam + a2),
        sqrt(fluid.rho_minus / fluid.mu_minus * lam + a2),
    )


def char_roots(fluid: FluidParams, point: SpectralPoint) -> CharRoots:
    """Principal-branch roots for one (lambda, xi') pair.

    Raises WrongSign if any computed real part fails to be positive, which
    can only happen on invalid input (lambda on the cut with A = 0).
    """
    lam = point.lam
    a = point.a
    ap, bp, bm = _roots(fluid, lam, a * a, cmath.sqrt)
    check_roots((ap, bp, bm), lam, a)
    return CharRoots(a_plus=ap, b_plus=bp, b_minus=bm, a=a, lam=lam)


def char_roots_batch(
    fluid: FluidParams, lam: np.ndarray, a: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized roots over equal-shape arrays lam (complex) and a (real)."""
    lam = np.asarray(lam, dtype=np.complex128)
    a = np.asarray(a, dtype=np.float64)
    return _roots(fluid, lam, a * a, np.sqrt)


def check_roots(roots, lam, a) -> None:
    """Raise WrongSign at the first point where a root has Re <= 0.

    roots = (A_plus, B_plus, B_minus) as scalars or equal-shape arrays.
    """
    bad = [np.logical_not(np.real(r) > 0.0) for r in roots]
    hit = first_offender(bad[0] | bad[1] | bad[2], lam, a)
    if hit is not None:
        i, where = hit
        name = next(n for n, b in zip(("A_plus", "B_plus", "B_minus"), bad)
                    if np.ravel(b)[i])
        raise WrongSign(f"{name} has nonpositive real part at {where}")


def root_envelope_ratio(roots: CharRoots) -> tuple[float, float]:
    """(min, max) of Re(root)/(sqrt|lam| + A) over the three roots.

    Both numbers are bounded away from 0 and infinity uniformly on the
    sector; scans over this ratio back the two-sided envelope estimate.
    """
    scale = math.sqrt(abs(roots.lam)) + roots.a
    ratios = [r.real / scale for r in roots.as_tuple()]
    return min(ratios), max(ratios)


def exp_diff_quot(a: complex, b: complex, x: float) -> complex:
    """Stable (exp(b*x) - exp(a*x)) / (b - a) for x >= 0 times sign of use.

    When |b - a| < CONFLUENT_SWITCH * |b + a| the quotient is evaluated as

        x * exp(a*x) * sum_{n>=0} ((b-a)*x)^n / (n+1)!

    truncated once a term falls below SERIES_TERM relative to the partial
    sum, so the b -> a limit (x * exp(a*x)) is exact.
    """
    d = b - a
    s = b + a
    if abs(d) >= CONFLUENT_SWITCH * max(abs(s), 1e-300):
        return (cmath.exp(b * x) - cmath.exp(a * x)) / d
    z = d * x
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    n = 1
    while True:
        term *= z / (n + 1)
        total += term
        if abs(term) <= SERIES_TERM * abs(total) or n > 40:
            break
        n += 1
    return x * cmath.exp(a * x) * total


def exp_diff_quot_batch(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Vectorized exp_diff_quot with the same series switch, broadcasting."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    x = np.asarray(x, dtype=np.float64)
    a, b, x = np.broadcast_arrays(a, b, x)
    d = b - a
    s = b + a
    out = np.empty(d.shape, dtype=np.complex128)
    direct = np.abs(d) >= CONFLUENT_SWITCH * np.maximum(np.abs(s), 1e-300)
    if np.any(direct):
        dd = d[direct]
        out[direct] = (np.exp(b[direct] * x[direct]) - np.exp(a[direct] * x[direct])) / dd
    conf = ~direct
    if np.any(conf):
        z = d[conf] * x[conf]
        total = np.ones(z.shape, dtype=np.complex128)
        term = np.ones(z.shape, dtype=np.complex128)
        for n in range(1, 41):
            term = term * z / (n + 1)
            total = total + term
            if np.all(np.abs(term) <= SERIES_TERM * np.abs(total)):
                break
        out[conf] = x[conf] * np.exp(a[conf] * x[conf]) * total
    return out


def stokes_kernel_plus(roots: CharRoots, x) -> np.ndarray | complex:
    """M_plus(x) = (exp(-B_plus x) - exp(-A_plus x)) / (B_plus - A_plus), x >= 0.

    Written through the divided exponential at (-B_plus, -A_plus):
    (exp(-A x) - exp(-B x)) / (-A + B) matches the target exactly after a
    sign flip of both numerator and denominator.
    """
    if np.isscalar(x):
        return -exp_diff_quot(-roots.b_plus, -roots.a_plus, float(x))
    xv = np.asarray(x, dtype=np.float64)
    bneg = np.full(xv.shape, -roots.b_plus, dtype=np.complex128)
    aneg = np.full(xv.shape, -roots.a_plus, dtype=np.complex128)
    return -exp_diff_quot_batch(bneg, aneg, xv)


def stokes_kernel_minus(roots: CharRoots, x) -> np.ndarray | complex:
    """M_minus(x) = (exp(B_minus x) - exp(A x)) / (B_minus - A), x <= 0."""
    if np.isscalar(x):
        return exp_diff_quot(complex(roots.a), roots.b_minus, float(x))
    xv = np.asarray(x, dtype=np.float64)
    av = np.full(xv.shape, complex(roots.a), dtype=np.complex128)
    bv = np.full(xv.shape, roots.b_minus, dtype=np.complex128)
    return exp_diff_quot_batch(av, bv, xv)
