"""Characteristic roots and the divided-exponential kernel.

Everything downstream is built from three square roots per spectral point,

    A_plus = sqrt(rho_plus/(mu_plus+nu_plus)*lam + A^2),
    B_pm   = sqrt(rho_pm/mu_pm*lam + A^2),

taken on the principal branch (Re > 0 off the negative axis), together with
the divided-exponential kernel

    M(a, b; x) = (exp(b*x) - exp(a*x)) / (b - a),

which is evaluated by a confluent series when b is close to a so that nearby
roots never cost accuracy.  Both are array functions: a single point is an
array of length one.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularDetL, WrongSign
from .params import FluidParams, first_offender

__all__ = [
    "char_roots_batch",
    "check_roots",
    "check_det",
    "root_radicands",
]

CONFLUENT_SWITCH = 1e-4
SERIES_TERM = 1e-16


def root_radicands(fluid: FluidParams, lam, a2):
    """(A_plus^2, B_plus^2, B_minus^2) at lam and a2 = A^2, by field
    arithmetic: arrays, Taylor jets and scalars alike."""
    return (
        fluid.rho_plus / (fluid.mu_plus + fluid.nu_plus) * lam + a2,
        fluid.rho_plus / fluid.mu_plus * lam + a2,
        fluid.rho_minus / fluid.mu_minus * lam + a2,
    )


def char_roots_batch(
    fluid: FluidParams, lam: np.ndarray, a: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized roots over equal-shape arrays lam (complex) and a (real)."""
    lam = np.asarray(lam, dtype=np.complex128)
    a = np.asarray(a, dtype=np.float64)
    return tuple(np.sqrt(r) for r in root_radicands(fluid, lam, a * a))


def check_roots(roots, lam, a) -> None:
    """Raise WrongSign at the first point where a root has Re <= 0.

    roots = (A_plus, B_plus, B_minus) as equal-shape arrays.
    """
    bad = [np.logical_not(np.real(r) > 0.0) for r in roots]
    hit = first_offender(bad[0] | bad[1] | bad[2], lam, a)
    if hit is not None:
        i, where = hit
        name = next(n for n, b in zip(("A_plus", "B_plus", "B_minus"), bad)
                    if np.ravel(b)[i])
        raise WrongSign(f"{name} has nonpositive real part at {where}")


def check_det(det, lam, a) -> None:
    """Raise SingularDetL at the first point where |det L| < 1e-300."""
    hit = first_offender(abs(det) < 1e-300, lam, a)
    if hit is not None:
        i, where = hit
        raise SingularDetL(
            f"det L = {complex(np.ravel(det)[i])!r} at {where}; "
            "vanishing determinant inside the sector is a certification failure"
        )


def _exp_diff_quot(a, b, x, ea, eb) -> np.ndarray:
    """Stable (exp(b*x) - exp(a*x)) / (b - a) from complex a and b, float x
    and the exponentials ea = exp(a*x) and eb = exp(b*x) the caller already
    holds, broadcasting all five.

    Where |b - a| < CONFLUENT_SWITCH * |b + a| and |(b - a) x| < 1 the
    quotient is evaluated as

        x * exp(a*x) * sum_{n>=0} ((b-a)*x)^n / (n+1)!

    truncated once every term falls below SERIES_TERM relative to its
    partial sum, so the b -> a limit (x * exp(a*x)) is exact.  Beyond
    |(b - a) x| = 1 the series terms grow before they fall and can
    overflow, while the direct formula has lost no accuracy there.
    """
    a, b, x, ea, eb = np.broadcast_arrays(a, b, x, ea, eb)
    d = b - a
    s = b + a
    out = np.empty(d.shape, dtype=np.complex128)
    # an array also for 0-d inputs, so the depth test can narrow it in place
    conf = np.asarray(np.abs(d) < CONFLUENT_SWITCH * np.maximum(np.abs(s), 1e-300))
    conf[conf] = np.abs(d[conf] * x[conf]) < 1.0
    direct = ~conf
    if np.any(direct):
        out[direct] = (eb[direct] - ea[direct]) / d[direct]
    if np.any(conf):
        z = d[conf] * x[conf]
        total = np.ones(z.shape, dtype=np.complex128)
        term = np.ones(z.shape, dtype=np.complex128)
        for n in range(1, 41):
            term = term * z / (n + 1)
            total = total + term
            if np.all(np.abs(term) <= SERIES_TERM * np.abs(total)):
                break
        out[conf] = x[conf] * ea[conf] * total
    return out
