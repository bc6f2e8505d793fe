"""High-precision helpers shared between test modules.

One-sided difference quotients of the reflected height profile hit a
float64 wall at the third derivative: the lower extension's ninth
derivative scales like 4^9, so the truncation/roundoff crossover sits
near 5e-7 no matter how the step is tuned.  The certification therefore
runs the stencils in mpmath on the same exponential formula the package
evaluates, with the package's own reflection coefficients, and float64
is checked separately where it can speak (values, first derivative).
"""

from __future__ import annotations

from types import SimpleNamespace

import mpmath as mp

FD_NODES = 9

# Thresholds the tests apply to the package's results; the thresholds the
# package applies itself live in lopstokes.config.Tolerances.
TEST_TOL = SimpleNamespace(
    beta_residual=1e-12,        # interface system residual of solve_betas
    beta_jump=1e-13,            # tangential velocity jump against h
    coeff_vs_direct=1e-11,      # symbol tables against direct solves
    slope_dev=0.05,             # measured K/A slope against slope_limit
    ode_residual=1e-10,
    interface_residual=1e-11,
    mutation_floor=1e-4,        # residual a perturbed amplitude must trigger
    fft_roundtrip=1e-13,
    single_mode=1e-12,          # one-mode grid solve against the profile solve
    volevich=1e-8,
    lions_resub=1e-13,
    extension_c3=1e-9,          # C^3 mismatch of the Lions reflection
)


def one_sided_weights(k: int, sgn: int, n: int = FD_NODES) -> list:
    """Stencil weights for f^(k)(0) from nodes sgn*h*(0..n-1); divide by h**k.

    Solved on integer nodes so the Vandermonde stays well conditioned;
    the caller applies the 1/h**k scaling.
    """
    v = mp.matrix(n, n)
    for r in range(n):
        for c in range(n):
            v[r, c] = mp.mpf(sgn * c) ** r
    rhs = mp.matrix(n, 1)
    rhs[k] = mp.factorial(k)
    w = mp.lu_solve(v, rhs)
    return [w[i] for i in range(n)]


def lions_c3_mismatch(a_coeffs, a_tangential: float, h_scaled: str = "1e-3",
                      dps: int = 40) -> list[float]:
    """|D+_k - D-_k| / ell^k for k = 0..3, one-sided stencils both sides.

    a_coeffs are the reflection weights as solved by the package (floats,
    converted exactly); the minus side uses the lower branch's one-sided
    limit at 0, not the upper value.
    """
    with mp.workdps(dps):
        aj = [mp.mpf(float(c)) for c in a_coeffs]
        ell = mp.sqrt(1 + mp.mpf(float(a_tangential)) ** 2)
        h = mp.mpf(h_scaled) / ell

        def upper(x):
            return mp.e ** (-ell * x)

        def lower(x):
            return sum(aj[j - 1] * mp.e ** (ell * j * x) for j in range(1, 5))

        fp = [upper(i * h) for i in range(FD_NODES)]
        fm = [lower(-i * h) for i in range(FD_NODES)]
        out = []
        for k in range(4):
            wp = one_sided_weights(k, +1)
            wm = one_sided_weights(k, -1)
            dp = sum(w * f for w, f in zip(wp, fp)) / h ** k
            dm = sum(w * f for w, f in zip(wm, fm)) / h ** k
            out.append(float(abs(dp - dm) / ell ** k))
    return out


def profile_reference(a_coeffs, a_tangential: float, x: float,
                      dps: int = 40) -> complex:
    """mpmath evaluation of the reflected height profile at signed x."""
    with mp.workdps(dps):
        aj = [mp.mpf(float(c)) for c in a_coeffs]
        ell = mp.sqrt(1 + mp.mpf(float(a_tangential)) ** 2)
        xx = mp.mpf(float(x))
        if xx >= 0:
            val = mp.e ** (-ell * xx)
        else:
            val = sum(aj[j - 1] * mp.e ** (ell * j * xx) for j in range(1, 5))
        return complex(val)
