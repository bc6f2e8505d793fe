"""Closed-form solution coefficients and the height (kinematic) symbol.

The interface solve produces beta_+N and beta_-N; everything else is
explicit: the scaled Stokes-kernel amplitudes
g_{pm J} = (B_pm - A_pm) alpha_{pm J}, the tangential boundary amplitudes
beta_{pm j}, the pressure amplitude gamma_-, and the data-to-coefficient
symbols P, R, S, T, p^- that express all of them as weights against
h_hat(0) and H_hat(0).  The height symbol

    K = [sigma_- A^3 (rho_- Lc32 - rho_+ Lc22)
         + sigma_+ A^2 (rho_- Lc33 - rho_+ Lc23)] / (det L (rho_- - rho_+))

closes the kinematic equation lambda H - weighted-normal-trace = d into
H = (lambda + K)^{-1} (d + w_h).  All symbol formulas live on SymbolKit, on
top of the lopatinski entry and cofactor formulas, as arithmetic over arrays
of points, so the solves, the scans and the class estimator (on Taylor
jets, through the SymbolKit constructor) share the production arithmetic; a
single point is an array of length one.  The height scan evaluates its grid
once, into a HeightCurve; every cutoff and the scanned omega4 are read off
it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import lopatinski
from .config import GridSpec, Tolerances
from .errors import HeightNotInvertible, NoCutoffFound
from .lopatinski import (
    block_det,
    boundary_entries,
    cofactor_entries,
    omega1,
)
from .params import FluidParams, Sector, first_offender
from .symbols import char_roots_batch

__all__ = [
    "SymbolKit",
    "HeightScanReport",
    "amplitudes",
    "kinematic_weight",
    "refused_heights",
    "omega3",
    "omega4_formula",
    "slope_limit",
    "HeightCurve",
    "height_curve",
    "height_scan",
    "height_ratio",
]


class SymbolKit:
    """Entry/cofactor bundle with every coefficient symbol.

    Fields are equal-shape numpy arrays, one value per point; the formulas
    only use field arithmetic.  Indices are supplied as the value i*xi_m of
    the chosen frequency component.  The symbols without an index argument
    (k_height, p_plus_N, p_minus_N, s_plus_NN, s_minus_NN, t_plus, t_minus,
    p_press_N) are attributes, evaluated once per kit with the parts they
    share as functools.cached_property; callers must not modify a returned
    array in place.
    """

    def __init__(self, fluid: FluidParams, lam, a, roots):
        """The kit of lam, A and their roots (A+, B+, B-) as given: arrays,
        jets or scalars."""
        self.fluid = fluid
        self.lam = lam
        self.a = a
        self.ap, self.bp, self.bm = roots
        l_plus, l_minus, self.p_stab = boundary_entries(fluid, lam, a, *roots)
        self.l11p, self.l12p, self.l21p, self.l22p = l_plus
        self.l11m, self.l12m, self.l21m, self.l22m = l_minus
        self.det, self.det_plus, _ = block_det(l_plus, l_minus)
        (self.c21, self.c22, self.c23,
         self.c31, self.c32, self.c33) = cofactor_entries(l_plus, l_minus)

    @classmethod
    def batch(cls, fluid: FluidParams, lam: np.ndarray, a: np.ndarray) -> "SymbolKit":
        lam = np.ascontiguousarray(lam, dtype=np.complex128)
        a = np.ascontiguousarray(a, dtype=np.float64)
        return cls(fluid, lam, a, char_roots_batch(fluid, lam, a))

    # -- P family: q_pm = i xi'.beta'_pm mp B_pm beta_pmN = A (sum_m P_m h_m + A P_N H)
    #
    # The raw cofactor sums c1j -+ B_pm c{2,3}j cancel like A/B_pm in the
    # lambda-dominated regime, so the P entries are built from regrouped
    # forms in which every minus-entry difference is resolved analytically.

    def _p_pair(self, row0, row1, row2):
        """(num/det L, P_N): the index-free part of P_m and P_N of one phase,
        from the three stable rows of its q row of the inverse."""
        f = self.fluid
        return ((row0 * self.l11p - row2 * self.l21p) / self.det,
                -(row1 * f.sigma_minus * self.a + row2 * f.sigma_plus) / self.det)

    @functools.cached_property
    def _p_plus(self):
        """_p_pair of the rows c1j - B+ c2j; w is L22+ + B+ L21+ with the
        parameter-level cancellation removed."""
        f = self.fluid
        mp, nup = f.mu_plus, f.nu_plus
        w = (2.0 * mp * self.p_stab * self.bp
             * ((mp + nup) * self.ap + mp * self.bp)
             / ((2.0 * mp + nup) * (self.ap + self.bp)))
        l11 = self.l11p + self.l11m
        inner = self.l12p + self.bp * l11
        return self._p_pair(self.l22m * w, -self.l12m * w,
                            self.l22m * inner - self.bp * self.l12m * self.l21m)

    @functools.cached_property
    def _p_minus(self):
        """_p_pair of the rows c1j + B- c3j."""
        f = self.fluid
        s = 2.0 * f.mu_minus * self.a * self.bm
        return self._p_pair(s * self.l22p,
                            f.mu_minus * (self.a * self.a + self.bm * self.bm) * self.l22p
                            + self.bm * self.det_plus,
                            s * self.l12p)

    def p_plus_m(self, ixi_m):
        w = ixi_m / self.a
        return self._p_plus[0] * w - w

    @property
    def p_plus_N(self):
        return self._p_plus[1]

    def p_minus_m(self, ixi_m):
        w = ixi_m / self.a
        return self._p_minus[0] * w

    @property
    def p_minus_N(self):
        return self._p_minus[1]

    # -- R family: (B_pm - A_pm) alpha_pmJ = A (sum_m R_Jm h_m + A R_JN H)

    def _r_plus_factor_j(self, ixi_j):
        f = self.fluid
        return -f.nu_plus * ixi_j * self.p_stab / (
            (2.0 * f.mu_plus + f.nu_plus) * (self.ap + self.bp))

    @functools.cached_property
    def _r_plus_factor_N(self):
        f = self.fluid
        return f.nu_plus * self.ap * self.p_stab / (
            (2.0 * f.mu_plus + f.nu_plus) * (self.ap + self.bp))

    def r_plus(self, j_normal: bool, m_normal: bool, ixi_j=None, ixi_m=None):
        fac = self._r_plus_factor_N if j_normal else self._r_plus_factor_j(ixi_j)
        p = self.p_plus_N if m_normal else self.p_plus_m(ixi_m)
        return fac * p

    def r_minus(self, j_normal: bool, m_normal: bool, ixi_j=None, ixi_m=None):
        fac = -1.0 if j_normal else -ixi_j / self.a
        p = self.p_minus_N if m_normal else self.p_minus_m(ixi_m)
        return fac * p

    # -- S family: beta_pmJ = [T_j h_j] + A (sum_m S_Jm h_m + A S_JN H)

    def s_plus_Nm(self, ixi_m):
        return (self.c21 * self.l11p - self.c23 * self.l21p) / self.det * (ixi_m / self.a)

    @functools.cached_property
    def s_plus_NN(self):
        f = self.fluid
        return -(self.c22 * f.sigma_minus * self.a + self.c23 * f.sigma_plus) / self.det

    def s_minus_Nm(self, ixi_m):
        return (self.c31 * self.l11p - self.c33 * self.l21p) / self.det * (ixi_m / self.a)

    @functools.cached_property
    def s_minus_NN(self):
        f = self.fluid
        return -(self.c32 * f.sigma_minus * self.a + self.c33 * f.sigma_plus) / self.det

    @functools.cached_property
    def _bsum(self):
        f = self.fluid
        return f.mu_plus * self.bp + f.mu_minus * self.bm

    def s_jm(self, ixi_j, ixi_m):
        f = self.fluid
        return -(
            f.mu_plus * self.r_plus(False, False, ixi_j, ixi_m)
            + f.mu_minus * self.r_minus(False, False, ixi_j, ixi_m)
            - f.mu_plus * ixi_j * self.s_plus_Nm(ixi_m)
            + f.mu_minus * ixi_j * self.s_minus_Nm(ixi_m)
        ) / self._bsum

    def s_jN(self, ixi_j):
        f = self.fluid
        return -(
            f.mu_plus * self.r_plus(False, True, ixi_j)
            + f.mu_minus * self.r_minus(False, True, ixi_j)
            - f.mu_plus * ixi_j * self.s_plus_NN
            + f.mu_minus * ixi_j * self.s_minus_NN
        ) / self._bsum

    @functools.cached_property
    def t_plus(self):
        return -self.fluid.mu_minus * self.bm / self._bsum

    @functools.cached_property
    def t_minus(self):
        return self.fluid.mu_plus * self.bp / self._bsum

    # -- pressure: gamma_- = sum_m p_m1 h_m + A p_N1 H

    def p_press_m(self, ixi_m):
        return -self.fluid.mu_minus * (self.a + self.bm) * self.p_minus_m(ixi_m)

    @functools.cached_property
    def p_press_N(self):
        return -self.fluid.mu_minus * (self.a + self.bm) * self.p_minus_N

    # -- height symbol

    @functools.cached_property
    def k_height(self):
        f = self.fluid
        drho = f.rho_minus - f.rho_plus
        a2 = self.a * self.a
        a3 = a2 * self.a
        return (
            f.sigma_minus * a3 * (f.rho_minus * self.c32 - f.rho_plus * self.c22)
            + f.sigma_plus * a2 * (f.rho_minus * self.c33 - f.rho_plus * self.c23)
        ) / (self.det * drho)


def _interface_rhs(fluid: FluidParams, a, l11p, l21p, ixh, H):
    """Right-hand side of the 3x3 interface system for data (i xi'.h, H)."""
    return (
        l11p * ixh,
        -fluid.sigma_minus * a ** 3 * H,
        -fluid.sigma_plus * a ** 2 * H - l21p * ixh,
    )


def amplitudes(kit: SymbolKit, ixi, h, H) -> dict:
    """Solve the interface system for beta_pmN and expand every amplitude.

    ixi and h hold one entry per tangential component (i xi_m and h_m), each
    an array over the points of kit, and H is the height datum.  Returns
    every amplitude by name; the per-component ones (beta_pm, g_pm) are
    stacked on axis 0, tangential first and normal last.
    """
    f = kit.fluid
    a = kit.a
    ixh = sum(x * y for x, y in zip(ixi, h))
    r1, r2, r3 = _interface_rhs(f, a, kit.l11p, kit.l21p, ixh, H)
    beta_p_N = (kit.c21 * r1 + kit.c22 * r2 + kit.c23 * r3) / kit.det
    beta_m_N = (kit.c31 * r1 + kit.c32 * r2 + kit.c33 * r3) / kit.det

    # q_pm via the representation tables, not the trace combinations
    # ixb_pm -+ B_pm beta_pmN: the latter cancel catastrophically when
    # B_pm >> A and would poison gamma_minus and every g amplitude.
    q_plus = a * (sum(kit.p_plus_m(x) * y for x, y in zip(ixi, h))
                  + a * kit.p_plus_N * H)
    q_minus = a * (sum(kit.p_minus_m(x) * y for x, y in zip(ixi, h))
                   + a * kit.p_minus_N * H)
    g_plus = [kit._r_plus_factor_j(x) * q_plus for x in ixi]
    g_plus.append(kit._r_plus_factor_N * q_plus)
    g_minus = [-(x / a) * q_minus for x in ixi]
    g_minus.append(-q_minus)

    jump = f.mu_plus * beta_p_N - f.mu_minus * beta_m_N
    beta_minus = [
        (f.mu_plus * kit.bp * hj - f.mu_plus * gp - f.mu_minus * gm + x * jump) / kit._bsum
        for x, hj, gp, gm in zip(ixi, h, g_plus, g_minus)
    ]
    beta_plus = [bm - hj for bm, hj in zip(beta_minus, h)]
    return {
        "q_plus": q_plus,
        "q_minus": q_minus,
        "beta_plus": np.array([*beta_plus, beta_p_N], dtype=np.complex128),
        "beta_minus": np.array([*beta_minus, beta_m_N], dtype=np.complex128),
        "g_plus": np.array(g_plus, dtype=np.complex128),
        "g_minus": np.array(g_minus, dtype=np.complex128),
        "gamma_minus": -f.mu_minus * (a + kit.bm) * q_minus / a,
    }


def omega3(fluid: FluidParams) -> float:
    """A-regime constant of the height symbol (printed form; exact at sigma=1).

    K/A -> sigma * omega3/omega1 as A/sqrt|lam| grows; the sigma factor is
    carried by slope_limit, not here.
    """
    mp, mm, nup = fluid.mu_plus, fluid.mu_minus, fluid.nu_plus
    rp, rm = fluid.rho_plus, fluid.rho_minus
    drho = rm - rp
    return (
        4.0 * mp * ((mp + mm) * nup + mp * mm) / (2.0 * mp + nup) * (rm / drho) ** 2
        + 4.0 * (mp * (mp + nup) / (2.0 * mp + nup) + mm) * mm * (rp / drho) ** 2
    )


def slope_limit(fluid: FluidParams) -> float:
    """Limit of K/A in the A-dominated regime: sigma * omega3 / omega1."""
    return fluid.sigma * omega3(fluid) / omega1(fluid)


def omega4_formula(fluid: FluidParams, sector: Sector) -> float:
    """Reference constant of |lam + K| >= omega4 (|lam| + A) (not sharp)."""
    ratio = slope_limit(fluid)
    s = 0.5 * math.sin(sector.epsilon / 2.0)
    return min(0.25, 0.25 * ratio, s, s * ratio)


def refused_heights(lam, a, denom, tol: Tolerances, strict: bool = False):
    """Where (lambda + K)^{-1} is refused, for denom = lambda + K.

    The inverse is refused when |lambda + K| < tol.height_inv_rel (|lambda| + A)
    or < 1e-300.  Returns the mask (scalars or arrays alike); with strict=True
    raises HeightNotInvertible at the first refused point instead.
    """
    mag = abs(denom)
    bad = (mag < tol.height_inv_rel * (abs(lam) + a)) | (mag < 1e-300)
    hit = first_offender(bad, lam, a) if strict else None
    if hit is not None:
        i, where = hit
        raise HeightNotInvertible(f"|lambda + K| = {float(np.ravel(mag)[i]):.3e} at {where}")
    return bad


def kinematic_weight(fluid: FluidParams, a, s_minus_N, s_plus_N, h):
    """Weighted normal-trace contribution w_h of the jump data to the
    kinematic equation, H = (lambda+K)^{-1} (d + w_h), from the S-_Nm and
    S+_Nm symbols (one entry per tangential component, scalars or arrays)."""
    drho = fluid.rho_minus - fluid.rho_plus
    return a * sum((fluid.rho_minus * sm - fluid.rho_plus * sp) * hm
                   for sm, sp, hm in zip(s_minus_N, s_plus_N, h)) / drho


@dataclass(frozen=True)
class HeightScanReport:
    """Scanned invertibility certificate for lambda + K."""

    fluid: FluidParams
    epsilon: float
    lambda0: float
    omega3: float
    omega4: float            # scanned min of |lam+K|/(|lam|+A) over |lam| >= lambda0
    omega4_formula: float
    slope: float             # measured K/A in the A-dominated regime
    slope_limit: float
    k_envelope: float        # max |K|/sqrt|lam| over A <= sqrt|lam|
    worst_lam: complex
    worst_a: float
    n_points: int

    def to_dict(self) -> dict:
        return {
            "fluid": self.fluid.to_dict(),
            "epsilon": self.epsilon,
            "lambda0": self.lambda0,
            "omega3": self.omega3,
            "omega4": self.omega4,
            "omega4_formula": self.omega4_formula,
            "slope": self.slope,
            "slope_limit": self.slope_limit,
            "k_envelope": self.k_envelope,
            "worst_point": {
                "re_lambda": self.worst_lam.real,
                "im_lambda": self.worst_lam.imag,
                "A": self.worst_a,
            },
            "n_points": self.n_points,
        }


def height_ratio(fluid: FluidParams, lam: np.ndarray, a: np.ndarray) -> np.ndarray:
    """|lam + K|/(|lam| + A) over arrays, the quantity the height scans bound."""
    k = SymbolKit.batch(fluid, lam, a).k_height
    return np.abs(lam + k) / (np.abs(lam) + a)


@dataclass(frozen=True)
class HeightCurve:
    """Per-magnitude minimum of |lam+K|/(|lam|+A) over one scan grid.

    The one evaluation of the height grid: every cutoff and the scanned
    omega4 are read off it, nothing downstream rescans the grid.
    """

    mags: np.ndarray         # scanned |lambda|, increasing
    per_min: np.ndarray      # min over angles and A at each magnitude
    worst: tuple             # (lam, A) attaining each minimum
    n_points: int

    def cutoff(self, floor: float) -> float:
        """Smallest grid cutoff with inf_{|lam| >= cutoff} |lam+K|/(|lam|+A) >= floor.

        Returns 0.0 when the bound holds over the whole scanned sector; raises
        NoCutoffFound when no cutoff inside the grid range works (sigma = 0
        can land here when K degenerates).
        """
        suffix = np.minimum.accumulate(self.per_min[::-1])[::-1]
        ok = suffix >= floor
        if not ok.any():
            raise NoCutoffFound(
                f"no cutoff in the scan grid attains |lam+K|/(|lam|+A) >= {floor:.1e}: "
                f"it is {self.per_min[-1]:.3e} at the largest |lambda| {self.mags[-1]:.3e}"
            )
        first = int(np.argmax(ok))
        return 0.0 if first == 0 else float(self.mags[first])


def height_curve(fluid: FluidParams, sector: Sector, grid: GridSpec,
                 mags: np.ndarray | None = None) -> HeightCurve:
    """Evaluate the height ratio on the scan grid, one magnitude at a time,
    in runs of at most lopatinski._TASK_POINTS points (read per call), so no
    process holds more than a scan task of points; mags, increasing,
    replaces the grid's |lambda| values (lam_mags()).  A magnitude keeps
    the point np.argmin picks over it whole: its first NaN ratio, else its
    first least ratio."""
    mags = grid.lam_mags() if mags is None else mags
    avals = grid.a_vals()
    per_mag = grid.n_angles * avals.size
    run = lopatinski._TASK_POINTS
    per_min = np.empty(mags.size)
    worst = []
    for i in range(mags.size):
        picks = []
        for start in range(0, per_mag, run):
            lam, a = grid.points(sector.epsilon, mags[i:i + 1], avals,
                                 np.arange(start, min(start + run, per_mag)))
            ratio = height_ratio(fluid, lam, a)
            k = int(np.argmin(ratio))
            picks.append((ratio[k], complex(lam[k]), float(a[k])))
        # np.argmin over the runs' picks is its pick over the whole magnitude
        ratio, lam, a = picks[int(np.argmin([p[0] for p in picks]))]
        per_min[i] = float(ratio)
        worst.append((lam, a))
    return HeightCurve(mags=mags, per_min=per_min, worst=tuple(worst),
                       n_points=mags.size * per_mag)


def height_scan(
    fluid: FluidParams,
    sector: Sector,
    curve: HeightCurve,
    lambda0: float,
) -> HeightScanReport:
    """Read omega4 above lambda0 off the scanned curve and measure the
    A-regime slope of K."""
    mags, per_min = curve.mags, curve.per_min
    idx = np.nonzero(mags >= max(lambda0, mags[0]))[0]
    kbest = idx[int(np.argmin(per_min[idx]))]
    w4 = float(per_min[kbest])
    worst_lam, worst_a = curve.worst[kbest]

    # slope probe: A = slope_ratio * sqrt|lam|, lam real spanning scales
    slope_ratio = 100.0
    lam_mags = np.array([1e-2, 1.0, 1e2])
    a = slope_ratio * np.sqrt(lam_mags)
    slope = float(np.mean(SymbolKit.batch(fluid, lam_mags, a).k_height.real / a))

    # |K| <= C sqrt|lam| envelope on the lam-dominated side
    lam, a, root = [], [], []
    for lam_mag in (1.0, 1e2, 1e4, 1e6):
        for ang in (0.0, (math.pi - sector.epsilon) / 2):
            for afrac in (1e-3, 1e-2, 1e-1, 1.0):
                lam.append(lam_mag * complex(math.cos(ang), math.sin(ang)))
                a.append(afrac * math.sqrt(lam_mag))
                root.append(math.sqrt(lam_mag))
    k = SymbolKit.batch(fluid, lam, a).k_height
    env = float(np.max(np.abs(k) / root))

    return HeightScanReport(
        fluid=fluid, epsilon=sector.epsilon, lambda0=float(lambda0),
        omega3=omega3(fluid), omega4=w4, omega4_formula=omega4_formula(fluid, sector),
        slope=slope, slope_limit=slope_limit(fluid), k_envelope=env,
        worst_lam=worst_lam, worst_a=worst_a, n_points=curve.n_points,
    )
