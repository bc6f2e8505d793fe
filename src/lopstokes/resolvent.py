"""Exponential-sum resolvent solutions and independent residual checks.

assemble_profiles turns interface data at one spectral point into explicit
velocity and pressure profiles

    u_plus_J(x)  = g_plus_J  M_plus(x)  + beta_plus_J  exp(-B_plus x),  x >= 0,
    u_minus_J(x) = g_minus_J M_minus(x) + beta_minus_J exp(+B_minus x), x <= 0,
    p_minus(x)   = gamma_minus exp(+A x),                               x <= 0.

Everything downstream re-derives the governing equations from scratch:
residual operators differentiate the profiles term by term (the basis is
closed under d/dx) and the energy identity integrates them in closed form,
so these checks certify the coefficient algebra instead of echoing it.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass

import numpy as np

from .coefficients import (
    BetaSolution,
    SymbolKit,
    coefficient_symbols,
    height_K,
    height_rhs,
    solve_betas,
)
from .config import REFERENCE_PARAMS, Tolerances
from .errors import QuadratureFailure
from .lopatinski import ENTRY_TARGETS, LopatinskiMatrix, assemble
from .params import FluidParams, Sector, SpectralPoint
from .symbols import CharRoots, char_roots, exp_diff_quot_batch

__all__ = [
    "ExpTerm",
    "Profile",
    "BoundaryData",
    "ProfileSolution",
    "InterfaceResiduals",
    "EnergyReport",
    "FuzzReport",
    "assemble_profiles",
    "ode_residual",
    "interface_residual",
    "energy_balance",
    "energy_quadrature_check",
    "decay_margin",
    "default_x_samples",
    "inner_product",
    "fuzz_residuals",
    "amplitude_targets",
    "mutation_probe",
]


@dataclass(frozen=True)
class ExpTerm:
    """One amplitude * x^degree * exp(exponent*x) term of a profile."""

    amplitude: complex
    exponent: complex
    degree: int = 0

    def __call__(self, x):
        xx = np.asarray(x, dtype=np.float64)
        val = self.amplitude * xx ** self.degree * np.exp(self.exponent * xx)
        return complex(val) if np.ndim(x) == 0 else val

    def deriv(self) -> tuple["ExpTerm", ...]:
        out = [ExpTerm(self.amplitude * self.exponent, self.exponent, self.degree)]
        if self.degree:
            out.append(ExpTerm(self.amplitude * self.degree, self.exponent, self.degree - 1))
        return tuple(out)


class Profile:
    """One field component c_m * M(x) + c_b * e_B(x) + c_a * e_A(x).

    side +1: x >= 0, e_B = exp(-b x), e_A = exp(-a x), M = (e_B - e_A)/(b - a).
    side -1: x <= 0, e_B = exp(+b x), e_A = exp(+a x), M = (e_B - e_A)/(b - a).

    (b, a) are the decay rates, (B_plus, A_plus) on the plus side and
    (B_minus, A) on the minus side; both have positive real part, so every
    term decays into its half-space.  The basis is closed under d/dx

        side +1:  M' = -(a M + e_B),      side -1:  M' = a M + e_B,

    which keeps differentiation exact, and M(0) = 0 makes traces trivial.
    Evaluation routes the M part through the series-stabilized divided
    difference, so near-confluent roots lose no accuracy.
    """

    __slots__ = ("side", "b", "a", "c_m", "c_b", "c_a")

    def __init__(self, side: int, b: complex, a: complex,
                 c_m: complex = 0.0, c_b: complex = 0.0, c_a: complex = 0.0):
        if side not in (1, -1):
            raise ValueError("side must be +1 or -1")
        self.side = side
        self.b = complex(b)
        self.a = complex(a)
        self.c_m = complex(c_m)
        self.c_b = complex(c_b)
        self.c_a = complex(c_a)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Profile(side={self.side:+d}, b={self.b!r}, a={self.a!r}, "
                f"c_m={self.c_m!r}, c_b={self.c_b!r}, c_a={self.c_a!r})")

    @property
    def trace0(self) -> complex:
        return self.c_b + self.c_a

    def deriv(self) -> "Profile":
        if self.side > 0:
            return Profile(self.side, self.b, self.a,
                           -self.a * self.c_m,
                           -self.c_m - self.b * self.c_b,
                           -self.a * self.c_a)
        return Profile(self.side, self.b, self.a,
                       self.a * self.c_m,
                       self.c_m + self.b * self.c_b,
                       self.a * self.c_a)

    def __call__(self, x):
        scalar = np.ndim(x) == 0
        xx = np.atleast_1d(np.asarray(x, dtype=np.float64))
        if self.side > 0:
            m = -exp_diff_quot_batch(-self.b, -self.a, xx)
            eb = np.exp(-self.b * xx)
            ea = np.exp(-self.a * xx)
        else:
            m = exp_diff_quot_batch(self.a, self.b, xx)
            eb = np.exp(self.b * xx)
            ea = np.exp(self.a * xx)
        out = self.c_m * m + self.c_b * eb + self.c_a * ea
        return complex(out[0]) if scalar else out

    def _compatible(self, other: "Profile") -> bool:
        return (self.side == other.side and self.b == other.b and self.a == other.a)

    def __add__(self, other: "Profile") -> "Profile":
        if not isinstance(other, Profile):
            return NotImplemented
        if not self._compatible(other):
            raise ValueError("profiles live on different sides or root pairs")
        return Profile(self.side, self.b, self.a,
                       self.c_m + other.c_m, self.c_b + other.c_b,
                       self.c_a + other.c_a)

    def __mul__(self, scalar) -> "Profile":
        c = complex(scalar)
        return Profile(self.side, self.b, self.a,
                       c * self.c_m, c * self.c_b, c * self.c_a)

    __rmul__ = __mul__

    @property
    def terms(self) -> tuple[ExpTerm, ...]:
        """Amplitude/exponent/degree view; degree 1 appears only when the
        two rates coincide exactly (then M(x) = x e_A(x))."""
        sgn = -1.0 if self.side > 0 else 1.0
        out = []
        if self.c_m != 0:
            if self.b == self.a:
                # confluent M is sgn * x e_A: -x e^{-ax} above, x e^{ax} below
                out.append(ExpTerm(sgn * self.c_m, sgn * self.a, 1))
            else:
                w = self.c_m / (self.b - self.a)
                out.append(ExpTerm(w, sgn * self.b, 0))
                out.append(ExpTerm(-w, sgn * self.a, 0))
        if self.c_b != 0:
            out.append(ExpTerm(self.c_b, sgn * self.b, 0))
        if self.c_a != 0:
            out.append(ExpTerm(self.c_a, sgn * self.a, 0))
        return tuple(out)


def _gram(b: complex, a: complex) -> np.ndarray:
    """Pairing table G[i,j] = integral of basis_i * conj(basis_j) over the
    decay half-line, basis order (M, e_B, e_A).

    Every entry is a reciprocal of sums of rates: the divided differences
    cancel exactly, so the table is stable at near-confluent roots.
    """
    bb = b.conjugate()
    ab = a.conjugate()
    g = np.empty((3, 3), dtype=np.complex128)
    g[1, 1] = 1.0 / (b + bb)
    g[1, 2] = 1.0 / (b + ab)
    g[2, 1] = 1.0 / (a + bb)
    g[2, 2] = 1.0 / (a + ab)
    g[0, 1] = -1.0 / ((b + bb) * (a + bb))
    g[0, 2] = -1.0 / ((b + ab) * (a + ab))
    g[1, 0] = g[0, 1].conjugate()
    g[2, 0] = g[0, 2].conjugate()
    g[0, 0] = (a + b + ab + bb) / ((b + bb) * (b + ab) * (a + bb) * (a + ab))
    return g


def inner_product(p: Profile, q: Profile, gram: np.ndarray | None = None) -> complex:
    """Closed-form integral of p * conj(q) over the common half-line."""
    if not p._compatible(q):
        raise ValueError("profiles live on different sides or root pairs")
    g = _gram(p.b, p.a) if gram is None else gram
    cp = (p.c_m, p.c_b, p.c_a)
    cq = (q.c_m, q.c_b, q.c_a)
    total = 0.0 + 0.0j
    for i in range(3):
        if cp[i] == 0:
            continue
        for j in range(3):
            if cq[j] == 0:
                continue
            total += cp[i] * cq[j].conjugate() * g[i, j]
    return total


@dataclass(frozen=True)
class BoundaryData:
    """Interface data: tangential velocity jumps h_m, and either the height
    H directly (explicit-H) or the kinematic datum d with H derived as
    (lambda + K)^{-1} (d + w_h)."""

    h_hat: tuple[complex, ...]
    H_hat: complex | None = None
    d_hat: complex | None = None
    mode: str = "explicit-H"

    def __post_init__(self):
        if self.mode not in ("explicit-H", "kinematic"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "kinematic":
            if self.H_hat is not None:
                raise ValueError("kinematic mode derives H_hat; do not supply it")
            if self.d_hat is None:
                raise ValueError("kinematic mode requires d_hat")
        elif self.H_hat is None:
            raise ValueError("explicit-H mode requires H_hat")

    @classmethod
    def explicit(cls, h_hat, H_hat: complex, d_hat: complex | None = None) -> "BoundaryData":
        return cls(tuple(complex(v) for v in h_hat), complex(H_hat), d_hat, "explicit-H")

    @classmethod
    def kinematic(cls, h_hat, d_hat: complex) -> "BoundaryData":
        return cls(tuple(complex(v) for v in h_hat), None, complex(d_hat), "kinematic")


@dataclass(frozen=True)
class ProfileSolution:
    """Assembled solution at one spectral point.

    Components are Profiles (exact derivatives, closed-form integrals);
    term_representation exposes the raw amplitude/exponent list.
    """

    fluid: FluidParams
    point: SpectralPoint
    roots: CharRoots
    data: BoundaryData
    betas: BetaSolution
    u_plus: tuple[Profile, ...]
    u_minus: tuple[Profile, ...]
    pressure: Profile
    H_hat_effective: complex
    k_height: complex

    @property
    def dim(self) -> int:
        return self.point.dim

    def divergence(self, side: int) -> Profile:
        us = self.u_plus if side > 0 else self.u_minus
        total = us[-1].deriv()
        for j, u in enumerate(us[:-1]):
            total = total + (1j * self.point.xi[j]) * u
        return total

    def term_representation(self) -> dict:
        return {
            "u_plus": tuple(u.terms for u in self.u_plus),
            "u_minus": tuple(u.terms for u in self.u_minus),
            "pressure": self.pressure.terms,
        }


def amplitude_targets(dim: int) -> tuple[str, ...]:
    """Names of every solution amplitude at dimension dim, as perturb targets."""
    names = []
    for base in ("beta_plus", "beta_minus", "g_plus", "g_minus"):
        names.extend(f"{base}_{j + 1}" for j in range(dim - 1))
        names.append(f"{base}_n")
    names.append("gamma_minus")
    return tuple(names)


def _mutated_amplitudes(bs: BetaSolution, dim: int, target: str, rel: float):
    gp = bs.g_plus.copy()
    gm = bs.g_minus.copy()
    bp = bs.beta_plus.copy()
    bm = bs.beta_minus.copy()
    gamma = bs.gamma_minus
    slots: dict[str, tuple[np.ndarray, int]] = {}
    for arr, base in ((bp, "beta_plus"), (bm, "beta_minus"),
                      (gp, "g_plus"), (gm, "g_minus")):
        for j in range(dim - 1):
            slots[f"{base}_{j + 1}"] = (arr, j)
        slots[f"{base}_n"] = (arr, dim - 1)
    if target == "gamma_minus":
        gamma = gamma * (1.0 + rel)
    elif target in slots:
        arr, i = slots[target]
        arr[i] *= 1.0 + rel
    elif target not in ENTRY_TARGETS:
        raise ValueError(f"unknown mutation target {target!r}")
    return gp, gm, bp, bm, gamma


def assemble_profiles(
    fluid: FluidParams,
    sp: SpectralPoint,
    data: BoundaryData,
    sector: Sector | None = None,
    tol: Tolerances | None = None,
    perturb: tuple[str, float] | None = None,
) -> ProfileSolution:
    """Solve the interface system and emit the explicit profiles.

    In kinematic mode the height amplitude is obtained from the closed
    kinematic relation first (raising HeightNotInvertible when lambda + K
    degenerates), then the velocity problem is solved with that height.
    perturb scales one amplitude or matrix entry by (1 + rel) so the
    downstream checks can prove they detect defects.
    """
    r = char_roots(fluid, sp)
    L = assemble(fluid, sp, r, perturb=perturb)
    h = np.asarray(data.h_hat, dtype=np.complex128)
    if data.mode == "kinematic":
        hs = height_K(fluid, sp, L, sector=sector, tol=tol)
        cs = coefficient_symbols(fluid, sp, r, L)
        w_h = height_rhs(cs, h)
        H = (complex(data.d_hat) + w_h) * hs.inv
        k = hs.K
    else:
        H = complex(data.H_hat)
        k = complex(SymbolKit.from_matrix(L).k_height())
    bs = solve_betas(fluid, sp, r, L, h, H)

    if perturb is not None:
        gp, gm, bp, bm, gamma = _mutated_amplitudes(bs, sp.dim, *perturb)
    else:
        gp, gm, bp, bm, gamma = bs.g_plus, bs.g_minus, bs.beta_plus, bs.beta_minus, bs.gamma_minus

    a = complex(sp.a)
    u_plus = tuple(
        Profile(+1, r.b_plus, r.a_plus, c_m=gp[j], c_b=bp[j]) for j in range(sp.dim)
    )
    u_minus = tuple(
        Profile(-1, r.b_minus, a, c_m=gm[j], c_b=bm[j]) for j in range(sp.dim)
    )
    pressure = Profile(-1, r.b_minus, a, c_a=gamma)
    return ProfileSolution(
        fluid=fluid, point=sp, roots=r, data=data, betas=bs,
        u_plus=u_plus, u_minus=u_minus, pressure=pressure,
        H_hat_effective=H, k_height=k,
    )


def default_x_samples(sp: SpectralPoint) -> np.ndarray:
    """Twenty log-spaced depths covering the natural decay scale."""
    return np.logspace(-2.0, 1.0, 20) / (math.sqrt(abs(sp.lam)) + sp.a)


def _basis_at(side: int, b: complex, a: complex, xs: np.ndarray):
    """(M, e_B, e_A) sampled at the signed depth for the given side."""
    if side > 0:
        return (-exp_diff_quot_batch(-b, -a, xs),
                np.exp(-b * xs), np.exp(-a * xs))
    return (exp_diff_quot_batch(a, b, -xs),
            np.exp(-b * xs), np.exp(-a * xs))


def _residual_at(parts: list[Profile], basis) -> float:
    """|sum of parts| over the largest constituent amplitude*basis term.

    Judging against individual constituents (not the evaluated parts, which
    may themselves be cancellations of large pieces) keeps the residual an
    honest round-off measure in every asymptotic regime.
    """
    m, eb, ea = basis
    total = np.zeros(m.shape, dtype=np.complex128)
    scale = np.zeros(m.shape, dtype=np.float64)
    for p in parts:
        total += p.c_m * m + p.c_b * eb + p.c_a * ea
        np.maximum(scale, abs(p.c_m) * np.abs(m), out=scale)
        np.maximum(scale, abs(p.c_b) * np.abs(eb), out=scale)
        np.maximum(scale, abs(p.c_a) * np.abs(ea), out=scale)
    mask = scale > 0.0
    if not mask.any():
        return 0.0
    return float(np.max(np.abs(total)[mask] / scale[mask]))


def ode_residual(
    fluid: FluidParams,
    sp: SpectralPoint,
    sol: ProfileSolution,
    x_samples=None,
) -> float:
    """Max relative residual of the five interior equations.

    Both momentum balances and the minus-phase divergence constraint are
    evaluated by exact term-by-term differentiation at |x| samples placed
    on the correct side, each equation normalized by its largest term.
    """
    xs = np.abs(np.asarray(
        default_x_samples(sp) if x_samples is None else x_samples, dtype=np.float64))
    n = sp.dim
    r = sol.roots
    mu_p, mu_m, nu_p = fluid.mu_plus, fluid.mu_minus, fluid.nu_plus
    ixi = [1j * v for v in sp.xi]
    div_p = sol.divergence(+1)
    basis_p = _basis_at(+1, r.b_plus, r.a_plus, xs)
    basis_m = _basis_at(-1, r.b_minus, complex(sp.a), xs)
    worst = 0.0
    for J in range(n):
        if J < n - 1:
            forcing = (-nu_p * ixi[J]) * div_p
        else:
            forcing = (-nu_p) * div_p.deriv()
        parts = [
            (mu_p * r.b_plus ** 2) * sol.u_plus[J],
            (-mu_p) * sol.u_plus[J].deriv().deriv(),
            forcing,
        ]
        worst = max(worst, _residual_at(parts, basis_p))
    for J in range(n):
        grad_p = ixi[J] * sol.pressure if J < n - 1 else sol.pressure.deriv()
        parts = [
            (mu_m * r.b_minus ** 2) * sol.u_minus[J],
            (-mu_m) * sol.u_minus[J].deriv().deriv(),
            grad_p,
        ]
        worst = max(worst, _residual_at(parts, basis_m))
    div_parts = [ixi[j] * sol.u_minus[j] for j in range(n - 1)]
    div_parts.append(sol.u_minus[-1].deriv())
    worst = max(worst, _residual_at(div_parts, basis_m))
    return worst


def _rel(parts: list[complex]) -> float:
    scale = max(abs(p) for p in parts)
    if scale == 0.0:
        return 0.0
    return abs(sum(parts)) / scale


@dataclass(frozen=True)
class InterfaceResiduals:
    """Relative residual of each interface condition, reported individually."""

    tangential_stress: tuple[float, ...]
    normal_stress_minus: float
    normal_stress_plus: float
    velocity_jump: tuple[float, ...]
    divergence_trace: float
    kinematic: float | None

    def max(self) -> float:
        vals = [*self.tangential_stress, self.normal_stress_minus,
                self.normal_stress_plus, *self.velocity_jump,
                self.divergence_trace]
        if self.kinematic is not None:
            vals.append(self.kinematic)
        return max(vals)

    def as_dict(self) -> dict:
        return {
            "tangential_stress": list(self.tangential_stress),
            "normal_stress_minus": self.normal_stress_minus,
            "normal_stress_plus": self.normal_stress_plus,
            "velocity_jump": list(self.velocity_jump),
            "divergence_trace": self.divergence_trace,
            "kinematic": self.kinematic,
        }


def _trace_parts(p: Profile) -> list[complex]:
    return [p.c_b, p.c_a]


def _dtrace_parts(p: Profile) -> list[complex]:
    # Trace of the derivative, split into its additive constituents
    # (M'(0) = -side contributes c_m, the pure exponentials their rates).
    s = -1.0 if p.side > 0 else 1.0
    return [s * p.c_m, s * p.b * p.c_b, s * p.a * p.c_a]


def _sc(c: complex, parts: list[complex]) -> list[complex]:
    return [c * q for q in parts]


def interface_residual(
    fluid: FluidParams,
    sp: SpectralPoint,
    sol: ProfileSolution,
    data: BoundaryData | None = None,
) -> InterfaceResiduals:
    """Re-derive every interface condition from the profile traces.

    Uses only traces and trace derivatives of the assembled profiles plus
    the raw data, never the boundary matrix, so it is an independent check
    of the whole coefficient pipeline.  Each condition is flattened to its
    additive constituents and |sum| is judged against the largest one;
    grouped traces can themselves be near-total cancellations of large
    amplitudes, and normalizing by those would turn plain round-off into
    a fake defect.  The kinematic relation is checked whenever a d value
    is available (always, in kinematic mode).
    """
    data = sol.data if data is None else data
    n = sp.dim
    a = sp.a
    lam = sp.lam
    ixi = [1j * v for v in sp.xi]
    mu_p, mu_m, nu_p = fluid.mu_plus, fluid.mu_minus, fluid.nu_plus
    H = sol.H_hat_effective
    u_p, u_m = sol.u_plus, sol.u_minus

    t_stress = tuple(
        _rel(
            _sc(mu_m, _dtrace_parts(u_m[m]))
            + _sc(mu_m * ixi[m], _trace_parts(u_m[-1]))
            + _sc(-mu_p, _dtrace_parts(u_p[m]))
            + _sc(-mu_p * ixi[m], _trace_parts(u_p[-1]))
        )
        for m in range(n - 1)
    )
    ns_minus = _rel(
        _sc(2.0 * mu_m, _dtrace_parts(u_m[-1]))
        + _sc(-1.0, _trace_parts(sol.pressure))
        + [fluid.sigma_minus * a ** 2 * H]
    )
    div_p_parts: list[complex] = []
    for j in range(n - 1):
        div_p_parts += _sc(ixi[j], _trace_parts(u_p[j]))
    div_p_parts += _dtrace_parts(u_p[-1])
    ns_plus = _rel(
        _sc(2.0 * mu_p, _dtrace_parts(u_p[-1]))
        + _sc(nu_p - mu_p, div_p_parts)
        + [fluid.sigma_plus * a ** 2 * H]
    )
    jumps = tuple(
        _rel(_trace_parts(u_m[m]) + _sc(-1.0, _trace_parts(u_p[m]))
             + [-complex(data.h_hat[m])])
        for m in range(n - 1)
    )
    div_m_parts: list[complex] = []
    for j in range(n - 1):
        div_m_parts += _sc(ixi[j], _trace_parts(u_m[j]))
    div_m_parts += _dtrace_parts(u_m[-1])
    div_trace = _rel(div_m_parts)

    kin = None
    if data.d_hat is not None:
        drho = fluid.rho_minus - fluid.rho_plus
        kin = _rel(
            [lam * H]
            + _sc(-fluid.rho_minus / drho, _trace_parts(u_m[-1]))
            + _sc(fluid.rho_plus / drho, _trace_parts(u_p[-1]))
            + [-complex(data.d_hat)]
        )
    return InterfaceResiduals(
        tangential_stress=t_stress, normal_stress_minus=ns_minus,
        normal_stress_plus=ns_plus, velocity_jump=jumps,
        divergence_trace=div_trace, kinematic=kin,
    )


def _partial(u: Profile, idx: int, ixi: list, n: int) -> Profile:
    return u.deriv() if idx == n - 1 else ixi[idx] * u


@dataclass(frozen=True)
class EnergyReport:
    """Integrated balance per phase: lam_term + dissipation + flux = 0.

    lam_term = rho lam sum ||u_J||^2; dissipation is the (real, nonnegative
    for admissible parameters) quadratic form in the symmetric gradient;
    flux pairs the boundary stress with the velocity trace.  defects are
    |sum| over the largest of the three magnitudes.
    """

    plus_defect: float
    minus_defect: float
    plus_parts: tuple[complex, complex, complex]
    minus_parts: tuple[complex, complex, complex]

    def max(self) -> float:
        return max(self.plus_defect, self.minus_defect)


def _side_energy(fluid, sp, sol, side: int):
    n = sp.dim
    ixi = [1j * v for v in sp.xi]
    us = sol.u_plus if side > 0 else sol.u_minus
    rho = fluid.rho_plus if side > 0 else fluid.rho_minus
    mu = fluid.mu_plus if side > 0 else fluid.mu_minus
    gram = _gram(us[0].b, us[0].a)

    norms = sum(inner_product(u, u, gram).real for u in us)
    lam_term = rho * sp.lam * norms

    diss = 0.0
    for J in range(n):
        for K in range(n):
            d_jk = _partial(us[K], J, ixi, n) + _partial(us[J], K, ixi, n)
            diss += (mu / 2.0) * inner_product(d_jk, d_jk, gram).real
    if side > 0:
        div_p = sol.divergence(+1)
        diss += (fluid.nu_plus - fluid.mu_plus) * inner_product(div_p, div_p, gram).real
        div_trace0 = div_p.trace0

    flux = 0.0 + 0.0j
    for J in range(n):
        du0 = us[J].deriv().trace0
        if J < n - 1:
            stress = mu * (du0 + ixi[J] * us[-1].trace0)
        elif side > 0:
            stress = 2.0 * mu * du0 + (fluid.nu_plus - fluid.mu_plus) * div_trace0
        else:
            stress = 2.0 * mu * du0 - sol.pressure.trace0
        flux += stress * us[J].trace0.conjugate()
    if side < 0:
        flux = -flux

    parts = (lam_term, complex(diss), flux)
    scale = max(abs(p) for p in parts)
    defect = 0.0 if scale == 0.0 else abs(sum(parts)) / scale
    return defect, parts


def energy_balance(fluid: FluidParams, sp: SpectralPoint, sol: ProfileSolution) -> EnergyReport:
    """Closed-form integration-by-parts balance for both phases."""
    dp, pp = _side_energy(fluid, sp, sol, +1)
    dm, pm = _side_energy(fluid, sp, sol, -1)
    return EnergyReport(plus_defect=dp, minus_defect=dm,
                        plus_parts=pp, minus_parts=pm)


def energy_quadrature_check(
    fluid: FluidParams,
    sp: SpectralPoint,
    sol: ProfileSolution,
    quad_rel: float | None = None,
) -> float:
    """Adaptive-quadrature cross-check of every integral in the balance.

    Each squared norm entering energy_balance is recomputed numerically on
    the rate-scaled half-line and compared with the closed form; returns the
    largest normalized mismatch.
    """
    from scipy.integrate import quad

    tol = Tolerances()
    quad_rel = tol.volevich_quad_rel if quad_rel is None else quad_rel
    n = sp.dim
    ixi = [1j * v for v in sp.xi]
    jobs: list[Profile] = []
    for side in (+1, -1):
        us = sol.u_plus if side > 0 else sol.u_minus
        jobs.extend(us)
        for J in range(n):
            for K in range(J, n):
                jobs.append(_partial(us[K], J, ixi, n) + _partial(us[J], K, ixi, n))
    jobs.append(sol.divergence(+1))
    jobs.append(sol.pressure)

    closed = [inner_product(p, p).real for p in jobs]
    scale = max(max(closed), 1e-300)
    worst = 0.0
    for p, ref in zip(jobs, closed):
        if ref < 1e-14 * scale:
            continue
        rate = min(p.b.real, p.a.real)
        span = 1.0 / rate
        sgn = 1.0 if p.side > 0 else -1.0

        def integrand(t: float) -> float:
            return abs(p(sgn * span * t)) ** 2 * span

        val, err = quad(integrand, 0.0, np.inf, epsrel=quad_rel, epsabs=0.0, limit=200)
        if err > 1e-6 * max(abs(val), ref):
            raise QuadratureFailure(
                f"energy integral error estimate {err:.3e} too large at "
                f"lam={sp.lam!r}, A={sp.a!r}")
        worst = max(worst, abs(val - ref) / max(ref, 1e-8 * scale))
    return worst


def decay_margin(sol: ProfileSolution) -> float:
    """Ratio of |component| to its rigorous decay envelope at the probe
    depth 10/(sqrt|lam| + A); must never exceed 1 (up to round-off)."""
    sp = sol.point
    xstar = 10.0 / (math.sqrt(abs(sp.lam)) + sp.a)
    worst = 0.0
    for p in (*sol.u_plus, *sol.u_minus, sol.pressure):
        cmin = min(p.b.real, p.a.real)
        bound = (abs(p.c_m) * xstar + abs(p.c_b) + abs(p.c_a)) * math.exp(-cmin * xstar)
        if bound < 1e-300:
            continue
        val = abs(p(p.side * xstar))
        worst = max(worst, val / bound)
    return worst


def _cnormal(rng: np.random.Generator, size=None):
    re = rng.standard_normal(size)
    im = rng.standard_normal(size)
    return (re + 1j * im) / math.sqrt(2.0)


@dataclass(frozen=True)
class FuzzReport:
    """Worst residuals per category over a seeded random corpus."""

    seed: int
    n_samples: int
    epsilon: float
    energy_included: bool
    worst: dict
    elapsed: float

    def passed(self, tol: Tolerances | None = None) -> bool:
        tol = tol or Tolerances()
        limits = {
            "ode": tol.fuzz_residual,
            "interface": tol.fuzz_residual,
            "kinematic": tol.fuzz_residual,
            "energy": tol.energy_defect,
            "decay": 1.0 + 1e-9,
        }
        return all(self.worst[k]["value"] <= limits[k]
                   for k in self.worst)

    def to_dict(self) -> dict:
        # no timing field: reports must be byte-identical for a fixed seed
        return {
            "seed": self.seed,
            "n_samples": self.n_samples,
            "epsilon": self.epsilon,
            "energy_included": self.energy_included,
            "worst": self.worst,
        }


def fuzz_residuals(
    fluid: FluidParams | None = None,
    sector: Sector | None = None,
    n_samples: int = 10000,
    seed: int = 20260817,
    energy: bool = False,
    tol: Tolerances | None = None,
) -> FuzzReport:
    """Random-corpus certification of the full solve path.

    Samples log-uniform |lambda| and A over [1e-4, 1e8], uniform sector
    angles, complex-normal data, mixed dimensions 2 and 3, alternating
    explicit-H and kinematic modes.  Records the worst ODE, interface,
    kinematic, decay (and optionally energy) residuals with their points.
    """
    fluid = fluid or REFERENCE_PARAMS
    sector = sector or Sector(epsilon=math.pi / 4)
    rng = np.random.Generator(np.random.PCG64(seed))
    span = math.pi - sector.epsilon

    cats = ["ode", "interface", "kinematic", "decay"]
    if energy:
        cats.append("energy")
    worst = {c: {"value": -1.0, "lam_re": 0.0, "lam_im": 0.0, "a": 0.0,
                 "dim": 0, "mode": ""} for c in cats}

    def record(cat: str, value: float, sp: SpectralPoint, dim: int, mode: str):
        if value > worst[cat]["value"]:
            worst[cat] = {"value": value, "lam_re": sp.lam.real,
                          "lam_im": sp.lam.imag, "a": sp.a,
                          "dim": dim, "mode": mode}

    t0 = time.perf_counter()
    for i in range(n_samples):
        dim = 2 + int(rng.integers(0, 2))
        mag = 10.0 ** rng.uniform(-4.0, 8.0)
        ang = rng.uniform(-span, span)
        lam = complex(mag * math.cos(ang), mag * math.sin(ang))
        a = 10.0 ** rng.uniform(-4.0, 8.0)
        if dim == 2:
            xi = (a if rng.integers(0, 2) else -a,)
        else:
            phi = rng.uniform(0.0, 2.0 * math.pi)
            xi = (a * math.cos(phi), a * math.sin(phi))
        sp = SpectralPoint(lam=lam, xi=xi)
        h = _cnormal(rng, dim - 1)
        if i % 2 == 0:
            data = BoundaryData.explicit(h, H_hat=complex(_cnormal(rng)))
        else:
            data = BoundaryData.kinematic(h, d_hat=complex(_cnormal(rng)))
        sol = assemble_profiles(fluid, sp, data, sector=sector, tol=tol)
        mode = data.mode

        record("ode", ode_residual(fluid, sp, sol), sp, dim, mode)
        ires = interface_residual(fluid, sp, sol)
        non_kin = max(*ires.tangential_stress, ires.normal_stress_minus,
                      ires.normal_stress_plus, *ires.velocity_jump,
                      ires.divergence_trace)
        record("interface", non_kin, sp, dim, mode)
        if ires.kinematic is not None:
            record("kinematic", ires.kinematic, sp, dim, mode)
        record("decay", decay_margin(sol), sp, dim, mode)
        if energy:
            record("energy", energy_balance(fluid, sp, sol).max(), sp, dim, mode)
    elapsed = time.perf_counter() - t0

    return FuzzReport(seed=seed, n_samples=n_samples, epsilon=sector.epsilon,
                      energy_included=energy, worst=worst, elapsed=elapsed)


def mutation_probe(
    fluid: FluidParams,
    sp: SpectralPoint,
    data: BoundaryData,
    rel: float = 1e-3,
    sector: Sector | None = None,
) -> dict[str, float]:
    """Worst residual triggered by perturbing each single amplitude or
    boundary-matrix entry by (1 + rel); every value must clear the
    detection floor for the suite to be falsifiable."""
    out = {}
    for target in (*amplitude_targets(sp.dim), *ENTRY_TARGETS):
        sol = assemble_profiles(fluid, sp, data, sector=sector,
                                perturb=(target, rel))
        out[target] = max(ode_residual(fluid, sp, sol),
                          interface_residual(fluid, sp, sol).max())
    return out
