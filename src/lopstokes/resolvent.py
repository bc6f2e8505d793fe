"""Exponential-sum resolvent solutions and independent residual checks.

assemble_batch turns interface data at N spectral points into explicit
velocity and pressure profiles

    u_plus_J(x)  = g_plus_J  M_plus(x)  + beta_plus_J  exp(-B_plus x),  x >= 0,
    u_minus_J(x) = g_minus_J M_minus(x) + beta_minus_J exp(+B_minus x), x <= 0,
    p_minus(x)   = gamma_minus exp(+A x),                               x <= 0.

Everything downstream re-derives the governing equations from scratch:
residual operators differentiate the profiles term by term (the basis is
closed under d/dx) and the energy identity integrates them in closed form,
so these checks certify the coefficient algebra instead of echoing it.

Every point is independent, so the layer is array arithmetic throughout.
assemble_batch solves N points of one dimension and data mode at once into
a ProfileBatch, whose Profiles hold one (N,) array per field, and each check
(ODE, interface, kinematic, decay, energy) is written once, over such a
batch, returning one value per point; depth samples sit on axis 0, points
on the last axis.  A single point is a batch of one, so it gives the same
result alone as inside any batch.  The quadrature cross-check of the
energy integrals is a batch evaluation too: a fixed exp-sinh rule whose
nodes form a (nodes, N) depth array through Profile.__call__.
fuzz_residuals draws its corpus as array blocks of at most _CHUNK samples
of one dimension and mode, and solves each block with one assemble_batch.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .coefficients import (
    SymbolKit,
    amplitudes,
    kinematic_weight,
    refused_heights,
)
from .config import SOLVE_MODES, Tolerances
from .errors import QuadratureFailure
from .params import FluidParams, Sector, first_offender
from .symbols import char_roots_batch, check_det, check_roots, exp_diff_quot_batch

__all__ = [
    "Profile",
    "ProfileBatch",
    "FuzzReport",
    "assemble_batch",
    "energy_quadrature_check",
    "inner_product",
    "fuzz_corpus",
    "fuzz_residuals",
]

# Points per fuzz/solve batch: bounds the working set (a few dozen arrays of
# 20 x _CHUNK complex values) whatever the corpus or grid size, and keeps
# every (20, _CHUNK) depth array below config.ELISION_THRESHOLD, so a point
# gets the same bits in any batch.
_CHUNK = 512

# Every _EDGE_EVERY-th sample of a fuzz block lies on a sector edge, which
# uniform angles almost never reach.
_EDGE_EVERY = 16


def _field(v):
    return np.asarray(v, dtype=np.complex128) if isinstance(v, np.ndarray) else complex(v)


def _basis(side: int, b, a, x):
    """(M, e_B, e_A) at signed depth x (x >= 0 above, x <= 0 below).

    Broadcasts: rates of shape (N,) against depths of shape (k, N).
    """
    if side > 0:
        return -exp_diff_quot_batch(-b, -a, x), np.exp(-b * x), np.exp(-a * x)
    return exp_diff_quot_batch(a, b, x), np.exp(b * x), np.exp(a * x)


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

    Fields are (N,) arrays, one value per point of a batch, and evaluation
    broadcasts them against depths of shape (k, N).
    """

    __slots__ = ("side", "b", "a", "c_m", "c_b", "c_a")
    # numpy operands defer to __rmul__, so array * Profile scales pointwise
    __array_ufunc__ = None

    def __init__(self, side: int, b, a, c_m=0.0, c_b=0.0, c_a=0.0):
        if side not in (1, -1):
            raise ValueError("side must be +1 or -1")
        self.side = side
        self.b = _field(b)
        self.a = _field(a)
        self.c_m = _field(c_m)
        self.c_b = _field(c_b)
        self.c_a = _field(c_a)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Profile(side={self.side:+d}, b={self.b!r}, a={self.a!r}, "
                f"c_m={self.c_m!r}, c_b={self.c_b!r}, c_a={self.c_a!r})")

    @property
    def trace0(self):
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
        m, eb, ea = _basis(self.side, self.b, self.a, np.asarray(x, dtype=np.float64))
        out = self.c_m * m + self.c_b * eb + self.c_a * ea
        return complex(out) if np.ndim(out) == 0 else out

    def _compatible(self, other: "Profile") -> bool:
        return (self.side == other.side
                and (self.b is other.b or np.array_equal(self.b, other.b))
                and (self.a is other.a or np.array_equal(self.a, other.a)))

    def __add__(self, other: "Profile") -> "Profile":
        if not isinstance(other, Profile):
            return NotImplemented
        if not self._compatible(other):
            raise ValueError("profiles live on different sides or root pairs")
        return Profile(self.side, self.b, self.a,
                       self.c_m + other.c_m, self.c_b + other.c_b,
                       self.c_a + other.c_a)

    def __mul__(self, scalar) -> "Profile":
        c = _field(scalar)
        return Profile(self.side, self.b, self.a,
                       c * self.c_m, c * self.c_b, c * self.c_a)

    __rmul__ = __mul__


def _gram(b, a):
    """Pairing table G[i][j] = integral of basis_i * conj(basis_j) over the
    decay half-line, basis order (M, e_B, e_A).

    Every entry is a reciprocal of sums of rates: the divided differences
    cancel exactly, so the table is stable at near-confluent roots.
    """
    bb = b.conjugate()
    ab = a.conjugate()
    g01 = -1.0 / ((b + bb) * (a + bb))
    g02 = -1.0 / ((b + ab) * (a + ab))
    g00 = (a + b + ab + bb) / ((b + bb) * (b + ab) * (a + bb) * (a + ab))
    return ((g00, g01, g02),
            (g01.conjugate(), 1.0 / (b + bb), 1.0 / (b + ab)),
            (g02.conjugate(), 1.0 / (a + bb), 1.0 / (a + ab)))


def inner_product(p: Profile, q: Profile, gram=None):
    """Closed-form integral of p * conj(q) over the common half-line."""
    if not p._compatible(q):
        raise ValueError("profiles live on different sides or root pairs")
    g = _gram(p.b, p.a) if gram is None else gram
    cq = (q.c_m.conjugate(), q.c_b.conjugate(), q.c_a.conjugate())
    total = 0.0 + 0.0j
    for ci, row in zip((p.c_m, p.c_b, p.c_a), g):
        for cj, gij in zip(cq, row):
            total = total + ci * cj * gij
    return total


def _ixi(xi) -> tuple:
    return tuple(1j * np.asarray(v, dtype=np.float64) for v in xi)


def _divergence(ixi, us) -> Profile:
    total = us[-1].deriv()
    for j, u in enumerate(us[:-1]):
        total = total + ixi[j] * u
    return total


@dataclass(frozen=True)
class ProfileBatch:
    """Solutions at N points of one dimension, structure of arrays.

    lam, a, H and d are (N,) arrays, ixi and h one (N,) array per tangential
    component; d is None when no kinematic datum is checked.  valid is False
    where the kinematic height was refused (those points carry H = 0 and
    their residuals mean nothing).
    """

    fluid: FluidParams
    lam: np.ndarray
    a: np.ndarray
    ixi: tuple
    h: tuple
    d: np.ndarray | None
    H: np.ndarray
    u_plus: tuple[Profile, ...]
    u_minus: tuple[Profile, ...]
    pressure: Profile
    valid: np.ndarray

    def residuals(self, energy: bool = False) -> dict[str, np.ndarray]:
        """Per-point worst residual of each check: ode, interface (without
        the kinematic relation), kinematic (when d is set), decay, energy."""
        iface, kinematic = _interface(self)
        out = {"ode": _ode(self, _depths(self.lam, self.a)), "interface": iface}
        if kinematic is not None:
            out["kinematic"] = kinematic
        out["decay"] = _decay(self)
        if energy:
            out["energy"] = np.maximum(_side_energy(self, +1)[0], _side_energy(self, -1)[0])
        return out


def assemble_batch(
    fluid: FluidParams,
    lam,
    xi,
    h_hat,
    top,
    mode: str,
    tol: Tolerances | None = None,
    strict: bool = True,
) -> ProfileBatch:
    """Solve N points of one dimension and one data mode at once.

    lam (N,), xi (N, dim-1), h_hat (N, dim-1), top (N,) holds H in
    explicit-H mode and d in kinematic mode.  Raises WrongSign, SingularDetL
    and (with strict) HeightNotInvertible naming the first offending sample;
    with strict=False refused heights are flagged in ProfileBatch.valid
    instead.
    """
    if mode not in SOLVE_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    lam = np.asarray(lam, dtype=np.complex128)
    xi = np.asarray(xi, dtype=np.float64)
    h = np.asarray(h_hat, dtype=np.complex128)
    top = np.asarray(top, dtype=np.complex128)
    dim = xi.shape[1] + 1
    if h.shape != xi.shape:
        raise ValueError(f"h_hat must have shape ({dim - 1},), got {h.shape[1:]}")
    tol = tol or Tolerances()
    # A = |xi'| by math.hypot per point: np.hypot differs from it in the last
    # bit on about 0.6 % of points, which would move the solve reports' bytes
    a = np.array([math.hypot(*row) for row in xi.tolist()], dtype=np.float64)
    roots = char_roots_batch(fluid, lam, a)
    check_roots(roots, lam, a)
    kit = SymbolKit(fluid, lam, a, roots)
    check_det(kit.det, lam, a)
    ixi = _ixi(xi.T)
    hs = tuple(h.T)
    k = kit.k_height()
    valid = np.ones(lam.shape, dtype=bool)
    if mode == "kinematic":
        denom = lam + k
        refused = refused_heights(lam, a, denom, tol, strict=strict)
        w_h = kinematic_weight(fluid, a, [kit.s_minus_Nm(x) for x in ixi],
                               [kit.s_plus_Nm(x) for x in ixi], hs)
        H = np.where(refused, 0.0, (top + w_h) * (1.0 / np.where(refused, 1.0, denom)))
        valid = ~refused
    else:
        H = top
    amps = amplitudes(kit, ixi, hs, H)
    ap, bp, bm = roots
    return ProfileBatch(
        fluid=fluid, lam=lam, a=a, ixi=ixi, h=hs,
        d=top if mode == "kinematic" else None, H=H,
        u_plus=tuple(Profile(+1, bp, ap, c_m=amps["g_plus"][j], c_b=amps["beta_plus"][j])
                     for j in range(dim)),
        u_minus=tuple(Profile(-1, bm, a, c_m=amps["g_minus"][j], c_b=amps["beta_minus"][j])
                      for j in range(dim)),
        pressure=Profile(-1, bm, a, c_a=amps["gamma_minus"]),
        valid=valid,
    )


_LOG_DEPTHS = np.logspace(-2.0, 1.0, 20)


def _depths(lam, a):
    """Twenty log-spaced depths per point (axis 0), covering the decay scale."""
    return _LOG_DEPTHS[:, None] / (np.sqrt(np.abs(lam)) + a)


def _vmax(values):
    return functools.reduce(np.maximum, values)


def _ratio(num, den):
    """num/den, 0 where den is 0 (every constituent vanishes); a NaN stays NaN."""
    num, den = np.broadcast_arrays(num, den)
    return np.divide(num, den, out=np.zeros(num.shape), where=den != 0.0)


def _residual_at(parts: list[Profile], basis):
    """|sum of parts| over the largest constituent amplitude*basis term,
    worst over the depth axis.

    Judging against individual constituents (not the evaluated parts, which
    may themselves be cancellations of large pieces) keeps the residual an
    honest round-off measure in every asymptotic regime.
    """
    m, eb, ea = basis
    am, aeb, aea = np.abs(m), np.abs(eb), np.abs(ea)
    total = 0.0
    scale = 0.0
    for p in parts:
        total = total + (p.c_m * m + p.c_b * eb + p.c_a * ea)
        scale = _vmax((scale, np.abs(p.c_m) * am, np.abs(p.c_b) * aeb, np.abs(p.c_a) * aea))
    return _ratio(np.abs(total), scale).max(axis=0)


def _ode(s: ProfileBatch, xs):
    """Per-point max relative residual of the five interior equations at
    depths xs (axis 0)."""
    f = s.fluid
    n = len(s.u_plus)
    mu_p, mu_m, nu_p = f.mu_plus, f.mu_minus, f.nu_plus
    up, um, ixi = s.u_plus, s.u_minus, s.ixi
    bp, bm = up[0].b, um[0].b
    div_p = _divergence(ixi, up)
    basis_p = _basis(+1, bp, up[0].a, xs)
    basis_m = _basis(-1, bm, um[0].a, -xs)
    worst = []
    for J in range(n):
        forcing = (-nu_p * ixi[J]) * div_p if J < n - 1 else (-nu_p) * div_p.deriv()
        parts = [(mu_p * bp ** 2) * up[J], (-mu_p) * up[J].deriv().deriv(), forcing]
        worst.append(_residual_at(parts, basis_p))
    for J in range(n):
        grad_p = ixi[J] * s.pressure if J < n - 1 else s.pressure.deriv()
        parts = [(mu_m * bm ** 2) * um[J], (-mu_m) * um[J].deriv().deriv(), grad_p]
        worst.append(_residual_at(parts, basis_m))
    div_parts = [ixi[j] * um[j] for j in range(n - 1)]
    div_parts.append(um[-1].deriv())
    worst.append(_residual_at(div_parts, basis_m))
    return _vmax(worst)


def _rel(parts: list):
    """|sum| over the largest constituent, per point (0 where all vanish)."""
    return _ratio(np.abs(sum(parts)), _vmax([np.abs(p) for p in parts]))


def _trace_parts(p: Profile) -> list:
    return [p.c_b, p.c_a]


def _dtrace_parts(p: Profile) -> list:
    # Trace of the derivative, split into its additive constituents
    # (M'(0) = -side contributes c_m, the pure exponentials their rates).
    s = -1.0 if p.side > 0 else 1.0
    return [s * p.c_m, s * p.b * p.c_b, s * p.a * p.c_a]


def _sc(c, parts: list) -> list:
    return [c * q for q in parts]


def _div_trace_parts(ixi, us) -> list:
    """The trace of the divergence, split into its additive constituents:
    i xi_j u_j(0) for each tangential j, then u_N'(0)."""
    return [q for x, u in zip(ixi, us) for q in _sc(x, _trace_parts(u))] + _dtrace_parts(us[-1])


def _interface(s: ProfileBatch):
    """Every interface condition re-derived from the profile traces.

    Returns (worst, kinematic): the per-point worst relative residual of the
    stress, velocity-jump and divergence-trace conditions, and that of the
    kinematic relation (None when the batch carries no datum d).
    """
    f = s.fluid
    n = len(s.u_plus)
    a, lam, H, ixi = s.a, s.lam, s.H, s.ixi
    mu_p, mu_m, nu_p = f.mu_plus, f.mu_minus, f.nu_plus
    u_p, u_m = s.u_plus, s.u_minus

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
        + _sc(-1.0, _trace_parts(s.pressure))
        + [f.sigma_minus * a ** 2 * H]
    )
    ns_plus = _rel(
        _sc(2.0 * mu_p, _dtrace_parts(u_p[-1]))
        + _sc(nu_p - mu_p, _div_trace_parts(ixi, u_p))
        + [f.sigma_plus * a ** 2 * H]
    )
    jumps = tuple(
        _rel(_trace_parts(u_m[m]) + _sc(-1.0, _trace_parts(u_p[m])) + [-s.h[m]])
        for m in range(n - 1)
    )
    div_trace = _rel(_div_trace_parts(ixi, u_m))

    kin = None
    if s.d is not None:
        drho = f.rho_minus - f.rho_plus
        kin = _rel(
            [lam * H]
            + _sc(-f.rho_minus / drho, _trace_parts(u_m[-1]))
            + _sc(f.rho_plus / drho, _trace_parts(u_p[-1]))
            + [-s.d]
        )
    return _vmax([*t_stress, ns_minus, ns_plus, *jumps, div_trace]), kin


def _partial(u: Profile, idx: int, ixi, n: int) -> Profile:
    return u.deriv() if idx == n - 1 else ixi[idx] * u


def _side_energy(s: ProfileBatch, side: int):
    """Integrated balance of one phase: lam_term + dissipation + flux = 0.

    lam_term = rho lam sum ||u_J||^2; dissipation is the (real, nonnegative
    for admissible parameters) quadratic form in the symmetric gradient;
    flux pairs the boundary stress with the velocity trace.  Returns
    (defect, (lam_term, dissipation, flux)), the defect being |sum| over the
    largest of the three magnitudes, one value per point.
    """
    f = s.fluid
    n = len(s.u_plus)
    ixi = s.ixi
    us = s.u_plus if side > 0 else s.u_minus
    rho = f.rho_plus if side > 0 else f.rho_minus
    mu = f.mu_plus if side > 0 else f.mu_minus
    gram = _gram(us[0].b, us[0].a)

    norms = sum(inner_product(u, u, gram).real for u in us)
    lam_term = rho * s.lam * norms

    diss = 0.0
    for J in range(n):
        for K in range(n):
            d_jk = _partial(us[K], J, ixi, n) + _partial(us[J], K, ixi, n)
            diss = diss + (mu / 2.0) * inner_product(d_jk, d_jk, gram).real
    if side > 0:
        div_p = _divergence(ixi, us)
        diss = diss + (f.nu_plus - f.mu_plus) * inner_product(div_p, div_p, gram).real
        div_trace0 = div_p.trace0

    flux = 0.0 + 0.0j
    for J in range(n):
        du0 = us[J].deriv().trace0
        if J < n - 1:
            stress = mu * (du0 + ixi[J] * us[-1].trace0)
        elif side > 0:
            stress = 2.0 * mu * du0 + (f.nu_plus - f.mu_plus) * div_trace0
        else:
            stress = 2.0 * mu * du0 - s.pressure.trace0
        flux = flux + stress * us[J].trace0.conjugate()
    if side < 0:
        flux = -flux

    parts = (lam_term, diss + 0j, flux)
    return _rel(list(parts)), parts


# Exp-sinh rule for the rate-scaled half-line (Takahasi and Mori, Publ. RIMS
# 9, 1974): t = exp(pi/2 sinh u) for u in [-5, 2] at step 2^-7, 897 nodes.
# The ends drop under 1e-50 of a unit-rate integrand (t = 2.3e-51 at u = -5,
# exp(-2t) < 1e-258 past t = 298 at u = 2).  Every other node is the same
# rule at step 2^-6, and the gap between the two levels estimates the error;
# 2^-6 against 2^-5 leaves that estimate above 1e-9 where A << sqrt|lam|.
_DE_STEP = 2.0 ** -7
_DE_U = np.arange(-5 * 128, 2 * 128 + 1) * _DE_STEP
_DE_T = np.exp(0.5 * np.pi * np.sinh(_DE_U))
_DE_W = _DE_STEP * 0.5 * np.pi * np.cosh(_DE_U) * _DE_T


def _energy_jobs(s: ProfileBatch) -> list[Profile]:
    """Every profile whose squared norm enters the energy balance: per side
    the velocity components and the symmetric-gradient entries, then the
    compressible divergence and the pressure."""
    n = len(s.u_plus)
    jobs: list[Profile] = []
    for us in (s.u_plus, s.u_minus):
        jobs.extend(us)
        for J in range(n):
            for K in range(J, n):
                jobs.append(_partial(us[K], J, s.ixi, n) + _partial(us[J], K, s.ixi, n))
    jobs.append(_divergence(s.ixi, s.u_plus))
    jobs.append(s.pressure)
    return jobs


def _exp_sinh(p: Profile):
    """(integral, error estimate) of |p|^2 over its half-line, one per point.

    The rule runs on the rate-scaled half-line x = side * span * t with
    span = 1/min(Re b, Re a), so the slowest term decays like exp(-t).
    """
    span = 1.0 / np.minimum(p.b.real, p.a.real)
    f = np.abs(p(p.side * span * _DE_T[:, None])) ** 2 * span
    # one contiguous row per point, so each sum runs alike in any batch
    terms = np.ascontiguousarray((f * _DE_W[:, None]).T)
    val = terms.sum(axis=1)
    return val, np.abs(val - 2.0 * terms[:, ::2].sum(axis=1))


def energy_quadrature_check(s: ProfileBatch, quad_rel: float | None = None) -> float:
    """Quadrature cross-check of every integral in the balance.

    At each point of the batch, every squared norm entering the energy
    balance is integrated numerically by _exp_sinh, through Profile.__call__
    on a (nodes, N) depth array, independently of the closed form it is then
    compared with; returns the largest normalized mismatch.  Raises
    QuadratureFailure where the rule's error estimate exceeds quad_rel
    relative, naming the first such point.
    """
    quad_rel = Tolerances().energy_quad_rel if quad_rel is None else quad_rel
    jobs = _energy_jobs(s)
    closed = [inner_product(p, p).real for p in jobs]
    scale = np.maximum(_vmax(closed), 1e-300)
    worst = np.zeros(s.lam.shape)
    errs, bad = [], []
    for p, ref in zip(jobs, closed):
        val, err = _exp_sinh(p)
        checked = ~(ref < 1e-14 * scale)
        errs.append(err)
        bad.append(checked & ~(err <= quad_rel * np.maximum(np.abs(val), ref)))
        mismatch = np.abs(val - ref) / np.maximum(ref, 1e-8 * scale)
        worst = np.maximum(worst, np.where(checked, mismatch, 0.0))
    bad = np.array(bad)
    hit = first_offender(bad.any(axis=0), s.lam, s.a)
    if hit is not None:
        i, where = hit
        raise QuadratureFailure(
            f"energy integral error estimate {errs[int(np.argmax(bad[:, i]))][i]:.3e} "
            f"too large at {where}")
    return float(worst.max())


def _decay(s: ProfileBatch):
    """Per-point ratio of |component| to its rigorous decay envelope at the
    probe depth 10/(sqrt|lam| + A)."""
    xstar = 10.0 / (np.sqrt(np.abs(s.lam)) + s.a)
    worst = []
    for side, ps in ((+1, s.u_plus), (-1, (*s.u_minus, s.pressure))):
        b, a = ps[0].b, ps[0].a
        m, eb, ea = _basis(side, b, a, side * xstar)
        envelope = np.exp(-np.minimum(b.real, a.real) * xstar)
        for p in ps:
            bound = (np.abs(p.c_m) * xstar + np.abs(p.c_b) + np.abs(p.c_a)) * envelope
            val = np.abs(p.c_m * m + p.c_b * eb + p.c_a * ea)
            # 0 where the envelope underflows; a NaN stays NaN
            worst.append(np.divide(val, bound, out=np.zeros(val.shape),
                                   where=~(bound < 1e-300)))
    return _vmax(worst)


def _cnormal(rng: np.random.Generator, size):
    re = rng.standard_normal(size)
    im = rng.standard_normal(size)
    return (re + 1j * im) / math.sqrt(2.0)


def fuzz_corpus(seed: int, n_samples: int, sector: Sector):
    """Yield the fuzz corpus as blocks (dim, mode, lam, xi, h, top) of arrays.

    The strata (2, explicit-H), (2, kinematic), (3, explicit-H) and
    (3, kinematic) in turn, stratum k of (n_samples + 3 - k) // 4 samples,
    drawn from the one seeded generator in blocks of at most _CHUNK.
    Log-uniform |lambda| and A over [1e-4, 1e8], uniform sector angles but
    for every _EDGE_EVERY-th sample of a block, which lies on the edge
    arg lambda = +(pi - epsilon) or -(pi - epsilon) in turn; complex-normal
    data h and top (H or d by mode).
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    span = math.pi - sector.epsilon
    for k, (dim, mode) in enumerate(itertools.product((2, 3), SOLVE_MODES)):
        size = (n_samples + 3 - k) // 4
        for start in range(0, size, _CHUNK):
            n = min(_CHUNK, size - start)
            mag = 10.0 ** rng.uniform(-4.0, 8.0, n)
            ang = rng.uniform(-span, span, n)
            ang[::2 * _EDGE_EVERY] = span
            ang[_EDGE_EVERY::2 * _EDGE_EVERY] = -span
            lam = mag * np.exp(1j * ang)
            a = 10.0 ** rng.uniform(-4.0, 8.0, n)
            if dim == 2:
                xi = np.where(rng.integers(0, 2, n) == 1, a, -a)[:, None]
            else:
                phi = rng.uniform(0.0, 2.0 * math.pi, n)
                xi = np.stack((a * np.cos(phi), a * np.sin(phi)), axis=1)
            yield dim, mode, lam, xi, _cnormal(rng, (n, dim - 1)), _cnormal(rng, n)


@dataclass(frozen=True)
class FuzzReport:
    """Worst residuals per category over a seeded random corpus.

    height_failures, when set, holds the count and the first of the
    kinematic samples whose height inverse was refused; they are skipped
    by the residual checks and fail the report.  nan_residuals, when set,
    holds per category the count and the first of the samples whose
    residual is NaN; they fail the report too.  So does a category that no
    sample measured (see unsampled), whatever the others read.
    """

    seed: int
    n_samples: int
    epsilon: float
    worst: dict
    elapsed: float
    height_failures: dict | None = None
    nan_residuals: dict | None = None

    @property
    def unsampled(self) -> list[str]:
        """The categories without a measured residual: none of their samples
        was drawn, or every one was refused or NaN.  Their worst value is
        still the placeholder -1.0, below any residual."""
        return [c for c, rec in self.worst.items() if rec["value"] < 0.0]

    def passed(self, tol: Tolerances | None = None) -> bool:
        tol = tol or Tolerances()
        limits = {
            "ode": tol.fuzz_residual,
            "interface": tol.fuzz_residual,
            "kinematic": tol.fuzz_residual,
            "energy": tol.energy_defect,
            "decay": tol.decay_margin,
        }
        return (self.height_failures is None and self.nan_residuals is None
                and not self.unsampled
                and all(self.worst[k]["value"] <= limits[k] for k in self.worst))

    def to_dict(self) -> dict:
        # no timing field: reports must be byte-identical for a fixed seed
        d = {
            "seed": self.seed,
            "n_samples": self.n_samples,
            "epsilon": self.epsilon,
            "worst": self.worst,
        }
        if self.height_failures is not None:
            d["height_not_invertible"] = self.height_failures
        if self.nan_residuals is not None:
            d["nan_residuals"] = self.nan_residuals
        if self.unsampled:
            d["unsampled"] = self.unsampled
        return d


def fuzz_residuals(
    fluid: FluidParams,
    sector: Sector,
    n_samples: int,
    seed: int,
    tol: Tolerances | None = None,
) -> FuzzReport:
    """Random-corpus certification of the full solve path.

    Solves each block of the fuzz_corpus with one assemble_batch and
    records the worst ODE, interface, kinematic, decay and energy residual
    with its point: the first sample, in corpus order, that attains the
    category's maximum.  Kinematic samples whose height inverse is refused,
    and NaN residuals, are counted instead of aborting.
    """
    worst = {c: {"value": -1.0, "lam_re": 0.0, "lam_im": 0.0, "a": 0.0,
                 "dim": 0, "mode": ""}
             for c in ("ode", "interface", "kinematic", "decay", "energy")}
    refused = 0
    first_refused = None
    nans: dict[str, dict] = {}

    t0 = time.perf_counter()
    for dim, mode, lam, xi, h, top in fuzz_corpus(seed, n_samples, sector):
        batch = assemble_batch(fluid, lam, xi, h, top, mode, tol=tol, strict=False)
        ok = batch.valid

        def where(i: int) -> dict:
            return {"lam_re": float(lam[i].real), "lam_im": float(lam[i].imag),
                    "a": float(batch.a[i]), "dim": dim, "mode": mode}

        if not ok.all():
            refused += int(np.count_nonzero(~ok))
            if first_refused is None:
                first_refused = where(int(np.argmin(ok)))
        for c, v in batch.residuals(energy=True).items():
            nan = ok & np.isnan(v)
            if nan.any():
                hit = nans.setdefault(c, {"count": 0, "first": where(int(np.argmax(nan)))})
                hit["count"] += int(np.count_nonzero(nan))
            v = np.where(ok & ~nan, v, -np.inf)
            i = int(np.argmax(v))
            if v[i] > worst[c]["value"]:
                worst[c] = {"value": float(v[i]), **where(i)}
    elapsed = time.perf_counter() - t0

    failures = None if refused == 0 else {"count": refused, "first": first_refused}
    return FuzzReport(seed=seed, n_samples=n_samples, epsilon=sector.epsilon,
                      worst=worst, elapsed=elapsed, height_failures=failures,
                      nan_residuals=nans or None)
