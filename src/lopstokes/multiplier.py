"""Finite-difference certification of multiplier classes.

A symbol m(lambda, xi') has order s and type 1 when

    |d_xi'^k ((tau d_tau)^l m)| <= C (sqrt|lambda| + A)^{s-|k|}

and type 2 when the right side is C (sqrt|lambda| + A)^s A^{-|k|}, for
|k| <= 2 and l in {0, 1}, with lambda = gamma + i tau.  The estimator
samples a log grid over (|lambda|, arg lambda, A) and two frequency
directions in dimension 3, forms central differences (xi step 1e-4 A per
component, tau step 1e-4 max(|tau|, |lambda|)), and reports the largest
ratio estimate/bound per derivative index.

Floating point dictates a noise floor: a second difference of a symbol of
size M carries rounding noise about eps M / h^2, which can dwarf a genuinely
tiny derivative (type-1 symbols at A << sqrt|lambda| are the canonical
case).  Estimates below 10x the floor are discarded rather than trusted;
constants then come from the resolvable region, and the pass criterion is
stability (< 2x drift) under a refinement that doubles grid density and
widens both ranges by a decade, which is what exposes wrong-degree claims
as boundary blow-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .coefficients import SymbolKit
from .config import ClassGridSpec, Tolerances
from .errors import GridTooCoarse
from .params import FluidParams, Sector

__all__ = [
    "Claim",
    "MultiplierClassReport",
    "estimate_class",
    "declared_claims",
    "certify_table",
    "KAPPAS",
]

NOISE_EPS = 1e-15

# derivative multi-indices (orders in xi_1, xi_2) and the stencil offsets
KAPPAS = ("00", "10", "01", "20", "02", "11")
_OFFSETS = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1))
_OID = {off: i for i, off in enumerate(_OFFSETS)}

_DIRECTIONS = ((1.0, 0.0), (0.6, 0.8))


@dataclass(frozen=True)
class Claim:
    """One symbol with its claimed (order, type) and sector floor."""

    name: str
    s: float
    mtype: int
    fn: Callable  # fn(kit: SymbolKit, ixi1, ixi2) -> complex array
    lam_floor: float = 0.0


@dataclass
class MultiplierClassReport:
    name: str
    s: float
    mtype: int
    lam_floor: float
    constants: dict            # (kappa, ell) -> C over the base grid
    refined_constants: dict
    drift: dict                # (kappa, ell) -> refined/base ratio
    discarded: int
    unresolved: tuple
    n_base: int
    n_refined: int
    verdict: str               # "pass" | "fail"

    def max_drift(self) -> float:
        vals = [v for v in self.drift.values() if math.isfinite(v)]
        return max(vals) if vals else math.inf

    def rows(self):
        """CSV rows: kappa_multi_index, ell, constant, refinement_drift."""
        for (kappa, ell), c in sorted(self.constants.items()):
            yield kappa, ell, c, self.drift.get((kappa, ell), math.nan)


class _GridRun:
    """Cached 27-point stencil evaluations over one flattened grid."""

    def __init__(self, fluid: FluidParams, sector: Sector, grid: ClassGridSpec,
                 lam_floor: float, tol: Tolerances):
        mags = grid.lam_mags()
        if lam_floor > 0.0:
            # keep the floor itself on every grid: the sup of a floored claim
            # typically sits at the |lam| = lam_floor edge, and base/refined
            # runs must sample that edge identically or the drift column
            # measures the floor discretization instead of grid convergence
            mags = np.unique(np.concatenate(([lam_floor], mags[mags > lam_floor])))
        if mags.size == 0:
            raise GridTooCoarse(
                f"no grid magnitudes at or above the floor {lam_floor:.3e}"
            )
        angs = grid.angles(sector.epsilon)
        avals = grid.a_vals()
        dirs = np.asarray(_DIRECTIONS)

        lam = (mags[:, None] * np.exp(1j * angs)[None, :]).reshape(-1)
        lam = np.repeat(lam, avals.size * dirs.shape[0])
        a = np.tile(np.repeat(avals, dirs.shape[0]), mags.size * angs.size)
        d = np.tile(dirs, (mags.size * angs.size * avals.size, 1))
        self.xi1 = a * d[:, 0]
        self.xi2 = a * d[:, 1]
        self.lam = lam
        self.a = a
        self.n = lam.size
        self.tau = lam.imag
        self.scale = np.sqrt(np.abs(lam)) + a
        self.h = tol.fd_step_rel * a
        self.htau = tol.fd_step_rel * np.maximum(np.abs(self.tau), np.abs(lam))
        self.gate = tol.noise_gate

        self._ctx = []
        for lv in (lam, lam + 1j * self.htau, lam - 1j * self.htau):
            row = []
            for dx, dy in _OFFSETS:
                x1 = self.xi1 + dx * self.h
                x2 = self.xi2 + dy * self.h
                row.append((SymbolKit.batch(fluid, lv, np.hypot(x1, x2)), 1j * x1, 1j * x2))
            self._ctx.append(row)

    def estimates(self, claim: Claim):
        """(constants, resolved, n_discarded) for one claim on this grid."""
        evals = [
            [np.asarray(claim.fn(kit, ix1, ix2), dtype=np.complex128)
             for (kit, ix1, ix2) in row]
            for row in self._ctx
        ]
        m_max = np.zeros(self.n)
        for row in evals:
            for e in row:
                m_max = np.maximum(m_max, np.abs(e))

        g_l0 = evals[0]
        g_l1 = [
            self.tau * (ep - em) / (2.0 * self.htau)
            for ep, em in zip(evals[1], evals[2])
        ]

        h = self.h
        h2 = h * h
        constants = {}
        resolved = {}
        discarded = 0
        for ell, g in ((0, g_l0), (1, g_l1)):
            gfac = 1.0 if ell == 0 else np.abs(self.tau) / self.htau
            for kappa in KAPPAS:
                est, wsum = _difference(g, kappa, h, h2)
                order = int(kappa[0]) + int(kappa[1])
                if claim.mtype == 1:
                    bound = self.scale ** (claim.s - order)
                else:
                    bound = self.scale ** claim.s * self.a ** (-float(order))
                floor = NOISE_EPS * m_max * gfac * wsum
                keep = np.abs(est) >= self.gate * floor
                discarded += int(np.count_nonzero(~keep))
                resolved[(kappa, ell)] = bool(keep.any())
                if keep.any():
                    constants[(kappa, ell)] = float(np.max(np.abs(est[keep]) / bound[keep]))
                else:
                    constants[(kappa, ell)] = 0.0
        return constants, resolved, discarded


def _difference(g, kappa: str, h, h2):
    """Central-difference estimate and the noise weight sum/h^{|kappa|}."""
    o = _OID
    if kappa == "00":
        return g[o[(0, 0)]], 1.0
    if kappa == "10":
        return (g[o[(1, 0)]] - g[o[(-1, 0)]]) / (2.0 * h), 1.0 / h
    if kappa == "01":
        return (g[o[(0, 1)]] - g[o[(0, -1)]]) / (2.0 * h), 1.0 / h
    if kappa == "20":
        return (g[o[(1, 0)]] - 2.0 * g[o[(0, 0)]] + g[o[(-1, 0)]]) / h2, 4.0 / h2
    if kappa == "02":
        return (g[o[(0, 1)]] - 2.0 * g[o[(0, 0)]] + g[o[(0, -1)]]) / h2, 4.0 / h2
    if kappa == "11":
        est = (g[o[(1, 1)]] - g[o[(1, -1)]] - g[o[(-1, 1)]] + g[o[(-1, -1)]]) / (4.0 * h2)
        return est, 1.0 / h2
    raise ValueError(f"unknown multi-index {kappa!r}")


def _verdict(base, refined, res_b, res_r, drift_tol):
    drift = {}
    testable = 0
    for key in base:
        if res_b[key] and res_r[key]:
            testable += 1
            cb, cr = base[key], refined[key]
            if cb == 0.0:
                drift[key] = 1.0 if cr == 0.0 else math.inf
            else:
                drift[key] = cr / cb
        else:
            drift[key] = math.nan
    if testable == 0:
        raise GridTooCoarse(
            "no derivative index was resolvable above the noise floor on both grids"
        )
    bad = any(math.isfinite(d) and d >= drift_tol or d == math.inf
              for d in drift.values() if not math.isnan(d))
    return drift, ("fail" if bad else "pass")


def estimate_class(
    symbol: Claim | Callable,
    claimed: tuple[float, int] | None = None,
    sector: Sector | None = None,
    grid: ClassGridSpec | None = None,
    fluid: FluidParams | None = None,
    name: str = "symbol",
    lam_floor: float = 0.0,
    tol: Tolerances | None = None,
) -> MultiplierClassReport:
    """Estimate the class constants of one symbol and judge the claim.

    symbol is either a Claim or a callable fn(kit, ixi1, ixi2); in the
    callable case `claimed` supplies (s, type).  The verdict is "pass" when
    every resolvable constant moves by less than the drift tolerance under
    grid refinement, "fail" otherwise (a wrong claimed degree diverges at
    the extended range corner).
    """
    from .config import REFERENCE_PARAMS

    tol = tol or Tolerances()
    sector = sector or Sector(epsilon=math.pi / 4)
    grid = grid or ClassGridSpec()
    fluid = fluid or REFERENCE_PARAMS
    if isinstance(symbol, Claim):
        claim = symbol
    else:
        if claimed is None:
            raise ValueError("claimed (s, type) is required for a bare callable")
        claim = Claim(name=name, s=float(claimed[0]), mtype=int(claimed[1]),
                      fn=symbol, lam_floor=lam_floor)

    return _certify([claim], fluid, sector, grid, tol)[0]


def declared_claims(lambda0: float = 1.0) -> list[Claim]:
    """The full certified class table.

    Boundary-matrix entries, the inverse determinant, every coefficient
    symbol (representative tangential index 1, normal index N), the height
    symbol, and the (lambda + K)-quotient families certified above the
    cutoff lambda0.
    """
    c: list[Claim] = []

    c += [
        Claim("L11+", 1, 1, lambda kit, i1, i2: kit.l11p),
        Claim("L22+", 1, 1, lambda kit, i1, i2: kit.l22p),
        Claim("L12+", 2, 1, lambda kit, i1, i2: kit.l12p),
        Claim("L21+", 0, 1, lambda kit, i1, i2: kit.l21p),
        Claim("L11-", 1, 2, lambda kit, i1, i2: kit.l11m),
        Claim("L21-", 1, 2, lambda kit, i1, i2: kit.l21m),
        Claim("L12-", 2, 2, lambda kit, i1, i2: kit.l12m),
        Claim("L22-", 2, 2, lambda kit, i1, i2: kit.l22m),
        Claim("detL_inv", -4, 2, lambda kit, i1, i2: 1.0 / kit.det),
    ]

    c += [
        Claim("P+_m", 0, 2, lambda kit, i1, i2: kit.p_plus_m(i1)),
        Claim("P+_N", 0, 2, lambda kit, i1, i2: kit.p_plus_N()),
        Claim("P-_m", 0, 2, lambda kit, i1, i2: kit.p_minus_m(i1)),
        Claim("P-_N", 0, 2, lambda kit, i1, i2: kit.p_minus_N()),
    ]

    c += [
        Claim("R+_jm", 0, 2, lambda kit, i1, i2: kit.r_plus(False, False, i1, i1)),
        Claim("R+_jN", 0, 2, lambda kit, i1, i2: kit.r_plus(False, True, ixi_j=i1)),
        Claim("R+_Nm", 0, 2, lambda kit, i1, i2: kit.r_plus(True, False, ixi_m=i1)),
        Claim("R+_NN", 0, 2, lambda kit, i1, i2: kit.r_plus(True, True)),
        Claim("R-_jm", 0, 2, lambda kit, i1, i2: kit.r_minus(False, False, i1, i1)),
        Claim("R-_jN", 0, 2, lambda kit, i1, i2: kit.r_minus(False, True, ixi_j=i1)),
        Claim("R-_Nm", 0, 2, lambda kit, i1, i2: kit.r_minus(True, False, ixi_m=i1)),
        Claim("R-_NN", 0, 2, lambda kit, i1, i2: kit.r_minus(True, True)),
    ]

    c += [
        Claim("S_jm", -1, 2, lambda kit, i1, i2: kit.s_jm(i1, i1)),
        Claim("S_jN", -1, 2, lambda kit, i1, i2: kit.s_jN(i1)),
        Claim("S+_Nm", -1, 2, lambda kit, i1, i2: kit.s_plus_Nm(i1)),
        Claim("S+_NN", -1, 2, lambda kit, i1, i2: kit.s_plus_NN()),
        Claim("S-_Nm", -1, 2, lambda kit, i1, i2: kit.s_minus_Nm(i1)),
        Claim("S-_NN", -1, 2, lambda kit, i1, i2: kit.s_minus_NN()),
    ]

    c += [
        Claim("T+_j", 0, 1, lambda kit, i1, i2: kit.t_plus()),
        Claim("T-_j", 0, 1, lambda kit, i1, i2: kit.t_minus()),
        Claim("p-_m1", 1, 2, lambda kit, i1, i2: kit.p_press_m(i1)),
        Claim("p-_N1", 1, 2, lambda kit, i1, i2: kit.p_press_N()),
        Claim("K", 1, 2, lambda kit, i1, i2: kit.k_height()),
    ]

    def _quot(expr):
        def fn(kit, i1, i2):
            k = kit.k_height()
            den = (kit.lam + k) * (1.0 + kit.a * kit.a)
            return expr(kit, i1, i2) / den
        return fn

    c += [
        Claim("pN1/(lam+K)", 0, 2,
              lambda kit, i1, i2: kit.p_press_N() / (kit.lam + kit.k_height()),
              lam_floor=lambda0),
        Claim("A*R+NN*ixik/q", -1, 2,
              _quot(lambda kit, i1, i2: kit.a * kit.r_plus(True, True) * i1),
              lam_floor=lambda0),
        Claim("A*R-NN*ixik/q", -1, 2,
              _quot(lambda kit, i1, i2: kit.a * kit.r_minus(True, True) * i1),
              lam_floor=lambda0),
        Claim("A+*A*R+NN/q", -1, 2,
              _quot(lambda kit, i1, i2: kit.ap * kit.a * kit.r_plus(True, True)),
              lam_floor=lambda0),
        Claim("A-*A*R-NN/q", -1, 2,
              _quot(lambda kit, i1, i2: kit.a * kit.a * kit.r_minus(True, True)),
              lam_floor=lambda0),
        Claim("A*R+NN/q", -2, 2,
              _quot(lambda kit, i1, i2: kit.a * kit.r_plus(True, True)),
              lam_floor=lambda0),
        Claim("A*R-NN/q", -2, 2,
              _quot(lambda kit, i1, i2: kit.a * kit.r_minus(True, True)),
              lam_floor=lambda0),
        Claim("A*S+NN/q", -2, 2,
              _quot(lambda kit, i1, i2: kit.a * kit.s_plus_NN()),
              lam_floor=lambda0),
        Claim("A*S-NN/q", -2, 2,
              _quot(lambda kit, i1, i2: kit.a * kit.s_minus_NN()),
              lam_floor=lambda0),
        Claim("A*S+NN*ixik/q", -2, 2,
              _quot(lambda kit, i1, i2: kit.a * kit.s_plus_NN() * i1),
              lam_floor=lambda0),
        Claim("A*S-NN*ixik/q", -2, 2,
              _quot(lambda kit, i1, i2: kit.a * kit.s_minus_NN() * i1),
              lam_floor=lambda0),
        Claim("B+*A*S+NN/q", -2, 2,
              _quot(lambda kit, i1, i2: kit.bp * kit.a * kit.s_plus_NN()),
              lam_floor=lambda0),
        Claim("B-*A*S-NN/q", -2, 2,
              _quot(lambda kit, i1, i2: kit.bm * kit.a * kit.s_minus_NN()),
              lam_floor=lambda0),
    ]
    return c


def certify_table(
    fluid: FluidParams,
    sector: Sector | None = None,
    grid: ClassGridSpec | None = None,
    lambda0: float = 1.0,
    tol: Tolerances | None = None,
) -> list[MultiplierClassReport]:
    """Run the declared table, sharing stencil evaluations across claims."""
    tol = tol or Tolerances()
    sector = sector or Sector(epsilon=math.pi / 4)
    grid = grid or ClassGridSpec()
    return _certify(declared_claims(lambda0=lambda0), fluid, sector, grid, tol)


def _certify(claims, fluid: FluidParams, sector: Sector, grid: ClassGridSpec,
             tol: Tolerances) -> list[MultiplierClassReport]:
    """Judge each claim on a base and a refined grid; claims with one floor
    share the stencil evaluations of both grids."""
    groups: dict[float, list[Claim]] = {}
    for cl in claims:
        groups.setdefault(cl.lam_floor, []).append(cl)

    reports = []
    for floor, members in sorted(groups.items()):
        run_b = _GridRun(fluid, sector, grid, floor, tol)
        run_r = _GridRun(fluid, sector, grid.refined(), floor, tol)
        for cl in members:
            cb, rb, db = run_b.estimates(cl)
            cr, rr, dr = run_r.estimates(cl)
            drift, verdict = _verdict(cb, cr, rb, rr, tol.class_drift)
            unresolved = tuple(sorted(k for k in rb if not (rb[k] and rr[k])))
            reports.append(MultiplierClassReport(
                name=cl.name, s=cl.s, mtype=cl.mtype, lam_floor=cl.lam_floor,
                constants=cb, refined_constants=cr, drift=drift,
                discarded=db + dr, unresolved=unresolved,
                n_base=run_b.n, n_refined=run_r.n, verdict=verdict,
            ))
    return reports
