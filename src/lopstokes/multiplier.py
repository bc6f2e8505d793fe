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

certify_table is the one entry point: it takes a list of claims (the
declared table comes from declared_claims) and judges each on the class
grid laid out by GridSpec.points and on its refinement.  Claims sharing a
sector floor share one stencil pass per grid.  The pass walks the grid in
fixed chunks of _CHUNK points: one SymbolKit is built over the chunk's
27-point stencils (lam, lam +- i h_tau by nine xi offsets), every claim of
the group is judged on it, and it is dropped before the next chunk.

The chunks of every floor group and both grids are the tasks of one
process pool per certify_table call, with one worker per usable core (the
CPU affinity set of the process).  The workers are forked, so they inherit
the claims and grid columns; only task indices and each chunk's per-claim
maxima and discarded counts cross between processes.  With one core or one
task, or where fork is not available, the same chunk function runs
in-process.  Every reported number is a reduction over points (a maximum,
an any, a count) of chunks computed by the same code on the same slices,
so the result depends neither on the chunk size nor on the worker count or
the order in which chunks finish, and peak memory does not grow with the
grid.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .coefficients import SymbolKit
from .config import GridSpec, Tolerances
from .errors import GridTooCoarse
from .params import FluidParams, Sector

__all__ = [
    "Claim",
    "MultiplierClassReport",
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

_ORDERS = tuple(int(k[0]) + int(k[1]) for k in KAPPAS)
_KEYS = tuple((kappa, ell) for ell in (0, 1) for kappa in KAPPAS)

# Grid points per stencil chunk; one kit holds 27 stencil points per grid
# point, and 27 * _CHUNK stays below config.ELISION_THRESHOLD so the
# estimates do not depend on the chunk size.
_CHUNK = 600


@dataclass(frozen=True)
class Claim:
    """One symbol with its claimed (order, type) and sector floor."""

    name: str
    s: float
    mtype: int
    fn: Callable  # fn(kit: SymbolKit, ixi1) -> complex array
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


class _Stencil:
    """The 27-point stencil of one chunk of grid points, shared by the claims.

    One kit holds the stencil points in (lam row, xi offset, point) order:
    lam, lam + i h_tau, lam - i h_tau by the nine xi offsets; args holds
    (kit, i xi_1) in that order, the arguments of every Claim.fn.
    Alongside: the chunk's columns, the noise weight sum/h^{|kappa|} of
    every kappa, and the class bounds, computed once per (s, type).
    """

    def __init__(self, run: "_GridRun", sl: slice):
        lam, h = run.lam[sl], run.h[sl]
        self.tau, self.htau, self.h, self.h2 = run.tau[sl], run.htau[sl], h, h * h
        self.scale, self.a = run.scale[sl], run.a[sl]
        x1 = np.concatenate([run.xi1[sl] + dx * h for dx, _ in _OFFSETS])
        x2 = np.concatenate([run.xi2[sl] + dy * h for _, dy in _OFFSETS])
        rows = (lam, lam + 1j * self.htau, lam - 1j * self.htau)
        kit = SymbolKit.batch(run.fluid,
                              np.concatenate([np.tile(r, len(_OFFSETS)) for r in rows]),
                              np.tile(np.hypot(x1, x2), len(rows)))
        self.args = (kit, np.tile(1j * x1, len(rows)))
        self.wsum = np.stack([np.ones_like(h), 1.0 / h, 1.0 / h,
                              4.0 / self.h2, 4.0 / self.h2, 1.0 / self.h2])
        self.gfac = np.abs(self.tau) / self.htau
        self._bounds = {}

    def bound(self, s: float, mtype: int) -> np.ndarray:
        """The class bound of every kappa: (sqrt|lam| + A)^{s-|kappa|} for
        type 1, (sqrt|lam| + A)^s A^{-|kappa|} for type 2."""
        if (s, mtype) not in self._bounds:
            by_order = [self.scale ** (s - order) if mtype == 1
                        else self.scale ** s * self.a ** (-float(order))
                        for order in range(3)]
            self._bounds[s, mtype] = np.stack([by_order[o] for o in _ORDERS])
        return self._bounds[s, mtype]


class _GridRun:
    """The point columns of one flattened class grid.

    Holds lam, A, xi_1, xi_2, tau, the bound scale and the two steps per
    point, nothing per stencil point: chunk() builds the stencil of one
    _CHUNK of points and judges every claim on it, so memory is set by the
    chunk, not the grid.
    """

    def __init__(self, fluid: FluidParams, sector: Sector, grid: GridSpec,
                 lam_floor: float, tol: Tolerances):
        mags = grid.lam_mags()
        if lam_floor > 0.0:
            # keep the floor itself on every grid: the sup of a floored claim
            # typically sits at the |lam| = lam_floor edge, and base/refined
            # runs must sample that edge identically or the drift column
            # measures the floor discretization instead of grid convergence
            mags = np.unique(np.concatenate(([lam_floor], mags[mags > lam_floor])))
        # every grid point once per frequency direction
        lam, a = (np.repeat(v, len(_DIRECTIONS)) for v in grid.points(sector.epsilon, mags))
        d = np.tile(_DIRECTIONS, (lam.size // len(_DIRECTIONS), 1))
        self.fluid = fluid
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

    def chunk(self, start: int, claims) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Judge every claim on the stencil of the _CHUNK points from start.

        Returns (hit, top, discarded) over (claim, key) in _KEYS order: whether
        a point was kept, the max |est|/bound over the kept points (-inf where
        none was), and per claim the count of discarded estimates.
        """
        stencil = _Stencil(self, slice(start, start + _CHUNK))
        hit, top, discarded = zip(*(self._judge(claim, stencil) for claim in claims))
        return np.array(hit), np.array(top), np.array(discarded)

    def _judge(self, claim: Claim, st: _Stencil):
        """(hit, top, discarded) of one claim on one chunk, as in chunk().

        Arrays run over (ell, kappa, point) in _KEYS order.
        """
        ev = np.asarray(claim.fn(*st.args), dtype=np.complex128)
        ev = ev.reshape(3, len(_OFFSETS), st.tau.size)
        m_max = np.abs(ev).max(axis=(0, 1))
        g_l1 = st.tau * (ev[1] - ev[2]) / (2.0 * st.htau)
        est = _differences(np.stack((ev[0], g_l1), axis=1), st.h, st.h2)

        noise = NOISE_EPS * m_max
        floor = np.stack([noise, noise * st.gfac])[:, None, :] * st.wsum
        mag = np.abs(est)
        keep = mag >= self.gate * floor
        ratio = np.where(keep, mag / st.bound(claim.s, claim.mtype), -np.inf)
        return (keep.any(axis=-1).reshape(-1), ratio.max(axis=-1).reshape(-1),
                keep.size - int(np.count_nonzero(keep)))


def _differences(g, h, h2):
    """Central-difference estimates over (ell, kappa, point), kappa in KAPPAS
    order, from g over (xi offset, ell, point)."""
    o = _OID
    return np.stack([
        g[o[(0, 0)]],
        (g[o[(1, 0)]] - g[o[(-1, 0)]]) / (2.0 * h),
        (g[o[(0, 1)]] - g[o[(0, -1)]]) / (2.0 * h),
        (g[o[(1, 0)]] - 2.0 * g[o[(0, 0)]] + g[o[(-1, 0)]]) / h2,
        (g[o[(0, 1)]] - 2.0 * g[o[(0, 0)]] + g[o[(0, -1)]]) / h2,
        (g[o[(1, 1)]] - g[o[(1, -1)]] - g[o[(-1, 1)]] + g[o[(-1, -1)]]) / (4.0 * h2),
    ], axis=1)


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


def declared_claims(lambda0: float) -> list[Claim]:
    """The full certified class table.

    Boundary-matrix entries, the inverse determinant, every coefficient
    symbol (representative tangential index 1, normal index N), the height
    symbol, and the (lambda + K)-quotient families certified above the
    cutoff lambda0.
    """
    c: list[Claim] = []

    c += [
        Claim("L11+", 1, 1, lambda kit, i1: kit.l11p),
        Claim("L22+", 1, 1, lambda kit, i1: kit.l22p),
        Claim("L12+", 2, 1, lambda kit, i1: kit.l12p),
        Claim("L21+", 0, 1, lambda kit, i1: kit.l21p),
        Claim("L11-", 1, 2, lambda kit, i1: kit.l11m),
        Claim("L21-", 1, 2, lambda kit, i1: kit.l21m),
        Claim("L12-", 2, 2, lambda kit, i1: kit.l12m),
        Claim("L22-", 2, 2, lambda kit, i1: kit.l22m),
        Claim("detL_inv", -4, 2, lambda kit, i1: 1.0 / kit.det),
    ]

    c += [
        Claim("P+_m", 0, 2, lambda kit, i1: kit.p_plus_m(i1)),
        Claim("P+_N", 0, 2, lambda kit, i1: kit.p_plus_N()),
        Claim("P-_m", 0, 2, lambda kit, i1: kit.p_minus_m(i1)),
        Claim("P-_N", 0, 2, lambda kit, i1: kit.p_minus_N()),
    ]

    c += [
        Claim("R+_jm", 0, 2, lambda kit, i1: kit.r_plus(False, False, i1, i1)),
        Claim("R+_jN", 0, 2, lambda kit, i1: kit.r_plus(False, True, ixi_j=i1)),
        Claim("R+_Nm", 0, 2, lambda kit, i1: kit.r_plus(True, False, ixi_m=i1)),
        Claim("R+_NN", 0, 2, lambda kit, i1: kit.r_plus(True, True)),
        Claim("R-_jm", 0, 2, lambda kit, i1: kit.r_minus(False, False, i1, i1)),
        Claim("R-_jN", 0, 2, lambda kit, i1: kit.r_minus(False, True, ixi_j=i1)),
        Claim("R-_Nm", 0, 2, lambda kit, i1: kit.r_minus(True, False, ixi_m=i1)),
        Claim("R-_NN", 0, 2, lambda kit, i1: kit.r_minus(True, True)),
    ]

    c += [
        Claim("S_jm", -1, 2, lambda kit, i1: kit.s_jm(i1, i1)),
        Claim("S_jN", -1, 2, lambda kit, i1: kit.s_jN(i1)),
        Claim("S+_Nm", -1, 2, lambda kit, i1: kit.s_plus_Nm(i1)),
        Claim("S+_NN", -1, 2, lambda kit, i1: kit.s_plus_NN()),
        Claim("S-_Nm", -1, 2, lambda kit, i1: kit.s_minus_Nm(i1)),
        Claim("S-_NN", -1, 2, lambda kit, i1: kit.s_minus_NN()),
    ]

    c += [
        Claim("T+_j", 0, 1, lambda kit, i1: kit.t_plus()),
        Claim("T-_j", 0, 1, lambda kit, i1: kit.t_minus()),
        Claim("p-_m1", 1, 2, lambda kit, i1: kit.p_press_m(i1)),
        Claim("p-_N1", 1, 2, lambda kit, i1: kit.p_press_N()),
        Claim("K", 1, 2, lambda kit, i1: kit.k_height()),
    ]

    def _quot(expr):
        def fn(kit, i1):
            k = kit.k_height()
            den = (kit.lam + k) * (1.0 + kit.a * kit.a)
            return expr(kit, i1) / den
        return fn

    c += [
        Claim("pN1/(lam+K)", 0, 2,
              lambda kit, i1: kit.p_press_N() / (kit.lam + kit.k_height()),
              lam_floor=lambda0),
        Claim("A*R+NN*ixik/q", -1, 2,
              _quot(lambda kit, i1: kit.a * kit.r_plus(True, True) * i1),
              lam_floor=lambda0),
        Claim("A*R-NN*ixik/q", -1, 2,
              _quot(lambda kit, i1: kit.a * kit.r_minus(True, True) * i1),
              lam_floor=lambda0),
        Claim("A+*A*R+NN/q", -1, 2,
              _quot(lambda kit, i1: kit.ap * kit.a * kit.r_plus(True, True)),
              lam_floor=lambda0),
        Claim("A-*A*R-NN/q", -1, 2,
              _quot(lambda kit, i1: kit.a * kit.a * kit.r_minus(True, True)),
              lam_floor=lambda0),
        Claim("A*R+NN/q", -2, 2,
              _quot(lambda kit, i1: kit.a * kit.r_plus(True, True)),
              lam_floor=lambda0),
        Claim("A*R-NN/q", -2, 2,
              _quot(lambda kit, i1: kit.a * kit.r_minus(True, True)),
              lam_floor=lambda0),
        Claim("A*S+NN/q", -2, 2,
              _quot(lambda kit, i1: kit.a * kit.s_plus_NN()),
              lam_floor=lambda0),
        Claim("A*S-NN/q", -2, 2,
              _quot(lambda kit, i1: kit.a * kit.s_minus_NN()),
              lam_floor=lambda0),
        Claim("A*S+NN*ixik/q", -2, 2,
              _quot(lambda kit, i1: kit.a * kit.s_plus_NN() * i1),
              lam_floor=lambda0),
        Claim("A*S-NN*ixik/q", -2, 2,
              _quot(lambda kit, i1: kit.a * kit.s_minus_NN() * i1),
              lam_floor=lambda0),
        Claim("B+*A*S+NN/q", -2, 2,
              _quot(lambda kit, i1: kit.bp * kit.a * kit.s_plus_NN()),
              lam_floor=lambda0),
        Claim("B-*A*S-NN/q", -2, 2,
              _quot(lambda kit, i1: kit.bm * kit.a * kit.s_minus_NN()),
              lam_floor=lambda0),
    ]
    return c


def _widened(grid: GridSpec) -> GridSpec:
    """The refined class grid: double the density, widen each range a decade
    per side, same angles."""
    return replace(grid, lam_min=grid.lam_min / 10.0, lam_max=grid.lam_max * 10.0,
                   lam_per_decade=2 * grid.lam_per_decade,
                   a_min=grid.a_min / 10.0, a_max=grid.a_max * 10.0,
                   a_per_decade=2 * grid.a_per_decade)


# Per floor group, its claims and its (base, refined) _GridRun: what a chunk
# task indexes into.  Set by _adopt in each pool worker only.
_WORK: list | None = None


def _adopt(work) -> None:
    global _WORK
    _WORK = work


def _chunk(task, work=None):
    """The chunk() result of task = (floor group, grid, chunk start) on
    work, or in a pool worker on the work it adopted."""
    g, r, start = task
    claims, runs = (_WORK if work is None else work)[g]
    return runs[r].chunk(start, claims)


def _workers() -> int:
    """Usable cores: the size of this process's CPU affinity set."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_chunks(work, tasks) -> list:
    """_chunk of every task, in task order.

    One forked worker per usable core runs them when there are two or more
    of both, the platform can fork and this process runs no other thread (a
    lock another thread holds at the fork stays held in the worker);
    otherwise they run in this process.  A worker that dies raises
    BrokenProcessPool here instead of leaving the call waiting for it.
    """
    workers = min(_workers(), len(tasks))
    if workers > 1:
        import multiprocessing
        import threading
        if ("fork" in multiprocessing.get_all_start_methods()
                and threading.active_count() == 1):
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                                     initializer=_adopt, initargs=(work,)) as pool:
                # a few chunks per message: fewer round trips, a short tail
                return list(pool.map(_chunk, tasks, chunksize=4))
    return [_chunk(task, work) for task in tasks]


def _estimates(chunks) -> list[tuple[dict, dict, int]]:
    """(constants, resolved, n_discarded) per claim on one grid, from the
    chunk() results of all its chunks.

    Each is a reduction over points: the maximum of |est|/bound over the
    kept points, whether any point was kept, and the count of discarded
    estimates.
    """
    hit, top, discarded = (np.stack(part) for part in zip(*chunks))
    out = []
    for row_hit, row_top, n in zip(hit.any(axis=0), top.max(axis=0), discarded.sum(axis=0)):
        # a key no point resolved carries the constant 0.0
        out.append(({key: float(t) if h else 0.0 for key, h, t in zip(_KEYS, row_hit, row_top)},
                    {key: bool(h) for key, h in zip(_KEYS, row_hit)},
                    int(n)))
    return out


def certify_table(claims, fluid: FluidParams, sector: Sector, grid: GridSpec,
                  tol: Tolerances | None = None) -> list[MultiplierClassReport]:
    """Judge each claim on a base and a refined grid; claims with one floor
    share the stencil evaluations of both grids.

    The verdict is "pass" when every resolvable constant moves by less than
    tol.class_drift under grid refinement, "fail" otherwise (a wrong claimed
    degree diverges at the extended range corner).
    """
    tol = tol or Tolerances()
    groups: dict[float, list[Claim]] = {}
    for cl in claims:
        groups.setdefault(cl.lam_floor, []).append(cl)

    work = [(members, (_GridRun(fluid, sector, grid, floor, tol),
                       _GridRun(fluid, sector, _widened(grid), floor, tol)))
            for floor, members in sorted(groups.items())]
    tasks = [(g, r, start) for g, (_, runs) in enumerate(work)
             for r, run in enumerate(runs) for start in range(0, run.n, _CHUNK)]
    chunks: dict[tuple[int, int], list] = {}
    for (g, r, _), result in zip(tasks, _run_chunks(work, tasks)):
        chunks.setdefault((g, r), []).append(result)

    reports = []
    for g, (members, (run_b, run_r)) in enumerate(work):
        base, refined = _estimates(chunks[g, 0]), _estimates(chunks[g, 1])
        for cl, (cb, rb, db), (cr, rr, dr) in zip(members, base, refined):
            drift, verdict = _verdict(cb, cr, rb, rr, tol.class_drift)
            unresolved = tuple(sorted(k for k in rb if not (rb[k] and rr[k])))
            reports.append(MultiplierClassReport(
                name=cl.name, s=cl.s, mtype=cl.mtype, lam_floor=cl.lam_floor,
                constants=cb, refined_constants=cr, drift=drift,
                discarded=db + dr, unresolved=unresolved,
                n_base=run_b.n, n_refined=run_r.n, verdict=verdict,
            ))
    return reports
