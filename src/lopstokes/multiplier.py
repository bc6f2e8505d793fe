"""Exact-derivative certification of multiplier classes.

A symbol m(lambda, xi') has order s and type 1 when

    |d_xi'^k ((tau d_tau)^l m)| <= C (sqrt|lambda| + A)^{s-|k|}

and type 2 when the right side is C (sqrt|lambda| + A)^s A^{-|k|}, for
|k| <= 2 and l in {0, 1}, with lambda = gamma + i tau.  The estimator
samples a log grid over (|lambda|, arg lambda, A) and two frequency
directions in dimension 3, evaluates each symbol as a Taylor jet in
(xi_1, xi_2, lambda) (jet.Jet), and reports per derivative index the
largest ratio |derivative|/bound over every point.  The derivatives are
exact up to rounding: d_xi^k m is k! times a jet coefficient, and m is
holomorphic in lambda on the sector, so d_tau = i d_lam and the l = 1
derivative is |tau| k! times a dlam coefficient.  The pass criterion is
stability (< 2x drift) under a refinement that doubles grid density and
widens both ranges by a decade: it tests grid convergence, which is what
exposes wrong-degree claims as boundary blow-up.

certify_table is the one entry point: it judges each claim (the declared
table comes from declared_claims) on the class grid of GridSpec.points and
on its refinement.  Claims sharing a sector floor share one pass per grid
in fixed chunks of _CHUNK points: one SymbolKit of jets per chunk, every
claim of the group judged on it.  The chunks of every floor group and both
grids are the tasks of one fork process pool per call, one worker per
usable core (the CPU affinity set of the process); the workers inherit the
claims and grid columns, and only task indices and per-chunk maxima cross
between processes.  With one core or one task, or without fork, the chunks
run in-process.  A constant is a maximum of pointwise values, so it
depends neither on the chunk size nor on the worker count or the order in
which chunks finish, and peak memory does not grow with the grid.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .coefficients import SymbolKit
from .config import GridSpec, Tolerances
from .errors import WorkerLost
from .jet import Jet
from .params import FluidParams, Sector
from .symbols import root_radicands

__all__ = ["Claim", "MultiplierClassReport", "declared_claims", "certify_table", "KAPPAS"]

# derivative multi-indices (orders in xi_1, xi_2), the row order of a jet
# block, and kappa! for each
KAPPAS = ("00", "10", "01", "20", "02", "11")
_FACTORIALS = np.array([[1.0], [1.0], [1.0], [2.0], [2.0], [1.0]])

_DIRECTIONS = ((1.0, 0.0), (0.6, 0.8))

_ORDERS = tuple(int(k[0]) + int(k[1]) for k in KAPPAS)
_KEYS = tuple((kappa, ell) for ell in (0, 1) for kappa in KAPPAS)

# Grid points per chunk; a jet holds at most 12 complex128 values per point,
# and 12 * _CHUNK stays below config.ELISION_THRESHOLD so the estimates do not
# depend on the chunk size.
_CHUNK = 1024


@dataclass(frozen=True)
class Claim:
    """One symbol with its claimed (order, type) and sector floor."""

    name: str
    s: float
    mtype: int
    fn: Callable  # fn(kit: SymbolKit, ixi1) -> Jet
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
    n_base: int
    n_refined: int
    verdict: str               # "pass" | "fail"

    def max_drift(self) -> float:
        vals = [v for v in self.drift.values() if math.isfinite(v)]
        return max(vals) if vals else math.inf

    def rows(self):
        """CSV rows: kappa_multi_index, ell, constant, refinement_drift."""
        for (kappa, ell), c in sorted(self.constants.items()):
            yield kappa, ell, c, self.drift[kappa, ell]


def _derivatives(m: Jet, tau) -> np.ndarray:
    """|d_xi^kappa (tau d_tau)^ell m| over (ell, kappa, point), kappa in
    KAPPAS order, from the jet m of a symbol."""
    d0 = np.abs(m.x) * _FACTORIALS
    d1 = np.zeros_like(d0) if m.l is None else np.abs(m.l) * _FACTORIALS * np.abs(tau)
    return np.stack((d0, d1))


def _jet_args(fluid: FluidParams, lam, xi1, xi2) -> tuple[SymbolKit, Jet]:
    """(kit, i xi_1) as jets at the points (lam, xi1, xi2), the arguments
    of every Claim.fn."""
    x1, x2 = Jet.variable(xi1, 1), Jet.variable(xi2, 2)
    lam, a = Jet.variable(lam, 0), (x1 * x1 + x2 * x2).sqrt()
    roots = tuple(r.sqrt() for r in root_radicands(fluid, lam, a * a))
    return SymbolKit.from_roots(fluid, lam, a, roots), 1j * x1


class _GridRun:
    """The point columns of one flattened class grid.

    Holds lam, A, xi_1, xi_2 and the bound scale per point: chunk() builds
    the jets of one _CHUNK of points and judges every claim on them, so
    memory is set by the chunk, not the grid.
    """

    def __init__(self, fluid: FluidParams, sector: Sector, grid: GridSpec,
                 lam_floor: float):
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
        self.fluid, self.lam, self.a, self.n = fluid, lam, a, lam.size
        self.xi1, self.xi2 = a * d[:, 0], a * d[:, 1]
        self.scale = np.sqrt(np.abs(lam)) + a

    def chunk(self, start: int, claims) -> np.ndarray:
        """The max of |derivative|/bound over the _CHUNK points from start,
        over (claim, key) in _KEYS order."""
        sl = slice(start, start + _CHUNK)
        args = _jet_args(self.fluid, self.lam[sl], self.xi1[sl], self.xi2[sl])
        tau, scale, a = self.lam[sl].imag, self.scale[sl], self.a[sl]
        return np.array([(_derivatives(cl.fn(*args), tau) / _bound(cl.s, cl.mtype, scale, a))
                         .max(axis=-1).reshape(-1) for cl in claims])


def _bound(s: float, mtype: int, scale, a) -> np.ndarray:
    """The class bound over (kappa, point): (sqrt|lam| + A)^{s-|kappa|} for
    type 1, (sqrt|lam| + A)^s A^{-|kappa|} for type 2."""
    return np.stack([scale ** (s - order) if mtype == 1 else scale ** s * a ** (-float(order))
                     for order in _ORDERS])


def _verdict(base, refined, drift_tol):
    # a constant that is 0.0 on both grids has not moved; a NaN one fails
    drift = {key: refined[key] / cb if cb else (1.0 if refined[key] == 0.0 else math.inf)
             for key, cb in base.items()}
    return drift, ("pass" if all(d < drift_tol for d in drift.values()) else "fail")


def declared_claims(lambda0: float) -> list[Claim]:
    """The full certified class table.

    Boundary-matrix entries, the inverse determinant, every coefficient
    symbol (representative tangential index 1, normal index N), the height
    symbol, and the (lambda + K)-quotient families certified above the
    cutoff lambda0.
    """
    c = [
        Claim("L11+", 1, 1, lambda kit, i1: kit.l11p),
        Claim("L22+", 1, 1, lambda kit, i1: kit.l22p),
        Claim("L12+", 2, 1, lambda kit, i1: kit.l12p),
        Claim("L21+", 0, 1, lambda kit, i1: kit.l21p),
        Claim("L11-", 1, 2, lambda kit, i1: kit.l11m),
        Claim("L21-", 1, 2, lambda kit, i1: kit.l21m),
        Claim("L12-", 2, 2, lambda kit, i1: kit.l12m),
        Claim("L22-", 2, 2, lambda kit, i1: kit.l22m),
        Claim("detL_inv", -4, 2, lambda kit, i1: 1.0 / kit.det),
        Claim("P+_m", 0, 2, lambda kit, i1: kit.p_plus_m(i1)),
        Claim("P+_N", 0, 2, lambda kit, i1: kit.p_plus_N()),
        Claim("P-_m", 0, 2, lambda kit, i1: kit.p_minus_m(i1)),
        Claim("P-_N", 0, 2, lambda kit, i1: kit.p_minus_N()),
        Claim("R+_jm", 0, 2, lambda kit, i1: kit.r_plus(False, False, i1, i1)),
        Claim("R+_jN", 0, 2, lambda kit, i1: kit.r_plus(False, True, ixi_j=i1)),
        Claim("R+_Nm", 0, 2, lambda kit, i1: kit.r_plus(True, False, ixi_m=i1)),
        Claim("R+_NN", 0, 2, lambda kit, i1: kit.r_plus(True, True)),
        Claim("R-_jm", 0, 2, lambda kit, i1: kit.r_minus(False, False, i1, i1)),
        Claim("R-_jN", 0, 2, lambda kit, i1: kit.r_minus(False, True, ixi_j=i1)),
        Claim("R-_Nm", 0, 2, lambda kit, i1: kit.r_minus(True, False, ixi_m=i1)),
        Claim("R-_NN", 0, 2, lambda kit, i1: kit.r_minus(True, True)),
        Claim("S_jm", -1, 2, lambda kit, i1: kit.s_jm(i1, i1)),
        Claim("S_jN", -1, 2, lambda kit, i1: kit.s_jN(i1)),
        Claim("S+_Nm", -1, 2, lambda kit, i1: kit.s_plus_Nm(i1)),
        Claim("S+_NN", -1, 2, lambda kit, i1: kit.s_plus_NN()),
        Claim("S-_Nm", -1, 2, lambda kit, i1: kit.s_minus_Nm(i1)),
        Claim("S-_NN", -1, 2, lambda kit, i1: kit.s_minus_NN()),
        Claim("T+_j", 0, 1, lambda kit, i1: kit.t_plus()),
        Claim("T-_j", 0, 1, lambda kit, i1: kit.t_minus()),
        Claim("p-_m1", 1, 2, lambda kit, i1: kit.p_press_m(i1)),
        Claim("p-_N1", 1, 2, lambda kit, i1: kit.p_press_N()),
        Claim("K", 1, 2, lambda kit, i1: kit.k_height()),
    ]

    def _quot(num):
        def fn(kit, i1):
            return num(kit, i1) / ((kit.lam + kit.k_height()) * (1.0 + kit.a * kit.a))
        return fn

    # the (lambda + K)-quotient families, type 2 above the cutoff lambda0
    c.append(Claim("pN1/(lam+K)", 0, 2,
                   lambda kit, i1: kit.p_press_N() / (kit.lam + kit.k_height()),
                   lam_floor=lambda0))
    c += [Claim(name, s, 2, _quot(num), lam_floor=lambda0) for name, s, num in (
        ("A*R+NN*ixik/q", -1, lambda kit, i1: kit.a * kit.r_plus(True, True) * i1),
        ("A*R-NN*ixik/q", -1, lambda kit, i1: kit.a * kit.r_minus(True, True) * i1),
        ("A+*A*R+NN/q", -1, lambda kit, i1: kit.ap * kit.a * kit.r_plus(True, True)),
        ("A-*A*R-NN/q", -1, lambda kit, i1: kit.a * kit.a * kit.r_minus(True, True)),
        ("A*R+NN/q", -2, lambda kit, i1: kit.a * kit.r_plus(True, True)),
        ("A*R-NN/q", -2, lambda kit, i1: kit.a * kit.r_minus(True, True)),
        ("A*S+NN/q", -2, lambda kit, i1: kit.a * kit.s_plus_NN()),
        ("A*S-NN/q", -2, lambda kit, i1: kit.a * kit.s_minus_NN()),
        ("A*S+NN*ixik/q", -2, lambda kit, i1: kit.a * kit.s_plus_NN() * i1),
        ("A*S-NN*ixik/q", -2, lambda kit, i1: kit.a * kit.s_minus_NN() * i1),
        ("B+*A*S+NN/q", -2, lambda kit, i1: kit.bp * kit.a * kit.s_plus_NN()),
        ("B-*A*S-NN/q", -2, lambda kit, i1: kit.bm * kit.a * kit.s_minus_NN()),
    )]
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
    otherwise they run in this process.  A worker that dies (a signal, the
    OOM killer) raises WorkerLost here instead of leaving the call waiting
    for it; the error is also the pool's own BrokenProcessPool.
    """
    workers = min(_workers(), len(tasks))
    if workers > 1:
        import multiprocessing
        import threading
        if ("fork" in multiprocessing.get_all_start_methods()
                and threading.active_count() == 1):
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool
            with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                                     initializer=_adopt, initargs=(work,)) as pool:
                try:
                    # a few chunks per message: fewer round trips, a short tail
                    return list(pool.map(_chunk, tasks, chunksize=4))
                except BrokenProcessPool as exc:
                    lost = type("WorkerLost", (WorkerLost, BrokenProcessPool), {})
                    raise lost(f"a multiplier-class worker process died: {exc}") from exc
    return [_chunk(task, work) for task in tasks]


def _estimates(chunks) -> list[dict]:
    """The constants per claim on one grid: the maximum of
    |derivative|/bound over the chunk() results of all its chunks."""
    top = np.max(np.stack(chunks), axis=0)
    return [{key: float(t) for key, t in zip(_KEYS, row)} for row in top]


def certify_table(claims, fluid: FluidParams, sector: Sector, grid: GridSpec,
                  tol: Tolerances | None = None) -> list[MultiplierClassReport]:
    """Judge each claim on a base and a refined grid; claims with one floor
    share the jet evaluations of both grids.

    The verdict is "pass" when every constant moves by less than
    tol.class_drift under grid refinement, "fail" otherwise (a wrong claimed
    degree diverges at the extended range corner).
    """
    tol = tol or Tolerances()
    groups: dict[float, list[Claim]] = {}
    for cl in claims:
        groups.setdefault(cl.lam_floor, []).append(cl)

    work = [(members, (_GridRun(fluid, sector, grid, floor),
                       _GridRun(fluid, sector, _widened(grid), floor)))
            for floor, members in sorted(groups.items())]
    tasks = [(g, r, start) for g, (_, runs) in enumerate(work)
             for r, run in enumerate(runs) for start in range(0, run.n, _CHUNK)]
    chunks: dict[tuple[int, int], list] = {}
    for (g, r, _), result in zip(tasks, _run_chunks(work, tasks)):
        chunks.setdefault((g, r), []).append(result)

    reports = []
    for g, (members, (run_b, run_r)) in enumerate(work):
        base, refined = _estimates(chunks[g, 0]), _estimates(chunks[g, 1])
        for cl, cb, cr in zip(members, base, refined):
            drift, verdict = _verdict(cb, cr, tol.class_drift)
            reports.append(MultiplierClassReport(
                name=cl.name, s=cl.s, mtype=cl.mtype, lam_floor=cl.lam_floor,
                constants=cb, refined_constants=cr, drift=drift,
                n_base=run_b.n, n_refined=run_r.n, verdict=verdict,
            ))
    return reports
