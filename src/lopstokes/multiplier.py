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

The orbit reduction.  A symbol homogeneous of its claimed order,
m(r^2 lambda, r xi') = r^s m(lambda, xi') for r > 0, has a class ratio that
is constant on each orbit (lambda, xi') -> (r^2 lambda, r xi'): the
derivative of index (kappa, ell) has degree s - |kappa|, and so has either
bound.  Its constant over a grid is therefore its constant over the orbit
image of the grid: |lambda| = 1, the grid's angles and directions, and
A = u for each distinct u = A/sqrt|lambda| of the grid (the floor
magnitude included).  The default class grid has 10,850 base and 62,342
refined point-directions; their orbit images have 1,106 and 2,702.  The
reduction is exact; the constants move only by rounding, because the image
evaluates each symbol at (lambda/|lambda|, xi'/sqrt|lambda|) and not at the
grid point itself.  The refined image is that of the refined grid, so the
drift verdict compares the same suprema as on the 3-D grids.

Whether a claim is homogeneous of its claimed order is tested, not
declared: its jet at (4^k lambda, 2^k xi'), k = +-8, must be the jet at
(lambda, xi') scaled by 2^{k(s - |kappa| - 2c)} bit for bit on the first
chunk of its base orbit image.  Scaling by a power of two is exact in
floating point, so a homogeneous formula passes with no tolerance, while
a symbol built from lambda + K, a wrong claimed order or a NaN fails.
Those claims are judged on the 3-D class grid of GridSpec.points and its
refinement.  One such test per floor group judges every claim at its
order, every quotient's numerator at its degree and K at degree 1 on the
same batches of jets.

The scaled route.  A (lambda + K)-quotient N/D is not homogeneous: its
denominator D, (lambda + K)(1 + A^2) or lambda + K, mixes degrees.  But its
numerator N is homogeneous of an integer degree d and K of degree 1, so at
a grid point (r^2 lambda, r xi'), r = sqrt|lambda|, each jet coefficient
d_xi^kappa d_lam^c of N is r^{d - |kappa| - 2c} times its value at the
orbit-image point (lambda, xi') with |lambda| = 1, and likewise for K.  N
and K are therefore evaluated once per image point (a SymbolKit per block
of image points) and scaled to every grid point of the orbit, where D is
formed from them and the jets of lambda and A, and N/D judged; the
constants are those of the 3-D grids, up to rounding.  The claim declares
N, d and D (Claim.over), and d is tested, not trusted: N at degree d and K
at degree 1 must pass the same bit-exact test, in the same pass, on the
first chunk of the floored orbit image, or the claim is evaluated
directly on the 3-D grid.
Either way its domain is "grid", over the same points and verdict.

certify_table is the one entry point (the declared table comes from
declared_claims); certify_alongside runs one more function on the same
pool.  Claims sharing a sector floor and a route (orbit, scaled or grid)
share one pass per point set in fixed chunks of _CHUNK points: one
SymbolKit of jets per chunk (per block of image points on the scaled
route), every claim of the group judged on it.  The shared process pool
(pool.run: one forked worker per usable core) runs three maps, each
handed to the workers when it is called: the side function if any, as a
one-task map, then the degree test of each floor group and then the
chunks of every group, route and point set, so with two workers one runs
the side function while the other starts on the claims.  The workers
inherit the side function, the claims and the axes of each point set,
lay out only the points each chunk evaluates (and build the orbit index of
a grid), and only task indices, verdicts, per-chunk maxima and the side
result cross between processes.  With one core, without fork or with
other threads alive, each map runs in-process as it is taken, so the side
function runs last, after the claims.  A constant is a maximum of
pointwise values, so it depends neither on the chunk size nor on the
worker count or the order in which chunks finish, and peak memory does
not grow with the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from . import pool
from .coefficients import SymbolKit
from .config import GridSpec, Tolerances
from .jet import Jet
from .params import FluidParams, Sector
from .symbols import root_radicands

__all__ = ["Claim", "MultiplierClassReport", "declared_claims", "certify_table",
           "certify_alongside", "KAPPAS"]

# derivative multi-indices (orders in xi_1, xi_2), the row order of a jet
# block, and kappa! for each
KAPPAS = ("00", "10", "01", "20", "02", "11")
_FACTORIALS = np.array([[1.0], [1.0], [1.0], [2.0], [2.0], [1.0]])

_DIRECTIONS = ((1.0, 0.0), (0.6, 0.8))

_ORDERS = tuple(int(k[0]) + int(k[1]) for k in KAPPAS)
_ORDER_COLUMN = np.array(_ORDERS, dtype=float)[:, None]
_KEYS = tuple((kappa, ell) for ell in (0, 1) for kappa in KAPPAS)

# Grid points per chunk: the jets of one chunk, on which every claim of a
# group is judged, take about 8 MB at 1,024 points, whatever the grid size.
_CHUNK = 1024


def _block() -> int:
    """Image points per scaled task: half a chunk, since the numerator jets
    of a block stay alive alongside the kit that evaluates them."""
    return max(1, _CHUNK // 2)


@dataclass(frozen=True)
class Claim:
    """One symbol with its claimed (order, type) and sector floor.

    A (lambda + K)-quotient also declares its denominator: fn is then its
    numerator N, claimed homogeneous of the integer degree `degree`, and the
    symbol is N / over(lam, A, K) on the jets of lambda, A and the height
    symbol K.
    """

    name: str
    s: float
    mtype: int
    fn: Callable  # fn(kit: SymbolKit, ixi1) -> Jet
    lam_floor: float = 0.0
    over: Callable | None = None  # over(lam, a, k) -> Jet
    degree: int | None = None

    def symbol(self, kit: SymbolKit, i1) -> Jet:
        """The jet of the claimed symbol on kit."""
        m = self.fn(kit, i1)
        return m if self.over is None else m / self.over(kit.lam, kit.a, kit.k_height)


@dataclass
class MultiplierClassReport:
    name: str
    s: float
    mtype: int
    lam_floor: float
    constants: dict            # (kappa, ell) -> C over the base grid
    refined_constants: dict
    drift: dict                # (kappa, ell) -> refined/base ratio
    n_base: int                # points evaluated on the claim's own domain
    n_refined: int
    verdict: str               # "pass" | "fail"
    domain: str                # "orbit" | "grid": the point sets judged on

    def max_drift(self) -> float:
        """The largest drift: inf when a constant left 0.0, NaN when one is NaN."""
        return float(np.max(list(self.drift.values())))

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


def _coordinates(lam, xi1, xi2) -> tuple[Jet, Jet, Jet]:
    """The jets of lambda, A = |xi'| and xi_1 at the points (lam, xi1, xi2)."""
    x1, x2 = Jet.variable(xi1, 1), Jet.variable(xi2, 2)
    return Jet.variable(lam, 0), (x1 * x1 + x2 * x2).sqrt(), x1


def _jet_args(fluid: FluidParams, lam, xi1, xi2) -> tuple[SymbolKit, Jet]:
    """(kit, i xi_1) as jets at the points (lam, xi1, xi2), the arguments
    of every Claim.fn."""
    lam, a, x1 = _coordinates(lam, xi1, xi2)
    roots = tuple(r.sqrt() for r in root_radicands(fluid, lam, a * a))
    return SymbolKit(fluid, lam, a, roots), 1j * x1


def _height(kit: SymbolKit, i1) -> Jet:
    return kit.k_height


def _top(claim: Claim, m: Jet, lam, a, scale) -> np.ndarray:
    """The max of |derivative|/bound of the claim's jet m over its points,
    per key in _KEYS order."""
    ratio = _derivatives(m, lam.imag) / _bound(claim.s, claim.mtype, scale, a)
    return ratio.max(axis=-1).reshape(-1)


def _scaled(m: Jet, j, powers) -> Jet:
    """The jet at the points (r^2 lam, r xi') of a symbol homogeneous of some
    degree, from its jet m at the points (lam, xi'): point i is point j[i]
    of m, and its coefficients of d_xi^kappa d_lam^c are multiplied by
    powers[c] = r^{degree - |kappa| - 2c} (see _powers)."""
    return Jet(m.x[:, j] * powers[0], None if m.l is None else m.l[:, j] * powers[1])


def _powers(r, degree: float) -> tuple[np.ndarray, np.ndarray]:
    """r^{degree - |kappa| - 2c} over (kappa, point), for c = 0 and 1."""
    return r ** (degree - _ORDER_COLUMN), r ** (degree - 2.0 - _ORDER_COLUMN)


# u = A/sqrt|lambda| values of one class grid that differ by this relative
# gap or less are one orbit: they differ by the rounding of the division
_SAME_ORBIT = 1e-12

# the degree test compares the jets at (4^k lam, 2^k xi') with those at
# (lam, xi') for these k; a power of two scales every operation exactly
_SCALINGS = (8, -8)


def _grid_axes(grid: GridSpec, lam_floor: float):
    """(|lambda| values, A values) of the 3-D class grid of a claim with
    this floor."""
    mags = grid.lam_mags()
    if lam_floor > 0.0:
        # keep the floor itself on every grid: the sup of a floored claim
        # typically sits at the |lam| = lam_floor edge, and base/refined
        # runs must sample that edge identically or the drift column
        # measures the floor discretization instead of grid convergence
        mags = np.unique(np.concatenate(([lam_floor], mags[mags > lam_floor])))
    return mags, grid.a_vals()


def _ratios(mags, avals) -> np.ndarray:
    """u = A/sqrt|lambda| over (|lambda|, A) of a grid's axes."""
    return avals[None, :] / np.sqrt(mags)[:, None]


def _orbit_axes(grid: GridSpec, lam_floor: float):
    """(|lambda| values, A values) of the orbit image of that grid:
    |lambda| = 1, and A = u for each distinct u = A/sqrt|lambda| of the
    grid, the least of each run of u within _SAME_ORBIT.  (lam, xi') lies on
    the orbit of (lam/|lam|, xi'/sqrt|lam|)."""
    u = np.sort(_ratios(*_grid_axes(grid, lam_floor)).reshape(-1))
    return np.ones(1), u[np.concatenate(([True], np.diff(u) > _SAME_ORBIT * u[1:]))]


class _Points:
    """One flattened point set: the points of a class grid's angles on the
    given (|lambda|, A) axes, each once per frequency direction.  Index i
    is grid point i // len(_DIRECTIONS) in direction i % len(_DIRECTIONS).

    chunk() lays out one _CHUNK of points, builds their jets and judges the
    claims it is given on them, so memory is set by the chunk, not the
    point set.  A 3-D set holds its orbit image as image, onto which
    scaled_chunk() maps.
    """

    def __init__(self, fluid: FluidParams, sector: Sector, grid: GridSpec, axes,
                 image: "_Points | None" = None):
        self.fluid, self.sector, self.grid, self.axes = fluid, sector, grid, axes
        self.image = image
        self.n = axes[0].size * grid.n_angles * axes[1].size * len(_DIRECTIONS)

    def columns(self, index):
        """lam, A, xi_1, xi_2 and the bound scale at the point indices index,
        and at no other point."""
        lam, a = self.grid.points(self.sector.epsilon, *self.axes,
                                  index=index // len(_DIRECTIONS))
        d = np.array(_DIRECTIONS)[index % len(_DIRECTIONS)]
        return lam, a, a * d[:, 0], a * d[:, 1], np.sqrt(np.abs(lam)) + a

    @cached_property
    def by_image(self):
        """(the point indices ordered by the index of their image point, those
        image indices), built in the process that first scales onto the set.

        A point of angle j, direction d and u = A/sqrt|lambda| has the image
        point of angle j, direction d and the least orbit u not above its
        own: the image axis keeps the least u of each run within _SAME_ORBIT,
        computed by the same _ratios."""
        u = self.image.axes[1]
        k = np.searchsorted(u, _ratios(*self.axes), side="right") - 1
        j = np.arange(self.grid.n_angles)[:, None, None]
        index = ((j * u.size + k[:, None, :, None]) * len(_DIRECTIONS)
                 + np.arange(len(_DIRECTIONS))).reshape(-1)
        order = np.argsort(index, kind="stable")
        return order, index[order]

    def chunk(self, start: int, claims) -> np.ndarray:
        """The max of |derivative|/bound over the _CHUNK points from start,
        over (claim, key) in _KEYS order."""
        lam, a, xi1, xi2, scale = self.columns(np.arange(start, min(start + _CHUNK, self.n)))
        args = _jet_args(self.fluid, lam, xi1, xi2)
        return np.array([_top(cl, cl.symbol(*args), lam, a, scale) for cl in claims])

    def scaled_chunk(self, start: int, claims) -> np.ndarray:
        """chunk() of quotient claims over the points whose images are the
        _block() image points from start, taken _CHUNK points at a time.

        Each numerator N (homogeneous of its degree) and K (of degree 1) is
        evaluated once per image point and scaled to the points of its
        orbit by _scaled; the denominator is formed from them and the jets of
        lambda and A at each point."""
        numerators, k = self._image_jets(start, claims)
        order, images = self.by_image
        lo, hi = np.searchsorted(images, (start, start + _block()))
        tops = []
        for sub in range(lo, hi, _CHUNK):
            which = slice(sub, min(sub + _CHUNK, hi))
            j = images[which] - start
            lam, a, xi1, xi2, scale = self.columns(order[which])
            r = np.sqrt(np.abs(lam))
            powers = {d: _powers(r, d) for d in {1.0, *(cl.degree for cl in claims)}}
            lam_j, a_j, _ = _coordinates(lam, xi1, xi2)
            k_j = _scaled(k, j, powers[1.0])
            # one denominator per function over, shared by its claims
            over = {f: f(lam_j, a_j, k_j) for f in {cl.over for cl in claims}}
            tops.append([_top(cl, _scaled(n, j, powers[cl.degree]) / over[cl.over], lam, a, scale)
                         for cl, n in zip(claims, numerators)])
        return np.max(tops, axis=0)

    def _image_jets(self, start: int, claims):
        """The numerator jets of the claims and the jet of K at the _block()
        image points from start; the kit that evaluates them is freed on
        return, before the fan-out."""
        image = self.image
        lam, _, xi1, xi2, _ = image.columns(np.arange(start, min(start + _block(), image.n)))
        kit, i1 = _jet_args(self.fluid, lam, xi1, xi2)
        return [cl.fn(kit, i1) for cl in claims], kit.k_height

    def scale_exactly(self, parts) -> list[bool]:
        """Per (fn, degree) of parts, whether the jet fn(kit, i1) is
        homogeneous of that degree at the first _CHUNK points: at
        (4^k lam, 2^k xi') each coefficient of d_xi^kappa d_lam^c is
        2^{k(degree - |kappa| - 2c)} times its value at (lam, xi'), bit for
        bit, for each k in _SCALINGS.  A NaN fails.

        Each batch holds a run of points unscaled and at every scaling, at
        most _CHUNK points in all, so the test holds no more jets than a
        chunk; the jets are elementwise, so no value depends on its batch.
        A part that has failed is not evaluated again.
        """
        n, step = min(self.n, _CHUNK), max(1, _CHUNK // (1 + len(_SCALINGS)))
        lam, _, xi1, xi2, _ = self.columns(np.arange(n))
        holds = [True] * len(parts)
        for start in range(0, n, step):
            sl = slice(start, min(start + step, n))
            args = _jet_args(self.fluid, *(
                np.concatenate([base ** k * v[sl] for k in (0, *_SCALINGS)])
                for base, v in ((4.0, lam), (2.0, xi1), (2.0, xi2))))
            for i, (fn, degree) in enumerate(parts):
                holds[i] = holds[i] and _scales(fn(*args), degree, sl.stop - sl.start)
        return holds


def _scales(m: Jet, s: float, n: int) -> bool:
    """Whether block j + 1 of the n-point blocks of m is block 0 scaled as
    by k = _SCALINGS[j] for a symbol homogeneous of degree s, bit for bit."""
    blocks = ((m.x, 0.0),) if m.l is None else ((m.x, 0.0), (m.l, 2.0))
    return all(np.array_equal(b[:, (j + 1) * n:(j + 2) * n],
                              b[:, :n] * 2.0 ** (k * (s - _ORDER_COLUMN - c)))
               for b, c in blocks for j, k in enumerate(_SCALINGS))


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
        Claim("P+_N", 0, 2, lambda kit, i1: kit.p_plus_N),
        Claim("P-_m", 0, 2, lambda kit, i1: kit.p_minus_m(i1)),
        Claim("P-_N", 0, 2, lambda kit, i1: kit.p_minus_N),
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
        Claim("S+_NN", -1, 2, lambda kit, i1: kit.s_plus_NN),
        Claim("S-_Nm", -1, 2, lambda kit, i1: kit.s_minus_Nm(i1)),
        Claim("S-_NN", -1, 2, lambda kit, i1: kit.s_minus_NN),
        Claim("T+_j", 0, 1, lambda kit, i1: kit.t_plus),
        Claim("T-_j", 0, 1, lambda kit, i1: kit.t_minus),
        Claim("p-_m1", 1, 2, lambda kit, i1: kit.p_press_m(i1)),
        Claim("p-_N1", 1, 2, lambda kit, i1: kit.p_press_N),
        Claim("K", 1, 2, lambda kit, i1: kit.k_height),
    ]

    # the (lambda + K)-quotient families, type 2 above the cutoff lambda0:
    # (numerator, its degree) over lambda + K or q = (lambda + K)(1 + A^2)
    c.append(Claim("pN1/(lam+K)", 0, 2, lambda kit, i1: kit.p_press_N,
                   lam_floor=lambda0, over=_lam_plus_k, degree=1))
    c += [Claim(name, s, 2, num, lam_floor=lambda0, over=_q, degree=d) for name, s, d, num in (
        ("A*R+NN*ixik/q", -1, 2, lambda kit, i1: kit.a * kit.r_plus(True, True) * i1),
        ("A*R-NN*ixik/q", -1, 2, lambda kit, i1: kit.a * kit.r_minus(True, True) * i1),
        ("A+*A*R+NN/q", -1, 2, lambda kit, i1: kit.ap * kit.a * kit.r_plus(True, True)),
        ("A-*A*R-NN/q", -1, 2, lambda kit, i1: kit.a * kit.a * kit.r_minus(True, True)),
        ("A*R+NN/q", -2, 1, lambda kit, i1: kit.a * kit.r_plus(True, True)),
        ("A*R-NN/q", -2, 1, lambda kit, i1: kit.a * kit.r_minus(True, True)),
        ("A*S+NN/q", -2, 0, lambda kit, i1: kit.a * kit.s_plus_NN),
        ("A*S-NN/q", -2, 0, lambda kit, i1: kit.a * kit.s_minus_NN),
        ("A*S+NN*ixik/q", -2, 1, lambda kit, i1: kit.a * kit.s_plus_NN * i1),
        ("A*S-NN*ixik/q", -2, 1, lambda kit, i1: kit.a * kit.s_minus_NN * i1),
        ("B+*A*S+NN/q", -2, 1, lambda kit, i1: kit.bp * kit.a * kit.s_plus_NN),
        ("B-*A*S-NN/q", -2, 1, lambda kit, i1: kit.bm * kit.a * kit.s_minus_NN),
    )]
    return c


def _lam_plus_k(lam, a, k):
    return lam + k


def _q(lam, a, k):
    return (lam + k) * (1.0 + a * a)


def _widened(grid: GridSpec) -> GridSpec:
    """The refined class grid: double the density, widen each range a decade
    per side, same angles."""
    return replace(grid, lam_min=grid.lam_min / 10.0, lam_max=grid.lam_max * 10.0,
                   lam_per_decade=2 * grid.lam_per_decade,
                   a_min=grid.a_min / 10.0, a_max=grid.a_max * 10.0,
                   a_per_decade=2 * grid.a_per_decade)


# the routes of a claim: the domain it is judged on and how its jets are had
_DOMAIN = {"orbit": "orbit", "scaled": "grid", "grid": "grid"}


def _routes(g) -> list[str]:
    """The route of each of floor group g's claims, from one exact-scaling
    test on its base orbit image: "orbit" for a claim homogeneous of its
    claimed order; "scaled" for another quotient whose numerator is
    homogeneous of its degree, when K is of degree 1; "grid" for the rest."""
    claims, sets = pool.work()[1][g]
    quotients = [i for i, cl in enumerate(claims) if cl.over is not None]
    *holds, k = sets["orbit"][0].scale_exactly(
        [(cl.symbol, cl.s) for cl in claims]
        + [(claims[i].fn, claims[i].degree) for i in quotients] + [(_height, 1.0)])
    scaled = {i for i, h in zip(quotients, holds[len(claims):]) if h and k}
    return ["orbit" if h else "scaled" if i in scaled else "grid"
            for i, h in enumerate(holds[:len(claims)])]


def _chunk(task):
    """The chunk() or scaled_chunk() result of task = (floor group, route,
    grid, chunk start, claim indices)."""
    g, route, r, start, which = task
    claims, sets = pool.work()[1][g]
    points = sets[_DOMAIN[route]][r]
    chunk = points.scaled_chunk if route == "scaled" else points.chunk
    return chunk(start, [claims[i] for i in which])


def _side(_):
    """The side function of the running certify_alongside call."""
    return pool.work()[0]()


def certify_table(claims, fluid: FluidParams, sector: Sector, grid: GridSpec,
                  tol: Tolerances | None = None) -> list[MultiplierClassReport]:
    """Judge each claim on a base and a refined point set: the orbit images
    of the class grid and its refinement for a claim homogeneous of its
    claimed order, the 3-D grids for any other, a quotient's from scaled
    orbit jets when its numerator and K pass their degree tests.  Claims
    with one floor and route share the jet evaluations.

    The verdict is "pass" when every constant moves by less than
    tol.class_drift under grid refinement, "fail" otherwise (a wrong claimed
    degree diverges at the extended range corner).
    """
    return certify_alongside(None, claims, fluid, sector, grid, tol)[1]


def certify_alongside(side, claims, fluid: FluidParams, sector: Sector, grid: GridSpec,
                      tol: Tolerances | None = None) -> tuple:
    """(side(), certify_table(claims, ...)), side() run on the same pool as
    a one-task map, called before the claims' maps and taken after them:
    with two workers one runs it while the other starts on the claims, and
    in-process it runs last.  side is a function of no arguments, inherited
    by the workers and never pickled, or None (its result is then None); an
    error it raises reaches the caller."""
    tol = tol or Tolerances()
    groups: dict[float, list[Claim]] = {}
    for cl in claims:
        groups.setdefault(cl.lam_floor, []).append(cl)

    grids = (grid, _widened(grid))
    work = []
    for floor, members in sorted(groups.items()):
        images = tuple(_Points(fluid, sector, g, _orbit_axes(g, floor)) for g in grids)
        full = tuple(_Points(fluid, sector, g, _grid_axes(g, floor), image)
                     for g, image in zip(grids, images))
        work.append((members, {"orbit": images, "grid": full}))
    with pool.run((side, work)) as run:
        sides = run(_side, [0] if side else [])
        routes = list(run(_routes, range(len(work))))
        # the claim indices of each group on each route
        routed = {(g, route): tuple(i for i, rt in enumerate(rts) if rt == route)
                  for g, rts in enumerate(routes) for route in _DOMAIN}
        # a scaled task starts at a block of image points
        tasks = [(g, route, r, start, which) for (g, route), which in routed.items() if which
                 for r, points in enumerate(work[g][1][_DOMAIN[route]])
                 for start in (range(0, points.image.n, _block()) if route == "scaled"
                               else range(0, points.n, _CHUNK))]
        # the max of |derivative|/bound per (group, claim, grid), over its chunks
        tops: dict[tuple, np.ndarray] = {}
        for (g, _, r, _, which), result in zip(tasks, run(_chunk, tasks)):
            for i, top in zip(which, result):
                tops[g, i, r] = np.maximum(tops[g, i, r], top) if (g, i, r) in tops else top
        done = next(sides, None)

    reports = []
    for g, (members, sets) in enumerate(work):
        for i, cl in enumerate(members):
            domain = _DOMAIN[routes[g][i]]
            cb, cr = ({key: float(t) for key, t in zip(_KEYS, tops[g, i, r])} for r in (0, 1))
            drift, verdict = _verdict(cb, cr, tol.class_drift)
            reports.append(MultiplierClassReport(
                name=cl.name, s=cl.s, mtype=cl.mtype, lam_floor=cl.lam_floor,
                constants=cb, refined_constants=cr, drift=drift,
                n_base=sets[domain][0].n, n_refined=sets[domain][1].n,
                verdict=verdict, domain=domain,
            ))
    return done, reports
