"""Physical-space layer: tangential FFT, grid solves, kernel decay.

The tangential variables live on a periodic box standing in for the whole
hyperplane; data sampled on a uniform grid of one or two axes are pushed
through the forward FFT, each nonzero mode is solved with the
exponential-profile machinery at its own frequency, and one inverse FFT
returns every grid field.  Frequencies follow the standard DFT layout,
xi_k = 2 pi k / L with signed integer k.  A solve takes one datum and its
mode, as assemble_batch does, and keeps its per-mode residuals as arrays.

The zero tangential mode is outside the symbol domain (every formula
divides by A somewhere), so inputs must be mean-free per level: a zero-mode
amplitude above 1e-12 of the data norm is an error, anything smaller is
projected out (with a warning when it is above bare rounding).

Half-space profiles decay in x_N but the box truncation error is governed
by the slowest tangential decay of the solution kernels, which is set by
the A = 0 root scale min Re sqrt(rho lambda / mu~), taken from
char_roots_batch at A = 0.  Boxes shorter than ten of those decay lengths
trigger a warning rather than an error.

kernel_decay_check measures the decay envelope of the damped height kernel;
the kernel-decay command judges it with DecayReport.passed.  That kernel is
real and even: its symbol depends on xi' only through A = |xi'|, so the
envelope builds only the quarter spectrum, the non-negative frequencies of
every axis, and inverts each axis with a real-input irfft whose first
n//2 + 1 outputs are the whole kernel up to mirror images (a type-I DCT).
The multiplier ell must be elementwise and real-valued: it is called on each
column slab of the quarter-spectrum array of A at each level.  Each
envelope builds the symbol a column slab at a time into one real work
array per level, inverts it a slab at a time and folds every slab into the
sup of |k| and the dyadic shells, each quarter-grid sample weighted by the
interior grid points it stands for, so no whole-level symbol, no complex
spectrum and no whole real kernel is ever held.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .config import SOLVE_MODES, Tolerances
from .errors import ZeroModeData
from .params import FluidParams
from .symbols import char_roots_batch

__all__ = [
    "PhysicalField",
    "PhysicalSolution",
    "DecayReport",
    "tangential_frequencies",
    "solve_physical",
    "kernel_decay_check",
]

# Modes per assemble_batch call of the grid solve: a call's working set, a
# few dozen arrays of up to 20 x _CHUNK complex values, is about 2.9 MB at
# 512 modes (3-D, kinematic, three levels), whatever the grid size.
_CHUNK = 512


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _validate_grid(box_lengths, grid_shape) -> tuple[tuple[float, ...], tuple[int, ...]]:
    box = tuple(float(b) for b in box_lengths)
    shape = tuple(int(n) for n in grid_shape)
    if len(box) != len(shape) or not box:
        raise ValueError("box_lengths and grid_shape must be equal-length and nonempty")
    if len(shape) > 2:
        raise ValueError(f"at most two tangential axes are supported, got grid_shape {shape}")
    if any(b <= 0.0 or not math.isfinite(b) for b in box):
        raise ValueError(f"box lengths must be positive finite, got {box}")
    for n in shape:
        if n < 16 or not _is_pow2(n):
            raise ValueError(f"grid_shape entries must be powers of two >= 16, got {n}")
    return box, shape


def tangential_frequencies(box_lengths, grid_shape) -> list[np.ndarray]:
    """Signed frequency values per axis in DFT order."""
    box, shape = _validate_grid(box_lengths, grid_shape)
    return [2.0 * math.pi * np.fft.fftfreq(n, d=b / n) for b, n in zip(box, shape)]


@dataclass(frozen=True)
class PhysicalField:
    """One scalar field sampled on the tangential grid at several x_N levels.

    samples has shape (len(x_levels),) + grid_shape; levels carry their sign
    (positive above the interface, negative below).
    """

    box_lengths: tuple[float, ...]
    grid_shape: tuple[int, ...]
    x_levels: tuple[float, ...]
    samples: np.ndarray

    def __post_init__(self):
        box, shape = _validate_grid(self.box_lengths, self.grid_shape)
        object.__setattr__(self, "box_lengths", box)
        object.__setattr__(self, "grid_shape", shape)
        object.__setattr__(self, "x_levels", tuple(float(x) for x in self.x_levels))
        samples = np.asarray(self.samples, dtype=np.complex128)
        want = (len(self.x_levels),) + shape
        if samples.shape != want:
            raise ValueError(f"samples shape {samples.shape} != {want}")
        object.__setattr__(self, "samples", samples)


def _clean_zero_mode(spec: np.ndarray, name: str, tol: Tolerances) -> np.ndarray:
    zero = (0,) * spec.ndim
    amp = abs(spec[zero])
    norm = float(np.linalg.norm(spec))
    if norm == 0.0:
        return spec
    if amp > tol.zero_mode * norm:
        raise ZeroModeData(
            f"{name}: zero-frequency amplitude {amp:.3e} exceeds "
            f"{tol.zero_mode:.1e} of the data norm {norm:.3e}; "
            "subtract the tangential mean before solving"
        )
    if amp > 1e-15 * norm:
        warnings.warn(
            f"{name}: projecting out zero-mode residue {amp:.3e} "
            f"(norm {norm:.3e})", RuntimeWarning, stacklevel=3)
    out = spec.copy()
    out[zero] = 0.0
    return out


def _box_decay_warning(fluid: FluidParams, lam: complex, box: tuple[float, ...]):
    # Tangential kernel decay rate: the A = 0 roots, the branch-point scale
    # per phase.
    emin = min(float(r[0].real) for r in char_roots_batch(fluid, [lam], [0.0]))
    if emin <= 0.0:
        return
    short = [b for b in box if b < 10.0 / emin]
    if short:
        warnings.warn(
            f"box lengths {short} are below 10x the slowest kernel decay "
            f"length {1.0 / emin:.3e}; periodization error may be visible",
            RuntimeWarning, stacklevel=3)


@dataclass(frozen=True)
class PhysicalSolution:
    """Grid solution: velocities both sides, pressure, height, and per mode
    (modes: increasing flat C-order grid indices) the ODE and interface
    defects, the latter including the kinematic one, as an (M, 2) array."""

    fluid: FluidParams
    lam: complex
    mode: str
    u_plus: tuple[PhysicalField, ...]
    u_minus: tuple[PhysicalField, ...]
    pressure: PhysicalField
    height: PhysicalField
    modes: np.ndarray
    residuals: np.ndarray

    def worst_residuals(self) -> tuple[float, float]:
        """Largest (ODE, interface) residual over the modes; NaN if any is NaN."""
        ode, iface = self.residuals.max(axis=0, initial=0.0)
        return float(ode), float(iface)


def solve_physical(
    fluid: FluidParams,
    lam: complex,
    h_fields: Sequence[np.ndarray],
    top_field: np.ndarray,
    mode: str,
    box_lengths: Sequence[float],
    x_levels: Sequence[float],
    tol: Tolerances | None = None,
) -> PhysicalSolution:
    """FFT the boundary data, solve every nonzero mode, inverse FFT.

    top_field is H in explicit-H mode and d in kinematic mode (the height
    then derived per mode), as in assemble_batch.  x_levels are nonnegative
    distances from the interface; u_plus is evaluated at +x, u_minus and the
    pressure at -x.  Each mode also reports its ODE and interface defect,
    the certification sidecar.  The modes with nonzero data are solved as
    arrays, _CHUNK modes at a time; a refused height raises
    HeightNotInvertible at the first such mode in grid order.
    """
    from .resolvent import assemble_batch

    if mode not in SOLVE_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    tol = tol or Tolerances()
    top = np.asarray(top_field, dtype=np.complex128)
    box, shape = _validate_grid(box_lengths, top.shape)
    lam = complex(lam)
    levels = tuple(float(x) for x in x_levels)
    if any(x < 0.0 for x in levels):
        raise ValueError("x_levels are distances from the interface, >= 0")
    dim = len(shape) + 1
    if len(h_fields) != dim - 1:
        raise ValueError(f"expected {dim - 1} tangential jump fields, got {len(h_fields)}")

    h_spec = [_clean_zero_mode(np.fft.fftn(np.asarray(h, dtype=np.complex128), norm="forward"),
                               f"h_{m + 1}", tol)
              for m, h in enumerate(h_fields)]
    top_spec = _clean_zero_mode(np.fft.fftn(top, norm="forward"),
                                "H" if mode == "explicit-H" else "d", tol)
    _box_decay_warning(fluid, lam, box)

    # modes in np.ndindex order (C order), the zero mode and data-free ones skipped
    xi_all = np.stack([g.ravel() for g in
                       np.meshgrid(*tangential_frequencies(box, shape), indexing="ij")], axis=1)
    h_all = np.stack([h.ravel() for h in h_spec], axis=1)
    top_all = top_spec.ravel()
    keep = (h_all != 0).any(axis=1) | (top_all != 0)
    keep[0] = False
    modes = np.flatnonzero(keep)

    # u_plus, u_minus and the pressure, levels x flat modes each
    xs = np.asarray(levels, dtype=np.float64)[:, None]
    spec = np.zeros((2 * dim + 1, len(levels), top.size), dtype=np.complex128)
    height = np.zeros(top.size, dtype=np.complex128)
    residuals = np.zeros((modes.size, 2))
    for start in range(0, modes.size, _CHUNK):
        sel = modes[start:start + _CHUNK]
        b = assemble_batch(fluid, np.full(sel.size, lam), xi_all[sel], h_all[sel],
                           top_all[sel], mode, tol=tol)
        for J in range(dim):
            spec[J][:, sel] = b.u_plus[J](xs)
            spec[dim + J][:, sel] = b.u_minus[J](-xs)
        spec[2 * dim][:, sel] = b.pressure(-xs)
        height[sel] = b.H
        res = b.residuals()
        residuals[start:start + sel.size] = np.stack(
            [res["ode"], np.maximum(res["interface"], res.get("kinematic", res["interface"]))], 1)

    axes = tuple(range(-len(shape), 0))
    phys = np.fft.ifftn(spec.reshape(spec.shape[:2] + shape), axes=axes, norm="forward")

    def field(samples: np.ndarray, lv: tuple[float, ...]) -> PhysicalField:
        return PhysicalField(box_lengths=box, grid_shape=shape, x_levels=lv, samples=samples)

    neg = tuple(-x for x in levels)
    return PhysicalSolution(
        fluid=fluid, lam=lam, mode=mode,
        u_plus=tuple(field(u, levels) for u in phys[:dim]),
        u_minus=tuple(field(u, neg) for u in phys[dim:2 * dim]),
        pressure=field(phys[2 * dim], neg),
        height=field(np.fft.ifftn(height.reshape((1,) + shape), axes=axes, norm="forward"),
                     (0.0,)),
        modes=modes,
        residuals=residuals,
    )


# ---------------------------------------------------------------------------
# Kernel decay


def default_ell(a: np.ndarray) -> np.ndarray:
    return np.sqrt(1.0 + a ** 2)


@dataclass(frozen=True)
class DecayReport:
    """Dyadic-shell envelope of |k(x)| |x|^N for the damped height kernel."""

    dim: int
    box: float
    n: int
    x_levels: tuple[float, ...]
    constant: float
    shells: tuple[tuple[float, float, int], ...]
    drift_refine: float
    drift_box: float
    monotone_levels: tuple[bool, ...]

    def passed(self, drift_limit: float) -> bool:
        return (self.constant > 0.0 and math.isfinite(self.constant)
                and self.drift_refine < drift_limit
                and self.drift_box < drift_limit
                and all(self.monotone_levels))


def _dyadic_shells(samples, r_lo: float, r_hi: float) -> list[tuple[float, float, int]]:
    """(lo, max w, count) of each nonempty dyadic shell lo <= r < 2 lo.

    samples is an iterable of (r, w, weight) array triples, folded one
    triple at a time, with every r in [r_lo, r_hi]; a sample counts weight
    times (the grid points it stands for), and every weight is a positive
    integer.  lo runs over r_lo * 2^m up to the last one at or below r_hi.
    One searchsorted per triple bins its samples by those same lo <= r < hi
    tests, so a shell keeps its count and max whatever the split into
    triples.
    """
    n_shells = 0
    while r_lo * 2.0 ** n_shells <= r_hi:
        n_shells += 1
    edges = r_lo * 2.0 ** np.arange(n_shells + 1)
    # float sums of small integers, exact below 2^53
    counts = np.zeros(n_shells)
    tops = np.full(n_shells, -np.inf)
    for r, w, weight in samples:
        # flat index arrays: ufunc.at is several times slower on 2-D ones
        shell = np.searchsorted(edges, r.ravel(), side="right") - 1
        counts += np.bincount(shell, weights=weight.ravel(), minlength=n_shells)
        np.maximum.at(tops, shell, w.ravel())
    return [(float(edges[m]), float(tops[m]), int(counts[m]))
            for m in np.flatnonzero(counts)]


# kernel rows, and symbol columns, per irfft call of the envelope: 64 rows
# of the largest default grid (2n = 1024) are 0.5 MB, against 2.1 MB for the
# quarter-spectrum work array
_SLAB = 64


def _kernel_envelope(ell: Callable, dim: int, n: int, box: float,
                     levels: tuple[float, ...]):
    """(shell list, envelope constant, per-level grid sup of |k|).

    The symbol depends on xi' only through A, so it is real and even in
    every axis and lives on the quarter spectrum: m = n//2 + 1 non-negative
    frequencies per axis.  A real even sequence has a real even inverse, so
    each axis is inverted by irfft and keeps output indices 0..n//2, the
    rest being their mirror images.  At each level the symbol is built
    _SLAB columns at a time, A and ell(A) included, and each column slab
    goes straight into the leading-axis irfft (at dim 3, into the kernel-row
    buffer) whose first m rows refill one real m**(d-1) x m work array; the
    last axis is then inverted _SLAB rows at a time into that reused real
    buffer.  Each row slab folds into the grid sup of |k| and, through r
    and |k| r^N on its interior rows, into the dyadic shells; quarter index
    i stands for the grid points i and n - i (one point when they
    coincide), so a sample weighs the product over axes of its mirror
    points inside the interior.  Radii and weights are formed per row slab
    from per-axis vectors, so no whole-level A, symbol, radius or weight
    array, no complex spectrum and no full real kernel is allocated.
    """
    d = dim - 1
    m = n // 2 + 1
    quarter = 2.0 * math.pi * np.fft.rfftfreq(n, d=box / n)
    # the leading axis of A^2 in a column slab: whole at dim 3, none at dim 2
    lead = quarter[:, None] ** 2 if d == 2 else np.zeros((1, 1))
    spacing = box / n
    xw = (np.arange(n) * spacing + box / 2.0) % box - box / 2.0
    # keep clear of the wrap-around seam where the periodic image interferes
    inside = np.abs(xw) <= box / 4.0
    idx = np.arange(m)
    mirror = (n - idx) % n
    points = inside[:m].astype(np.int64) + (inside[mirror] & (mirror != idx))
    inner = np.flatnonzero(points)
    sq, wt = xw[inner] ** 2, points[inner]
    # the interior block as kernel rows x inner columns: the rows are inner
    # at dim 3 and the one row of the 1-D kernel at dim 2
    rows, row_sq, row_wt = ((inner, sq, wt) if d == 2 else
                            (np.zeros(1, np.intp), np.zeros(1), np.ones(1, np.int64)))
    # sqrt and + are monotone, so these are the min and max of every r below
    r_lo = min(np.sqrt(row_sq.min() + sq.min() + x_n ** 2) for x_n in levels)
    r_hi = max(np.sqrt(row_sq.max() + sq.max() + x_n ** 2) for x_n in levels)

    work = np.empty((m ** (d - 1), m))
    k_buf = np.empty((min(_SLAB, work.shape[0]), n))
    scale = (n / box) ** d
    sups = []

    def slabs():
        for x_n in levels:
            for start in range(0, m, _SLAB):
                a = np.sqrt(lead + quarter[start:start + _SLAB] ** 2)
                sym = ell(a)
                if np.iscomplexobj(sym):
                    raise ValueError("ell must be real-valued: the decay kernel is real")
                sym = np.exp(np.sqrt(1.0 + a ** 2) * -x_n) * sym
                if d == 2:    # through the kernel-row buffer, free until the rows
                    sym = np.fft.irfft(sym, n, axis=0, out=k_buf[:sym.shape[1]].T)[:m]
                work[:, start:start + _SLAB] = sym
            hi, lo = -np.inf, np.inf
            for start in range(0, work.shape[0], _SLAB):
                stop = min(start + _SLAB, work.shape[0])
                k = np.fft.irfft(work[start:stop], n, out=k_buf[:stop - start])[:, :m]
                k *= scale
                hi, lo = np.maximum(hi, k.max()), np.minimum(lo, k.min())
                p0, p1 = np.searchsorted(rows, (start, stop))
                r = np.sqrt(row_sq[p0:p1, None] + sq + x_n ** 2)
                yield (r, np.abs(k[np.ix_(rows[p0:p1] - start, inner)]) * r ** dim,
                       row_wt[p0:p1, None] * wt)
            sups.append(float(max(hi, -lo)))    # sup |k| on the whole grid

    shells = _dyadic_shells(slabs(), r_lo, r_hi)
    constant = max(s[1] for s in shells)
    return shells, constant, sups


def kernel_decay_check(
    ell: Callable | None = None,
    dim: int = 2,
    n: int | None = None,
    box: float | None = None,
    x_levels: Sequence[float] = (0.5, 1.0, 2.0),
) -> DecayReport:
    """Certify |k(x)| <= C |x|^{-N} for k = F^{-1}[exp(-sqrt(1+A^2) x_N) ell].

    The envelope constant is the max over dyadic shells of sup |k| |x|^N,
    compared across one grid refinement (n x2, box fixed) and one box
    enlargement (box x2 at fixed spacing); < 2x drift certifies stability.
    Levels with exact doubles also check that sup |k| decreases in x_N.
    The report only measures; DecayReport.passed judges it against a drift
    limit the caller supplies (the CLI passes Tolerances.envelope_drift).

    The kernel is real and even, and the inverse transform is
    quarter-spectrum: A runs over the non-negative frequencies of every
    axis.  ell must be elementwise: it is called on each column slab of
    that array of A at each level, and must return a real array of the
    slab's shape or a real scalar; a complex result raises ValueError.
    n must be an integer >= 4, box finite and positive, and x_levels
    non-empty with every level finite and positive; anything else raises
    ValueError naming the argument.

    Default grids keep the spacing near box/n = 1/16: the symbol tail cut
    at the Nyquist frequency leaves a flat ringing floor of relative size
    about exp(-pi/(2 spacing) x_min) which |x|^N amplifies in the far
    shells; coarse spacing makes the envelope track that floor instead of
    the kernel and the box-enlargement drift blows through 2x.
    """
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    if n is None:
        n = 1024 if dim == 2 else 512
    if not isinstance(n, numbers.Integral) or n < 4:
        raise ValueError(f"n must be an integer >= 4, got {n!r}")
    box = (64.0 if dim == 2 else 32.0) if box is None else float(box)
    if not (math.isfinite(box) and box > 0.0):
        raise ValueError(f"box must be finite and > 0, got {box!r}")
    ell = ell or default_ell
    levels = tuple(float(x) for x in x_levels)
    if not levels or not all(math.isfinite(x) and x > 0.0 for x in levels):
        raise ValueError(f"x_levels must be non-empty, finite and positive, got {levels}")
    shells, const, sups = _kernel_envelope(ell, dim, n, box, levels)
    _, const_ref, _ = _kernel_envelope(ell, dim, 2 * n, box, levels)
    _, const_box, _ = _kernel_envelope(ell, dim, 2 * n, 2.0 * box, levels)
    drift_r = max(const / const_ref, const_ref / const)
    drift_b = max(const / const_box, const_box / const)
    mono = []
    for i, x in enumerate(levels):
        for j, y in enumerate(levels):
            if abs(y - 2.0 * x) <= 1e-12 * abs(x):
                mono.append(sups[j] < sups[i])
    return DecayReport(dim=dim, box=box, n=n, x_levels=levels, constant=const,
                       shells=tuple(shells), drift_refine=float(drift_r),
                       drift_box=float(drift_b), monotone_levels=tuple(mono))
