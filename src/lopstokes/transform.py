"""Physical-space layer: tangential FFT, grid solves, kernel decay.

The tangential variables live on a periodic box standing in for the whole
hyperplane; data sampled on a uniform grid are pushed through the forward
FFT, each nonzero mode is solved with the exponential-profile machinery at
its own frequency, and the inverse FFT returns grid fields.  Frequencies
follow the standard DFT layout, xi_k = 2 pi k / L with signed integer k.

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
real: its symbol is real and even in every frequency, so the envelope builds
only the non-negative half of the last frequency axis and inverts it with a
half-spectrum transform (irfftn).  The multiplier ell is called on that
half-spectrum array of A = |xi'| and must return a real-valued array.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .config import Tolerances
from .errors import ZeroModeData
from .params import FluidParams
from .resolvent import _CHUNK, assemble_batch
from .symbols import char_roots_batch

__all__ = [
    "PhysicalField",
    "PhysicalSolution",
    "DecayReport",
    "tangential_frequencies",
    "solve_physical",
    "kernel_decay_check",
]


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _validate_grid(box_lengths, grid_shape) -> tuple[tuple[float, ...], tuple[int, ...]]:
    box = tuple(float(b) for b in box_lengths)
    shape = tuple(int(n) for n in grid_shape)
    if len(box) != len(shape) or not box:
        raise ValueError("box_lengths and grid_shape must be equal-length and nonempty")
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

    @property
    def dim(self) -> int:
        return len(self.grid_shape) + 1

    def level(self, i: int) -> np.ndarray:
        return self.samples[i]


def _tospec(phys: np.ndarray) -> np.ndarray:
    return np.fft.fftn(phys) / phys.size


def _tophys(spec: np.ndarray) -> np.ndarray:
    return np.fft.ifftn(spec) * spec.size


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
    """Grid solution: velocities both sides, pressure, height, per-mode residuals."""

    fluid: FluidParams
    lam: complex
    mode: str
    u_plus: tuple[PhysicalField, ...]
    u_minus: tuple[PhysicalField, ...]
    pressure: PhysicalField
    height: PhysicalField
    mode_residuals: dict[tuple[int, ...], tuple[float, float]]

    @property
    def dim(self) -> int:
        return self.pressure.dim

    def worst_residuals(self) -> tuple[float, float]:
        if not self.mode_residuals:
            return 0.0, 0.0
        vals = list(self.mode_residuals.values())
        return max(v[0] for v in vals), max(v[1] for v in vals)


def solve_physical(
    fluid: FluidParams,
    lam: complex,
    h_fields: Sequence[np.ndarray],
    box_lengths: Sequence[float],
    x_levels: Sequence[float],
    H_field: np.ndarray | None = None,
    d_field: np.ndarray | None = None,
    tol: Tolerances | None = None,
    residuals: bool = True,
) -> PhysicalSolution:
    """FFT the boundary data, solve every nonzero mode, inverse FFT.

    Exactly one of H_field (height given) and d_field (kinematic datum,
    height derived per mode) must be supplied.  x_levels are nonnegative
    distances from the interface; u_plus is evaluated at +x, u_minus and
    the pressure at -x.  With residuals=True each mode also reports its
    ODE and interface defect, the certification sidecar.  The modes with
    nonzero data are solved as arrays, in resolvent-sized chunks
    (assemble_batch); a refused height raises HeightNotInvertible at the
    first such mode in grid order.
    """
    tol = tol or Tolerances()
    box, shape = _validate_grid(box_lengths, np.shape(h_fields[0]) if h_fields else
                                (H_field if H_field is not None else d_field).shape)
    lam = complex(lam)
    if (H_field is None) == (d_field is None):
        raise ValueError("supply exactly one of H_field and d_field")
    levels = tuple(float(x) for x in x_levels)
    if any(x < 0.0 for x in levels):
        raise ValueError("x_levels are distances from the interface, >= 0")
    dim = len(shape) + 1
    if len(h_fields) != dim - 1:
        raise ValueError(f"expected {dim - 1} tangential jump fields, got {len(h_fields)}")

    h_spec = [_clean_zero_mode(_tospec(np.asarray(h, dtype=np.complex128)), f"h_{m + 1}", tol)
              for m, h in enumerate(h_fields)]
    if H_field is not None:
        top_spec = _clean_zero_mode(_tospec(np.asarray(H_field, dtype=np.complex128)), "H", tol)
        data_mode = "explicit-H"
    else:
        top_spec = _clean_zero_mode(_tospec(np.asarray(d_field, dtype=np.complex128)), "d", tol)
        data_mode = "kinematic"
    _box_decay_warning(fluid, lam, box)

    # modes in np.ndindex order (C order), the zero mode and data-free ones skipped
    xi_all = np.stack([g.ravel() for g in
                       np.meshgrid(*tangential_frequencies(box, shape), indexing="ij")], axis=1)
    h_all = np.stack([h.ravel() for h in h_spec], axis=1)
    top_all = top_spec.ravel()
    keep = (h_all != 0).any(axis=1) | (top_all != 0)
    keep[0] = False
    modes = np.flatnonzero(keep)

    xs = np.asarray(levels, dtype=np.float64)[:, None]
    out_up = [np.zeros((len(levels),) + shape, dtype=np.complex128) for _ in range(dim)]
    out_um = [np.zeros((len(levels),) + shape, dtype=np.complex128) for _ in range(dim)]
    out_pr = np.zeros((len(levels),) + shape, dtype=np.complex128)
    out_h = np.zeros((1,) + shape, dtype=np.complex128)
    mode_res: dict[tuple[int, ...], tuple[float, float]] = {}

    def by_mode(out: np.ndarray) -> np.ndarray:
        return out.reshape(out.shape[0], -1)     # a view: levels x flat modes

    for start in range(0, modes.size, _CHUNK):
        sel = modes[start:start + _CHUNK]
        b = assemble_batch(fluid, np.full(sel.size, lam), xi_all[sel], h_all[sel],
                           top_all[sel], data_mode, tol=tol)
        for J in range(dim):
            by_mode(out_up[J])[:, sel] = b.u_plus[J](xs)
            by_mode(out_um[J])[:, sel] = b.u_minus[J](-xs)
        by_mode(out_pr)[:, sel] = b.pressure(-xs)
        by_mode(out_h)[0, sel] = b.H
        if residuals:
            res = b.residuals()
            iface = np.maximum(res["interface"], res.get("kinematic", res["interface"]))
            idx = zip(*np.unravel_index(sel, shape))
            mode_res.update(zip((tuple(map(int, i)) for i in idx),
                                zip(res["ode"].tolist(), iface.tolist())))

    def field(spec_stack: np.ndarray, lv: tuple[float, ...]) -> PhysicalField:
        phys = np.stack([_tophys(spec_stack[i]) for i in range(spec_stack.shape[0])])
        return PhysicalField(box_lengths=box, grid_shape=shape, x_levels=lv, samples=phys)

    neg = tuple(-x for x in levels)
    return PhysicalSolution(
        fluid=fluid, lam=lam, mode=data_mode,
        u_plus=tuple(field(u, levels) for u in out_up),
        u_minus=tuple(field(u, neg) for u in out_um),
        pressure=field(out_pr, neg),
        height=field(out_h, (0.0,)),
        mode_residuals=mode_res,
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

    def to_rows(self) -> list[tuple[float, float, int]]:
        return [tuple(s) for s in self.shells]


def _dyadic_shells(samples) -> list[tuple[float, float, int]]:
    """(lo, max w, count) of each nonempty dyadic shell lo <= r < 2 lo.

    samples holds (r, w) array pairs; lo runs over min r * 2^m up to the
    last one at or below max r.  One searchsorted per pair bins its samples
    by those same lo <= r < hi tests, so a shell keeps its count and max.
    """
    edges_lo = min(r.min() for r, _ in samples)
    r_max = max(r.max() for r, _ in samples)
    n_shells = 0
    while edges_lo * 2.0 ** n_shells <= r_max:
        n_shells += 1
    edges = edges_lo * 2.0 ** np.arange(n_shells + 1)
    counts = np.zeros(n_shells, dtype=np.int64)
    tops = np.full(n_shells, -np.inf)
    for r, w in samples:
        # flat index arrays: ufunc.at is several times slower on 2-D ones
        shell = np.searchsorted(edges, r.ravel(), side="right") - 1
        counts += np.bincount(shell, minlength=n_shells)
        np.maximum.at(tops, shell, w.ravel())
    return [(float(edges[m]), float(tops[m]), int(counts[m]))
            for m in np.flatnonzero(counts)]


def _kernel_envelope(ell: Callable, dim: int, n: int, box: float,
                     levels: tuple[float, ...]):
    """(shell list, envelope constant, per-level grid sup of |k|).

    The symbol lives on the half spectrum and irfftn returns the real
    kernel; both meshes stay sparse, and r and |k| r^N are formed on the
    interior block alone, so no full complex grid and no dense mesh is
    allocated.
    """
    d = dim - 1
    full = 2.0 * math.pi * np.fft.fftfreq(n, d=box / n)
    half = 2.0 * math.pi * np.fft.rfftfreq(n, d=box / n)
    a = np.sqrt(sum(f ** 2 for f in np.meshgrid(*([full] * (d - 1)), half,
                                                indexing="ij", sparse=True)))
    base = ell(a)
    if np.iscomplexobj(base):
        raise ValueError("ell must be real-valued: the decay kernel is real")
    damp_scale = np.sqrt(1.0 + a ** 2)
    spacing = box / n
    xw = (np.arange(n) * spacing + box / 2.0) % box - box / 2.0
    # keep clear of the wrap-around seam where the periodic image interferes
    inner = np.flatnonzero(np.abs(xw) <= box / 4.0)
    interior = np.ix_(*([inner] * d))
    r_tan2 = sum(x ** 2 for x in np.meshgrid(*([xw[inner]] * d), indexing="ij",
                                             sparse=True))

    samples = []    # per level: r and |k| r^N on the interior block
    sups = []
    for x_n in levels:
        sym = np.exp(-damp_scale * x_n) * base
        k = np.fft.irfftn(sym, s=(n,) * d, axes=tuple(range(d)))
        k *= (n / box) ** d
        sups.append(float(max(k.max(), -k.min())))    # sup |k| on the whole grid
        r = np.sqrt(r_tan2 + x_n ** 2)
        samples.append((r, np.abs(k[interior]) * r ** dim))
    shells = _dyadic_shells(samples)
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

    The kernel is real, and the inverse transform is half-spectrum: ell is
    called once per envelope on the array of A over the non-negative half
    of the last frequency axis and must return a real array of that shape;
    a complex result raises ValueError.

    Default grids keep the spacing near box/n = 1/16: the symbol tail cut
    at the Nyquist frequency leaves a flat ringing floor of relative size
    about exp(-pi/(2 spacing) x_min) which |x|^N amplifies in the far
    shells; coarse spacing makes the envelope track that floor instead of
    the kernel and the box-enlargement drift blows through 2x.
    """
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    if box is None:
        box = 64.0 if dim == 2 else 32.0
    if n is None:
        n = 1024 if dim == 2 else 512
    ell = ell or default_ell
    levels = tuple(float(x) for x in x_levels)
    if any(x <= 0.0 for x in levels):
        raise ValueError("x_levels must be positive")
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
