"""Thresholds, one-point helpers and the mutation hook shared between
test modules.

A single spectral point is a batch of one: SpectralPoint is the point
record the tests use, and point_kit, solve_point and point_amplitudes run
the production array code on arrays of length one.
lopatinski_matrix and cofactor_matrix spell out the 3x3 interface matrix
and its cofactors at one point, and coefficient_tables the P/R/S/T/p^-
data-to-amplitude tables, for checks against a direct solve.
entries_plus_raw and entries_minus_raw are the textbook boundary entries,
an oracle for the stabilized ones away from the degenerate set;
grid_coordinates and plane_wave lay out the single-mode grid datum.
complex_kernel_envelope is the decay envelope through a full complex
ifftn on dense meshes, an oracle for the half-spectrum transform.

mutated() scales one boundary-matrix entry or one solution amplitude by
(1 + rel) for the duration of a with-block, by patching the entry formula
(lopatinski.boundary_entries) or the amplitude formula (resolvent.amplitudes)
from outside.  The residual checks never read either formula, so a mutated
solve is internally consistent and only the physics checks can expose it;
the mutation tests prove that they do.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest

from lopstokes import lopatinski, resolvent
from lopstokes.coefficients import SymbolKit, amplitudes
from lopstokes.transform import _validate_grid

# Thresholds the tests apply to the package's results; the thresholds the
# package applies itself live in lopstokes.config.Tolerances.
TEST_TOL = SimpleNamespace(
    beta_residual=1e-12,        # interface system residual of the amplitudes
    beta_jump=1e-13,            # tangential velocity jump against h
    coeff_vs_direct=1e-11,      # symbol tables against direct solves
    slope_dev=0.05,             # measured K/A slope against slope_limit
    ode_residual=1e-10,
    interface_residual=1e-11,
    mutation_floor=1e-4,        # residual a perturbed amplitude must trigger
    fft_roundtrip=1e-13,
    single_mode=1e-12,          # one-mode grid solve against the profile solve
)

# boundary-matrix entries a mutation can target: name -> (side, slot), side 0
# the compressible (+) block and 1 the incompressible (-) block
ENTRY_TARGETS = {
    "l11p": (0, 0), "l12p": (0, 1), "l21p": (0, 2), "l22p": (0, 3),
    "l11m": (1, 0), "l12m": (1, 1), "l21m": (1, 2), "l22m": (1, 3),
}


@dataclass(frozen=True)
class SpectralPoint:
    """One resolvent/frequency point: lambda and the tangential frequency xi'."""

    lam: complex
    xi: tuple[float, ...]

    @property
    def a(self) -> float:
        return math.hypot(*self.xi)

    @property
    def dim(self) -> int:
        return len(self.xi) + 1

    def scaled(self, s: float) -> "SpectralPoint":
        """Parabolic rescaling (lambda, xi') -> (s^2 lambda, s xi')."""
        return SpectralPoint(self.lam * s * s, tuple(s * x for x in self.xi))


def amplitude_targets(dim: int) -> tuple[str, ...]:
    """Names of every solution amplitude at dimension dim."""
    names = []
    for base in ("beta_plus", "beta_minus", "g_plus", "g_minus"):
        names.extend(f"{base}_{j + 1}" for j in range(dim - 1))
        names.append(f"{base}_n")
    names.append("gamma_minus")
    return tuple(names)


@contextlib.contextmanager
def mutated(target: str, rel):
    """Inside the block, scale the named entry or amplitude by (1 + rel).

    rel may be an array, one factor per point of a batch.  A name that is
    no entry and no amplitude of the solved dimension raises ValueError
    inside the solve, so a typo cannot pass as an undetected mutation.
    """
    bump = 1.0 + rel
    with pytest.MonkeyPatch.context() as mp:
        if target in ENTRY_TARGETS:
            side, slot = ENTRY_TARGETS[target]
            clean = lopatinski.boundary_entries

            def entries(*args):
                *blocks, p = clean(*args)
                blocks[side] = tuple(v * bump if k == slot else v
                                     for k, v in enumerate(blocks[side]))
                return (*blocks, p)

            mp.setattr(lopatinski, "boundary_entries", entries)
        else:
            clean_amps = resolvent.amplitudes
            base, _, comp = target.rpartition("_")

            def amplitudes(*args):
                amps = dict(clean_amps(*args))
                dim = amps["beta_plus"].shape[0]
                if target not in amplitude_targets(dim):
                    raise ValueError(f"no amplitude {target!r} at dimension {dim}")
                if target == "gamma_minus":
                    amps[target] = amps[target] * bump
                    return amps
                row = dim - 1 if comp == "n" else int(comp) - 1
                amps[base] = amps[base].copy()
                amps[base][row] = amps[base][row] * bump
                return amps

            mp.setattr(resolvent, "amplitudes", amplitudes)
        yield


def mutation_probe(fluid, sp, h, H, rel: float = 1e-3) -> dict[str, tuple[float, float]]:
    """(ODE, interface) residual of the explicit-H solve at sp after
    mutating each single amplitude or boundary-matrix entry by (1 + rel);
    every target must clear the detection floor for the suite to be
    falsifiable."""
    out = {}
    for target in (*amplitude_targets(sp.dim), *ENTRY_TARGETS):
        with mutated(target, rel):
            res = solve_point(fluid, sp, h, H).residuals()
        out[target] = (float(res["ode"][0]), float(res["interface"][0]))
    return out


def point_kit(fluid, sp) -> SymbolKit:
    """The SymbolKit of one spectral point, every field an array of length one."""
    return SymbolKit.batch(fluid, [sp.lam], [sp.a])


def solve_point(fluid, sp, h, top, mode="explicit-H", **kw):
    """assemble_batch at one spectral point; top is H or d by mode."""
    return resolvent.assemble_batch(fluid, [sp.lam], [sp.xi], [h], [top], mode, **kw)


def point_amplitudes(fluid, sp, h, H) -> dict:
    """amplitudes() at one spectral point, with the point axis dropped."""
    amps = amplitudes(point_kit(fluid, sp), [np.array([1j * x]) for x in sp.xi],
                      [np.array([v]) for v in h], np.array([H]))
    return {key: v[..., 0] for key, v in amps.items()}


def lopatinski_matrix(kit, i: int = 0) -> np.ndarray:
    """The 3x3 interface matrix L at point i of a kit."""
    return np.array([
        [kit.l11p[i] + kit.l11m[i], kit.l12p[i], kit.l12m[i]],
        [kit.l21m[i], 0.0, kit.l22m[i]],
        [-kit.l21p[i], -kit.l22p[i], 0.0],
    ], dtype=np.complex128)


def cofactor_matrix(kit, i: int = 0) -> np.ndarray:
    """3x3 array C at point i of a kit, with (L^{-1})_jk = C[j, k]/det L."""
    return np.array([getattr(kit, f"c{j}{k}")[i] for j in (1, 2, 3) for k in (1, 2, 3)],
                    dtype=np.complex128).reshape(3, 3)


def coefficient_tables(fluid, sp) -> SimpleNamespace:
    """The data-to-amplitude tables at one point.

    Column m < N-1 weights h[m], column N-1 weights A*H; rows of the r_ and
    s_ tables run over the components J (tangential first, normal last).
    """
    kit = point_kit(fluid, sp)
    n = sp.dim
    ixi = [np.array([1j * x]) for x in sp.xi]

    def table(tangential, normal):
        """One row: the symbol at each i xi_m, then the normal column."""
        return np.array([*(tangential(x) for x in ixi), normal()])[:, 0]

    def r_table(r):
        rows = [table(lambda x, xj=xj: r(False, False, xj, x), lambda xj=xj: r(False, True, xj))
                for xj in ixi]
        rows.append(table(lambda x: r(True, False, ixi_m=x), lambda: r(True, True)))
        return np.array(rows)

    s_rows = [table(lambda x, xj=xj: kit.s_jm(xj, x), lambda xj=xj: kit.s_jN(xj))
              for xj in ixi]
    return SimpleNamespace(
        p_plus=table(kit.p_plus_m, kit.p_plus_N),
        p_minus=table(kit.p_minus_m, kit.p_minus_N),
        r_plus=r_table(kit.r_plus),
        r_minus=r_table(kit.r_minus),
        s_plus=np.array([*s_rows, table(kit.s_plus_Nm, kit.s_plus_NN)]),
        s_minus=np.array([*s_rows, table(kit.s_minus_Nm, kit.s_minus_NN)]),
        t_plus=np.full(n - 1, kit.t_plus()[0]),
        t_minus=np.full(n - 1, kit.t_minus()[0]),
        p_press=table(kit.p_press_m, kit.p_press_N),
    )


def entries_plus_raw(fluid, lam, a, roots):
    """Textbook compressible entries with the explicit A+B+ - A^2 division.

    Loses accuracy as lambda -> 0; cross-check oracle only.
    """
    mu, nu, rho = fluid.mu_plus, fluid.nu_plus, fluid.rho_plus
    ap, bp, _ = roots
    d = ap * bp - a * a
    l11 = rho * lam * ap / d
    l22 = rho * lam * bp / d
    l12 = mu * a * a * (2.0 * ap * bp - a * a - bp * bp) / d
    l21 = rho * lam * ((mu + nu) * ap + (mu - nu) * bp) / ((mu + nu) * (bp + ap) * d)
    return l11, l12, l21, l22


def entries_minus_raw(fluid, lam, a, roots):
    """Incompressible entries with the naive B- - A subtraction (oracle)."""
    mu = fluid.mu_minus
    bm = roots[2]
    return (
        mu * (a + bm),
        mu * a * (bm - a),
        mu * (bm - a),
        mu * (a + bm) * bm,
    )


def grid_coordinates(box_lengths, grid_shape) -> list[np.ndarray]:
    """Sample positions per axis of the tangential grid."""
    box, shape = _validate_grid(box_lengths, grid_shape)
    return [np.arange(n) * (b / n) for b, n in zip(box, shape)]


def plane_wave(box_lengths, grid_shape, mode) -> np.ndarray:
    """exp(i xi_mode . x') sampled on the grid; the single-mode test datum."""
    box, shape = _validate_grid(box_lengths, grid_shape)
    if len(mode) != len(shape):
        raise ValueError("mode index rank must match the grid rank")
    coords = grid_coordinates(box, shape)
    out = np.ones(shape, dtype=np.complex128)
    for ax, (k, b) in enumerate(zip(mode, box)):
        xi = 2.0 * math.pi * k / b
        shape_ax = [1] * len(shape)
        shape_ax[ax] = shape[ax]
        out = out * np.exp(1j * xi * coords[ax]).reshape(shape_ax)
    return out


def complex_kernel_envelope(ell, dim: int, n: int, box: float, levels):
    """transform._kernel_envelope through a full complex ifftn on dense
    meshes: the whole spectrum is inverted and |k| includes the rounding
    residue of the imaginary part.  Oracle for the half-spectrum path."""
    d = dim - 1
    freqs = [2.0 * math.pi * np.fft.fftfreq(n, d=box / n) for _ in range(d)]
    fmesh = np.meshgrid(*freqs, indexing="ij") if d > 1 else [freqs[0]]
    a = np.sqrt(sum(f ** 2 for f in fmesh))
    base = ell(a)
    spacing = box / n
    xw = (np.arange(n) * spacing + box / 2.0) % box - box / 2.0
    xmesh = np.meshgrid(*([xw] * d), indexing="ij") if d > 1 else [xw]
    r_tan2 = sum(x ** 2 for x in xmesh)
    interior = np.ones(a.shape, dtype=bool)
    for x in xmesh:
        interior &= np.abs(x) <= box / 4.0
    damp_scale = np.sqrt(1.0 + a ** 2)

    samples_r: list[np.ndarray] = []
    samples_w: list[np.ndarray] = []
    sups = []
    for x_n in levels:
        sym = np.exp(-damp_scale * x_n) * base
        k = (n / box) ** d * np.fft.ifftn(sym)
        mag = np.abs(k)
        sups.append(float(mag.max()))
        r = np.sqrt(r_tan2 + x_n ** 2)
        samples_r.append(r[interior].ravel())
        samples_w.append((mag * r ** dim)[interior].ravel())
    rr = np.concatenate(samples_r)
    ww = np.concatenate(samples_w)
    edges_lo = rr.min()
    shells = []
    m = 0
    while True:
        lo = edges_lo * 2.0 ** m
        hi = edges_lo * 2.0 ** (m + 1)
        mask = (rr >= lo) & (rr < hi)
        cnt = int(mask.sum())
        if lo > rr.max():
            break
        if cnt:
            shells.append((float(lo), float(ww[mask].max()), cnt))
        m += 1
    constant = max(s[1] for s in shells)
    return shells, constant, sups
