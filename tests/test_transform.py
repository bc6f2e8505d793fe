"""Physical-space layer: grids, per-mode solves and the kernel decay
certificate."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from helpers import (
    TEST_TOL,
    SpectralPoint,
    complex_kernel_envelope,
    grid_coordinates,
    plane_wave,
    solve_point,
)
from lopstokes import transform
from lopstokes.config import Tolerances
from lopstokes.errors import ZeroModeData
from lopstokes.params import FluidParams
from lopstokes.transform import (
    DecayReport,
    PhysicalField,
    kernel_decay_check,
    solve_physical,
    tangential_frequencies,
)

TOL = Tolerances()
REF = FluidParams(rho_plus=1.0, rho_minus=2.0, mu_plus=1.0, mu_minus=1.0,
                  nu_plus=1.0, sigma=1.0)
# real part large enough that the default 2*pi box clears the ten-decay-length
# warning threshold
LAM = 9.0 + 4.0j
BOX = (2.0 * math.pi,)
SHAPE = (16,)


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    scale = float(np.max(np.abs(want)))
    if scale == 0.0:
        return float(np.max(np.abs(got)))
    return float(np.max(np.abs(got - want)) / scale)


class TestGrids:
    def test_frequency_layout(self):
        freqs = tangential_frequencies(BOX, SHAPE)
        assert freqs[0][0] == 0.0
        assert freqs[0][3] == pytest.approx(3.0, rel=1e-15)
        assert freqs[0][13] == pytest.approx(-3.0, rel=1e-15)
        assert freqs[0][8] == pytest.approx(-8.0, rel=1e-15)
        half = tangential_frequencies((4.0 * math.pi,), SHAPE)
        assert half[0][1] == pytest.approx(0.5, rel=1e-15)

    def test_coordinates(self):
        xs = grid_coordinates(BOX, SHAPE)[0]
        assert xs[0] == 0.0
        assert xs[1] == pytest.approx(2.0 * math.pi / 16, rel=1e-15)
        assert xs.shape == (16,)

    @pytest.mark.parametrize("box,shape", [
        ((2.0 * math.pi,), (24,)),
        ((2.0 * math.pi,), (8,)),
        ((-1.0,), (16,)),
        ((2.0, 3.0), (16,)),
        ((), ()),
        ((1.0, 1.0, 1.0), (16, 16, 16)),
    ])
    def test_grid_validation(self, box, shape):
        with pytest.raises(ValueError):
            tangential_frequencies(box, shape)

    def test_plane_wave_spectrum(self):
        pw = plane_wave(BOX, SHAPE, (3,))
        spec = np.fft.fft(pw) / pw.size
        assert abs(spec[3] - 1.0) < 1e-14
        spec[3] = 0.0
        assert np.max(np.abs(spec)) < 1e-14

    def test_plane_wave_negative_mode(self):
        spec = np.fft.fft(plane_wave(BOX, SHAPE, (-5,))) / 16
        assert abs(spec[11] - 1.0) < 1e-14

    def test_plane_wave_2d_grid(self):
        pw = plane_wave((2.0 * math.pi, 4.0 * math.pi), (16, 16), (2, -3))
        spec = np.fft.fftn(pw) / pw.size
        assert abs(spec[2, 13] - 1.0) < 1e-14

    def test_plane_wave_rank_mismatch(self):
        with pytest.raises(ValueError, match="rank"):
            plane_wave(BOX, SHAPE, (1, 2))


class TestPhysicalField:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="samples shape"):
            PhysicalField(box_lengths=BOX, grid_shape=SHAPE, x_levels=(0.0, 1.0),
                          samples=np.zeros((3, 16)))

    def test_accessors(self):
        f = PhysicalField(box_lengths=BOX, grid_shape=SHAPE, x_levels=(0.0, 1.0),
                          samples=np.ones((2, 16)))
        assert f.grid_shape == SHAPE
        assert f.x_levels == (0.0, 1.0)
        assert np.all(f.samples[1] == 1.0)


class TestSolvePhysical:
    def test_rejects_unknown_mode(self):
        pw = plane_wave(BOX, SHAPE, (1,))
        with pytest.raises(ValueError, match="unknown mode 'H'"):
            solve_physical(REF, LAM, [pw], pw, "H", BOX, (0.0,))

    def test_rejects_negative_levels(self):
        pw = plane_wave(BOX, SHAPE, (1,))
        with pytest.raises(ValueError, match="x_levels"):
            solve_physical(REF, LAM, [pw], pw, "explicit-H", BOX, (0.0, -0.5))

    def test_rejects_wrong_jump_count(self):
        pw = plane_wave(BOX, SHAPE, (1,))
        with pytest.raises(ValueError, match="tangential jump"):
            solve_physical(REF, LAM, [pw, pw], pw, "explicit-H", BOX, (0.0,))

    def test_single_mode_matches_spectral_solve(self):
        c1 = 0.4 - 0.7j
        c_top = 0.25 + 0.6j
        pw = plane_wave(BOX, SHAPE, (3,))
        levels = (0.0, 0.3, 1.1)
        sol = solve_physical(REF, LAM, [c1 * pw], c_top * pw, "explicit-H", BOX, levels)
        sp = SpectralPoint(lam=LAM, xi=(3.0,))
        ref = solve_point(REF, sp, (c1,), c_top)
        worst = 0.0
        for j in range(2):
            for i, x in enumerate(levels):
                worst = max(worst, rel_err(sol.u_plus[j].samples[i],
                                           ref.u_plus[j](x) * pw))
                worst = max(worst, rel_err(sol.u_minus[j].samples[i],
                                           ref.u_minus[j](-x) * pw))
        for i, x in enumerate(levels):
            worst = max(worst, rel_err(sol.pressure.samples[i],
                                       ref.pressure(-x) * pw))
        worst = max(worst, rel_err(sol.height.samples[0],
                                   ref.H[0] * pw))
        assert worst < TEST_TOL.single_mode
        assert sol.mode == "explicit-H"
        assert sol.pressure.grid_shape == SHAPE
        assert 3 in sol.modes
        ode_worst, iface_worst = sol.worst_residuals()
        assert ode_worst < TEST_TOL.ode_residual
        assert iface_worst < TEST_TOL.interface_residual

    def test_single_mode_3d_kinematic(self):
        box = (2.0 * math.pi, 4.0 * math.pi)
        shape = (16, 16)
        pw = plane_wave(box, shape, (2, -3))
        h = ((0.1 + 0.2j), (-0.4 + 0.3j))
        d = 0.3 - 0.2j
        sol = solve_physical(REF, LAM, [h[0] * pw, h[1] * pw], d * pw, "kinematic", box,
                             (0.5,))
        sp = SpectralPoint(lam=LAM, xi=(2.0, -1.5))
        ref = solve_point(REF, sp, h, d, "kinematic")
        assert sol.mode == "kinematic"
        assert sol.pressure.grid_shape == shape
        assert rel_err(sol.height.samples[0], ref.H[0] * pw) < TEST_TOL.single_mode
        for j in range(3):
            assert rel_err(sol.u_plus[j].samples[0], ref.u_plus[j](0.5) * pw) < TEST_TOL.single_mode
            assert rel_err(sol.u_minus[j].samples[0], ref.u_minus[j](-0.5) * pw) < TEST_TOL.single_mode
        assert rel_err(sol.pressure.samples[0], ref.pressure(-0.5) * pw) < TEST_TOL.single_mode
        ode_worst, iface_worst = sol.worst_residuals()
        assert ode_worst < TEST_TOL.ode_residual
        assert iface_worst < TEST_TOL.interface_residual

    def test_two_mode_superposition(self):
        amps = (0.9 - 0.2j, -0.3 + 0.5j)
        tops = (0.1 + 0.4j, 0.7j)
        pws = (plane_wave(BOX, SHAPE, (3,)), plane_wave(BOX, SHAPE, (-5,)))
        h = amps[0] * pws[0] + amps[1] * pws[1]
        top = tops[0] * pws[0] + tops[1] * pws[1]
        sol = solve_physical(REF, LAM, [h], top, "explicit-H", BOX, (0.2,))
        want_h = np.zeros(SHAPE, dtype=complex)
        want_u = np.zeros(SHAPE, dtype=complex)
        for amp, ctop, pw, xi in zip(amps, tops, pws, (3.0, -5.0)):
            sp = SpectralPoint(lam=LAM, xi=(xi,))
            ref = solve_point(REF, sp, (amp,), ctop)
            want_h += ref.H[0] * pw
            want_u += ref.u_plus[1](0.2) * pw
        assert rel_err(sol.height.samples[0], want_h) < TEST_TOL.single_mode
        assert rel_err(sol.u_plus[1].samples[0], want_u) < TEST_TOL.single_mode

    def test_zero_data(self):
        z = np.zeros(SHAPE, dtype=complex)
        sol = solve_physical(REF, LAM, [z], z, "explicit-H", BOX, (0.0, 1.0))
        for f in (*sol.u_plus, *sol.u_minus, sol.pressure, sol.height):
            assert np.all(f.samples == 0.0)
        assert sol.modes.size == 0 and sol.residuals.shape == (0, 2)
        assert sol.worst_residuals() == (0.0, 0.0)

    def test_worst_residuals_propagate_nan(self):
        # a NaN that is not the first mode's still decides the worst value
        pw = plane_wave(BOX, SHAPE, (1,))
        sol = solve_physical(REF, LAM, [0.2 * pw], 0.1 * pw, "explicit-H", BOX, (0.0,))
        sol = dataclasses.replace(sol, modes=np.array([1, 2, 3]), residuals=np.array(
            [[1e-16, 2e-16], [math.nan, 1e-16], [3e-16, math.nan]]))
        assert all(math.isnan(v) for v in sol.worst_residuals())

    def test_zero_mode_rejected(self):
        pw = plane_wave(BOX, SHAPE, (1,))
        with pytest.raises(ZeroModeData, match="zero-frequency"):
            solve_physical(REF, LAM, [pw + 1e-3], 0.3 * pw, "explicit-H", BOX, (0.0,))

    def test_zero_mode_projected_with_warning(self):
        pw = plane_wave(BOX, SHAPE, (1,))
        with pytest.warns(RuntimeWarning, match="projecting out zero-mode"):
            dirty = solve_physical(REF, LAM, [pw + 1e-13], 0.3 * pw, "explicit-H", BOX,
                                   (0.0,))
        clean = solve_physical(REF, LAM, [pw], 0.3 * pw, "explicit-H", BOX, (0.0,))
        assert rel_err(dirty.height.samples[0], clean.height.samples[0]) < 1e-12

    def test_short_box_warning(self):
        # at lam = 0.01 the slowest kernel decay length is ~14, far beyond 2*pi
        pw = plane_wave(BOX, SHAPE, (1,))
        with pytest.warns(RuntimeWarning, match="periodization"):
            solve_physical(REF, 0.01, [0.1 * pw], 0.3 * pw, "explicit-H", BOX, (0.0,))


class TestKernelDecay:
    def test_small_grid_2d(self):
        rep = kernel_decay_check(dim=2, n=512, box=32.0)
        assert rep.passed(TOL.envelope_drift)
        assert 0.2 < rep.constant < 0.5
        assert rep.drift_refine >= 1.0 and rep.drift_box >= 1.0
        assert rep.monotone_levels == (True, True)
        assert len(rep.shells) >= 4
        assert all(len(r) == 3 and r[2] > 0 for r in rep.shells)

    def test_small_grid_3d(self):
        rep = kernel_decay_check(dim=3, n=128, box=8.0)
        assert rep.passed(TOL.envelope_drift)
        assert 0.2 < rep.constant < 0.5
        assert rep.dim == 3

    def test_flat_symbol(self):
        rep = kernel_decay_check(ell=lambda a: np.ones_like(a), dim=2,
                                 n=512, box=32.0)
        assert rep.passed(TOL.envelope_drift)
        assert 0.1 < rep.constant < 0.3

    @pytest.mark.parametrize("dim,n,box", [(2, 64, 16.0), (3, 32, 8.0)])
    def test_scalar_symbol_equals_its_array(self, dim, n, box):
        # ell may return a scalar: the quarter-spectrum symbol array takes
        # its shape from the grid, not from ell's result
        scalar = kernel_decay_check(ell=lambda a: 1.0, dim=dim, n=n, box=box)
        array = kernel_decay_check(ell=lambda a: np.ones_like(a), dim=dim, n=n, box=box)
        assert scalar == array

    def test_growing_symbol_fails(self):
        bad = lambda a: np.exp(0.6 * a)
        rep = kernel_decay_check(ell=bad, dim=2, n=64, box=16.0)
        assert not rep.passed(TOL.envelope_drift)

    @pytest.mark.parametrize("dim,n,box,ell,rtol", [
        (2, 256, 16.0, None, 0.0),
        (2, 128, 16.0, np.ones_like, 0.0),
        (3, 64, 8.0, None, 0.0),
        (3, 64, 8.0, lambda a: np.exp(0.6 * a), 0.0),
        (2, 33, 16.0, None, 1e-15),
        (2, 30, 16.0, None, 1e-15),
        (2, 48, 10.0, None, 1e-15),
        (2, 36, 7.3, lambda a: np.exp(0.6 * a), 1e-15),
        (3, 33, 8.0, None, 1e-15),
        (3, 30, 8.0, None, 1e-15),
        (3, 48, 10.0, None, 1e-15),
        (3, 36, 7.3, lambda a: np.exp(0.6 * a), 1e-15),
    ], ids=["2d", "2d-flat", "3d", "3d-growing",
            "2d-odd", "2d-n30", "2d-box10", "2d-box7.3-growing",
            "3d-odd", "3d-n30", "3d-box10", "3d-box7.3-growing"])
    def test_quarter_spectrum_matches_complex_oracle(self, monkeypatch, dim, n, box, ell,
                                                     rtol):
        # odd n has no self-mirrored Nyquist index, n = 30 has one outside
        # the interior, and non-dyadic boxes round the interior test.  The
        # real and the complex inverse sum the symbol in different orders,
        # so a constant may differ in its last bit: bit-equal on the dyadic
        # grids, one ulp apart at dim 2, n = 66, box = 16 (the refined grid
        # of "2d-odd", one ulp apart for the half-spectrum inverse too) and
        # at dim 3, n = 30, box = 8
        new = kernel_decay_check(ell, dim=dim, n=n, box=box)
        monkeypatch.setattr(transform, "_kernel_envelope", complex_kernel_envelope)
        old = kernel_decay_check(ell, dim=dim, n=n, box=box)
        np.testing.assert_allclose([new.constant, new.drift_refine, new.drift_box],
                                   [old.constant, old.drift_refine, old.drift_box],
                                   rtol=rtol, atol=0.0)
        assert new.monotone_levels == old.monotone_levels
        assert [(lo, cnt) for lo, _, cnt in new.shells] == [(lo, cnt) for lo, _, cnt in old.shells]
        np.testing.assert_allclose([s[1] for s in new.shells], [s[1] for s in old.shells],
                                   rtol=1e-11, atol=0.0)

    def test_shells_match_per_shell_masks(self):
        # the binning against a mask of every shell over every sample, each
        # counted with its weight, the number of mirror points it stands for
        # (1, 2 or 4); some samples sit exactly on shell edges, which belong
        # to the upper shell
        rng = np.random.default_rng(3)
        lo = 0.37
        samples = [(lo * 2.0 ** rng.uniform(0.0, 9.0, shape), rng.uniform(0.0, 5.0, shape),
                    rng.choice([1, 2, 4], shape))
                   for shape in ((40, 30), (17,), (8, 8))]
        samples.append((lo * 2.0 ** np.array([0.0, 1.0, 4.0, 9.0]), np.arange(4.0),
                        np.array([4, 1, 2, 1])))
        rr, ww, cc = (np.concatenate([s[i].ravel() for s in samples]) for i in range(3))
        want, m = [], 0
        while lo * 2.0 ** m <= rr.max():
            mask = (rr >= lo * 2.0 ** m) & (rr < lo * 2.0 ** (m + 1))
            if mask.any():
                want.append((lo * 2.0 ** m, float(ww[mask].max()), int(cc[mask].sum())))
            m += 1
        assert transform._dyadic_shells(iter(samples), rr.min(), rr.max()) == want
        assert [cnt for *_, cnt in want][-1] == 1    # max r alone opens the last shell

    def test_complex_symbol_is_refused(self):
        with pytest.raises(ValueError, match="real-valued"):
            kernel_decay_check(ell=lambda a: (1.0 + 0.1j) * np.ones_like(a), dim=2,
                               n=64, box=16.0)

    def _traced_peak(self, **kw) -> int:
        tracemalloc.start()
        try:
            kernel_decay_check(**kw)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_envelope_memory(self):
        # the largest grid of the check is the refined one, (2n)^2 values at
        # dim 3.  The envelope holds one real quarter-spectrum work array,
        # ((2n)/2 + 1)^2 values, and one buffer of _SLAB kernel rows, which
        # the leading-axis irfft of each symbol column slab fills first; A,
        # ell(A) and the damped symbol exist one column slab at a time, and
        # radii and weights one kernel-row slab at a time.  That traces
        # about 1.28 (2n)^2 doubles at n = 128 (2n = 256 rows span several
        # slabs)
        n = 128
        assert 2 * n > 2 * transform._SLAB
        assert self._traced_peak(dim=3, n=n, box=8.0) <= 1.45 * (2 * n) ** 2 * 8

    def test_default_envelope_memory(self):
        # the kernel-decay command's dim-3 check, on its default grids:
        # about 3.6 MiB traced
        assert self._traced_peak(dim=3) <= 4.5 * 2 ** 20

    # kernel_decay_check(dim) on the default grids, as the kernel-decay
    # command runs it: (constant, drift_refine, drift_box, monotone_levels,
    # repr(shells)), recorded from the whole-grid irfftn envelope except
    # three far-shell sups (dim 2 shell 8, dim 3 shells 4 and 8), re-recorded
    # from the quarter-spectrum envelope: they moved by round-off only
    GOLDEN = {
        2: (0.33719372442563367, 1.0000000002986948, 1.0000000000000415, (True, True),
            "((0.5, 0.33719372442563367, 27), (1.0, 0.3256092629542767, 89), "
            "(2.0, 0.234055568531766, 245), (4.0, 0.014124791773825316, 394), "
            "(8.0, 0.00037536632499049797, 774), (16.0, 1.7932076171178757e-07, 10))"),
        3: (0.3137301456223678, 1.0000000013556474, 1.0000000000007252, (True, True),
            "((0.5, 0.3137301456223678, 593), (1.0, 0.2927491576215958, 4813), "
            "(2.0, 0.21539279301848624, 28929), (4.0, 0.013158254568350802, 115748), "
            "(8.0, 0.00046133729529962013, 48064))"),
    }

    @pytest.mark.parametrize("dim", [2, 3])
    def test_default_envelopes_are_golden(self, dim):
        # max, min and the shell binning do not depend on the split into
        # slabs, and the quarter-spectrum inverse keeps every constant, drift
        # and count of the whole-grid one
        rep = kernel_decay_check(dim=dim)
        assert (rep.constant, rep.drift_refine, rep.drift_box, rep.monotone_levels,
                repr(rep.shells)) == self.GOLDEN[dim]

    @pytest.mark.parametrize("dim,n,box", [(2, 64, 16.0), (3, 32, 8.0)])
    def test_symbol_returning_its_argument(self, dim, n, box):
        # ell may hand back the array of A itself; the damped symbol is then
        # built beside it, not over it
        same = kernel_decay_check(ell=lambda a: a, dim=dim, n=n, box=box)
        copied = kernel_decay_check(ell=lambda a: a.copy(), dim=dim, n=n, box=box)
        assert same == copied

    def test_validation(self):
        with pytest.raises(ValueError, match="dim"):
            kernel_decay_check(dim=4)
        with pytest.raises(ValueError, match="positive"):
            kernel_decay_check(dim=2, n=64, box=16.0, x_levels=(0.0, 1.0))
        # each bad argument is named, never a stray arithmetic error
        for name, bad in [("n", 0), ("n", 1), ("n", 3), ("n", 64.0),
                          ("box", 0.0), ("box", -8.0), ("box", math.nan),
                          ("box", math.inf), ("x_levels", ()),
                          ("x_levels", (math.nan,)), ("x_levels", (math.inf, 1.0))]:
            args = {"dim": 2, "n": 64, "box": 16.0, name: bad}
            with pytest.raises(ValueError, match=f"^{name} "):
                kernel_decay_check(**args)

    def test_passed_thresholds(self):
        rep = DecayReport(dim=2, box=64.0, n=16, x_levels=(0.5,), constant=1.0,
                          shells=((0.5, 1.0, 4),), drift_refine=1.5,
                          drift_box=1.1, monotone_levels=(True,))
        assert rep.passed(2.0)
        assert not rep.passed(1.2)
        assert not dataclasses.replace(rep, monotone_levels=(False,)).passed(2.0)
        assert not dataclasses.replace(rep, constant=float("nan")).passed(2.0)
