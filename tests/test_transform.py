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
from lopstokes.transform import _tophys, _tospec

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

    def test_fft_roundtrip(self):
        rng = np.random.default_rng(7)
        for shape in [(16,), (16, 16)]:
            x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            back = _tophys(_tospec(x))
            assert rel_err(back, x) < TEST_TOL.fft_roundtrip


class TestPhysicalField:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="samples shape"):
            PhysicalField(box_lengths=BOX, grid_shape=SHAPE, x_levels=(0.0, 1.0),
                          samples=np.zeros((3, 16)))

    def test_accessors(self):
        f = PhysicalField(box_lengths=BOX, grid_shape=SHAPE, x_levels=(0.0, 1.0),
                          samples=np.ones((2, 16)))
        assert f.dim == 2
        assert f.x_levels == (0.0, 1.0)
        assert np.all(f.level(1) == 1.0)


class TestSolvePhysical:
    def test_requires_exactly_one_datum(self):
        pw = plane_wave(BOX, SHAPE, (1,))
        with pytest.raises(ValueError, match="exactly one"):
            solve_physical(REF, LAM, [pw], BOX, (0.0,), H_field=pw, d_field=pw)
        with pytest.raises(ValueError, match="exactly one"):
            solve_physical(REF, LAM, [pw], BOX, (0.0,))

    def test_rejects_negative_levels(self):
        pw = plane_wave(BOX, SHAPE, (1,))
        with pytest.raises(ValueError, match="x_levels"):
            solve_physical(REF, LAM, [pw], BOX, (0.0, -0.5), H_field=pw)

    def test_rejects_wrong_jump_count(self):
        pw = plane_wave(BOX, SHAPE, (1,))
        with pytest.raises(ValueError, match="tangential jump"):
            solve_physical(REF, LAM, [pw, pw], BOX, (0.0,), H_field=pw)

    def test_single_mode_matches_spectral_solve(self):
        c1 = 0.4 - 0.7j
        c_top = 0.25 + 0.6j
        pw = plane_wave(BOX, SHAPE, (3,))
        levels = (0.0, 0.3, 1.1)
        sol = solve_physical(REF, LAM, [c1 * pw], BOX, levels,
                             H_field=c_top * pw)
        sp = SpectralPoint(lam=LAM, xi=(3.0,))
        ref = solve_point(REF, sp, (c1,), c_top)
        worst = 0.0
        for j in range(2):
            for i, x in enumerate(levels):
                worst = max(worst, rel_err(sol.u_plus[j].level(i),
                                           ref.u_plus[j](x) * pw))
                worst = max(worst, rel_err(sol.u_minus[j].level(i),
                                           ref.u_minus[j](-x) * pw))
        for i, x in enumerate(levels):
            worst = max(worst, rel_err(sol.pressure.level(i),
                                       ref.pressure(-x) * pw))
        worst = max(worst, rel_err(sol.height.level(0),
                                   ref.H[0] * pw))
        assert worst < TEST_TOL.single_mode
        assert sol.mode == "explicit-H"
        assert sol.dim == 2
        assert (3,) in sol.mode_residuals
        ode_worst, iface_worst = sol.worst_residuals()
        assert ode_worst < TEST_TOL.ode_residual
        assert iface_worst < TEST_TOL.interface_residual

    def test_single_mode_3d_kinematic(self):
        box = (2.0 * math.pi, 4.0 * math.pi)
        shape = (16, 16)
        pw = plane_wave(box, shape, (2, -3))
        h = ((0.1 + 0.2j), (-0.4 + 0.3j))
        d = 0.3 - 0.2j
        sol = solve_physical(REF, LAM, [h[0] * pw, h[1] * pw], box, (0.5,),
                             d_field=d * pw)
        sp = SpectralPoint(lam=LAM, xi=(2.0, -1.5))
        ref = solve_point(REF, sp, h, d, "kinematic")
        assert sol.mode == "kinematic"
        assert sol.dim == 3
        assert rel_err(sol.height.level(0), ref.H[0] * pw) < TEST_TOL.single_mode
        for j in range(3):
            assert rel_err(sol.u_plus[j].level(0), ref.u_plus[j](0.5) * pw) < TEST_TOL.single_mode
            assert rel_err(sol.u_minus[j].level(0), ref.u_minus[j](-0.5) * pw) < TEST_TOL.single_mode
        assert rel_err(sol.pressure.level(0), ref.pressure(-0.5) * pw) < TEST_TOL.single_mode
        ode_worst, iface_worst = sol.worst_residuals()
        assert ode_worst < TEST_TOL.ode_residual
        assert iface_worst < TEST_TOL.interface_residual

    def test_two_mode_superposition(self):
        amps = (0.9 - 0.2j, -0.3 + 0.5j)
        tops = (0.1 + 0.4j, 0.7j)
        pws = (plane_wave(BOX, SHAPE, (3,)), plane_wave(BOX, SHAPE, (-5,)))
        h = amps[0] * pws[0] + amps[1] * pws[1]
        top = tops[0] * pws[0] + tops[1] * pws[1]
        sol = solve_physical(REF, LAM, [h], BOX, (0.2,), H_field=top)
        want_h = np.zeros(SHAPE, dtype=complex)
        want_u = np.zeros(SHAPE, dtype=complex)
        for amp, ctop, pw, xi in zip(amps, tops, pws, (3.0, -5.0)):
            sp = SpectralPoint(lam=LAM, xi=(xi,))
            ref = solve_point(REF, sp, (amp,), ctop)
            want_h += ref.H[0] * pw
            want_u += ref.u_plus[1](0.2) * pw
        assert rel_err(sol.height.level(0), want_h) < TEST_TOL.single_mode
        assert rel_err(sol.u_plus[1].level(0), want_u) < TEST_TOL.single_mode

    def test_zero_data(self):
        z = np.zeros(SHAPE, dtype=complex)
        sol = solve_physical(REF, LAM, [z], BOX, (0.0, 1.0), H_field=z)
        for f in (*sol.u_plus, *sol.u_minus, sol.pressure, sol.height):
            assert np.all(f.samples == 0.0)
        assert sol.mode_residuals == {}
        assert sol.worst_residuals() == (0.0, 0.0)

    def test_residual_sidecar_off(self):
        pw = plane_wave(BOX, SHAPE, (1,))
        sol = solve_physical(REF, LAM, [0.2 * pw], BOX, (0.0,),
                             H_field=0.1 * pw, residuals=False)
        assert sol.mode_residuals == {}

    def test_zero_mode_rejected(self):
        pw = plane_wave(BOX, SHAPE, (1,))
        with pytest.raises(ZeroModeData, match="zero-frequency"):
            solve_physical(REF, LAM, [pw + 1e-3], BOX, (0.0,), H_field=0.3 * pw)

    def test_zero_mode_projected_with_warning(self):
        pw = plane_wave(BOX, SHAPE, (1,))
        with pytest.warns(RuntimeWarning, match="projecting out zero-mode"):
            dirty = solve_physical(REF, LAM, [pw + 1e-13], BOX, (0.0,),
                                   H_field=0.3 * pw)
        clean = solve_physical(REF, LAM, [pw], BOX, (0.0,), H_field=0.3 * pw)
        assert rel_err(dirty.height.level(0), clean.height.level(0)) < 1e-12

    def test_short_box_warning(self):
        # at lam = 0.01 the slowest kernel decay length is ~14, far beyond 2*pi
        pw = plane_wave(BOX, SHAPE, (1,))
        with pytest.warns(RuntimeWarning, match="periodization"):
            solve_physical(REF, 0.01, [0.1 * pw], BOX, (0.0,), H_field=0.3 * pw)


class TestKernelDecay:
    def test_small_grid_2d(self):
        rep = kernel_decay_check(dim=2, n=512, box=32.0)
        assert rep.passed(TOL.envelope_drift)
        assert 0.2 < rep.constant < 0.5
        assert rep.drift_refine >= 1.0 and rep.drift_box >= 1.0
        assert rep.monotone_levels == (True, True)
        assert len(rep.shells) >= 4
        rows = rep.to_rows()
        assert all(len(r) == 3 and r[2] > 0 for r in rows)

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

    def test_growing_symbol_fails(self):
        bad = lambda a: np.exp(0.6 * a)
        rep = kernel_decay_check(ell=bad, dim=2, n=64, box=16.0)
        assert not rep.passed(TOL.envelope_drift)

    @pytest.mark.parametrize("dim,n,box,ell", [
        (2, 256, 16.0, None),
        (2, 128, 16.0, np.ones_like),
        (3, 64, 8.0, None),
        (3, 64, 8.0, lambda a: np.exp(0.6 * a)),
    ], ids=["2d", "2d-flat", "3d", "3d-growing"])
    def test_half_spectrum_matches_complex_oracle(self, monkeypatch, dim, n, box, ell):
        new = kernel_decay_check(ell, dim=dim, n=n, box=box)
        monkeypatch.setattr(transform, "_kernel_envelope", complex_kernel_envelope)
        old = kernel_decay_check(ell, dim=dim, n=n, box=box)
        assert new.constant == old.constant
        assert (new.drift_refine, new.drift_box) == (old.drift_refine, old.drift_box)
        assert new.monotone_levels == old.monotone_levels
        assert [(lo, cnt) for lo, _, cnt in new.shells] == [(lo, cnt) for lo, _, cnt in old.shells]
        np.testing.assert_allclose([s[1] for s in new.shells], [s[1] for s in old.shells],
                                   rtol=1e-11, atol=0.0)

    def test_shells_match_per_shell_masks(self):
        # the binning against a mask of every shell over every sample; some
        # samples sit exactly on shell edges, which belong to the upper shell
        rng = np.random.default_rng(3)
        lo = 0.37
        samples = [(lo * 2.0 ** rng.uniform(0.0, 9.0, shape), rng.uniform(0.0, 5.0, shape))
                   for shape in ((40, 30), (17,), (8, 8))]
        samples.append((lo * 2.0 ** np.array([0.0, 1.0, 4.0, 9.0]), np.arange(4.0)))
        rr = np.concatenate([r.ravel() for r, _ in samples])
        ww = np.concatenate([w.ravel() for _, w in samples])
        want, m = [], 0
        while lo * 2.0 ** m <= rr.max():
            mask = (rr >= lo * 2.0 ** m) & (rr < lo * 2.0 ** (m + 1))
            if mask.any():
                want.append((lo * 2.0 ** m, float(ww[mask].max()), int(mask.sum())))
            m += 1
        assert transform._dyadic_shells(samples) == want
        assert [cnt for *_, cnt in want][-1] == 1    # max r alone opens the last shell

    def test_complex_symbol_is_refused(self):
        with pytest.raises(ValueError, match="real-valued"):
            kernel_decay_check(ell=lambda a: (1.0 + 0.1j) * np.ones_like(a), dim=2,
                               n=64, box=16.0)

    def test_envelope_memory(self):
        # the largest grid of the check is the refined one, (2n)^2 values at
        # dim 3; a complex ifftn on dense meshes needs 18 such arrays
        n = 128
        tracemalloc.start()
        try:
            kernel_decay_check(dim=3, n=n, box=8.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 10 * (2 * n) ** 2 * 8

    def test_validation(self):
        with pytest.raises(ValueError, match="dim"):
            kernel_decay_check(dim=4)
        with pytest.raises(ValueError, match="positive"):
            kernel_decay_check(dim=2, n=64, box=16.0, x_levels=(0.0, 1.0))

    def test_passed_thresholds(self):
        rep = DecayReport(dim=2, box=64.0, n=16, x_levels=(0.5,), constant=1.0,
                          shells=((0.5, 1.0, 4),), drift_refine=1.5,
                          drift_box=1.1, monotone_levels=(True,))
        assert rep.passed(2.0)
        assert not rep.passed(1.2)
        assert not dataclasses.replace(rep, monotone_levels=(False,)).passed(2.0)
        assert not dataclasses.replace(rep, constant=float("nan")).passed(2.0)
