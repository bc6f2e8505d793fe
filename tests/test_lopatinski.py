"""Boundary matrix: entries, determinant identities, scaling, scan, asymptotics.

Frozen entry/determinant constants come from an independent 50-digit mpmath
evaluation of the textbook entry formulas at pinned inputs.
"""

from __future__ import annotations

import cmath
import math
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    SpectralPoint,
    cofactor_matrix,
    entries_minus_raw,
    entries_plus_raw,
    lopatinski_matrix,
    mutated,
    point_kit,
)
from lopstokes import (
    FluidParams,
    Sector,
    asymptotic_report,
    omega1,
    omega2,
    scan_lower_bound,
)
from lopstokes import lopatinski, pool
from lopstokes.coefficients import SymbolKit
from lopstokes.config import GridSpec, REFERENCE_PARAMS
from lopstokes.errors import NonPositiveOmega
from lopstokes.lopatinski import (
    ENTRY_DEGREES,
    block_det,
    boundary_entries,
)
from lopstokes.symbols import char_roots_batch

REF = REFERENCE_PARAMS
SECTOR = Sector(epsilon=math.pi / 4)

P1 = SpectralPoint(lam=2.0 + 1.5j, xi=(0.7, -0.4))
P3 = SpectralPoint(lam=1e6 * cmath.exp(2j), xi=(1e-3,))
FLUID4 = FluidParams(2.0, 3.0, 0.5, 1.5, 2.5, 0.7)
P4 = SpectralPoint(lam=0.02 - 0.05j, xi=(40.0, -9.0))

O1_ENTRIES = {
    "l11p": 1.8300944717141206116 + 0.41095212815761891639j,
    "l12p": 0.39442831025272345232 - 0.0068595057053612015422j,
    "l21p": 0.60681278500418992665 - 0.01055308570055569468j,
    "l22p": 2.3462646666923634183 + 0.63701503130843995511j,
    "l11m": 3.0627452212017464341 + 0.66474055980849218739j,
    "l12m": 1.1692641390698135581 + 0.5359309728924331597j,
    "l21m": 1.4502936715420365037 + 0.66474055980849218739j,
    "l22m": 6.4692641390698135581 + 3.5359309728924331597j,
}
O1_DET = 46.158537625408672064 + 69.367396206703281627j
O3_DET = -4463362610735.3275303 - 5167770005634.8150629j
O4_DET = 27855505.463162974972 - 3939.271161908254173j


def rel(got, want):
    return abs(got - want) / abs(want)


ENTRY_NAMES = ("l11p", "l12p", "l21p", "l22p", "l11m", "l12m", "l21m", "l22m")


def entries(fluid, sp):
    """The eight stabilized entries at one point, by name, as complex scalars."""
    kit = point_kit(fluid, sp)
    return {name: complex(getattr(kit, name)[0]) for name in ENTRY_NAMES}


def det_at(fluid, sp):
    return complex(point_kit(fluid, sp).det[0])


def random_points(n=120, seed=5):
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(n):
        mag = 10.0 ** rng.uniform(-4, 8)
        ang = rng.uniform(-3 * math.pi / 4, 3 * math.pi / 4)
        a = 10.0 ** rng.uniform(-4, 8)
        if rng.integers(2):
            xi = (float(a),)
        else:
            xi = (float(a) * 0.6, float(a) * 0.8)
        pts.append(SpectralPoint(lam=mag * cmath.exp(1j * ang), xi=xi))
    return pts


class TestFrozenEntries:
    def test_entries_point_one(self):
        got = entries(REF, P1)
        for name, want in O1_ENTRIES.items():
            assert rel(got[name], want) < 1e-13, name

    def test_det_point_one(self):
        assert rel(det_at(REF, P1), O1_DET) < 1e-13

    def test_det_point_three(self):
        assert rel(det_at(REF, P3), O3_DET) < 1e-13

    def test_det_point_four(self):
        assert rel(det_at(FLUID4, P4), O4_DET) < 1e-13

    def test_stabilized_p_example(self):
        # rho_+=2, mu_+=nu_+=1, lam=3, A=1: A_+ = 2, B_+ = sqrt(7),
        # P = (A_+ B_+ + A^2)/(rho_+ lam/(2 mu_+ + nu_+) + A^2) = (2 sqrt7 + 1)/3
        fluid = FluidParams(2.0, 1.0, 1.0, 1.0, 1.0)
        kit = point_kit(fluid, SpectralPoint(lam=3.0, xi=(1.0,)))
        # L+11 = mu (mu+nu)/(2mu+nu) A_+ P
        p_val = kit.l11p[0] * 3.0 / (2.0 * kit.ap[0])
        want = (2.0 * math.sqrt(7.0) + 1.0) / 3.0
        assert rel(p_val, want) < 1e-14
        assert rel(kit.p_stab[0], want) < 1e-14

    def test_minus_entries_closed_form(self):
        # mu_-=1, A=1, B_-=2 means L-11 = 3, L-22 = 6
        fluid = FluidParams(1.0, 3.0, 1.0, 1.0, 1.0)  # rho_-lam/mu_- + A^2 = 4
        sp = SpectralPoint(lam=1.0, xi=(1.0,))
        assert rel(point_kit(fluid, sp).bm[0], 2.0) < 1e-15
        got = entries(fluid, sp)
        assert rel(got["l11m"], 3.0) < 1e-14
        assert rel(got["l12m"], 1.0) < 1e-14
        assert rel(got["l21m"], 1.0) < 1e-14
        assert rel(got["l22m"], 6.0) < 1e-14

    def test_plus_small_lambda_limit(self):
        # L+21 -> 2 mu^2/(2mu+nu) = 2/3 at reference as lambda -> 0
        sp = SpectralPoint(lam=1e-12 + 0.0j, xi=(1.0,))
        assert rel(entries(REF, sp)["l21p"], 2.0 / 3.0) < 1e-6

    def test_minus_small_lambda_vanishing(self):
        # L-21 -> 0 like lambda at fixed A
        base = abs(entries(REF, P_at(1e-6))["l21m"])
        smaller = abs(entries(REF, P_at(1e-8))["l21m"])
        assert smaller < 2e-2 * base


def P_at(lam_mag):
    return SpectralPoint(lam=complex(lam_mag), xi=(1.0,))


class TestStabilizedForms:
    # The raw forms divide by (or subtract) nearly cancelling quantities, so
    # their own rounding error grows like eps/gate near the cancellation edge;
    # the stated tolerances are only meaningful where the raw oracle itself
    # still carries the digits.  Points closer to the edge get a
    # conditioning-aware bound instead of being skipped.

    def test_plus_raw_agreement(self):
        checked = 0
        for sp in random_points(seed=31):
            kit = point_kit(REF, sp)
            scale2 = (math.sqrt(abs(sp.lam)) + sp.a) ** 2
            gate = abs(kit.ap[0] * kit.bp[0] - sp.a ** 2) / scale2
            if gate <= 1e-8:
                continue
            stable = (kit.l11p, kit.l12p, kit.l21p, kit.l22p)
            raw = entries_plus_raw(REF, kit.lam, kit.a, (kit.ap, kit.bp, kit.bm))
            bound = 1e-10 if gate > 1e-4 else 100.0 * 2.3e-16 / gate
            for s, w in zip(stable, raw):
                assert rel(s[0], w[0]) < bound
            checked += 1
        assert checked > 60

    def test_minus_raw_agreement(self):
        checked = 0
        for sp in random_points(seed=37):
            kit = point_kit(REF, sp)
            gate = abs(kit.bm[0] - sp.a) / (abs(kit.bm[0]) + sp.a)
            if gate <= 1e-10:
                continue
            stable = (kit.l11m, kit.l12m, kit.l21m, kit.l22m)
            raw = entries_minus_raw(REF, kit.lam, kit.a, (kit.ap, kit.bp, kit.bm))
            bound = 1e-11 if gate > 1e-3 else 100.0 * 2.3e-16 / gate
            for s, w in zip(stable, raw):
                assert rel(s[0], w[0]) < bound
            checked += 1
        assert checked > 60


class TestDeterminantIdentities:
    @given(
        mag=st.floats(1e-4, 1e8),
        ang=st.floats(-(math.pi - math.pi / 4), math.pi - math.pi / 4),
        a=st.floats(1e-4, 1e8),
        two_d=st.booleans(),
    )
    @settings(max_examples=150)
    def test_factorized_equals_direct(self, mag, ang, a, two_d):
        xi = (a,) if two_d else (a * 0.6, a * 0.8)
        kit = point_kit(REF, SpectralPoint(lam=mag * cmath.exp(1j * ang), xi=xi))
        direct = complex(np.linalg.det(lopatinski_matrix(kit)))
        assert rel(kit.det[0], direct) < 1e-13

    def test_block_split_definition(self):
        got = entries(REF, P1)
        lp = tuple(got[n] for n in ENTRY_NAMES[:4])
        lm = tuple(got[n] for n in ENTRY_NAMES[4:])
        det, det_plus, det_minus = block_det(lp, lm)
        det_p = lp[0] * lp[3] - lp[1] * lp[2]
        det_m = lm[0] * lm[3] - lm[1] * lm[2]
        assert rel(det_plus, det_p) < 1e-15
        assert rel(det_minus, det_m) < 1e-15
        assert rel(det, lm[3] * det_p + lp[3] * det_m) < 1e-15
        assert rel(det, det_at(REF, P1)) < 1e-15

    @pytest.mark.parametrize("fluid,sp", [(REF, P1), (REF, P3), (FLUID4, P4)])
    def test_adjugate_identity(self, fluid, sp):
        kit = point_kit(fluid, sp)
        prod = lopatinski_matrix(kit) @ cofactor_matrix(kit) / kit.det[0]
        assert float(np.max(np.abs(prod - np.eye(3)))) < 1e-12

    @pytest.mark.parametrize("s", [0.5, 2.0, 10.0])
    def test_parabolic_homogeneity(self, s):
        named0 = entries(REF, P1)
        named1 = entries(REF, P1.scaled(s))
        for name, deg in ENTRY_DEGREES.items():
            if name == "det":
                continue
            assert rel(named1[name], s ** deg * named0[name]) < 1e-12, name
        assert rel(det_at(REF, P1.scaled(s)), s ** 4 * det_at(REF, P1)) < 1e-12

    def test_entry_mutation_is_internally_consistent(self):
        lam, a = np.array([P1.lam]), np.array([P1.a])
        roots = char_roots_batch(REF, lam, a)
        clean = boundary_entries(REF, lam, a, *roots)
        with mutated("l12p", 1e-3):
            kit = SymbolKit(REF, lam, a, roots)
        lp = (kit.l11p, kit.l12p, kit.l21p, kit.l22p)
        lm = (kit.l11m, kit.l12m, kit.l21m, kit.l22m)
        assert rel(lp[1][0], clean[0][1][0] * 1.001) < 1e-15
        det_p = lp[0] * lp[3] - lp[1] * lp[2]
        det_m = lm[0] * lm[3] - lm[1] * lm[2]
        assert rel(kit.det_plus[0], det_p[0]) < 1e-15
        assert rel(kit.det[0], (lm[3] * det_p + lp[3] * det_m)[0]) < 1e-15
        assert kit.det[0] != block_det(*clean[:2])[0][0]


class TestAsymptotics:
    def test_reference_constants(self):
        assert omega1(FluidParams(1.0, 2.0, 1.0, 1.0, 1.0)) == pytest.approx(8.0)
        assert omega2(REF) == pytest.approx(2.0 * math.sqrt(2.0) + 4.0, rel=1e-15)

    def test_report_at_100(self):
        w1, w2, (d1, d2) = asymptotic_report(REF, SECTOR, 100.0)
        assert w1 == omega1(REF) and w2 == omega2(REF)
        assert max(d1, d2) <= 0.05

    def test_report_tightens_with_ratio(self):
        _, _, dev3 = asymptotic_report(REF, SECTOR, 1e3)
        _, _, dev6 = asymptotic_report(REF, SECTOR, 1e6)
        assert max(dev6) < max(dev3)
        _, _, dev4 = asymptotic_report(REF, SECTOR, 1e4)
        assert max(dev4) <= 0.005

    def test_tolerance_scale_moves_the_cli_gate(self, tmp_path):
        import json

        from lopstokes.cli import main

        path = tmp_path / "small.json"
        path.write_text(json.dumps({"grid": {
            "lam_min": 1e-2, "lam_max": 1e2, "lam_per_decade": 2, "n_angles": 5,
            "a_min": 1e-2, "a_max": 1e2, "a_per_decade": 2}}))
        argv = ["scan-lopatinski", "--config", str(path), "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        assert main([*argv, "--tolerance-scale", "0.1"]) == 1

    def test_custom_fluid_constants_positive(self):
        assert omega1(FLUID4) > 0.0
        assert omega2(FLUID4) > 0.0


SMALL_GRID = GridSpec(
    lam_min=1e-2, lam_max=1e2, lam_per_decade=2, n_angles=5,
    a_min=1e-2, a_max=1e2, a_per_decade=2,
)


class TestScan:
    def test_report_shape(self):
        rep = scan_lower_bound(REF, SECTOR, SMALL_GRID, os.devnull)
        assert rep.omega > 0.0
        assert rep.n_points == 9 * 5 * 9
        assert abs(rep.worst_lam) > 0.0 and rep.worst_a > 0.0
        d = rep.to_dict()
        for key in ("omega", "omega1", "omega2", "worst_point", "regime_deviations",
                    "grid", "n_points"):
            assert key in d
        assert d["worst_point"]["ratio"] == rep.omega

    def test_omega_is_labelled_a_grid_estimate(self):
        d = scan_lower_bound(REF, SECTOR, SMALL_GRID, os.devnull).to_dict()
        assert d["omega_kind"] == "grid minimum, an upper estimate of the infimum"

    def test_thresholds_are_the_probed_ratio(self, monkeypatch):
        # R1 and R2 name the ratio asymptotic_report was run at, whatever it is
        probed = []

        def spy(fluid, sector, ratio):
            probed.append(ratio)
            return asymptotic_report(fluid, sector, ratio)

        monkeypatch.setattr(lopatinski, "asymptotic_report", spy)
        monkeypatch.setattr(lopatinski, "_REGIME_RATIO", 1e3)
        rep = scan_lower_bound(REF, SECTOR, SMALL_GRID, os.devnull)
        assert probed == [1e3]
        assert rep.to_dict()["regime_thresholds"] == {"R1": 1e3, "R2": 1e3}
        assert (rep.delta1, rep.delta2) == asymptotic_report(REF, SECTOR, 1e3)[2]

    def test_scan_narrower_sector_not_worse(self):
        # shrinking the angle span cannot lower the infimum
        wide = scan_lower_bound(REF, SECTOR, SMALL_GRID, os.devnull)
        narrow = scan_lower_bound(REF, Sector(epsilon=math.pi / 2), SMALL_GRID, os.devnull)
        assert narrow.omega >= wide.omega

    def test_small_chunks_change_nothing(self, monkeypatch, tmp_path):
        want = scan_lower_bound(REF, SECTOR, SMALL_GRID, str(tmp_path / "want.csv"))
        monkeypatch.setattr(lopatinski, "_TASK_POINTS", 37)
        got = scan_lower_bound(REF, SECTOR, SMALL_GRID, str(tmp_path / "got.csv"))
        assert got == want
        rows = (tmp_path / "got.csv").read_bytes()
        assert rows == (tmp_path / "want.csv").read_bytes()
        assert [len(row.split(b",")) for row in rows.splitlines()] == [5] * (1 + got.n_points)

    def test_peak_memory_does_not_grow_with_the_magnitude(self, monkeypatch):
        # one magnitude of 14,641 and 58,564 points (4x), in tasks of 1,024:
        # a task lays out its own points, not the magnitude it splits, so
        # the task sets the peak.  tracemalloc sees this process only, so
        # the tasks run here rather than in pool workers.
        monkeypatch.setattr(pool, "_workers", lambda: 1)
        monkeypatch.setattr(lopatinski, "_TASK_POINTS", 1024)
        peaks = []
        for n_angles in (121, 484):
            grid = GridSpec(lam_min=1.0, lam_max=1.0000001, lam_per_decade=1,
                            n_angles=n_angles)
            assert grid.lam_mags().size == 1
            tracemalloc.start()
            try:
                rep = scan_lower_bound(REF, SECTOR, grid, os.devnull)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert rep.n_points == n_angles * grid.a_vals().size
        assert peaks[1] <= 1.5 * peaks[0], peaks

    def test_constant_ratio_reports_the_first_point(self, monkeypatch):
        # every point ties, in every task: the first grid point is the worst
        monkeypatch.setattr(lopatinski, "_TASK_POINTS", 37)
        monkeypatch.setattr(lopatinski, "det_ratios",
                            lambda fluid, lam, a: (np.ones(lam.size), np.full(lam.size, 0.5)))
        rep = scan_lower_bound(REF, SECTOR, SMALL_GRID, os.devnull)
        lam, a = SMALL_GRID.points(SECTOR.epsilon)
        assert (rep.omega, rep.worst_lam, rep.worst_a) == (0.5, lam[0], a[0])

    def test_first_nonfinite_point_is_named(self, monkeypatch):
        # NaN in the sixth and the second task of 37 points, each splitting a
        # magnitude of 45: the grid-order first is named
        lam, a = SMALL_GRID.points(SECTOR.epsilon)
        clean = lopatinski.det_ratios

        def poisoned(fluid, lam_c, a_c):
            absdet, ratio = clean(fluid, lam_c, a_c)
            for k in (200, 50):
                ratio[(lam_c == lam[k]) & (a_c == a[k])] = np.nan
            return absdet, ratio

        monkeypatch.setattr(lopatinski, "_TASK_POINTS", 37)
        monkeypatch.setattr(lopatinski, "det_ratios", poisoned)
        with pytest.raises(NonPositiveOmega,
                           match=re.escape(f"nonfinite |det L| ratio at lam={lam[50]!r}, "
                                           f"A={a[50]!r}")):
            scan_lower_bound(REF, SECTOR, SMALL_GRID, os.devnull)
