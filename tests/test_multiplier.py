"""Multiplier-class estimator: calibration symbols, verdicts, claim table.

Calibration constants are hand-derivable: on the scan directions (1,0) and
(0.6,0.8) the symbol i xi_1 / A has |m| = 1, |d_xi1 m| A = 0.64 and
|d_xi2 m| A = 0.48 (the (1,0) direction contributes zeros that must land
in the discarded-below-noise count, not in the constants).
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from lopstokes import (
    FluidParams,
    GridSpec,
    RunConfig,
    GridTooCoarse,
    Sector,
    Tolerances,
    certify_table,
    declared_claims,
    height_curve,
    omega4_formula,
)
from lopstokes import multiplier
from lopstokes.coefficients import SymbolKit
from lopstokes.multiplier import KAPPAS, Claim
from lopstokes.config import ELISION_THRESHOLD, REFERENCE_PARAMS, STRESS_PARAM_SETS

REF = REFERENCE_PARAMS
SECTOR = Sector(epsilon=math.pi / 4)

SMALL = GridSpec(lam_min=1e-2, lam_max=1e4, lam_per_decade=2,
                 n_angles=5, a_min=1e-2, a_max=1e2, a_per_decade=2)

LAMBDA0_REF = 50.118723362727245


def run(fn, s, mtype, lam_floor=0.0):
    """The report of one claim on the SMALL grid."""
    claim = Claim("symbol", float(s), mtype, fn, lam_floor=lam_floor)
    return certify_table([claim], REF, SECTOR, SMALL)[0]


class TestCalibration:
    def test_direction_symbol_passes_type2(self):
        rep = run(lambda kit, i1: i1 / kit.a, 0, 2)
        assert rep.verdict == "pass"
        assert rep.constants[("00", 0)] == pytest.approx(1.0, rel=1e-9)
        assert rep.constants[("10", 0)] == pytest.approx(0.64, rel=1e-5)
        assert rep.constants[("01", 0)] == pytest.approx(0.48, rel=1e-5)
        # lambda-independent symbol: every (tau d_tau) estimate is exactly 0
        # (tau = 0 rays carry a zero noise floor, so these resolve as 0.0)
        assert all(rep.constants[(k, 1)] == 0.0 for k in KAPPAS)
        assert rep.discarded > 0

    def test_a_squared_passes_type1(self):
        rep = run(lambda kit, i1: kit.a * kit.a + 0j, 2, 1)
        assert rep.verdict == "pass"
        # second xi_1 derivative of A^2 is exactly 2 against the unit bound
        assert rep.constants[("20", 0)] == pytest.approx(2.0, rel=1e-6)
        assert rep.constants[("00", 0)] <= 1.0 + 1e-9

    def test_a_claimed_order_one_type1_fails(self):
        # d^2 A ~ 1/A beats (sqrt|lam|+A)^{-1} at the small-A large-lam
        # corner, so refinement widening must blow the drift up
        rep = run(lambda kit, i1: kit.a + 0j, 1, 1)
        assert rep.verdict == "fail"
        assert rep.max_drift() >= Tolerances().class_drift

    def test_overclaimed_degree_fails(self):
        # L12+ is order 2; claiming order 1 under-counts one scale power
        rep = run(lambda kit, i1: kit.l12p, 1, 1)
        assert rep.verdict == "fail"

    def test_product_rule(self):
        # order-2 type-1 entry times the order--4 type-2 inverse determinant
        rep = run(lambda kit, i1: kit.l12p / kit.det, -2, 2)
        assert rep.verdict == "pass"


class TestEstimator:
    def test_claim_object_roundtrip(self):
        cl = Claim("probe", 1.0, 1, lambda kit, i1: kit.l11p)
        rep = certify_table([cl], REF, SECTOR, SMALL)[0]
        assert (rep.name, rep.s, rep.mtype, rep.lam_floor) == ("probe", 1.0, 1, 0.0)
        assert rep.verdict == "pass"

    def test_rows_shape(self):
        rep = run(lambda kit, i1: kit.l11p, 1, 1)
        rows = list(rep.rows())
        assert len(rows) == 12
        for kappa, ell, c, drift in rows:
            assert kappa in KAPPAS
            assert ell in (0, 1)
            assert c >= 0.0
            assert math.isnan(drift) or drift > 0.0
        assert math.isfinite(rep.max_drift())
        assert rep.n_base > 0 and rep.n_refined > rep.n_base

    def test_floor_inserted_into_grid(self):
        floor = 3.7  # off-grid magnitude
        rep = run(lambda kit, i1: kit.l11p, 1, 1, lam_floor=floor)
        assert rep.lam_floor == floor
        assert rep.verdict == "pass"
        # magnitudes at and above the floor only: 3.7 plus the grid tail
        n_mags = 1 + int(np.sum(SMALL.lam_mags() > floor))
        assert rep.n_base == n_mags * 5 * 9 * 2

    def test_floor_beyond_range_collapses_to_single_magnitude(self):
        # the floor magnitude itself is always kept on the grid
        rep = run(lambda kit, i1: kit.l11p, 1, 1, lam_floor=1e12)
        assert rep.n_base == 1 * 5 * 9 * 2
        assert rep.n_refined == 1 * 5 * 25 * 2

    def test_unresolvable_verdict_raises(self):
        from lopstokes.multiplier import _verdict
        key = ("00", 0)
        with pytest.raises(GridTooCoarse):
            _verdict({key: 1.0}, {key: 1.0}, {key: False}, {key: False}, 2.0)


class TestClaimTable:
    def test_declared_claims_structure(self):
        claims = declared_claims(7.5)
        assert len(claims) == 45
        names = [c.name for c in claims]
        assert len(set(names)) == 45
        assert all(c.mtype in (1, 2) for c in claims)
        floored = [c for c in claims if c.lam_floor == 7.5]
        assert len(floored) == 13
        assert all(c.lam_floor in (0.0, 7.5) for c in claims)
        by_name = {c.name: c for c in claims}
        assert (by_name["L12+"].s, by_name["L12+"].mtype) == (2, 1)
        assert (by_name["detL_inv"].s, by_name["detL_inv"].mtype) == (-4, 2)
        assert (by_name["K"].s, by_name["K"].mtype) == (1, 2)

    def test_class_cutoff_reference(self):
        # the quotient claims' cutoff: the height-curve cutoff at omega4_formula
        lam0 = height_curve(REF, SECTOR, GridSpec()).cutoff(omega4_formula(REF, SECTOR))
        assert lam0 == pytest.approx(LAMBDA0_REF, rel=1e-12)

    def test_estimate_class_matches_table(self):
        # a claim certified alone matches its entry in the shared-stencil table
        claims = {c.name: c for c in declared_claims(LAMBDA0_REF)}
        table = {r.name: r for r in certify_table(list(claims.values()), REF, SECTOR, SMALL)}
        for name in ("S+_NN", "A*S+NN/q"):
            rep = certify_table([claims[name]], REF, SECTOR, SMALL)[0]
            want = table[name]
            for f in dataclasses.fields(rep):
                # repr compares the nan drift entries of unresolved indices too
                assert repr(getattr(rep, f.name)) == repr(getattr(want, f.name)), (name, f.name)
        assert table["A*S+NN/q"].lam_floor == LAMBDA0_REF
        assert table["S+_NN"].lam_floor == 0.0

    def test_certify_table_reference(self):
        reports = certify_table(declared_claims(LAMBDA0_REF), REF, SECTOR,
                                RunConfig().class_grid)
        assert len(reports) == 45
        failures = [r.name for r in reports if r.verdict != "pass"]
        assert failures == []
        assert sum(1 for r in reports if r.lam_floor == LAMBDA0_REF) == 13
        worst = max(r.max_drift() for r in reports)
        assert worst < Tolerances().class_drift


def _reports_equal(got, want):
    assert [r.name for r in got] == [r.name for r in want]
    for rep, ref in zip(got, want):
        for f in dataclasses.fields(rep):
            # repr compares the nan drift entries of unresolved indices too
            assert repr(getattr(rep, f.name)) == repr(getattr(ref, f.name)), (rep.name, f.name)


class TestChunking:
    def test_chunk_keeps_numpy_on_one_arithmetic_path(self):
        # the stencil kit holds 27 complex128 values per grid point
        assert 27 * multiplier._CHUNK < ELISION_THRESHOLD

    def test_reports_do_not_depend_on_the_chunk(self, monkeypatch):
        claims = declared_claims(LAMBDA0_REF)
        want = certify_table(claims, REF, SECTOR, SMALL)
        # an odd chunk that divides no grid size; 37 keeps the run to seconds
        monkeypatch.setattr(multiplier, "_CHUNK", 37)
        got = certify_table(claims, REF, SECTOR, SMALL)
        _reports_equal(got, want)

    def test_peak_memory_does_not_grow_with_the_grid(self):
        # refined grids of 594 and 2,574 points (4.3x): the stencil of one
        # chunk sets the peak, not the grid
        peaks = []
        for n_angles in (3, 13):
            grid = GridSpec(lam_min=1e-1, lam_max=1e2, lam_per_decade=1,
                            n_angles=n_angles, a_min=1e-1, a_max=1e1, a_per_decade=1)
            tracemalloc.start()
            try:
                reports = certify_table(declared_claims(1.0), REF, SECTOR, grid)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert len(reports) == 45
        assert reports[0].n_refined == 2574
        assert peaks[1] <= 1.5 * peaks[0], peaks


MEMOISED = {"k_height", "p_plus_N", "p_minus_N", "s_plus_NN", "s_minus_NN", "p_press_N",
            "_w_plus", "_bsum", "_det_block_plus", "_r_plus_factor_N", "t_plus", "t_minus",
            "_p_plus_core", "_p_minus_core"}


class TestMemo:
    def test_memoised_symbols(self):
        found = {name for name, fn in vars(SymbolKit).items()
                 if callable(fn) and hasattr(fn, "__wrapped__")}
        assert found == MEMOISED

    @pytest.mark.parametrize("fluid", [REF, *STRESS_PARAM_SETS])
    def test_memo_is_bit_neutral(self, monkeypatch, fluid):
        rng = np.random.default_rng(7)
        lam = 10.0 ** rng.uniform(-4, 6, 64) * np.exp(1j * rng.uniform(-2.3, 2.3, 64))
        a = 10.0 ** rng.uniform(-4, 4, 64)

        # warm kit: every symbol twice, the composite ones first, so the
        # parts they memoise are asked for again directly
        names = sorted(MEMOISED, key=lambda n: (not n.startswith("_"), n))
        warm = SymbolKit.batch(fluid, lam, a)
        got = {n: getattr(warm, n)() for n in reversed(names)}
        assert all(getattr(warm, n)() is got[n] for n in names)

        for name in MEMOISED:
            monkeypatch.setattr(SymbolKit, name, getattr(SymbolKit, name).__wrapped__)
        cold = SymbolKit.batch(fluid, lam, a)
        for name in names:
            want = getattr(cold, name)()
            assert np.asarray(got[name]).tobytes() == np.asarray(want).tobytes(), name
