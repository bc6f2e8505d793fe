"""Multiplier-class estimator: calibration symbols, verdicts, claim table.

Calibration constants are hand-derivable: on the scan directions (1,0) and
(0.6,0.8) the symbol i xi_1 / A has |m| = 1, |d_xi1 m| A = 0.64 and
|d_xi2 m| A = 0.48.  Its first derivatives and its d_xi1^2 and
d_xi1 d_xi2 derivatives vanish on the (1,0) direction, and the Taylor jets
give those zeros exactly, with no noise floor to hide them below.
"""

import dataclasses
import functools
import json
import math
import multiprocessing
import os
import threading
import tracemalloc
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from lopstokes import (
    FluidParams,
    GridSpec,
    RunConfig,
    Sector,
    Tolerances,
    certify_table,
    declared_claims,
    height_curve,
    omega4_formula,
)
from lopstokes import cli, multiplier, pool
from lopstokes.coefficients import SymbolKit
from lopstokes.multiplier import KAPPAS, Claim, MultiplierClassReport
from lopstokes.config import REFERENCE_PARAMS, STRESS_PARAM_SETS
from lopstokes.errors import SingularDetL

REF = REFERENCE_PARAMS
SECTOR = Sector(epsilon=math.pi / 4)

SMALL = GridSpec(lam_min=1e-2, lam_max=1e4, lam_per_decade=2,
                 n_angles=5, a_min=1e-2, a_max=1e2, a_per_decade=2)

# 24 base and 294 refined point-directions (12 and 84 above LAMBDA0_REF)
TINY = GridSpec(lam_min=1.0, lam_max=10.0, lam_per_decade=1,
                n_angles=3, a_min=1.0, a_max=10.0, a_per_decade=1)

LAMBDA0_REF = 50.118723362727245

CLASS = RunConfig().class_grid


def inhomogeneous(kit, i1):
    """L11+ plus a constant: inside the order-1 type-1 class at |lambda| >= 1,
    and not homogeneous, so it is judged on the 3-D class grid."""
    return kit.l11p + 1.0


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
        # lambda-independent symbol: every (tau d_tau) derivative is exactly 0
        assert all(rep.constants[(k, 1)] == 0.0 for k in KAPPAS)
        # on the (1,0) direction (the even points) d_xi1, d_xi2, d_xi1^2 and
        # d_xi1 d_xi2 of i xi_1 / A vanish, and the jet coefficients are 0.0
        points = multiplier._Points(REF, SECTOR, SMALL, multiplier._grid_axes(SMALL, 0.0))
        lam, _, xi1, xi2, _ = points.columns(np.arange(points.n))
        kit, i1 = multiplier._jet_args(REF, lam, xi1, xi2)
        d = multiplier._derivatives(i1 / kit.a, lam.imag)
        zeros = [KAPPAS.index(k) for k in ("10", "01", "20", "11")]
        assert np.all(d[0][zeros, ::2] == 0.0)
        assert np.all(d[0][zeros, 1::2] > 0.0)
        assert np.all(d[1] == 0.0)

    def test_a_squared_passes_type1(self):
        rep = run(lambda kit, i1: kit.a * kit.a + 0j, 2, 1)
        assert rep.verdict == "pass"
        # second xi_1 derivative of A^2 is exactly 2 against the unit bound
        assert rep.constants[("20", 0)] == pytest.approx(2.0, rel=1e-6)
        assert rep.constants[("00", 0)] <= 1.0 + 1e-9

    def test_a_claimed_order_one_type1_fails(self):
        # d^2 A ~ 1/A beats (sqrt|lam|+A)^{-1} at the small-A large-lam
        # corner, so refinement widening must blow the drift up; A is
        # homogeneous of order 1, so this is the orbit image's verdict
        rep = run(lambda kit, i1: kit.a + 0j, 1, 1)
        assert rep.domain == "orbit"
        assert rep.verdict == "fail"
        assert rep.max_drift() >= Tolerances().class_drift

    def test_overclaimed_degree_fails(self):
        # L12+ is order 2; claiming order 1 under-counts one scale power,
        # which the degree test sees, so the 3-D grid judges it
        rep = run(lambda kit, i1: kit.l12p, 1, 1)
        assert rep.domain == "grid"
        assert rep.verdict == "fail"

    def test_nan_symbol_fails(self):
        # a NaN constant has not converged, so it cannot pass
        rep = run(lambda kit, i1: kit.l11p * math.nan, 1, 1)
        assert rep.domain == "grid"
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
        rep = run(inhomogeneous, 1, 1, lam_floor=floor)
        assert rep.lam_floor == floor
        assert (rep.domain, rep.verdict) == ("grid", "pass")
        # magnitudes at and above the floor only: 3.7 plus the grid tail
        n_mags = 1 + int(np.sum(SMALL.lam_mags() > floor))
        assert rep.n_base == n_mags * 5 * 9 * 2

    @pytest.mark.parametrize("odd, want", [(math.inf, math.inf), (math.nan, math.nan)])
    def test_max_drift_is_the_true_maximum(self, odd, want):
        # one infinite drift among finite ones is the maximum, and a NaN one
        # makes the maximum NaN, wherever it sits among the keys
        for key in (("00", 0), ("11", 1)):
            drift = {k: 1.5 for k in (("00", 0), ("10", 0), ("11", 1))}
            drift[key] = odd
            rep = MultiplierClassReport("probe", 0.0, 2, 0.0, {}, {}, drift, 1, 1, "fail", "grid")
            assert repr(rep.max_drift()) == repr(want)

    def test_floor_beyond_range_collapses_to_single_magnitude(self):
        # the floor magnitude itself is always kept on the grid
        rep = run(inhomogeneous, 1, 1, lam_floor=1e12)
        assert rep.domain == "grid"
        assert rep.n_base == 1 * 5 * 9 * 2
        assert rep.n_refined == 1 * 5 * 25 * 2


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
        # a claim certified alone matches its entry in the table, on the
        # orbit image (S+_NN) and on the 3-D grid (A*S+NN/q)
        claims = {c.name: c for c in declared_claims(LAMBDA0_REF)}
        table = {r.name: r for r in certify_table(list(claims.values()), REF, SECTOR, SMALL)}
        for name in ("S+_NN", "A*S+NN/q"):
            rep = certify_table([claims[name]], REF, SECTOR, SMALL)[0]
            want = table[name]
            for f in dataclasses.fields(rep):
                # repr compares nan and inf drift entries too
                assert repr(getattr(rep, f.name)) == repr(getattr(want, f.name)), (name, f.name)
        assert table["A*S+NN/q"].lam_floor == LAMBDA0_REF
        assert table["S+_NN"].lam_floor == 0.0
        assert (table["S+_NN"].domain, table["A*S+NN/q"].domain) == ("orbit", "grid")

    def test_certify_table_reference(self):
        reports = certify_table(declared_claims(LAMBDA0_REF), REF, SECTOR, CLASS)
        assert len(reports) == 45
        failures = [r.name for r in reports if r.verdict != "pass"]
        assert failures == []
        assert sum(1 for r in reports if r.lam_floor == LAMBDA0_REF) == 13
        worst = max(r.max_drift() for r in reports)
        assert worst < Tolerances().class_drift
        # exactly the 13 (lambda + K)-quotients keep the floored 3-D grid,
        # and the other 32 run on the orbit images: a fall-back to the 3-D
        # path would multiply the points per claim by 10 to 23
        assert ([r.name for r in reports if r.domain == "grid"]
                == [r.name for r in reports if r.lam_floor == LAMBDA0_REF])
        counts = {(r.domain, r.n_base, r.n_refined) for r in reports}
        assert counts == {("orbit", 1106, 2702), ("grid", 4900, 28182)}


def _orbit_keys(points: multiplier._Points, angles):
    """(angle index, direction index, u = A/sqrt|lambda|) of every point."""
    lam, a, xi1, xi2, _ = points.columns(np.arange(points.n))
    assert lam.size == points.n
    ang = np.angle(lam)
    j = np.abs(ang[:, None] - angles[None, :]).argmin(axis=1)
    assert np.all(np.abs(ang - angles[j]) <= 1e-12)
    dirs = np.array(multiplier._DIRECTIONS)
    unit = np.stack((xi1, xi2), axis=1) / a[:, None]
    d = np.abs(unit[:, None, :] - dirs[None]).sum(axis=-1).argmin(axis=1)
    assert np.all(np.abs(unit - dirs[d]) <= 1e-12)
    return j, d, a / np.sqrt(np.abs(lam))


class TestOrbit:
    @pytest.mark.parametrize("grid, floor, n_orbit", [
        (CLASS, 0.0, 1106), (multiplier._widened(CLASS), 0.0, 2702), (CLASS, 3.7, 1260),
    ], ids=["base", "refined", "floor-3.7"])
    def test_orbit_image_covers_the_grid(self, grid, floor, n_orbit):
        # every 3-D point has an orbit point with its angle and direction
        # and its u within 1e-12, and no two orbit points are that close
        angles = grid.angles(SECTOR.epsilon)
        full = multiplier._Points(REF, SECTOR, grid, multiplier._grid_axes(grid, floor))
        orbit = multiplier._Points(REF, SECTOR, grid, multiplier._orbit_axes(grid, floor))
        assert orbit.n == n_orbit
        assert np.allclose(np.abs(orbit.columns(np.arange(orbit.n))[0]), 1.0, rtol=0, atol=1e-15)
        gj, gd, gu = _orbit_keys(full, angles)
        oj, od, ou = _orbit_keys(orbit, angles)
        assert set(zip(gj, gd)) == set(zip(oj, od))
        for j, d in set(zip(oj, od)):
            u = np.sort(ou[(oj == j) & (od == d)])
            assert np.all(np.diff(u) > 1e-12 * u[1:])
            want = gu[(gj == j) & (gd == d)]
            i = np.clip(np.searchsorted(u, want), 1, u.size - 1)
            near = np.minimum(np.abs(u[i - 1] - want), np.abs(u[i] - want))
            assert np.all(near <= 1e-12 * want)

    def test_orbit_image_agrees_with_the_grid(self, monkeypatch):
        # the oracle: every claim judged on the 3-D grids, as with no
        # degree test; homogeneity makes the suprema equal up to rounding
        claims = declared_claims(LAMBDA0_REF)
        orbit = certify_table(claims, REF, SECTOR, SMALL)
        monkeypatch.setattr(multiplier._Points, "scale_exactly",
                            lambda self, parts: [False] * len(parts))
        grid = certify_table(claims, REF, SECTOR, SMALL)
        assert sum(r.domain == "orbit" for r in orbit) == 32
        assert all(r.domain == "grid" for r in grid)
        for o, g in zip(orbit, grid):
            assert (o.name, o.verdict) == (g.name, g.verdict)
            for key in o.constants:
                for got, want in ((o.constants, g.constants), (o.refined_constants,
                                  g.refined_constants), (o.drift, g.drift)):
                    assert got[key] == pytest.approx(want[key], rel=1e-8), (o.name, key)

    @pytest.mark.parametrize("fluid", [REF, *STRESS_PARAM_SETS])
    def test_degree_test_passes_the_homogeneous_claims(self, fluid):
        # bit for bit at every parameter set: the 32 unfloored claims are
        # homogeneous of their order, the 13 (lambda + K)-quotients are not
        claims = declared_claims(LAMBDA0_REF)
        orbit = multiplier._Points(fluid, SECTOR, SMALL, multiplier._orbit_axes(SMALL, 0.0))
        # at sigma = 0 the height coupling, and with it every quotient claim,
        # vanishes: a zero symbol is homogeneous of any order
        want = [c.lam_floor == 0.0 or fluid.sigma == 0.0 for c in claims]
        assert orbit.scale_exactly([(c.symbol, c.s) for c in claims]) == want

    def test_one_degree_test_pass_per_floor_group(self, monkeypatch):
        # the claims, the numerators and K share each batch of jets: the
        # route pass builds one kit per batch, not a second pass for the
        # numerators of the quotients that fail their own test
        monkeypatch.setattr(pool, "_workers", lambda: 1)
        quotients = [c for c in declared_claims(LAMBDA0_REF) if c.over is not None]
        calls, kits = [], []
        jet_args, routes = multiplier._jet_args, multiplier._routes

        def counted_jet_args(*args):
            calls.append(args)
            return jet_args(*args)

        def counted_routes(g):
            before = len(calls)
            out = routes(g)
            kits.append(len(calls) - before)
            return out

        monkeypatch.setattr(multiplier, "_jet_args", counted_jet_args)
        monkeypatch.setattr(multiplier, "_routes", counted_routes)
        reports = certify_table(quotients, REF, SECTOR, CLASS)
        assert [r.domain for r in reports] == ["grid"] * 13
        image = multiplier._Points(REF, SECTOR, CLASS, multiplier._orbit_axes(CLASS, LAMBDA0_REF))
        step = multiplier._CHUNK // (1 + len(multiplier._SCALINGS))
        batches = -(-min(image.n, multiplier._CHUNK) // step)
        assert batches > 1
        assert kits == [batches]


def _direct(claim: Claim) -> Claim:
    """The claim with its quotient folded into fn, so it is evaluated
    directly on the 3-D grid."""
    return dataclasses.replace(claim, fn=claim.symbol, over=None, degree=None)


def _scaled_names(monkeypatch) -> list:
    """The names of the claims judged on the scaled route from now on, in
    this process (so the pool is not used)."""
    monkeypatch.setattr(pool, "_workers", lambda: 1)
    names = []
    scaled_chunk = multiplier._Points.scaled_chunk

    def spy(self, start, claims):
        names.extend(cl.name for cl in claims)
        return scaled_chunk(self, start, claims)

    monkeypatch.setattr(multiplier._Points, "scaled_chunk", spy)
    return names


class TestScaled:
    @pytest.mark.parametrize("fluid", [REF, *STRESS_PARAM_SETS])
    def test_scaled_route_matches_direct_evaluation(self, monkeypatch, fluid):
        # the oracle: each quotient evaluated at every 3-D point
        quotients = [c for c in declared_claims(LAMBDA0_REF) if c.over is not None]
        assert len(quotients) == 13
        names = _scaled_names(monkeypatch)
        scaled = certify_table(quotients, fluid, SECTOR, SMALL)
        # at sigma = 0 every quotient vanishes and is judged on the orbit image
        assert set(names) == (set() if fluid.sigma == 0.0 else {c.name for c in quotients})
        direct = certify_table([_direct(c) for c in quotients], fluid, SECTOR, SMALL)
        for got, want in zip(scaled, direct):
            assert ((got.name, got.verdict, got.domain, got.n_base, got.n_refined)
                    == (want.name, want.verdict, want.domain, want.n_base, want.n_refined))
            for mine, theirs in ((got.constants, want.constants),
                                 (got.refined_constants, want.refined_constants)):
                for key, c in theirs.items():
                    if c == 0.0:
                        assert mine[key] == 0.0, (got.name, key)
                    else:
                        assert mine[key] == pytest.approx(c, rel=1e-13, abs=0.0), (got.name, key)

    def test_wrong_numerator_degree_falls_back_to_the_grid(self, monkeypatch):
        claim = next(c for c in declared_claims(LAMBDA0_REF) if c.name == "B+*A*S+NN/q")
        names = _scaled_names(monkeypatch)
        got = certify_table([dataclasses.replace(claim, degree=claim.degree + 1)],
                            REF, SECTOR, SMALL)
        assert names == []
        _reports_equal(got, certify_table([_direct(claim)], REF, SECTOR, SMALL))
        assert (got[0].domain, got[0].verdict) == ("grid", "pass")

    def test_nan_numerator_fails(self, monkeypatch):
        claim = next(c for c in declared_claims(LAMBDA0_REF) if c.name == "A*R+NN/q")
        names = _scaled_names(monkeypatch)
        rep = certify_table([dataclasses.replace(
            claim, fn=lambda kit, i1: claim.fn(kit, i1) * math.nan)], REF, SECTOR, SMALL)[0]
        assert names == []
        assert (rep.domain, rep.verdict) == ("grid", "fail")
        assert math.isnan(rep.max_drift())


def _reports_equal(got, want):
    assert [r.name for r in got] == [r.name for r in want]
    for rep, ref in zip(got, want):
        for f in dataclasses.fields(rep):
            # repr compares nan and inf drift entries too
            assert repr(getattr(rep, f.name)) == repr(getattr(ref, f.name)), (rep.name, f.name)


class TestChunking:
    def test_reports_do_not_depend_on_the_chunk(self, monkeypatch):
        claims = declared_claims(LAMBDA0_REF)
        want = certify_table(claims, REF, SECTOR, SMALL)
        # an odd chunk that divides no grid size; 37 keeps the run to seconds
        monkeypatch.setattr(multiplier, "_CHUNK", 37)
        got = certify_table(claims, REF, SECTOR, SMALL)
        _reports_equal(got, want)
        # a batch of one point per chunk, on a tiny grid
        monkeypatch.setattr(multiplier, "_CHUNK", 1024)
        want = certify_table(claims, REF, SECTOR, TINY)
        monkeypatch.setattr(multiplier, "_CHUNK", 1)
        _reports_equal(certify_table(claims, REF, SECTOR, TINY), want)

    def test_peak_memory_does_not_grow_with_the_grid(self, monkeypatch):
        # refined floored 3-D grids of 378 and 1,638 points (4.3x), in chunks
        # of 100: the jets of one chunk set the peak, not the grid.
        # tracemalloc sees this process only, so the chunks run here rather
        # than in pool workers.
        monkeypatch.setattr(pool, "_workers", lambda: 1)
        monkeypatch.setattr(multiplier, "_CHUNK", 100)
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
        quotient = next(r for r in reports if r.lam_floor == 1.0)
        assert (quotient.domain, quotient.n_refined) == ("grid", 1638)
        assert peaks[1] <= 1.5 * peaks[0], peaks


needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="the chunk pool forks its workers")


def _in_worker(parent: int) -> bool:
    return os.getpid() != parent


@needs_fork
class TestPool:
    @pytest.mark.parametrize("chunk", [multiplier._CHUNK, 37])
    def test_reports_do_not_depend_on_the_worker_count(self, monkeypatch, chunk):
        claims = declared_claims(LAMBDA0_REF)
        monkeypatch.setattr(multiplier, "_CHUNK", chunk)
        monkeypatch.setattr(pool, "_workers", lambda: 1)
        want = certify_table(claims, REF, SECTOR, SMALL)
        monkeypatch.setattr(pool, "_workers", lambda: 2)
        got = certify_table(claims, REF, SECTOR, SMALL)
        _reports_equal(got, want)
        assert multiprocessing.active_children() == []

    def test_wrong_degree_still_fails(self, monkeypatch):
        monkeypatch.setattr(pool, "_workers", lambda: 2)
        parent = os.getpid()

        def fn(kit, i1):
            # a claim judged in this process would not be the pooled path
            assert _in_worker(parent)
            return kit.l12p

        rep = run(fn, 1, 1)
        assert rep.verdict == "fail"

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(pool, "_workers", lambda: 2)
        parent = os.getpid()

        def fn(kit, i1):
            raise SingularDetL(f"raised in {'a worker' if _in_worker(parent) else 'the caller'}")

        with pytest.raises(SingularDetL, match="raised in a worker"):
            run(fn, 0, 2)
        assert multiprocessing.active_children() == []

    def test_worker_error_keeps_the_exit_code(self, monkeypatch, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"class_grid": dataclasses.asdict(SMALL)}))

        def singular(lam0):
            def fn(kit, i1):
                raise SingularDetL("det L vanishes")
            return [Claim("singular", 0.0, 2, fn)]

        monkeypatch.setattr(multiplier, "declared_claims", singular)
        codes = []
        for workers in (1, 2):
            monkeypatch.setattr(pool, "_workers", lambda: workers)
            codes.append(cli.main(["verify-multipliers", "--config", str(config),
                                   "--out", str(tmp_path / f"out{workers}")]))
            assert "error: det L vanishes" in capsys.readouterr().err
        assert codes == [65, 65]
        assert multiprocessing.active_children() == []

    def test_threaded_caller_runs_in_process(self, monkeypatch):
        # fork copies only the calling thread, so a pool is not forked while
        # another thread runs
        monkeypatch.setattr(pool, "_workers", lambda: 2)
        parent = os.getpid()
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(60.0,))
        other.start()
        try:
            rep = run(lambda kit, i1: kit.l11p if not _in_worker(parent) else 1 / 0, 1, 1)
        finally:
            release.set()
            other.join(timeout=60.0)
        assert not other.is_alive()
        assert rep.verdict == "pass"

    def test_lost_worker_raises_instead_of_hanging(self, monkeypatch):
        monkeypatch.setattr(pool, "_workers", lambda: 2)
        parent = os.getpid()

        def fn(kit, i1):
            if _in_worker(parent):
                os._exit(1)
            return kit.l11p

        with pytest.raises(BrokenProcessPool):
            run(fn, 1, 1)
        assert multiprocessing.active_children() == []

    def test_lost_worker_exits_with_its_code(self, monkeypatch, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"class_grid": dataclasses.asdict(SMALL)}))
        monkeypatch.setattr(pool, "_workers", lambda: 2)
        parent = os.getpid()

        def lost(lam0):
            def fn(kit, i1):
                if _in_worker(parent):
                    os._exit(1)
                return kit.l11p
            return [Claim("lost", 1.0, 1, fn)]

        monkeypatch.setattr(multiplier, "declared_claims", lost)
        code = cli.main(["verify-multipliers", "--config", str(config),
                         "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 71
        assert err.startswith("error: a pool worker process died"), err
        assert "Traceback" not in err
        assert multiprocessing.active_children() == []


MEMOISED = {"k_height", "s_plus_NN", "s_minus_NN", "p_press_N", "_bsum", "_r_plus_factor_N",
            "t_plus", "t_minus", "_p_plus", "_p_minus"}
# read off the cached (num/det L, P_N) pairs _p_plus and _p_minus
PAIRED = {"p_plus_N", "p_minus_N"}


class TestMemo:
    def test_memoised_symbols(self):
        found = {name for name, attr in vars(SymbolKit).items()
                 if isinstance(attr, functools.cached_property)}
        assert found == MEMOISED

    @pytest.mark.parametrize("fluid", [REF, *STRESS_PARAM_SETS])
    def test_memo_is_bit_neutral(self, monkeypatch, fluid):
        rng = np.random.default_rng(7)
        lam = 10.0 ** rng.uniform(-4, 6, 64) * np.exp(1j * rng.uniform(-2.3, 2.3, 64))
        a = 10.0 ** rng.uniform(-4, 4, 64)

        # warm kit: every symbol twice, the composite ones first, so the
        # parts they cache are asked for again directly
        names = sorted(MEMOISED | PAIRED, key=lambda n: (not n.startswith("_"), n))
        warm = SymbolKit.batch(fluid, lam, a)
        got = {n: getattr(warm, n) for n in reversed(names)}
        assert all(getattr(warm, n) is got[n] for n in names)

        # cold kit: every symbol a plain property, evaluated afresh on each read
        for name in MEMOISED:
            monkeypatch.setattr(SymbolKit, name, property(vars(SymbolKit)[name].func))
        cold = SymbolKit.batch(fluid, lam, a)
        for name in names:
            want = getattr(cold, name)
            assert np.asarray(got[name]).tobytes() == np.asarray(want).tobytes(), name
