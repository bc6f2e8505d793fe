"""Profile algebra, assembled resolvent solutions, and residual operators."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from helpers import (
    ENTRY_TARGETS,
    TEST_TOL,
    SpectralPoint,
    amplitude_targets,
    mutated,
    mutation_probe,
    point_amplitudes,
    solve_point,
)
from lopstokes import (
    FluidParams,
    Profile,
    Sector,
    Tolerances,
    fuzz_residuals,
    inner_product,
)
from lopstokes import cli, resolvent
from lopstokes.resolvent import (
    FuzzReport,
    assemble_batch,
    energy_quadrature_check,
    fuzz_corpus,
)
from lopstokes.errors import HeightNotInvertible, QuadratureFailure
from lopstokes.config import REFERENCE_PARAMS, STRESS_PARAM_SETS, RunConfig

TOL = Tolerances()
SECTOR = Sector(epsilon=math.pi / 4)
REF = REFERENCE_PARAMS
FLUID4 = FluidParams(rho_plus=2.0, rho_minus=3.0, mu_plus=0.5, mu_minus=1.5,
                     nu_plus=2.5, sigma=0.7)

# spectral points spanning the regimes the solver must survive
REGIMES = [
    ("balanced-3d", REF, SpectralPoint(lam=2.0 + 1.5j, xi=(0.7, -0.4))),
    ("balanced-2d", REF, SpectralPoint(lam=0.8 - 0.5j, xi=(1.3,))),
    ("lam-dominated", REF, SpectralPoint(lam=1e6 * np.exp(2.0j), xi=(1e-3,))),
    ("a-dominated", FLUID4, SpectralPoint(lam=0.02 - 0.05j, xi=(40.0, -9.0))),
    ("near-confluent", REF, SpectralPoint(lam=1e-8 + 1e-8j, xi=(1.0,))),
    ("deep-sector", REF, SpectralPoint(lam=30.0 * np.exp(2.35j), xi=(5.0, 2.0))),
]

# the energy probes verify runs, then one 2-D and one 3-D point per stress set
QUAD_POINTS = [(REF, SpectralPoint(lam=lam, xi=xi), mode) for lam, xi, mode in cli._ENERGY_PROBES]
QUAD_POINTS += [(fluid, sp, "explicit-H") for fluid in STRESS_PARAM_SETS
                for sp in (SpectralPoint(lam=3.0 * np.exp(2.2j), xi=(1.7,)),
                           SpectralPoint(lam=40.0 - 25.0j, xi=(0.6, -1.1)))]


def solve_for(fluid, sp, mode):
    """The solve at sp of pinned data: jumps from the point, H or d by mode."""
    rng = np.random.default_rng(abs(hash((round(abs(sp.lam), 6), sp.dim))) % 2**32)
    h = rng.standard_normal(sp.dim - 1) + 1j * rng.standard_normal(sp.dim - 1)
    top = 0.4 - 0.7j if mode == "explicit-H" else -0.3 + 0.55j
    return solve_point(fluid, sp, h, top, mode)


def normal_trace(fluid, s):
    """Density-weighted normal velocity trace of a one-point solve."""
    drho = fluid.rho_minus - fluid.rho_plus
    return complex(fluid.rho_minus * s.u_minus[-1].trace0[0]
                   - fluid.rho_plus * s.u_plus[-1].trace0[0]) / drho


class TestProfileAlgebra:
    P = Profile(+1, b=1.2 + 0.8j, a=0.9 - 0.3j,
                c_m=0.4 - 0.2j, c_b=-0.6 + 0.1j, c_a=0.25j)
    M = Profile(-1, b=1.5 + 0.4j, a=0.7 + 0.0j,
                c_m=-0.3 + 0.5j, c_b=0.8 - 0.2j, c_a=-0.15 + 0.45j)

    def test_side_validation(self):
        with pytest.raises(ValueError):
            Profile(0, 1.0, 2.0)

    def test_trace0(self):
        assert self.P.trace0 == self.P.c_b + self.P.c_a
        assert self.P(0.0) == pytest.approx(self.P.trace0, rel=1e-14)
        assert self.M(0.0) == pytest.approx(self.M.trace0, rel=1e-14)

    @pytest.mark.parametrize("p,xs", [(P, 0.37), (M, -0.61)], ids=["plus", "minus"])
    def test_deriv_matches_finite_difference(self, p, xs):
        h = 1e-6
        fd = (p(xs + h) - p(xs - h)) / (2.0 * h)
        assert abs(p.deriv()(xs) - fd) < 1e-8 * max(abs(fd), 1.0)

    def test_confluent_terms_degree_one(self):
        # with coinciding rates M is the degree-one term: -x e^{-ax} above,
        # x e^{ax} below
        p = Profile(+1, b=1.0 + 0.5j, a=1.0 + 0.5j, c_m=2.0)
        x = 0.6
        want = -2.0 * x * np.exp(-(1.0 + 0.5j) * x)
        assert abs(p(x) - want) < 1e-14 * abs(want)
        m = Profile(-1, b=0.8 - 0.2j, a=0.8 - 0.2j, c_m=1.5)
        xm = -0.9
        want_m = 1.5 * xm * np.exp((0.8 - 0.2j) * xm)
        assert abs(m(xm) - want_m) < 1e-13 * abs(want_m)

    def test_add_and_scale(self):
        q = self.P + 2.5 * self.P
        x = 0.55
        assert abs(q(x) - 3.5 * self.P(x)) < 1e-14 * abs(q(x))

    def test_incompatible_add_raises(self):
        other = Profile(+1, b=2.0, a=0.9 - 0.3j)
        with pytest.raises(ValueError):
            _ = self.P + other
        with pytest.raises(ValueError):
            _ = self.P + Profile(-1, self.P.b, self.P.a)

    @pytest.mark.parametrize("p", [P, M], ids=["plus", "minus"])
    def test_inner_product_vs_quadrature(self, p):
        q = Profile(p.side, p.b, p.a, c_m=0.3 + 0.1j, c_b=-0.2 + 0.7j,
                    c_a=0.5 - 0.4j)
        closed = inner_product(p, q)
        sgn = 1.0 if p.side > 0 else -1.0

        def f_re(t):
            return (p(sgn * t) * np.conj(q(sgn * t))).real

        def f_im(t):
            return (p(sgn * t) * np.conj(q(sgn * t))).imag

        re, _ = quad(f_re, 0.0, np.inf, epsrel=1e-11)
        im, _ = quad(f_im, 0.0, np.inf, epsrel=1e-11)
        assert abs(closed - complex(re, im)) < 1e-9 * abs(closed)

    def test_inner_product_incompatible_raises(self):
        with pytest.raises(ValueError):
            inner_product(self.P, self.M)

    def test_norm_positive(self):
        n = inner_product(self.P, self.P)
        assert n.real > 0
        assert abs(n.imag) < 1e-15 * n.real


class TestAssembledSolution:
    @pytest.mark.parametrize("name,fluid,sp", REGIMES,
                             ids=[r[0] for r in REGIMES])
    @pytest.mark.parametrize("mode", ["explicit-H", "kinematic"])
    def test_residuals(self, name, fluid, sp, mode):
        res = solve_for(fluid, sp, mode).residuals()
        assert res["ode"][0] < TEST_TOL.ode_residual
        assert res["interface"][0] < TEST_TOL.interface_residual
        if mode == "kinematic":
            assert res["kinematic"][0] < TEST_TOL.interface_residual
        else:
            assert "kinematic" not in res
        assert res["decay"][0] <= 1.0 + 1e-9

    def test_unknown_mode(self):
        sp = SpectralPoint(lam=2.0 + 1.5j, xi=(0.7,))
        with pytest.raises(ValueError, match="unknown mode"):
            solve_point(REF, sp, [1.0 + 0j], 1.0 + 0j, "dirichlet")

    def test_traces_expose_amplitudes(self):
        sp = SpectralPoint(lam=2.0 + 1.5j, xi=(0.7, -0.4))
        h, H = [0.3 - 0.2j, -0.1 + 0.5j], 0.25 + 0.6j
        sol = solve_point(REF, sp, h, H)
        amps = point_amplitudes(REF, sp, h, H)
        assert len(sol.u_plus) == len(sol.u_minus) == 3
        for j in range(3):
            assert sol.u_plus[j].trace0[0] == amps["beta_plus"][j]
            assert sol.u_minus[j].trace0[0] == amps["beta_minus"][j]
        assert sol.pressure.trace0[0] == amps["gamma_minus"]
        assert sol.H[0] == 0.25 + 0.6j

    def test_velocity_jump_is_data(self):
        sp = SpectralPoint(lam=1.0 + 0.3j, xi=(0.9,))
        sol = solve_point(REF, sp, [1.0 + 0j], 0.0j)
        jump = sol.u_minus[0].trace0[0] - sol.u_plus[0].trace0[0]
        assert abs(jump - 1.0) < 1e-12

    def test_kinematic_height_relation(self):
        sp = SpectralPoint(lam=2.0 + 1.5j, xi=(0.7, -0.4))
        sol = solve_point(REF, sp, [0.3 - 0.2j, -0.1 + 0.5j], 0.45 - 0.2j, "kinematic")
        got_d = sp.lam * sol.H[0] - normal_trace(REF, sol)
        assert abs(got_d - (0.45 - 0.2j)) < 1e-12

    def test_explicit_with_consistent_d(self):
        # the kinematic solve of the d implied by an explicit solve must
        # recover its height and close the kinematic residual to round-off
        sp = SpectralPoint(lam=0.8 - 0.5j, xi=(1.3,))
        sol = solve_point(REF, sp, [0.2 + 0.4j], -0.6 + 0.1j)
        d = sp.lam * sol.H[0] - normal_trace(REF, sol)
        again = solve_point(REF, sp, [0.2 + 0.4j], d, "kinematic")
        assert abs(again.H[0] - (-0.6 + 0.1j)) < 1e-12
        assert again.residuals()["kinematic"][0] < TEST_TOL.interface_residual

    def test_zero_data(self):
        sp = SpectralPoint(lam=2.0 + 1.5j, xi=(0.7, -0.4))
        sol = solve_point(REF, sp, [0.0j, 0.0j], 0.0j)
        for u in (*sol.u_plus, *sol.u_minus, sol.pressure):
            assert np.all(u.c_m == 0) and np.all(u.c_b == 0) and np.all(u.c_a == 0)
        res = sol.residuals()
        assert res["ode"][0] == 0.0
        assert res["interface"][0] == 0.0
        assert res["decay"][0] == 0.0

    def test_linearity(self):
        sp = SpectralPoint(lam=1.4 + 0.9j, xi=(0.5, 1.1))
        h1, H1 = np.array([0.3 - 0.2j, -0.1 + 0.5j]), 0.25 + 0.6j
        h2, H2 = np.array([-0.4 + 0.1j, 0.2 - 0.3j]), -0.5 + 0.15j
        s1 = solve_point(REF, sp, h1, H1)
        s2 = solve_point(REF, sp, h2, H2)
        s12 = solve_point(REF, sp, h1 + h2, H1 + H2)
        x = np.array([0.1, 0.7, 2.0])[:, None]
        for j in range(3):
            want = s12.u_plus[j](x)
            got = s1.u_plus[j](x) + s2.u_plus[j](x)
            assert np.max(np.abs(got - want)) < 1e-12 * max(
                np.max(np.abs(want)), 1.0)

    def test_minus_divergence_cancels(self):
        sp = SpectralPoint(lam=2.0 + 1.5j, xi=(0.7, -0.4))
        sol = solve_point(REF, sp, [0.3 - 0.2j, -0.1 + 0.5j], 0.25 + 0.6j)
        div = resolvent._divergence(sol.ixi, sol.u_minus)
        scale = max(max(abs(u.c_b[0]), abs(u.c_m[0])) for u in sol.u_minus)
        assert abs(div.c_m[0]) < 1e-13 * scale
        assert abs(div.c_b[0]) < 1e-13 * scale
        assert abs(div.c_a[0]) < 1e-13 * scale

    def test_default_x_samples(self):
        xs = resolvent._depths(np.array([4.0 + 0j]), np.array([2.0]))
        assert xs.shape == (20, 1)
        assert np.all(np.diff(xs[:, 0]) > 0)
        assert xs[-1, 0] == pytest.approx(10.0 / 4.0)


class TestEnergy:
    @pytest.mark.parametrize("name,fluid,sp", REGIMES[:4],
                             ids=[r[0] for r in REGIMES[:4]])
    def test_balance_defect(self, name, fluid, sp):
        sol = solve_for(fluid, sp, "explicit-H")
        plus_defect, plus_parts = resolvent._side_energy(sol, +1)
        minus_defect, minus_parts = resolvent._side_energy(sol, -1)
        assert max(plus_defect[0], minus_defect[0]) < TOL.energy_defect
        assert plus_defect[0] >= 0 and minus_defect[0] >= 0
        # dissipation entries are real and nonnegative
        assert plus_parts[1][0].imag == 0.0
        assert plus_parts[1][0].real >= 0.0
        assert minus_parts[1][0].real >= 0.0

    def test_quadrature_cross_check(self):
        sp = SpectralPoint(lam=2.0 + 1.5j, xi=(0.7, -0.4))
        sol = solve_point(REF, sp, [0.3 - 0.2j, -0.1 + 0.5j], 0.25 + 0.6j)
        assert energy_quadrature_check(sol) < TOL.quadrature_cross

    def test_quadrature_cross_check_2d(self):
        sp = SpectralPoint(lam=0.8 - 0.5j, xi=(1.3,))
        sol = solve_point(REF, sp, [0.2 + 0.4j], -0.6 + 0.1j)
        assert energy_quadrature_check(sol) < TOL.quadrature_cross

    @pytest.mark.parametrize("fluid,sp,mode", QUAD_POINTS,
                             ids=[f"{i}-{len(sp.xi) + 1}d" for i, (_, sp, _) in
                                  enumerate(QUAD_POINTS)])
    def test_exp_sinh_matches_adaptive_quadrature(self, fluid, sp, mode):
        # every job's integral, against scipy quad on the same rate-scaled
        # half-line at epsrel 1e-11
        sol = solve_point(fluid, sp, [0.4 + 0.3j] * len(sp.xi), 0.6 - 0.2j, mode)
        for p in resolvent._energy_jobs(sol):
            val, err = resolvent._exp_sinh(p)
            span = 1.0 / min(p.b.real[0], p.a.real[0])
            want, _ = quad(lambda t: abs(p(p.side * span * t)[0]) ** 2 * span,
                           0.0, np.inf, epsrel=1e-11, epsabs=0.0, limit=200)
            assert abs(val[0] - want) <= 1e-10 * want
            assert err[0] <= TOL.energy_quad_rel * want

    def test_failure_names_the_point(self):
        sp = SpectralPoint(lam=2.0 + 1.5j, xi=(0.7, -0.4))
        sol = solve_point(REF, sp, [0.3 - 0.2j, -0.1 + 0.5j], 0.25 + 0.6j)
        with pytest.raises(QuadratureFailure, match="error estimate") as info:
            energy_quadrature_check(sol, quad_rel=0.0)
        assert f"lam={sp.lam!r}, A={sp.a!r}" in str(info.value)

    def test_batch_worst_is_the_worst_point(self):
        # balanced, deep in the sector, near-confluent roots, lambda-dominated
        pts = [SpectralPoint(lam=2.0 + 1.5j, xi=(0.7, -0.4)),
               SpectralPoint(lam=30.0 * np.exp(2.35j), xi=(5.0, 2.0)),
               SpectralPoint(lam=1e-8 + 1e-8j, xi=(0.6, 0.8)),
               SpectralPoint(lam=3e4 - 2e4j, xi=(0.05, 0.02))]
        h = [[0.3 - 0.2j, -0.1 + 0.5j]] * len(pts)
        batch = assemble_batch(REF, [sp.lam for sp in pts], [sp.xi for sp in pts], h,
                               [0.25 + 0.6j] * len(pts), "explicit-H")
        alone = [energy_quadrature_check(solve_point(REF, sp, h[0], 0.25 + 0.6j))
                 for sp in pts]
        assert energy_quadrature_check(batch) == max(alone)


class TestMutationAndFuzz:
    def test_mutation_probe_detects_all_targets(self):
        # the interior-angle unit-magnitude point resolves even the weakest
        # entry sensitivities (l12m, l21p) above the detection floor
        lam = complex(math.cos(2.0), math.sin(2.0))
        sp = SpectralPoint(lam=lam, xi=(0.7, -0.4))
        out = mutation_probe(REF, sp, [0.7 - 0.3j, 0.7 - 0.3j], 0.5 + 0.2j, rel=1e-3)
        assert len(out) == 13 + 8      # every 3-D amplitude and matrix entry
        floor = TEST_TOL.mutation_floor
        bad = {k: v for k, v in out.items() if max(v) <= floor}
        assert bad == {}

    def test_interface_check_alone_detects_mutations(self):
        # a blind interface check must fail the suite: at the probe point
        # the interface residual on its own clears the floor for every
        # amplitude and every entry but l21p, which moves it only to about
        # 7.7e-5; the ODE residual is the detector of an l21p mutation
        lam = complex(math.cos(2.0), math.sin(2.0))
        sp = SpectralPoint(lam=lam, xi=(0.7, -0.4))
        out = mutation_probe(REF, sp, [0.7 - 0.3j, 0.7 - 0.3j], 0.5 + 0.2j, rel=1e-3)
        iface = {k: v[1] for k, v in out.items() if k != "l21p"}
        assert len(iface) == 13 + 7
        floor = TEST_TOL.mutation_floor
        assert {k: v for k, v in iface.items() if v <= floor} == {}
        assert out["l21p"][0] > floor

    def test_environment_cannot_mutate(self, monkeypatch):
        # no environment setting reaches a production solve
        sp = SpectralPoint(lam=1.0 + 0.6j, xi=(0.9,))
        clean = solve_point(REF, sp, [0.7 - 0.3j], 0.5 + 0.2j)
        monkeypatch.setenv("LOPSTOKES_MUTATE", "l12m")
        env = solve_point(REF, sp, [0.7 - 0.3j], 0.5 + 0.2j)
        for got, want in zip((*env.u_plus, *env.u_minus, env.pressure),
                             (*clean.u_plus, *clean.u_minus, clean.pressure)):
            for field in ("b", "a", "c_m", "c_b", "c_a"):
                assert np.array_equal(getattr(got, field), getattr(want, field))

    def test_fuzz_small_corpus(self):
        rep = fuzz_residuals(REF, SECTOR, n_samples=500, seed=20260817)
        assert rep.passed(TOL)
        assert set(rep.worst) == {"ode", "interface", "kinematic", "decay", "energy"}
        for rec in rep.worst.values():
            assert rec["value"] >= 0.0
            assert rec["dim"] in (2, 3)
            assert rec["mode"] in ("explicit-H", "kinematic")
        assert rep.elapsed > 0.0
        assert rep.n_samples == 500
        assert "elapsed" not in rep.to_dict()

    def test_fuzz_with_energy(self):
        rep = fuzz_residuals(REF, SECTOR, n_samples=60, seed=3)
        assert rep.worst["energy"]["value"] >= 0.0
        assert rep.passed(TOL)

    def test_fuzz_deterministic(self):
        r1 = fuzz_residuals(REF, SECTOR, n_samples=40, seed=99)
        r2 = fuzz_residuals(REF, SECTOR, n_samples=40, seed=99)
        assert r1.to_dict() == r2.to_dict()

    def test_failed_report_detected(self):
        bad = FuzzReport(seed=1, n_samples=1, epsilon=SECTOR.epsilon,
                         worst={"ode": {"value": 1.0, "lam_re": 1.0,
                                        "lam_im": 0.0, "a": 1.0,
                                        "dim": 2, "mode": "explicit-H"}},
                         elapsed=0.0)
        assert not bad.passed(TOL)

    def test_unsampled_category_fails(self):
        # one sample is all (2, explicit-H); the second is (2, kinematic)
        one, two = (fuzz_residuals(REF, SECTOR, n_samples=n, seed=3) for n in (1, 2))
        assert one.unsampled == ["kinematic"] and not one.passed(TOL)
        assert one.to_dict()["unsampled"] == ["kinematic"]
        assert two.unsampled == [] and "unsampled" not in two.to_dict()

    def test_ratio_is_zero_only_where_everything_vanishes(self):
        got = resolvent._ratio(np.array([0.0, 1.0, math.nan, 0.0]),
                               np.array([0.0, 2.0, 1.0, math.nan]))
        assert got[:2].tolist() == [0.0, 0.5] and np.isnan(got[2:]).all()

    @pytest.mark.parametrize("mode", ["explicit-H", "kinematic"])
    @pytest.mark.parametrize("target", ["l11p", "gamma_minus"])
    def test_nan_constituent_makes_residuals_nan(self, target, mode):
        with mutated(target, np.nan), np.errstate(invalid="ignore", divide="ignore"):
            res = assemble_batch(REF, [2.0 + 1.5j], [(0.7, -0.4)], [(0.3 + 0.1j, 0.2j)],
                                 [0.5 + 0.2j], mode, strict=False).residuals(energy=True)
        for cat in ("ode", "interface", "decay", "energy"):
            assert np.isnan(res[cat][0]), cat

    def test_nan_residuals_fail_the_fuzz(self):
        with mutated("gamma_minus", np.nan), np.errstate(invalid="ignore", divide="ignore"):
            rep = fuzz_residuals(REF, SECTOR, n_samples=200, seed=20260817)
        assert not rep.passed(TOL)
        nans = rep.nan_residuals
        assert set(nans) == {"ode", "interface", "decay", "energy"}
        assert all(v["count"] == 200 for v in nans.values())
        dim, mode, lam, xi, _, _ = next(fuzz_corpus(20260817, 200, SECTOR))
        assert nans["ode"]["first"] == {"lam_re": lam[0].real, "lam_im": lam[0].imag,
                                        "a": math.hypot(*xi[0]), "dim": dim, "mode": mode}
        assert rep.to_dict()["nan_residuals"] == nans


# The first three samples of each stratum of the default fuzz corpus (seed
# 20260817, 10,000 samples): per (dim, mode), (lam, xi', h, top) with top = H
# in explicit-H mode and d in kinematic mode.  The first of each lies on the
# sector edge.  A reordered or re-typed RNG draw changes these bits.
GOLDEN_CORPUS = [
    (2, "explicit-H", [
        ((-0.018917358104263024 + 0.018917358104263027j), (-77734797.0976839,),
         ((0.2865166735722762 - 1.007559147355101j),),
         (1.1025013774698178 - 0.4705812420325041j)),
        ((49383.54175594866 - 21993.31613943375j), (-0.005756999530341192,),
         ((-0.16540101156197776 + 0.3495116464902817j),),
         (0.9643487039681334 + 1.175898118773922j)),
        ((21846.320054898857 + 4215252.437102148j), (5.369193703178977,),
         ((-0.0998507238137842 - 0.68588902682074j),),
         (-0.3093617040962148 - 0.17754780191941924j)),
    ]),
    (2, "kinematic", [
        ((-0.0029309284735750726 + 0.002930928473575073j), (0.08459088556179964,),
         ((0.6071560863385383 - 0.16363691806939046j),),
         (-0.08670616702435789 - 0.48033494864807813j)),
        ((0.13237732445035486 + 0.9969341379150038j), (-25.030999480464246,),
         ((1.285893753924228 - 0.12202514905573142j),),
         (0.09668170883333894 - 0.35949785204570406j)),
        ((-1.2891611760942252e-05 + 0.0002181699724971029j), (3443.3409329355377,),
         ((-0.8337319927368019 + 0.7769802290050125j),),
         (-0.6644507134787823 + 0.02011445385609257j)),
    ]),
    (3, "explicit-H", [
        ((-2349.3400511342697 + 2349.34005113427j),
         (2.5061583085313008e-06, 0.0003726471570493808),
         ((-0.7423640754700462 + 0.6069432061399225j),
          (0.41988893676749256 - 0.4431190152103265j)),
         (-0.8853871186098785 - 0.0033251369030436657j)),
        ((0.0049481446476951916 - 0.002516877707874676j),
         (5382.963109893902, 10235.792882512133),
         ((0.06233227140284917 + 0.9632930149805734j),
          (-0.039457558025332816 + 0.11072060638130557j)),
         (-0.40494817641226566 + 0.6298237621715043j)),
        ((3.3264936310550577e-06 - 0.0004835397381054032j),
         (0.0011020880190115824, 0.0017073789310185685),
         ((0.0685228205606584 - 0.020302224900524104j),
          (-0.28570436234452207 + 0.10799578126003954j)),
         (-0.2929033272860203 + 0.373695896260671j)),
    ]),
    (3, "kinematic", [
        ((-2908.113338413816 + 2908.1133384138166j),
         (-700362.382077863, -1081603.4206309768),
         ((0.6437523578253953 - 1.8127266144718834j),
          (0.168686244051944 + 1.0356297783627633j)),
         (-0.05006899115541052 + 0.26399100601860137j)),
        ((0.0018602686084923808 - 0.007159906686216563j),
         (24.136153861417885, 66.74685482936411),
         ((-0.4273335296549607 + 0.49711898749321903j),
          (0.6508501639326802 - 0.595319088414445j)),
         (0.08616926792811962 - 0.27760845491378083j)),
        ((-13997948.968711229 + 17978565.255781587j),
         (0.022872214497384007, 0.0002645097147250239),
         ((0.7402902877127734 + 0.8935906881171293j),
          (0.12722584027496042 + 0.060283808942010825j)),
         (0.05592628907775819 - 1.1779071036435842j)),
    ]),
]

CATEGORIES = ("ode", "interface", "kinematic", "decay", "energy")


def point_residuals(fluid, mode, lam, xi, h, top):
    """Every fuzz category at one corpus sample, solved alone as a batch of one."""
    res = assemble_batch(fluid, [lam], [xi], [h], [top], mode).residuals(energy=True)
    return {cat: float(v[0]) for cat, v in res.items()}


def stratum(seed, n_samples, dim, mode):
    """The first block (lam, xi, h, top) of the corpus's (dim, mode) stratum."""
    return next(b[2:] for b in fuzz_corpus(seed, n_samples, SECTOR) if b[:2] == (dim, mode))


class TestCorpusAndBatch:
    def test_corpus_is_unchanged(self):
        got = []
        for dim, mode, lam, xi, h, top in fuzz_corpus(20260817, 10_000, SECTOR):
            if not got or got[-1][:2] != (dim, mode):
                got.append((dim, mode, [(complex(lam[i]), tuple(xi[i].tolist()),
                                         tuple(h[i].tolist()), complex(top[i]))
                                        for i in range(3)]))
        assert got == GOLDEN_CORPUS

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), n=st.integers(1, 3000),
           epsilon=st.floats(1e-3, math.pi / 2))
    def test_corpus_blocks(self, seed, n, epsilon):
        sector = Sector(epsilon=epsilon)
        span = math.pi - epsilon
        blocks = list(fuzz_corpus(seed, n, sector))
        sizes = {}
        for dim, mode, lam, xi, h, top in blocks:
            m = lam.size
            assert 1 <= m <= resolvent._CORPUS_BLOCK
            assert xi.shape == h.shape == (m, dim - 1) and top.shape == (m,)
            sizes[dim, mode] = sizes.get((dim, mode), 0) + m
            a = np.array([math.hypot(*row) for row in xi.tolist()])
            for mag in (np.abs(lam), a):
                assert np.all((mag >= 1e-4 * (1 - 1e-15)) & (mag <= 1e8 * (1 + 1e-15)))
            arg = np.angle(lam)
            assert np.all(np.abs(arg) <= span)
            # every 16th sample on an edge, alternating, and no other
            edges = np.resize([span, -span], -(-m // 16))
            assert np.array_equal(arg[::16], edges)
            assert np.count_nonzero(np.abs(arg) == span) == edges.size
            if dim == 2:
                assert np.array_equal(np.abs(xi[:, 0]), a)
        assert list(sizes) == [(2, "explicit-H"), (2, "kinematic"),
                               (3, "explicit-H"), (3, "kinematic")][:min(n, 4)]
        assert sum(sizes.values()) == n
        assert max(sizes.values()) - min(sizes.values()) <= 1
        again = list(fuzz_corpus(seed, n, sector))
        assert len(again) == len(blocks)
        for b, c in zip(blocks, again):
            assert b[:2] == c[:2] and all(np.array_equal(x, y) for x, y in zip(b[2:], c[2:]))

    @settings(max_examples=40)
    @given(
        fluid=st.sampled_from((REF, *STRESS_PARAM_SETS)),
        dim=st.sampled_from((2, 3)),
        mode=st.sampled_from(("explicit-H", "kinematic")),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batch_equals_points(self, fluid, dim, mode, seed):
        # every point of a batch gives the residuals it gives solved alone,
        # as a batch of one, bit for bit; 13 points: no multiple of any chunk
        # size, mixed magnitudes
        cols = stratum(seed, 52, dim, mode)
        batch = assemble_batch(fluid, *cols, mode, strict=False)
        res = batch.residuals(energy=True)
        assert set(res) == set(CATEGORIES) - ({"kinematic"} if mode == "explicit-H" else set())
        for i, smp in enumerate(zip(*cols)):
            if not batch.valid[i]:
                with pytest.raises(HeightNotInvertible):
                    point_residuals(fluid, mode, *smp)
                continue
            want = point_residuals(fluid, mode, *smp)
            assert set(want) == set(res)
            for cat, val in want.items():
                assert res[cat][i].tobytes() == np.float64(val).tobytes(), (cat, i)

    def test_perturbation_stays_at_its_index(self):
        # index 4 is the mutation-probe point, where every target is visible
        cols = stratum(5, 36, 3, "explicit-H")
        for col, v in zip(cols, (complex(math.cos(2.0), math.sin(2.0)), (0.7, -0.4),
                                 (0.7 - 0.3j, 0.7 - 0.3j), 0.5 + 0.2j)):
            col[4] = v
        clean = assemble_batch(REF, *cols, "explicit-H").residuals(energy=True)
        n = cols[0].size
        for target in (*amplitude_targets(3), *ENTRY_TARGETS):
            rel = np.zeros(n)
            rel[4] = 1e-3
            with mutated(target, rel):
                hit = assemble_batch(REF, *cols, "explicit-H").residuals(energy=True)
            assert max(hit["ode"][4], hit["interface"][4]) > TEST_TOL.mutation_floor, target
            for cat in clean:
                others = np.arange(n) != 4
                assert np.array_equal(hit[cat][others], clean[cat][others]), (target, cat)

    def test_fuzz_chunks_keep_first_worst(self, monkeypatch):
        # blocks of 37 (three per stratum: 37, 37, 1) against the one-point
        # loop over the same corpus: one assemble_batch per block, and every
        # category keeps its first maximum in corpus order
        monkeypatch.setattr(resolvent, "_CORPUS_BLOCK", 37)
        want = {c: {"value": -1.0} for c in CATEGORIES}
        blocks = list(fuzz_corpus(11, 300, SECTOR))
        assert len(blocks) == 12
        for dim, mode, *cols in blocks:
            for lam, xi, h, top in zip(*cols):
                for cat, val in point_residuals(REF, mode, lam, xi, h, top).items():
                    if val > want[cat]["value"]:
                        want[cat] = {"value": val, "lam_re": lam.real, "lam_im": lam.imag,
                                     "a": math.hypot(*xi), "dim": dim, "mode": mode}
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1].size)
            return assemble_batch(*args, **kwargs)

        monkeypatch.setattr(resolvent, "assemble_batch", counted)
        got = fuzz_residuals(REF, SECTOR, n_samples=300, seed=11)
        assert calls == [b[2].size for b in blocks]
        assert got.worst == want

    def test_fuzz_chunks_across_a_full_chunk(self):
        # 2,052 samples at the default corpus block: each stratum is one full
        # block of 512 and a block of one, and the fold across them keeps the
        # first worst of the one-point loop over the same corpus
        assert resolvent._CORPUS_BLOCK == 512
        blocks = list(fuzz_corpus(11, 2052, SECTOR))
        assert [b[2].size for b in blocks] == [512, 1] * 4
        want = {c: {"value": -1.0} for c in CATEGORIES}
        for dim, mode, *cols in blocks:
            for lam, xi, h, top in zip(*cols):
                for cat, val in point_residuals(REF, mode, lam, xi, h, top).items():
                    if val > want[cat]["value"]:
                        want[cat] = {"value": val, "lam_re": lam.real, "lam_im": lam.imag,
                                     "a": math.hypot(*xi), "dim": dim, "mode": mode}
        assert fuzz_residuals(REF, SECTOR, n_samples=2052, seed=11).worst == want

    def test_every_fuzz_residual_is_pinned(self):
        # the sha256 of each category's float64 residuals, every sample of a
        # 200-sample corpus of the default run in corpus order: a last-bit
        # drift in any residual moves its digest, where the verify report
        # records only each category's worst sample
        cfg = RunConfig()
        got = {}
        for dim, mode, *cols in fuzz_corpus(cfg.seed, 200, cfg.sector):
            res = assemble_batch(cfg.fluid, *cols, mode, strict=False).residuals(energy=True)
            for cat, v in res.items():
                got.setdefault(cat, hashlib.sha256()).update(np.asarray(v, np.float64).tobytes())
        assert {cat: d.hexdigest() for cat, d in got.items()} == {
            "ode": "7c21d6e645a969b60e53dcfac532cdfc733c001579895b83b67f57a0546f6eb4",
            "interface": "048ea7237df5fdab8c002bfe4794d17a717ad5e147a77562fbe3c019f73978d1",
            "kinematic": "0b958ec0caf20911c3044935e8b46a5184f0f3fc1bd8206229c25e988ec8c25a",
            "decay": "36b99bdd87a6848312dc651ea1cc19cbb03ed0e94827c49765526caec5aa88c8",
            "energy": "1c3cbc025c6e4f2101b2f6d94358f860b3a034795bda72fb76f9fc557efde826",
        }

    def test_fuzz_memory_is_flat_in_samples(self):
        # blocks are drawn and solved one at a time, so ten times the
        # samples keep the traced peak within 10 %; a first call warms the
        # caches that would otherwise count toward the first peak
        fuzz_residuals(REF, SECTOR, n_samples=8, seed=3)
        peaks = []
        for n in (2_000, 20_000):
            tracemalloc.start()
            try:
                fuzz_residuals(REF, SECTOR, n_samples=n, seed=3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], peaks

    def test_batch_errors_name_the_sample(self):
        lam, xi, h, top = stratum(3, 24, 2, "kinematic")
        tol = Tolerances(height_inv_rel=1e3)
        with pytest.raises(HeightNotInvertible, match="sample 0: "):
            assemble_batch(REF, lam, xi, h, top, "kinematic", tol=tol)
        with pytest.raises(ValueError, match="h_hat must have shape"):
            assemble_batch(REF, lam, xi, np.hstack((h, h)), top, "explicit-H")


class TestFuzzHeightFailures:
    def test_refused_heights_fail_the_report(self):
        # |lam + K|/(|lam| + A) spans about 0.3 to 2.8 on these samples
        tol = Tolerances(height_inv_rel=1.0)
        rep = fuzz_residuals(REF, SECTOR, n_samples=200, seed=20260817, tol=tol)
        fails = rep.height_failures
        assert fails is not None and 0 < fails["count"] < 100
        assert fails["first"]["mode"] == "kinematic"
        assert set(fails["first"]) == {"lam_re", "lam_im", "a", "dim", "mode"}
        assert not rep.passed(tol)
        assert rep.to_dict()["height_not_invertible"] == fails
        # the other samples are still certified
        assert rep.worst["kinematic"]["value"] >= 0.0
        assert rep.worst["ode"]["value"] < TOL.fuzz_residual

    def test_clean_report_keeps_its_keys(self):
        rep = fuzz_residuals(REF, SECTOR, n_samples=50, seed=7)
        assert rep.height_failures is None
        assert list(rep.to_dict()) == ["seed", "n_samples", "epsilon", "worst"]

    def test_verify_still_writes_its_report(self, tmp_path):
        import json

        from lopstokes.cli import cmd_verify
        from lopstokes.config import GridSpec, RunConfig

        grid = GridSpec(lam_min=1e-2, lam_max=1e2, lam_per_decade=2, n_angles=3,
                        a_min=1e-2, a_max=1e2, a_per_decade=2)
        cfg = RunConfig(grid=grid, samples=40,
                        class_grid=GridSpec(lam_min=1e-1, lam_max=1e1,
                                            lam_per_decade=1, n_angles=3,
                                            a_min=1e-1, a_max=1e1,
                                            a_per_decade=1))
        code = cmd_verify(cfg, Tolerances(height_inv_rel=1e3), str(tmp_path), "t")
        doc = json.loads((tmp_path / "verify_t.json").read_text())
        assert code & 1 and doc["exit_code"] == code
        fuzz = doc["suites"]["fuzz"]
        assert not fuzz["passed"] and fuzz["height_not_invertible"]["count"] == 20
        assert not doc["suites"]["energy"]["passed"]
