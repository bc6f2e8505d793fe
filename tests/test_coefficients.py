"""Solution coefficients: interface solve, symbol tables, height symbol.

Frozen complex values were produced by an independent 50-digit cofactor
solve of the 3x3 interface system (plain LU, no stabilized rewrites).
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    TEST_TOL,
    SpectralPoint,
    coefficient_tables,
    lopatinski_matrix,
    point_amplitudes,
    point_kit,
    solve_point,
)
from lopstokes import coefficients, lopatinski
from lopstokes import (
    FluidParams,
    GridSpec,
    HeightNotInvertible,
    NoCutoffFound,
    Sector,
    Tolerances,
    height_scan,
    omega3,
    omega4_formula,
    slope_limit,
)
from lopstokes.coefficients import (
    SymbolKit,
    _interface_rhs,
    height_curve,
    height_ratio,
    kinematic_weight,
    refused_heights,
)
from lopstokes.config import REFERENCE_PARAMS, STRESS_PARAM_SETS
from lopstokes.lopatinski import det_ratios

SECTOR = Sector(epsilon=math.pi / 4)

REF = REFERENCE_PARAMS
FLUID4 = FluidParams(rho_plus=2.0, rho_minus=3.0, mu_plus=0.5, mu_minus=1.5,
                     nu_plus=2.5, sigma=0.7)

P1 = SpectralPoint(lam=2.0 + 1.5j, xi=(0.7, -0.4))
H1 = np.array([0.3 - 0.2j, -0.1 + 0.5j])
HH1 = 0.25 + 0.6j

P3 = SpectralPoint(lam=1e6 * complex(math.cos(2.0), math.sin(2.0)), xi=(1e-3,))
H3 = np.array([0.3 - 0.2j])
HH3 = 0.25 + 0.6j

P4 = SpectralPoint(lam=0.02 - 0.05j, xi=(40.0, -9.0))
H4 = np.array([0.1 + 0.2j, -0.4 + 0.3j])
HH4 = -0.15 + 0.45j

# (beta_+N, beta_-N) at 50 digits
BETA_O1 = (
    0.16592296063937994055 + 0.15624294809119351439j,
    -0.10242407263374626424 - 0.079696919844099262741j,
)
BETA_O3 = (
    8.7924912692815966981e-8 - 1.4247443698309416458e-9j,
    -1.0558844180643438993e-7 + 1.8168380425462115971e-9j,
)
BETA_O4 = (
    -10.126355854319486418 + 30.344569619085820999j,
    4.3055133952311491197 - 12.914565828370324073j,
)

K_O1 = 0.51093635682113005425 - 0.20577873627735074463j
Q_PLUS_O1 = -0.41786092024143630998 - 0.4766032215547374299j
Q_MINUS_O1 = -0.045458565104738894325 - 0.13712670332362234712j
GAMMA_O1 = 0.059628857084524896477 + 0.55840723699809662265j


def rel(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


class TestBetaSolve:
    @pytest.mark.parametrize(
        "fluid,sp,h,H,frozen",
        [
            (REF, P1, H1, HH1, BETA_O1),
            (REF, P3, H3, HH3, BETA_O3),
            (FLUID4, P4, H4, HH4, BETA_O4),
        ],
        ids=["o1", "o3", "o4"],
    )
    def test_frozen_triples(self, fluid, sp, h, H, frozen):
        sol = point_amplitudes(fluid, sp, h, H)
        assert rel(sol["beta_plus"][-1], frozen[0]) < 1e-13
        assert rel(sol["beta_minus"][-1], frozen[1]) < 1e-13

    @pytest.mark.parametrize(
        "fluid,sp,h,H",
        [(REF, P1, H1, HH1), (REF, P3, H3, HH3), (FLUID4, P4, H4, HH4)],
        ids=["o1", "o3", "o4"],
    )
    def test_system_residual(self, fluid, sp, h, H):
        # relative residual of L x = rhs for the solved beta_pmN; amplitudes
        # does not form x1 = i xi'.beta'_-, so it comes from a dense solve
        sol = point_amplitudes(fluid, sp, h, H)
        kit = point_kit(fluid, sp)
        m = lopatinski_matrix(kit)
        ixh = np.sum(1j * np.asarray(sp.xi) * h)
        rhs = np.array(_interface_rhs(fluid, sp.a, kit.l11p[0], kit.l21p[0], ixh, H))
        x = np.array([np.linalg.solve(m, rhs)[0], sol["beta_plus"][-1], sol["beta_minus"][-1]])
        scale = max(np.max(np.abs(m) @ np.abs(x)), np.max(np.abs(rhs)))
        assert np.max(np.abs(m @ x - rhs)) / scale < TEST_TOL.beta_residual

    def test_frozen_q_and_gamma(self):
        # q_pm come from the representation tables; at this well-conditioned
        # point they must agree with the trace combinations the oracle used.
        sol = point_amplitudes(REF, P1, H1, HH1)
        assert rel(sol["q_plus"], Q_PLUS_O1) < 1e-12
        assert rel(sol["q_minus"], Q_MINUS_O1) < 1e-12
        assert rel(sol["gamma_minus"], GAMMA_O1) < 1e-12

    def test_normal_g_amplitudes_equal_minus_q(self):
        sol = point_amplitudes(REF, P1, H1, HH1)
        assert sol["g_minus"][-1] == -sol["q_minus"]
        fac = point_kit(REF, P1)._r_plus_factor_N[0]
        assert sol["g_plus"][-1] == fac * sol["q_plus"]

    @pytest.mark.parametrize(
        "fluid,sp,h,H",
        [(REF, P1, H1, HH1), (FLUID4, P4, H4, HH4)],
        ids=["o1", "o4"],
    )
    def test_tangential_jump(self, fluid, sp, h, H):
        # beta_+j - beta_-j = -h_j for tangential j
        sol = point_amplitudes(fluid, sp, h, H)
        jump = sol["beta_plus"][:-1] - sol["beta_minus"][:-1]
        assert np.max(np.abs(jump + h)) < TEST_TOL.beta_jump * np.max(np.abs(h))

    def test_zero_data_gives_zero(self):
        sol = point_amplitudes(REF, P1, np.zeros(2, dtype=complex), 0.0)
        for arr in (sol["beta_plus"], sol["beta_minus"], sol["g_plus"], sol["g_minus"]):
            assert np.all(arr == 0)
        assert sol["gamma_minus"] == 0
        assert sol["q_plus"] == 0 and sol["q_minus"] == 0

    def test_linearity(self):
        h2 = np.array([-0.4 + 0.1j, 0.25 - 0.35j])
        hh2 = -0.5 - 0.3j
        s1 = point_amplitudes(REF, P1, H1, HH1)
        s2 = point_amplitudes(REF, P1, h2, hh2)
        s12 = point_amplitudes(REF, P1, H1 + h2, HH1 + hh2)
        for field in ("beta_plus", "beta_minus", "g_plus", "g_minus"):
            a = s1[field] + s2[field]
            b = s12[field]
            assert np.max(np.abs(a - b)) < 1e-13 * max(np.max(np.abs(b)), 1.0)
        assert abs(s1["gamma_minus"] + s2["gamma_minus"] - s12["gamma_minus"]) < 1e-13

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="h_hat must have shape"):
            solve_point(REF, P1, np.zeros(1, dtype=complex), 0.0)

    def test_dim_property(self):
        # one amplitude per velocity component: N - 1 tangential, one normal
        for sp, h, H in ((P1, H1, HH1), (P3, H3, HH3)):
            sol = point_amplitudes(REF, sp, h, H)
            for field in ("beta_plus", "beta_minus", "g_plus", "g_minus"):
                assert sol[field].shape == (sp.dim,)


POINTS = [
    (REF, P1, H1, HH1),
    (REF, P3, H3, HH3),
    (FLUID4, P4, H4, HH4),
    (REF, SpectralPoint(lam=3e3 * 1j, xi=(0.05, 0.12)),
     np.array([0.2 + 0.1j, -0.3 + 0.4j]), 0.5 - 0.25j),
]


class TestCoefficientTables:
    @pytest.mark.parametrize("fluid,sp,h,H", POINTS,
                             ids=["o1", "o3", "o4", "lam-dom"])
    def test_tables_vs_direct(self, fluid, sp, h, H):
        sol = point_amplitudes(fluid, sp, h, H)
        cs = coefficient_tables(fluid, sp)
        a = sp.a
        w = np.concatenate([h, [a * H]])
        bp = a * (cs.s_plus @ w)
        bm = a * (cs.s_minus @ w)
        bp[:-1] += cs.t_plus * h
        bm[:-1] += cs.t_minus * h

        def close(got, want):
            got, want = np.atleast_1d(got), np.atleast_1d(want)
            scale = max(float(np.max(np.abs(want))), 1e-300)
            return float(np.max(np.abs(got - want))) / scale < TEST_TOL.coeff_vs_direct

        assert close(a * (cs.r_plus @ w), sol["g_plus"])
        assert close(a * (cs.r_minus @ w), sol["g_minus"])
        assert close(bp, sol["beta_plus"])
        assert close(bm, sol["beta_minus"])
        assert close(a * (cs.p_plus @ w), sol["q_plus"])
        assert close(a * (cs.p_minus @ w), sol["q_minus"])
        assert close(cs.p_press @ w, sol["gamma_minus"])

    def test_layout(self):
        cs = coefficient_tables(REF, P1)
        n = P1.dim
        assert cs.p_plus.shape == (n,) and cs.p_minus.shape == (n,)
        assert cs.r_plus.shape == (n, n) and cs.s_minus.shape == (n, n)
        assert cs.t_plus.shape == (n - 1,)
        assert cs.p_press.shape == (n,)

    @pytest.mark.parametrize("fluid,sp", [(REF, P1), (FLUID4, P4)],
                             ids=["ref", "fluid4"])
    def test_normal_r_minus_row_is_minus_p_minus(self, fluid, sp):
        cs = coefficient_tables(fluid, sp)
        assert np.array_equal(cs.r_minus[-1, :], -cs.p_minus)

    def test_tangential_r_minus_rows(self):
        cs = coefficient_tables(REF, P1)
        for j in range(P1.dim - 1):
            want = -(1j * P1.xi[j] / P1.a) * cs.p_minus
            assert np.max(np.abs(cs.r_minus[j, :] - want)) < 1e-15 * np.max(
                np.abs(cs.p_minus))

    @pytest.mark.parametrize("fluid,sp,h,H", POINTS,
                             ids=["o1", "o3", "o4", "lam-dom"])
    def test_t_pair(self, fluid, sp, h, H):
        kit = point_kit(fluid, sp)
        bp, bm = kit.bp[0], kit.bm[0]
        bsum = fluid.mu_plus * bp + fluid.mu_minus * bm
        t_plus, t_minus = kit.t_plus[0], kit.t_minus[0]
        assert rel(t_plus, -fluid.mu_minus * bm / bsum) < 1e-15
        assert rel(t_minus, fluid.mu_plus * bp / bsum) < 1e-15
        assert abs(t_minus - t_plus - 1.0) < 1e-14

    def test_pressure_row_factor(self):
        cs = coefficient_tables(REF, P1)
        fac = -REF.mu_minus * (P1.a + point_kit(REF, P1).bm[0])
        assert np.max(np.abs(cs.p_press - fac * cs.p_minus)) < 1e-14 * np.max(
            np.abs(cs.p_press))

    def test_batch_kit_matches_scalar(self):
        # every point of a batch kit equals the same point alone
        rng = np.random.default_rng(7)
        mags = 10.0 ** rng.uniform(-3, 6, 40)
        angs = rng.uniform(-2.3, 2.3, 40)
        lam = mags * np.exp(1j * angs)
        a = 10.0 ** rng.uniform(-3, 4, 40)
        kb = SymbolKit.batch(REF, lam, a)
        for i in range(lam.size):
            ks = SymbolKit.batch(REF, lam[i:i + 1], a[i:i + 1])
            assert rel(kb.det[i], ks.det[0]) < 5e-13
            assert rel(kb.k_height[i], ks.k_height[0]) < 5e-12
            assert rel(kb.t_plus[i], ks.t_plus[0]) < 5e-13


class TestHeightSymbol:
    def test_frozen_k_o1(self):
        assert rel(point_kit(REF, P1).k_height[0], K_O1) < 1e-13

    def test_height_K_record(self):
        k = complex(point_kit(REF, P1).k_height[0])
        assert rel(k, K_O1) < 1e-13
        assert not refused_heights(P1.lam, P1.a, P1.lam + k, Tolerances(), strict=True)
        assert omega3(REF) == pytest.approx(68.0 / 3.0, rel=1e-14)

    def test_not_invertible_raises(self):
        strict = dataclasses.replace(Tolerances(), height_inv_rel=1e10)
        k = point_kit(REF, P1).k_height[0]
        assert refused_heights(P1.lam, P1.a, P1.lam + k, strict)
        with pytest.raises(HeightNotInvertible):
            refused_heights(P1.lam, P1.a, P1.lam + k, strict, strict=True)

    @pytest.mark.parametrize("fluid,sp,h,H",
                             [(REF, P1, H1, HH1), (FLUID4, P4, H4, HH4)],
                             ids=["o1", "o4"])
    def test_kinematic_closure(self, fluid, sp, h, H):
        # lam*H - weighted normal trace = d  closes as (lam+K) H = d + w_h,
        # so the data-linear parts must satisfy  w_h - K*H = weighted trace.
        sol = point_amplitudes(fluid, sp, h, H)
        cs = coefficient_tables(fluid, sp)
        k = point_kit(fluid, sp).k_height[0]
        drho = fluid.rho_minus - fluid.rho_plus
        trace = (fluid.rho_minus * sol["beta_minus"][-1]
                 - fluid.rho_plus * sol["beta_plus"][-1]) / drho
        w_h = kinematic_weight(fluid, sp.a, cs.s_minus[-1, :-1], cs.s_plus[-1, :-1], h)
        lhs = w_h - k * complex(H)
        assert abs(lhs - trace) < TEST_TOL.coeff_vs_direct * max(abs(trace), 1.0)

    def test_omega3_reference_value(self):
        assert omega3(REF) == pytest.approx(68.0 / 3.0, rel=1e-14)

    def test_slope_limit_reference_value(self):
        assert slope_limit(REF) == pytest.approx(17.0 / 6.0, rel=1e-14)

    def test_slope_limit_scales_with_sigma(self):
        doubled = FluidParams(1.0, 2.0, 1.0, 1.0, 1.0, 2.0)
        assert slope_limit(doubled) == pytest.approx(17.0 / 3.0, rel=1e-14)

    def test_omega4_formula_reference(self):
        # at the reference set the sector term 0.5*sin(eps/2) is the minimum
        assert omega4_formula(REF, SECTOR) == pytest.approx(
            0.1913417161825449, rel=1e-13)

    def test_omega4_formula_small_sigma(self):
        weak = FluidParams(1.0, 2.0, 1.0, 1.0, 1.0, 1e-3)
        assert omega4_formula(weak, SECTOR) == pytest.approx(
            0.1913417161825449 * 17.0 / 6.0 * 1e-3, rel=1e-12)

    def test_a_regime_slope(self):
        # K/A approaches sigma*omega3/omega1 = 17/6 when A dominates sqrt|lam|
        for lam_mag in (1e-2, 1.0, 1e2):
            a = 300.0 * math.sqrt(lam_mag)
            k = complex(point_kit(REF, SpectralPoint(lam=complex(lam_mag), xi=(a,)))
                        .k_height[0])
            assert abs(k.real / a - 17.0 / 6.0) < 0.05 * 17.0 / 6.0
            assert abs(k.imag) < 0.05 * abs(k.real)

    @given(
        mag=st.floats(1e-3, 1e5),
        ang=st.floats(-2.35, 2.35),
        a=st.floats(1e-3, 1e4),
        s=st.sampled_from([0.5, 2.0, 8.0]),
    )
    def test_k_height_parabolic_degree_one(self, mag, ang, a, s):
        # numerator is degree 5, det is degree 4: K(s^2 lam, s A) = s K(lam, A)
        sp = SpectralPoint(lam=mag * complex(math.cos(ang), math.sin(ang)),
                           xi=(a,))
        k1 = point_kit(REF, sp).k_height[0]
        k2 = point_kit(REF, sp.scaled(s)).k_height[0]
        assert rel(k2, s * k1) < 1e-12


class TestHeightScan:
    def test_find_lambda0_default_floor(self):
        assert height_curve(REF, SECTOR, GridSpec()).cutoff(Tolerances().height_floor) == 0.0

    def test_find_lambda0_at_formula_floor(self):
        lam0 = height_curve(REF, SECTOR, GridSpec()).cutoff(omega4_formula(REF, SECTOR))
        assert lam0 == pytest.approx(50.118723362727245, rel=1e-12)

    def test_find_lambda0_unattainable_floor(self):
        with pytest.raises(NoCutoffFound):
            height_curve(REF, SECTOR, GridSpec()).cutoff(10.0)

    def test_ratio_curve_shape(self):
        grid = GridSpec(lam_min=1e-2, lam_max=1e2, lam_per_decade=3,
                        n_angles=5, a_min=1e-2, a_max=1e2, a_per_decade=3)
        curve = height_curve(REF, SECTOR, grid)
        assert curve.mags.shape == curve.per_min.shape == (13,)
        assert len(curve.worst) == 13
        assert curve.n_points == 13 * 5 * 13
        assert np.all(curve.per_min > 0)
        assert np.all(np.diff(curve.mags) > 0)

    def test_scan_report(self):
        rep = height_scan(REF, SECTOR, height_curve(REF, SECTOR, GridSpec()), lambda0=0.0)
        assert rep.lambda0 == 0.0
        assert rep.omega4 > 0
        assert 0.0 < rep.k_envelope < 100.0
        assert rep.slope == pytest.approx(17.0 / 6.0, rel=TEST_TOL.slope_dev)
        assert rep.slope_limit == pytest.approx(17.0 / 6.0, rel=1e-14)
        assert rep.omega4_formula == pytest.approx(0.1913417161825449, rel=1e-13)
        assert rep.n_points == 121 * 13 * 121
        d = rep.to_dict()
        assert d["fluid"]["rho_minus"] == 2.0
        assert set(d["worst_point"]) == {"re_lambda", "im_lambda", "A"}
        assert d["omega4"] == rep.omega4

    def test_scan_report_above_cutoff(self):
        # omega4 is the curve minimum over the magnitudes at or above lambda0
        curve = height_curve(REF, SECTOR, GridSpec())
        lam0 = curve.cutoff(omega4_formula(REF, SECTOR))
        rep = height_scan(REF, SECTOR, curve, lambda0=lam0)
        above = curve.mags >= lam0
        assert rep.omega4 == curve.per_min[above].min()
        assert rep.omega4 >= omega4_formula(REF, SECTOR)
        k = int(np.flatnonzero(above)[np.argmin(curve.per_min[above])])
        assert (rep.worst_lam, rep.worst_a) == curve.worst[k]

    def test_sigma_zero_has_no_positive_floor_cutoff(self):
        flat = FluidParams(1.0, 2.0, 1.0, 1.0, 1e3, 0.0)
        grid = GridSpec(lam_min=1e-3, lam_max=1e3, lam_per_decade=4,
                        n_angles=5, a_min=1e-3, a_max=1e3, a_per_decade=4)
        # K vanishes identically, so the ratio is |lam|/(|lam|+A) and the
        # default floor is first met at the grid magnitude above 1000/999
        lam0 = height_curve(flat, SECTOR, grid=grid).cutoff(Tolerances().height_floor)
        assert lam0 == pytest.approx(10.0 ** 0.25, rel=1e-12)

    @pytest.mark.parametrize("run", [1, 7, 45])
    def test_runs_keep_the_whole_magnitude_pick(self, monkeypatch, run):
        # 5 magnitudes of 5 angles x 9 A values, in runs that split them or
        # not; a stub ratio ties at its least value and is NaN at four
        # points of the largest magnitude.  Each magnitude keeps the point
        # np.argmin picks over the whole of it: its first NaN, else its
        # first least ratio
        grid = GridSpec(lam_min=1e-2, lam_max=1e2, lam_per_decade=1, n_angles=5,
                        a_min=1e-2, a_max=1e2, a_per_decade=2)

        def ratio(fluid, lam, a):
            r = np.floor(np.angle(lam) ** 2) + (a > 1.0)
            return np.where((np.abs(lam) > 50.0) & (a > 9.0) & (np.angle(lam) > 0.0),
                            np.nan, r)

        monkeypatch.setattr(coefficients, "height_ratio", ratio)
        monkeypatch.setattr(lopatinski, "_TASK_POINTS", run)
        curve = height_curve(REF, SECTOR, grid)
        mags = grid.lam_mags()
        want = []
        for i in range(mags.size):
            lam, a = grid.points(SECTOR.epsilon, mags[i:i + 1])
            r = ratio(REF, lam, a)
            k = int(np.argmin(r))
            want.append((r[k], (complex(lam[k]), float(a[k]))))
        np.testing.assert_array_equal(curve.per_min, [w[0] for w in want])
        assert curve.worst == tuple(w[1] for w in want)
        assert math.isnan(curve.per_min[-1]) and curve.n_points == 5 * 5 * 9

    def _traced_peak(self, n_angles: int) -> int:
        grid = GridSpec(lam_min=1.0, lam_max=1.0000001, lam_per_decade=1, n_angles=n_angles)
        tracemalloc.start()
        try:
            height_curve(REF, SECTOR, grid)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_does_not_grow_with_a_magnitude(self):
        # one magnitude of 401 x 121 points, then four times as many: each is
        # evaluated in runs of _TASK_POINTS, so the traced peak stays that of
        # a run where a whole-magnitude layout would grow it about 4x
        small = self._traced_peak(401)
        assert 401 * 121 > 4 * lopatinski._TASK_POINTS
        assert self._traced_peak(4 * 401) <= 1.5 * small


# A point evaluated alone, as a batch of one, runs the same array code as
# inside any batch, so every symbol must agree far inside this bound.
AGREE_RTOL = 5e-12
KIT_FIELDS = ("ap", "bp", "bm", "l11p", "l12p", "l21p", "l22p",
              "l11m", "l12m", "l21m", "l22m", "det", "p_stab",
              "c21", "c22", "c23", "c31", "c32", "c33")


class TestScalarBatchAgreement:
    @settings(max_examples=80)
    @given(
        fluid=st.sampled_from((REF, *STRESS_PARAM_SETS)),
        pts=st.lists(st.tuples(st.floats(-4.0, 8.0),      # log10 |lambda|
                               st.floats(-2.35, 2.35),    # arg lambda
                               st.floats(-4.0, 8.0)),     # log10 A
                     min_size=1, max_size=12),
    )
    def test_every_symbol_agrees(self, fluid, pts):
        lam = np.array([10.0 ** m * complex(math.cos(t), math.sin(t))
                        for m, t, _ in pts])
        a = np.array([10.0 ** la for _, _, la in pts])
        kb = SymbolKit.batch(fluid, lam, a)
        k_batch = kb.k_height
        absdet, det_ratio = det_ratios(fluid, lam, a)
        h_ratio = height_ratio(fluid, lam, a)
        for i in range(lam.size):
            one = slice(i, i + 1)
            ks = SymbolKit.batch(fluid, lam[one], a[one])
            for name in KIT_FIELDS:
                got, want = getattr(kb, name)[i], getattr(ks, name)[0]
                assert abs(got - want) <= AGREE_RTOL * abs(want), name
            absdet1, det_ratio1 = det_ratios(fluid, lam[one], a[one])
            assert abs(absdet[i] - absdet1[0]) <= AGREE_RTOL * absdet1[0]
            assert abs(det_ratio[i] - det_ratio1[0]) <= AGREE_RTOL * det_ratio1[0]
            # K is compared on the scale |lam| + A the height ratio divides
            # by, which stays positive when sigma = 0 makes K vanish
            k_one = ks.k_height[0]
            h_scale = abs(lam[i]) + a[i]
            assert abs(k_batch[i] - k_one) <= AGREE_RTOL * (abs(k_one) + h_scale)
            h_ratio1 = height_ratio(fluid, lam[one], a[one])[0]
            assert abs(h_ratio[i] - h_ratio1) <= AGREE_RTOL * (abs(k_one) / h_scale + 1.0)
