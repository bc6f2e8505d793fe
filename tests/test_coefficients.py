"""Solution coefficients: interface solve, symbol tables, height symbol.

Frozen complex values were produced by an independent 50-digit cofactor
solve of the 3x3 interface system (plain LU, no stabilized rewrites).
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import TEST_TOL
from lopstokes import (
    FluidParams,
    GridSpec,
    HeightNotInvertible,
    NoCutoffFound,
    Sector,
    SpectralPoint,
    Tolerances,
    assemble,
    char_roots,
    coefficient_symbols,
    height_scan,
    omega3,
    omega4_formula,
    slope_limit,
    solve_betas,
)
from lopstokes.coefficients import (
    SymbolKit,
    height_curve,
    height_ratio,
    height_rhs,
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

# (i xi'.beta'_-, beta_+N, beta_-N) at 50 digits
BETA_O1 = (
    0.13268557145773755176 + 0.11079638150095168868j,
    0.16592296063937994055 + 0.15624294809119351439j,
    -0.10242407263374626424 - 0.079696919844099262741j,
)
BETA_O3 = (
    0.000082842712474569590414 + 0.00012426406871200857215j,
    8.7924912692815966981e-8 - 1.4247443698309416458e-9j,
    -1.0558844180643438993e-7 + 1.8168380425462115971e-9j,
)
BETA_O4 = (
    14.209549038579596236 - 44.38120144673802074j,
    -10.126355854319486418 + 30.344569619085820999j,
    4.3055133952311491197 - 12.914565828370324073j,
)

K_O1 = 0.51093635682113005425 - 0.20577873627735074463j
Q_PLUS_O1 = -0.41786092024143630998 - 0.4766032215547374299j
Q_MINUS_O1 = -0.045458565104738894325 - 0.13712670332362234712j
GAMMA_O1 = 0.059628857084524896477 + 0.55840723699809662265j


def solve_at(fluid, sp, h, H):
    r = char_roots(fluid, sp)
    L = assemble(fluid, sp)
    return solve_betas(fluid, sp, r, L, h, H)


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
        sol = solve_at(fluid, sp, h, H)
        assert rel(sol.ix_beta_minus, frozen[0]) < 1e-13
        assert rel(sol.beta_plus[-1], frozen[1]) < 1e-13
        assert rel(sol.beta_minus[-1], frozen[2]) < 1e-13

    @pytest.mark.parametrize(
        "fluid,sp,h,H",
        [(REF, P1, H1, HH1), (REF, P3, H3, HH3), (FLUID4, P4, H4, HH4)],
        ids=["o1", "o3", "o4"],
    )
    def test_system_residual(self, fluid, sp, h, H):
        sol = solve_at(fluid, sp, h, H)
        assert sol.system_residual() < TEST_TOL.beta_residual

    def test_frozen_q_and_gamma(self):
        # q_pm come from the representation tables; at this well-conditioned
        # point they must agree with the trace combinations the oracle used.
        sol = solve_at(REF, P1, H1, HH1)
        assert rel(sol.q_plus, Q_PLUS_O1) < 1e-12
        assert rel(sol.q_minus, Q_MINUS_O1) < 1e-12
        assert rel(sol.gamma_minus, GAMMA_O1) < 1e-12

    def test_normal_g_amplitudes_equal_minus_q(self):
        sol = solve_at(REF, P1, H1, HH1)
        assert sol.g_minus[-1] == -sol.q_minus
        fac = SymbolKit.from_matrix(sol.matrix)._r_plus_factor_N()
        assert sol.g_plus[-1] == fac * sol.q_plus

    @pytest.mark.parametrize(
        "fluid,sp,h,H",
        [(REF, P1, H1, HH1), (FLUID4, P4, H4, HH4)],
        ids=["o1", "o4"],
    )
    def test_tangential_jump(self, fluid, sp, h, H):
        # beta_+j - beta_-j = -h_j for tangential j
        sol = solve_at(fluid, sp, h, H)
        jump = sol.beta_plus[:-1] - sol.beta_minus[:-1]
        assert np.max(np.abs(jump + h)) < TEST_TOL.beta_jump * np.max(np.abs(h))

    def test_ix_beta_plus_identity(self):
        sol = solve_at(REF, P1, H1, HH1)
        ixh = np.sum(1j * np.asarray(P1.xi) * H1)
        assert sol.ix_beta_plus == sol.ix_beta_minus - ixh

    def test_zero_data_gives_zero(self):
        sol = solve_at(REF, P1, np.zeros(2, dtype=complex), 0.0)
        for arr in (sol.beta_plus, sol.beta_minus, sol.g_plus, sol.g_minus):
            assert np.all(arr == 0)
        assert sol.gamma_minus == 0
        assert sol.q_plus == 0 and sol.q_minus == 0

    def test_linearity(self):
        h2 = np.array([-0.4 + 0.1j, 0.25 - 0.35j])
        hh2 = -0.5 - 0.3j
        s1 = solve_at(REF, P1, H1, HH1)
        s2 = solve_at(REF, P1, h2, hh2)
        s12 = solve_at(REF, P1, H1 + h2, HH1 + hh2)
        for field in ("beta_plus", "beta_minus", "g_plus", "g_minus"):
            a = getattr(s1, field) + getattr(s2, field)
            b = getattr(s12, field)
            assert np.max(np.abs(a - b)) < 1e-13 * max(np.max(np.abs(b)), 1.0)
        assert abs(s1.gamma_minus + s2.gamma_minus - s12.gamma_minus) < 1e-13

    def test_rejects_wrong_shape(self):
        r = char_roots(REF, P1)
        L = assemble(REF, P1)
        with pytest.raises(ValueError):
            solve_betas(REF, P1, r, L, np.zeros(1, dtype=complex), 0.0)

    def test_dim_property(self):
        assert solve_at(REF, P1, H1, HH1).dim == 3
        assert solve_at(REF, P3, H3, HH3).dim == 2


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
        r = char_roots(fluid, sp)
        L = assemble(fluid, sp)
        sol = solve_betas(fluid, sp, r, L, h, H)
        cs = coefficient_symbols(fluid, sp, r, L)

        gp, gm = cs.assemble_g(h, H)
        bp, bm = cs.assemble_beta(h, H)
        qp, qm = cs.assemble_q(h, H)
        gam = cs.assemble_gamma(h, H)

        def close(a, b):
            a, b = np.atleast_1d(a), np.atleast_1d(b)
            scale = max(float(np.max(np.abs(b))), 1e-300)
            return float(np.max(np.abs(a - b))) / scale < TEST_TOL.coeff_vs_direct

        assert close(gp, sol.g_plus)
        assert close(gm, sol.g_minus)
        assert close(bp, sol.beta_plus)
        assert close(bm, sol.beta_minus)
        assert close(qp, sol.q_plus)
        assert close(qm, sol.q_minus)
        assert close(gam, sol.gamma_minus)

    def test_layout(self):
        r = char_roots(REF, P1)
        cs = coefficient_symbols(REF, P1, r, assemble(REF, P1))
        n = P1.dim
        assert cs.dim == n
        assert cs.p_plus.shape == (n,) and cs.p_minus.shape == (n,)
        assert cs.r_plus.shape == (n, n) and cs.s_minus.shape == (n, n)
        assert cs.t_plus.shape == (n - 1,)
        assert cs.p_press.shape == (n,)

    @pytest.mark.parametrize("fluid,sp", [(REF, P1), (FLUID4, P4)],
                             ids=["ref", "fluid4"])
    def test_normal_r_minus_row_is_minus_p_minus(self, fluid, sp):
        r = char_roots(fluid, sp)
        cs = coefficient_symbols(fluid, sp, r, assemble(fluid, sp))
        assert np.array_equal(cs.r_minus[-1, :], -cs.p_minus)

    def test_tangential_r_minus_rows(self):
        r = char_roots(REF, P1)
        cs = coefficient_symbols(REF, P1, r, assemble(REF, P1))
        for j in range(P1.dim - 1):
            want = -(1j * P1.xi[j] / P1.a) * cs.p_minus
            assert np.max(np.abs(cs.r_minus[j, :] - want)) < 1e-15 * np.max(
                np.abs(cs.p_minus))

    @pytest.mark.parametrize("fluid,sp,h,H", POINTS,
                             ids=["o1", "o3", "o4", "lam-dom"])
    def test_t_pair(self, fluid, sp, h, H):
        r = char_roots(fluid, sp)
        kit = SymbolKit.from_matrix(assemble(fluid, sp))
        bsum = fluid.mu_plus * r.b_plus + fluid.mu_minus * r.b_minus
        assert rel(kit.t_plus(), -fluid.mu_minus * r.b_minus / bsum) < 1e-15
        assert rel(kit.t_minus(), fluid.mu_plus * r.b_plus / bsum) < 1e-15
        assert abs(kit.t_minus() - kit.t_plus() - 1.0) < 1e-14

    def test_pressure_row_factor(self):
        r = char_roots(REF, P1)
        cs = coefficient_symbols(REF, P1, r, assemble(REF, P1))
        fac = -REF.mu_minus * (P1.a + r.b_minus)
        assert np.max(np.abs(cs.p_press - fac * cs.p_minus)) < 1e-14 * np.max(
            np.abs(cs.p_press))

    def test_batch_kit_matches_scalar(self):
        rng = np.random.default_rng(7)
        mags = 10.0 ** rng.uniform(-3, 6, 40)
        angs = rng.uniform(-2.3, 2.3, 40)
        lam = mags * np.exp(1j * angs)
        a = 10.0 ** rng.uniform(-3, 4, 40)
        kb = SymbolKit.batch(REF, lam, a)
        for i in range(lam.size):
            sp = SpectralPoint(lam=complex(lam[i]), xi=(float(a[i]),))
            ks = SymbolKit.from_matrix(assemble(REF, sp))
            assert rel(complex(kb.det[i]), ks.det) < 5e-13
            assert rel(complex(kb.k_height()[i]), ks.k_height()) < 5e-12
            assert rel(complex(kb.t_plus()[i]), ks.t_plus()) < 5e-13


class TestHeightSymbol:
    def test_frozen_k_o1(self):
        kit = SymbolKit.from_matrix(assemble(REF, P1))
        assert rel(complex(kit.k_height()), K_O1) < 1e-13

    def test_height_K_record(self):
        k = complex(SymbolKit.from_matrix(assemble(REF, P1)).k_height())
        assert rel(k, K_O1) < 1e-13
        assert not refused_heights(P1.lam, P1.a, P1.lam + k, Tolerances(), strict=True)
        assert omega3(REF) == pytest.approx(68.0 / 3.0, rel=1e-14)

    def test_not_invertible_raises(self):
        strict = dataclasses.replace(Tolerances(), height_inv_rel=1e10)
        k = SymbolKit.from_matrix(assemble(REF, P1)).k_height()
        assert refused_heights(P1.lam, P1.a, P1.lam + k, strict)
        with pytest.raises(HeightNotInvertible):
            refused_heights(P1.lam, P1.a, P1.lam + k, strict, strict=True)

    @pytest.mark.parametrize("fluid,sp,h,H",
                             [(REF, P1, H1, HH1), (FLUID4, P4, H4, HH4)],
                             ids=["o1", "o4"])
    def test_kinematic_closure(self, fluid, sp, h, H):
        # lam*H - weighted normal trace = d  closes as (lam+K) H = d + w_h,
        # so the data-linear parts must satisfy  w_h - K*H = weighted trace.
        r = char_roots(fluid, sp)
        L = assemble(fluid, sp)
        sol = solve_betas(fluid, sp, r, L, h, H)
        cs = coefficient_symbols(fluid, sp, r, L)
        k = SymbolKit.from_matrix(L).k_height()
        drho = fluid.rho_minus - fluid.rho_plus
        trace = (fluid.rho_minus * sol.beta_minus[-1]
                 - fluid.rho_plus * sol.beta_plus[-1]) / drho
        lhs = height_rhs(cs, h) - k * complex(H)
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
            sp = SpectralPoint(lam=complex(lam_mag), xi=(a,))
            kit = SymbolKit.from_matrix(assemble(REF, sp))
            k = complex(kit.k_height())
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
        k1 = complex(SymbolKit.from_matrix(assemble(REF, sp)).k_height())
        k2 = complex(SymbolKit.from_matrix(assemble(REF, sp.scaled(s))).k_height())
        assert rel(k2, s * k1) < 1e-12


class TestHeightScan:
    def test_find_lambda0_default_floor(self):
        assert height_curve(REF, SECTOR).cutoff(Tolerances().height_floor) == 0.0

    def test_find_lambda0_at_formula_floor(self):
        lam0 = height_curve(REF, SECTOR).cutoff(omega4_formula(REF, SECTOR))
        assert lam0 == pytest.approx(50.118723362727245, rel=1e-12)

    def test_find_lambda0_unattainable_floor(self):
        with pytest.raises(NoCutoffFound):
            height_curve(REF, SECTOR).cutoff(10.0)

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
        rep = height_scan(REF, SECTOR, height_curve(REF, SECTOR), lambda0=0.0)
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
        curve = height_curve(REF, SECTOR)
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


# Scalar points run the shared formulas on Python complex numbers, batches on
# numpy arrays; the two differ only in how complex division rounds (a few
# ulp per operation), so every symbol must agree far inside this bound.
AGREE_RTOL = 5e-12
KIT_FIELDS = ("ap", "bp", "bm", "l11p", "l12p", "l21p", "l22p",
              "l11m", "l12m", "l21m", "l22m", "det", "p_stab",
              "c11", "c12", "c13", "c21", "c22", "c23", "c31", "c32", "c33")


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
        k_batch = kb.k_height()
        absdet, det_ratio = det_ratios(fluid, lam, a)
        h_ratio = height_ratio(fluid, lam, a)
        for i in range(lam.size):
            sp = SpectralPoint(lam=complex(lam[i]), xi=(float(a[i]),))
            ks = SymbolKit.from_matrix(assemble(fluid, sp))
            for name in KIT_FIELDS:
                got, want = complex(getattr(kb, name)[i]), getattr(ks, name)
                assert abs(got - want) <= AGREE_RTOL * abs(want), name
            scale4 = (math.sqrt(abs(sp.lam)) + sp.a) ** 4
            assert abs(absdet[i] - abs(ks.det)) <= AGREE_RTOL * abs(ks.det)
            assert abs(det_ratio[i] - abs(ks.det) / scale4) <= AGREE_RTOL * det_ratio[i]
            # K is compared on the scale |lam| + A the height ratio divides
            # by, which stays positive when sigma = 0 makes K vanish
            k_scalar = complex(ks.k_height())
            h_scale = abs(sp.lam) + sp.a
            assert abs(complex(k_batch[i]) - k_scalar) <= AGREE_RTOL * (abs(k_scalar) + h_scale)
            want_ratio = abs(sp.lam + k_scalar) / h_scale
            assert abs(h_ratio[i] - want_ratio) <= AGREE_RTOL * (abs(k_scalar) / h_scale + 1.0)
