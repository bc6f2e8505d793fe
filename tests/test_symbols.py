"""Characteristic roots and divided-exponential kernels.

The frozen constants below were produced by an independent 50-digit mpmath
evaluation of the defining formulas (principal square roots, the raw
difference quotients) at pinned inputs; agreement is required to near
machine precision.
"""

from __future__ import annotations

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpmath

from helpers import SpectralPoint
from lopstokes import FluidParams, Sector
from lopstokes.config import REFERENCE_PARAMS
from lopstokes.errors import WrongSign
from lopstokes.symbols import (
    CONFLUENT_SWITCH,
    char_roots_batch,
    check_roots,
    exp_diff_quot_batch,
)

REF = REFERENCE_PARAMS

# pinned evaluation points
P1 = SpectralPoint(lam=2.0 + 1.5j, xi=(0.7, -0.4))
P3 = SpectralPoint(lam=1e6 * cmath.exp(2j), xi=(1e-3,))

# mpmath references at P1
O1_A = 0.80622577482985496524
O1_A_PLUS = 1.315761546793184295 + 0.28500604909298487576j
O1_B_PLUS = 1.6874652582671180257 + 0.44445359471885401818j
O1_B_MINUS = 2.2565194463718914689 + 0.66474055980849218739j
O1_M_PLUS = -0.23138509538673386784 + 0.06870236357032302162j    # x = 0.8
O1_M_MINUS = -0.23998128052780313344 + 0.052500893071740840008j  # x = -0.8

# mpmath references at P3 (lambda-dominated stress point)
O3_A_PLUS = 382.05142437047179504 + 595.00983952879092143j
O3_B_MINUS = 764.10284874037051295 + 1190.0196790584743576j
O3_M_PLUS = -0.00011605236483310394744 + 0.00078190291863734199415j   # x = 0.002
O3_M_MINUS = -0.00053109932615266985134 + 0.00063123865847763591326j  # x = -0.002

# near-confluent quotient (e^{-bx} - e^{-ax})/(b - a)
O2_A = 1.25 + 0.5j
O2_B = O2_A + (1e-6 - 2e-6j)
O2_X = 0.37
O2_QUOT = -0.22901600159889546409 + 0.042857930392368704613j


def rel(got, want):
    return abs(got - want) / abs(want)


def roots_at(fluid, sp):
    """(A_plus, B_plus, B_minus) at one point, a batch of one."""
    return tuple(complex(r[0]) for r in char_roots_batch(fluid, [sp.lam], [sp.a]))


def m_plus(ap, bp, x):
    """M_plus(x) = (exp(-B_plus x) - exp(-A_plus x)) / (B_plus - A_plus), x >= 0."""
    return -exp_diff_quot_batch(-bp, -ap, x)


def m_minus(a, bm, x):
    """M_minus(x) = (exp(B_minus x) - exp(A x)) / (B_minus - A), x <= 0."""
    return exp_diff_quot_batch(a, bm, x)


def quot_mp(a, b, x):
    """(exp(b x) - exp(a x)) / (b - a) at 50 digits from the exact doubles."""
    with mpmath.workdps(50):
        a, b, x = mpmath.mpc(a), mpmath.mpc(b), mpmath.mpf(x)
        return complex((mpmath.exp(b * x) - mpmath.exp(a * x)) / (b - a))


def seam_offset(a, direction):
    """b - a on the branch switch |b - a| = CONFLUENT_SWITCH |b + a|, along
    direction (a fixed-point iteration contracting by CONFLUENT_SWITCH)."""
    t = 0.0
    for _ in range(4):
        t = CONFLUENT_SWITCH * abs(2.0 * a + t * direction)
    return t * direction


def on_series_branch(a, b, x):
    return (np.abs(b - a) < CONFLUENT_SWITCH * np.abs(b + a)) & (np.abs((b - a) * x) < 1.0)


def sector_point(mag, ang, a, two_d=True):
    lam = mag * cmath.exp(1j * ang)
    xi = (a,) if two_d else (a * 0.6, a * 0.8)
    return SpectralPoint(lam=lam, xi=xi)


class TestFrozenRoots:
    def test_point_one(self):
        ap, bp, bm = roots_at(REF, P1)
        assert P1.a == pytest.approx(O1_A, rel=1e-15)
        assert rel(ap, O1_A_PLUS) < 1e-14
        assert rel(bp, O1_B_PLUS) < 1e-14
        assert rel(bm, O1_B_MINUS) < 1e-14

    def test_point_three(self):
        ap, _, bm = roots_at(REF, P3)
        assert rel(ap, O3_A_PLUS) < 1e-14
        assert rel(bm, O3_B_MINUS) < 1e-14

    def test_textbook_values(self):
        # rho_+=2, mu_+=nu_+=1, lam=3, A=1: A_+ = 2, B_+ = sqrt(7)
        p = FluidParams(2.0, 1.0, 1.0, 1.0, 1.0)
        ap, bp, _ = roots_at(p, SpectralPoint(lam=3.0, xi=(1.0,)))
        assert rel(ap, 2.0) < 1e-15
        assert rel(bp, math.sqrt(7.0)) < 1e-15

    def test_principal_branch_of_i(self):
        # rho_-=mu_-=1, lam=i, A tiny: B_- ~ e^{i pi/4}
        p = FluidParams(2.0, 1.0, 1.0, 1.0, 1.0)
        bm = roots_at(p, SpectralPoint(lam=1j, xi=(1e-8,)))[2]
        assert rel(bm, cmath.exp(1j * math.pi / 4)) < 1e-8


class TestFrozenKernels:
    def test_plus_kernel_point_one(self):
        ap, bp, _ = roots_at(REF, P1)
        assert rel(m_plus(ap, bp, 0.8), O1_M_PLUS) < 1e-14

    def test_minus_kernel_point_one(self):
        bm = roots_at(REF, P1)[2]
        assert rel(m_minus(P1.a, bm, -0.8), O1_M_MINUS) < 1e-14

    def test_kernels_point_three(self):
        ap, bp, bm = roots_at(REF, P3)
        assert rel(m_plus(ap, bp, 0.002), O3_M_PLUS) < 1e-13
        assert rel(m_minus(P3.a, bm, -0.002), O3_M_MINUS) < 1e-13

    def test_confluent_quotient(self):
        got = -exp_diff_quot_batch(-O2_B, -O2_A, O2_X)
        assert rel(got, O2_QUOT) < 1e-13

    def test_plain_difference(self):
        # B=2, A=1, x=1: M_+ = e^{-2} - e^{-1}
        want = math.exp(-2.0) - math.exp(-1.0)
        assert rel(m_plus(1.0, 2.0, 1.0), want) < 1e-15

    def test_kernels_vanish_at_interface(self):
        ap, bp, bm = roots_at(REF, P1)
        assert m_plus(ap, bp, 0.0) == 0.0
        assert m_minus(P1.a, bm, 0.0) == 0.0

    def test_kernel_slope_at_interface(self):
        # M_+'(0) = -1 and M_-'(0) = +1 for any root pair
        ap, bp, bm = roots_at(REF, P1)
        h = 1e-6
        dp = (m_plus(ap, bp, h) - m_plus(ap, bp, 0.0)) / h
        dm = (m_minus(P1.a, bm, 0.0) - m_minus(P1.a, bm, -h)) / h
        assert abs(dp + 1.0) < 1e-5
        assert abs(dm - 1.0) < 1e-5

    def test_confluent_limit_matches_closed_form(self):
        # b -> a limit is x e^{-a x} (for the sided plus form)
        a = 1.1 + 0.3j
        for eps in (0.0, 1e-12, 1e-9):
            b = a * (1.0 + eps)
            got = -exp_diff_quot_batch(-b, -a, 1.0)
            want = -1.0 * cmath.exp(-a)
            assert abs(got - want) / abs(want) < 1e-8

    def test_series_direct_seam_continuity(self):
        # values just inside and outside the switch radius must agree
        a = 1.3 - 0.4j
        x = 0.9
        for direction in (1.0 + 0.0j, cmath.exp(0.7j)):
            b = a + seam_offset(a, direction) * np.array([1.0 - 1e-9, 1.0 + 1e-9])
            assert on_series_branch(a, b, x).tolist() == [True, False]
            lo, hi = exp_diff_quot_batch(a, b, x)
            assert abs(lo - hi) / abs(hi) < 1e-12

    def test_series_direct_depth_seam(self):
        # inside the switch radius the series hands over to the direct
        # formula at |(b - a) x| = 1; both sides match the 50-digit quotient
        # up to the rounding of a x and b x, whose phases reach |a x| = 6.7e3
        a = -1e-3 + 1.0j
        b = a * (1.0 + 1.5e-4)
        x = np.array([1.0 - 1e-9, 1.0 + 1e-9]) / abs(b - a)
        assert on_series_branch(a, b, x).tolist() == [True, False]
        got = exp_diff_quot_batch(a, b, x)
        for i in range(2):
            assert rel(got[i], quot_mp(a, b, x[i])) < 4 * abs(a * x[i]) * 2.3e-16, i

    def test_far_confluent_depth_underflows_to_zero(self):
        # |(b - a) x| = 1e13: the series would overflow to NaN, the exact
        # value underflows to 0
        a = -1.0 + 0.3j
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = exp_diff_quot_batch(a, a * (1.0 + 1e-5), 1e18)
        assert got == 0.0

    def test_batch_matches_scalar(self):
        # every depth of a batch equals the same depth evaluated alone
        ap, bp, bm = roots_at(REF, P1)
        xs = np.linspace(0.0, 3.0, 17)
        batch = m_plus(ap, bp, xs)
        for x, v in zip(xs, batch):
            assert abs(v - m_plus(ap, bp, [x])[0]) < 1e-15
        batch_m = m_minus(P1.a, bm, -xs)
        for x, v in zip(xs, batch_m):
            assert abs(v - m_minus(P1.a, bm, [-x])[0]) < 1e-15

    def test_exp_diff_quot_batch_mixed_paths(self):
        # one batch through the series branch (first, third, and just inside
        # the seam) and the direct branch (second, and just outside it),
        # each against the 50-digit quotient
        seam = 1.3 - 0.4j
        d_at = seam_offset(seam, cmath.exp(0.7j))
        a = np.array([1.0 + 0.2j, 1.0 + 0.2j, 2.0 - 1.0j, seam, seam])
        b = np.array([1.0 + 0.2j + 1e-9, 3.0 + 0.2j, 2.0 - 1.0j + 5e-5j,
                      seam + d_at * (1.0 - 1e-9), seam + d_at * (1.0 + 1e-9)])
        x = np.array([0.5, 0.5, 1.2, 0.9, 0.9])
        series = on_series_branch(a, b, x)
        assert series.tolist() == [True, False, True, True, False]
        got = exp_diff_quot_batch(a, b, x)
        for i in range(a.size):
            want = quot_mp(a[i], b[i], x[i])
            # the direct branch cancels exp(bx) - exp(ax), so its relative
            # error grows like eps/|(b - a) x| towards the seam
            bound = 1e-15 if series[i] else 1e-15 + 8 * 2.3e-16 / abs((b[i] - a[i]) * x[i])
            assert abs(got[i] - want) <= bound * abs(want), i


class TestRootProperties:
    @given(
        mag=st.floats(1e-4, 1e8),
        ang=st.floats(-(math.pi - math.pi / 4), math.pi - math.pi / 4),
        a=st.floats(1e-4, 1e8),
        two_d=st.booleans(),
    )
    @settings(max_examples=200)
    def test_branch_and_resquare(self, mag, ang, a, two_d):
        sp = sector_point(mag, ang, a, two_d)
        ap, bp, bm = roots_at(REF, sp)
        a2 = sp.a ** 2
        targets = (
            (ap, REF.rho_plus / (REF.mu_plus + REF.nu_plus) * sp.lam + a2),
            (bp, REF.rho_plus / REF.mu_plus * sp.lam + a2),
            (bm, REF.rho_minus / REF.mu_minus * sp.lam + a2),
        )
        for root, square in targets:
            assert root.real > 0.0
            assert abs(root * root - square) / abs(square) < 1e-14

    @pytest.mark.parametrize("s", [0.5, 2.0, 10.0])
    def test_parabolic_scaling(self, s):
        sp = SpectralPoint(lam=0.7 - 2.2j, xi=(1.3, -0.2))
        r0 = roots_at(REF, sp)
        r1 = roots_at(REF, sp.scaled(s))
        for v0, v1 in zip(r0, r1):
            assert abs(v1 - s * v0) / abs(s * v0) < 1e-13
        assert abs(sp.scaled(s).a - s * sp.a) / (s * sp.a) < 1e-13

    def test_envelope_ratio_positive(self):
        # Re(root)/(sqrt|lam| + A) stays in (0, inf) for all three roots
        for sp in (P1, P3):
            scale = math.sqrt(abs(sp.lam)) + sp.a
            ratios = [r.real / scale for r in roots_at(REF, sp)]
            assert 0.0 < min(ratios) <= max(ratios)

    def test_wrong_sign_on_cut(self):
        # negative real lambda with A ~ 0 pushes B- onto the imaginary axis
        sector = Sector(epsilon=math.pi / 4)
        lam, a = np.array([-4.0 + 0.0j]), np.array([1e-300])
        assert not sector.contains(lam[0])
        with pytest.raises(WrongSign):
            check_roots(char_roots_batch(REF, lam, a), lam, a)

    def test_batch_matches_scalar_roots(self):
        # every point of a batch equals the same point alone
        rng = np.random.default_rng(7)
        mags = 10.0 ** rng.uniform(-4, 8, 50)
        angs = rng.uniform(-3 * math.pi / 4, 3 * math.pi / 4, 50)
        lam = mags * np.exp(1j * angs)
        a = 10.0 ** rng.uniform(-4, 8, 50)
        batch = char_roots_batch(REF, lam, a)
        for i in range(50):
            alone = char_roots_batch(REF, lam[i:i + 1], a[i:i + 1])
            for got, want in zip(batch, alone):
                assert rel(got[i], want[0]) < 1e-14
