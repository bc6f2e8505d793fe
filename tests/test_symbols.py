"""Characteristic roots and divided-exponential kernels.

The frozen constants below were produced by an independent 50-digit mpmath
evaluation of the defining formulas (principal square roots, the raw
difference quotients) at pinned inputs; agreement is required to near
machine precision.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lopstokes import (
    CharRoots,
    FluidParams,
    Sector,
    SpectralPoint,
    char_roots,
    exp_diff_quot,
    stokes_kernel_minus,
    stokes_kernel_plus,
)
from lopstokes.config import REFERENCE_PARAMS
from lopstokes.errors import WrongSign
from lopstokes.symbols import (
    CONFLUENT_SWITCH,
    char_roots_batch,
    exp_diff_quot_batch,
    root_envelope_ratio,
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


def sector_point(mag, ang, a, two_d=True):
    lam = mag * cmath.exp(1j * ang)
    xi = (a,) if two_d else (a * 0.6, a * 0.8)
    return SpectralPoint(lam=lam, xi=xi)


class TestFrozenRoots:
    def test_point_one(self):
        r = char_roots(REF, P1)
        assert r.a == pytest.approx(O1_A, rel=1e-15)
        assert rel(r.a_plus, O1_A_PLUS) < 1e-14
        assert rel(r.b_plus, O1_B_PLUS) < 1e-14
        assert rel(r.b_minus, O1_B_MINUS) < 1e-14
        assert r.a_minus == r.a

    def test_point_three(self):
        r = char_roots(REF, P3)
        assert rel(r.a_plus, O3_A_PLUS) < 1e-14
        assert rel(r.b_minus, O3_B_MINUS) < 1e-14

    def test_textbook_values(self):
        # rho_+=2, mu_+=nu_+=1, lam=3, A=1: A_+ = 2, B_+ = sqrt(7)
        p = FluidParams(2.0, 1.0, 1.0, 1.0, 1.0)
        r = char_roots(p, SpectralPoint(lam=3.0, xi=(1.0,)))
        assert rel(r.a_plus, 2.0) < 1e-15
        assert rel(r.b_plus, math.sqrt(7.0)) < 1e-15

    def test_principal_branch_of_i(self):
        # rho_-=mu_-=1, lam=i, A tiny: B_- ~ e^{i pi/4}
        p = FluidParams(2.0, 1.0, 1.0, 1.0, 1.0)
        r = char_roots(p, SpectralPoint(lam=1j, xi=(1e-8,)))
        assert rel(r.b_minus, cmath.exp(1j * math.pi / 4)) < 1e-8


class TestFrozenKernels:
    def test_plus_kernel_point_one(self):
        r = char_roots(REF, P1)
        assert rel(stokes_kernel_plus(r, 0.8), O1_M_PLUS) < 1e-14

    def test_minus_kernel_point_one(self):
        r = char_roots(REF, P1)
        assert rel(stokes_kernel_minus(r, -0.8), O1_M_MINUS) < 1e-14

    def test_kernels_point_three(self):
        r = char_roots(REF, P3)
        assert rel(stokes_kernel_plus(r, 0.002), O3_M_PLUS) < 1e-13
        assert rel(stokes_kernel_minus(r, -0.002), O3_M_MINUS) < 1e-13

    def test_confluent_quotient(self):
        got = -exp_diff_quot(-O2_B, -O2_A, O2_X)
        assert rel(got, O2_QUOT) < 1e-13

    def test_plain_difference(self):
        # B=2, A=1, x=1: M_+ = e^{-2} - e^{-1}
        r = CharRoots(a_plus=1.0, b_plus=2.0, b_minus=2.0, a=1.0, lam=1.0)
        want = math.exp(-2.0) - math.exp(-1.0)
        assert rel(stokes_kernel_plus(r, 1.0), want) < 1e-15

    def test_kernels_vanish_at_interface(self):
        r = char_roots(REF, P1)
        assert stokes_kernel_plus(r, 0.0) == 0.0
        assert stokes_kernel_minus(r, 0.0) == 0.0

    def test_kernel_slope_at_interface(self):
        # M_+'(0) = -1 and M_-'(0) = +1 for any root pair
        r = char_roots(REF, P1)
        h = 1e-6
        dp = (stokes_kernel_plus(r, h) - stokes_kernel_plus(r, 0.0)) / h
        dm = (stokes_kernel_minus(r, 0.0) - stokes_kernel_minus(r, -h)) / h
        assert abs(dp + 1.0) < 1e-5
        assert abs(dm - 1.0) < 1e-5

    def test_confluent_limit_matches_closed_form(self):
        # b -> a limit is x e^{-a x} (for the sided plus form)
        a = 1.1 + 0.3j
        for eps in (0.0, 1e-12, 1e-9):
            b = a * (1.0 + eps)
            got = -exp_diff_quot(-b, -a, 1.0)
            want = -1.0 * cmath.exp(-a)
            assert abs(got - want) / abs(want) < 1e-8

    def test_series_direct_seam_continuity(self):
        # values just inside and outside the switch radius must agree
        a = 1.3 - 0.4j
        x = 0.9
        for direction in (1.0 + 0.0j, cmath.exp(0.7j)):
            d_at = CONFLUENT_SWITCH * abs(2.0 * a) * direction
            lo = exp_diff_quot(a, a + d_at * (1.0 - 1e-9), x)   # series path
            hi = exp_diff_quot(a, a + d_at * (1.0 + 1e-9), x)   # direct path
            assert abs(lo - hi) / abs(hi) < 1e-12

    def test_batch_matches_scalar(self):
        r = char_roots(REF, P1)
        xs = np.linspace(0.0, 3.0, 17)
        batch = stokes_kernel_plus(r, xs)
        for x, v in zip(xs, batch):
            assert abs(v - stokes_kernel_plus(r, float(x))) < 1e-15
        batch_m = stokes_kernel_minus(r, -xs)
        for x, v in zip(xs, batch_m):
            assert abs(v - stokes_kernel_minus(r, float(-x))) < 1e-15

    def test_exp_diff_quot_batch_mixed_paths(self):
        a = np.array([1.0 + 0.2j, 1.0 + 0.2j, 2.0 - 1.0j])
        b = np.array([1.0 + 0.2j + 1e-9, 3.0 + 0.2j, 2.0 - 1.0j + 5e-5j])
        x = np.array([0.5, 0.5, 1.2])
        got = exp_diff_quot_batch(a, b, x)
        for i in range(3):
            want = exp_diff_quot(complex(a[i]), complex(b[i]), float(x[i]))
            assert abs(got[i] - want) <= 1e-15 * max(1.0, abs(want))


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
        r = char_roots(REF, sp)
        a2 = sp.a ** 2
        targets = (
            (r.a_plus, REF.rho_plus / (REF.mu_plus + REF.nu_plus) * sp.lam + a2),
            (r.b_plus, REF.rho_plus / REF.mu_plus * sp.lam + a2),
            (r.b_minus, REF.rho_minus / REF.mu_minus * sp.lam + a2),
        )
        for root, square in targets:
            assert root.real > 0.0
            assert abs(root * root - square) / abs(square) < 1e-14

    @pytest.mark.parametrize("s", [0.5, 2.0, 10.0])
    def test_parabolic_scaling(self, s):
        sp = SpectralPoint(lam=0.7 - 2.2j, xi=(1.3, -0.2))
        r0 = char_roots(REF, sp)
        r1 = char_roots(REF, sp.scaled(s))
        for v0, v1 in zip(r0.as_tuple(), r1.as_tuple()):
            assert abs(v1 - s * v0) / abs(s * v0) < 1e-13
        assert abs(r1.a - s * r0.a) / (s * r0.a) < 1e-13

    def test_envelope_ratio_positive(self):
        lo, hi = root_envelope_ratio(char_roots(REF, P1))
        assert 0.0 < lo <= hi
        lo3, hi3 = root_envelope_ratio(char_roots(REF, P3))
        assert 0.0 < lo3 <= hi3

    def test_wrong_sign_on_cut(self):
        # negative real lambda with A ~ 0 pushes B- onto the imaginary axis
        sector = Sector(epsilon=math.pi / 4)
        lam = -4.0 + 0.0j
        assert not sector.contains(lam)
        with pytest.raises(WrongSign):
            char_roots(REF, SpectralPoint(lam=lam, xi=(1e-300,)))

    def test_batch_matches_scalar_roots(self):
        rng = np.random.default_rng(7)
        mags = 10.0 ** rng.uniform(-4, 8, 50)
        angs = rng.uniform(-3 * math.pi / 4, 3 * math.pi / 4, 50)
        lam = mags * np.exp(1j * angs)
        a = 10.0 ** rng.uniform(-4, 8, 50)
        ap, bp, bm = char_roots_batch(REF, lam, a)
        for i in range(50):
            r = char_roots(REF, SpectralPoint(lam=complex(lam[i]), xi=(float(a[i]),)))
            assert rel(ap[i], r.a_plus) < 1e-14
            assert rel(bp[i], r.b_plus) < 1e-14
            assert rel(bm[i], r.b_minus) < 1e-14
