"""Parameter records and sector membership."""

from __future__ import annotations

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lopstokes import (
    EqualDensities,
    FluidParams,
    NonPositiveParameter,
    OutOfSector,
    Sector,
)
from lopstokes.config import REFERENCE_PARAMS
from lopstokes.params import validate_params

REF = REFERENCE_PARAMS


class TestFluidParams:
    def test_reference_weights(self):
        # rho_+=1, rho_-=2, sigma=1: sigma_- = 2*1/(2-1), sigma_+ = 1*1/(2-1)
        assert REF.sigma_minus == pytest.approx(2.0, rel=1e-15)
        assert REF.sigma_plus == pytest.approx(1.0, rel=1e-15)

    def test_weight_difference_is_sigma(self):
        # sigma_- - sigma_+ = sigma (rho_- - rho_+) / (rho_- - rho_+) = sigma
        for p in (
            REF,
            FluidParams(2.0, 3.0, 0.5, 1.5, 2.5, 0.7),
            FluidParams(3.0, 1.0, 1.0, 1.0, 1.0, 4.0),
        ):
            assert p.sigma_minus - p.sigma_plus == pytest.approx(p.sigma, rel=1e-13)

    def test_negative_weights_when_denser_above(self):
        p = FluidParams(3.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        assert p.sigma_plus < 0.0 and p.sigma_minus < 0.0

    @pytest.mark.parametrize("name", ["rho_plus", "rho_minus", "mu_plus", "mu_minus", "nu_plus"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_nonpositive_core_param_rejected(self, name, bad):
        kw = dict(rho_plus=1.0, rho_minus=2.0, mu_plus=1.0, mu_minus=1.0, nu_plus=1.0)
        kw[name] = bad
        with pytest.raises(NonPositiveParameter):
            FluidParams(**kw)

    @pytest.mark.parametrize("bad", [-1e-12, math.nan, math.inf])
    def test_bad_sigma_rejected(self, bad):
        with pytest.raises(NonPositiveParameter):
            FluidParams(1.0, 2.0, 1.0, 1.0, 1.0, sigma=bad)

    def test_zero_sigma_allowed(self):
        p = FluidParams(1.0, 2.0, 1.0, 1.0, 1.0, sigma=0.0)
        assert p.sigma_plus == 0.0 and p.sigma_minus == 0.0

    def test_equal_densities_rejected(self):
        with pytest.raises(EqualDensities):
            FluidParams(1.0, 1.0, 1.0, 1.0, 1.0)

    def test_to_dict_layout(self):
        p = FluidParams(2.0, 3.0, 0.5, 1.5, 2.5, 0.7)
        assert p.to_dict() == {"rho_plus": 2.0, "rho_minus": 3.0, "mu_plus": 0.5,
                               "mu_minus": 1.5, "nu_plus": 2.5, "sigma": 0.7}

    def test_validate_params_idempotent(self):
        validate_params(REF)  # already-validated record passes again

    @given(
        rp=st.floats(1e-6, 1e6),
        ratio=st.floats(1e-3, 1e3).filter(lambda r: abs(r - 1.0) > 1e-6),
        mu=st.floats(1e-6, 1e6),
        sigma=st.floats(0.0, 1e6),
    )
    @settings(max_examples=60)
    def test_weights_recomputable(self, rp, ratio, mu, sigma):
        p = FluidParams(rp, rp * ratio, mu, mu, mu, sigma)
        drho = p.rho_minus - p.rho_plus
        assert p.sigma_plus == pytest.approx(p.rho_plus * sigma / drho, rel=1e-15, abs=0.0)
        assert p.sigma_minus == pytest.approx(p.rho_minus * sigma / drho, rel=1e-15, abs=0.0)


class TestSector:
    def test_epsilon_range(self):
        Sector(epsilon=math.pi / 2)  # closed right end is allowed
        for bad in (0.0, -0.1, 1.6, math.pi):
            with pytest.raises(NonPositiveParameter):
                Sector(epsilon=bad)

    def test_contains_basic(self):
        s = Sector(epsilon=math.pi / 4)
        assert s.contains(1.0)
        assert s.contains(1j)
        assert not s.contains(-1.0)  # arg = pi > 3pi/4
        assert not s.contains(0.0)

    def test_contains_floor(self):
        # no magnitude floor: only lambda = 0 itself is left out
        s = Sector(epsilon=math.pi / 4)
        assert s.contains(1e-300j)
        assert s.contains(1e300 + 1e300j)

    def test_contains_edge_ray(self):
        s = Sector(epsilon=math.pi / 4)
        edge = cmath.exp(1j * (math.pi - math.pi / 4))
        assert s.contains(edge)
        assert not s.contains(cmath.exp(1j * (math.pi - math.pi / 4 + 1e-6)))

    def test_require_raises(self):
        s = Sector(epsilon=math.pi / 4)
        s.require(1.0 + 1.0j)
        with pytest.raises(OutOfSector):
            s.require(-5.0)

    @given(
        mag=st.floats(1e-8, 1e8),
        ang=st.floats(-math.pi, math.pi),
        eps=st.floats(0.01, math.pi / 2),
    )
    @settings(max_examples=80)
    def test_contains_matches_definition(self, mag, ang, eps):
        s = Sector(epsilon=eps)
        lam = mag * cmath.exp(1j * ang)
        expected = abs(cmath.phase(lam)) <= math.pi - eps + 1e-15
        assert s.contains(lam) == expected
