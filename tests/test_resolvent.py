"""Profile algebra, assembled resolvent solutions, and residual operators."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from lopstokes import (
    BoundaryData,
    FluidParams,
    Profile,
    Sector,
    SpectralPoint,
    Tolerances,
    assemble_profiles,
    energy_balance,
    fuzz_residuals,
    inner_product,
    interface_residual,
    ode_residual,
)
from lopstokes.resolvent import (
    FuzzReport,
    amplitude_targets,
    decay_margin,
    default_x_samples,
    energy_quadrature_check,
    mutation_probe,
)
from lopstokes.lopatinski import ENTRY_TARGETS
from lopstokes.config import REFERENCE_PARAMS

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


def data_for(sp, mode):
    rng = np.random.default_rng(abs(hash((round(abs(sp.lam), 6), sp.dim))) % 2**32)
    h = rng.standard_normal(sp.dim - 1) + 1j * rng.standard_normal(sp.dim - 1)
    if mode == "explicit-H":
        return BoundaryData.explicit(h, H_hat=0.4 - 0.7j)
    return BoundaryData.kinematic(h, d_hat=-0.3 + 0.55j)


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

    @pytest.mark.parametrize("p,xs", [(P, 0.8), (M, -1.1)], ids=["plus", "minus"])
    def test_terms_reproduce_call(self, p, xs):
        val = sum(t(xs) for t in p.terms)
        assert abs(val - p(xs)) < 1e-14 * abs(p(xs))

    def test_confluent_terms_degree_one(self):
        # confluent plus-side kernel is -x e^{-ax} (slope -1 at zero)
        p = Profile(+1, b=1.0 + 0.5j, a=1.0 + 0.5j, c_m=2.0)
        (t,) = p.terms
        assert t.degree == 1
        x = 0.6
        want = -2.0 * x * np.exp(-(1.0 + 0.5j) * x)
        assert abs(p(x) - want) < 1e-14 * abs(want)
        assert abs(t(x) - want) < 1e-14 * abs(want)
        m = Profile(-1, b=0.8 - 0.2j, a=0.8 - 0.2j, c_m=1.5)
        (tm,) = m.terms
        xm = -0.9
        want_m = 1.5 * xm * np.exp((0.8 - 0.2j) * xm)
        assert abs(m(xm) - want_m) < 1e-13 * abs(want_m)
        assert abs(tm(xm) - want_m) < 1e-13 * abs(want_m)

    def test_exp_term_deriv(self):
        t = self.P.terms[0]
        parts = t.deriv()
        x = 0.4
        h = 1e-6
        fd = (t(x + h) - t(x - h)) / (2.0 * h)
        assert abs(sum(q(x) for q in parts) - fd) < 1e-8 * abs(fd)

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


class TestBoundaryData:
    def test_explicit_requires_H(self):
        with pytest.raises(ValueError):
            BoundaryData(h_hat=(1.0 + 0j,), mode="explicit-H")

    def test_kinematic_requires_d(self):
        with pytest.raises(ValueError):
            BoundaryData(h_hat=(1.0 + 0j,), mode="kinematic")

    def test_kinematic_forbids_H(self):
        with pytest.raises(ValueError):
            BoundaryData(h_hat=(1.0 + 0j,), H_hat=1.0 + 0j, d_hat=0.5 + 0j,
                         mode="kinematic")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            BoundaryData(h_hat=(), H_hat=1.0 + 0j, mode="dirichlet")

    def test_constructors(self):
        e = BoundaryData.explicit([0.5j], 1.0 - 2.0j)
        assert e.mode == "explicit-H" and e.d_hat is None
        k = BoundaryData.kinematic([0.5j], 0.25)
        assert k.mode == "kinematic" and k.H_hat is None


class TestAssembledSolution:
    @pytest.mark.parametrize("name,fluid,sp", REGIMES,
                             ids=[r[0] for r in REGIMES])
    @pytest.mark.parametrize("mode", ["explicit-H", "kinematic"])
    def test_residuals(self, name, fluid, sp, mode):
        data = data_for(sp, mode)
        sol = assemble_profiles(fluid, sp, data, sector=SECTOR)
        assert ode_residual(fluid, sp, sol) < TOL.ode_residual
        ires = interface_residual(fluid, sp, sol)
        assert ires.max() < TOL.interface_residual
        if mode == "kinematic":
            assert ires.kinematic is not None
        else:
            assert ires.kinematic is None
        assert decay_margin(sol) <= 1.0 + 1e-9

    def test_traces_expose_amplitudes(self):
        sp = SpectralPoint(lam=2.0 + 1.5j, xi=(0.7, -0.4))
        data = BoundaryData.explicit([0.3 - 0.2j, -0.1 + 0.5j], 0.25 + 0.6j)
        sol = assemble_profiles(REF, sp, data, sector=SECTOR)
        for j in range(3):
            assert sol.u_plus[j].trace0 == sol.betas.beta_plus[j]
            assert sol.u_minus[j].trace0 == sol.betas.beta_minus[j]
        assert sol.pressure.trace0 == sol.betas.gamma_minus
        assert sol.H_hat_effective == 0.25 + 0.6j
        assert sol.dim == 3

    def test_velocity_jump_is_data(self):
        sp = SpectralPoint(lam=1.0 + 0.3j, xi=(0.9,))
        data = BoundaryData.explicit([1.0 + 0j], 0.0j)
        sol = assemble_profiles(REF, sp, data, sector=SECTOR)
        jump = sol.u_minus[0].trace0 - sol.u_plus[0].trace0
        assert abs(jump - 1.0) < 1e-12

    def test_kinematic_height_relation(self):
        sp = SpectralPoint(lam=2.0 + 1.5j, xi=(0.7, -0.4))
        data = BoundaryData.kinematic([0.3 - 0.2j, -0.1 + 0.5j], 0.45 - 0.2j)
        sol = assemble_profiles(REF, sp, data, sector=SECTOR)
        drho = REF.rho_minus - REF.rho_plus
        trace = (REF.rho_minus * sol.u_minus[-1].trace0
                 - REF.rho_plus * sol.u_plus[-1].trace0) / drho
        got_d = sp.lam * sol.H_hat_effective - trace
        assert abs(got_d - (0.45 - 0.2j)) < 1e-12

    def test_explicit_with_consistent_d(self):
        # supplying the d implied by an explicit solve must close the
        # kinematic residual to round-off
        sp = SpectralPoint(lam=0.8 - 0.5j, xi=(1.3,))
        base = BoundaryData.explicit([0.2 + 0.4j], -0.6 + 0.1j)
        sol = assemble_profiles(REF, sp, base, sector=SECTOR)
        drho = REF.rho_minus - REF.rho_plus
        trace = (REF.rho_minus * sol.u_minus[-1].trace0
                 - REF.rho_plus * sol.u_plus[-1].trace0) / drho
        d = sp.lam * sol.H_hat_effective - trace
        again = BoundaryData.explicit([0.2 + 0.4j], -0.6 + 0.1j, d_hat=d)
        ires = interface_residual(REF, sp, assemble_profiles(REF, sp, again,
                                                             sector=SECTOR))
        assert ires.kinematic is not None
        assert ires.kinematic < TOL.interface_residual

    def test_zero_data(self):
        sp = SpectralPoint(lam=2.0 + 1.5j, xi=(0.7, -0.4))
        data = BoundaryData.explicit([0.0j, 0.0j], 0.0j)
        sol = assemble_profiles(REF, sp, data, sector=SECTOR)
        for u in (*sol.u_plus, *sol.u_minus, sol.pressure):
            assert u.c_m == 0 and u.c_b == 0 and u.c_a == 0
        assert ode_residual(REF, sp, sol) == 0.0
        assert interface_residual(REF, sp, sol).max() == 0.0
        assert decay_margin(sol) == 0.0

    def test_linearity(self):
        sp = SpectralPoint(lam=1.4 + 0.9j, xi=(0.5, 1.1))
        d1 = BoundaryData.explicit([0.3 - 0.2j, -0.1 + 0.5j], 0.25 + 0.6j)
        d2 = BoundaryData.explicit([-0.4 + 0.1j, 0.2 - 0.3j], -0.5 + 0.15j)
        d12 = BoundaryData.explicit(
            [a + b for a, b in zip(d1.h_hat, d2.h_hat)], d1.H_hat + d2.H_hat)
        s1 = assemble_profiles(REF, sp, d1, sector=SECTOR)
        s2 = assemble_profiles(REF, sp, d2, sector=SECTOR)
        s12 = assemble_profiles(REF, sp, d12, sector=SECTOR)
        x = np.array([0.1, 0.7, 2.0])
        for j in range(3):
            want = s12.u_plus[j](x)
            got = s1.u_plus[j](x) + s2.u_plus[j](x)
            assert np.max(np.abs(got - want)) < 1e-12 * max(
                np.max(np.abs(want)), 1.0)

    def test_minus_divergence_cancels(self):
        sp = SpectralPoint(lam=2.0 + 1.5j, xi=(0.7, -0.4))
        data = BoundaryData.explicit([0.3 - 0.2j, -0.1 + 0.5j], 0.25 + 0.6j)
        sol = assemble_profiles(REF, sp, data, sector=SECTOR)
        div = sol.divergence(-1)
        scale = max(np.max(np.abs(sol.betas.beta_minus)),
                    np.max(np.abs(sol.betas.g_minus)))
        assert abs(div.c_m) < 1e-13 * scale
        assert abs(div.c_b) < 1e-13 * scale
        assert abs(div.c_a) < 1e-13 * scale

    def test_default_x_samples(self):
        sp = SpectralPoint(lam=4.0 + 0j, xi=(2.0,))
        xs = default_x_samples(sp)
        assert xs.shape == (20,)
        assert np.all(np.diff(xs) > 0)
        assert xs[-1] == pytest.approx(10.0 / 4.0)


class TestEnergy:
    @pytest.mark.parametrize("name,fluid,sp", REGIMES[:4],
                             ids=[r[0] for r in REGIMES[:4]])
    def test_balance_defect(self, name, fluid, sp):
        data = data_for(sp, "explicit-H")
        sol = assemble_profiles(fluid, sp, data, sector=SECTOR)
        rep = energy_balance(fluid, sp, sol)
        assert rep.max() < TOL.energy_defect
        assert rep.plus_defect >= 0 and rep.minus_defect >= 0
        # dissipation entries are real and nonnegative
        assert rep.plus_parts[1].imag == 0.0
        assert rep.plus_parts[1].real >= 0.0
        assert rep.minus_parts[1].real >= 0.0

    def test_quadrature_cross_check(self):
        sp = SpectralPoint(lam=2.0 + 1.5j, xi=(0.7, -0.4))
        data = BoundaryData.explicit([0.3 - 0.2j, -0.1 + 0.5j], 0.25 + 0.6j)
        sol = assemble_profiles(REF, sp, data, sector=SECTOR)
        assert energy_quadrature_check(REF, sp, sol) < TOL.quadrature_cross

    def test_quadrature_cross_check_2d(self):
        sp = SpectralPoint(lam=0.8 - 0.5j, xi=(1.3,))
        data = BoundaryData.explicit([0.2 + 0.4j], -0.6 + 0.1j)
        sol = assemble_profiles(REF, sp, data, sector=SECTOR)
        assert energy_quadrature_check(REF, sp, sol) < TOL.quadrature_cross


class TestMutationAndFuzz:
    def test_amplitude_targets(self):
        t2 = amplitude_targets(2)
        t3 = amplitude_targets(3)
        assert len(t2) == 9 and len(t3) == 13
        assert "gamma_minus" in t2
        assert "beta_plus_2" in t3 and "beta_plus_2" not in t2

    def test_mutation_probe_detects_all_targets(self):
        # the interior-angle unit-magnitude point resolves even the weakest
        # entry sensitivities (l12m, l21p) above the detection floor
        lam = complex(math.cos(2.0), math.sin(2.0))
        sp = SpectralPoint(lam=lam, xi=(0.7, -0.4))
        data = BoundaryData.explicit([0.7 - 0.3j, 0.7 - 0.3j], 0.5 + 0.2j)
        out = mutation_probe(REF, sp, data, rel=1e-3, sector=SECTOR)
        assert set(out) == set(amplitude_targets(3)) | set(ENTRY_TARGETS)
        floor = TOL.mutation_floor
        bad = {k: v for k, v in out.items() if v <= floor}
        assert bad == {}

    def test_environment_cannot_mutate(self, monkeypatch):
        # perturbation is an explicit argument only: a stray environment
        # setting must not alter a production solve
        sp = SpectralPoint(lam=1.0 + 0.6j, xi=(0.9,))
        data = BoundaryData.explicit([0.7 - 0.3j], 0.5 + 0.2j)
        clean = assemble_profiles(REF, sp, data, sector=SECTOR)
        monkeypatch.setenv("LOPSTOKES_MUTATE", "l12m")
        env = assemble_profiles(REF, sp, data, sector=SECTOR)
        assert env.betas.matrix == clean.betas.matrix
        for got, want in zip((*env.u_plus, *env.u_minus, env.pressure),
                             (*clean.u_plus, *clean.u_minus, clean.pressure)):
            assert (got.c_m, got.c_b, got.c_a) == (want.c_m, want.c_b, want.c_a)

    def test_unknown_mutation_target(self):
        sp = SpectralPoint(lam=1.0 + 0.6j, xi=(0.9,))
        data = BoundaryData.explicit([0.7 - 0.3j], 0.5 + 0.2j)
        with pytest.raises(ValueError):
            assemble_profiles(REF, sp, data, sector=SECTOR,
                              perturb=("bogus", 1e-3))

    def test_fuzz_small_corpus(self):
        rep = fuzz_residuals(REF, SECTOR, n_samples=500, seed=20260817)
        assert rep.passed(TOL)
        assert set(rep.worst) == {"ode", "interface", "kinematic", "decay"}
        for rec in rep.worst.values():
            assert rec["value"] >= 0.0
            assert rec["dim"] in (2, 3)
            assert rec["mode"] in ("explicit-H", "kinematic")
        assert rep.elapsed > 0.0
        assert rep.n_samples == 500
        assert "elapsed" not in rep.to_dict()

    def test_fuzz_with_energy(self):
        rep = fuzz_residuals(REF, SECTOR, n_samples=60, seed=3, energy=True)
        assert rep.energy_included
        assert "energy" in rep.worst
        assert rep.passed(TOL)

    def test_fuzz_deterministic(self):
        r1 = fuzz_residuals(REF, SECTOR, n_samples=40, seed=99)
        r2 = fuzz_residuals(REF, SECTOR, n_samples=40, seed=99)
        assert r1.to_dict() == r2.to_dict()

    def test_failed_report_detected(self):
        bad = FuzzReport(seed=1, n_samples=1, epsilon=SECTOR.epsilon,
                         energy_included=False,
                         worst={"ode": {"value": 1.0, "lam_re": 1.0,
                                        "lam_im": 0.0, "a": 1.0,
                                        "dim": 2, "mode": "explicit-H"}},
                         elapsed=0.0)
        assert not bad.passed(TOL)
