"""Radial nonlinear Beltrami solver: exact-solution oracle, order of accuracy,
coefficient-derived dilatation, Cartesian reduction, and the asymptotic bound."""

import math

import numpy as np
import pytest

from dilatox.beltrami import (
    RadialSolution,
    SigmaCoefficient,
    cartesian_coefficients,
    cartesian_residual,
    condition_sigma0,
    dilatation_from_sigma,
    lavrentiev_coefficient,
    power_sigma,
    sigma_from_json,
    solve_radial,
    theorem_nb_bound,
)
from dilatox.catalog import beltrami_exact
from dilatox.errors import (
    BlowUp,
    ComplexDrift,
    ConfigError,
    NonPositiveImag,
)
from dilatox.functionals import dilatation_grid
from dilatox.mapping import PolarPoint
from dilatox.verifier import RadiusLadder
from dilatox.quadrature import QuadratureConfig


def logistic_sigma():
    """sigma = -i (1 + r) / r^2 at m = 1: off the power family, with the closed
    solution 1/R = 1/r - ln r + C. Used for genuine order-of-accuracy checks,
    where the power family is integrated exactly by the scheme."""

    def sigma(r):
        r = np.asarray(r, dtype=float)
        return -1j * (1.0 + r) / r ** 2

    return SigmaCoefficient(sigma=sigma, m=1.0, label="offpower")


def logistic_exact(r, r0=0.5, R0=0.5):
    c = 1.0 / R0 - 1.0 / r0 + math.log(r0)
    return 1.0 / (1.0 / np.asarray(r, dtype=float) - np.log(r) + c)


class TestCoefficients:
    def test_power_sigma_values(self):
        coef = power_sigma(kappa=2.0, m=1.0)
        val = complex(np.asarray(coef.sigma(np.array([0.5])))[0])
        assert val == pytest.approx(-2j)
        assert float(coef.imag_conj(np.array([0.5]))[0]) == pytest.approx(2.0)

    def test_kappa_positive_required(self):
        with pytest.raises(ConfigError):
            power_sigma(kappa=-1.0, m=1.0)

    def test_m_nonnegative_required(self):
        with pytest.raises(ConfigError):
            SigmaCoefficient(sigma=lambda r: -1j * np.ones_like(r), m=-0.5)

    def test_json_power(self):
        coef = sigma_from_json({"family": "power", "kappa": 2.0, "m": 1.0})
        assert coef.m == 1.0

    def test_json_custom_radial(self):
        doc = {"family": "custom_radial", "m": 0.0,
               "samples": [[0.1, 0.0, -1.0], [0.5, 0.0, -1.0], [0.9, 0.0, -1.0]]}
        coef = sigma_from_json(doc)
        assert complex(np.asarray(coef.sigma(np.array([0.3])))[0]) == pytest.approx(-1j)

    def test_json_unknown_family(self):
        with pytest.raises(ConfigError):
            sigma_from_json({"family": "mystery"})


class TestSolver:
    def test_exact_power_family(self):
        # sigma = -i/(kappa r^{m+1}) has the exact solution kappa^{1/m} r
        coef = power_sigma(kappa=2.0, m=1.0)
        sol = solve_radial(coef, 0.5, 1.0)
        exact = 2.0 * sol.grid
        err = np.max(np.abs(sol.values - exact) / exact)
        assert err <= 1e-12
        assert sol.residual_max <= 1e-12
        assert "exits-unit-disc" in sol.notes  # 2r > 1 beyond r = 1/2

    def test_off_power_family_accuracy(self):
        coef = logistic_sigma()
        sol = solve_radial(coef, 0.5, 0.5, step=1e-3)
        exact = logistic_exact(sol.grid)
        assert np.max(np.abs(sol.values - exact)) <= 1e-9

    def test_fourth_order_convergence(self):
        coef = logistic_sigma()
        errs = []
        for step in (4e-3, 2e-3):
            sol = solve_radial(coef, 0.5, 0.5, step=step)
            errs.append(np.max(np.abs(sol.values - logistic_exact(sol.grid))))
        assert errs[0] / errs[1] >= 15.0

    def test_profile_interpolates_off_grid(self):
        coef = power_sigma(kappa=2.0, m=1.0)
        sol = solve_radial(coef, 0.5, 1.0)
        r = np.array([0.123456, 0.654321])
        np.testing.assert_allclose(np.asarray(sol.profile.R(r)), 2.0 * r, rtol=1e-10)

    def test_complex_drift_rejected(self):
        coef = SigmaCoefficient(sigma=lambda r: (0.5 - 1j) / np.asarray(r), m=0.0)
        with pytest.raises(ComplexDrift):
            solve_radial(coef, 0.5, 0.5)

    def test_wrong_sign_rejected(self):
        coef = SigmaCoefficient(sigma=lambda r: 1j / np.asarray(r), m=0.0)
        with pytest.raises(NonPositiveImag):
            solve_radial(coef, 0.5, 0.5)

    def test_blowup_detected(self):
        # R' = R^3 / r^0 ... steep growth from a large anchor blows past the cap
        coef = SigmaCoefficient(sigma=lambda r: -1e6j * np.ones_like(np.asarray(r)),
                                m=2.0, label="steep")
        with pytest.raises(BlowUp):
            solve_radial(coef, 0.5, 10.0)

    def test_anchor_validation(self):
        coef = power_sigma(kappa=2.0, m=1.0)
        with pytest.raises(ConfigError):
            solve_radial(coef, 0.01, 1.0)  # anchor outside the span
        with pytest.raises(ConfigError):
            solve_radial(coef, 0.5, -1.0)

    def test_csv_export(self, tmp_path):
        sol = solve_radial(power_sigma(kappa=2.0, m=1.0), 0.5, 1.0)
        path = tmp_path / "solution.csv"
        sol.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "r,R"
        assert len(lines) == 1 + len(sol.grid)
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(rows[:, 0], sol.grid)
        np.testing.assert_array_equal(rows[:, 1], sol.values)


class TestDilatationAndCondition:
    def test_dilatation_from_sigma_closed_form(self):
        coef = power_sigma(kappa=2.0, m=1.0)
        # D_{m+2} = 1/(r^{m+1} Im(conj sigma)) = kappa for the power family
        for r in (0.1, 0.5, 0.9):
            assert dilatation_from_sigma(coef, PolarPoint(r, 0.0)) == pytest.approx(2.0)

    def test_path_independence(self, cfg):
        # the coefficient-derived dilatation equals the solved map's dilatation
        coef = power_sigma(kappa=2.0, m=1.0)
        sol = solve_radial(coef, 0.5, 1.0)
        model = sol.model()
        for r in (0.1, 0.4, 0.8):
            z = PolarPoint(r, 1.0)
            assert float(dilatation_grid(model, z.r, z.theta, 3.0)) == pytest.approx(
                dilatation_from_sigma(coef, z), rel=1e-8)

    def test_condition_sigma0_power_family(self, ladder, cfg):
        proxy = condition_sigma0(power_sigma(kappa=2.0, m=1.0), ladder, cfg)
        assert proxy.value == pytest.approx(2.0, rel=1e-6)

    def test_asymptotic_bound_holds(self, ladder, cfg):
        coef = power_sigma(kappa=2.0, m=1.0)
        sol = solve_radial(coef, 0.5, 1.0)
        res = theorem_nb_bound(coef, sol, ladder, cfg)
        assert res.report.holds
        # c_3 * sigma0 = 4 * 2 = 8; the solution attains ratio 2
        assert res.bound == pytest.approx(8.0, rel=1e-6)
        assert res.attained == pytest.approx(2.0, rel=1e-9)

    def test_bound_needs_positive_m(self, ladder, cfg):
        coef = power_sigma(kappa=2.0, m=0.0)
        sol = solve_radial(coef, 0.5, 1.0)
        with pytest.raises(ConfigError):
            theorem_nb_bound(coef, sol, ladder, cfg)


class TestCartesianForms:
    def test_A_and_mu_closed_forms(self):
        coef = power_sigma(kappa=2.0, m=0.0)
        cart = cartesian_coefficients(coef)
        # A = sigma r i = (-i/(2r)) r i = 1/2, real and positive
        a = complex(np.asarray(cart.A(np.array([0.3])))[0])
        assert a == pytest.approx(0.5)
        # mu = (z/conj z) (A-1)/(A+1); |mu| = 1/3 < 1
        z = np.array([0.3 * np.exp(1j)])
        mu = complex(np.asarray(cart.mu(z))[0])
        assert abs(mu) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_lavrentiev_coefficient(self):
        assert lavrentiev_coefficient(1.0 / 3.0) == pytest.approx(2.0)
        assert math.isinf(lavrentiev_coefficient(1.0))

    def test_mu_inside_unit_disc_on_grid(self):
        cart = cartesian_coefficients(power_sigma(kappa=2.0, m=0.0))
        rng = np.random.default_rng(5)
        r = rng.uniform(0.05, 0.95, 64)
        th = rng.uniform(0.0, 2.0 * math.pi, 64)
        mu = np.asarray(cart.mu(r * np.exp(1j * th)))
        assert np.all(np.abs(mu) < 1.0)

    def test_polar_and_cartesian_residuals_agree(self):
        coef = power_sigma(kappa=2.0, m=0.0)
        sol = solve_radial(coef, 0.5, 1.0)
        model = sol.model()
        for r, th in ((0.2, 0.0), (0.5, 1.3), (0.8, 4.0)):
            res = cartesian_residual(model, coef, PolarPoint(r, th))
            assert res <= 1e-8

    def test_cartesian_residual_exact_catalog_solution(self):
        coef = power_sigma(kappa=2.0, m=1.0)
        model = beltrami_exact(m=1.0, kappa=2.0).model
        assert cartesian_residual(model, coef, PolarPoint(0.4, 2.0)) <= 1e-12
