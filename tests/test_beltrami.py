"""Radial nonlinear Beltrami solver: exact-solution oracles (the power family's
fixed point and its anchored closed form), order of accuracy in ln r,
coefficient-derived dilatation, and the asymptotic bound on the ladder tail."""

import math

import numpy as np
import pytest

from dilatox.beltrami import (
    SigmaCoefficient,
    condition_sigma0,
    dilatation_from_sigma,
    power_sigma,
    sigma_from_json,
    solve_radial,
    theorem_nb_bound,
)
from dilatox.errors import (
    BlowUp,
    ComplexDrift,
    ConfigError,
    NonPositiveImag,
)
from dilatox.catalog import beltrami_exact
from dilatox.functionals import dilatation_grid, disc_mean


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


def ladder_span(ladder, hi=0.95):
    """The solve span of the CLI: from the ladder's deepest rung up to hi."""
    return float(ladder.radii()[-1]), hi


def power_closed_form(r, kappa, m, r0, R0):
    """R = r (1/kappa + C r^m)^{-1/m} with C = R0^{-m} - r0^{-m}/kappa, the power
    family's solution through (r0, R0); C = 0 is the linear kappa^{1/m} r."""
    c = R0 ** -m - r0 ** -m / kappa
    r = np.asarray(r, dtype=float)
    return r * (1.0 / kappa + c * r ** m) ** (-1.0 / m)


# (m, R0) with kappa = 2 and r0 = 0.5: anchors at 0.6, 0.8 and 1 times the
# linear solution's value; above it the closed form blows up inside the span.
POWER_ANCHORS = [(m, frac * 2.0 ** (1.0 / m) * 0.5)
                 for m in (0.5, 1.0, 2.0) for frac in (0.6, 0.8, 1.0)]


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

    def test_residual_sees_the_solver_error(self):
        # the residual reads the interpolant's derivative against the PDE, so
        # it shrinks with the step like the profile error (about 4th order)
        coef = logistic_sigma()
        residuals = [solve_radial(coef, 0.5, 0.4, (0.05, 0.95), step=step).residual_max
                     for step in (0.3, 0.1, 0.03, 0.01)]
        assert residuals[0] >= 1e-3
        assert all(coarse >= 8.0 * fine for coarse, fine in zip(residuals, residuals[1:]))

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
        r = np.array([0.1, 0.5, 0.9])
        assert dilatation_from_sigma(coef, r) == pytest.approx([2.0, 2.0, 2.0])

    def test_path_independence(self, cfg):
        # the coefficient-derived dilatation equals the solved map's dilatation
        coef = power_sigma(kappa=2.0, m=1.0)
        sol = solve_radial(coef, 0.5, 1.0)
        model = sol.model()
        for r in (0.1, 0.4, 0.8):
            assert float(dilatation_grid(model, r, 1.0, 3.0)) == pytest.approx(
                float(dilatation_from_sigma(coef, r)), rel=1e-8)

    def test_condition_sigma0_power_family(self, ladder, cfg):
        proxy = condition_sigma0(power_sigma(kappa=2.0, m=1.0), ladder, cfg)
        assert proxy.value == pytest.approx(2.0, rel=1e-6)

    @pytest.mark.parametrize("kappa, m", [(2.0, 1.0), (0.8, 1.0), (0.5, 2.0), (3.0, 0.5)])
    def test_condition_sigma0_is_the_disc_mean_of_the_exact_solution(self, kappa, m, ladder,
                                                                     cfg):
        # sigma_0 is the disc mean of D_{m+2}, which beltrami_exact(m, kappa)
        # has as its angular dilatation at order m + 2
        proxy = condition_sigma0(power_sigma(kappa=kappa, m=m), ladder, cfg)
        means = disc_mean(beltrami_exact(m, kappa).model, ladder.radii(), m + 2.0, cfg).value
        assert proxy.value == pytest.approx(float(means[-ladder.tail:].min()), rel=1e-14)

    def test_asymptotic_bound_holds(self, ladder, cfg):
        coef = power_sigma(kappa=2.0, m=1.0)
        sol = solve_radial(coef, 0.5, 1.0, ladder_span(ladder))
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


class TestPowerFamilyClosedForm:
    @pytest.mark.parametrize("m, R0", POWER_ANCHORS)
    def test_nodes_match_closed_form(self, m, R0, ladder):
        sol = solve_radial(power_sigma(kappa=2.0, m=m), 0.5, R0, ladder_span(ladder))
        exact = power_closed_form(sol.grid, 2.0, m, 0.5, R0)
        assert np.max(np.abs(sol.values - exact) / exact) <= 1e-9

    @pytest.mark.parametrize("m, R0", POWER_ANCHORS)
    def test_attained_is_the_tail_liminf(self, m, R0, ladder, cfg):
        coef = power_sigma(kappa=2.0, m=m)
        sol = solve_radial(coef, 0.5, R0, ladder_span(ladder))
        tail = ladder.tail_radii()
        exact = float(np.min(power_closed_form(tail, 2.0, m, 0.5, R0) / tail))
        res = theorem_nb_bound(coef, sol, ladder, cfg)
        assert res.attained == pytest.approx(exact, rel=1e-9)
        assert res.report.holds

    def test_solution_above_the_tail_is_config_error(self, ladder, cfg):
        coef = power_sigma(kappa=2.0, m=1.0)
        sol = solve_radial(coef, 0.5, 1.0, (0.05, 0.95))
        assert sol.grid[0] > ladder.tail_radii().max()
        with pytest.raises(ConfigError, match="outside the solved span"):
            theorem_nb_bound(coef, sol, ladder, cfg)
