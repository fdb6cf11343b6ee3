"""Mapping core: polar points, Jacobians, finite differences, modulus extremes,
and ingestion of custom maps."""

import json
import math

import numpy as np
import pytest

from conftest import catalog_suite, perturbed_conformal, suite_ids
from dilatox.errors import (
    ConfigError,
    DegenerateJacobian,
    NonFiniteDerivative,
    StepTooLarge,
)
from dilatox.mapping import (
    MappingModel,
    PolarPoint,
    RadialProfile,
    default_steps,
    fd_model,
    finite_difference_partials,
    jacobian,
    jacobian_grid,
    map_from_json,
    min_max_modulus,
    model_from_profile,
    validate_model,
)


class TestPolarPoint:
    def test_angle_normalized(self):
        assert PolarPoint(0.5, 2.0 * math.pi + 1.0).theta == pytest.approx(1.0)
        assert PolarPoint(0.5, -1.0).theta == pytest.approx(2.0 * math.pi - 1.0)

    @pytest.mark.parametrize("r", [0.0, 1.0, -0.3, 1.5])
    def test_radius_range_enforced(self, r):
        with pytest.raises(ConfigError):
            PolarPoint(r, 0.0)

    def test_complex_embedding(self):
        z = PolarPoint(0.5, math.pi / 2.0).z
        assert z == pytest.approx(0.5j)


class TestJacobian:
    def test_linear_map_value(self):
        # |k|^2 for f = k z; the k = 0.5 hand value is 0.25
        entry = next(e for e in catalog_suite() if e.model.label.startswith("linear"))
        assert jacobian(entry.model, PolarPoint(0.3, 1.0)) == pytest.approx(0.25)

    @pytest.mark.parametrize("entry", catalog_suite(), ids=suite_ids())
    def test_positive_on_catalog(self, entry):
        r = np.geomspace(1e-3, 0.95, 24)[:, None]
        th = np.linspace(0.0, 2.0 * math.pi, 17)[None, :]
        assert np.all(jacobian_grid(entry.model, r, th) > 0.0)

    def test_orientation_reversal_rejected(self):
        def conj_value(r, theta):
            return np.asarray(r) * np.exp(-1j * np.asarray(theta))

        model = MappingModel(label="conjugate", value=conj_value,
                             partial_r=lambda r, t: np.exp(-1j * np.asarray(t))
                             * np.ones_like(np.asarray(r, dtype=float)),
                             partial_theta=lambda r, t: -1j * conj_value(r, t))
        with pytest.raises(DegenerateJacobian):
            jacobian(model, PolarPoint(0.5, 0.3))

    def test_nonfinite_partials_rejected(self):
        model = MappingModel(label="bad", value=lambda r, t: np.asarray(r) + 0j,
                             partial_r=lambda r, t: np.full_like(
                                 np.asarray(r, dtype=float), np.nan) + 0j,
                             partial_theta=lambda r, t: np.asarray(r) * 1j)
        with pytest.raises(NonFiniteDerivative):
            jacobian(model, PolarPoint(0.5, 0.0))

    def test_rotation_invariance(self):
        # g(z) = e^{i beta} f(e^{i gamma} z) has the same Jacobian at rotated points
        f = perturbed_conformal()
        beta, gamma = 0.7, 1.9

        def g_value(r, theta):
            return np.exp(1j * beta) * f.value(r, np.asarray(theta) + gamma)

        g = MappingModel(label="rotated", value=g_value,
                         partial_r=lambda r, t: np.exp(1j * beta)
                         * f.partial_r(r, np.asarray(t) + gamma),
                         partial_theta=lambda r, t: np.exp(1j * beta)
                         * f.partial_theta(r, np.asarray(t) + gamma))
        rng = np.random.default_rng(7)
        for _ in range(25):
            r = float(rng.uniform(0.05, 0.95))
            th = float(rng.uniform(0.0, 2.0 * math.pi))
            jg = jacobian(g, PolarPoint(r, th))
            jf = jacobian(f, PolarPoint(r, (th + gamma) % (2.0 * math.pi)))
            assert jg == pytest.approx(jf, abs=1e-10)


class TestFiniteDifferences:
    def test_default_steps(self):
        assert default_steps(0.5) == (0.5e-5, 1e-5)
        assert default_steps(1e-5) == (1e-8, 1e-5)  # floored at 1e-3 * 1e-5

    @pytest.mark.parametrize("entry", catalog_suite(), ids=suite_ids())
    def test_matches_closed_form_on_catalog(self, entry):
        rng = np.random.default_rng(11)
        for _ in range(100):
            z = PolarPoint(float(rng.uniform(0.05, 0.95)),
                           float(rng.uniform(0.0, 2.0 * math.pi)))
            fr_fd, ft_fd = finite_difference_partials(entry.model.value, z)
            fr = complex(np.asarray(entry.model.partial_r(
                np.array([z.r]), np.array([z.theta])))[0])
            ft = complex(np.asarray(entry.model.partial_theta(
                np.array([z.r]), np.array([z.theta])))[0])
            assert abs(fr_fd - fr) <= 1e-6 * max(abs(fr), 1.0)
            assert abs(ft_fd - ft) <= 1e-6 * max(abs(ft), 1.0)

    def test_stencil_leaving_disc_rejected(self):
        with pytest.raises(StepTooLarge):
            finite_difference_partials(lambda r, t: r * np.exp(1j * t),
                                       PolarPoint(0.5, 0.0), h_r=0.6)

    def test_fd_model_wraps_value_only_map(self):
        f = perturbed_conformal()
        g = fd_model(f.value, label="fd")
        assert g.derivative_kind == "finite-difference"
        z = PolarPoint(0.4, 1.2)
        assert jacobian(g, z) == pytest.approx(jacobian(f, z), rel=1e-6)


class TestModulusExtremes:
    def test_exact_for_rotationally_symmetric(self):
        entry = next(e for e in catalog_suite() if e.model.label == "identity")
        lo, hi = min_max_modulus(entry.model, 0.4)
        assert lo == pytest.approx(0.4)
        assert hi == pytest.approx(0.4)

    def test_monotone_under_refinement(self):
        f = perturbed_conformal()
        prev_lo, prev_hi = min_max_modulus(f, 0.5, n_theta=64)
        for n in (128, 256, 512, 1024):
            lo, hi = min_max_modulus(f, 0.5, n_theta=n)
            assert lo <= prev_lo + 1e-15
            assert hi >= prev_hi - 1e-15
            prev_lo, prev_hi = lo, hi

    @pytest.mark.parametrize("model", [e.model for e in catalog_suite()]
                             + [perturbed_conformal()], ids=suite_ids() + ["perturbed"])
    def test_rung_array_matches_each_radius(self, model):
        rungs = np.array([0.5, 0.3, 0.07, 0.004])
        lo, hi = min_max_modulus(model, rungs)
        assert lo.shape == hi.shape == rungs.shape
        for r, l, h in zip(rungs, lo, hi):
            assert min_max_modulus(model, float(r)) == (l, h)

    def test_radius_outside_disc_rejected(self):
        with pytest.raises(ConfigError):
            min_max_modulus(perturbed_conformal(), np.array([0.5, 1.0]))


class TestValidationAndIngestion:
    def test_catalog_models_validate(self):
        for entry in catalog_suite():
            validate_model(entry.model)

    def test_discontinuous_map_rejected(self):
        def value(r, theta):
            theta = np.asarray(theta)
            return np.asarray(r) * np.exp(1j * theta) * np.where(theta < math.pi, 1.0, 5.0)

        model = fd_model(value, label="jump")
        with pytest.raises((ConfigError, DegenerateJacobian)):
            validate_model(model)

    def test_radial_profile_roundtrip(self):
        r = np.linspace(0.01, 0.99, 40)
        doc = {"type": "radial_profile",
               "samples": [[float(t), float(0.8 * t)] for t in r]}
        model = map_from_json(doc)
        assert model.theta_invariant
        assert jacobian(model, PolarPoint(0.5, 0.0)) == pytest.approx(0.64, rel=1e-9)

    def test_non_monotone_profile_rejected(self):
        doc = {"type": "radial_profile", "samples": [[0.1, 0.2], [0.2, 0.15], [0.3, 0.3]]}
        with pytest.raises(ConfigError):
            map_from_json(doc)

    def test_catalog_document(self):
        model = map_from_json({"type": "catalog", "name": "linear", "params": {"k": 0.5}})
        assert jacobian(model, PolarPoint(0.5, 0.0)) == pytest.approx(0.25)

    def test_unknown_document_rejected(self):
        with pytest.raises(ConfigError):
            map_from_json({"type": "mystery"})

    def test_profile_model_structure(self):
        profile = RadialProfile(R=lambda r: np.asarray(r) ** 2,
                                R_prime=lambda r: 2.0 * np.asarray(r))
        model = model_from_profile(profile, label="square")
        assert model.theta_invariant
        v = complex(np.asarray(model.value(np.array([0.5]), np.array([0.0])))[0])
        assert v == pytest.approx(0.25)
