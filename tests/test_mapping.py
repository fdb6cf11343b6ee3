"""Mapping core: Jacobians, finite differences, modulus extremes,
ingestion of custom maps, and the in-tree interpolants against
scipy.interpolate."""

import json
import math
import warnings

import numpy as np
import pytest
from scipy.interpolate import CubicSpline, PchipInterpolator

from conftest import catalog_suite, perturbed_conformal, suite_ids
from dilatox.beltrami import power_sigma, solve_radial
from dilatox.catalog import _LogSingularProfile, beltrami_exact, from_name, identity, linear
from dilatox.errors import ConfigError, DegenerateJacobian, NonFiniteDerivative
from dilatox.functionals import admit_map, area
from dilatox.mapping import (
    CubicHermite,
    MappingModel,
    RadialProfile,
    fd_model,
    jacobian_grid,
    json_real,
    map_from_json,
    min_max_modulus,
    model_from_profile,
    pchip,
    sample_table,
)
from dilatox.quadrature import QuadratureConfig, circle_nodes
from dilatox.verifier import RadiusLadder


class TestJacobian:
    def test_linear_map_value(self):
        # |k|^2 for f = k z; the k = 0.5 hand value is 0.25
        entry = next(e for e in catalog_suite() if e.model.label.startswith("linear"))
        assert float(jacobian_grid(entry.model, 0.3, 1.0)) == pytest.approx(0.25)

    @pytest.mark.parametrize("entry", catalog_suite(), ids=suite_ids())
    def test_positive_on_catalog(self, entry):
        r = np.geomspace(1e-3, 0.95, 24)[:, None]
        th = np.linspace(0.0, 2.0 * math.pi, 17)[None, :]
        assert np.all(jacobian_grid(entry.model, r, th) > 0.0)

    def test_orientation_reversal_rejected(self, cfg):
        def conj_value(r, theta):
            return np.asarray(r) * np.exp(-1j * np.asarray(theta))

        model = MappingModel(label="conjugate", value=conj_value,
                             partial_r=lambda r, t: np.exp(-1j * np.asarray(t))
                             * np.ones_like(np.asarray(r, dtype=float)),
                             partial_theta=lambda r, t: -1j * conj_value(r, t))
        with pytest.raises(DegenerateJacobian):
            jacobian_grid(model, 0.5, 0.3)
        with pytest.raises(DegenerateJacobian):  # the area's samples are checked too
            area(model, 0.5, cfg)

    def test_nonfinite_partials_rejected(self, cfg):
        model = MappingModel(label="bad", value=lambda r, t: np.asarray(r) + 0j,
                             partial_r=lambda r, t: np.full_like(
                                 np.asarray(r, dtype=float), np.nan) + 0j,
                             partial_theta=lambda r, t: np.asarray(r) * 1j)
        with pytest.raises(NonFiniteDerivative):
            jacobian_grid(model, 0.5, 0.0)
        with pytest.raises(NonFiniteDerivative):
            area(model, 0.5, cfg)

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
            jg = float(jacobian_grid(g, r, th))
            jf = float(jacobian_grid(f, r, (th + gamma) % (2.0 * math.pi)))
            assert jg == pytest.approx(jf, abs=1e-10)


class TestFiniteDifferences:
    def test_default_steps(self):
        # fd_model's steps: h_r = 1e-5 r, h_theta = 1e-5
        calls = []

        def value(r, theta):
            calls.append((np.asarray(r, dtype=float).copy(), np.asarray(theta).copy()))
            return np.asarray(r) * np.exp(1j * np.asarray(theta))

        g = fd_model(value, label="recorded")
        r, th = np.array([0.5, 1e-5]), np.array([0.0, 0.0])
        g.partial_r(r, th)
        (r_plus, _), (r_minus, _) = calls
        np.testing.assert_allclose(r_plus - r, [0.5e-5, 1e-10], rtol=1e-6)
        np.testing.assert_allclose(r - r_minus, [0.5e-5, 1e-10], rtol=1e-6)
        calls.clear()
        g.partial_theta(r, th)
        (_, t_plus), (_, t_minus) = calls
        np.testing.assert_array_equal(t_plus, th + 1e-5)
        np.testing.assert_array_equal(t_minus, th - 1e-5)

    @pytest.mark.parametrize("entry", catalog_suite(), ids=suite_ids())
    def test_matches_closed_form_on_catalog(self, entry):
        rng = np.random.default_rng(11)
        r, th = np.empty(100), np.empty(100)
        for i in range(100):
            r[i], th[i] = rng.uniform(0.05, 0.95), rng.uniform(0.0, 2.0 * math.pi)
        fd = fd_model(entry.model.value, label="fd")
        for fd_partial, partial in ((fd.partial_r, entry.model.partial_r),
                                    (fd.partial_theta, entry.model.partial_theta)):
            exact = np.asarray(partial(r, th))
            err = np.abs(np.asarray(fd_partial(r, th)) - exact)
            assert np.all(err <= 1e-6 * np.maximum(np.abs(exact), 1.0))

    def test_rim_stencil_stays_in_the_closed_disc(self):
        # where r + h_r > 1 the radial stencil is one-sided, second order
        f = perturbed_conformal()
        seen = []

        def value(r, theta):
            seen.append(float(np.max(r)))
            return f.value(r, theta)

        r, th = np.array([0.5, 1.0 - 1e-6, 1.0]), np.array([0.3, 1.1, 4.0])
        got = np.asarray(fd_model(value, label="fd").partial_r(r, th))
        exact = np.asarray(f.partial_r(r, th))
        np.testing.assert_allclose(got, exact, rtol=1e-6)
        assert max(seen) <= 1.0

    def test_fd_model_wraps_value_only_map(self):
        f = perturbed_conformal()
        g = fd_model(f.value, label="fd")
        assert float(jacobian_grid(g, 0.4, 1.2)) == pytest.approx(
            float(jacobian_grid(f, 0.4, 1.2)), rel=1e-6)


class TestSlopeMaps:
    @staticmethod
    def assert_same_map(got, ref):
        rungs, th = RadiusLadder().radii()[:, None], circle_nodes(64)[None, :]
        for name in ("value", "partial_r", "partial_theta"):
            a = np.asarray(getattr(got, name)(rungs, th))
            b = np.asarray(getattr(ref, name)(rungs, th))
            assert (a.dtype, a.shape) == (b.dtype, b.shape)
            assert a.tobytes() == b.tobytes(), name

    def test_beltrami_exact_is_linear_bit_for_bit(self):
        # kappa^{1/m} = 0.8 at m = 1: the same map f = 0.8 z as linear(0.8)
        got = beltrami_exact(m=1.0, kappa=0.8).model
        self.assert_same_map(got, linear(0.8).model)
        assert got.label == "beltrami_exact(m=1,kappa=0.8)"
        assert got.theta_invariant

    @pytest.mark.parametrize("entry", [linear(0.5), linear(1.0), identity(),
                                       beltrami_exact(m=1.0, kappa=0.8),
                                       beltrami_exact(m=0.5, kappa=2.0)],
                             ids=lambda e: e.model.label)
    def test_slope_map_is_the_model_of_its_profile(self, entry):
        self.assert_same_map(entry.model, model_from_profile(entry.profile, entry.model.label))
        assert entry.model.theta_invariant

    def test_slope_is_a_real_number_in_the_unit_interval(self):
        # a rotation e^{i phi} k z changes no |f|, J_f, |f_theta| or D_p, so
        # the slope is real: a negative or complex k is a configuration error
        with pytest.raises(ConfigError, match=r"^linear map needs 0 < k <= 1, got k=-0\.5$"):
            linear(-0.5)
        with pytest.raises(ConfigError, match="^bad parameters for catalog map 'linear'"):
            from_name("linear", k=0.3 + 0.4j)

    def test_beltrami_exact_slope_may_exceed_one(self):
        entry = beltrami_exact(m=1.0, kappa=2.0)
        assert float(jacobian_grid(entry.model, 0.3, 1.0)) == pytest.approx(4.0)
        assert entry.profile.ratio(np.array([0.3]))[0] == 2.0
        with pytest.raises(ConfigError):
            linear(2.0)


class TestModulusExtremes:
    def test_exact_for_rotationally_symmetric(self, cfg):
        entry = next(e for e in catalog_suite() if e.model.label == "identity")
        lo, hi = min_max_modulus(entry.model, 0.4, cfg)
        assert lo == pytest.approx(0.4)
        assert hi == pytest.approx(0.4)

    def test_monotone_under_refinement(self):
        f = perturbed_conformal()
        prev_lo, prev_hi = min_max_modulus(f, 0.5, QuadratureConfig(n_theta=64))
        for n in (128, 256, 512, 1024):
            lo, hi = min_max_modulus(f, 0.5, QuadratureConfig(n_theta=n))
            assert lo <= prev_lo + 1e-15
            assert hi >= prev_hi - 1e-15
            prev_lo, prev_hi = lo, hi

    @pytest.mark.parametrize("model", [e.model for e in catalog_suite()]
                             + [perturbed_conformal()], ids=suite_ids() + ["perturbed"])
    def test_rung_array_matches_each_radius(self, model, cfg):
        rungs = np.array([0.5, 0.3, 0.07, 0.004])
        lo, hi = min_max_modulus(model, rungs, cfg)
        assert lo.shape == hi.shape == rungs.shape
        for r, l, h in zip(rungs, lo, hi):
            assert min_max_modulus(model, float(r), cfg) == (l, h)

    def test_radius_outside_disc_rejected(self, cfg):
        # the message names the bad radius, not the whole array
        with pytest.raises(ConfigError, match=r"got 1\.0$"):
            min_max_modulus(perturbed_conformal(), np.array([0.5, 1.0]), cfg)


def admit_everywhere(model):
    """admit_map for every circle and order a CLI run on the default ladder reads."""
    for command, p, s in (("verify", 1.5, None), ("verify", 3.0, None), ("asym", 1.5, 3.0),
                          ("eval", 1.5, None)):
        admit_map(model, command, p, RadiusLadder().radii(), s)


class TestValidationAndIngestion:
    def test_catalog_models_validate(self):
        for entry in catalog_suite():
            admit_everywhere(entry.model)

    def test_false_invariance_flag_rejected(self):
        # z + 0.1 z^2 is theta-dependent; flagged invariant, every circle
        # reduction would sample it at one angle
        f = perturbed_conformal()
        model = fd_model(f.value, label="perturbed", theta_invariant=True)
        with pytest.raises(ConfigError, match="flagged theta_invariant"):
            admit_everywhere(model)
        admit_everywhere(fd_model(f.value, label="perturbed"))

    def test_radial_profile_validates(self):
        r = np.linspace(0.001, 1.0, 40)
        doc = {"type": "radial_profile",
               "samples": [[float(t), float(t * (3.0 - t) / 2.0)] for t in r]}
        admit_everywhere(map_from_json(doc))

    def test_radial_profile_turning_down_past_its_samples_rejected(self):
        # R = t (2 - t) sampled to 0.999: the end cubic extrapolates a slope
        # of -1.0e-3 at r = 1, where the outer integrals end (verify once
        # stopped there with exit 3); eval reads no circle above the rungs
        r = np.linspace(0.001, 0.999, 40)
        doc = {"type": "radial_profile",
               "samples": [[float(t), float(t * (2.0 - t))] for t in r]}
        model = map_from_json(doc)
        admit_map(model, "eval", 3.0, RadiusLadder().radii())
        for p in (3.0, 1.5):  # the outer integral's order: p, or the conjugate of 1.5
            with pytest.raises(ConfigError, match="^J_f of 'radial_profile' is not positive and "
                                                  "finite in float64 on the circle r=1, read "
                                                  "at order 3$"):
                admit_map(model, "verify", p, RadiusLadder().radii())

    def test_discontinuous_map_rejected(self):
        def value(r, theta):
            theta = np.asarray(theta)
            return np.asarray(r) * np.exp(1j * theta) * np.where(theta < math.pi, 1.0, 5.0)

        model = fd_model(value, label="jump")
        with pytest.raises(ConfigError, match="^'jump' looks discontinuous on the circle r=0.5"):
            admit_everywhere(model)

    def test_radial_profile_roundtrip(self):
        r = np.linspace(0.01, 0.99, 40)
        doc = {"type": "radial_profile",
               "samples": [[float(t), float(0.8 * t)] for t in r]}
        model = map_from_json(doc)
        assert model.theta_invariant
        assert float(jacobian_grid(model, 0.5, 0.0)) == pytest.approx(0.64, rel=1e-9)

    def test_non_monotone_profile_rejected(self):
        doc = {"type": "radial_profile", "samples": [[0.1, 0.2], [0.2, 0.15], [0.3, 0.3]]}
        with pytest.raises(ConfigError):
            map_from_json(doc)

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


def _pchip_data(kind: str, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.uniform(0.05, 1.0, 24)) - 3.0
    if kind == "monotone":
        y = np.cumsum(rng.uniform(0.0, 2.0, x.size))
    elif kind == "flat_runs":
        y = np.round(2.0 * rng.standard_normal(x.size))
        y[4:9] = y[4]
        y[-4:] = y[-4]
    else:  # local extrema and sign changes of the secants
        y = np.sin(2.0 * x) + 0.3 * rng.standard_normal(x.size)
    return x, y


ROWS = [[0.1, 0.2], [0.5, 0.6], [0.9, 0.95]]


@pytest.mark.parametrize("call, match", [
    (lambda: json_real({"k": "abc"}, "k", "a map"), "a map needs a number for 'k', got 'abc'"),
    (lambda: json_real({"k": True}, "k", "a map"), "a map needs a number for 'k', got True"),
    (lambda: json_real({"k": None}, "k", "a map"), "a map needs a number for 'k', got None"),
    (lambda: json_real({"k": [1.0]}, "k", "a map"), r"a map needs a number for 'k', got \[1\.0\]"),
    (lambda: sample_table({"samples": [["a", 1.0]] + ROWS}, "prof", ("r", "R")),
     "prof needs a number for 'samples', got 'a'"),
    (lambda: sample_table({"samples": ROWS[:2] + [["0.95", 1.0]]}, "prof", ("r", "R")),
     "prof needs a number for 'samples', got '0.95'"),
    (lambda: sample_table({"samples": ROWS[:2] + [[0.95, True]]}, "prof", ("r", "R")),
     "prof needs a number for 'samples', got True"),
    (lambda: sample_table({"samples": ROWS[:2] + [[10 ** 400, 1.0]]}, "prof", ("r", "R")),
     "prof needs a number for 'samples', got 1000"),
    (lambda: sample_table({"samples": [[0.1, 0.2], [0.5], [0.9, 0.95]]}, "prof", ("r", "R")),
     r"prof needs >= 3 sample rows \[r, R\]"),
    (lambda: sample_table({"samples": [row + [0.3] for row in ROWS]}, "prof", ("r", "R")),
     r"prof needs >= 3 sample rows \[r, R\]"),
    (lambda: sample_table({"samples": ROWS[:2]}, "prof", ("r", "R")),
     r"prof needs >= 3 sample rows \[r, R\]"),
    (lambda: sample_table({"samples": [ROWS[0], ROWS[2], ROWS[1]]}, "prof", ("r", "R")),
     "prof radii must be strictly increasing"),
    (lambda: sample_table({"samples": [ROWS[0], ROWS[0], ROWS[2]]}, "prof", ("r", "R")),
     "prof radii must be strictly increasing"),
], ids=["string", "bool", "null", "list", "non-numeric-row", "numeric-string-cell",
        "bool-cell", "huge-int-cell", "ragged-rows", "wide-rows", "two-rows",
        "radii-decrease", "radii-repeat"])
def test_json_fields_rejected_as_config_errors(call, match):
    with pytest.raises(ConfigError, match=match):
        call()


class TestInterpolants:
    @pytest.mark.parametrize("kind", ["monotone", "flat_runs", "extrema"])
    @pytest.mark.parametrize("seed", range(5))
    def test_pchip_matches_scipy(self, kind, seed):
        x, y = _pchip_data(kind, seed)
        ours, ref = pchip(x, y), PchipInterpolator(x, y)
        span = x[-1] - x[0]
        t = np.concatenate([np.linspace(x[0] - 0.3 * span, x[-1] + 0.3 * span, 2001), x])
        for nu in (0, 1):
            expect = ref(t, nu)
            scale = max(1.0, float(np.max(np.abs(expect))))
            assert np.max(np.abs(ours(t, nu) - expect)) <= 1e-12 * scale, nu

    def test_hermite_reproduces_a_cubic(self):
        def cubic(t):
            return ((0.7 * t - 1.3) * t + 0.2) * t - 2.5

        def slope(t):
            return (2.1 * t - 2.6) * t + 0.2

        x = np.cumsum(np.random.default_rng(3).uniform(0.3, 0.7, 11)) - 2.5
        herm = CubicHermite(x, cubic(x), slope(x))
        t = np.linspace(x[0] - 0.5, x[-1] + 0.5, 701)  # beyond both ends too
        assert np.max(np.abs(herm(t) - cubic(t))) <= 1e-12
        assert np.max(np.abs(herm(t, nu=1) - slope(t))) <= 1e-12
        assert herm(0.5) == pytest.approx(cubic(0.5), abs=1e-13)

    def test_hermite_rejects_higher_derivatives(self):
        with pytest.raises(ValueError):
            CubicHermite([0.0, 1.0], [0.0, 1.0], [1.0, 1.0])(0.5, nu=2)

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
    def test_log_singular_profile_matches_spline_antiderivative(self, p):
        prof = _LogSingularProfile(p)
        v = np.linspace(0.0, -math.log(prof.r_floor), 6001)
        w = (p - 2.0) * np.exp((p - 2.0) * v) * (1.0 + v) ** (1.0 - p)
        r = np.geomspace(1e-10, 1.0, 10 ** 5)
        ref = 1.0 + CubicSpline(v, w).antiderivative()(-np.log(r))
        assert np.max(np.abs(prof.I(r) / ref - 1.0)) <= 1e-10

    @pytest.mark.parametrize("p", [33.0, 1e3])
    def test_log_singular_table_overflow_is_config_error(self, p):
        # the table's integrand e^{(p-2)v} overflows float64 for p > 32 or
        # so; it once warned and left NaN in the table, failing part-way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="profile table overflows float64"):
                _LogSingularProfile(p)

    @pytest.mark.parametrize("r", [1e-11, 1.0 + 1e-12, 2.0, np.array([0.5, 0.0])],
                             ids=["below-floor", "above-1", "2", "ladder-to-0"])
    def test_log_singular_profile_outside_its_table_is_config_error(self, r):
        with pytest.raises(ConfigError, match=r"tabulated only on \[1e-10, 1\]"):
            _LogSingularProfile(3.0).I(r)

    def test_radial_solution_exact_off_the_nodes(self):
        # kappa = 2, m = 1 has the exact solution R = 2r
        sol = solve_radial(power_sigma(2.0, 1.0), 0.5, 1.0)
        mid = 0.5 * (sol.grid[:-1] + sol.grid[1:])
        t = np.concatenate([mid, np.random.default_rng(0).uniform(0.05, 0.95, 1000)])
        assert np.max(np.abs(sol.profile.R(t) - 2.0 * t)) <= 1e-12

    def test_radial_solution_interpolates_to_rk4_accuracy(self):
        # anchored off the line R = 2r, the kappa = 2, m = 1 solution is
        # R = 4r / (2 + r); between the nodes the interpolant stays as close as
        # the RK4 nodes (2e-11), where second-order slopes would give 1e-7
        sol = solve_radial(power_sigma(2.0, 1.0), 0.5, 0.8)
        mid = 0.5 * (sol.grid[:-1] + sol.grid[1:])
        assert np.max(np.abs(sol.profile.R(mid) - 4.0 * mid / (2.0 + mid))) <= 1e-10
