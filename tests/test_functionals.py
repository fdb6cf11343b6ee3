"""Integral functionals: pointwise dilatation, circular and disc means, area,
boundary length, and the singular radial integrals, checked against frozen
high-precision oracles and closed forms."""

import cmath
import math
import re
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from conftest import (
    affine,
    angular_stretch,
    catalog_suite,
    perturbed_conformal,
    quadratic,
    recording,
    suite_ids,
)
from dilatox.catalog import beltrami_exact, linear, log_singular, radial_stretch
from dilatox.errors import ConfigError, EmptyRange
from dilatox import catalog, cli, functionals
from dilatox.catalog import CatalogEntry
from dilatox.functionals import (
    admit_map,
    area,
    area_rate,
    boundary_length,
    circular_dilatation_mean,
    circular_mean,
    dilatation_grid,
    dilatation_radial_fn,
    disc_mean,
    length_area_sides,
    radial_integral_inner,
    radial_integral_outer,
    _row_mean,
)
from dilatox import mapping
from dilatox.mapping import (
    BLOCK_POINTS,
    FIRST_STOP,
    MappingModel,
    _circle_reduce,
    circle_size_of,
    jacobian_grid,
    min_max_modulus,
)
from dilatox.quadrature import EPS_TRUNC, R_FLOOR, circle_nodes
from dilatox.verifier import RadiusLadder

# Frozen oracles, computed once with 30-digit adaptive quadrature (mpmath) and
# pinned here; the suite must reproduce them through its own machinery.
ORACLE_POWER_MEAN_COS = 0.96696276883352857      # ((1/2pi) int sqrt(1+cos(t)/2) dt)^2
ORACLE_D3_PERTURBED = 1.0012521555505438         # d_3(0.5) of f = z + 0.1 z^2
ORACLE_DISC_MEAN_PERTURBED = 1.0006256852784531  # disc mean of D_3 over B_{0.5}, same map
ORACLE_OUTER_LOG = 0.7662451688537471            # int_{1/e}^1 dt/(t^2 ln^2(e/t))
ORACLE_AREA_PERTURBED = 0.28325227683296294      # area of image of B_{0.3}, same map
ORACLE_LENGTH_PERTURBED = 1.8866524342343389     # image length of |z| = 0.3, same map


class TestDilatationOrder:
    @pytest.mark.parametrize("p", [1.0, 0.5, -2.0, math.inf, math.nan])
    def test_range_enforced(self, p, cfg):
        # every functional of the order refuses it before the model is called
        model, sizes = recording(linear(0.5).model)
        radii = np.array([0.5, 0.25])
        calls = (lambda: dilatation_grid(model, radii, circle_nodes(16), p),
                 lambda: circular_dilatation_mean(model, radii, p, cfg),
                 lambda: disc_mean(model, radii, p, cfg),
                 lambda: length_area_sides(model, p, 0.25, 0.5, cfg),
                 lambda: radial_integral_outer(dilatation_radial_fn(model, 3.0, cfg), radii,
                                               p, cfg))
        for call in calls:
            with pytest.raises(ConfigError, match="dilatation order must be finite with p > 1"):
                call()
        assert sizes == {"value": [], "partial_r": [], "partial_theta": []}


class TestPointwiseDilatation:
    @pytest.mark.parametrize("p", [1.2, 1.5, 2.5, 3.0, 4.0])
    def test_linear_closed_form(self, p):
        entry = linear(0.5)
        rng = np.random.default_rng(3)
        for _ in range(20):
            r, theta = rng.uniform(0.05, 0.95), rng.uniform(0.0, 2.0 * math.pi)
            assert float(dilatation_grid(entry.model, r, theta, p)) == pytest.approx(
                0.5 ** (p - 2.0), rel=1e-10)

    def test_log_singular_hand_value(self):
        # D_3 at r = 1/e is ln^2(e^2) = 4
        entry = log_singular(3.0)
        got = float(dilatation_grid(entry.model, 1.0 / math.e, 0.0, 3.0))
        assert got == pytest.approx(4.0, rel=1e-9)

    def test_perturbed_map_closed_form(self):
        # D_p = |1 + 0.2 z|^{p-2} for f = z + 0.1 z^2
        f = perturbed_conformal()
        expected = abs(1.0 + 0.2 * cmath.rect(0.6, 1.1)) ** 2.0
        assert float(dilatation_grid(f, 0.6, 1.1, 4.0)) == pytest.approx(
            expected, rel=1e-12)


RUNGS = RadiusLadder().radii()
TOP, DEEP = float(RUNGS[0]), float(RUNGS[-1])


class TestAdmission:
    @pytest.mark.parametrize("model", [entry.model for entry in catalog_suite()]
                             + [perturbed_conformal()], ids=suite_ids() + ["perturbed"])
    def test_catalog_suite_passes(self, model):
        for ladder in (RadiusLadder(), RadiusLadder(count=40)):
            for command, p, s in (("verify", 1.5, None), ("verify", 2.0, None),
                                  ("verify", 3.0, None), ("asym", 1.5, 3.0), ("eval", 1.5, None)):
                admit_map(model, command, p, ladder.radii(), s)

    @pytest.mark.parametrize("model, p, name, where", [
        (radial_stretch(1e3).model, 3.0, "J_f", "r=0.5, read at order 3"),  # 1001 r^2000
        (linear(1e-300).model, 3.0, "J_f", "r=0.5, read at order 3"),  # J = |k|^2
        (beltrami_exact(m=1e-300, kappa=0.5).model, 3.0, "|f|",
         "r=0.5, read at order 3"),  # slope 0.5^(1e300) = 0
        (linear(1e-150).model, 3.0, "D_3", "r=0.5, read at order 3"),  # |f_theta|^3
        # J = 31 r^60 underflows below the rungs, where the disc means start
        (radial_stretch(30.0).model, 3.0, "J_f", "r=5e-09, read at order 3"),
        # |f_theta|^3 underflows at theorem 6's conjugate order, not at p
        (linear(1e-160).model, 1.5, "D_3", "r=0.5, read at orders 1.5, 3"),
    ], ids=["radial_stretch", "linear-J", "beltrami_exact", "linear-D", "radial_stretch-floor",
            "linear-conjugate"])
    def test_underflow_is_config_error(self, model, p, name, where):
        with pytest.raises(ConfigError, match=rf"^{re.escape(name)} of .* is not positive and "
                                              r"finite in float64 on the circle "
                                              rf"{re.escape(where)}$"):
            admit_map(model, "verify", p, RUNGS)

    @pytest.mark.parametrize("partial, bad", [("partial_r", math.nan), ("partial_r", math.inf),
                                              ("partial_theta", -math.inf)])
    def test_non_finite_partial_is_config_error(self, partial, bad):
        # one non-finite sample on the top rung's circle is enough
        def spoiled(r, theta):
            out = np.array(getattr(linear(0.5).model, partial)(r, theta), dtype=complex)
            out[..., 3] = bad
            return out

        model = replace(linear(0.5).model, label="spoiled", **{partial: spoiled})
        with pytest.raises(ConfigError, match="^a partial derivative of 'spoiled' is not "
                                              "finite on the circle r=0.5, read at order 3$"):
            admit_map(model, "verify", 3.0, RUNGS)

    def test_sense_reversing_map_is_config_error(self):
        def conj(r, theta):
            return np.conj(np.asarray(r) * np.exp(1j * np.asarray(theta)))

        model = MappingModel(label="conj", value=conj,
                             partial_r=lambda r, th: conj(r, th) / np.asarray(r),
                             partial_theta=lambda r, th: -1j * conj(r, th))
        with pytest.raises(ConfigError, match="^J_f of 'conj' is not positive and finite in "
                                              "float64 on the circle r=0.5, read at order 3$"):
            admit_map(model, "verify", 3.0, RUNGS)

    @pytest.mark.parametrize("argv, circles", [
        (["verify", "--p", "1.5"],
         {TOP: [1.5, 3.0], DEEP: [1.5, 3.0], EPS_TRUNC / 2: [1.5], 1.0: [3.0]}),
        (["verify", "--p", "1.5", "--check", "lemma4"],
         {TOP: [1.5, 3.0], DEEP: [1.5, 3.0], EPS_TRUNC / 2: [1.5], 1.0: [3.0]}),
        (["verify", "--p", "2"], {TOP: [2.0], DEEP: [2.0]}),
        (["verify", "--p", "3"], {TOP: [3.0], DEEP: [3.0], R_FLOOR / 2: [3.0], 1.0: [3.0]}),
        (["asym", "--p", "1.5", "--s", "3"],
         {TOP: [1.5, 3.0], DEEP: [1.5, 3.0], EPS_TRUNC / 2: [1.5], 1.0: [3.0]}),
        (["asym", "--p", "1.5", "--s", "4"],
         {TOP: [1.5, 3.0, 4.0], DEEP: [1.5, 3.0, 4.0], EPS_TRUNC / 2: [1.5], 1.0: [3.0, 4.0]}),
        (["eval", "--p", "1.5"], {TOP: [1.5], DEEP: [1.5], R_FLOOR / 2: [1.5]}),
    ], ids=["verify-1.5", "verify-1.5-lemma4", "verify-2", "verify-3", "asym-1.5-s3",
            "asym-1.5-s4", "eval-1.5"])
    def test_probes_each_circle_the_run_reads(self, argv, circles, monkeypatch):
        # cli._build_map probes 256 angles of each circle the subcommand reads
        # at p, whatever its --check subset, each at the orders of D read there
        model, sizes = recording(perturbed_conformal())
        monkeypatch.setattr(catalog, "from_name", lambda *a, **k: CatalogEntry(model, None))
        probed, dilatation = [], functionals._dilatation

        def recorded(jac, ft_abs, r, p):
            probed.append((r, p))
            return dilatation(jac, ft_abs, r, p)

        monkeypatch.setattr(functionals, "_dilatation", recorded)
        assert cli._build_map(cli.build_parser().parse_args(argv + ["--map", "any"]),
                              RUNGS) is model
        assert probed == [(r, p) for r, orders in circles.items() for p in orders]
        assert sizes["value"] == sizes["partial_r"] == sizes["partial_theta"] == (
            [256] * len(circles))


class TestCircularMeans:
    def test_frozen_power_mean(self, cfg):
        got = circular_mean(lambda r, th: 1.0 + 0.5 * np.cos(th), 0.5, 3.0, cfg)
        assert got == pytest.approx(ORACLE_POWER_MEAN_COS, rel=1e-12)

    def test_frozen_perturbed_dilatation_mean(self, cfg):
        got = circular_dilatation_mean(perturbed_conformal(), 0.5, 3.0, cfg)
        assert got == pytest.approx(ORACLE_D3_PERTURBED, rel=1e-12)

    @pytest.mark.parametrize("entry", catalog_suite(), ids=suite_ids())
    def test_invariant_fast_path_consistent(self, entry, cfg):
        # a theta-invariant model is evaluated at one angle; flagging it as
        # theta-dependent samples every angle and must give the same numbers
        fast = entry.model
        slow = replace(fast, theta_invariant=False)
        assert circular_dilatation_mean(slow, 0.3, 2.5, cfg) == pytest.approx(
            circular_dilatation_mean(fast, 0.3, 2.5, cfg), rel=1e-12)
        col = np.geomspace(1e-3, 0.9, 40)[:, None]
        th = circle_nodes(512)[None, :]
        for grid in (jacobian_grid, partial(dilatation_grid, p=3.0)):
            got = grid(fast, col, th)
            assert got.shape == (40, 512)
            np.testing.assert_allclose(got, grid(slow, col, th), rtol=1e-13, atol=0.0)
        rungs = np.geomspace(1e-3, 0.5, 20)
        for got, want in zip(min_max_modulus(fast, rungs, cfg),
                             min_max_modulus(slow, rungs, cfg)):
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    def test_bounded_by_supremum(self, cfg):
        q_fn = lambda r, th: 1.0 + 0.5 * np.cos(th)
        for p in (1.2, 1.5, 3.0, 4.0):
            assert circular_mean(q_fn, 0.5, p, cfg) <= 1.5 + 1e-12

    def test_monotone_in_order(self, cfg):
        # q_p equals the power mean of exponent 1/(p-1) of Q, so it is
        # non-increasing in p (power means increase with their exponent).
        q_fn = lambda r, th: 1.0 + 0.5 * np.cos(th)
        means = [circular_mean(q_fn, 0.5, p, cfg) for p in (1.2, 1.5, 2.0, 3.0, 5.0)]
        assert all(a >= b - 1e-12 for a, b in zip(means, means[1:]))


def _recording_sample(fn):
    """fn(rows, th) as a sample that appends the (t, theta) pairs of every call
    to the returned list."""
    seen = []

    def sample(rows, th):
        seen.append(np.stack([a.ravel() for a in np.broadcast_arrays(rows, th)], axis=1))
        return fn(rows, th)

    return sample, seen


def _kink(rows, th):
    """A sample whose circle means converge to first order only."""
    return rows * np.abs(np.sin(th))


def _slow(rows, th):
    """A sample whose circle means converge geometrically, by about 0.87 a
    node: their level differences keep falling up to 512 nodes."""
    return rows / (1.0 - 0.99 * np.cos(th))


class TestCircleBlocks:
    """Circle reductions refine each row through nested trapezoid levels in
    model calls of at most BLOCK_POINTS points; every row is refined and
    reduced on its own, so the blocking never shows in the values."""

    @staticmethod
    def _ladder_functionals(model, radii, cfg):
        return [dilatation_radial_fn(model, 3.0, cfg)(radii), area(model, radii, cfg),
                boundary_length(model, radii, cfg), disc_mean(model, radii, 1.5, cfg).value,
                *min_max_modulus(model, radii, cfg)]

    @pytest.mark.parametrize("make", [perturbed_conformal, lambda: affine(0.99)],
                             ids=["settles", "reaches-cap"])
    def test_values_do_not_depend_on_the_block(self, make, ladder, cfg, monkeypatch):
        model, radii = make(), ladder.radii()
        blocked = self._ladder_functionals(model, radii, cfg)
        # one radius per model call, then every radius of a call in one block
        for points in (1, 2 ** 40):
            monkeypatch.setattr(mapping, "BLOCK_POINTS", points)
            for got, want in zip(self._ladder_functionals(model, radii, cfg), blocked):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("make", [perturbed_conformal, lambda: affine(0.99)],
                             ids=["settles", "reaches-cap"])
    def test_model_calls_stay_within_one_block(self, make, ladder, cfg):
        model, sizes = recording(make())
        self._ladder_functionals(model, ladder.radii(), cfg)
        length_area_sides(model, 1.5, 0.1, 0.8, cfg)
        assert max(n for calls in sizes.values() for n in calls) <= BLOCK_POINTS

    def test_no_point_is_evaluated_twice(self):
        # a smooth row settles at 64 nodes, a row with a kink goes straight
        # to the cap of 512, and a slowly converging one doubles its level up
        # to the cap; either way every (t, theta) point is evaluated once
        t = np.geomspace(1e-3, 0.9, 700)
        for fn, nodes in ((lambda rows, th: rows * np.exp(np.cos(th)), FIRST_STOP),
                          (_kink, 512), (_slow, 512)):
            sample, seen = _recording_sample(fn)
            _circle_reduce(sample, t, 512, _row_mean)
            points = np.concatenate(seen)
            assert len(np.unique(points, axis=0)) == len(points) == nodes * t.size

    @pytest.mark.parametrize("fn, points", [(_kink, 8192 * 300), (_slow, 158_208)],
                             ids=["kink", "slow"])
    def test_unsettled_rows_stay_within_one_block(self, fn, points):
        # rows with a kink never settle and go from FIRST_STOP straight to
        # the cap; slowly converging rows double through 128, 256 and 512
        # nodes, more of them at a time than block_rows(2m) holds, and a few
        # reach 2048. Either way they go on in chunks sized for the level
        # they reach, so neither a reduce nor a model call ever holds more
        # than BLOCK_POINTS samples, however large the cap
        t, n = np.geomspace(1e-3, 0.9, 300), 8192
        sample, seen = _recording_sample(fn)
        reduced = []

        def reduce(vals):
            reduced.append(vals.size)
            return _row_mean(vals)

        got = _circle_reduce(sample, t, n, reduce)
        assert max(reduced) <= BLOCK_POINTS
        assert max(map(len, seen)) <= BLOCK_POINTS
        assert sum(map(len, seen)) == points
        if fn is _kink:  # every row ends on the full grid
            np.testing.assert_array_equal(got, _circle_reduce(_kink, t, n, _row_mean, nested=False))
        else:  # no point is evaluated twice
            assert len(np.unique(np.concatenate(seen), axis=0)) == points

    @pytest.mark.parametrize("n", [512, 192])
    @pytest.mark.parametrize("fn", [_kink, _slow], ids=["kink", "slow"])
    def test_unsettled_rows_end_on_the_full_grid(self, fn, n):
        # 192 = 3 * 64: past 64 nodes the only level is the cap itself
        t, theta = np.geomspace(1e-3, 0.9, 700), circle_nodes(n)
        np.testing.assert_array_equal(_circle_reduce(fn, t, n, _row_mean),
                                      _row_mean(fn(t[:, None], theta[None, :])))

    @pytest.mark.parametrize("q_fn, size", [
        (lambda rows, th: np.broadcast_to(rows * rows, (rows.shape[0], th.size)), 1),
        (lambda rows, th: rows * rows, 1),
        (lambda rows, th: dilatation_grid(linear(0.5).model, rows, th, 3.0), 1),
        (lambda rows, th: rows * np.exp(np.cos(th)), 512),
        (lambda rows, th: dilatation_grid(perturbed_conformal(), rows, th, 3.0), 512),
    ], ids=["stride-0", "one-column", "invariant-model", "full-grid", "theta-model"])
    def test_circle_size_of_a_bare_function(self, q_fn, size):
        # an angle-broadcast Q takes one node of each circle and any other
        # the cap, from a probe of at most 2 points on the first circle
        sample, seen = _recording_sample(q_fn)
        assert circle_size_of(sample, np.array([0.5, 0.25]), 512) == size
        assert sum(map(len, seen)) <= 2 and np.all(np.concatenate(seen)[:, 0] == 0.5)
        if size == 1:  # the reduction reads each circle at angle 0 alone
            t = np.geomspace(1e-3, 0.9, 50)
            at_zero = np.broadcast_to(q_fn(t[:, None], np.zeros((1, 1))), (t.size, 1))[:, 0]
            np.testing.assert_array_equal(_circle_reduce(q_fn, t, size, _row_mean), at_zero)


class TestNestedLevels:
    """The nested trapezoid levels of a circle reduction and their stopping
    rule, against a reduction on the cap grid alone."""

    @staticmethod
    def _quantities(model, radii, cfg):
        return [dilatation_radial_fn(model, 1.5, cfg)(radii),
                dilatation_radial_fn(model, 3.0, cfg)(radii), area(model, radii, cfg),
                boundary_length(model, radii, cfg), *min_max_modulus(model, radii, cfg)]

    @pytest.mark.parametrize("make, rtol", [
        (angular_stretch, 1e-15),
        (lambda: affine(0.99), 1e-14),
        (perturbed_conformal, 1e-14),
        (lambda: quadratic(0.1 * cmath.exp(0.01j)), 1e-14),
    ], ids=["angular_stretch", "affine(0.99)", "z+0.1z^2", "z+cz^2-rotated"])
    def test_parity_with_the_cap_grid(self, make, rtol, ladder, cfg, monkeypatch):
        # the stretch's exactly-zero level differences must not stop a row;
        # the affine map near b = 1 reaches the cap; the analytic maps
        # settle, and the rotated one has its extremes of |f| off every node
        model, radii = make(), ladder.radii()
        got = self._quantities(model, radii, cfg)
        monkeypatch.setattr(mapping, "FIRST_STOP", cfg.n_theta)  # one level
        for nested, cap_only in zip(got, self._quantities(model, radii, cfg)):
            np.testing.assert_allclose(nested, cap_only, rtol=rtol, atol=0.0)

    def test_area_is_read_on_the_full_grid(self, ladder, cfg):
        # S is the closed-form check of theta maps at 1 ulp: every rung takes
        # all n_theta nodes, where the other circle quantities settle at 64
        model, sizes = recording(perturbed_conformal())
        area(model, ladder.radii(), cfg)
        assert sum(sizes["value"]) == sum(sizes["partial_theta"]) == ladder.count * cfg.n_theta
        sizes["partial_theta"].clear()
        boundary_length(model, ladder.radii(), cfg)
        assert sum(sizes["partial_theta"]) == ladder.count * FIRST_STOP

    @pytest.mark.parametrize("fn", [
        # trapezoid means 2, 2, 1 at 16, 32, 64 nodes: zero, then a large diff
        lambda th: 1.0 + np.cos(32.0 * th),
        # 3, 2, 2 at 16, 32, 64 nodes and the true 1 from 128 on: the zero
        # diff at 64 follows a large one
        lambda th: 1.0 + np.cos(16.0 * th) + np.cos(64.0 * th),
    ], ids=["zero-then-large", "large-then-zero"])
    def test_one_zero_difference_does_not_stop_a_row(self, fn):
        t = np.array([0.5])
        sample, seen = _recording_sample(lambda rows, th: fn(th) + 0.0 * rows)
        assert _circle_reduce(sample, t, 512, _row_mean)[0] == pytest.approx(1.0, abs=1e-15)
        assert len(np.concatenate(seen)) > FIRST_STOP

    def test_same_infinity_on_two_levels_settles(self):
        t = np.array([0.25, 0.5])
        sample, seen = _recording_sample(
            lambda rows, th: np.where(th == 0.0, math.inf, 1.0) + 0.0 * rows)
        np.testing.assert_array_equal(_circle_reduce(sample, t, 512, _row_mean), math.inf)
        assert len(np.concatenate(seen)) == FIRST_STOP * t.size


class TestDiscMeans:
    def test_frozen_perturbed_disc_mean(self, cfg):
        tv = disc_mean(perturbed_conformal(), 0.5, 3.0, cfg)
        assert tv.flags == ()
        assert tv.value == pytest.approx(ORACLE_DISC_MEAN_PERTURBED, rel=1e-9)

    def test_linear_constant(self, cfg):
        tv = disc_mean(linear(0.5).model, 0.3, 4.0, cfg)
        assert tv.value == pytest.approx(0.25, rel=1e-10)
        assert tv.refinement_delta < 1e-10

    def test_divergent_mean_grows(self, cfg):
        model = log_singular(3.0).model
        vals = [disc_mean(model, r, 3.0, cfg).value for r in (0.5, 0.1, 0.02)]
        assert vals[0] < vals[1] < vals[2]

    def test_fubini_consistency(self, cfg):
        # nested quadrature vs a direct 2-D midpoint rule on the linear map
        model = linear(0.5).model
        nested = disc_mean(model, 0.5, 3.0, cfg).value
        n_r, n_t = 400, 256
        edges = np.linspace(0.0, 0.5, n_r + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        th = (np.arange(n_t) + 0.5) * (2.0 * math.pi / n_t)
        vals = dilatation_grid(model, mids[:, None], th[None, :], 3.0) ** 0.5
        integral = float(np.sum(vals * mids[:, None]) * np.diff(edges)[0]
                         * (2.0 * math.pi / n_t))
        direct = (integral / (math.pi * 0.25)) ** 2.0
        assert nested == pytest.approx(direct, rel=1e-5)


class TestAreaAndLength:
    def test_frozen_perturbed_area_and_length(self, cfg):
        f = perturbed_conformal()
        assert area(f, 0.3, cfg) == pytest.approx(ORACLE_AREA_PERTURBED, rel=1e-10)
        assert boundary_length(f, 0.3, cfg) == pytest.approx(
            ORACLE_LENGTH_PERTURBED, rel=1e-12)

    @pytest.mark.parametrize("entry", catalog_suite(), ids=suite_ids())
    def test_closed_forms(self, entry, cfg):
        # Green's formula on a rotation-invariant map is pi R^2 from one sample
        for r in (0.1, 0.5, 0.9):
            assert area(entry.model, r, cfg) == entry.profile.area(r)
            assert boundary_length(entry.model, r, cfg) == pytest.approx(
                entry.profile.length(r), rel=1e-10)

    def test_theta_dependent_area_on_the_ladder(self, ladder, cfg):
        # S(r) of z + 0.1 z^2 is pi (r^2 + 0.02 r^4); its finite-difference
        # wrapper carries the partials' O(h^2) error
        radii = ladder.radii()
        exact = math.pi * (radii * radii + 0.02 * radii ** 4)
        f = perturbed_conformal()
        np.testing.assert_allclose(area(f, radii, cfg), exact, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(area(mapping.fd_model(f.value, "fd"), radii, cfg), exact,
                                   rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("entry", catalog_suite(), ids=suite_ids())
    def test_area_monotone_and_bounded(self, entry, cfg):
        radii = np.linspace(0.05, 0.95, 10)
        areas = [area(entry.model, float(r), cfg) for r in radii]
        assert all(a <= b + 1e-12 for a, b in zip(areas, areas[1:]))
        assert areas[-1] <= math.pi + 1e-9

    def test_area_rate_matches_derivative(self, cfg):
        entry = radial_stretch(1.5)
        r, h = 0.4, 1e-6
        fd = (area(entry.model, r + h, cfg) - area(entry.model, r - h, cfg)) / (2.0 * h)
        assert area_rate(entry.model, r, cfg) == pytest.approx(fd, rel=1e-7)


class TestRadialIntegrals:
    def test_outer_linear_closed_form(self, cfg):
        # 4 * int_{1/2}^1 t^{-3} dt = 6 for the linear map at p = 4
        fn = dilatation_radial_fn(linear(0.5).model, 4.0, cfg)
        assert radial_integral_outer(fn, 0.5, 4.0, cfg) == pytest.approx(6.0, rel=1e-10)

    def test_outer_log_singular_frozen(self, cfg):
        fn = dilatation_radial_fn(log_singular(3.0).model, 3.0, cfg)
        got = radial_integral_outer(fn, 1.0 / math.e, 3.0, cfg)
        assert got == pytest.approx(ORACLE_OUTER_LOG, rel=1e-9)

    def test_inner_linear_closed_form(self, cfg):
        # int_0^r t^{-1/2} |k|^{1/2} dt = 2 |k|^{1/2} r^{1/2} at p = 1.5
        fn = dilatation_radial_fn(linear(0.5).model, 1.5, cfg)
        tv = radial_integral_inner(fn, 0.5, 1.5, cfg)
        assert tv.flags == ()
        assert tv.value == pytest.approx(2.0 * math.sqrt(0.5) * math.sqrt(0.5), rel=1e-8)

    def test_inner_requires_p_below_2(self, cfg):
        fn = dilatation_radial_fn(linear(0.5).model, 3.0, cfg)
        with pytest.raises(ConfigError):
            radial_integral_inner(fn, 0.5, 3.0, cfg)

    def test_empty_ranges_rejected(self, cfg):
        fn = dilatation_radial_fn(linear(0.5).model, 4.0, cfg)
        with pytest.raises(EmptyRange):
            radial_integral_outer(fn, 1.0, 4.0, cfg)

    def test_radius_at_the_truncation_radius_rejected(self, cfg):
        model = linear(0.5).model
        with pytest.raises(EmptyRange):
            radial_integral_inner(dilatation_radial_fn(model, 1.5, cfg), EPS_TRUNC, 1.5, cfg)
        with pytest.raises(EmptyRange):
            disc_mean(model, np.array([0.1, R_FLOOR / 2.0]), 3.0, cfg)

    def test_infinite_dilatation_contributes_nothing(self, cfg):
        def d_p(t):
            return np.where((t > 0.1) & (t < 0.4), math.inf, 1.0)

        got = radial_integral_outer(d_p, 0.1, 4.0, cfg)
        assert math.isfinite(got)

    def test_zero_dilatation_diverges(self, cfg):
        def d_p(t):
            return np.where((t > 0.1) & (t < 0.4), 0.0, 1.0)

        assert radial_integral_outer(d_p, 0.1, 4.0, cfg) == math.inf

    @pytest.mark.parametrize("r, error", [
        (1.5, EmptyRange), (np.array([0.5, 1.0]), EmptyRange),
        (0.0, ConfigError), (-0.5, ConfigError), (np.array([0.5, 0.0]), ConfigError),
    ], ids=["1.5", "ladder-to-1", "0", "negative", "ladder-to-0"])
    def test_outer_radii_outside_the_disc_rejected_by_the_plan(self, r, error, cfg):
        # the ladder plan of the pass to 1 refuses them before d_p is called,
        # every time: its cache keeps no exception
        def d_p(t):
            raise AssertionError("d_p called")

        for _ in range(2):
            with pytest.raises(error):
                radial_integral_outer(d_p, r, 4.0, cfg)


class TestRadiiCheckedAtEntry:
    # every function that takes radii from its caller rejects one outside
    # (0, 1), theta-invariant map or not, before it evaluates the map
    CALLS = {
        "circular_dilatation_mean": lambda m, cfg: circular_dilatation_mean(m, 1.5, 3.0, cfg),
        "area": lambda m, cfg: area(m, 1.5, cfg),
        "disc_mean": lambda m, cfg: disc_mean(m, np.array([0.5, 1.5]), 3.0, cfg),
        "length_area_sides": lambda m, cfg: length_area_sides(m, 3.0, 0.5, 1.5, cfg),
        "radial_integral_inner": lambda m, cfg: radial_integral_inner(
            dilatation_radial_fn(m, 1.5, cfg), 1.5, 1.5, cfg),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_radius_outside_the_disc_rejected(self, name, cfg):
        model, sizes = recording(linear(0.5).model)
        with pytest.raises(ConfigError, match=r"\b1\.5\b"):
            self.CALLS[name](model, cfg)
        assert sizes == {"value": [], "partial_r": [], "partial_theta": []}
