"""The ladder quadrature and the vectorized circle reductions: exactness of the
Romberg step, agreement of whole-ladder integrals with one-rung calls, the
one-pass truncation refinement against two full ladder passes, the (t, theta)
reduction against a per-node reference, and bounded model calls."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import catalog_suite, perturbed_conformal, recording, suite_ids
from dilatox.catalog import beltrami_exact, identity, linear, radial_stretch
from dilatox.errors import ConfigError, EmptyRange
from dilatox.functionals import (
    area,
    dilatation_grid,
    dilatation_radial_fn,
    disc_mean,
    radial_integral_inner,
    radial_integral_outer,
)
from dilatox.mapping import min_max_modulus
from dilatox.quadrature import (
    EPS_TRUNC,
    R_FLOOR,
    QuadratureConfig,
    circle_nodes,
    integrate_radial,
    refine_truncation,
    romberg_nodes,
)
from dilatox.verifier import (
    RadiusLadder,
    check_lemma1,
    check_lemma3,
    check_lemma4,
    check_length_area,
    run_checks,
    theorem1_bound,
    theorem5_bound,
)

LADDER_MAPS = catalog_suite() + [perturbed_conformal()]
LADDER_IDS = suite_ids() + ["perturbed_conformal"]


def _model(entry):
    return getattr(entry, "model", entry)


class TestRombergStep:
    @pytest.mark.parametrize("a", [1e-8, 1e-6, 1e-4])
    @pytest.mark.parametrize("b", [0.5, 0.3, 0.1, 0.01])
    def test_sqrt_integral_exact(self, a, b, cfg):
        # the log-grid step is (ln b - ln a)/(n - 1), not a difference of nodes
        # near u = -14, which would cost about three digits
        exact = 2.0 / 3.0 * (b ** 1.5 - a ** 1.5)
        assert integrate_radial(np.sqrt, a, b, cfg) == pytest.approx(exact, rel=1e-14)


class TestRadialLadder:
    """integrate_radial with an array of limits: one pass for a whole ladder."""

    def test_both_directions_match_closed_form(self, cfg):
        radii = RadiusLadder().radii()
        up = integrate_radial(np.sqrt, 1e-6, radii, cfg)
        down = integrate_radial(np.sqrt, radii, 1.0, cfg)
        np.testing.assert_allclose(up, 2.0 / 3.0 * (radii ** 1.5 - 1e-9), rtol=1e-14)
        np.testing.assert_allclose(down, 2.0 / 3.0 * (1.0 - radii ** 1.5), rtol=1e-14)

    def test_order_of_radii_is_kept(self, cfg):
        radii = np.array([0.2, 0.05, 0.4, 0.1])
        got = integrate_radial(np.sqrt, 1e-6, radii, cfg)
        np.testing.assert_array_equal(
            got[np.argsort(radii)], integrate_radial(np.sqrt, 1e-6, np.sort(radii), cfg))

    def test_infinity_reaches_only_the_radii_beyond_it(self, cfg):
        def fn(t):
            return np.where((t > 0.15) & (t < 0.2), math.inf, 1.0)

        got = integrate_radial(fn, 1e-3, np.array([0.1, 0.3, 0.5]), cfg)
        assert got[0] == pytest.approx(0.1 - 1e-3, rel=1e-13)
        assert math.isinf(got[1]) and math.isinf(got[2])

    def test_nan_raises(self, cfg):
        with pytest.raises(ValueError):
            integrate_radial(lambda t: np.full_like(t, math.nan), 1e-3, [0.1, 0.2], cfg)

    def test_empty_ranges_rejected(self, cfg):
        with pytest.raises(EmptyRange):
            integrate_radial(np.sqrt, 0.2, [0.1, 0.3], cfg)
        with pytest.raises(EmptyRange):
            integrate_radial(np.sqrt, 0.1, [0.3, 0.3], cfg)
        with pytest.raises(EmptyRange):
            integrate_radial(np.sqrt, [0.1, 0.3], 0.2, cfg)
        with pytest.raises(ConfigError):
            integrate_radial(np.sqrt, [0.1], [0.3], cfg)
        for a, b in ((0.1, np.array([])), (np.array([]), 0.2)):  # a ladder of no radii
            with pytest.raises(ConfigError, match="non-empty"):
                integrate_radial(np.sqrt, a, b, cfg)

    def test_no_rung_segment_is_finer_than_the_base_grid(self, cfg):
        # r_max near 1 makes the outer base segment [r_max, 1] tiny; every
        # segment takes the step of the deepest rung's own integral over
        # [min(radii), 1]: 2^3 + 1 nodes for [r_max, 1] and 65 for each of the 19
        # rung segments
        radii = RadiusLadder(r_max=0.9999).radii()
        nodes = []

        def fn(t):
            nodes.append(np.size(t))
            return np.sqrt(t)

        got = integrate_radial(fn, radii, 1.0, cfg)
        assert nodes == [1244]
        # 1 - r^1.5 by expm1: near r = 1 the plain difference loses digits
        exact = -2.0 / 3.0 * np.expm1(1.5 * np.log(radii))
        np.testing.assert_allclose(got, exact, rtol=1e-14)


def _close(ladder_values, single_values):
    np.testing.assert_allclose(np.asarray(ladder_values, dtype=float),
                               np.asarray(single_values, dtype=float), rtol=1e-12, atol=0.0)


def _same_truncated(whole, single):
    """A ladder's TruncatedValue carries one value per rung, equal to the
    one-rung values, and the union of the one-rung flags."""
    assert np.shape(whole.value) == np.shape(whole.refinement_delta) == (len(single),)
    _close(whole.value, [tv.value for tv in single])
    assert set(whole.flags) == {flag for tv in single for flag in tv.flags}


class TestLadderMatchesOneRung:
    """A whole-ladder call equals a fresh one-rung call at every rung."""

    @pytest.mark.parametrize("entry", LADDER_MAPS, ids=LADDER_IDS)
    def test_area(self, entry, cfg, ladder):
        model = _model(entry)
        radii = ladder.radii()
        _close(area(model, radii, cfg), [area(model, r, cfg) for r in radii])

    @pytest.mark.parametrize("entry", LADDER_MAPS, ids=LADDER_IDS)
    def test_disc_mean(self, entry, cfg, ladder):
        model = _model(entry)
        radii = ladder.radii()
        _same_truncated(disc_mean(model, radii, 3.0, cfg),
                        [disc_mean(model, r, 3.0, cfg) for r in radii])

    @pytest.mark.parametrize("entry", LADDER_MAPS, ids=LADDER_IDS)
    def test_inner(self, entry, cfg, ladder):
        dp_fn = dilatation_radial_fn(_model(entry), 1.5, cfg)
        radii = ladder.radii()
        _same_truncated(radial_integral_inner(dp_fn, radii, 1.5, cfg),
                        [radial_integral_inner(dp_fn, r, 1.5, cfg) for r in radii])

    @pytest.mark.parametrize("entry", LADDER_MAPS, ids=LADDER_IDS)
    def test_outer(self, entry, cfg, ladder):
        model = _model(entry)
        if model.theta_invariant:
            d_p = dilatation_radial_fn(model, 3.0, cfg)
        else:
            # d_p of a theta-dependent map rejects |z| = 1; this polynomial map
            # is smooth there, so its circle mean is formed here directly
            th = circle_nodes(cfg.n_theta)[None, :]

            def d_p(t):
                q = dilatation_grid(model, np.asarray(t)[:, None], th, 3.0)
                return np.mean(np.sqrt(q), axis=1) ** 2
        radii = ladder.radii()
        _close(radial_integral_outer(d_p, radii, 3.0, cfg),
               [radial_integral_outer(d_p, r, 3.0, cfg) for r in radii])


@pytest.mark.parametrize("p", [1.2, 1.5, 1.8])
@pytest.mark.parametrize("entry", LADDER_MAPS, ids=LADDER_IDS)
def test_inner_on_the_tail_is_a_prefix(entry, p, cfg, ladder):
    # the pass from EPS_TRUNC to the tail rungs is a prefix of the one to
    # every rung, with the same deepest rung, step and segments, so the
    # theorems that read the tail alone get the same bits
    d_p = dilatation_radial_fn(_model(entry), p, cfg)
    whole = radial_integral_inner(d_p, ladder.radii(), p, cfg)
    tail = radial_integral_inner(d_p, ladder.tail_radii(), p, cfg)
    assert tail.value.tobytes() == whole.value[-ladder.tail:].tobytes()
    assert tail.refinement_delta.tobytes() == whole.refinement_delta[-ladder.tail:].tobytes()
    assert tail.flags == whole.flags


def _two_ladder_reference(fn, eps, radii, transform, cfg):
    """The refinement as two full ladder passes, truncated at eps and at eps/2,
    each the coarse part of its own refine_truncation: (the fine values,
    their distances to the coarse ones, whether any rung moved beyond
    quadrature tolerance)."""
    coarse = transform(refine_truncation(fn, eps, radii, cfg)[0])
    fine = transform(refine_truncation(fn, eps / 2.0, radii, cfg)[0])
    with np.errstate(invalid="ignore"):
        delta = np.where(np.isfinite(fine) & np.isfinite(coarse), np.abs(fine - coarse),
                         math.inf)
    return fine, delta, bool(np.any(~np.isfinite(fine) | (delta > 1e-9 + 1e-6 * np.abs(fine))))


def _agrees_with_reference(got, reference):
    fine, delta, flagged = reference
    np.testing.assert_allclose(got.value, fine, rtol=1e-12, atol=0.0)
    assert bool(got.flags) == flagged
    # a disc mean of log_singular at p = 4 reaches ~1e3, where round-off in
    # the reference's delta alone is ~1e-12
    above_round_off = delta > 1e-12 * np.maximum(1.0, np.abs(fine))
    np.testing.assert_allclose(got.refinement_delta[above_round_off], delta[above_round_off],
                               rtol=1e-6, atol=0.0)


class TestOnePassRefinement:
    """The [eps/2, eps] correction gives the values, deltas and flags of two
    whole ladder passes from fewer integrand nodes."""

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
    @pytest.mark.parametrize("entry", LADDER_MAPS, ids=LADDER_IDS)
    def test_disc_mean(self, entry, p, cfg, ladder):
        model, radii = _model(entry), ladder.radii()
        theta = circle_nodes(cfg.n_theta)

        def fn(t):
            q = dilatation_grid(model, t[:, None], theta[None, :], p) ** (1.0 / (p - 1.0))
            return t * 2.0 * math.pi * np.mean(q, axis=1)

        reference = _two_ladder_reference(
            fn, R_FLOOR, radii, lambda raw: (raw / (math.pi * radii * radii)) ** (p - 1.0), cfg)
        _agrees_with_reference(disc_mean(model, radii, p, cfg), reference)

    @pytest.mark.parametrize("p", [1.2, 1.5, 1.8])
    @pytest.mark.parametrize("entry", LADDER_MAPS, ids=LADDER_IDS)
    def test_inner(self, entry, p, cfg, ladder):
        d_p, radii = dilatation_radial_fn(_model(entry), p, cfg), ladder.radii()

        def fn(t):
            return t ** (1.0 - p) / d_p(t)

        reference = _two_ladder_reference(fn, EPS_TRUNC, radii, lambda raw: raw, cfg)
        _agrees_with_reference(radial_integral_inner(d_p, radii, p, cfg), reference)

    def test_flags_cover_every_rung(self, cfg, ladder):
        # the power-log tail fit of t^{-1/2} + 1 is inexact by about 5.6e-7,
        # above the tolerance of the deep rungs only; the ladder's one flag
        # covers them while its first rung alone is not flagged
        def d_p(t):
            return 1.0 / (1.0 + np.sqrt(t))

        single = [radial_integral_inner(d_p, r, 1.5, cfg) for r in ladder.radii()]
        assert not single[0].flags and single[-1].flags
        _same_truncated(radial_integral_inner(d_p, ladder.radii(), 1.5, cfg), single)

    def test_inner_node_count(self, cfg, ladder):
        # one ladder pass (1,652 radii), the [eps/2, eps] segment on the
        # ladder's step (129) and two tail fits (3 each)
        d_p = dilatation_radial_fn(linear(0.5).model, 1.5, cfg)
        nodes = []

        def counted(t):
            nodes.append(np.size(t))
            return d_p(t)

        radial_integral_inner(counted, ladder.radii(), 1.5, cfg)
        assert sum(nodes) == 1787

    def test_disc_mean_node_count(self, cfg, ladder):
        # one ladder pass from R_FLOOR (1,652 radii), the [eps/2, eps] segment
        # on that ladder's longer step (65) and two tail fits (3 each)
        model, sizes = recording(linear(0.5).model)
        disc_mean(model, ladder.radii(), 3.0, cfg)
        assert sum(sizes["partial_theta"]) == 1723


def test_outer_ladder_node_count(cfg, ladder):
    # [r_max, 1] on 257 nodes and 19 rung segments on 65 each, at the step
    # of the deepest rung's own integral over [min(radii), 1]
    d_p = dilatation_radial_fn(linear(0.5).model, 3.0, cfg)
    nodes = []

    def counted(t):
        nodes.append(np.size(t))
        return d_p(t)

    radial_integral_outer(counted, ladder.radii(), 3.0, cfg)
    assert nodes == [1492]


RADIAL_MAPS = [identity(), linear(0.5), radial_stretch(1.5), beltrami_exact(m=1.0, kappa=0.8)]


@pytest.mark.parametrize("entry", RADIAL_MAPS, ids=[e.model.label for e in RADIAL_MAPS])
class TestRadialIntegralsClosedForm:
    """For a radial map R(r) e^{i theta} the integrand 1/(t^{q-1} d_q(t)) is
    R'(t) R(t)^{1-q}, so both radial integrals have closed forms at every
    rung (RadialProfile.inner and .outer); they guard the digits of every
    segment of a ladder pass."""

    @pytest.mark.parametrize("q", [1.2, 1.5, 1.8])
    def test_inner(self, entry, q, cfg, ladder):
        radii = ladder.radii()
        exact = entry.profile.inner(radii, q)
        got = radial_integral_inner(dilatation_radial_fn(entry.model, q, cfg), radii, q, cfg)
        np.testing.assert_allclose(got.value, exact, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("q", [2.5, 3.0, 4.0])
    def test_outer(self, entry, q, cfg, ladder):
        radii = ladder.radii()
        exact = entry.profile.outer(radii, q)
        got = radial_integral_outer(dilatation_radial_fn(entry.model, q, cfg), radii, q, cfg)
        np.testing.assert_allclose(got, exact, rtol=1e-14, atol=0.0)


def _per_node_circular_mean(model, r, p, n_theta):
    """The per-node reference: one circle of n_theta samples at a time."""
    th = circle_nodes(n_theta)
    q = dilatation_grid(model, np.full_like(th, r), th, p)
    return float(np.mean(q ** (1.0 / (p - 1.0)))) ** (p - 1.0)


@pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
def test_vectorized_dp_matches_per_node_loop(p):
    # n_r = 16 makes row blocks of 17 radii, so the 40 radii span three blocks
    cfg = QuadratureConfig(n_r=16)
    model = perturbed_conformal()
    t = np.geomspace(1e-4, 0.95, 40)
    reference = np.array([_per_node_circular_mean(model, float(tv), p, cfg.n_theta)
                          for tv in t])
    np.testing.assert_allclose(dilatation_radial_fn(model, p, cfg)(t), reference,
                               rtol=1e-14, atol=0.0)


def _counted_model(base, sizes):
    """base with every model callable appending its point count to sizes."""
    def counted(fn):
        def wrapper(r, theta):
            sizes.append(math.prod(np.broadcast_shapes(np.shape(r), np.shape(theta))))
            return fn(r, theta)
        return wrapper

    return dataclasses.replace(base, value=counted(base.value),
                               partial_r=counted(base.partial_r),
                               partial_theta=counted(base.partial_theta))


def test_model_calls_stay_within_one_base_grid(cfg, ladder):
    sizes = []
    model = _counted_model(perturbed_conformal(), sizes)
    check_lemma1(model, 1.5, ladder, cfg)
    check_length_area(model, 1.5, 0.1, 0.8, cfg)
    check_lemma4(model, 1.5, ladder, cfg)
    theorem5_bound(model, 1.5, ladder, cfg)
    theorem1_bound(model, 3.0, ladder, cfg)
    check_lemma3(lambda rr, th: dilatation_grid(model, rr, th, 3.0), 3.0, 0.1, cfg)
    assert max(sizes) <= romberg_nodes(cfg) * cfg.n_theta


def test_invariant_model_calls_cost_one_angle(cfg, ladder):
    # lemma 3 samples a bare q_p = D_p, and min_max_modulus reads
    # cfg.n_theta angles; a theta-invariant model is still evaluated at one
    # angle per radius: lemma 3's largest call is its disc pass, one point
    # for each of the 1,025 base nodes, the 65 nodes of the [R_FLOOR/2,
    # R_FLOOR] segment and the 6 tail samples
    sizes = []
    model = _counted_model(linear(0.5).model, sizes)
    run_checks(model, 3.0, ladder, cfg, names=["lemma3"])
    assert sizes and max(sizes) <= romberg_nodes(cfg) + 65 + 6
    sizes.clear()
    rungs = ladder.radii()
    min_max_modulus(model, rungs, cfg)
    assert sizes == [len(rungs)]
