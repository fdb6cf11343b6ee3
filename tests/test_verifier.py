"""Inequality checks, limit proxies, the explicit growth constant, and the
asymptotic-ratio theorems with their sharpness cases."""

import cmath
import functools
import json
import math
import random
import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import catalog_suite, perturbed_conformal, recording, suite_ids
from dilatox.catalog import identity, linear, log_singular, radial_stretch
from dilatox.errors import ConfigError
from dilatox.functionals import (
    area,
    area_rate,
    boundary_length,
    circular_dilatation_mean,
    circular_mean,
    dilatation_grid,
    disc_power_mean,
    length_area_sides,
)
from dilatox.mapping import BLOCK_POINTS, MappingModel, circle_size_of, fd_model
from dilatox.quadrature import QuadratureConfig, integrate_radial, romberg_nodes
from dilatox import beltrami, quadrature, verifier
from dilatox.verifier import (
    LimitProxy,
    RadiusLadder,
    check_lemma1,
    check_lemma2,
    check_lemma3,
    check_lemma4,
    check_length_area,
    growth_bound,
    margins_to_csv,
    reports_to_json,
    run_checks,
    theorem1_bound,
    theorem3_bound,
    theorem5_bound,
    theorem6_bracket,
    theorem7_area_derivative,
    tolerance,
)


class TestInfrastructure:
    def test_tolerance_scales(self):
        assert tolerance(0.0, 0.0) == pytest.approx(1e-9)
        assert tolerance(2.0, 1.0) == pytest.approx(1e-9 + 2e-6)
        assert tolerance(math.inf, 1.0) == pytest.approx(1e-9)
        np.testing.assert_allclose(tolerance(np.array([0.0, 2.0, math.inf]), [0.0, -1.0, 1.0]),
                                   [1e-9, 1e-9 + 2e-6, 1e-9])

    def test_growth_constant_hand_values(self):
        # c_p = growth_bound(p, 1): c_4 = 2^{3/2} / 2^{1/2} = 2 and c_3 = 2^2 / 1 = 4
        assert growth_bound(4.0, 1.0) == pytest.approx(2.0)
        assert growth_bound(3.0, 1.0) == pytest.approx(4.0)
        with pytest.raises(ConfigError):
            growth_bound(2.0, 1.0)

    def test_growth_bound_is_one_power_of_the_product(self):
        # c_p k^{1/(p-2)} = 2 (2k/(p-2))^{1/(p-2)}; near p = 2 the factor c_p
        # alone overflows a float, while the product is +inf or 0 as it should
        assert growth_bound(4.0, 0.25) == pytest.approx(growth_bound(4.0, 1.0) * 0.5)
        assert growth_bound(3.0, 0.1) == pytest.approx(growth_bound(3.0, 1.0) * 0.1)
        assert growth_bound(2.001, 1.0) == math.inf
        assert growth_bound(2.001, 1e-4) == 0.0
        with pytest.raises(ConfigError):
            growth_bound(2.0, 1.0)

    def test_ladder_geometry(self):
        lad = RadiusLadder(r_max=0.4, rho=0.5, count=4, tail=3)
        np.testing.assert_allclose(lad.radii(), [0.4, 0.2, 0.1, 0.05])
        np.testing.assert_allclose(lad.tail_radii(), [0.2, 0.1, 0.05])

    def test_ladder_validation(self):
        with pytest.raises(ConfigError):
            RadiusLadder(rho=1.5)
        with pytest.raises(ConfigError):
            RadiusLadder(count=2, tail=3)
        with pytest.raises(ConfigError, match="deepest rung"):
            RadiusLadder(r_max=0.5, rho=0.1, count=10)  # deepest rung 5e-10

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_ladder_at_its_depth_limit_runs_every_check(self, p, cfg):
        # a deepest rung just above EPS_TRUNC: every check of the regime runs
        # to its verdict, none stops part-way on an empty integration range
        lad = RadiusLadder(r_max=4e-6 * (1.0 + 1e-12), rho=0.5, count=3, tail=3)
        reports = run_checks(linear(0.5).model, p, lad, cfg)
        assert [rep.check_id for rep in reports] == [
            check.name for check in verifier.CHECKS if check.regime.applies(p)]
        assert all(rep.holds for rep in reports)

    def test_limit_proxy_tail_semantics(self):
        vals = [3.0, 1.0, 2.0]
        assert LimitProxy.from_tail("liminf", vals).value == 1.0
        assert LimitProxy.from_tail("limsup", vals).value == 3.0
        assert LimitProxy.from_tail("limsup", vals).tail_spread == pytest.approx(2.0)
        limit = LimitProxy.from_tail("limit", vals)
        assert (limit.value, limit.tail_spread) == (2.0, 2.0)
        assert LimitProxy.from_tail("limit", [1.0, math.inf, 2.0]).tail_spread == math.inf
        assert limit.to_dict() == {"kind": "limit", "value": 2.0, "tail_spread": 2.0}


class TestFinish:
    def test_nan_side_raises_naming_the_check(self):
        for greater in ([1.0, math.nan], [1.0, math.inf]):  # a NaN side, or inf - inf
            with pytest.raises(FloatingPointError, match=r"^lemma2 at p=3: NaN margin on 1 of 2"):
                verifier._finish("lemma2", 3.0, [0.2, 0.1], greater, [0.5, math.inf])

    def test_margin_is_the_least_row_with_minus_inf(self):
        rep = verifier._finish("lemma2", 3.0, [0.2, 0.1], [1.0, 2.0], [0.5, math.inf])
        assert not rep.holds
        assert rep.margin == -math.inf
        assert list(rep.margins) == [0.5, -math.inf]

    def test_vacuous_report_keeps_plus_inf(self):
        rep = verifier._finish("theorem6", 1.5, 0.1, [math.nan, 1.0], [1.0, math.inf],
                               notes=("vacuous",))
        assert rep.holds
        assert rep.margin == math.inf
        assert list(rep.margins) == [math.inf, math.inf]


def _applicable(p: float) -> bool:
    return True


class TestLemmaChecks:
    @pytest.mark.parametrize("entry", catalog_suite(), ids=suite_ids())
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_lemma1_holds_on_catalog(self, entry, p, ladder, cfg):
        rep = check_lemma1(entry.model, p, ladder, cfg)
        assert rep.holds, rep.margins

    @pytest.mark.parametrize("entry", catalog_suite(), ids=suite_ids())
    def test_length_area_holds_on_catalog(self, entry, ladder, cfg):
        rep = check_length_area(entry.model, 3.0, 0.1, 0.8, cfg)
        assert rep.holds, rep.margins

    @pytest.mark.parametrize("entry", catalog_suite(), ids=suite_ids())
    def test_lemma2_holds_on_catalog(self, entry, ladder, cfg):
        rep = check_lemma2(entry.model, 3.0, ladder, cfg)
        assert rep.holds, rep.margins

    @pytest.mark.parametrize("entry", catalog_suite(), ids=suite_ids())
    def test_lemma3_holds_on_catalog(self, entry, cfg):
        def q_fn(rr, th, _m=entry.model):
            return dilatation_grid(_m, np.asarray(rr, dtype=float), th, 3.0)

        rep = check_lemma3(q_fn, 3.0, 0.1, cfg)
        assert rep.holds, rep.margins

    @pytest.mark.parametrize("entry", catalog_suite(), ids=suite_ids())
    def test_lemma4_holds_on_catalog(self, entry, ladder, cfg):
        rep = check_lemma4(entry.model, 1.5, ladder, cfg)
        assert rep.holds, rep.margins

    def test_beltrami_solution_holds_every_check(self, ladder, cfg):
        # the solution is only known on its solved span, which starts at the
        # deepest rung; the area is read on each rung's circle (Green's
        # formula), never integrated through the profile's extrapolation
        # below the span. length_area integrates over [deepest rung, r_max],
        # where the radial solution is the principle's equality case
        span = (float(ladder.radii()[-1]), 0.95)
        model = beltrami.solve_radial(beltrami.power_sigma(2.0, 1.0), 0.5, 0.6, span).model()
        rep = check_lemma2(model, 3.0, ladder, cfg)
        assert rep.holds and rep.margin == pytest.approx(2.19e-5, rel=1e-2)
        reports = run_checks(model, 3.0, ladder, cfg)
        assert len(reports) == 6
        assert [rep.check_id for rep in reports if not rep.holds] == []
        (rep,) = (rep for rep in reports if rep.check_id == "length_area")
        area_gain = length_area_sides(model, 3.0, span[0], ladder.r_max, cfg)[1]
        assert abs(rep.margin) <= 1e-12 * area_gain

    def test_lemma1_rows_match_the_per_rung_reference(self, ladder, cfg):
        # a per-rung scalar reference: at each rung the area row, then the length row
        model, p, rungs = radial_stretch(1.5).model, 3.0, ladder.radii()
        want = []
        for r, sp, s, ell, d in zip(rungs.tolist(), area_rate(model, rungs, cfg).tolist(),
                                    area(model, rungs, cfg).tolist(),
                                    boundary_length(model, rungs, cfg).tolist(),
                                    circular_dilatation_mean(model, rungs, p, cfg).tolist()):
            want += [sp - 2.0 * math.pi ** ((2.0 - p) / 2.0) * r ** (1.0 - p) / d * s ** (p / 2.0),
                     sp - ell ** p / d / (2.0 * math.pi * r) ** (p - 1.0)]
        rep = check_lemma1(model, p, ladder, cfg)
        assert rep.radii == tuple(np.repeat(rungs, 2).tolist())
        np.testing.assert_allclose(rep.margins, want, rtol=1e-12, atol=1e-12)

    def test_reports_on_one_ladder_share_their_radii(self, ladder, cfg):
        # a run keeps one tuple of boxed radii per ladder, not one per report
        first = check_lemma1(linear(0.5).model, 3.0, ladder, cfg)
        second = check_lemma1(radial_stretch(1.5).model, 1.5, ladder, cfg)
        assert first.radii is second.radii
        assert first.radii == tuple(np.repeat(ladder.radii(), 2).tolist())

    def test_conformal_saturation(self, ladder, cfg):
        ident = next(e for e in catalog_suite() if e.model.label == "identity")
        for rep in (check_lemma1(ident.model, 3.0, ladder, cfg),
                    check_lemma4(ident.model, 1.5, ladder, cfg)):
            assert max(abs(m) for m in rep.margins) <= 1e-6

    @pytest.mark.parametrize("eps", [0.5, 0.6, 0.0])
    def test_lemma3_rejects_annulus_reaching_the_boundary(self, eps, cfg):
        # at eps = 1/2 the annulus [eps, 2 eps] reaches |z| = 1
        with pytest.raises(ConfigError, match=r"eps must lie in \(0, 1/2\)"):
            check_lemma3(lambda rr, th: np.ones(np.broadcast_shapes(np.shape(rr),
                                                                    np.shape(th))),
                         3.0, eps, cfg)

    @pytest.mark.parametrize("entry", [identity(), linear(0.5)], ids=["identity", "linear"])
    @pytest.mark.parametrize("p", [1.9, 1.99])
    def test_lemma4_equality_case_near_order_2(self, entry, p, ladder, cfg):
        # for f = k z the bound pi ((2-p) inner)^{2/(2-p)} is exactly S = pi k^2 r^2;
        # raised factor by factor it was 0 * inf = NaN at p = 1.99. The bound's
        # relative error is 2/(2-p) times the inner integral's, taken as 1e-11.
        rep = check_lemma4(entry.model, p, ladder, cfg)
        assert rep.holds
        s = area(entry.model, ladder.radii(), cfg)
        assert np.all(np.abs(rep.margins) <= 1e-11 * 2.0 / (2.0 - p) * s), rep.margins

    @pytest.mark.parametrize("p", [2.0001, 2.001, 2.01, 2.05])
    @pytest.mark.parametrize("entry", catalog_suite(), ids=suite_ids())
    def test_lemma2_holds_near_order_2(self, entry, p, ladder, cfg):
        # (p-2)^{-2/(p-2)} alone overflows a float for p <= 2.01; one power of
        # the product may still be +inf, a trivial bound that holds
        rep = check_lemma2(entry.model, p, ladder, cfg)
        assert rep.holds, rep.margins

    @pytest.mark.parametrize("p", [1.9, 1.99, 1.999, 1.9999, 2.0001, 2.001, 2.01, 2.1])
    @pytest.mark.parametrize("entry", catalog_suite(), ids=suite_ids())
    def test_every_check_runs_and_holds_near_order_2(self, entry, p, ladder, cfg):
        # every bound carries an exponent in 1/(p-2) or 1/(2-p); raised as
        # Python floats, theorems 1, 3 and 6 overflowed here, and theorem 1's
        # factors gave inf * 0 = NaN on radial_stretch at p = 2.0001
        reports = run_checks(entry.model, p, ladder, cfg)
        assert [rep.check_id for rep in reports if not rep.holds] == []

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
    def test_lemma3_same_with_or_without_the_invariance_flag(self, p, ladder, cfg):
        # the flagged map's q_fn comes back angle-broadcast and is read on
        # one node of each circle (mapping.circle_size_of), the unflagged
        # one on every angle
        model = linear(0.5).model
        flagged, unflagged = (run_checks(m, p, ladder, cfg, ["lemma3"])[0]
                              for m in (model, replace(model, theta_invariant=False)))
        assert flagged.holds and unflagged.holds
        assert flagged.margin == pytest.approx(unflagged.margin, rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("q_fn, flags", [
        (lambda rr, th: dilatation_grid(perturbed_conformal(), rr, th, 3.0), ()),
        (lambda rr, th: dilatation_grid(log_singular(3.0).model, rr, th, 3.0), ()),
        # Q^{1/2} = (2 + sin(3 ln t)) t^{-1.5}: no tail fit closes it
        (lambda rr, th: ((2.0 + np.sin(3.0 * np.log(rr))) * rr ** -1.5) ** 2,
         ("truncation-sensitive",)),
    ], ids=["perturbed_conformal", "log_singular", "oscillating"])
    def test_lemma3_reads_the_disc_power_mean(self, q_fn, flags, cfg):
        # the right side is 2^{p-1} eps^{p-2} times the disc power mean of Q
        # over B_{2 eps}, and the notes are that mean's flags
        p, eps = 3.0, 0.1
        rep = check_lemma3(q_fn, p, eps, cfg)
        mean = disc_power_mean(q_fn, 2.0 * eps, p, circle_size_of(q_fn, eps, cfg.n_theta), cfg)
        rhs = 2.0 ** (p - 1.0) * eps ** (p - 2.0) * mean.value
        lhs = 1.0 / integrate_radial(lambda t: t ** (1.0 - p) / circular_mean(q_fn, t, p, cfg),
                                     eps, 2.0 * eps, cfg)
        assert rep.notes == mean.flags == flags
        assert abs(rep.margin - (rhs - lhs)) <= 1e-13 * rhs

    def test_lemma2_rejects_low_order(self, ladder, cfg):
        with pytest.raises(ConfigError):
            check_lemma2(linear(0.5).model, 1.5, ladder, cfg)

    def test_lemma4_rejects_high_order(self, ladder, cfg):
        with pytest.raises(ConfigError):
            check_lemma4(linear(0.5).model, 3.0, ladder, cfg)


class TestLengthAreaSides:
    """Both sides of the length-area principle from one sample of the
    partials at each Romberg node of [r1, r2], with no integral from the
    origin."""

    @pytest.mark.parametrize("entry", catalog_suite(), ids=suite_ids())
    @pytest.mark.parametrize("interval", ["0.1-0.8", "registry"])
    def test_area_gain_is_the_profile_area_difference(self, entry, interval, ladder, cfg):
        r1, r2 = ((0.1, 0.8) if interval == "0.1-0.8"
                  else (float(ladder.radii()[-1]), ladder.r_max))
        gain = length_area_sides(entry.model, 3.0, r1, r2, cfg)[1]
        # log_singular's R' is the closed-form derivative, its R a Hermite
        # interpolant; the two disagree by about 2e-12 relative on [0.1, 0.8],
        # so the integral of S' misses pi R^2 by as much, while area(r) reads
        # pi R^2 exactly
        rel = 5e-12 if entry.model.label.startswith("log_singular") else 1e-12
        exact = entry.profile.area(r2) - entry.profile.area(r1)
        assert gain == pytest.approx(exact, rel=rel, abs=0.0)

    def test_area_gain_of_a_theta_dependent_map(self, cfg):
        def area_of(r):  # S(r) of z + 0.1 z^2
            return math.pi * (r * r + 0.02 * r ** 4)

        for p in (1.5, 3.0):
            gain = length_area_sides(perturbed_conformal(), p, 0.1, 0.8, cfg)[1]
            assert gain == pytest.approx(area_of(0.8) - area_of(0.1), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("entry", [identity(), linear(0.5)], ids=lambda e: e.model.label)
    @pytest.mark.parametrize("p", [1.2, 2.0, 3.0, 4.0])
    def test_conformal_equality_case_has_a_zero_margin(self, entry, p, cfg):
        rep = check_length_area(entry.model, p, 0.1, 0.8, cfg)
        assert rep.holds
        assert abs(rep.margin) <= 1e-14 * entry.profile.area(0.8)


class TestTheorem1:
    def test_linear_sharp_within_factor(self, ladder, cfg):
        res = theorem1_bound(linear(0.25).model, 4.0, ladder, cfg)
        assert res.report.holds
        # disc mean of the constant dilatation is |k|^2 = 1/16, bound c_4/4 = 1/2
        assert res.k.value == pytest.approx(0.0625, rel=1e-9)
        assert res.bound == pytest.approx(0.5, rel=1e-9)
        assert res.attained == pytest.approx(0.25, rel=1e-9)

    def test_divergent_mean_is_vacuous(self, ladder, cfg):
        res = theorem1_bound(log_singular(3.0).model, 3.0, ladder, cfg)
        assert "divergent-mean" in res.report.notes
        assert "vacuous" in res.report.notes
        assert res.report.holds
        assert math.isinf(res.bound)

    def test_vanishing_ratio_covered_by_proxy_spread(self, ladder, cfg):
        # both sides of the limit inequality decay to 0 for the stretching map;
        # the finite-radius comparison is inconclusive and must be absorbed by
        # the proxies' tail spreads rather than reported as a violation
        res = theorem1_bound(radial_stretch(1.5).model, 3.0, ladder, cfg)
        assert res.report.holds
        assert "proxy-slack" in res.report.notes

    def test_monotone_tightening_linear(self, cfg):
        bounds = []
        for count in (10, 15, 20):
            lad = RadiusLadder(count=count)
            bounds.append(theorem1_bound(linear(0.5).model, 4.0, lad, cfg).bound)
        assert abs(bounds[0] - bounds[2]) <= 1e-9  # constant mean: flat bound


class TestTailTheorems:
    @pytest.mark.parametrize("k", [0.25, 0.5, 0.9])
    def test_theorem3_linear_sharpness(self, k, cfg):
        lad = RadiusLadder(r_max=0.01, rho=0.5, count=12, tail=5)
        res = theorem3_bound(linear(k).model, 4.0, lad, cfg)
        assert res.report.holds
        assert res.k0.value == pytest.approx(1.0 / (2.0 * k * k), rel=1e-6)
        assert res.bound == pytest.approx(k, abs=1e-4)

    @pytest.mark.parametrize("k", [0.25, 0.5, 0.9])
    def test_theorem5_linear_sharpness(self, k, ladder, cfg):
        res = theorem5_bound(linear(k).model, 1.5, ladder, cfg)
        assert res.report.holds
        assert res.k0.value == pytest.approx(2.0 * math.sqrt(k), rel=1e-6)
        assert res.bound == pytest.approx(k, abs=1e-4)

    def test_theorem3_rejects_low_order(self, ladder, cfg):
        with pytest.raises(ConfigError):
            theorem3_bound(linear(0.5).model, 1.5, ladder, cfg)

    def test_theorem5_rejects_high_order(self, ladder, cfg):
        with pytest.raises(ConfigError):
            theorem5_bound(linear(0.5).model, 3.0, ladder, cfg)


class TestTheorem6:
    def test_linear_bracket_collapses(self, cfg):
        lad = RadiusLadder(r_max=0.01, rho=0.5, count=8, tail=5)
        res = theorem6_bracket(linear(0.5).model, 1.5, lad, cfg)
        assert res.report.holds
        assert res.lower == pytest.approx(0.5, abs=1e-4)
        assert res.upper == pytest.approx(0.5, abs=1e-4)
        assert res.a_proxy.value == pytest.approx(0.5, abs=1e-9)

    def test_remark_relation_equality_case(self, cfg):
        # for the linear map the relation between the two tail constants is an
        # equality: k1 = sqrt(2), k2 = 2 at k = 0.5, p = 1.5
        lad = RadiusLadder(r_max=0.01, rho=0.5, count=8, tail=5)
        res = theorem6_bracket(linear(0.5).model, 1.5, lad, cfg)
        assert res.k1.value == pytest.approx(math.sqrt(2.0), rel=1e-8)
        assert res.k2.value == pytest.approx(2.0, rel=1e-4)
        rhs = 0.5 ** 0.5 / (0.5 ** 1.5 * res.k2.value ** 0.5)
        assert res.k1.value <= rhs + 1e-6

    def test_uncertified_limit_is_vacuous(self, ladder, cfg):
        # |f(z)|/|z| -> 0 for the stretching map, too slowly for the ladder to
        # certify a single limit; the bracket must then be vacuous, not violated
        res = theorem6_bracket(radial_stretch(1.5).model, 1.5, ladder, cfg)
        assert res.report.holds
        assert "no-single-limit" in res.report.notes
        assert "vacuous" in res.report.notes


class TestTheorem7:
    def test_linear_area_derivative(self, ladder, cfg):
        res = theorem7_area_derivative(linear(0.5).model, 1.5, 4.0, ladder, cfg)
        assert res.report.holds
        for proxy in (res.limit_lower, res.limit_upper, res.area_ratio):
            assert proxy.value == pytest.approx(0.25, abs=1e-3)

    def test_radial_stretch_zero_derivative(self, ladder, cfg):
        res = theorem7_area_derivative(radial_stretch(1.0).model, 1.5, 3.0, ladder, cfg)
        assert res.report.holds
        for proxy in (res.limit_lower, res.limit_upper, res.area_ratio):
            assert abs(proxy.value) <= 1e-3

    def test_order_constraints(self, ladder, cfg):
        with pytest.raises(ConfigError):
            theorem7_area_derivative(linear(0.5).model, 2.5, 4.0, ladder, cfg)

    def test_infinite_upper_limit_is_vacuous(self, ladder, cfg):
        # at s = 2.001, ((s-2) v)^(2/(2-s)) = (0.001 v)^(-2000) overflows to
        # +inf, which bounds nothing: vacuous, and no inf - inf margin
        res = theorem7_area_derivative(identity().model, 1.5, 2.001, ladder, cfg)
        assert res.limit_upper.value == math.inf
        assert {"infinite-upper-bound", "vacuous"} <= set(res.report.notes)
        assert res.report.holds and res.report.margin == math.inf
        assert res.area_ratio.value == pytest.approx(1.0, rel=1e-12)


class TestSerialization:
    def test_reports_json_deterministic(self, ladder, cfg):
        rep = check_lemma2(linear(0.5).model, 3.0, ladder, cfg)
        a = reports_to_json([rep])
        b = reports_to_json([check_lemma2(linear(0.5).model, 3.0, ladder, cfg)])
        assert a == b
        doc = json.loads(a)
        assert doc[0]["check_id"] == "lemma2"
        assert doc[0]["holds"] is True

    def test_reports_json_is_strict(self, ladder, cfg):
        # theorem1 on the log-singular map is vacuous: its margin is +inf
        rep = theorem1_bound(log_singular(3.0).model, 3.0, ladder, cfg).report

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        doc = json.loads(reports_to_json([rep]), parse_constant=reject)
        assert doc[0]["margin_min"] == "Infinity"
        assert float(doc[0]["margin_min"]) == math.inf

    def test_margins_csv_roundtrip(self, tmp_path, ladder, cfg):
        rep = check_lemma2(linear(0.5).model, 3.0, ladder, cfg)
        path = tmp_path / "margins.csv"
        margins_to_csv([rep], path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "check_id,p,r,margin"
        assert len(lines) == 1 + len(rep.radii)
        r_back = float(lines[1].split(",")[2])
        assert r_back == rep.radii[0]


def _raising_model():
    def fail(*args):
        raise AssertionError("the model was evaluated")

    return MappingModel(label="raising", value=fail, partial_r=fail, partial_theta=fail)


# (registry entry, order outside its regime) for every entry whose runner is a
# ladder check, which guards its own regime
OUTSIDE_REGIME = [(check, p) for check in verifier.CHECKS
                  if check.name not in ("length_area", "lemma3")
                  for p in (1.2, 2.0, 3.0) if not check.regime.applies(p)]


# closed-form maps whose finite-difference wrappers must verify as they do
CLOSED_MAPS = {"linear": lambda: linear(0.5).model, "perturbed_conformal": perturbed_conformal}


def _registry(p: float) -> list[str]:
    """The names of the registry checks that apply at p, in report order."""
    return [check.name for check in verifier.CHECKS if check.regime.applies(p)]


@functools.lru_cache(maxsize=None)
def _vacuous_notes(closed: str, p: float) -> list[tuple[str, ...]]:
    """The notes of the vacuous reports of the named closed-form map at p,
    over the whole registry on the default ladder."""
    model = CLOSED_MAPS[closed]()
    reports = run_checks(model, p, RadiusLadder(), QuadratureConfig())
    return [rep.notes for rep in reports if "vacuous" in rep.notes]


class TestRegistry:
    @pytest.mark.parametrize("check, p", OUTSIDE_REGIME,
                             ids=[f"{check.name}-p{p}" for check, p in OUTSIDE_REGIME])
    def test_direct_call_outside_its_regime_is_rejected_first(self, check, p, ladder, cfg):
        with pytest.raises(ConfigError, match=re.escape(check.regime.name)):
            check.run(_raising_model(), p, ladder, cfg)

    @pytest.mark.parametrize("entry", catalog_suite(), ids=suite_ids())
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_every_report_has_one_radius_per_margin(self, entry, p, ladder, cfg):
        for rep in run_checks(entry.model, p, ladder, cfg):
            assert len(rep.radii) == len(rep.margins), rep.check_id

    def test_named_checks_run_in_the_given_order(self, ladder, cfg):
        reports = run_checks(linear(0.5).model, 3.0, ladder, cfg, ["theorem3", "lemma1"])
        assert [rep.check_id for rep in reports] == ["theorem3", "lemma1"]

    def test_inapplicable_check_rejected_before_any_runs(self, ladder, cfg, monkeypatch):
        def fail(*args):
            raise AssertionError("a check ran")

        monkeypatch.setattr(verifier, "check_lemma1", fail)
        with pytest.raises(ConfigError):
            run_checks(linear(0.5).model, 1.5, ladder, cfg, ["lemma1", "lemma2"])

    def test_runners_look_checks_up_at_call_time(self, ladder, cfg, monkeypatch):
        # a wrapper installed on the module (a tracer, say) must see every call
        seen = []
        for name in ("check_length_area", "check_lemma3", "theorem1_bound"):
            original = getattr(verifier, name)

            def spy(*args, _name=name, _original=original):
                seen.append(_name)
                return _original(*args)

            monkeypatch.setattr(verifier, name, spy)
        run_checks(linear(0.5).model, 3.0, ladder, cfg,
                   ["length_area", "lemma3", "theorem1"])
        assert seen == ["check_length_area", "check_lemma3", "theorem1_bound"]

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_model_calls_stay_within_one_block(self, p, ladder, cfg):
        model, sizes = recording(perturbed_conformal())
        reports = run_checks(model, p, ladder, cfg)
        assert [rep.check_id for rep in reports] == _registry(p)
        assert all(rep.holds for rep in reports)
        assert max(n for calls in sizes.values() for n in calls) <= BLOCK_POINTS

    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("closed, wrap", [
        ("perturbed_conformal", "closed"),
        ("linear", "fd"),
        ("linear", "fd-flagged"),
        ("perturbed_conformal", "fd"),
    ])
    def test_every_check_runs_and_holds_on_any_map(self, closed, wrap, p, ladder, cfg):
        # a theta-dependent or finite-difference map runs the whole registry,
        # outer integrals to t = 1 included, and is vacuous where its
        # closed-form map is
        model = CLOSED_MAPS[closed]()
        if wrap != "closed":
            model = fd_model(model.value, label=f"{wrap}:{closed}",
                             theta_invariant=wrap == "fd-flagged")
        reports = run_checks(model, p, ladder, cfg)
        assert [rep.check_id for rep in reports] == _registry(p)
        assert all(rep.holds for rep in reports)
        assert [rep.notes for rep in reports if "vacuous" in rep.notes] == _vacuous_notes(closed, p)

    def test_length_area_evaluates_each_partial_once_per_node(self, ladder, cfg):
        # both sides come from one sample of the Romberg nodes of [r1, r2]:
        # no disc integral from the origin, and on this analytic map the
        # circles settle well below the 512-node cap
        model, sizes = recording(perturbed_conformal())
        run_checks(model, 1.5, ladder, cfg, ["length_area"])
        full_grid = romberg_nodes(cfg) * cfg.n_theta
        assert full_grid == 524_800
        assert sum(sizes["partial_theta"]) == sum(sizes["partial_r"]) <= full_grid // 4
        assert sizes["value"] == []

    def test_ladder_derived_interval_and_eps(self, ladder, cfg, monkeypatch):
        calls = {}
        monkeypatch.setattr(verifier, "check_length_area",
                            lambda model, p, r1, r2, cfg: calls.setdefault("la", (r1, r2)))
        monkeypatch.setattr(verifier, "check_lemma3",
                            lambda q_fn, p, eps, cfg: calls.setdefault("l3", eps))
        run_checks(linear(0.5).model, 3.0, ladder, cfg, ["length_area", "lemma3"])
        assert calls["la"] == (float(ladder.radii()[-1]), ladder.r_max)
        assert calls["l3"] == min(0.25, ladder.r_max / 2.0)


def _theta_map(c: float) -> MappingModel:
    """f(z) = z + c z^2 with closed-form partials, the map of the theta_sweep
    benchmark workload."""

    def zc(r, theta):
        return np.asarray(r) * np.exp(1j * np.asarray(theta))

    return MappingModel(
        label=f"theta(c={c!r})",
        value=lambda r, th: zc(r, th) + c * zc(r, th) ** 2,
        partial_r=lambda r, th: np.exp(1j * np.asarray(th)) * (1.0 + 2.0 * c * zc(r, th)),
        partial_theta=lambda r, th: 1j * zc(r, th) * (1.0 + 2.0 * c * zc(r, th)))


# c of the theta_sweep workload for seeds 1-10, as bench/plan.py draws it
THETA_SWEEP_C = [0.05 + 0.15 * random.Random(f"theta-c/{seed}").random()
                 for seed in range(1, 11)]


class TestNestedRadialPasses:
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_only_theta_dependent_maps_nest(self, p, ladder, cfg, monkeypatch):
        # a theta-invariant map keeps one integrand call per ladder pass;
        # on a theta-dependent one every pass nests but the disc passes,
        # theorem 1's disc means and lemma 3's disc average
        seen = []
        one_call = quadrature._ladder_pass

        def spy(*args, nested=False, **kwargs):
            seen.append(nested)
            return one_call(*args, nested=nested, **kwargs)

        monkeypatch.setattr(quadrature, "_ladder_pass", spy)
        run_checks(linear(0.5).model, p, ladder, cfg)
        assert seen and not any(seen)
        seen.clear()
        run_checks(perturbed_conformal(), p, ladder, cfg)
        assert seen.count(False) == (2 if p > 2.0 else 0) and len(seen) > 2

    @pytest.mark.parametrize("c", THETA_SWEEP_C, ids=[f"seed{s}" for s in range(1, 11)])
    def test_margins_move_by_round_off_only(self, c, ladder, cfg, monkeypatch):
        # every row margin of every registry check at p = 1.5 and 3, nested
        # against one integrand call per ladder pass
        model = _theta_map(c)
        nested = [rep for p in (1.5, 3.0) for rep in run_checks(model, p, ladder, cfg)]
        one_call = quadrature._ladder_pass
        monkeypatch.setattr(quadrature, "_ladder_pass",
                            lambda *args, nested=False, **kwargs: one_call(*args, **kwargs))
        single = [rep for p in (1.5, 3.0) for rep in run_checks(model, p, ladder, cfg)]
        assert [rep.check_id for rep in nested] == [rep.check_id for rep in single]
        for got, want in zip(nested, single):
            got, want = np.array(got.margins), np.array(want.margins)
            finite = np.isfinite(want)
            assert np.array_equal(got[~finite], want[~finite])
            assert np.all(np.abs(got[finite] - want[finite]) <= 2e-15)


class TestModulusGrid:
    """The ratio proxies read |f| on the run's angular grid,
    QuadratureConfig.n_theta, on the tail rungs alone."""

    @pytest.mark.parametrize("n_theta", [512, 1024])
    def test_theorem5_evaluates_the_tail_circles_only(self, n_theta, ladder):
        # the inner integrals read the partials; the value is read by the
        # limsup of max|f|/r alone, on all n_theta nodes of each tail rung
        model, sizes = recording(perturbed_conformal())
        theorem5_bound(model, 1.5, ladder, QuadratureConfig(n_theta=n_theta))
        assert sum(sizes["value"]) == ladder.tail * n_theta

    def test_off_node_extremes_keep_every_verdict(self, ladder):
        # c = 0.1 e^{0.01i} puts the extremes of |f| off the nodes of both
        # grids; a 2048-node grid moves the proxies, not a verdict or note
        model = _theta_map(0.1 * cmath.exp(0.01j))
        runs = [[rep for p in (1.2, 1.5, 1.8, 2.5, 3.0, 4.0)
                 for rep in run_checks(model, p, ladder, QuadratureConfig(n_theta=n_theta),
                                       ["theorem5", "theorem6"] if p < 2.0
                                       else ["theorem1", "theorem3"])]
                for n_theta in (512, 2048)]
        for coarse, fine in zip(*runs):
            assert (coarse.check_id, coarse.holds, coarse.notes) == (
                fine.check_id, fine.holds, fine.notes)
            if math.isfinite(fine.margin):
                assert abs(coarse.margin - fine.margin) <= 1e-8
