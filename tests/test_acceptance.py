"""Acceptance gate: one test per release criterion, each printing a PASS line
with its pinned tolerance when it succeeds.

Criteria (tolerances pinned in the assertions):
  1  closed-form dilatations, analytic 1e-10 / finite-difference 1e-6, < 1 s
  2  isoperimetric suite, absolute slack 1e-9, identity equality 1e-7, < 10 s
  3  lemma suite holds on applicable (map, p) pairs, saturation 1e-6, < 30 s
  4  inner-integral convergence corollary, slack 1e-6
  5  high-order tail-constant sharpness on linear maps, 1e-6 / 1e-4
  6  low-order tail-constant sharpness on linear maps, 1e-6 / 1e-4
  7  bracket collapse for the linear map, width 1e-4, plus the tail relation
  8  area-derivative agreement within 1e-3
  9  divergence detection for the log-singular map
  10 Beltrami solver oracle 1e-8, residual 1e-12, condition 1e-6, order >= 15, < 5 s
  11 byte-identical verification reports on repeated runs
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import catalog_suite, suite_ids
from dilatox.beltrami import (
    condition_sigma0,
    power_sigma,
    residual_check,
    solve_radial,
)
from dilatox.catalog import (
    beltrami_exact,
    identity,
    linear,
    log_singular,
    radial_stretch,
)
from dilatox.cli import main as cli_main
from dilatox.functionals import (
    area,
    boundary_length,
    dilatation_radial_fn,
    disc_mean,
    radial_integral_inner,
)
from dilatox.mapping import fd_model, min_max_modulus
from dilatox.functionals import dilatation_grid
from dilatox.quadrature import QuadratureConfig
from dilatox.verifier import (
    RadiusLadder,
    check_lemma1,
    check_lemma2,
    check_lemma3,
    check_lemma4,
    check_length_area,
    theorem3_bound,
    theorem5_bound,
    theorem6_bracket,
    theorem7_area_derivative,
)

CFG = QuadratureConfig()
LADDER = RadiusLadder()


def _report(name, detail):
    print(f"PASS {name}: {detail}")


def test_criterion_01_closed_form_dilatations(cfg):
    start = time.perf_counter()
    cases = [
        (linear(0.5), lambda r, p: 0.5 ** (p - 2.0)),
        (radial_stretch(1.5), lambda r, p: r ** (1.5 * (p - 2.0)) / 2.5),
        (log_singular(3.0), lambda r, p: math.log(math.e / r) ** (p - 1.0)),
    ]
    rng = np.random.default_rng(42)
    for entry, closed in cases:
        p = 3.0
        fd = fd_model(entry.model.value, label="fd", theta_invariant=True)
        for _ in range(100):
            r, theta = rng.uniform(0.05, 0.95), rng.uniform(0.0, 2.0 * math.pi)
            expected = closed(r, p)
            assert float(dilatation_grid(entry.model, r, theta, p)) == pytest.approx(
                expected, rel=1e-10)
            assert float(dilatation_grid(fd, r, theta, p)) == pytest.approx(
                expected, rel=1e-6)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("criterion-01",
            f"3 families x 100 points, analytic rel 1e-10, fd rel 1e-6, {elapsed:.2f}s")


def test_criterion_02_isoperimetric_suite(cfg):
    start = time.perf_counter()
    entries = [identity(), linear(0.5), radial_stretch(1.5), log_singular(3.0)]
    for entry in entries:
        for r in LADDER.radii():
            s = area(entry.model, float(r), cfg)
            ell = boundary_length(entry.model, float(r), cfg)
            assert ell * ell >= 4.0 * math.pi * s - 1e-9, (entry.model.label, r)
            if entry.model.label == "identity":
                assert ell * ell == pytest.approx(4.0 * math.pi * s, rel=1e-7)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report("criterion-02",
            f"4 maps x 20 radii, slack 1e-9, identity equality rel 1e-7, {elapsed:.2f}s")


def test_criterion_03_lemma_suite(cfg):
    start = time.perf_counter()
    orders = (1.2, 1.5, 1.8, 2.5, 3.0, 4.0)
    entries = [identity(), linear(0.5), radial_stretch(1.5), log_singular(3.0)]
    checked = 0
    for entry in entries:
        for p in orders:
            rep = check_lemma1(entry.model, p, LADDER, cfg)
            assert rep.holds, (entry.model.label, p, rep.margins)
            rep = check_length_area(entry.model, p, 0.1, 0.8, cfg)
            assert rep.holds, (entry.model.label, p, rep.margins)
            checked += 2
            if p > 2.0:
                rep = check_lemma2(entry.model, p, LADDER, cfg)
                assert rep.holds, (entry.model.label, p, rep.margins)

                def q_fn(rr, th, _m=entry.model, _p=p):
                    return dilatation_grid(_m, np.asarray(rr, dtype=float), th, _p)

                rep = check_lemma3(q_fn, p, 0.1, cfg)
                assert rep.holds, (entry.model.label, p, rep.margins)
                checked += 2
            else:
                rep = check_lemma4(entry.model, p, LADDER, cfg)
                assert rep.holds, (entry.model.label, p, rep.margins)
                checked += 1
    ident = identity().model
    for rep in (check_lemma1(ident, 3.0, LADDER, cfg),
                check_lemma4(ident, 1.5, LADDER, cfg)):
        assert max(abs(m) for m in rep.margins) <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report("criterion-03",
            f"{checked} (map,p) checks hold, saturation <= 1e-6, {elapsed:.2f}s")


@pytest.mark.parametrize("entry", catalog_suite(), ids=suite_ids())
@pytest.mark.parametrize("p", [1.2, 1.5, 1.8])
def test_criterion_04_convergence_corollary(entry, p, cfg):
    fn = dilatation_radial_fn(entry.model, p, cfg)
    cap = 1.0 / (2.0 - p) + 1e-6
    for r in (0.1, 0.3, 0.5, 0.7, 0.9, 0.95):
        tv = radial_integral_inner(fn, r, p, cfg)
        assert tv.value <= cap, (entry.model.label, p, r, tv.value)
    _report("criterion-04", f"{entry.model.label} p={p}: inner integral <= 1/(2-p)+1e-6")


@pytest.mark.parametrize("k", [0.25, 0.5, 0.9])
def test_criterion_05_high_order_sharpness(k):
    lad = RadiusLadder(r_max=0.01, rho=0.5, count=12, tail=5)
    res = theorem3_bound(linear(k).model, 4.0, lad, QuadratureConfig())
    expected_k0 = 1.0 / (2.0 * k * k)
    assert res.k0.value == pytest.approx(expected_k0, rel=1e-6)
    assert res.bound == pytest.approx(k, abs=1e-4)
    assert res.holds
    _report("criterion-05", f"k={k}: tail constant rel 1e-6, bound abs 1e-4")


@pytest.mark.parametrize("k", [0.25, 0.5, 0.9])
def test_criterion_06_low_order_sharpness(k, cfg):
    res = theorem5_bound(linear(k).model, 1.5, LADDER, cfg)
    assert res.k0.value == pytest.approx(2.0 * math.sqrt(k), rel=1e-6)
    assert res.bound == pytest.approx(k, abs=1e-4)
    assert res.holds
    _report("criterion-06", f"k={k}: tail constant rel 1e-6, bound abs 1e-4")


def test_criterion_07_bracket_collapse():
    lad = RadiusLadder(r_max=0.01, rho=0.5, count=8, tail=5)
    res = theorem6_bracket(linear(0.5).model, 1.5, lad, QuadratureConfig())
    assert res.holds
    assert res.lower >= 0.5 - 1e-4
    assert res.upper <= 0.5 + 1e-4
    # the relation between the two tail constants, with its slack
    rhs = 0.5 ** 0.5 / (0.5 ** 1.5 * res.k2.value ** 0.5)
    slack = rhs - res.k1.value
    assert slack >= -1e-6
    _report("criterion-07",
            f"bracket [{res.lower:.6f}, {res.upper:.6f}] within 1e-4, "
            f"tail relation slack {slack:.3e}")


def test_criterion_08_area_derivative(cfg):
    res = theorem7_area_derivative(linear(0.5).model, 1.5, 4.0, LADDER, cfg)
    assert res.holds
    for proxy in (res.limit_lower, res.limit_upper, res.area_ratio):
        assert proxy.value == pytest.approx(0.25, abs=1e-3)
    res0 = theorem7_area_derivative(radial_stretch(1.0).model, 1.5, 3.0, LADDER, cfg)
    assert res0.holds
    for proxy in (res0.limit_lower, res0.limit_upper, res0.area_ratio):
        assert abs(proxy.value) <= 1e-3
    _report("criterion-08", "area derivative 0.25 (linear) and 0 (stretch) within 1e-3")


def test_criterion_09_divergence_detection():
    cfg = QuadratureConfig()
    lad = RadiusLadder(r_max=0.5, rho=0.8, count=29, tail=5)
    model = log_singular(3.0).model
    means = [disc_mean(model, float(r), 3.0, cfg).value for r in lad.radii()]
    assert all(a < b for a, b in zip(means, means[1:])), "disc mean must increase"
    assert lad.radii()[-1] <= 1e-3
    assert means[-1] > 10.0 * means[0]
    l_f, _ = min_max_modulus(model, float(lad.radii()[-1]), cfg)
    assert l_f / lad.radii()[-1] > 10.0
    _report("criterion-09",
            f"disc mean x{means[-1] / means[0]:.1f} by r={lad.radii()[-1]:.2e}, "
            f"ratio {l_f / lad.radii()[-1]:.1f} > 10")


def test_criterion_10_beltrami(cfg):
    start = time.perf_counter()
    coef = power_sigma(kappa=2.0, m=1.0)
    sol = solve_radial(coef, 0.5, 1.0, step=1e-3)
    rel = np.max(np.abs(sol.values - 2.0 * sol.grid) / (2.0 * sol.grid))
    assert rel <= 1e-8
    exact = beltrami_exact(m=1.0, kappa=2.0).model
    assert residual_check(exact, coef) <= 1e-12
    proxy = condition_sigma0(coef, LADDER, cfg)
    assert proxy.value == pytest.approx(2.0, rel=1e-6)

    # genuine order check on a coefficient the scheme does not integrate exactly
    from test_beltrami import logistic_exact, logistic_sigma
    errs = []
    for step in (4e-3, 2e-3):
        s = solve_radial(logistic_sigma(), 0.5, 0.5, step=step)
        errs.append(float(np.max(np.abs(s.values - logistic_exact(s.grid)))))
    ratio = errs[0] / errs[1]
    assert ratio >= 15.0
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report("criterion-10",
            f"profile rel {rel:.1e} <= 1e-8, residual <= 1e-12, condition rel 1e-6, "
            f"halving ratio {ratio:.1f} >= 15, {elapsed:.2f}s")


def test_criterion_11_deterministic_pipeline(tmp_path):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    args = ["verify", "--map", "linear", "--param", "k=0.5", "--p", "3"]
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    for name in ("verify.json", "margins.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    _report("criterion-11", "verify.json and margins.csv byte-identical across runs")
