"""The in-tree Romberg table against scipy.integrate.romb: the same Richardson
table in the same order of operations, so every result is bit-identical, also
where a ladder pass shares one table across segments of different depths or
integrates several integrands as rows; one integrand call per ladder pass,
and at most two per nested pass, whose segments either stop within round-off
of the one-call value or keep its bits; cached ladder plans and tail-fit
design matrices, which change no result; the checks on radial limits; and
the depth of a radius ladder, whose rungs lie above the truncation radius
EPS_TRUNC."""

import math

import numpy as np
import pytest
from scipy.integrate import romb as scipy_romb

from conftest import perturbed_conformal
from dilatox import quadrature
from dilatox.errors import ConfigError, EmptyRange
from dilatox.functionals import dilatation_radial_fn
from dilatox.mapping import fd_model
from dilatox.quadrature import (
    EPS_TRUNC,
    R_FLOOR,
    ROUND_OFF,
    QuadratureConfig,
    integrate_radial,
    log_power_tail,
    refine_truncation,
    romb,
)
from dilatox.verifier import RadiusLadder


@pytest.mark.parametrize("k", range(13))
def test_romb_bit_identical_to_scipy(k):
    rng = np.random.default_rng(k)
    n = 2 ** k + 1
    smooth = np.exp(np.linspace(-14.0, -0.7, n)) * (1.0 + 0.3 * np.sin(np.arange(n)))
    noise = rng.standard_normal(n)
    block = rng.standard_normal((7, n)) * np.geomspace(1e-6, 1e3, 7)[:, None]
    row_dx = rng.uniform(1e-4, 1.0, 7)
    cases = [
        (smooth, 6.7e-4, -1),
        (noise, 0.37, 0),
        (block, 0.37, -1),
        (block, row_dx, -1),
        (block.T, 0.37, 0),
        (block.T, row_dx, 0),
        (np.ascontiguousarray(block.T), row_dx, 0),
    ]
    for y, dx, axis in cases:
        ours = romb(y, dx=dx, axis=axis)
        ref = scipy_romb(y, dx=dx, axis=axis)
        assert np.shape(ours) == np.shape(ref)
        assert np.array_equal(ours, ref), (y.shape, np.ndim(dx), axis)


@pytest.mark.parametrize("k", range(1, 13))
def test_romb_rejects_counts_off_the_power_grid(k):
    with pytest.raises(ValueError):
        romb(np.ones(2 ** k + 2))
    with pytest.raises(ValueError):
        romb(np.ones((3, 2 ** k + 2)), axis=-1)


def test_romb_rejects_single_sample():
    with pytest.raises(ValueError):
        romb(np.ones(1))


def test_ladder_lies_strictly_above_eps_trunc():
    # a deepest rung at the anchor would make the inner integral's ladder
    # pass an EmptyRange; the ladder refuses it when built, naming the rung
    with pytest.raises(ConfigError, match=r"deepest rung r_max\*rho\^\(count-1\) = 1\.000e-06"):
        RadiusLadder(r_max=4e-6, rho=0.5, count=3, tail=3)
    for r_max, rho, count in ((1e-6, 0.5, 3), (0.5, 0.4, 18)):
        with pytest.raises(ConfigError, match="must lie above EPS_TRUNC = 1e-06"):
            RadiusLadder(r_max=r_max, rho=rho, count=count, tail=3)
    deepest = RadiusLadder(r_max=4e-6 * (1.0 + 1e-12), rho=0.5, count=3, tail=3).radii()[-1]
    assert EPS_TRUNC < deepest < EPS_TRUNC * (1.0 + 1e-11)


@pytest.mark.parametrize("a, b", [
    (np.array([0.5, 0.0]), 1.0),
    (np.array([0.5, -0.1]), 1.0),
    (0.0, 1.0),
    (0.0, np.array([0.1, 0.5])),
    (-0.1, 1.0),
])
def test_radial_limits_must_be_positive_before_any_call(a, b):
    # the deepest end of an array limit is its last rung from the anchor,
    # not the first; a zero or negative one is refused before fn is called
    def fn(t):
        raise AssertionError("integrand called")

    # twice: the cache of ladder plans keeps no exception
    for _ in range(2):
        with pytest.raises(ConfigError, match="positive radii"):
            integrate_radial(fn, a, b, QuadratureConfig())


@pytest.mark.parametrize("call", [
    lambda fn, cfg: integrate_radial(fn, 0.5, 0.3, cfg),
    lambda fn, cfg: integrate_radial(fn, 0.5, np.array([0.3]), cfg),
    lambda fn, cfg: integrate_radial(fn, np.array([0.3, 0.3]), 0.5, cfg),
    lambda fn, cfg: refine_truncation(fn, EPS_TRUNC, np.array([0.5, EPS_TRUNC]), cfg),
    lambda fn, cfg: refine_truncation(fn, R_FLOOR, np.array([0.5, R_FLOOR / 2.0]), cfg),
])
def test_empty_range_raises_before_any_call_every_time(call):
    def fn(t):
        raise AssertionError("integrand called")

    # the same (anchor, radii) the other way round is a valid, cached ladder
    integrate_radial(_integrand, np.array([0.3]), 0.5, QuadratureConfig())
    for _ in range(2):
        with pytest.raises(EmptyRange):
            call(fn, QuadratureConfig())


def _integrand(t):
    # a power near the origin, with a correction that varies along the ladder
    t = np.asarray(t, dtype=float)
    return t ** -0.5 * (2.0 + np.sin(3.0 * t))


def _scipy_segments(fn, ends, nodes):
    """scipy.integrate.romb of fn(t) dt over each [ends_i, ends_{i+1}], on
    nodes_i log-spaced nodes, each segment with its own call of fn."""
    u = np.log(ends)
    out = []
    for u_lo, u_hi, n in zip(u[:-1], u[1:], nodes):
        t = np.exp(np.linspace(u_lo, u_hi, n))
        out.append(scipy_romb(fn(t) * t, dx=(u_hi - u_lo) / (n - 1)))
    return np.array(out)


def _separate_tail(fn, eps):
    return log_power_tail(eps, fn(eps * np.array([1.0, 2.0, 4.0])))


def test_mixed_depth_ladder_pass_matches_scipy_segment_by_segment():
    # the default inner ladder: a 1,025-node base segment [eps, min(radii)],
    # 33-node rung segments, and the 129-node [eps/2, eps] segment, all
    # extrapolated in one shared Richardson table
    cfg, radii = QuadratureConfig(), RadiusLadder().radii()
    rungs = np.concatenate([[EPS_TRUNC], radii[::-1]])
    body = np.cumsum(_scipy_segments(_integrand, rungs, [1025] + [33] * len(radii)))[::-1]
    below = _scipy_segments(_integrand, np.array([EPS_TRUNC / 2.0, EPS_TRUNC]), [129])[0]
    coarse, fine = refine_truncation(_integrand, EPS_TRUNC, radii, cfg)
    assert np.isfinite(coarse).all() and np.isfinite(fine).all()
    assert np.array_equal(coarse, body + _separate_tail(_integrand, EPS_TRUNC))
    assert np.array_equal(
        fine, body + (below + _separate_tail(_integrand, EPS_TRUNC / 2.0)))


def test_one_integrand_call_per_ladder_pass():
    # a pass that is not nested, as over a theta-invariant map's circles
    cfg, radii, eps = QuadratureConfig(), RadiusLadder().radii(), EPS_TRUNC
    calls = []

    def counted(t):
        calls.append(np.size(t))
        return _integrand(t)

    coarse, fine = refine_truncation(counted, eps, radii, cfg)
    assert calls == [1652 + 129 + 6]
    calls.clear()
    one_coarse, one_fine = refine_truncation(counted, eps, 0.3, cfg)
    assert calls == [1025 + 65 + 6] and one_coarse.shape == one_fine.shape == (1,)

    # the same numbers as separate calls: the ladder body through
    # integrate_radial, the [eps/2, eps] segment on the ladder's step and
    # each tail fit from its own samples
    body = integrate_radial(_integrand, eps, radii, cfg)
    below = _scipy_segments(_integrand, np.array([eps / 2.0, eps]), [129])[0]
    assert np.array_equal(coarse, body + _separate_tail(_integrand, eps))
    assert np.array_equal(fine, body + (below + _separate_tail(_integrand, eps / 2.0)))
    one_body = integrate_radial(_integrand, eps, 0.3, cfg)
    one_below = _scipy_segments(_integrand, np.array([eps / 2.0, eps]), [65])[0]
    assert one_coarse[0] == one_body + _separate_tail(_integrand, eps)
    assert one_fine[0] == one_body + (one_below + _separate_tail(_integrand, eps / 2.0))


def _rows(*fns):
    return lambda t: np.stack([fn(t) for fn in fns])


def _beyond_02_inf(t):
    return np.where(t > 0.2, math.inf, _integrand(t))


# (a, b, keyword arguments) of the ladder passes behind every public call
PASSES = {
    "inner": (EPS_TRUNC, RadiusLadder().radii(), {}),
    "outer": (RadiusLadder().radii(), 1.0, {}),
    "refined": (EPS_TRUNC, RadiusLadder().radii(),
                {"samples": np.concatenate([EPS_TRUNC * np.array([1.0, 2.0, 4.0]),
                                            EPS_TRUNC / 2.0 * np.array([1.0, 2.0, 4.0])]),
                 "refine": True}),
    "one segment": (0.1, 0.8, {}),
}


@pytest.mark.parametrize("nested", [False, True], ids=["one call", "nested"])
@pytest.mark.parametrize("kind", PASSES)
@pytest.mark.parametrize("inf_row", [False, True])
def test_rows_of_one_pass_are_one_row_passes(kind, inf_row, nested):
    # each row of a (3, n) integrand gets the bits of its own one-row pass,
    # +inf included where one row holds it, and in a nested pass each row
    # stops on its own; compared in-process, as the last bits of a pass
    # depend on the numpy build
    a, b, kwargs = PASSES[kind]
    cfg = QuadratureConfig()
    fns = [_integrand, _beyond_02_inf if inf_row else (lambda t: np.exp(-t) * t ** 0.3),
           lambda t: 1.0 / (t * (1.0 - np.log(t)) ** 2)]
    together = quadrature._ladder_pass(_rows(*fns), a, b, cfg, nested=nested, **kwargs)
    for i, fn in enumerate(fns):
        alone = quadrature._ladder_pass(fn, a, b, cfg, nested=nested, **kwargs)
        for part, joint in zip(alone, together):
            assert part.ndim == 1 and joint.shape == (3,) + part.shape
            assert np.array_equal(part, joint[i]), (kind, i)
    if inf_row:
        body = together[0]
        assert np.isinf(body[1]).any() and np.isfinite(body[[0, 2]]).all()


@pytest.mark.parametrize("row", range(3))
def test_nan_in_any_row_raises(row):
    fns = [_integrand] * 3
    fns[row] = lambda t: np.where(t > 0.2, math.nan, _integrand(t))
    with pytest.raises(ValueError, match="NaN"):
        quadrature._ladder_pass(_rows(*fns), 0.1, 0.8, QuadratureConfig())


def test_rows_through_integrate_radial():
    cfg, radii = QuadratureConfig(), RadiusLadder().radii()
    both = _rows(_integrand, np.cos)
    one = integrate_radial(both, 0.1, 0.8, cfg)
    assert one.shape == (2,)
    assert one.tolist() == [integrate_radial(_integrand, 0.1, 0.8, cfg),
                            integrate_radial(np.cos, 0.1, 0.8, cfg)]
    assert integrate_radial(both, radii, 1.0, cfg).shape == (2, radii.size)


# a pass of each ladder kind the functionals run: the inner integral and the
# disc mean (refined at EPS_TRUNC and R_FLOOR) on the rungs, lemma 3's disc
# average on one radius (refined at R_FLOOR) and the outer integral (up to 1)
LADDER_KINDS = {
    "inner": lambda r, cfg: refine_truncation(_integrand, EPS_TRUNC, r, cfg),
    "disc": lambda r, cfg: refine_truncation(_integrand, R_FLOOR, r, cfg),
    "one-radius disc": lambda r, cfg: refine_truncation(_integrand, R_FLOOR, r[0], cfg),
    "outer": lambda r, cfg: integrate_radial(_integrand, r, 1.0, cfg),
}


@pytest.mark.parametrize("kind", LADDER_KINDS)
def test_warm_plan_gives_the_cold_result(kind):
    cfg, radii = QuadratureConfig(), RadiusLadder().radii()
    quadrature._ladder_plan.cache_clear()
    cold = LADDER_KINDS[kind](radii, cfg)
    misses = quadrature._ladder_plan.cache_info().misses
    warm = LADDER_KINDS[kind](radii, cfg)
    info = quadrature._ladder_plan.cache_info()
    assert info.misses == misses and info.hits >= 1
    for c, w in zip(np.atleast_1d(cold), np.atleast_1d(warm)):
        assert np.array_equal(c, w)


def test_ladders_that_differ_get_their_own_plans():
    radii = RadiusLadder().radii()
    quadrature._ladder_plan.cache_clear()
    base = QuadratureConfig()
    layouts = {
        "inner": (lambda: refine_truncation(_integrand, EPS_TRUNC, radii, base)),
        "anchor": (lambda: refine_truncation(_integrand, EPS_TRUNC / 2.0, radii, base)),
        "n_r": (lambda: refine_truncation(_integrand, EPS_TRUNC, radii,
                                          QuadratureConfig(n_r=256))),
        "no refine": (lambda: integrate_radial(_integrand, EPS_TRUNC, radii, base)),
        "up to 0.5": (lambda: integrate_radial(_integrand, 0.3, np.array([0.5]), base)),
        "down to 0.3": (lambda: integrate_radial(_integrand, np.array([0.3]), 0.5, base)),
    }
    # each call adds its own plan rather than reuse an earlier one; the two
    # [0.3, 0.5] ladders lay out the same nodes, but an array limit below
    # the anchor must not share a plan (or its range check) with one above
    for count, call in enumerate(layouts.values(), start=1):
        call()
        assert quadrature._ladder_plan.cache_info().currsize == count


def test_plan_arrays_are_read_only():
    radii = RadiusLadder().radii()
    plan = quadrature._ladder_plan(EPS_TRUNC, radii.tobytes(), False, True, 10)
    arrays = [plan.order, plan.nodes, plan.columns, plan.levels, plan.first, plan.last,
              *plan.steps, *plan.midpoints, plan.deep, plan.coarse, plan.column_of]
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0


def test_plan_cache_stays_bounded():
    cfg, bound = QuadratureConfig(), quadrature._ladder_plan.cache_info().maxsize
    for j in range(bound + 5):
        integrate_radial(_integrand, 0.1, 0.2 + j / 1000.0, cfg)
    assert quadrature._ladder_plan.cache_info().currsize <= bound


@pytest.mark.parametrize("eps", [1e-6, 5e-7, 1e-8, 5e-9])
def test_cached_tail_design_gives_the_same_fit(eps):
    # the design matrix of the fit is built once per eps; solving against it
    # must give the bits of a matrix built afresh at every call
    def fresh(g):
        ts = eps * np.array([1.0, 2.0, 4.0])
        design = np.column_stack([np.ones(3), np.log(ts), np.log1p(-np.log(ts))])
        lnc, beta, gamma = np.linalg.solve(design, np.log(g))
        if abs(gamma) < 1e-9:
            return float(g[0]) * eps / (beta + 1.0)
        lo = math.log(eps) - 60.0 / (beta + 1.0)
        u = np.linspace(lo, math.log(eps), 4097)
        y = np.exp(lnc + (beta + 1.0) * u + gamma * np.log1p(-u))
        return float(romb(y, dx=(math.log(eps) - lo) / (len(u) - 1)))

    rng = np.random.default_rng(int(eps * 1e10))
    for _ in range(50):
        beta, gamma = rng.uniform(-0.9, 3.0), rng.choice([0.0, rng.uniform(-2.0, 2.0)])
        ts = eps * np.array([1.0, 2.0, 4.0])
        g = rng.uniform(0.1, 10.0) * ts ** beta * (1.0 - np.log(ts)) ** gamma
        assert log_power_tail(eps, g) == fresh(g)


# ----------------------------- nested passes -----------------------------

def _kinked(t):
    # kinks inside the deep segment of every pass in PASSES: at t = 3e-5
    # (inner and refined), 0.3 (one segment) and 0.7 (outer); no Romberg
    # diagonal there nears round-off
    t = np.asarray(t, dtype=float)
    return 2.0 + np.abs(t / 3e-5 - 1.0) + np.abs(t - 0.3) + np.abs(t - 0.7)


def _recorded(fn):
    """fn, and the list of the radii of each of its calls."""
    seen = []

    def recorded(t):
        seen.append(np.array(t, dtype=float))
        return fn(t)

    return recorded, seen


def _conformal_value(r, theta):
    z = np.asarray(r) * np.exp(1j * np.asarray(theta))
    return z + 0.1 * z * z


def _d_p(model):
    # d_p at p = 3 over circles of a theta-dependent map: every node of a
    # pass is one circle reduction
    return dilatation_radial_fn(model, 3.0, QuadratureConfig())


def _multiset(t: np.ndarray) -> dict:
    values, counts = np.unique(t, return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))


@pytest.mark.parametrize("kind", ["inner", "refined", "one segment"])
def test_stopped_segments_lie_within_round_off(kind):
    # a smooth integrand, and d_p of z + 0.1 z^2: their deep segments stop
    # at level j - 2, with no second call, and move the integrals by at most
    # ROUND_OFF of their value (the outer pass's 257-node segment [0.5, 1]
    # is read at 17, 33 and 65 nodes, where neither is at round-off yet)
    a, b, kwargs = PASSES[kind]
    cfg = QuadratureConfig()
    for fn in (_integrand, _d_p(perturbed_conformal())):
        recorded, seen = _recorded(fn)
        nested = quadrature._ladder_pass(recorded, a, b, cfg, nested=True, **kwargs)
        one = quadrature._ladder_pass(fn, a, b, cfg, **kwargs)
        assert len(seen) == 1
        for got, want in zip(nested, one):
            assert np.all(np.abs(got - want) <= ROUND_OFF * np.abs(want)), kind


@pytest.mark.parametrize("kind", PASSES)
@pytest.mark.parametrize("integrand", ["kink", "fd noise"])
def test_segments_that_go_on_keep_the_one_call_bits(kind, integrand):
    # a kink, and the rounding noise of finite-difference partials (about
    # 1e-11 relative in d_p), keep every deep segment from stopping: the
    # second call completes it, and the pass is the one-call pass bit for bit
    a, b, kwargs = PASSES[kind]
    cfg = QuadratureConfig()
    fn = _kinked if integrand == "kink" else _d_p(fd_model(_conformal_value, "fd z+0.1z^2"))
    recorded, seen = _recorded(fn)
    nested = quadrature._ladder_pass(recorded, a, b, cfg, nested=True, **kwargs)
    one = quadrature._ladder_pass(fn, a, b, cfg, **kwargs)
    assert len(seen) == 2
    for got, want in zip(nested, one):
        assert np.array_equal(got, want), kind


@pytest.mark.parametrize("kind", PASSES)
@pytest.mark.parametrize("fn", [_integrand, _kinked], ids=["stops", "goes on"])
def test_no_radial_node_is_evaluated_twice(kind, fn):
    # at most two calls, which between them take no node more often than
    # the one-call pass does (adjacent segments share an end), and all of
    # its nodes when no segment stops
    a, b, kwargs = PASSES[kind]
    cfg = QuadratureConfig()
    nested_fn, nested_seen = _recorded(fn)
    one_fn, one_seen = _recorded(fn)
    quadrature._ladder_pass(nested_fn, a, b, cfg, nested=True, **kwargs)
    quadrature._ladder_pass(one_fn, a, b, cfg, **kwargs)
    assert len(nested_seen) <= 2 and len(one_seen) == 1
    took, full = _multiset(np.concatenate(nested_seen)), _multiset(one_seen[0])
    assert all(count <= full.get(t, 0) for t, count in took.items())
    if len(nested_seen) == 2:
        assert took == full


def test_nested_pass_without_deep_segments_is_one_call():
    # segments below NESTED_LEVEL are taken whole by the first call: a
    # 33-node segment has nothing to nest
    cfg = QuadratureConfig(n_r=32)
    recorded, seen = _recorded(_kinked)
    nested = quadrature._ladder_pass(recorded, 0.1, 0.8, cfg, nested=True)
    assert len(seen) == 1 and seen[0].size == 33
    assert np.array_equal(nested[0], quadrature._ladder_pass(_kinked, 0.1, 0.8, cfg)[0])


def test_segment_holding_inf_never_stops():
    # +inf at every node: the first call's diagonal, read with the infinities
    # set aside, is 0 at every level, which alone would stop the segment;
    # it is completed and integrates to +inf
    recorded, seen = _recorded(lambda t: np.full_like(t, math.inf))
    out = quadrature._ladder_pass(recorded, 0.1, 0.8, QuadratureConfig(), nested=True)
    assert out[0][0] == math.inf and len(seen) == 2


@pytest.mark.parametrize("call", [0, 1])
def test_nan_on_either_call_raises(call):
    calls = []

    def fn(t):
        calls.append(t.size)
        out = _kinked(t)
        return np.where(t > 0.2, math.nan, out) if len(calls) == call + 1 else out

    with pytest.raises(ValueError, match="NaN"):
        quadrature._ladder_pass(fn, 0.1, 0.8, QuadratureConfig(), nested=True)
    assert len(calls) == call + 1
