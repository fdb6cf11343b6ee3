"""Property-based checks of the structural invariants: Jacobian scaling laws,
power-mean bounds, extended-value propagation, and tolerance symmetry."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilatox.catalog import linear, radial_stretch
from dilatox.functionals import (
    area,
    boundary_length,
    circular_mean,
    dilatation_grid,
)
from dilatox.mapping import jacobian_grid
from dilatox.quadrature import QuadratureConfig, log_power_tail
from dilatox.verifier import LimitProxy, growth_bound, tolerance

CFG = QuadratureConfig(n_theta=64, n_r=64)
DEFAULT_CFG = QuadratureConfig()

radii = st.floats(min_value=1e-3, max_value=0.95, allow_nan=False)
angles = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
orders = st.floats(min_value=1.05, max_value=8.0, allow_nan=False).filter(
    lambda p: abs(p - 2.0) > 1e-3)
slopes = st.floats(min_value=0.05, max_value=1.0, allow_nan=False)


@given(k=slopes, r=radii, theta=angles)
def test_linear_jacobian_scaling(k, r, theta):
    assert float(jacobian_grid(linear(k).model, r, theta)) == pytest.approx(
        k * k, rel=1e-12)


@given(k=slopes, p=orders, r=radii)
def test_linear_dilatation_power_law(k, p, r):
    got = float(dilatation_grid(linear(k).model, r, 0.0, p))
    assert got == pytest.approx(k ** (p - 2.0), rel=1e-10)


@given(p=orders, r=radii, a=st.floats(min_value=0.0, max_value=0.9))
@settings(max_examples=50, deadline=None)
def test_circular_mean_between_extremes(p, r, a):
    q_fn = lambda rr, th: 1.0 + a * np.cos(th)
    m = circular_mean(q_fn, r, p, CFG)
    assert (1.0 - a) - 1e-9 <= m <= (1.0 + a) + 1e-9


@given(p=orders, r=radii, c=st.floats(min_value=0.01, max_value=100.0))
@settings(max_examples=50, deadline=None)
def test_circular_mean_of_constant_is_constant(p, r, c):
    m = circular_mean(lambda rr, th: np.full_like(th, c), r, p, CFG)
    assert m == pytest.approx(c, rel=1e-12)


@given(vals=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=3, max_size=12))
def test_limit_proxy_order(vals):
    lo = LimitProxy.from_tail("liminf", vals)
    hi = LimitProxy.from_tail("limsup", vals)
    assert lo.value <= hi.value
    assert lo.tail_spread == hi.tail_spread == pytest.approx(hi.value - lo.value)


@given(a=st.floats(-1e12, 1e12), b=st.floats(-1e12, 1e12))
def test_tolerance_symmetric_and_positive(a, b):
    assert tolerance(a, b) == tolerance(b, a) > 0.0


@given(p=st.floats(min_value=2.05, max_value=10.0))
def test_growth_constant_positive_finite(p):
    c = growth_bound(p, 1.0)
    assert math.isfinite(c) and c > 0.0


@given(beta=st.floats(min_value=-0.9, max_value=4.0),
       c=st.floats(min_value=0.1, max_value=10.0),
       eps=st.floats(min_value=1e-8, max_value=1e-2))
def test_log_power_tail_exact_on_pure_powers(beta, c, eps):
    got = log_power_tail(eps, c * (eps * np.array([1.0, 2.0, 4.0])) ** beta)
    exact = c * eps ** (beta + 1.0) / (beta + 1.0)
    assert got == pytest.approx(exact, rel=1e-9)


@given(alpha=st.floats(min_value=0.1, max_value=3.0), r=radii)
@settings(max_examples=25, deadline=None)
def test_radial_stretch_area_and_length_match_profile(alpha, r):
    # Green's formula and the circle mean of |f_theta| against pi R^2 and
    # 2 pi R, at the tolerances of the catalog's closed-form test
    entry = radial_stretch(alpha)
    assert area(entry.model, r, DEFAULT_CFG) == entry.profile.area(r)
    assert boundary_length(entry.model, r, DEFAULT_CFG) == pytest.approx(
        entry.profile.length(r), rel=1e-10)


def test_circle_mean_rejects_nan():
    def q_fn(rr, th):
        q = np.ones(np.broadcast_shapes(np.shape(rr), np.shape(th)))
        q[..., -1] = math.nan  # one node of every circle
        return q

    with pytest.raises(ValueError, match="non-NaN"):
        circular_mean(q_fn, 0.5, 3.0, CFG)
