"""Integral functionals of the angular dilatation.

Covers the pointwise dilatation D_p, circular power means q_p / d_p, disc
means, the area functional S(r) with its rate S'(r), the image boundary length
L(r), both sides of the length-area principle, and the two radial integrals
of 1/(t^{p-1} d_p(t)). S, S' and L are circle reductions on |z| = r alone: S
by Green's formula, S' and L as integrals over that circle.

Extended-real conventions: d_p = +inf makes the radial integrand 0; d_p = 0
makes it +inf and the integral is reported as +inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Union

import numpy as np

from .errors import ConfigError, EmptyRange
from .mapping import (
    MappingModel,
    _check_radii,
    _circle_reduce,
    _jacobian_and_ft,
    circle_size,
    circle_size_of,
    evaluation_grid,
    jacobian_grid,
)
from .quadrature import EPS_TRUNC, R_FLOOR, QuadratureConfig, integrate_radial, refine_truncation

RadialFn = Callable[[np.ndarray], np.ndarray]
# one radius, or a 1-d array of them (a ladder); results follow the same shape
Radii = Union[float, np.ndarray]


def _order(p: float) -> float:
    """The order p of the angular dilatation as a float, once checked finite
    with p > 1."""
    p = float(p)
    if not 1.0 < p < math.inf:
        raise ConfigError(f"dilatation order must be finite with p > 1, got {p}")
    return p


@dataclass
class TruncatedValue:
    """An integral or mean from the origin, truncated at eps/2 and closed by a
    tail fit, with refinement_delta = |value - the same truncated at eps|, the
    truncation error estimate. value and refinement_delta are floats for one
    radius and arrays (one entry per rung) for a ladder; flags covers them all."""

    value: Radii
    refinement_delta: Radii
    flags: tuple[str, ...] = ()


def tolerance(lhs, rhs=0.0):
    """Base slack of a comparison, element-wise: 1e-9 absolute plus 1e-6
    relative to the larger side, or 1e-9 alone where that side is not finite."""
    scale = np.maximum(np.abs(lhs), np.abs(rhs))
    return 1e-9 + 1e-6 * np.where(np.isfinite(scale), scale, 0.0)


# ----------------------------- pointwise dilatation -----------------------------

def dilatation_grid(model: MappingModel, r: np.ndarray, theta: np.ndarray,
                    p: float) -> np.ndarray:
    """D_p = |f_theta|^p / (r^p J_f) on a broadcastable grid; +inf where J_f = 0
    while f_theta does not vanish.

    The model is evaluated on mapping.evaluation_grid's points, so a
    theta-invariant model costs one angle, and the result may be a read-only
    broadcast view of the full grid."""
    p = _order(p)
    r, theta, shape = evaluation_grid(model, r, theta)
    jac, ft = _jacobian_and_ft(model, r, theta)
    return np.broadcast_to(_dilatation(jac, np.abs(ft), r, p), shape)


def _dilatation(jac: np.ndarray, ft_abs: np.ndarray, r: np.ndarray, p: float) -> np.ndarray:
    """D_p from J_f and |f_theta| on one grid: +inf where J_f = 0 while f_theta
    does not vanish, 0 where both vanish."""
    num = ft_abs ** p
    with np.errstate(divide="ignore", invalid="ignore"):
        out = num / (r ** p * jac)
    zero = jac == 0.0
    if zero.any():
        out = np.where(zero & (num > 0.0), math.inf, out)
        out = np.where(zero & (num == 0.0), 0.0, out)
    return out


# ----------------------------- circle reductions -----------------------------
#
# Every quantity defined on the circles |z| = t is one mapping._circle_reduce
# over a (t, theta) grid. Functions of a radius r accept a float (and return
# one) or a 1-d array of radii.

# (1/2pi) * integral over each circle, by the periodic trapezoid rule
_row_mean = partial(np.mean, axis=-1)


def _power_mean(q: np.ndarray, p: float) -> np.ndarray:
    """Row-wise power mean of exponent 1/(p-1), raised back to p-1."""
    if not (q >= 0.0).all():  # NaN compares false
        raise ValueError("circular mean needs nonnegative, non-NaN samples")
    if q.shape[1] == 1:
        return q[:, 0]  # the mean of one sample is that sample
    return np.mean(q ** (1.0 / (p - 1.0)), axis=1) ** (p - 1.0)


def _like_radius(r: Radii, values: np.ndarray) -> Radii:
    """values (one per radius) as a float for a scalar radius, else as given."""
    return values if np.ndim(r) else float(values[0])


def _circle_power_mean(q_fn: Callable[[np.ndarray, np.ndarray], np.ndarray], p: float,
                       n: int) -> RadialFn:
    """t -> q_p(t), the power mean of Q over the circle |z| = t on at most n
    nodes, vectorized over t: the circle integrand of every radial integral
    of a Q. Like every integrand, it does not check its radii. Its `nested`
    attribute, read by _radial_integrand, is whether a ladder pass over it
    nests (quadrature._ladder_pass): that pays only where a node costs a
    circle of several samples, a theta-dependent map, so it is n > 1."""
    reduce = partial(_power_mean, p=p)

    def fn(t):
        return _circle_reduce(q_fn, t, n, reduce)

    fn.nested = n > 1
    return fn


def circular_mean(q_fn: Callable[[np.ndarray, np.ndarray], np.ndarray], r: Radii,
                  p: float, cfg: QuadratureConfig) -> Radii:
    """q_p(r): the power mean of exponent 1/(p-1) of Q over the circle |z| = r,
    raised back to p-1, on mapping.circle_size_of's nodes. Periodic
    trapezoid rule; +inf propagates."""
    p = _order(p)
    _check_radii(r)
    return _like_radius(r, _circle_power_mean(q_fn, p, circle_size_of(q_fn, r, cfg.n_theta))(r))


def circular_dilatation_mean(model: MappingModel, r: Radii, p: float,
                             cfg: QuadratureConfig) -> Radii:
    """d_p(r): the circular mean of the angular dilatation."""
    _check_radii(r)
    return _like_radius(r, dilatation_radial_fn(model, p, cfg)(r))


def dilatation_radial_fn(model: MappingModel, p: float, cfg: QuadratureConfig) -> RadialFn:
    """Vectorized r -> d_p(r), used as the integrand source of radial
    integrals: the circle integrand _circle_power_mean of D_p, so the radial
    integrals over a theta-dependent map nest their ladder passes."""
    p = _order(p)
    return _circle_power_mean(lambda t, th: dilatation_grid(model, t, th, p), p,
                              circle_size(model, cfg.n_theta))


def length_area_sides(model: MappingModel, p: float, r1: float, r2: float,
                      cfg: QuadratureConfig) -> tuple[float, float]:
    """Both sides of the length-area principle on [r1, r2]: the integral of
    L^p(t) / ((2 pi t)^{p-1} d_p(t)) dt and the area gain S(r2) - S(r1),
    as the integral of S'(t) = 2 pi t * mean_theta J_f. One evaluation of
    the partials at every node of every circle gives L, d_p and S' there, and
    one ladder pass integrates both rows. d_p = +inf makes the first
    integrand 0, d_p = 0 makes it +inf. Needs 0 < r1 < r2 < 1."""
    p = _order(p)
    if not 0.0 < r1 < r2 < 1.0:
        raise ConfigError(f"need 0 < r1 < r2 < 1, got ({r1}, {r2})")
    n = circle_size(model, cfg.n_theta)

    def sample(t, th):
        jac, ft = _jacobian_and_ft(model, t, th)
        ft_abs = np.abs(ft)
        return np.stack(np.broadcast_arrays(ft_abs, _dilatation(jac, ft_abs, t, p), jac))

    def reduce(vals):
        return np.stack([2.0 * math.pi * _row_mean(vals[0]), _power_mean(vals[1], p),
                         _row_mean(vals[2])])

    def integrands(t):
        ell, d, jac_mean = _circle_reduce(sample, t, n, reduce)
        with np.errstate(divide="ignore"):
            length = ell ** p / ((2.0 * math.pi * t) ** (p - 1.0) * d)
        return np.stack([np.where(np.isinf(d), 0.0, length), t * 2.0 * math.pi * jac_mean])

    integral, area_gain = integrate_radial(integrands, r1, r2, cfg, nested=n > 1).tolist()
    return integral, area_gain


def area_rate(model: MappingModel, r: Radii, cfg: QuadratureConfig) -> Radii:
    """S'(r) = r * integral_0^{2pi} J_f(r e^{i theta}) d theta."""
    _check_radii(r)
    fn = _circle_integral_fn(lambda t, th: jacobian_grid(model, t, th),
                             circle_size(model, cfg.n_theta))
    return _like_radius(r, fn(r))


def area(model: MappingModel, r: Radii, cfg: QuadratureConfig) -> Radii:
    """S(r): area of the image of B_r, by Green's formula on the circle |z| = r,
    S(r) = (1/2) integral_0^{2pi} Im(conj(f) f_theta) d theta.

    Green's theorem on the annulus eps < |z| < r makes the integral of J_f
    over it the difference of this circle integral at r and at eps, and the
    term at eps, |f(B_eps)|, tends to 0; no integral from the origin is
    taken. The partials are evaluated through
    the Jacobian checks, so a sense-reversing or non-finite sample raises as
    it does for every other circle quantity.

    Unlike the other circle quantities, S is read on all cfg.n_theta nodes
    of every circle, one level: its rows are one per radius, so the full
    grid is cheap, and S is the closed-form check of a theta-dependent map
    at 1 ulp, where a coarser level's rounding would show."""
    _check_radii(r)

    def sample(t, th):
        ft = _jacobian_and_ft(model, t, th)[1]
        return np.imag(np.conj(np.asarray(model.value(t, th))) * ft)

    return _like_radius(r, math.pi * _circle_reduce(sample, r, circle_size(model, cfg.n_theta),
                                                    _row_mean, nested=False))


def boundary_length(model: MappingModel, r: Radii, cfg: QuadratureConfig) -> Radii:
    """L(r): length of the image curve of the circle |z| = r."""
    _check_radii(r)
    ft = _circle_reduce(lambda t, th: np.abs(np.asarray(model.partial_theta(t, th))), r,
                        circle_size(model, cfg.n_theta), _row_mean)
    return _like_radius(r, 2.0 * math.pi * ft)


# ----------------------------- disc means -----------------------------
#
# Disc and radial integrals take one radius or a whole ladder of them; a ladder
# costs one pass of the ladder quadrature (quadrature.integrate_radial), and a
# single radius is its one-rung case.

def _circle_integral_fn(sample: Callable[[np.ndarray, np.ndarray], np.ndarray],
                        n: int) -> RadialFn:
    """t -> t * integral_0^{2pi} sample(t, theta) d theta, vectorized over t,
    on at most n circle nodes."""
    def fn(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return t * 2.0 * math.pi * _circle_reduce(sample, t, n, _row_mean)
    return fn


def _refined(fn: RadialFn, eps: float, r: Radii, transform: Callable[[np.ndarray], np.ndarray],
             flag: str, cfg: QuadratureConfig) -> TruncatedValue:
    """transform of integral_0^r fn at every radius of r truncated at eps/2, and
    its distance to the same truncated at eps (quadrature.refine_truncation,
    nested where fn is marked so). A change beyond quadrature tolerance is
    flagged, not thrown; a radius not above eps is an EmptyRange."""
    raw = refine_truncation(fn, eps, r, cfg, nested=getattr(fn, "nested", False))
    coarse, fine = (transform(part) for part in raw)
    with np.errstate(invalid="ignore"):  # inf - inf is masked below
        delta = np.where(np.isfinite(fine) & np.isfinite(coarse), np.abs(fine - coarse),
                         math.inf)
    unstable = ~np.isfinite(fine) | (delta > tolerance(fine))
    return TruncatedValue(_like_radius(r, fine), _like_radius(r, delta),
                          (flag,) if unstable.any() else ())


def disc_power_mean(q_fn: Callable[[np.ndarray, np.ndarray], np.ndarray], r: Radii, p: float,
                    n: int, cfg: QuadratureConfig) -> TruncatedValue:
    """((1/pi r^2) * integral_{B_r} Q^{1/(p-1)} dxdy)^{p-1} at one radius or a
    ladder of them, with Q sampled on at most n nodes of each circle,
    truncated at R_FLOOR/2; its refinement delta is the change from
    truncating at R_FLOOR, and a change beyond quadrature tolerance sets the
    "truncation-sensitive" flag.

    The ladder pass is one integrand call, not nested, whatever n: the
    Romberg diagonal of its base segment from R_FLOOR is not at round-off
    at the level where a nested pass could stop, so nesting would cost a
    call and save no circle."""
    p = _order(p)
    _check_radii(r)
    radii = np.atleast_1d(np.asarray(r, dtype=float))

    def sample(t, th):
        return np.asarray(q_fn(t, th), dtype=float) ** (1.0 / (p - 1.0))

    return _refined(_circle_integral_fn(sample, n), R_FLOOR, r,
                    lambda raw: (raw / (math.pi * radii * radii)) ** (p - 1.0),
                    "truncation-sensitive", cfg)


def disc_mean(model: MappingModel, r: Radii, p: float,
              cfg: QuadratureConfig) -> TruncatedValue:
    """The disc power mean (disc_power_mean) of the angular dilatation D_p,
    on circle_size(model) nodes of each circle."""
    p = _order(p)
    return disc_power_mean(lambda t, th: dilatation_grid(model, t, th, p), r, p,
                           circle_size(model, cfg.n_theta), cfg)


# ----------------------------- radial integrals -----------------------------

def _radial_integrand(d_p: RadialFn, p: float) -> RadialFn:
    def fn(t):
        t = np.asarray(t, dtype=float)
        d = np.asarray(d_p(t), dtype=float)
        with np.errstate(divide="ignore"):
            out = t ** (1.0 - p) / d
        return np.where(np.isinf(d), 0.0, out)  # d_p = +inf contributes nothing

    fn.nested = getattr(d_p, "nested", False)  # each node costs what d_p's does
    return fn


def radial_integral_outer(d_p: RadialFn, r: Radii, p: float, cfg: QuadratureConfig) -> Radii:
    """integral_r^1 dt / (t^{p-1} d_p(t))."""
    p = _order(p)
    radii = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(radii >= 1.0):
        raise EmptyRange(f"lower limit must satisfy r < 1, got {float(radii.max())}")
    if np.any(radii <= 0.0):
        raise ConfigError(f"lower limit must be positive, got {float(radii.min())}")
    fn = _radial_integrand(d_p, p)
    return _like_radius(r, integrate_radial(fn, radii, 1.0, cfg, nested=fn.nested))


def radial_integral_inner(d_p: RadialFn, r: Radii, p: float,
                          cfg: QuadratureConfig) -> TruncatedValue:
    """integral_0^r dt / (t^{p-1} d_p(t)) for 1 < p < 2, at one radius or a
    ladder of them, truncated at EPS_TRUNC/2 with a power-log tail fit; its
    refinement delta is the change from truncating at EPS_TRUNC, and a change
    beyond quadrature tolerance sets the "nonconvergent" flag.
    """
    p = _order(p)
    if not p < 2.0:
        raise ConfigError(f"inner radial integral needs 1 < p < 2, got p={p}")
    _check_radii(r)
    return _refined(_radial_integrand(d_p, p), EPS_TRUNC, r, lambda raw: raw,
                    "nonconvergent", cfg)
