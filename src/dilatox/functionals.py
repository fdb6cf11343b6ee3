"""Integral functionals of the angular dilatation.

Covers the pointwise dilatation D_p, circular power means q_p / d_p, disc
means, the area functional S(r) with its rate S'(r), the image boundary length
L(r), and the two radial integrals of 1/(t^{p-1} d_p(t)).

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
    _jacobian_and_ft,
    circle_angles,
    evaluation_grid,
    jacobian_grid,
)
from .quadrature import (
    QuadratureConfig,
    circle_nodes,
    integrate_from_origin,
    integrate_radial,
    romberg_nodes,
)

RadialFn = Callable[[np.ndarray], np.ndarray]
# one radius, or a 1-d array of them (a ladder); results follow the same shape
Radii = Union[float, np.ndarray]


@dataclass(frozen=True)
class DilatationOrder:
    """The order p > 1 of the angular dilatation, with its conjugate exponent."""

    p: float

    def __post_init__(self):
        if not self.p > 1.0:
            raise ConfigError(f"dilatation order must satisfy p > 1, got {self.p}")

    @property
    def conjugate(self) -> float:
        """p' = p/(p-1); maps (1,2) onto (2,inf)."""
        return self.p / (self.p - 1.0)


def _order(p: Union[float, DilatationOrder]) -> float:
    if isinstance(p, DilatationOrder):
        return p.p
    return DilatationOrder(float(p)).p


@dataclass
class TruncatedValue:
    """A truncated integral or mean plus its refinement-based error estimate."""

    value: float
    refinement_delta: float
    flags: tuple[str, ...] = ()

    def __float__(self) -> float:
        return self.value


# ----------------------------- pointwise dilatation -----------------------------

def dilatation_grid(model: MappingModel, r: np.ndarray, theta: np.ndarray,
                    p: Union[float, DilatationOrder]) -> np.ndarray:
    """D_p = |f_theta|^p / (r^p J_f) on a broadcastable grid; +inf where J_f = 0
    while f_theta does not vanish.

    The model is evaluated on mapping.evaluation_grid's points, so a
    theta-invariant model costs one angle, and the result may be a read-only
    broadcast view of the full grid."""
    p = _order(p)
    r, theta, shape = evaluation_grid(model, r, theta)
    jac, ft = _jacobian_and_ft(model, r, theta)
    num = np.abs(ft) ** p
    with np.errstate(divide="ignore", invalid="ignore"):
        out = num / (r ** p * jac)
    out = np.where((jac == 0.0) & (num > 0.0), math.inf, out)
    out = np.where((jac == 0.0) & (num == 0.0), 0.0, out)
    return np.broadcast_to(out, shape)


# ----------------------------- circle reductions -----------------------------
#
# Every quantity defined on the circles |z| = t is one reduction over a
# (t, theta) grid. mapping.circle_angles samples a rotation-invariant map at a
# single angle, so invariance is a grid size rather than a separate code path.
# Functions of a radius r accept a float (and return one) or a 1-d array of
# radii.


def _circle_reduce(sample: Callable[[np.ndarray, np.ndarray], np.ndarray], r,
                   theta: np.ndarray, reduce: Callable[[np.ndarray], np.ndarray],
                   cfg: QuadratureConfig) -> np.ndarray:
    """reduce(sample(t[:, None], theta[None, :])) along the angle, for every
    radius t of r. Rows are evaluated in blocks no larger than one base radial
    Romberg grid, so a whole ladder's nodes never sit in memory at once."""
    t = np.atleast_1d(np.asarray(r, dtype=float))
    block = romberg_nodes(cfg)
    out = np.empty(t.shape)
    for i in range(0, t.size, block):
        rows = t[i:i + block, None]
        vals = np.asarray(sample(rows, theta[None, :]), dtype=float)
        out[i:i + block] = reduce(np.broadcast_to(vals, (rows.shape[0], theta.size)))
    return out


# (1/2pi) * integral over each circle, by the periodic trapezoid rule
_row_mean = partial(np.mean, axis=1)


def _power_mean(q: np.ndarray, p: float) -> np.ndarray:
    """Row-wise power mean of exponent 1/(p-1), raised back to p-1."""
    if np.isnan(q).any() or np.any(q < 0):
        raise ValueError("circular mean needs nonnegative, non-NaN samples")
    if q.shape[1] == 1:
        return q[:, 0]  # the mean of one sample is that sample
    return np.mean(q ** (1.0 / (p - 1.0)), axis=1) ** (p - 1.0)


def _like_radius(r: Radii, values: np.ndarray) -> Radii:
    """values (one per radius) as a float for a scalar radius, else as given."""
    return values if np.ndim(r) else float(values[0])


def circular_mean(q_fn: Callable[[np.ndarray, np.ndarray], np.ndarray], r: Radii,
                  p: Union[float, DilatationOrder], cfg: QuadratureConfig) -> Radii:
    """q_p(r): the power mean of exponent 1/(p-1) of Q over the circle |z| = r,
    raised back to p-1. Periodic trapezoid rule; +inf propagates."""
    p = _order(p)
    _check_radii(r)
    return _like_radius(r, _circle_reduce(q_fn, r, circle_nodes(cfg.n_theta),
                                          partial(_power_mean, p=p), cfg))


def circular_dilatation_mean(model: MappingModel, r: Radii,
                             p: Union[float, DilatationOrder], cfg: QuadratureConfig) -> Radii:
    """d_p(r): the circular mean of the angular dilatation."""
    return _like_radius(r, dilatation_radial_fn(model, p, cfg)(r))


def dilatation_radial_fn(model: MappingModel, p: Union[float, DilatationOrder],
                         cfg: QuadratureConfig) -> RadialFn:
    """Vectorized r -> d_p(r), used as the integrand source of radial integrals."""
    p = _order(p)
    theta = circle_angles(model, cfg.n_theta)
    reduce = partial(_power_mean, p=p)

    def sample(t, th):
        return dilatation_grid(model, t, th, p)

    def fn(t):
        if not model.theta_invariant:
            _check_radii(t)  # full circles must lie inside the disc
        return _circle_reduce(sample, t, theta, reduce, cfg)

    return fn


def area_rate(model: MappingModel, r: Radii, cfg: QuadratureConfig) -> Radii:
    """S'(r) = r * integral_0^{2pi} J_f(r e^{i theta}) d theta."""
    _check_radii(r)
    fn = _circle_integral_fn(lambda t, th: jacobian_grid(model, t, th),
                             circle_angles(model, cfg.n_theta), cfg)
    return _like_radius(r, fn(r))


def boundary_length(model: MappingModel, r: Radii, cfg: QuadratureConfig) -> Radii:
    """L(r): length of the image curve of the circle |z| = r."""
    _check_radii(r)
    ft = _circle_reduce(lambda t, th: np.abs(np.asarray(model.partial_theta(t, th))), r,
                        circle_angles(model, cfg.n_theta), _row_mean, cfg)
    return _like_radius(r, 2.0 * math.pi * ft)


# ----------------------------- disc means and area -----------------------------
#
# Disc and radial integrals take one radius or a whole ladder of them; a ladder
# costs one pass of the ladder quadrature (quadrature.integrate_radial), and a
# single radius is its one-rung case.

def _circle_integral_fn(sample: Callable[[np.ndarray, np.ndarray], np.ndarray],
                        theta: np.ndarray, cfg: QuadratureConfig) -> RadialFn:
    """t -> t * integral_0^{2pi} sample(t, theta) d theta, vectorized over t."""
    def fn(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return t * 2.0 * math.pi * _circle_reduce(sample, t, theta, _row_mean, cfg)
    return fn


def _disc_integral(sample, r, theta: np.ndarray, cfg: QuadratureConfig,
                   r_floor: float | None = None) -> np.ndarray:
    """Lebesgue integral over B_r for each radius of r, truncated at r_floor with
    power-law tail fit; theta holds the circle nodes at which sample is taken."""
    r_floor = cfg.r_floor if r_floor is None else r_floor
    radii = np.atleast_1d(np.asarray(r, dtype=float))
    if not np.all(r_floor < radii):
        raise EmptyRange(
            f"disc radius {float(radii.min())} does not exceed truncation radius {r_floor}")
    fn = _circle_integral_fn(sample, theta, cfg)
    return integrate_from_origin(fn, r_floor, radii, cfg)


def _refined(coarse: float, fine: float, flag: str) -> TruncatedValue:
    """The fine value with its distance to the coarse one; a change beyond
    quadrature tolerance is flagged, not thrown."""
    delta = abs(fine - coarse) if math.isfinite(fine) and math.isfinite(coarse) else math.inf
    flags: tuple[str, ...] = ()
    if not math.isfinite(fine) or delta > 1e-9 + 1e-6 * abs(fine):
        flags = (flag,)
    return TruncatedValue(value=fine, refinement_delta=delta, flags=flags)


def disc_mean(model: MappingModel, r: Radii, p: Union[float, DilatationOrder],
              cfg: QuadratureConfig) -> Union[TruncatedValue, list[TruncatedValue]]:
    """((1/pi r^2) * integral_{B_r} D_p^{1/(p-1)} dxdy)^{p-1}; a TruncatedValue,
    or a list of them for an array of radii.

    Truncation sensitivity is probed by recomputing with r_floor/2 on its own
    base grid.
    """
    p = _order(p)
    radii = np.atleast_1d(np.asarray(r, dtype=float))

    def sample(t, th):
        return dilatation_grid(model, t, th, p) ** (1.0 / (p - 1.0))

    def once(r_floor):
        raw = _disc_integral(sample, radii, circle_angles(model, cfg.n_theta), cfg,
                             r_floor=r_floor)
        return (raw / (math.pi * radii * radii)) ** (p - 1.0)

    values = [_refined(c, f, "truncation-sensitive")
              for c, f in zip(once(cfg.r_floor).tolist(), once(cfg.r_floor / 2.0).tolist())]
    return values if np.ndim(r) else values[0]


def area(model: MappingModel, r: Radii, cfg: QuadratureConfig) -> Radii:
    """S(r): area of the image of B_r, by nested quadrature of the Jacobian."""
    return _like_radius(r, _disc_integral(lambda t, th: jacobian_grid(model, t, th), r,
                                          circle_angles(model, cfg.n_theta), cfg))


# ----------------------------- radial integrals -----------------------------

def _radial_integrand(d_p: RadialFn, p: float) -> RadialFn:
    def fn(t):
        t = np.asarray(t, dtype=float)
        d = np.asarray(d_p(t), dtype=float)
        with np.errstate(divide="ignore"):
            out = t ** (1.0 - p) / d
        return np.where(np.isinf(d), 0.0, out)  # d_p = +inf contributes nothing

    return fn


def radial_integral_outer(d_p: RadialFn, r: Radii,
                          p: Union[float, DilatationOrder], cfg: QuadratureConfig) -> Radii:
    """integral_r^1 dt / (t^{p-1} d_p(t))."""
    p = _order(p)
    radii = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(radii >= 1.0):
        raise EmptyRange(f"lower limit must satisfy r < 1, got {float(radii.max())}")
    if np.any(radii <= 0.0):
        raise ConfigError(f"lower limit must be positive, got {float(radii.min())}")
    return _like_radius(r, integrate_radial(_radial_integrand(d_p, p), radii, 1.0, cfg))


def radial_integral_inner(d_p: RadialFn, r: Radii,
                          p: Union[float, DilatationOrder], cfg: QuadratureConfig
                          ) -> Union[TruncatedValue, list[TruncatedValue]]:
    """integral_0^r dt / (t^{p-1} d_p(t)) for 1 < p < 2; a TruncatedValue, or a
    list of them for an array of radii.

    Truncates at eps_trunc with a local power-law tail estimate; the Richardson
    check recomputes at eps_trunc/2, on its own base grid, and reports the
    difference as the truncation error estimate. A non-stabilizing refinement
    is flagged.
    """
    p = _order(p)
    if not p < 2.0:
        raise ConfigError(f"inner radial integral needs 1 < p < 2, got p={p}")
    radii = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(radii <= cfg.eps_trunc):
        raise EmptyRange(
            f"upper limit {float(radii.min())} does not exceed eps_trunc {cfg.eps_trunc}")
    fn = _radial_integrand(d_p, p)
    coarse = integrate_from_origin(fn, cfg.eps_trunc, radii, cfg)
    fine = integrate_from_origin(fn, cfg.eps_trunc / 2.0, radii, cfg)
    values = [_refined(c, f, "nonconvergent") for c, f in zip(coarse.tolist(), fine.tolist())]
    return values if np.ndim(r) else values[0]
