"""Quadrature primitives: periodic trapezoid on circles, log-spaced Romberg on
radial segments (one pass for a whole ladder of upper limits), and a power-law
tail estimate for the truncated origin.

Conventions for extended values: +inf in an integrand makes the integral +inf;
NaN raises. Integrands are vectorized callables over radius arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, EmptyRange

# Jacobian sign tolerance: values below -JAC_TOL violate the regularity contract.
JAC_TOL = 1e-12

# Truncation radius of the inner radial integral, and the smallest r_min a
# radius ladder may reach.
EPS_TRUNC = 1e-6
# Truncation radius of disc integrals; far below r_min because slowly
# converging Jacobian tails (log-singular family) need the remainder < 1e-10.
R_FLOOR = 1e-8


@dataclass(frozen=True)
class QuadratureConfig:
    """Grid sizes used by every integral functional, and r_min, the deepest
    radius a ladder may reach. r_min lies in [EPS_TRUNC, 1), so every rung sits
    above both truncation radii before any integral starts."""

    n_theta: int = 512
    n_r: int = 1024
    r_min: float = 1e-4

    def __post_init__(self):
        if self.n_theta < 16 or self.n_theta % 2 != 0:
            raise ConfigError(f"n_theta must be even and >= 16, got {self.n_theta}")
        if self.n_r < 16:
            raise ConfigError(f"n_r must be >= 16, got {self.n_r}")
        if not EPS_TRUNC <= self.r_min < 1:
            raise ConfigError(f"r_min must lie in [{EPS_TRUNC:g}, 1), got {self.r_min}")


def circle_nodes(n_theta: int) -> np.ndarray:
    """Equispaced angles on [0, 2pi), the nodes of the periodic trapezoid rule."""
    return np.arange(n_theta) * (2.0 * math.pi / n_theta)


def romb(y, dx=1.0, axis: int = -1):
    """Romberg integral of 2^k + 1 equally spaced samples along `axis`.

    The Richardson table of scipy.integrate.romb, with the same operations in
    the same order, so the result is bit-identical to it. A dot product with
    precomputed Romberg weights would sum in another order and differ in the
    last bits. `dx` is a scalar or an array that broadcasts against `y` with
    `axis` removed (one step per row of a ladder block).
    """
    y = np.asarray(y)
    n_interv = y.shape[axis] - 1
    k = n_interv.bit_length() - 1
    if n_interv < 1 or n_interv != 1 << k:
        raise ValueError("Number of samples must be one plus a non-negative power of 2.")
    lead = (slice(None),) * (axis % y.ndim)

    def along(s):
        return lead + (s,)

    h = n_interv * np.asarray(dx, dtype=np.float64)
    row = [(y[along(0)] + y[along(-1)]) / 2.0 * h]
    start = step = n_interv
    for i in range(1, k + 1):
        start >>= 1
        midpoints = y[along(slice(start, n_interv, step))]
        step >>= 1
        prev_row, row = row, [0.5 * (row[0] + h * np.sum(midpoints, axis=axis))]
        for j in range(1, i + 1):
            prev = row[j - 1]
            row.append(prev + (prev - prev_row[j - 1]) / ((1 << (2 * j)) - 1))
        h = h / 2.0
    return row[k]


def romberg_nodes(cfg: QuadratureConfig) -> int:
    """Nodes of the base radial grid: Romberg needs 2^k + 1, the first such count
    above n_r."""
    return 2 ** math.ceil(math.log2(cfg.n_r)) + 1


def _romberg_segments(fn: Callable[[np.ndarray], np.ndarray], lo: np.ndarray,
                      hi: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Romberg integrals of fn(t) dt = fn(e^u) e^u du over the segments
    [lo_i, hi_i], segment i on 2^levels_i + 1 nodes equispaced in u = ln t,
    from a single call of fn on all nodes.

    A segment holding +inf integrates to +inf; NaN anywhere raises.
    """
    u_lo, u_hi = np.log(lo), np.log(hi)
    # the exact step; a difference of neighbouring nodes near u = -14 would
    # lose about three digits
    dx = (u_hi - u_lo) / 2.0 ** levels
    groups = [np.flatnonzero(levels == k) for k in np.unique(levels)]
    grids = [np.linspace(u_lo[g], u_hi[g], 2 ** int(levels[g[0]]) + 1, axis=-1)
             for g in groups]
    ts = [np.exp(u) for u in grids]
    y_all = np.asarray(fn(np.concatenate([t.ravel() for t in ts])), dtype=float)
    if np.isnan(y_all).any():
        raise ValueError("NaN in radial quadrature values")
    out = np.empty(len(lo))
    start = 0
    for g, t in zip(groups, ts):
        y = y_all[start:start + t.size].reshape(t.shape)
        start += t.size
        y = y * t
        inf_rows = np.isinf(y).any(axis=1)
        out[g] = romb(np.where(np.isinf(y), 0.0, y), dx=dx[g], axis=-1)
        out[g[inf_rows]] = math.inf
    return out


# A segment has at least 2^3 intervals, so its Romberg extrapolation keeps a
# high order even where the rungs are closer together than one ladder step.
MIN_SEGMENT_LEVEL = 3


def _deepest_span(anchor: float, radii: np.ndarray) -> float:
    """Log-width of the deepest rung's own integral, between the anchor and
    min(radii); np.log, as for the segment widths, so that segment takes
    exactly 2^k steps."""
    deepest = float(radii.min())
    return float(np.log(max(anchor, deepest) / min(anchor, deepest)))


def _segment_integrals(fn: Callable[[np.ndarray], np.ndarray], lo: np.ndarray,
                       hi: np.ndarray, span: float, cfg: QuadratureConfig) -> np.ndarray:
    """Romberg integrals of fn over the segments [lo_i, hi_i], each on the
    fewest 2^j + 1 log-spaced nodes (MIN_SEGMENT_LEVEL <= j <= k) whose step
    is at most span / 2^k, the step of the configured 2^k + 1 node grid over
    a log-width span."""
    k = int(math.log2(romberg_nodes(cfg) - 1))
    ratio = np.log(hi / lo) / (span / 2.0 ** k)
    levels = np.clip(np.ceil(np.log2(ratio)), MIN_SEGMENT_LEVEL, k).astype(int)
    return _romberg_segments(fn, lo, hi, levels)


def integrate_radial(fn: Callable[[np.ndarray], np.ndarray], a, b,
                     cfg: QuadratureConfig) -> float | np.ndarray:
    """Romberg integration of fn(t) dt over [a, b] on a log-spaced radial grid.

    The log-spaced grid integrates fn(e^u) e^u du on a uniform u-grid, which
    resolves power-law integrands near 0; Romberg extrapolation of the
    trapezoid sums is effectively exact for integrands smooth in u.

    One limit may be a 1-d array (a ladder of radii), the other a scalar (the
    anchor); the result is then the array of integrals over [a_i, b] or
    [a, b_i], from one pass. Each radius adds one Romberg segment from its
    neighbour nearer the anchor (the nearest radius from the anchor itself).
    Every segment takes one step rule: the fewest 2^j + 1 nodes
    (MIN_SEGMENT_LEVEL <= j <= k) whose log-step is at most that of the
    deepest rung's own integral on the configured 2^k + 1 node grid, so a
    lone radius gets that grid. Cumulative sums of the segments give each
    radius's integral, and fn is called once on all nodes. +inf in a segment
    makes the integral of every radius beyond it +inf; NaN raises.
    """
    if np.ndim(a) and np.ndim(b):
        raise ConfigError("at most one limit of a radial integral may be an array")
    if np.ndim(a):
        anchor, radii = float(b), np.asarray(a, dtype=float)
    else:
        anchor, radii = float(a), np.atleast_1d(np.asarray(b, dtype=float))
    if radii.ndim != 1 or radii.size == 0:
        raise ConfigError(f"radii must be a non-empty 1-d array, got shape {radii.shape}")
    order = np.argsort(np.abs(radii - anchor), kind="stable")
    ends = np.concatenate([[anchor], radii[order]])
    steps = np.diff(ends)
    if not np.all(steps < 0.0 if np.ndim(a) else steps > 0.0):
        raise EmptyRange(f"empty radial range [{a}, {b}]")
    lo, hi = np.minimum(ends[:-1], ends[1:]), np.maximum(ends[:-1], ends[1:])
    if not lo[0] > 0.0:
        raise ConfigError(f"a log-spaced radial grid needs positive radii, got {lo[0]}")
    out = np.empty(len(radii))
    out[order] = np.cumsum(_segment_integrals(fn, lo, hi, _deepest_span(anchor, radii), cfg))
    return out if np.ndim(a) or np.ndim(b) else float(out[0])


def log_power_tail(fn: Callable[[np.ndarray], np.ndarray], eps: float) -> float:
    """Estimate of integral_0^eps fn(t) dt from a power-times-log fit.

    Fits fn(t) ~ c t^beta (1 - ln t)^gamma through samples at eps, 2 eps and
    4 eps. Reduces to the exact pure-power tail when gamma vanishes, and
    handles the slowly-convergent log-corrected integrands of the singular
    example family far better than a plain power fit.
    """
    ts = np.array([eps, 2.0 * eps, 4.0 * eps])
    g = np.asarray(fn(ts), dtype=float)
    if np.isnan(g).any():
        raise ValueError("NaN in tail fit samples")
    if np.isinf(g).any():
        return math.inf
    if np.any(g <= 0.0):
        return 0.0
    design = np.column_stack([np.ones(3), np.log(ts), np.log1p(-np.log(ts))])
    lnc, beta, gamma = np.linalg.solve(design, np.log(g))
    if beta <= -1.0:
        return math.inf
    if abs(gamma) < 1e-9:
        return float(g[0]) * eps / (beta + 1.0)
    # integrate the fitted form in u = ln t over enough decades to exhaust it
    lo = math.log(eps) - 60.0 / (beta + 1.0)
    u = np.linspace(lo, math.log(eps), 4097)
    y = np.exp(lnc + (beta + 1.0) * u + gamma * np.log1p(-u))
    return float(romb(y, dx=(math.log(eps) - lo) / (len(u) - 1)))


def integrate_from_origin(fn: Callable[[np.ndarray], np.ndarray], eps: float,
                          b: float | np.ndarray, cfg: QuadratureConfig) -> float | np.ndarray:
    """integral_0^b fn(t) dt for a radius b or a 1-d array of them: the radial
    quadrature on [eps, b] plus the fitted tail below eps, which every radius shares."""
    return integrate_radial(fn, eps, b, cfg) + log_power_tail(fn, eps)


def refine_truncation(fn: Callable[[np.ndarray], np.ndarray], eps: float, b,
                      cfg: QuadratureConfig) -> tuple[np.ndarray, np.ndarray]:
    """integral_0^b fn(t) dt at every radius of b, truncated at eps and at
    eps/2, each closed by its tail fit: the pair (coarse, fine) of arrays.

    Halving eps changes only the part below eps, so one ladder pass from eps
    serves both: the fine values add the [eps/2, eps] segment, on the ladder's
    step, and the tail fit at eps/2; the coarse ones the tail fit at eps. A
    radius not above eps is an EmptyRange."""
    radii = np.atleast_1d(np.asarray(b, dtype=float))
    body = integrate_radial(fn, eps, radii, cfg)
    below = _segment_integrals(fn, np.array([eps / 2.0]), np.array([eps]),
                               _deepest_span(eps, radii), cfg)[0]
    return (body + log_power_tail(fn, eps),
            body + (below + log_power_tail(fn, eps / 2.0)))
