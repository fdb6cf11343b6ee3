"""Quadrature primitives: periodic trapezoid on circles, log-spaced Romberg on
radial segments (one pass for a whole ladder of upper limits), and a power-law
tail estimate for the truncated origin.

Conventions for extended values: +inf in an integrand makes the integral +inf;
NaN raises. Integrands are vectorized callables over radius arrays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# EPS_TRUNC and QuadratureConfig are defined in config, which loads no numpy;
# EPS_TRUNC is re-exported here beside R_FLOOR.
from .config import EPS_TRUNC, QuadratureConfig  # noqa: F401
from .errors import ConfigError, EmptyRange

# Jacobian sign tolerance: values below -JAC_TOL violate the regularity contract.
JAC_TOL = 1e-12

# A level difference within ROUND_OFF of its level's value is at round-off:
# the angular trapezoid levels of a circle (mapping._circle_reduce) and the
# Romberg diagonal of a radial segment (_ladder_pass) stop on it (_settled).
ROUND_OFF = 8.0 * np.finfo(float).eps

# Truncation radius of disc integrals; far below the deepest rung because slowly
# converging Jacobian tails (log-singular family) need the remainder < 1e-10.
R_FLOOR = 1e-8


def circle_nodes(n_theta: int) -> np.ndarray:
    """Equispaced angles on [0, 2pi), the nodes of the periodic trapezoid rule."""
    return np.arange(n_theta) * (2.0 * math.pi / n_theta)


def _difference(level: np.ndarray, coarse: np.ndarray) -> tuple:
    """(diff, small): |level - coarse|, 0 where both are the same infinity,
    and whether it is within ROUND_OFF of |level|."""
    with np.errstate(invalid="ignore"):  # inf - inf, where level == coarse
        diff = np.where(level == coarse, 0.0, np.abs(level - coarse))
    return diff, (diff <= ROUND_OFF * np.abs(level)) & np.isfinite(diff)


def _settled(level: np.ndarray, coarse: np.ndarray, last: tuple) -> tuple:
    """(done, going, (diff, small)) for the items of one level of a nested
    rule (the rows of a circle reduction, the segments of a radial pass),
    the last axis of level and coarse running over the items, and last the
    _difference of the level before. An item is done when every entry of it
    is small and was small before, or is nonzero and fell at least 8-fold
    from the diff before: an exactly-zero diff after a large one may be a
    coincidence of the coarse nodes. An item is going, worth another
    doubling, when every entry of it is small or fell at least 8-fold, as the
    differences of a geometrically converging rule do."""
    diff, small = _difference(level, coarse)
    prev_diff, prev_small = last
    falling = (diff > 0.0) & (8.0 * diff <= prev_diff)

    def items(mask):
        return mask.reshape(-1, mask.shape[-1]).all(axis=0)

    return items(small & (prev_small | falling)), items(small | falling), (diff, small)


def _trapezoid_column(y: np.ndarray, dx, axis: int) -> np.ndarray:
    """The trapezoid sums T_0 ... T_k of 2^k + 1 equally spaced samples along
    `axis`, T_i on 2^i intervals, stacked along a new leading axis; the
    first column of scipy.integrate.romb's Richardson table, with its
    operations."""
    n_interv = y.shape[axis] - 1
    k = n_interv.bit_length() - 1
    if n_interv < 1 or n_interv != 1 << k:
        raise ValueError("Number of samples must be one plus a non-negative power of 2.")
    lead = (slice(None),) * (axis % y.ndim)

    def along(s):
        return lead + (s,)

    h = n_interv * np.asarray(dx, dtype=np.float64)
    column = [(y[along(0)] + y[along(-1)]) / 2.0 * h]
    start = step = n_interv
    for _ in range(k):
        start >>= 1
        midpoints = y[along(slice(start, n_interv, step))]
        step >>= 1
        column.append(0.5 * (column[-1] + h * np.add.reduce(midpoints, axis=axis)))
        h = h / 2.0
    return np.stack(column)


def _richardson(table: np.ndarray) -> np.ndarray:
    """Richardson extrapolation of a trapezoid column, in place, one column of
    the table at a time across all rows: row i ends as R[i, i], from exactly
    the operations scipy.integrate.romb applies to it. Row i reads only rows
    up to i, so columns of different depths can share one table, each read
    at its own depth."""
    for j in range(1, len(table)):
        change = table[j:] - table[j - 1:-1]
        change /= (1 << (2 * j)) - 1
        table[j:] += change
    return table


def romb(y, dx=1.0, axis: int = -1):
    """Romberg integral of 2^k + 1 equally spaced samples along `axis`.

    The Richardson table of scipy.integrate.romb, with the same operations in
    the same order, so the result is bit-identical to it; only the order in
    which the table's entries are filled differs (the trapezoid column first,
    then one column at a time). A dot product with precomputed Romberg
    weights would sum in another order and differ in the last bits. `dx` is a
    scalar or an array that broadcasts against `y` with `axis` removed (one
    step per row).
    """
    return _richardson(_trapezoid_column(np.asarray(y), dx, axis))[-1]


def romberg_nodes(cfg: QuadratureConfig) -> int:
    """Nodes of the base radial grid: Romberg needs 2^k + 1, the first such count
    above n_r."""
    return 2 ** math.ceil(math.log2(cfg.n_r)) + 1


# A segment has at least 2^3 intervals, so its Romberg extrapolation keeps a
# high order even where the rungs are closer together than one ladder step.
MIN_SEGMENT_LEVEL = 3

# A nested ladder pass (_ladder_pass) samples a segment of level j >=
# NESTED_LEVEL first at level j - 2, every 4th node, and reads its Romberg
# diagonal there at levels j - 4, j - 3 and j - 2.
NESTED_LEVEL = 8


def _deepest_span(anchor: float, radii: np.ndarray) -> float:
    """Log-width of the deepest rung's own integral, between the anchor and
    min(radii); np.log, as for the segment widths, so that segment takes
    exactly 2^k steps."""
    deepest = float(radii.min())
    return float(np.log(max(anchor, deepest) / min(anchor, deepest)))


@dataclass(frozen=True)
class _LadderPlan:
    """The node layout of one ladder pass, which depends only on its limits
    and the grid size. `order` sorts the rungs outward from the anchor. The
    segments are laid out as columns by level j (2^j + 1 nodes each),
    shallowest first, and `columns` holds the segment of each column; per
    column, its level and the node indices of its two ends. For each
    trapezoid sum T_i, `steps[i]` holds the step and, for i >= 1,
    `midpoints[i - 1]` the node indices of the new midpoints, both for the
    columns of level >= i, a suffix of the layout. For a nested pass, `deep`
    holds the columns of level >= NESTED_LEVEL, `coarse` the nodes of its
    first call (every 4th node of a deep column, every node of the
    others) and `column_of` the column of every node. Every array is
    read-only, since one plan serves every pass on its ladder."""

    order: np.ndarray
    nodes: np.ndarray
    columns: np.ndarray
    levels: np.ndarray
    first: np.ndarray
    last: np.ndarray
    steps: tuple[np.ndarray, ...]
    midpoints: tuple[np.ndarray, ...]
    deep: np.ndarray
    coarse: np.ndarray
    column_of: np.ndarray


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@functools.lru_cache(maxsize=32)
def _ladder_plan(anchor: float, raw: bytes, array_is_lower: bool, refine: bool,
                 k: int) -> _LadderPlan:
    """The plan of the ladder pass from `anchor` to each radius packed in
    `raw` (below it when `array_is_lower`), with the [anchor/2, anchor]
    segment when `refine`, on the step of a 2^k + 1 node grid (see
    integrate_radial). A plan is a pure function of these arguments, so the
    few ladders of a run each build theirs once; the range checks raise on
    every call, since lru_cache keeps no exception.

    Segment i lies on 2^j + 1 nodes equispaced in u = ln t, the fewest
    (MIN_SEGMENT_LEVEL <= j <= k) whose step is at most span / 2^k, the step
    of the configured grid over the deepest rung's log-width span. The steps
    and midpoints are those _trapezoid_column takes for each segment.
    """
    radii = np.frombuffer(raw)
    order = np.argsort(np.abs(radii - anchor), kind="stable")
    ends = np.concatenate([[anchor], radii[order]])
    gaps = np.diff(ends)
    if not np.all(gaps < 0.0 if array_is_lower else gaps > 0.0):
        side = "below" if array_is_lower else "above"
        raise EmptyRange(f"empty radial range: radii {radii.tolist()} must be distinct "
                         f"and {side} {anchor}")
    lo, hi = np.minimum(ends[:-1], ends[1:]), np.maximum(ends[:-1], ends[1:])
    if not lo.min() > 0.0:
        raise ConfigError(f"a log-spaced radial grid needs positive radii, got {lo.min()}")
    span = _deepest_span(anchor, radii)
    if refine:
        lo, hi = np.append(lo, anchor / 2.0), np.append(hi, anchor)
    ratio = np.log(hi / lo) / (span / 2.0 ** k)
    levels = np.clip(np.ceil(np.log2(ratio)), MIN_SEGMENT_LEVEL, k).astype(int)
    u_lo, u_hi = np.log(lo), np.log(hi)
    # the exact step; a difference of neighbouring nodes near u = -14 would
    # lose about three digits
    dx = (u_hi - u_lo) / 2.0 ** levels
    groups = [np.flatnonzero(levels == j) for j in np.unique(levels)]
    nodes = np.concatenate([
        np.exp(np.linspace(u_lo[g], u_hi[g], 2 ** int(levels[g[0]]) + 1, axis=-1)).ravel()
        for g in groups])
    columns = np.concatenate(groups)
    depth = levels[columns]
    intervals = 2 ** depth
    first = np.concatenate([[0], np.cumsum(intervals[:-1] + 1)])
    # as in _trapezoid_column: T_i adds the nodes (2m + 1) 2^(j-i) of a
    # level-j segment, m < 2^(i-1), with the step 2^j dx halved i - 1 times
    h = intervals * dx[columns]
    steps, midpoints = [_frozen(h)], []
    for i in range(1, int(depth.max()) + 1):
        deep = depth >= i
        odd = 2 * np.arange(1 << (i - 1)) + 1
        midpoints.append(_frozen(first[deep, None] + (intervals[deep, None] >> i) * odd))
        steps.append(_frozen(h[deep]))
        h = h / 2.0
    column_of = np.repeat(np.arange(columns.size), intervals + 1)
    offset = np.arange(nodes.size) - first[column_of]
    coarse = np.flatnonzero((depth[column_of] < NESTED_LEVEL) | (offset % 4 == 0))
    return _LadderPlan(order=_frozen(order), nodes=_frozen(nodes), columns=_frozen(columns),
                       levels=_frozen(depth), first=_frozen(first),
                       last=_frozen(first + intervals), steps=tuple(steps),
                       midpoints=tuple(midpoints),
                       deep=_frozen(np.flatnonzero(depth >= NESTED_LEVEL)),
                       coarse=_frozen(coarse), column_of=_frozen(column_of))


def _ladder_pass(fn: Callable[[np.ndarray], np.ndarray], a, b, cfg: QuadratureConfig,
                 samples=(), refine: bool = False,
                 nested: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The integrals of fn over [a, b] at every radius (an array, see
    integrate_radial); with `refine`, the integral over [a/2, a] below a
    scalar lower limit a, on the ladder's step, as a one-element array (else
    an empty one); and fn at the radii `samples`. The limits are checked
    before fn is called.

    fn returns one value per point, or a (k, n) array of k integrands, and
    every result then gains a leading axis of k. The node layout comes from
    the ladder's cached plan, and each row is integrated on it on its own
    (_romberg_table), so a row's values are those of a pass of that row
    alone. A segment holding +inf integrates to +inf, and so does every
    radius beyond it on that row; NaN at a node of any row raises.

    One call of fn covers every node and the samples, unless `nested`, which
    suits an integrand whose every node is a circle of several samples. Then
    a first call takes every node of the segments below NESTED_LEVEL, every
    4th node (level j - 2) of the deeper ones, and the samples. A row of a
    deep segment stops at level j - 2 when _settled finds its Romberg
    diagonal R[j - 4], R[j - 3], R[j - 2] at round-off there, unless that
    segment holds +inf; a second call, only if some row of a deep segment
    goes on, takes the nodes those segments lack, and such a segment ends
    with the bits of the one-call pass. A radial feature narrower than the
    first call's step that lies between its nodes is invisible to it."""
    if np.ndim(a) and np.ndim(b):
        raise ConfigError("at most one limit of a radial integral may be an array")
    if np.ndim(a):
        anchor, radii = float(b), np.asarray(a, dtype=float)
    else:
        anchor, radii = float(a), np.atleast_1d(np.asarray(b, dtype=float))
    if radii.ndim != 1 or radii.size == 0:
        raise ConfigError(f"radii must be a non-empty 1-d array, got shape {radii.shape}")
    plan = _ladder_plan(anchor, radii.tobytes(), bool(np.ndim(a)), refine,
                        int(math.log2(romberg_nodes(cfg) - 1)))
    samples = np.asarray(samples, dtype=float)
    take = plan.coarse if nested and plan.deep.size else None
    nodes = plan.nodes if take is None else plan.nodes[take]
    y_all = np.asarray(fn(np.concatenate([nodes, samples])), dtype=float)
    y = _no_nan(y_all[..., :nodes.size])
    if take is not None:  # 0 at the nodes the first call leaves out
        y, first = np.zeros(y.shape[:-1] + plan.nodes.shape), y
        y[..., take] = first
    rows = np.atleast_2d(y)
    tables = [_romberg_table(row, plan) for row in rows]
    levels = np.broadcast_to(plan.levels, (len(rows), plan.levels.size))
    if take is not None:
        levels, more = _nested_levels(tables, plan)
        if more.size:
            rows[:, more] = _no_nan(fn(plan.nodes[more]))
            tables = [_romberg_table(row, plan) for row in rows]
    segments = np.stack([_segment_integrals(table, inf_columns, plan, lv)
                         for (table, inf_columns), lv in zip(tables, levels)])
    segments = segments.reshape(y.shape[:-1] + (-1,))
    out = np.empty(y.shape[:-1] + radii.shape)
    out[..., plan.order] = np.cumsum(segments[..., :len(radii)], axis=-1)
    return out, segments[..., len(radii):], y_all[..., nodes.size:]


def _no_nan(values) -> np.ndarray:
    """values as a float array; NaN raises."""
    values = np.asarray(values, dtype=float)
    if np.isnan(values).any():
        raise ValueError("NaN in radial quadrature values")
    return values


def _nested_levels(tables: list, plan: _LadderPlan) -> tuple[np.ndarray, np.ndarray]:
    """(levels, more) after the first call of a nested pass: the depth at
    which each row reads each column, j - 2 for a row of a deep column that
    stops there and j otherwise, and the nodes still to evaluate, those the
    deep columns with a row that goes on lack. tables are _romberg_table's
    for each row, on values that are 0 at the nodes not yet evaluated, which
    no entry of a deep column's diagonal up to j - 2 reads."""
    deep = plan.deep
    depth = plan.levels[deep]
    stop = []
    for table, inf_columns in tables:
        r4, r3, r2 = (table[depth - back, deep] for back in (4, 3, 2))
        done = _settled(r2, r3, _difference(r3, r4))[0]
        stop.append(done if inf_columns is None else done & ~inf_columns[deep])
    stop = np.array(stop)
    levels = np.tile(plan.levels, (len(tables), 1))
    levels[:, deep] -= 2 * stop
    going = np.zeros(plan.levels.size, dtype=bool)
    going[deep[~stop.all(axis=0)]] = True
    lacking = going[plan.column_of]
    lacking[plan.coarse] = False
    return levels, np.flatnonzero(lacking)


def _romberg_table(fn_values: np.ndarray, plan: _LadderPlan) -> tuple:
    """(table, inf_columns): the Richardson table of every column of plan,
    from the integrand's values at its nodes, and the columns holding +inf
    (None if none does).

    The trapezoid column T_0 ... T_j of every segment is built one level at a
    time across all segments deep enough, with the operations of
    _trapezoid_column, into one Richardson table."""
    y = fn_values * plan.nodes
    inf, inf_columns = np.isinf(y), None
    if inf.any():
        inf_columns = np.logical_or.reduceat(inf, plan.first)
        y = np.where(inf, 0.0, y)
    table = np.zeros((len(plan.steps), plan.columns.size))
    column = (y[plan.first] + y[plan.last]) / 2.0 * plan.steps[0]
    table[0] = column
    for i, (h, mid) in enumerate(zip(plan.steps[1:], plan.midpoints), start=1):
        column = 0.5 * (column[-len(mid):] + h * np.add.reduce(y[mid], axis=-1))
        table[i, -len(mid):] = column
    return _richardson(table), inf_columns


def _segment_integrals(table: np.ndarray, inf_columns, plan: _LadderPlan,
                       levels: np.ndarray) -> np.ndarray:
    """The integral of every segment of plan, in the order of its radii and
    then the refinement segment: column c of the Richardson table read on its
    diagonal at depth levels[c]. A segment holding +inf integrates to +inf."""
    values = table[levels, np.arange(plan.columns.size)]
    if inf_columns is not None:
        values[inf_columns] = math.inf
    segments = np.empty(plan.columns.size)
    segments[plan.columns] = values
    return segments


def integrate_radial(fn: Callable[[np.ndarray], np.ndarray], a, b,
                     cfg: QuadratureConfig, nested: bool = False) -> float | np.ndarray:
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
    radius's integral. fn is called once on all nodes, or, when `nested`
    (for an integrand whose nodes are circles of several samples), once on
    a coarser set and once more on the nodes of the segments whose Romberg
    diagonal is not yet at round-off there (_ladder_pass). +inf in a segment
    makes the integral of every radius beyond it +inf; NaN raises, and so
    does a limit that is not positive, before fn is called.

    fn may return a (k, n) array, k integrands at the n nodes: each row is
    integrated and stopped on its own, with the values of a pass of that row
    alone, and the result gains a leading axis of k.
    """
    out = _ladder_pass(fn, a, b, cfg, nested=nested)[0]
    if np.ndim(a) or np.ndim(b):
        return out
    return out[:, 0] if out.ndim == 2 else float(out[0])


# Radii of the samples of the tail fit at eps, in units of eps.
TAIL_SAMPLES = np.array([1.0, 2.0, 4.0])


@functools.lru_cache(maxsize=8)
def _tail_design(eps: float) -> np.ndarray:
    """The read-only design matrix [1, ln t, ln(1 - ln t)] of the tail fit at
    t = eps * TAIL_SAMPLES. Every fit of a run uses one of a few eps, and
    np.linalg.solve on the same matrix gives the same beta, so it is built
    once per eps (a cached inverse would round differently)."""
    ts = eps * TAIL_SAMPLES
    return _frozen(np.column_stack([np.ones(3), np.log(ts), np.log1p(-np.log(ts))]))


def log_power_tail(eps: float, g) -> float:
    """Estimate of integral_0^eps fn(t) dt from a power-times-log fit.

    g holds fn at eps * TAIL_SAMPLES, that is at eps, 2 eps and 4 eps; the
    fit fn(t) ~ c t^beta (1 - ln t)^gamma runs through these samples.
    Reduces to the exact pure-power tail when gamma vanishes, and handles the
    slowly-convergent log-corrected integrands of the singular example family
    far better than a plain power fit.
    """
    g = np.asarray(g, dtype=float)
    if np.isnan(g).any():
        raise ValueError("NaN in tail fit samples")
    if np.isinf(g).any():
        return math.inf
    if np.any(g <= 0.0):
        return 0.0
    lnc, beta, gamma = np.linalg.solve(_tail_design(eps), np.log(g))
    if beta <= -1.0:
        return math.inf
    if abs(gamma) < 1e-9:
        return float(g[0]) * eps / (beta + 1.0)
    # integrate the fitted form in u = ln t over enough decades to exhaust it
    lo = math.log(eps) - 60.0 / (beta + 1.0)
    u = np.linspace(lo, math.log(eps), 4097)
    y = np.exp(lnc + (beta + 1.0) * u + gamma * np.log1p(-u))
    return float(romb(y, dx=(math.log(eps) - lo) / (len(u) - 1)))


def refine_truncation(fn: Callable[[np.ndarray], np.ndarray], eps: float, b,
                      cfg: QuadratureConfig,
                      nested: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """integral_0^b fn(t) dt at every radius of b, truncated at eps and at
    eps/2, each closed by its tail fit: the pair (coarse, fine) of arrays.

    Halving eps changes only the part below eps, so one ladder pass from eps
    serves both: the fine values add the [eps/2, eps] segment, on the ladder's
    step, and the tail fit at eps/2; the coarse ones the tail fit at eps. One
    call of fn covers the ladder, that segment and the samples of both fits;
    when `nested`, it covers the segments below NESTED_LEVEL and every 4th
    node of the deeper ones, and a second call, if any, the rest of the
    deep segments whose Romberg diagonal is not yet at round-off
    (_ladder_pass). A radius not above eps is an EmptyRange."""
    body, below, g = _ladder_pass(fn, eps, np.atleast_1d(np.asarray(b, dtype=float)), cfg,
                                  np.concatenate([eps * TAIL_SAMPLES, eps / 2.0 * TAIL_SAMPLES]),
                                  refine=True, nested=nested)
    return (body + log_power_tail(eps, g[:3]),
            body + (below[0] + log_power_tail(eps / 2.0, g[3:])))
