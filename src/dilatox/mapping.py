"""Mappings of the punctured unit disc in polar coordinates.

A MappingModel bundles the complex value f(r e^{i theta}) with its partial
derivatives f_r and f_theta, either closed-form or finite differences.
All callables are vectorized over numpy arrays and must be pure: models are
safe to share across concurrent evaluators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, DegenerateJacobian, NonFiniteDerivative
from .quadrature import JAC_TOL, QuadratureConfig, _difference, _settled, circle_nodes

TWO_PI = 2.0 * math.pi

ComplexFn = Callable[[np.ndarray, np.ndarray], np.ndarray]

# Points of a (radius, angle) grid per model call: circle samplers evaluate
# their rows in blocks of at most this many points, so that the half dozen
# complex temporaries of one block (256 KiB each) stay in a 2 MiB per-core L2
# cache. README's design notes give the measured sweep.
BLOCK_POINTS = 2 ** 14

# Circle reductions sample every circle first on FIRST_STOP nodes of the cap
# grid, read there at 16, 32 and 64 nodes, and refine a row further only
# while its level differences are not yet within quadrature.ROUND_OFF of its
# value (quadrature._settled).
FIRST_STOP = 64


@dataclass(frozen=True)
class MappingModel:
    """A polar-evaluable map with partial derivatives.

    theta_invariant marks maps whose |f|, |f_theta| and Jacobian do not depend
    on the angle. Such a map is evaluated at one angle of every circle:
    circle_size gives the circle reductions and min_max_modulus a single
    node, and jacobian_grid and dilatation_grid evaluate the first angle of
    their grid only. validate_model rejects a flag the map does not honour.
    """

    label: str
    value: ComplexFn
    partial_r: ComplexFn
    partial_theta: ComplexFn
    theta_invariant: bool = False


@dataclass(frozen=True)
class RadialProfile:
    """Scalar profile R(r) of a rotationally symmetric map R(r) e^{i theta}.

    Every functional of such a map is closed form in R and R': d_q(t) =
    R^{q-1} / (t^{q-1} R'), so the radial integrand 1/(t^{q-1} d_q(t)) is
    R' R^{1-q}. The methods below are these closed forms, the exact oracles
    of the quadrature-based functionals; inner and outer need q != 2.
    """

    R: Callable[[np.ndarray], np.ndarray]
    R_prime: Callable[[np.ndarray], np.ndarray]

    def ratio(self, r):
        """|f(z)|/|z| = R(r)/r on the circle |z| = r."""
        return self.R(r) / r

    def area(self, r):
        """S(r) = pi R(r)^2, the area of the image of B_r."""
        return math.pi * self.R(r) ** 2

    def length(self, r):
        """L(r) = 2 pi R(r), the length of the image of |z| = r."""
        return 2.0 * math.pi * self.R(r)

    def inner(self, r, q: float):
        """R(r)^{2-q} / (2-q): an antiderivative in r of the radial integrand,
        and for q < 2 the inner integral integral_0^r dt / (t^{q-1} d_q(t))."""
        return self.R(r) ** (2.0 - q) / (2.0 - q)

    def outer(self, r, q: float):
        """integral_r^1 dt / (t^{q-1} d_q(t)) = (R(1)^{2-q} - R(r)^{2-q}) / (2-q)."""
        return self.inner(1.0, q) - self.inner(r, q)


class CubicHermite:
    """Piecewise cubic Hermite interpolant through (x_i, y_i) with slopes d_i.

    The per-interval coefficients, in the form of
    scipy.interpolate.CubicHermiteSpline, are built once; a call is a
    searchsorted, a gather and Horner's rule. Beyond the end nodes the end
    cubics extrapolate, as in scipy.
    """

    def __init__(self, x, y, slopes):
        x, y, d = (np.asarray(a, dtype=float) for a in (x, y, slopes))
        h = np.diff(x)
        secant = np.diff(y) / h
        t = (d[:-1] + d[1:] - 2.0 * secant) / h
        self._x = x
        self._breaks = x[1:-1]  # searchsorted on these gives the end-clamped interval
        self._c = (t / h, (secant - d[:-1]) / h - t, d[:-1], y[:-1])

    def __call__(self, x, nu: int = 0):
        """Values (nu = 0) or first derivatives (nu = 1) at x."""
        x = np.asarray(x, dtype=float)
        i = np.searchsorted(self._breaks, x, side="right")
        s = x - self._x.take(i)
        c3, c2, c1, c0 = (c.take(i) for c in self._c)
        if nu == 0:
            return ((c3 * s + c2) * s + c1) * s + c0
        if nu == 1:
            return (3.0 * c3 * s + 2.0 * c2) * s + c1
        raise ValueError(f"derivative order must be 0 or 1, got {nu}")


def _pchip_end_slope(h0, h1, m0, m1) -> float:
    """One-sided three-point slope at an end node, limited to keep the shape."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def pchip(x, y) -> CubicHermite:
    """Monotone piecewise cubic through n >= 3 points (x_i, y_i), x strictly
    increasing.

    Fritsch-Carlson slopes with the interior (weighted harmonic mean, zero at
    a local extremum or flat run) and end rules of
    scipy.interpolate.PchipInterpolator.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    h = np.diff(x)
    m = np.diff(y) / h
    w1 = 2.0 * h[1:] + h[:-1]
    w2 = h[1:] + 2.0 * h[:-1]
    same = (np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0.0) & (m[:-1] != 0.0)
    d = np.zeros_like(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        d[1:-1] = np.where(same, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)), 0.0)
    d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    return CubicHermite(x, y, d)


def model_from_profile(profile: RadialProfile, label: str) -> MappingModel:
    """Rotationally symmetric model f = R(r) e^{i theta}."""

    def value(r, theta):
        return profile.R(r) * np.exp(1j * np.asarray(theta))

    def partial_r(r, theta):
        return profile.R_prime(r) * np.exp(1j * np.asarray(theta))

    def partial_theta(r, theta):
        return 1j * profile.R(r) * np.exp(1j * np.asarray(theta))

    return MappingModel(label=label, value=value, partial_r=partial_r,
                        partial_theta=partial_theta, theta_invariant=True)


def _jacobian_and_ft(model: MappingModel, r: np.ndarray,
                     theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(J_f, f_theta) on a broadcastable grid, evaluating each partial once."""
    fr = np.asarray(model.partial_r(r, theta))
    ft = np.asarray(model.partial_theta(r, theta))
    if not (np.isfinite(fr).all() and np.isfinite(ft).all()):
        raise NonFiniteDerivative(f"non-finite partial derivative of {model.label!r}")
    jac = np.imag(np.conj(fr) * ft) / r
    if np.any(jac < -JAC_TOL):
        raise DegenerateJacobian(
            f"Jacobian of {model.label!r} reaches {float(np.min(jac)):.3e} < -{JAC_TOL}")
    return np.maximum(jac, 0.0), ft


def _check_radii(r) -> None:
    """Raise ConfigError naming the first radius of r outside (0, 1)."""
    r = np.asarray(r, dtype=float)
    bad = r[~((r > 0.0) & (r < 1.0))]
    if bad.size:
        raise ConfigError(f"radius must lie in (0,1), got {float(bad.flat[0])}")


def circle_size(model: MappingModel, n_theta: int) -> int:
    """The most nodes at which a circle of model is sampled: n_theta, the cap
    of the nested trapezoid levels, or 1 for a theta-invariant model."""
    return 1 if model.theta_invariant else n_theta


def circle_size_of(q_fn: Callable[[np.ndarray, np.ndarray], np.ndarray], r, n_theta: int) -> int:
    """circle_size for a bare function Q(t, theta) of the circles: 1 when Q,
    sampled on two nodes of the circle |z| = r (the first radius of r),
    comes back angle-broadcast, one column or angle stride 0, as
    functionals.dilatation_grid returns for a theta-invariant model; n_theta
    otherwise. The probe evaluates Q at two points at most."""
    rows = np.ravel(np.asarray(r, dtype=float))[:1]
    return 1 if _sample_rows(q_fn, rows, circle_nodes(2)).strides[-1] == 0 else n_theta


def block_rows(width: int) -> int:
    """Rows of a (radius, angle) grid of width angles per block of at most
    BLOCK_POINTS points, and at least one row."""
    return max(1, BLOCK_POINTS // width)


def _sample_rows(sample: Callable[[np.ndarray, np.ndarray], np.ndarray], rows: np.ndarray,
                 theta: np.ndarray) -> np.ndarray:
    """sample on the grid of rows (radii) and theta, broadcast to that grid."""
    vals = np.asarray(sample(rows[:, None], theta[None, :]), dtype=float)
    return np.broadcast_to(vals, vals.shape[:-2] + (rows.size, theta.size))


def _extend(sample: Callable[[np.ndarray, np.ndarray], np.ndarray], rows: np.ndarray,
            vals: np.ndarray, sub: np.ndarray, theta: np.ndarray, level: int) -> np.ndarray:
    """The samples of rows (radii) on every (n/level)-th node of the cap grid
    theta, from vals[..., sub, :], theirs on a coarser level that divides
    level: one model call on the nodes the coarser level lacks, and none
    evaluated twice. The model is called before anything else is allocated:
    blocks held across its call make the allocator return and re-fault the
    pages of its temporaries."""
    m = vals.shape[-1]
    nodes = theta[::theta.size // level].reshape(m, level // m)
    new = _sample_rows(sample, rows, nodes[:, 1:].ravel())
    vals = vals[..., sub, :]
    fine = np.empty(vals.shape + (level // m,))
    fine[..., 0] = vals
    fine[..., 1:] = new.reshape(vals.shape + (level // m - 1,))
    return fine.reshape(vals.shape[:-1] + (level,))


def _refine(sample: Callable[[np.ndarray, np.ndarray], np.ndarray], rows: np.ndarray,
            vals: np.ndarray, theta: np.ndarray, reduce: Callable[[np.ndarray], np.ndarray],
            out: np.ndarray, going: np.ndarray, last: tuple) -> np.ndarray:
    """out, the reduce of rows (radii) from vals, their samples on a level of
    the cap grid theta, carried on to the cap; none of the rows has settled
    there, and going and last are _settled's for that level. A going row
    doubles its level while the doubled level divides n, and any other row
    is completed to the cap, where its samples and their order are those of
    the one-level grid. Completions go in sub-blocks of block_rows(n) rows,
    and a doubling that would exceed BLOCK_POINTS splits the going rows into
    sub-blocks of block_rows(2m), so no reduce and no model call takes more
    than BLOCK_POINTS samples a quantity (or one row)."""
    n, idx, done = theta.size, np.arange(rows.size), np.zeros(rows.size, dtype=bool)
    while True:
        m = vals.shape[-1]
        double = 2 * m < n and n % (2 * m) == 0
        jump, step = np.flatnonzero(~done & ~(going & double)), block_rows(n)
        for i in range(0, jump.size, step):
            sub = jump[i:i + step]
            out[..., idx[sub]] = reduce(_extend(sample, rows[idx[sub]], vals, sub, theta, n))
        stay = np.flatnonzero(~done & going & double)
        if not stay.size:
            return out
        idx, last, step = idx[stay], tuple(a[..., stay] for a in last), block_rows(2 * m)
        if idx.size > step:
            for i in range(0, idx.size, step):
                sub, k = idx[i:i + step], min(step, idx.size - i)
                out[..., sub] = _refine(sample, rows[sub], vals[..., stay[i:i + k], :], theta,
                                        reduce, out[..., sub], np.ones(k, dtype=bool),
                                        tuple(a[..., i:i + k] for a in last))
            return out
        fine = _extend(sample, rows[idx], vals, stay, theta, 2 * m)
        level = reduce(fine)
        done, going, last = _settled(level, out[..., idx], last)
        out[..., idx] = level
        vals = fine


def _circle_reduce(sample: Callable[[np.ndarray, np.ndarray], np.ndarray], r, n: int,
                   reduce: Callable[[np.ndarray], np.ndarray], nested: bool = True) -> np.ndarray:
    """reduce(sample(t[:, None], theta[None, :])) along the angle (the last
    axis) for every radius t of r, theta being the n equispaced nodes of
    quadrature.circle_nodes or, for a row that settles earlier, every
    (n/m)-th of them; the last axis of the result runs over r.

    Every quantity defined on the circles |z| = t is one such reduction, and
    circle_size (circle_size_of for a bare function) gives a
    rotation-invariant map a single node, so invariance is a grid size
    rather than a separate code path. The periodic trapezoid rule
    converges geometrically on an analytic integrand, so when FIRST_STOP
    divides n and is less than it, every circle is sampled first on
    FIRST_STOP of the n nodes, in one model call per block of
    block_rows(FIRST_STOP) radii, and read at 16, 32 and 64 nodes. A row stops
    there once _settled finds its two level differences at round-off; the
    others go on (_refine): level by level while their differences fall
    geometrically, straight to the cap once they do not.
    A row that reaches the cap ends with the samples and order of a
    one-level reduction. nested=False, or an n that FIRST_STOP does not
    divide, takes that one level, n nodes, for every row, in blocks of
    block_rows(n) radii. No (t, theta) point is evaluated twice. Each row
    is reduced and stopped on its own, so the values do not depend on the
    blocking."""
    t = np.atleast_1d(np.asarray(r, dtype=float))
    theta = circle_nodes(n)
    nested = nested and n > FIRST_STOP and n % FIRST_STOP == 0
    first = theta[::n // FIRST_STOP].copy() if nested else theta
    parts, step = [], block_rows(first.size)
    for start in range(0, t.size, step):
        rows = t[start:start + step]
        vals = _sample_rows(sample, rows, first)
        if nested:
            out, half = np.array(reduce(vals), dtype=float), reduce(vals[..., ::2])
            done, going, last = _settled(out, half, _difference(half, reduce(vals[..., ::4])))
            todo = np.flatnonzero(~done)
            if todo.size < rows.size:  # let the settled rows' samples go before refining
                vals = vals[..., todo, :]
            if todo.size:
                out[..., todo] = _refine(sample, rows[todo], vals, theta, reduce, out[..., todo],
                                         going[todo], tuple(a[..., todo] for a in last))
            parts.append(out)
        else:
            parts.append(reduce(vals))
    return np.concatenate(parts, axis=-1)


def evaluation_grid(model: MappingModel, r, theta) -> tuple[np.ndarray, np.ndarray, tuple]:
    """(r, theta, shape): the points at which model is evaluated to know its
    circle quantities on the broadcast grid of r and theta, and that grid's
    shape. A theta-invariant model keeps the first angle only."""
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    shape = np.broadcast_shapes(r.shape, theta.shape)
    if model.theta_invariant and theta.size:
        theta = np.asarray(theta.flat[0])
    return r, theta, shape


def jacobian_grid(model: MappingModel, r: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Jacobian (1/r) Im(conj(f_r) f_theta) on a broadcastable grid.

    The model is evaluated on evaluation_grid's points, so a theta-invariant
    model costs one angle, and the result may be a read-only broadcast view of
    the full grid. Raises DegenerateJacobian when any computed value drops
    below -1e-12; values in [-1e-12, 0] are clamped to 0.
    """
    r, theta, shape = evaluation_grid(model, r, theta)
    return np.broadcast_to(_jacobian_and_ft(model, r, theta)[0], shape)


def fd_model(value: ComplexFn, label: str, theta_invariant: bool = False) -> MappingModel:
    """Wrap a value-only map with vectorized finite-difference partials of
    steps h_r = 1e-5 r and h_theta = 1e-5 (truncation vs roundoff): central
    differences, and in r the second-order one-sided (3 f(r) - 4 f(r-h) +
    f(r-2h)) / 2h where r + h > 1, so no stencil leaves the closed disc."""

    def partial_r(r, theta):
        r = np.asarray(r, dtype=float)
        h = 1e-5 * r
        rim = r + h > 1.0
        ahead, behind = value(np.where(rim, r, r + h), theta), value(r - h, theta)
        diff = ahead - behind
        if rim.any():
            diff = np.where(rim, 3.0 * ahead - 4.0 * behind + value(r - 2.0 * h, theta), diff)
        return diff / (2.0 * h)

    def partial_theta(r, theta):
        theta = np.asarray(theta, dtype=float)
        h = 1e-5
        return (value(r, theta + h) - value(r, theta - h)) / (2.0 * h)

    return MappingModel(label=label, value=value, partial_r=partial_r,
                        partial_theta=partial_theta, theta_invariant=theta_invariant)


def min_max_modulus(model: MappingModel, r, cfg: QuadratureConfig) -> tuple:
    """(min, max) of |f| over the circle |z| = r, sampled at the
    circle_size(model, cfg.n_theta) equispaced angles of the run's grid.

    r is one radius, giving two floats, or an array of rungs, giving two arrays
    from one _circle_reduce over the (rung, theta) grid. Every row takes all
    the nodes (nested=False): extremes that agree on two coarser levels can
    still sit off an extremum between their nodes. Equispaced sampling
    without local refinement; exact for rotationally symmetric maps,
    resolution-limited otherwise.
    """
    _check_radii(r)
    lo, hi = _circle_reduce(lambda t, th: np.abs(np.asarray(model.value(t, th))), r,
                            circle_size(model, cfg.n_theta),
                            lambda mod: np.stack([mod.min(axis=-1), mod.max(axis=-1)]),
                            nested=False)
    return (lo, hi) if np.ndim(r) else (float(lo[0]), float(hi[0]))


def validate_model(model: MappingModel) -> None:
    """Cheap sanity checks for ingested maps, on every one of 256 angles of
    16 circles from r = 1e-3 to 0.95: continuity (no jump between neighbour
    nodes beyond 20 times max |f| times the angle step), strict Jacobian
    positivity, and for a map flagged theta_invariant, |f| and J constant
    around the circle to 1e-9 relative."""
    th = circle_nodes(256)
    for r in np.geomspace(1e-3, 0.95, 16):
        rr = np.full(th.size, r)
        v = np.asarray(model.value(rr, th))
        jumps = np.abs(np.diff(np.concatenate([v, v[:1]])))
        scale = max(float(np.max(np.abs(v))), 1e-30)
        if float(np.max(jumps)) > 20.0 * scale * (TWO_PI / th.size):
            raise ConfigError(
                f"{model.label!r} looks discontinuous on circle r={r:.4g}")
        jac = _jacobian_and_ft(model, rr, th)[0]
        if np.any(jac <= 0.0):
            raise DegenerateJacobian(
                f"{model.label!r} has non-positive Jacobian on circle r={r:.4g}")
        if model.theta_invariant:
            for name, q in (("|f|", np.abs(v)), ("J", jac)):
                if np.ptp(q) > 1e-9 * np.max(q):
                    raise ConfigError(f"{model.label!r} is flagged theta_invariant, but "
                                      f"{name} varies around circle r={r:.4g}")


def json_object(doc, what: str, *keys: str) -> dict:
    """doc, checked to be a JSON object that holds every one of keys; anything
    else is a ConfigError naming what the document should be."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(doc).__name__}")
    missing = [key for key in keys if key not in doc]
    if missing:
        raise ConfigError(f"{what} lacks the key(s) {', '.join(map(repr, missing))}")
    return doc


def json_real(doc, key: str, what: str) -> float:
    """doc[key], checked to be present and a JSON number, as a float."""
    value = json_object(doc, what, key)[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} needs a number for {key!r}, got {value!r}")
    return float(value)


def sample_table(doc, what: str, columns: tuple[str, ...]) -> np.ndarray:
    """doc["samples"], checked to be >= 3 rows of finite numbers in the named
    columns, the first one strictly increasing radii, as a float array."""
    samples = json_object(doc, what, "samples")["samples"]
    try:
        table = np.asarray(samples, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} samples must be rows of numbers: {exc}") from exc
    if table.ndim != 2 or table.shape[1] != len(columns) or table.shape[0] < 3:
        raise ConfigError(f"{what} needs >= 3 sample rows [{', '.join(columns)}]")
    if not np.isfinite(table).all():
        raise ConfigError(f"{what} samples must be finite numbers")
    if not np.all(np.diff(table[:, 0]) > 0):
        raise ConfigError(f"{what} radii must be strictly increasing")
    return table


def map_from_json(doc) -> MappingModel:
    """Ingest a custom map from its JSON document.

    Supported forms:
      {"type": "radial_profile", "samples": [[r, R], ...]}  (monotone r and R)
      {"type": "catalog", "name": ..., "params": {...}}
    A document of any other shape is a ConfigError.
    """
    kind = json_object(doc, "a map document").get("type")
    if kind == "radial_profile":
        r, R = sample_table(doc, "radial_profile", ("r", "R")).T
        if not np.all(np.diff(R) > 0):
            raise ConfigError("radial_profile values must be strictly increasing")
        interp = pchip(r, R)
        profile = RadialProfile(R=interp, R_prime=lambda t: interp(t, nu=1))
        return model_from_profile(profile, label="radial_profile")
    if kind == "catalog":
        from . import catalog  # local import: catalog depends on this module
        name = json_object(doc, "a catalog document", "name")["name"]
        params = json_object(doc.get("params", {}), "catalog params")
        return catalog.from_name(str(name), **params).model
    raise ConfigError(f"unknown map document type {kind!r}")
