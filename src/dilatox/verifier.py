"""Numerical verification of the length-area lemmas and the asymptotic-ratio
theorems, with liminf/limsup proxies over a geometric radius ladder.

Every check evaluates both sides of its inequality on the ladder rungs and
reports signed margins; "holds" means margin >= -tolerance everywhere, with
tolerance = 1e-9 absolute plus 1e-6 relative to the larger side. CHECKS lists
the checks with the orders p each applies to, and run_checks runs them.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError
from .functionals import (
    DilatationOrder,
    TruncatedValue,
    area,
    area_rate,
    boundary_length,
    circular_dilatation_mean,
    circular_mean,
    dilatation_grid,
    dilatation_radial_fn,
    disc_mean,
    radial_integral_inner,
    radial_integral_outer,
    _disc_integral,
    _order,
    _radial_integrand,
)
from .mapping import MappingModel, min_max_modulus
from .quadrature import QuadratureConfig, circle_nodes, integrate_radial

# flat tail_spread threshold operationalizing "|f(z)|/|z| has a single limit point"
SINGLE_LIMIT_SPREAD = 1e-3

# Richardson-halving deltas underestimate the true truncation error of the
# inner radial integral (the remainder shrinks like ~sqrt(eps), so one halving
# removes only ~30% of it); the safety factor covers the geometric tail.
TRUNC_SAFETY = 8.0


def _trunc_slack(bound: float, expo: float, tv: TruncatedValue) -> float:
    """Extra tolerance for a bound = C * value^expo built on a truncated
    integral, propagated from the integral's refinement delta."""
    if not (math.isfinite(bound) and math.isfinite(tv.value) and tv.value > 0.0
            and math.isfinite(tv.refinement_delta)):
        return 0.0
    return abs(bound) * abs(expo) * TRUNC_SAFETY * tv.refinement_delta / tv.value


def tolerance(lhs: float, rhs: float) -> float:
    """Inequality slack: 1e-9 absolute plus 1e-6 relative to the larger side."""
    scale = max(abs(lhs), abs(rhs))
    if not math.isfinite(scale):
        scale = 0.0
    return 1e-9 + 1e-6 * scale


def growth_constant(p: float) -> float:
    """The explicit constant c_p = 2^{(p-1)/(p-2)} (p-2)^{-1/(p-2)}, p > 2.

    Obtained by chaining the area upper bound on [r, 2r] with the annulus
    estimate at eps = r; see the derivation test for the p = 4 hand check.
    """
    if not p > 2.0:
        raise ConfigError(f"growth constant defined for p > 2, got {p}")
    return 2.0 ** ((p - 1.0) / (p - 2.0)) * (p - 2.0) ** (-1.0 / (p - 2.0))


@dataclass(frozen=True)
class RadiusLadder:
    """Geometric radius ladder r_max * rho^j, the numerical stand-in for r -> 0."""

    r_max: float = 0.5
    rho: float = 0.8
    count: int = 20
    tail: int = 5

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ConfigError(f"rho must lie in (0,1), got {self.rho}")
        if not self.count >= self.tail >= 3:
            raise ConfigError(f"need count >= tail >= 3, got count={self.count}, tail={self.tail}")
        if not 0.0 < self.r_max < 1.0:
            raise ConfigError(f"r_max must lie in (0,1), got {self.r_max}")

    def radii(self) -> np.ndarray:
        """Rungs in decreasing order, from r_max toward 0."""
        return self.r_max * self.rho ** np.arange(self.count)

    def tail_radii(self) -> np.ndarray:
        return self.radii()[-self.tail:]

    def validate_against(self, cfg: QuadratureConfig) -> None:
        if self.radii()[-1] < cfg.r_min:
            raise ConfigError(
                f"deepest rung {self.radii()[-1]:.3e} is below r_min={cfg.r_min:.3e}")


@dataclass
class LimitProxy:
    """Tail min (liminf) or max (limsup) over ladder rungs, with the tail spread."""

    kind: str
    value: float
    tail_spread: float

    @classmethod
    def from_tail(cls, kind: str, tail_values) -> "LimitProxy":
        vals = np.asarray(tail_values, dtype=float)
        lo, hi = float(np.min(vals)), float(np.max(vals))
        value = lo if kind == "liminf" else hi
        spread = hi - lo if math.isfinite(hi) and math.isfinite(lo) else math.inf
        return cls(kind=kind, value=value, tail_spread=spread)


@dataclass
class BoundReport:
    """Per-inequality verdict with signed margins over the evaluated rungs."""

    check_id: str
    p: float
    holds: bool
    margin: float
    radii: tuple[float, ...]
    margins: tuple[float, ...]
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "p": self.p,
            "holds": self.holds,
            "margin_min": self.margin,
            "radii": list(self.radii),
            "flags": list(self.notes),
        }


def _finish(check_id: str, p: float, radii, margins, tols, notes=()) -> BoundReport:
    margins = [float(m) for m in margins]
    holds = all(m >= -t for m, t in zip(margins, tols))
    finite = [m for m in margins if math.isfinite(m)]
    margin = min(finite) if finite else math.inf
    return BoundReport(check_id=check_id, p=p, holds=holds, margin=margin,
                       radii=tuple(float(r) for r in radii),
                       margins=tuple(margins), notes=tuple(notes))


# ----------------------------- lemma checks -----------------------------

def check_lemma1(model: MappingModel, p, ladder: RadiusLadder,
                 cfg: QuadratureConfig) -> BoundReport:
    """Differential inequality for the area functional, plus its length form.

    At each rung: S'(r) >= 2 pi^{(2-p)/2} r^{1-p} d_p^{-1}(r) S^{p/2}(r) and
    S'(r) >= L^p(r) / ((2 pi r)^{p-1} d_p(r)).
    """
    p = _order(p)
    ladder.validate_against(cfg)
    rungs = ladder.radii()
    radii, margins, tols, notes = [], [], [], set()
    for r, sp, s, ell, d in zip(rungs, area_rate(model, rungs, cfg).tolist(),
                                area(model, rungs, cfg).tolist(),
                                boundary_length(model, rungs, cfg).tolist(),
                                circular_dilatation_mean(model, rungs, p, cfg).tolist()):
        inv_d = 0.0 if math.isinf(d) else (math.inf if d == 0.0 else 1.0 / d)
        if math.isinf(inv_d):
            notes.add("zero-dilatation")
        rhs_area = 2.0 * math.pi ** ((2.0 - p) / 2.0) * r ** (1.0 - p) * inv_d * s ** (p / 2.0)
        rhs_len = ell ** p * inv_d / (2.0 * math.pi * r) ** (p - 1.0)
        for rhs in (rhs_area, rhs_len):
            radii.append(r)
            margins.append(sp - rhs)
            tols.append(tolerance(sp, rhs))
    return _finish("lemma1", p, radii, margins, tols, sorted(notes))


def check_length_area(model: MappingModel, p, r1: float, r2: float,
                      cfg: QuadratureConfig) -> BoundReport:
    """Integrated length-area principle on [r1, r2]:
    integral L^p(r) dr / ((2 pi r)^{p-1} d_p(r)) <= S(r2) - S(r1)."""
    p = _order(p)
    if not 0.0 < r1 < r2 < 1.0:
        raise ConfigError(f"need 0 < r1 < r2 < 1, got ({r1}, {r2})")
    dp_fn = dilatation_radial_fn(model, p, cfg)

    def integrand(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        ell = boundary_length(model, t, cfg)
        d = np.asarray(dp_fn(t), dtype=float)
        with np.errstate(divide="ignore"):
            out = ell ** p / ((2.0 * math.pi * t) ** (p - 1.0) * d)
        return np.where(np.isinf(d), 0.0, out)

    integral = integrate_radial(integrand, r1, r2, cfg)
    s1, s2 = area(model, np.array([r1, r2]), cfg).tolist()
    growth = s2 - s1
    margin = growth - integral
    return _finish("length_area", p, [r2], [margin], [tolerance(growth, integral)])


def check_lemma2(model: MappingModel, p, ladder: RadiusLadder,
                 cfg: QuadratureConfig) -> BoundReport:
    """Area upper bound for p > 2:
    S(r) <= pi (p-2)^{-2/(p-2)} (integral_r^1 dt/(t^{p-1} d_p(t)))^{-2/(p-2)}."""
    p = _order(p)
    if not p > 2.0:
        raise ConfigError(f"lemma2 needs p > 2, got {p}")
    ladder.validate_against(cfg)
    dp_fn = dilatation_radial_fn(model, p, cfg)
    rungs = ladder.radii()
    radii, margins, tols = [], [], []
    for r, s, integral in zip(rungs, area(model, rungs, cfg).tolist(),
                              radial_integral_outer(dp_fn, rungs, p, cfg).tolist()):
        bound = math.pi * (p - 2.0) ** (-2.0 / (p - 2.0)) * integral ** (-2.0 / (p - 2.0))
        radii.append(r)
        margins.append(bound - s)
        tols.append(tolerance(bound, s))
    return _finish("lemma2", p, radii, margins, tols)


def check_lemma3(q_fn: Callable[[np.ndarray, np.ndarray], np.ndarray], p,
                 eps: float, cfg: QuadratureConfig) -> BoundReport:
    """Annulus estimate: the harmonic-type mean of q_p over [eps, 2 eps] is
    bounded by the disc average of Q^{1/(p-1)} over B_{2 eps}, for
    0 < eps < 1/2 (the circles of q_p must lie inside the disc)."""
    p = _order(p)
    if not 0.0 < eps < 0.5:
        raise ConfigError(f"eps must lie in (0, 1/2), so that B_(2 eps) lies inside "
                          f"the disc, got {eps}")
    # integral over [eps, 2 eps] of dt / (t^{p-1} q_p(t))
    inv_q = _radial_integrand(lambda t: circular_mean(q_fn, t, p, cfg), p)
    denom = integrate_radial(inv_q, eps, 2.0 * eps, cfg)
    lhs = 1.0 / denom if denom > 0.0 else math.inf

    def sample(t, th):
        return np.asarray(q_fn(t, th), dtype=float) ** (1.0 / (p - 1.0))

    disc = float(_disc_integral(sample, 2.0 * eps, circle_nodes(cfg.n_theta), cfg)[0])
    avg = disc / (4.0 * math.pi * eps ** 2)
    rhs = 2.0 ** (p - 1.0) * eps ** (p - 2.0) * avg ** (p - 1.0)
    return _finish("lemma3", p, [eps], [rhs - lhs], [tolerance(rhs, lhs)])


def check_lemma4(model: MappingModel, p, ladder: RadiusLadder,
                 cfg: QuadratureConfig) -> BoundReport:
    """Area lower bound for 1 < p < 2:
    S(r) >= pi (2-p)^{2/(2-p)} (integral_0^r dt/(t^{p-1} d_p(t)))^{2/(2-p)}."""
    p = _order(p)
    if not 1.0 < p < 2.0:
        raise ConfigError(f"lemma4 needs 1 < p < 2, got {p}")
    ladder.validate_against(cfg)
    dp_fn = dilatation_radial_fn(model, p, cfg)
    rungs = ladder.radii()
    radii, margins, tols, notes = [], [], [], set()
    for r, s, inner in zip(rungs, area(model, rungs, cfg).tolist(),
                           radial_integral_inner(dp_fn, rungs, p, cfg)):
        notes.update(inner.flags)
        bound = math.pi * (2.0 - p) ** (2.0 / (2.0 - p)) * inner.value ** (2.0 / (2.0 - p))
        radii.append(r)
        margins.append(s - bound)
        tols.append(tolerance(s, bound) + _trunc_slack(bound, 2.0 / (2.0 - p), inner))
    return _finish("lemma4", p, radii, margins, tols, sorted(notes))


# ----------------------------- proxies and theorem checks -----------------------------

def _divergent(values: np.ndarray) -> bool:
    """Heuristic for a disc-mean sequence growing without bound along r -> 0:
    monotone increase along the ladder with at least a doubling overall."""
    finite = np.isfinite(values)
    if not finite.all():
        return True
    return bool(np.all(np.diff(values) > 0.0) and values[-1] > 2.0 * values[0])


@dataclass
class Theorem1Result:
    k: LimitProxy
    bound: float
    attained: float
    report: BoundReport


def theorem1_bound(model: MappingModel, p, ladder: RadiusLadder,
                   cfg: QuadratureConfig) -> Theorem1Result:
    """liminf |f(z)|/|z| <= c_p k^{1/(p-2)} with k the liminf disc-mean proxy.

    A divergent disc mean voids the hypothesis; the verdict is then vacuous.
    """
    p = _order(p)
    if not p > 2.0:
        raise ConfigError(f"theorem1 needs p > 2, got {p}")
    ladder.validate_against(cfg)
    rungs = ladder.radii()
    tvs = disc_mean(model, rungs, p, cfg)
    notes = {flag for tv in tvs for flag in tv.flags}
    means = np.array([tv.value for tv in tvs])
    k = LimitProxy.from_tail("liminf", means[-ladder.tail:])
    lo = min_max_modulus(model, rungs)[0] / rungs
    attained_proxy = LimitProxy.from_tail("liminf", lo[-ladder.tail:])
    attained = attained_proxy.value
    divergent = _divergent(means)
    if divergent:
        notes.add("divergent-mean")
        notes.add("vacuous")
        bound = math.inf
        report = _finish("theorem1", p, ladder.tail_radii(), [math.inf], [0.0], sorted(notes))
    else:
        bound = growth_constant(p) * k.value ** (1.0 / (p - 2.0))
        margin = bound - attained
        # The inequality relates limits; when the proxies are still moving
        # (both sides decaying toward 0, say), their tail spreads measure the
        # unconverged part and widen the tolerance accordingly.
        bound_hi = growth_constant(p) * (k.value + k.tail_spread) ** (1.0 / (p - 2.0))
        slack = attained_proxy.tail_spread + (bound_hi - bound)
        tol = tolerance(bound, attained) + slack
        if margin < 0.0 <= margin + slack:
            notes.add("proxy-slack")
        report = _finish("theorem1", p, [float(ladder.tail_radii()[-1])], [margin],
                         [tol], sorted(notes))
    return Theorem1Result(k=k, bound=bound, attained=attained, report=report)


@dataclass
class TailBoundResult:
    k0: LimitProxy
    bound: float
    attained: float
    report: BoundReport


def theorem3_bound(model: MappingModel, p, ladder: RadiusLadder,
                   cfg: QuadratureConfig) -> TailBoundResult:
    """liminf |f(z)|/|z| <= (p-2)^{1/(2-p)} k0^{1/(2-p)} with
    k0 = limsup r^{p-2} integral_r^1 dt/(t^{p-1} d_p(t)), p > 2."""
    p = _order(p)
    if not p > 2.0:
        raise ConfigError(f"theorem3 needs p > 2, got {p}")
    ladder.validate_against(cfg)
    dp_fn = dilatation_radial_fn(model, p, cfg)
    rungs = ladder.radii()
    vals = rungs ** (p - 2.0) * radial_integral_outer(dp_fn, rungs, p, cfg)
    k0 = LimitProxy.from_tail("limsup", vals[-ladder.tail:])
    lo = min_max_modulus(model, rungs)[0] / rungs
    attained_proxy = LimitProxy.from_tail("liminf", lo[-ladder.tail:])
    attained = attained_proxy.value
    bound = ((p - 2.0) * k0.value) ** (1.0 / (2.0 - p)) if k0.value > 0 else math.inf
    margin = bound - attained
    k0_lo = k0.value - k0.tail_spread
    bound_hi = (((p - 2.0) * k0_lo) ** (1.0 / (2.0 - p))
                if k0_lo > 0 else math.inf)
    slack = attained_proxy.tail_spread + (bound_hi - bound
                                          if math.isfinite(bound_hi) else 0.0)
    report = _finish("theorem3", p, [float(ladder.tail_radii()[-1])], [margin],
                     [tolerance(bound, attained) + slack])
    return TailBoundResult(k0=k0, bound=bound, attained=attained, report=report)


def theorem5_bound(model: MappingModel, p, ladder: RadiusLadder,
                   cfg: QuadratureConfig) -> TailBoundResult:
    """limsup |f(z)|/|z| >= (2-p)^{1/(2-p)} k0^{1/(2-p)} with
    k0 = limsup r^{p-2} integral_0^r dt/(t^{p-1} d_p(t)), 1 < p < 2."""
    p = _order(p)
    if not 1.0 < p < 2.0:
        raise ConfigError(f"theorem5 needs 1 < p < 2, got {p}")
    ladder.validate_against(cfg)
    dp_fn = dilatation_radial_fn(model, p, cfg)
    notes = set()
    rungs = ladder.radii()
    vals, rel_deltas = [], []
    for r, inner in zip(rungs, radial_integral_inner(dp_fn, rungs, p, cfg)):
        notes.update(inner.flags)
        vals.append(r ** (p - 2.0) * inner.value)
        rel_deltas.append(inner.refinement_delta / inner.value
                          if inner.value > 0 else 0.0)
    vals = np.array(vals)
    k0 = LimitProxy.from_tail("limsup", vals[-ladder.tail:])
    hi = min_max_modulus(model, rungs)[1] / rungs
    attained_proxy = LimitProxy.from_tail("limsup", hi[-ladder.tail:])
    attained = attained_proxy.value
    bound = ((2.0 - p) * k0.value) ** (1.0 / (2.0 - p))
    margin = attained - bound
    slack = (_trunc_slack(bound, 1.0 / (2.0 - p),
                          TruncatedValue(value=1.0,
                                         refinement_delta=max(rel_deltas[-ladder.tail:])))
             + attained_proxy.tail_spread)
    report = _finish("theorem5", p, [float(ladder.tail_radii()[-1])], [margin],
                     [tolerance(attained, bound) + slack], sorted(notes))
    return TailBoundResult(k0=k0, bound=bound, attained=attained, report=report)


@dataclass
class BracketResult:
    k1: LimitProxy
    k2: LimitProxy
    lower: float
    upper: float
    a_proxy: LimitProxy
    report: BoundReport


def theorem6_bracket(model: MappingModel, p, ladder: RadiusLadder,
                     cfg: QuadratureConfig) -> BracketResult:
    """Two-sided bracket of A = lim |f(z)|/|z| for 1 < p < 2, via the inner
    integral at p and the outer integral at the conjugate order p'."""
    p = _order(p)
    if not 1.0 < p < 2.0:
        raise ConfigError(f"theorem6 needs 1 < p < 2, got {p}")
    ladder.validate_against(cfg)
    pc = DilatationOrder(p).conjugate
    dp_fn = dilatation_radial_fn(model, p, cfg)
    dpc_fn = dilatation_radial_fn(model, pc, cfg)
    notes = set()
    rungs = ladder.radii()
    inner_vals, outer_vals, rel_deltas = [], [], []
    for r, inner, outer in zip(rungs, radial_integral_inner(dp_fn, rungs, p, cfg),
                               radial_integral_outer(dpc_fn, rungs, pc, cfg).tolist()):
        notes.update(inner.flags)
        inner_vals.append(r ** (p - 2.0) * inner.value)
        rel_deltas.append(inner.refinement_delta / inner.value
                          if inner.value > 0 else 0.0)
        outer_vals.append(r ** (pc - 2.0) * outer)
    k1 = LimitProxy.from_tail("limsup", np.array(inner_vals)[-ladder.tail:])
    k2 = LimitProxy.from_tail("limsup", np.array(outer_vals)[-ladder.tail:])
    lower = ((2.0 - p) * k1.value) ** (1.0 / (2.0 - p))
    upper = ((pc - 2.0) * k2.value) ** (1.0 / (2.0 - pc)) if k2.value > 0 else math.inf

    lo, hi = (m / rungs for m in min_max_modulus(model, rungs))
    tail = np.concatenate([lo[-ladder.tail:], hi[-ladder.tail:]])
    a_proxy = LimitProxy(kind="limit", value=float((tail.min() + tail.max()) / 2.0),
                         tail_spread=float(tail.max() - tail.min()))
    # the Remark's relation between the two constants
    remark_rhs = ((p - 1.0) ** (p - 1.0) / ((2.0 - p) ** p * k2.value ** (p - 1.0))
                  if k2.value > 0 else math.inf)
    rel_delta = max(rel_deltas[-ladder.tail:])
    k1_tv = TruncatedValue(value=1.0, refinement_delta=rel_delta)
    if a_proxy.tail_spread > SINGLE_LIMIT_SPREAD:
        # the bracket presumes a single limit of |f(z)|/|z|; when the proxy
        # cannot certify one at this ladder depth the statement is vacuous
        notes.update(("no-single-limit", "vacuous"))
        margins = [math.inf] * 3
        tols = [0.0] * 3
    else:
        margins = [a_proxy.value - lower, upper - a_proxy.value,
                   remark_rhs - k1.value]
        tols = [tolerance(a_proxy.value, lower) + a_proxy.tail_spread
                + _trunc_slack(lower, 1.0 / (2.0 - p), k1_tv),
                tolerance(upper, a_proxy.value) + a_proxy.tail_spread,
                tolerance(remark_rhs, k1.value) + _trunc_slack(k1.value, 1.0, k1_tv)]
    radii = [float(ladder.tail_radii()[-1])] * 3
    report = _finish("theorem6", p, radii, margins, tols, sorted(notes))
    return BracketResult(k1=k1, k2=k2, lower=lower, upper=upper, a_proxy=a_proxy,
                         report=report)


@dataclass
class AreaDerivativeResult:
    limit_lower: LimitProxy
    limit_upper: LimitProxy
    area_ratio: LimitProxy
    report: BoundReport


def theorem7_area_derivative(model: MappingModel, p, s, ladder: RadiusLadder,
                             cfg: QuadratureConfig) -> AreaDerivativeResult:
    """Existence of the area derivative at 0: the lower-bound limit at order p,
    the upper-bound limit at order s, and S(r)/(pi r^2) must all agree."""
    p = _order(p)
    s = _order(s)
    if not (1.0 < p < 2.0 < s):
        raise ConfigError(f"theorem7 needs 1 < p < 2 < s, got p={p}, s={s}")
    ladder.validate_against(cfg)
    dp_fn = dilatation_radial_fn(model, p, cfg)
    ds_fn = dilatation_radial_fn(model, s, cfg)
    notes = set()
    rungs = ladder.radii()
    lower_vals, upper_vals, ratio_vals, lower_slacks = [], [], [], []
    for r, inner, outer, s_r in zip(rungs, radial_integral_inner(dp_fn, rungs, p, cfg),
                                    radial_integral_outer(ds_fn, rungs, s, cfg).tolist(),
                                    area(model, rungs, cfg).tolist()):
        notes.update(inner.flags)
        lower_vals.append((2.0 - p) ** (2.0 / (2.0 - p))
                          * (r ** (p - 2.0) * inner.value) ** (2.0 / (2.0 - p)))
        lower_slacks.append(_trunc_slack(lower_vals[-1], 2.0 / (2.0 - p), inner))
        v = r ** (s - 2.0) * outer
        upper_vals.append((s - 2.0) ** (2.0 / (2.0 - s)) * v ** (2.0 / (2.0 - s))
                          if v > 0 else math.inf)
        ratio_vals.append(s_r / (math.pi * r * r))

    def mid_proxy(vals):
        tail = np.asarray(vals, dtype=float)[-ladder.tail:]
        return LimitProxy(kind="limit", value=float((tail.min() + tail.max()) / 2.0),
                          tail_spread=float(tail.max() - tail.min()))

    lower_p, upper_p, ratio_p = map(mid_proxy, (lower_vals, upper_vals, ratio_vals))
    spread = lower_p.tail_spread + upper_p.tail_spread + ratio_p.tail_spread
    if spread > 3.0 * SINGLE_LIMIT_SPREAD:
        notes.add("no-single-limit")
    pairs = [(lower_p.value, upper_p.value), (lower_p.value, ratio_p.value),
             (upper_p.value, ratio_p.value)]
    margins = [-(abs(a - b) - spread) for a, b in pairs]
    slack = max(lower_slacks[-ladder.tail:])
    tols = [tolerance(a, b) + slack for a, b in pairs]
    report = _finish("theorem7", p, [float(ladder.tail_radii()[-1])] * 3, margins, tols,
                     sorted(notes))
    return AreaDerivativeResult(limit_lower=lower_p, limit_upper=upper_p,
                                area_ratio=ratio_p, report=report)


# ----------------------------- check registry -----------------------------

@dataclass(frozen=True)
class Check:
    """A registry entry: the check's name, the orders p it applies to and its
    runner (model, p, ladder, cfg) -> BoundReport."""

    name: str
    applies: Callable[[float], bool]
    run: Callable[[MappingModel, float, RadiusLadder, QuadratureConfig], BoundReport]


def _length_area(model, p, ladder, cfg):
    """The length-area principle from the deepest rung to r_max."""
    return check_length_area(model, p, float(ladder.radii()[-1]), ladder.r_max, cfg)


def _lemma3(model, p, ladder, cfg):
    """The annulus estimate for q_p of the model at eps = min(1/4, r_max/2)."""
    def q_fn(rr, th):
        return dilatation_grid(model, np.asarray(rr, dtype=float), th, p)
    return check_lemma3(q_fn, p, min(0.25, ladder.r_max / 2.0), cfg)


# Every check in report order. Runners name their check at call time, so a
# function replaced on this module (a wrapper, say) is the one that runs.
CHECKS = (
    Check("lemma1", lambda p: True, lambda *a: check_lemma1(*a)),
    Check("length_area", lambda p: True, _length_area),
    Check("lemma2", lambda p: p > 2.0, lambda *a: check_lemma2(*a)),
    Check("lemma3", lambda p: p > 2.0, _lemma3),
    Check("lemma4", lambda p: p < 2.0, lambda *a: check_lemma4(*a)),
    Check("theorem1", lambda p: p > 2.0, lambda *a: theorem1_bound(*a).report),
    Check("theorem3", lambda p: p > 2.0, lambda *a: theorem3_bound(*a).report),
    Check("theorem5", lambda p: p < 2.0, lambda *a: theorem5_bound(*a).report),
    Check("theorem6", lambda p: p < 2.0, lambda *a: theorem6_bracket(*a).report),
)


def run_checks(model: MappingModel, p: float, ladder: RadiusLadder, cfg: QuadratureConfig,
               names=()) -> list[BoundReport]:
    """Reports of the named checks in the order first named, each once, or of
    every check that applies at p; a named check that does not apply is a
    ConfigError."""
    by_name = {check.name: check for check in CHECKS}
    names = dict.fromkeys(names)
    chosen = [by_name[name] for name in names] or [c for c in CHECKS if c.applies(p)]
    for check in chosen:
        if not check.applies(p):
            raise ConfigError(f"check {check.name!r} is not applicable at p={p}")
    return [check.run(model, p, ladder, cfg) for check in chosen]


# ----------------------------- report serialization -----------------------------

def _strict(obj):
    """obj with every non-finite float replaced by its name as a string."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return "NaN" if math.isnan(obj) else ("Infinity" if obj > 0 else "-Infinity")
    if isinstance(obj, dict):
        return {key: _strict(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(val) for val in obj]
    return obj


def json_text(doc) -> str:
    """doc as deterministic, strict RFC 8259 JSON: a non-finite number is
    written as the string "Infinity", "-Infinity" or "NaN"."""
    return json.dumps(_strict(doc), indent=2, sort_keys=True, allow_nan=False) + "\n"


def reports_to_json(reports: list[BoundReport]) -> str:
    """Verification matrix as deterministic, strict JSON."""
    return json_text([rep.to_dict() for rep in reports])


def margins_to_csv(reports: list[BoundReport], path) -> None:
    """Per-rung margins, one row per (check, rung)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["check_id", "p", "r", "margin"])
        for rep in reports:
            for r, m in zip(rep.radii, rep.margins):
                writer.writerow([rep.check_id, repr(rep.p), repr(r), repr(m)])
