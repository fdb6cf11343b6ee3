"""Numerical verification of the length-area lemmas and the asymptotic-ratio
theorems, with limit proxies over a geometric radius ladder.

Every check evaluates both sides of its inequality greater >= lesser on the
ladder rungs, or at the deepest rung for a theorem, and _finish reports the
signed margins greater - lesser. "holds" means margin >= -tolerance on every
row, where the tolerance is the sum of three parts:
  * the base term 1e-9 + 1e-6 * max(|greater|, |lesser|), functionals.tolerance;
  * truncation slack TRUNC_SAFETY * |expo| * |bound| * rel_delta, for a bound
    C * I^expo built on a truncated inner integral I whose relative
    refinement delta is rel_delta;
  * the tail spread of the limit proxies that the row compares.
The report's margin is the least row margin, so a -inf row shows. A statement
whose limit cannot be certified is "vacuous": it holds with margin +inf.
Otherwise a NaN row (a NaN side, or inf - inf) is a FloatingPointError that
names the check.

Each statement applies in one of three regimes of the order p: ANY_P (the
length-area lemmas), HIGH_P (p > 2) and LOW_P (1 < p < 2). A LimitProxy stands
in for a limit as r -> 0: the tail min ("liminf"), the tail max ("limsup") or
the tail midpoint ("limit"). CHECKS lists the checks with their regimes, and
run_checks runs them. A theorem's result is its report: a BoundReport subclass
that adds its tail constants and bound, which quantities() gives for JSON.

A theorem computes the sequences of its limits on the tail rungs alone
(RadiusLadder.tail_radii): the |f| extremes, the inner integrals (the pass
from EPS_TRUNC to the tail is a prefix of the one to every rung, with the
same segments and bits) and theorem 7's area ratio. Two sequences take every
rung: theorem 1's disc means, since _divergent reads the whole ladder, and
each outer integral (_outer_tail), since its pass from 1 crosses every rung.
"""

from __future__ import annotations

import functools
import json
import math
from array import array
from dataclasses import asdict, dataclass, fields
from typing import Callable

import numpy as np

from .config import RadiusLadder
from .errors import ConfigError
from .functionals import (
    area,
    area_rate,
    boundary_length,
    circular_dilatation_mean,
    dilatation_grid,
    dilatation_radial_fn,
    disc_mean,
    disc_power_mean,
    length_area_sides,
    radial_integral_inner,
    radial_integral_outer,
    tolerance,
    _circle_power_mean,
    _order,
    _radial_integrand,
)
from .mapping import MappingModel, circle_size_of, min_max_modulus
from .quadrature import QuadratureConfig, integrate_radial

# flat tail_spread threshold operationalizing "|f(z)|/|z| has a single limit point"
SINGLE_LIMIT_SPREAD = 1e-3

# Richardson-halving deltas underestimate the true truncation error of the
# inner radial integral (the remainder shrinks like ~sqrt(eps), so one halving
# removes only ~30% of it); the safety factor covers the geometric tail.
TRUNC_SAFETY = 8.0


@dataclass(frozen=True)
class Regime:
    """The orders lo < p < hi that a statement of the paper applies to."""

    name: str
    lo: float
    hi: float

    def applies(self, p: float) -> bool:
        return self.lo < p < self.hi


ANY_P = Regime("p > 1", 1.0, math.inf)
HIGH_P = Regime("p > 2", 2.0, math.inf)
LOW_P = Regime("1 < p < 2", 1.0, 2.0)


def _trunc_slack(bound, expo: float, rel_delta):
    """Extra tolerance for a bound = C * I^expo built on a truncated integral
    I, propagated from I's relative refinement delta; 0 where not finite."""
    with np.errstate(invalid="ignore"):
        slack = np.abs(bound) * abs(expo) * TRUNC_SAFETY * rel_delta
    return np.where(np.isfinite(slack), slack, 0.0)


def _power(base, expo: float, factor: float = 1.0):
    """factor * base ** expo in float64, for a float or an array: the one
    place where a bound's power is taken. Every bound of the paper is a power
    whose exponent, 1/(p-2) or 1/(2-p), blows up at p = 2, so a bound may
    legitimately be +inf, a held row. Each caller raises one product to the
    power, since near p = 2 its factors would overflow and underflow apart.
    The result is +inf where it overflows, and where base <= 0 under a
    negative exponent, since a vanishing tail constant bounds nothing; NaN
    stays NaN, for _finish to report. A float takes numpy's scalar power,
    which rounds as Python's does but gives +inf where Python's raises
    OverflowError, and an array the array power: the two round differently
    in the last bit on some inputs."""
    x = base if isinstance(base, np.ndarray) else np.float64(base)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        value = factor * x ** expo
    if expo < 0.0:
        value = np.where(x <= 0.0, math.inf, value)
    return value if isinstance(base, np.ndarray) else float(value)


def growth_bound(p: float, k) -> float:
    """The bound c_p k^{1/(p-2)} of theorem 1, p > 2, with the explicit constant
    c_p = 2^{(p-1)/(p-2)} (p-2)^{-1/(p-2)}, as the power 2 (2k/(p-2))^{1/(p-2)}.

    c_p is obtained by chaining the area upper bound on [r, 2r] with the
    annulus estimate at eps = r; see the derivation test for the p = 4 hand
    check.
    """
    p = _checked_order("growth_bound", HIGH_P, p)
    return _power(2.0 * k / (p - 2.0), 1.0 / (p - 2.0), 2.0)


@dataclass(slots=True)
class LimitProxy:
    """A limit as r -> 0 read off the ladder tail: its min ("liminf"), max
    ("limsup") or midpoint ("limit"), with the tail spread max - min."""

    kind: str
    value: float
    tail_spread: float

    @classmethod
    def from_tail(cls, kind: str, tail_values) -> "LimitProxy":
        vals = np.asarray(tail_values, dtype=float)
        lo, hi = float(np.min(vals)), float(np.max(vals))
        value = {"liminf": lo, "limsup": hi, "limit": (lo + hi) / 2.0}[kind]
        spread = hi - lo if math.isfinite(hi) and math.isfinite(lo) else math.inf
        return cls(kind=kind, value=value, tail_spread=spread)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(slots=True)
class BoundReport:
    """Per-inequality verdict with signed margins over the evaluated rungs.
    The margins are a float64 array.array, one per row: 8 bytes a row where
    a tuple boxes each float in 32, and it iterates as Python floats."""

    check_id: str
    p: float
    holds: bool
    margin: float
    radii: tuple[float, ...]
    margins: array
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

    def quantities(self) -> dict:
        """The fields a theorem's result adds to its report, ready for JSON,
        a LimitProxy as its to_dict(); {} for a lemma's bare report."""
        return {f.name: v.to_dict() if isinstance(v := getattr(self, f.name), LimitProxy) else v
                for f in fields(self)[len(fields(BoundReport)):]}


@functools.lru_cache(maxsize=64)
def _radii_tuple(raw: bytes) -> tuple[float, ...]:
    """The float64 radii packed in raw as a tuple of floats. A run's reports
    take their radii from a few ladders, so they share a few such tuples
    rather than each boxing its 5-40 radii afresh."""
    return tuple(np.frombuffer(raw).tolist())


def _finish(check_id: str, p: float, radii, greater, lesser, slack=0.0, notes=(), *,
            cls: type[BoundReport] = BoundReport, **named) -> BoundReport:
    """The report of greater >= lesser, one row per element of the broadcast
    arrays: margin greater - lesser, held within tolerance(greater, lesser)
    plus slack; the report's margin is the least row margin, -inf included.
    A "vacuous" note makes every margin +inf. Otherwise a NaN margin (a NaN
    side, or inf - inf) decides nothing and is a FloatingPointError. A
    theorem passes its result class as cls and that class's own fields as
    the named values."""
    radii, greater, lesser, slack = (a.ravel() for a in np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (radii, greater, lesser, slack))))
    if "vacuous" in notes:
        margins = np.full(greater.shape, math.inf)
    else:
        with np.errstate(invalid="ignore"):  # inf - inf is reported below
            margins = greater - lesser
        nan = np.isnan(margins)
        if nan.any():
            raise FloatingPointError(f"{check_id} at p={p:g}: NaN margin on {int(nan.sum())} "
                                     f"of {nan.size} row(s), from a NaN side or inf - inf")
    holds = bool(np.all(margins >= -(tolerance(greater, lesser) + slack)))
    return cls(check_id=check_id, p=p, holds=holds, margin=float(margins.min()),
               radii=_radii_tuple(radii.tobytes()), margins=array("d", margins.tobytes()),
               notes=tuple(sorted(notes)), **named)


def _checked_order(name: str, regime: Regime, p: float) -> float:
    """The order p as a float, once it is checked to lie in the regime,
    before any integral."""
    p = _order(p)
    if not regime.applies(p):
        raise ConfigError(f"{name} needs {regime.name}, got p={p}")
    return p


def _inner(model: MappingModel, p: float, rungs: np.ndarray, cfg: QuadratureConfig):
    """The inner radial integral at each of rungs as (values, relative
    refinement deltas, the set of flags)."""
    tv = radial_integral_inner(dilatation_radial_fn(model, p, cfg), rungs, p, cfg)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel_deltas = np.where(tv.value > 0.0, tv.refinement_delta / tv.value, 0.0)
    return tv.value, rel_deltas, set(tv.flags)


def _outer_tail(model: MappingModel, q: float, ladder: RadiusLadder,
                cfg: QuadratureConfig) -> np.ndarray:
    """r^{q-2} integral_r^1 dt/(t^{q-1} d_q(t)) at the tail rungs. The pass
    from 1 takes every rung: on the tail alone its upper segments would
    merge into one, and the values would change in their last bits."""
    r = ladder.radii()
    outer = radial_integral_outer(dilatation_radial_fn(model, q, cfg), r, q, cfg)
    return (r ** (q - 2.0) * outer)[-ladder.tail:]


def _ratio_proxy(kind: str, model: MappingModel, tail: np.ndarray,
                 cfg: QuadratureConfig) -> LimitProxy:
    """The proxy of |f(z)|/|z| over the tail rungs: liminf of min|f|/r,
    limsup of max|f|/r, or the limit of both together."""
    lo, hi = (m / tail for m in min_max_modulus(model, tail, cfg))
    return LimitProxy.from_tail(kind, {"liminf": lo, "limsup": hi,
                                       "limit": np.concatenate([lo, hi])}[kind])


# ----------------------------- lemma checks -----------------------------

def check_lemma1(model: MappingModel, p, ladder: RadiusLadder,
                 cfg: QuadratureConfig) -> BoundReport:
    """Differential inequality for the area functional, plus its length form.

    At each rung: S'(r) >= 2 pi^{(2-p)/2} r^{1-p} d_p^{-1}(r) S^{p/2}(r) and
    S'(r) >= L^p(r) / ((2 pi r)^{p-1} d_p(r)); the area row comes first.
    """
    p, r = _checked_order("lemma1", ANY_P, p), ladder.radii()
    sp, s = area_rate(model, r, cfg), area(model, r, cfg)
    ell, d = boundary_length(model, r, cfg), circular_dilatation_mean(model, r, p, cfg)
    inv_d = _power(d, -1.0)  # 0 where d_p = +inf, +inf where d_p = 0
    rhs_area = 2.0 * math.pi ** ((2.0 - p) / 2.0) * r ** (1.0 - p) * inv_d * s ** (p / 2.0)
    rhs_len = ell ** p * inv_d / (2.0 * math.pi * r) ** (p - 1.0)
    notes = ("zero-dilatation",) if np.isinf(inv_d).any() else ()
    return _finish("lemma1", p, r[:, None], sp[:, None], np.stack([rhs_area, rhs_len], axis=1),
                   notes=notes)


def check_length_area(model: MappingModel, p, r1: float, r2: float,
                      cfg: QuadratureConfig) -> BoundReport:
    """Integrated length-area principle on [r1, r2]:
    integral L^p(r) dr / ((2 pi r)^{p-1} d_p(r)) <= S(r2) - S(r1), the
    area gain taken as the integral of S' over [r1, r2] from the same
    circle samples (functionals.length_area_sides)."""
    p = _order(p)
    integral, area_gain = length_area_sides(model, p, r1, r2, cfg)
    return _finish("length_area", p, r2, area_gain, integral)


def check_lemma2(model: MappingModel, p, ladder: RadiusLadder,
                 cfg: QuadratureConfig) -> BoundReport:
    """Area upper bound for p > 2:
    S(r) <= pi (p-2)^{-2/(p-2)} (integral_r^1 dt/(t^{p-1} d_p(t)))^{-2/(p-2)}."""
    p, r = _checked_order("lemma2", HIGH_P, p), ladder.radii()
    integral = radial_integral_outer(dilatation_radial_fn(model, p, cfg), r, p, cfg)
    bound = _power((p - 2.0) * integral, -2.0 / (p - 2.0), math.pi)
    return _finish("lemma2", p, r, bound, area(model, r, cfg))


def check_lemma3(q_fn: Callable[[np.ndarray, np.ndarray], np.ndarray], p,
                 eps: float, cfg: QuadratureConfig) -> BoundReport:
    """Annulus estimate: the harmonic-type mean of q_p over [eps, 2 eps] is
    bounded by the disc average of Q^{1/(p-1)} over B_{2 eps}, for
    0 < eps < 1/2 (the circles of q_p must lie inside the disc)."""
    p = _order(p)
    if not 0.0 < eps < 0.5:
        raise ConfigError(f"eps must lie in (0, 1/2), so that B_(2 eps) lies inside "
                          f"the disc, got {eps}")
    n = circle_size_of(q_fn, eps, cfg.n_theta)
    mean = disc_power_mean(q_fn, 2.0 * eps, p, n, cfg)
    rhs = 2.0 ** (p - 1.0) * eps ** (p - 2.0) * mean.value
    # integral over [eps, 2 eps] of dt / (t^{p-1} q_p(t)), nested when the
    # circles of q_fn take several samples (quadrature._ladder_pass)
    inv_q = _radial_integrand(_circle_power_mean(q_fn, p, n), p)
    denom = integrate_radial(inv_q, eps, 2.0 * eps, cfg, nested=inv_q.nested)
    lhs = 1.0 / denom if denom > 0.0 else math.inf
    return _finish("lemma3", p, eps, rhs, lhs, notes=mean.flags)


def check_lemma4(model: MappingModel, p, ladder: RadiusLadder,
                 cfg: QuadratureConfig) -> BoundReport:
    """Area lower bound for 1 < p < 2:
    S(r) >= pi (2-p)^{2/(2-p)} (integral_0^r dt/(t^{p-1} d_p(t)))^{2/(2-p)}."""
    p, r = _checked_order("lemma4", LOW_P, p), ladder.radii()
    inner, rel_deltas, notes = _inner(model, p, r, cfg)
    expo = 2.0 / (2.0 - p)
    bound = _power((2.0 - p) * inner, expo, math.pi)
    return _finish("lemma4", p, r, area(model, r, cfg), bound,
                   _trunc_slack(bound, expo, rel_deltas), notes)


# ----------------------------- theorem checks -----------------------------

def _divergent(values: np.ndarray) -> bool:
    """Heuristic for a disc-mean sequence growing without bound along r -> 0:
    monotone increase along the ladder with at least a doubling overall."""
    finite = np.isfinite(values)
    if not finite.all():
        return True
    return bool(np.all(np.diff(values) > 0.0) and values[-1] > 2.0 * values[0])


@dataclass(slots=True, kw_only=True)
class Theorem1Result(BoundReport):
    k: LimitProxy
    bound: float
    attained: float


def theorem1_bound(model: MappingModel, p, ladder: RadiusLadder,
                   cfg: QuadratureConfig) -> Theorem1Result:
    """liminf |f(z)|/|z| <= c_p k^{1/(p-2)} with k the liminf disc-mean proxy.

    A divergent disc mean voids the hypothesis; the verdict is then vacuous.
    """
    p, tail = _checked_order("theorem1", HIGH_P, p), ladder.tail_radii()
    # the disc means take every rung, since _divergent reads the whole ladder
    mean = disc_mean(model, ladder.radii(), p, cfg)
    notes, means = set(mean.flags), mean.value
    k = LimitProxy.from_tail("liminf", means[-ladder.tail:])
    attained = _ratio_proxy("liminf", model, tail, cfg)
    if _divergent(means):
        notes.update(("divergent-mean", "vacuous"))
        bound, slack = math.inf, 0.0
    else:
        bound = growth_bound(p, k.value)
        # The inequality relates limits; when the proxies are still moving
        # (both sides decaying toward 0, say), their tail spreads measure the
        # unconverged part and widen the tolerance accordingly. bound_hi >=
        # bound, and an infinite bound holds without slack.
        bound_hi = growth_bound(p, k.value + k.tail_spread)
        slack = attained.tail_spread + (bound_hi - bound if math.isfinite(bound) else 0.0)
        if bound - attained.value < 0.0 <= bound - attained.value + slack:
            notes.add("proxy-slack")
    return _finish("theorem1", p, tail[-1], bound, attained.value, slack, notes,
                   cls=Theorem1Result, k=k, bound=bound, attained=attained.value)


@dataclass(slots=True, kw_only=True)
class TailBoundResult(BoundReport):
    k0: LimitProxy
    bound: float
    attained: float


def theorem3_bound(model: MappingModel, p, ladder: RadiusLadder,
                   cfg: QuadratureConfig) -> TailBoundResult:
    """liminf |f(z)|/|z| <= (p-2)^{1/(2-p)} k0^{1/(2-p)} with
    k0 = limsup r^{p-2} integral_r^1 dt/(t^{p-1} d_p(t)), p > 2."""
    p, tail = _checked_order("theorem3", HIGH_P, p), ladder.tail_radii()
    k0 = LimitProxy.from_tail("limsup", _outer_tail(model, p, ladder, cfg))
    attained = _ratio_proxy("liminf", model, tail, cfg)
    bound = _power((p - 2.0) * k0.value, 1.0 / (2.0 - p))
    bound_hi = _power((p - 2.0) * (k0.value - k0.tail_spread), 1.0 / (2.0 - p))
    slack = attained.tail_spread + (bound_hi - bound if math.isfinite(bound_hi) else 0.0)
    return _finish("theorem3", p, tail[-1], bound, attained.value, slack,
                   cls=TailBoundResult, k0=k0, bound=bound, attained=attained.value)


def theorem5_bound(model: MappingModel, p, ladder: RadiusLadder,
                   cfg: QuadratureConfig) -> TailBoundResult:
    """limsup |f(z)|/|z| >= (2-p)^{1/(2-p)} k0^{1/(2-p)} with
    k0 = limsup r^{p-2} integral_0^r dt/(t^{p-1} d_p(t)), 1 < p < 2."""
    p, tail = _checked_order("theorem5", LOW_P, p), ladder.tail_radii()
    inner, rel_deltas, notes = _inner(model, p, tail, cfg)
    k0 = LimitProxy.from_tail("limsup", tail ** (p - 2.0) * inner)
    attained = _ratio_proxy("limsup", model, tail, cfg)
    bound = _power((2.0 - p) * k0.value, 1.0 / (2.0 - p))
    slack = _trunc_slack(bound, 1.0 / (2.0 - p), rel_deltas.max()) + attained.tail_spread
    return _finish("theorem5", p, tail[-1], attained.value, bound, slack, notes,
                   cls=TailBoundResult, k0=k0, bound=bound, attained=attained.value)


@dataclass(slots=True, kw_only=True)
class BracketResult(BoundReport):
    k1: LimitProxy
    k2: LimitProxy
    lower: float
    upper: float
    a_proxy: LimitProxy
    remark_rhs: float


def theorem6_bracket(model: MappingModel, p, ladder: RadiusLadder,
                     cfg: QuadratureConfig) -> BracketResult:
    """Two-sided bracket of A = lim |f(z)|/|z| for 1 < p < 2, via the inner
    integral at p and the outer integral at the conjugate order p', and the
    Remark's relation between the two tail constants."""
    p, tail = _checked_order("theorem6", LOW_P, p), ladder.tail_radii()
    pc = p / (p - 1.0)  # the conjugate order, in (2, inf)
    inner, rel_deltas, notes = _inner(model, p, tail, cfg)
    k1 = LimitProxy.from_tail("limsup", tail ** (p - 2.0) * inner)
    k2 = LimitProxy.from_tail("limsup", _outer_tail(model, pc, ladder, cfg))
    lower = _power((2.0 - p) * k1.value, 1.0 / (2.0 - p))
    upper = _power((pc - 2.0) * k2.value, 1.0 / (2.0 - pc))
    a_proxy = _ratio_proxy("limit", model, tail, cfg)
    remark_rhs = ((p - 1.0) ** (p - 1.0) / ((2.0 - p) ** p * k2.value ** (p - 1.0))
                  if k2.value > 0 else math.inf)
    if a_proxy.tail_spread > SINGLE_LIMIT_SPREAD:
        # the bracket presumes a single limit of |f(z)|/|z|; when the proxy
        # cannot certify one at this ladder depth the statement is vacuous
        notes.update(("no-single-limit", "vacuous"))
    a, spread, rel = a_proxy.value, a_proxy.tail_spread, rel_deltas.max()
    slack = [spread + _trunc_slack(lower, 1.0 / (2.0 - p), rel), spread,
             _trunc_slack(k1.value, 1.0, rel)]
    return _finish("theorem6", p, tail[-1], [a, upper, remark_rhs], [lower, a, k1.value],
                   slack, notes, cls=BracketResult, k1=k1, k2=k2, lower=lower, upper=upper,
                   a_proxy=a_proxy, remark_rhs=remark_rhs)


@dataclass(slots=True, kw_only=True)
class AreaDerivativeResult(BoundReport):
    limit_lower: LimitProxy
    limit_upper: LimitProxy
    area_ratio: LimitProxy


def theorem7_area_derivative(model: MappingModel, p, s, ladder: RadiusLadder,
                             cfg: QuadratureConfig) -> AreaDerivativeResult:
    """Existence of the area derivative at 0: the lower-bound limit at order p,
    the upper-bound limit at order s, and S(r)/(pi r^2) must all agree, each
    pair to within the sum of the three tail spreads."""
    p, tail = _checked_order("theorem7", LOW_P, p), ladder.tail_radii()
    s = _order(s)
    if not HIGH_P.applies(s):
        raise ConfigError(f"theorem7 needs s in {HIGH_P.name}, got s={s}")
    inner, rel_deltas, notes = _inner(model, p, tail, cfg)
    expo, expo_s = 2.0 / (2.0 - p), 2.0 / (2.0 - s)
    lower = _power((2.0 - p) * tail ** (p - 2.0) * inner, expo)
    upper = _power((s - 2.0) * _outer_tail(model, s, ladder, cfg), expo_s)
    ratio = area(model, tail, cfg) / (math.pi * tail * tail)
    proxies = [LimitProxy.from_tail("limit", vals) for vals in (lower, upper, ratio)]
    spread = sum(proxy.tail_spread for proxy in proxies)
    if spread > 3.0 * SINGLE_LIMIT_SPREAD:
        notes.add("no-single-limit")
    if not math.isfinite(proxies[1].value):
        # an infinite upper limit bounds nothing, so the statement is vacuous
        notes.update(("infinite-upper-bound", "vacuous"))
    # |a - b| <= spread, as min(a, b) + spread >= max(a, b), for the pairs
    # (lower, upper), (lower, ratio) and (upper, ratio)
    lo_v, up_v, ratio_v = (proxy.value for proxy in proxies)
    a, b = np.array([lo_v, lo_v, up_v]), np.array([up_v, ratio_v, ratio_v])
    slack = _trunc_slack(lower, expo, rel_deltas).max()
    return _finish("theorem7", p, tail[-1], np.minimum(a, b) + spread, np.maximum(a, b),
                   slack, notes, cls=AreaDerivativeResult, limit_lower=proxies[0],
                   limit_upper=proxies[1], area_ratio=proxies[2])


# ----------------------------- check registry -----------------------------

@dataclass(frozen=True)
class Check:
    """A registry entry: the check's name, the regime of orders p it applies
    to and its runner (model, p, ladder, cfg) -> BoundReport, which for a
    theorem is the theorem's whole result."""

    name: str
    regime: Regime
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
    Check("lemma1", ANY_P, lambda *a: check_lemma1(*a)),
    Check("length_area", ANY_P, _length_area),
    Check("lemma2", HIGH_P, lambda *a: check_lemma2(*a)),
    Check("lemma3", HIGH_P, _lemma3),
    Check("lemma4", LOW_P, lambda *a: check_lemma4(*a)),
    Check("theorem1", HIGH_P, lambda *a: theorem1_bound(*a)),
    Check("theorem3", HIGH_P, lambda *a: theorem3_bound(*a)),
    Check("theorem5", LOW_P, lambda *a: theorem5_bound(*a)),
    Check("theorem6", LOW_P, lambda *a: theorem6_bracket(*a)),
)


def run_checks(model: MappingModel, p: float, ladder: RadiusLadder, cfg: QuadratureConfig,
               names=()) -> list[BoundReport]:
    """Reports of the named checks in the order first named, each once, or of
    every check that applies at p. A name not in CHECKS, or a named check
    that does not apply, is a ConfigError before any check runs."""
    p = _order(p)
    by_name = {check.name: check for check in CHECKS}
    names = dict.fromkeys(names)
    if unknown := [name for name in names if name not in by_name]:
        raise ConfigError(f"unknown check(s) {unknown}; the checks are {list(by_name)}")
    chosen = [by_name[name] for name in names] or [c for c in CHECKS if c.regime.applies(p)]
    for check in chosen:
        _checked_order(check.name, check.regime, p)
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
    """Reports, each to_dict() and its margins, as deterministic, strict JSON."""
    return json_text([rep.to_dict() | {"margins": rep.margins.tolist()} for rep in reports])
