"""Closed-form example families: the linear map, the radial stretching, the
log-singular disc automorphism, and the exact radial Beltrami solution.

Each entry carries a model with analytic partials and its radial profile
R(r): every family is R(r) e^{i theta} up to a rotation, so the profile's
closed forms (mapping.RadialProfile: |f|/|z|, area, length and both radial
integrals) are the oracles for the quadrature-based functionals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .mapping import CubicHermite, MappingModel, RadialProfile, model_from_profile


@dataclass(frozen=True)
class CatalogEntry:
    """A model together with the radial profile R of |f|, f = R(r) e^{i theta}
    up to a rotation."""

    model: MappingModel
    profile: RadialProfile


def _slope_map(k: complex, label: str) -> CatalogEntry:
    """f(z) = k z with its profile R = |k| r; linear, identity and
    beltrami_exact are this map under their own labels and parameter checks."""
    k = complex(k)
    ak = abs(k)

    def value(r, theta):
        return k * np.asarray(r) * np.exp(1j * np.asarray(theta))

    def partial_r(r, theta):
        return k * np.exp(1j * np.asarray(theta)) * np.ones_like(np.asarray(r, dtype=float))

    def partial_theta(r, theta):
        return 1j * k * np.asarray(r) * np.exp(1j * np.asarray(theta))

    model = MappingModel(label=label, value=value, partial_r=partial_r,
                         partial_theta=partial_theta, theta_invariant=True)
    profile = RadialProfile(R=lambda r: ak * np.asarray(r, dtype=float),
                            R_prime=lambda r: np.full_like(np.asarray(r, dtype=float), ak))
    return CatalogEntry(model=model, profile=profile)


def linear(k: complex) -> CatalogEntry:
    """f(z) = k z with 0 < |k| <= 1."""
    k = complex(k)
    if not 0.0 < abs(k) <= 1.0:
        raise ConfigError(f"linear map needs 0 < |k| <= 1, got |k|={abs(k)}")
    k_str = f"{k.real:g}" if k.imag == 0.0 else f"{k.real:g}{k.imag:+g}j"
    return _slope_map(k, f"linear(k={k_str})")


def identity() -> CatalogEntry:
    """The identity map, the conformal equality case of every bound."""
    return _slope_map(1.0, "identity")


def radial_stretch(alpha: float) -> CatalogEntry:
    """f(z) = z |z|^alpha, alpha > 0: vanishing asymptotic ratio at the origin."""
    alpha = float(alpha)
    if not 0.0 < alpha < math.inf:
        raise ConfigError(f"radial stretch needs a finite alpha > 0, got {alpha}")
    profile = RadialProfile(
        R=lambda r: np.asarray(r, dtype=float) ** (alpha + 1.0),
        R_prime=lambda r: (alpha + 1.0) * np.asarray(r, dtype=float) ** alpha,
    )
    return CatalogEntry(model_from_profile(profile, label=f"radial_stretch(alpha={alpha:g})"),
                        profile)


class _LogSingularProfile:
    """Radial profile R = I(r)^{-1/(p-2)} of the log-singular automorphism.

    I(r) = 1 + (p-2) * integral_r^1 dt / (t^{p-1} ln^{p-1}(e/t)) has no
    elementary antiderivative. In v = -ln t its integrand w is tabulated once
    on a dense uniform grid; the antiderivative's node values come from the
    endpoint-corrected trapezoid rule and it is evaluated as the cubic Hermite
    interpolant with slopes w (relative error well below 1e-10 on
    [r_floor, 1]) on 6001 nodes.
    """

    r_floor = 1e-10

    def __init__(self, p: float):
        self.p = p
        # Tabulate in v = -ln t, integrating away from 1 where the integrand is
        # O(1): the antiderivative then equals I - 1 directly, avoiding the
        # catastrophic cancellation of differencing two huge running sums.
        v = np.linspace(0.0, -math.log(self.r_floor), 6001)
        h = v[1] - v[0]
        # integrand of I in v, (p-2) e^{(p-2)v} (1+v)^{1-p}, and its derivative
        w = (p - 2.0) * np.exp((p - 2.0) * v) * (1.0 + v) ** (1.0 - p)
        dw = w * ((p - 2.0) + (1.0 - p) / (1.0 + v))
        steps = 0.5 * h * (w[:-1] + w[1:]) + h * h / 12.0 * (dw[:-1] - dw[1:])
        self._anti = CubicHermite(v, np.concatenate([[0.0], np.cumsum(steps)]), w)

    def I(self, r):
        r = np.asarray(r, dtype=float)
        if np.any(r < self.r_floor) or np.any(r > 1.0):
            raise ConfigError(f"log-singular profile tabulated only on [{self.r_floor}, 1]")
        return 1.0 + self._anti(-np.log(r))

    def R(self, r):
        return self.I(r) ** (-1.0 / (self.p - 2.0))

    def R_prime(self, r):
        r = np.asarray(r, dtype=float)
        I = self.I(r)
        lg = 1.0 - np.log(r)  # ln(e/r)
        return I ** (-1.0 / (self.p - 2.0)) * r ** (1.0 - self.p) * lg ** (1.0 - self.p) / I


def log_singular(p: float) -> CatalogEntry:
    """The automorphism with D_p = ln^{p-1}(e/r): divergent disc mean at 0."""
    p = float(p)
    if not 2.0 < p < math.inf:
        raise ConfigError(f"log-singular automorphism needs a finite p > 2, got {p}")
    prof = _LogSingularProfile(p)
    profile = RadialProfile(R=prof.R, R_prime=prof.R_prime)
    return CatalogEntry(model_from_profile(profile, label=f"log_singular(p={p:g})"), profile)


def beltrami_exact(m: float, kappa: float) -> CatalogEntry:
    """f = kappa^{1/m} r e^{i theta}, the exact solution of the power-coefficient
    nonlinear Beltrami equation; linear with slope kappa^{1/m}."""
    m = float(m)
    kappa = float(kappa)
    if not (0.0 < m < math.inf and 0.0 < kappa < math.inf):
        raise ConfigError(f"beltrami_exact needs finite m > 0 and kappa > 0, got m={m}, "
                          f"kappa={kappa}")
    return _slope_map(kappa ** (1.0 / m), f"beltrami_exact(m={m:g},kappa={kappa:g})")


_FAMILIES = {
    "linear": linear,
    "identity": lambda: identity(),
    "radial_stretch": radial_stretch,
    "log_singular": log_singular,
    "beltrami_exact": beltrami_exact,
}


def from_name(name: str, **params) -> CatalogEntry:
    """Look up a catalog family by name and instantiate it."""
    if name not in _FAMILIES:
        raise ConfigError(f"unknown catalog map {name!r}; known: {sorted(_FAMILIES)}")
    try:
        return _FAMILIES[name](**params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad parameters for catalog map {name!r}: {exc}") from exc
