"""Shared fixtures: the default quadrature config, the default radius ladder,
the catalog map suite used by map-wide checks, theta-dependent test maps
with closed-form partials (a small conformal perturbation of the identity,
z + c z^2 with the bench's ten values of c, an affine map and a
piecewise-linear angular stretch), and a wrapper that records the size of
every model call."""

import math
from dataclasses import replace

import numpy as np
import pytest

from dilatox.catalog import (
    CatalogEntry,
    beltrami_exact,
    identity,
    linear,
    log_singular,
    radial_stretch,
)
from dilatox.mapping import MappingModel
from dilatox.quadrature import QuadratureConfig
from dilatox.verifier import RadiusLadder


@pytest.fixture(scope="session")
def cfg() -> QuadratureConfig:
    return QuadratureConfig()


@pytest.fixture(scope="session")
def ladder() -> RadiusLadder:
    return RadiusLadder()


def catalog_suite() -> list[CatalogEntry]:
    """The map suite for catalog-wide checks: one representative per family,
    each a sense-preserving self-map of the unit disc."""
    return [
        identity(),
        linear(0.5),
        radial_stretch(1.5),
        log_singular(3.0),
        beltrami_exact(m=1.0, kappa=0.8),
    ]


def suite_ids() -> list[str]:
    return [entry.model.label for entry in catalog_suite()]


def perturbed_conformal() -> MappingModel:
    """f(z) = z + 0.1 z^2: conformal, theta-dependent, with closed partials.

    D_p = |1 + 0.2 z|^{p-2} and J = |1 + 0.2 z|^2, which exercises every
    non-theta-invariant code path against elementary closed forms.
    """

    def zc(r, theta):
        return np.asarray(r) * np.exp(1j * np.asarray(theta))

    def value(r, theta):
        z = zc(r, theta)
        return z + 0.1 * z * z

    def partial_r(r, theta):
        z = zc(r, theta)
        return np.exp(1j * np.asarray(theta)) * (1.0 + 0.2 * z)

    def partial_theta(r, theta):
        z = zc(r, theta)
        return 1j * z * (1.0 + 0.2 * z)

    return MappingModel(label="perturbed_conformal", value=value,
                        partial_r=partial_r, partial_theta=partial_theta)


def angular_stretch() -> MappingModel:
    """f(r e^{i theta}) = r e^{i phi(theta)}, phi piecewise linear with slope
    1/2 on [0, 1) and (2pi - 1/2)/(2pi - 1) on [1, 2pi): Lipschitz, J = phi'
    > 0, d_p = 1 and S = pi r^2, but phi' jumps, so the trapezoid rule
    converges only to first order and some level differences are exactly 0."""
    slope = (2.0 * math.pi - 0.5) / (2.0 * math.pi - 1.0)

    def phi(theta):
        th = np.mod(theta, 2.0 * math.pi)
        return np.where(th < 1.0, 0.5 * th, 0.5 + slope * (th - 1.0))

    def dphi(theta):
        return np.where(np.mod(theta, 2.0 * math.pi) < 1.0, 0.5, slope)

    def value(r, theta):
        return np.asarray(r) * np.exp(1j * phi(theta))

    def partial_r(r, theta):
        return np.exp(1j * phi(theta)) + 0.0 * np.asarray(r)

    def partial_theta(r, theta):
        return 1j * np.asarray(r) * dphi(theta) * np.exp(1j * phi(theta))

    return MappingModel(label="angular_stretch", value=value, partial_r=partial_r,
                        partial_theta=partial_theta)


def affine(b: float) -> MappingModel:
    """f = (z + b conj(z)) / (1 + b): its circle means reach round-off at a
    trapezoid level that grows like 1/log(1/b), beyond 512 nodes near b = 1."""

    def value(r, theta):
        e = np.exp(1j * np.asarray(theta))
        return np.asarray(r) * (e + b * np.conj(e)) / (1.0 + b)

    def partial_r(r, theta):
        e = np.exp(1j * np.asarray(theta))
        return (e + b * np.conj(e)) / (1.0 + b) + 0.0 * np.asarray(r)

    def partial_theta(r, theta):
        e = np.exp(1j * np.asarray(theta))
        return 1j * np.asarray(r) * (e - b * np.conj(e)) / (1.0 + b)

    return MappingModel(label=f"affine({b})", value=value, partial_r=partial_r,
                        partial_theta=partial_theta)


# c of the bench's theta map z + c z^2 at seeds 1-10 (bench/plan.theta_c).
THETA_C = (0.1842563200884897, 0.056096840393221915, 0.13687551567187778,
           0.12456641121836216, 0.18040643340769935, 0.1357314454861856,
           0.17934343682913578, 0.06628622782845289, 0.1495281674881687,
           0.06458664511239887)


def quadratic(c: complex) -> MappingModel:
    """f = z + c z^2: |f| takes its extremes on |z| = r at theta = -arg c and
    pi - arg c, on a trapezoid node only when c is real. For real c it is
    evaluated with the operations of bench/worker.theta_map."""

    def value(r, theta):
        z = np.asarray(r) * np.exp(1j * np.asarray(theta))
        return z + c * z * z

    def partial_r(r, theta):
        e = np.exp(1j * np.asarray(theta))
        return e * (1.0 + 2.0 * c * (np.asarray(r) * e))

    def partial_theta(r, theta):
        z = np.asarray(r) * np.exp(1j * np.asarray(theta))
        return 1j * z * (1.0 + 2.0 * c * z)

    return MappingModel(label=f"quadratic({c})", value=value, partial_r=partial_r,
                        partial_theta=partial_theta)


def recording(model: MappingModel) -> tuple[MappingModel, dict[str, list[int]]]:
    """A copy of model whose value and partials append the number of points
    of each call (the broadcast size of r and theta) to the returned lists."""
    sizes = {"value": [], "partial_r": [], "partial_theta": []}

    def wrap(kind):
        fn = getattr(model, kind)

        def counted(r, theta):
            sizes[kind].append(np.broadcast(np.asarray(r), np.asarray(theta)).size)
            return fn(r, theta)

        return counted

    return replace(model, **{kind: wrap(kind) for kind in sizes}), sizes
