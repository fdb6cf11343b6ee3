"""Shared fixtures: the default quadrature config, the default radius ladder,
the catalog map suite used by map-wide checks, a theta-dependent test map
with closed-form partials (a small conformal perturbation of the identity),
and a wrapper that records the size of every model call."""

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
