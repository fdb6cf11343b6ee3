"""The in-tree Romberg table against scipy.integrate.romb: the same Richardson
table in the same order of operations, so every result is bit-identical; and
the range of QuadratureConfig.r_min."""

import math

import numpy as np
import pytest
from scipy.integrate import romb as scipy_romb

from dilatox.errors import ConfigError
from dilatox.quadrature import EPS_TRUNC, QuadratureConfig, romb


@pytest.mark.parametrize("k", range(13))
def test_romb_bit_identical_to_scipy(k):
    rng = np.random.default_rng(k)
    n = 2 ** k + 1
    smooth = np.exp(np.linspace(-14.0, -0.7, n)) * (1.0 + 0.3 * np.sin(np.arange(n)))
    noise = rng.standard_normal(n)
    block = rng.standard_normal((7, n)) * np.geomspace(1e-6, 1e3, 7)[:, None]
    row_dx = rng.uniform(1e-4, 1.0, 7)
    cases = [
        (smooth, 6.7e-4, -1),
        (noise, 0.37, 0),
        (block, 0.37, -1),
        (block, row_dx, -1),
        (block.T, 0.37, 0),
        (block.T, row_dx, 0),
        (np.ascontiguousarray(block.T), row_dx, 0),
    ]
    for y, dx, axis in cases:
        ours = romb(y, dx=dx, axis=axis)
        ref = scipy_romb(y, dx=dx, axis=axis)
        assert np.shape(ours) == np.shape(ref)
        assert np.array_equal(ours, ref), (y.shape, np.ndim(dx), axis)


@pytest.mark.parametrize("k", range(1, 13))
def test_romb_rejects_counts_off_the_power_grid(k):
    with pytest.raises(ValueError):
        romb(np.ones(2 ** k + 2))
    with pytest.raises(ValueError):
        romb(np.ones((3, 2 ** k + 2)), axis=-1)


def test_romb_rejects_single_sample():
    with pytest.raises(ValueError):
        romb(np.ones(1))


def test_r_min_lies_between_eps_trunc_and_one():
    # every rung of a valid ladder then lies above both truncation radii
    assert QuadratureConfig(r_min=EPS_TRUNC).r_min == EPS_TRUNC
    for r_min in (EPS_TRUNC / 2.0, 1e-9, 0.0, 1.0, math.nan):
        with pytest.raises(ConfigError, match="r_min"):
            QuadratureConfig(r_min=r_min)
