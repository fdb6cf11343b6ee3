"""The frozen settings of a run: the quadrature grid sizes, the radius ladder
and the truncation radius EPS_TRUNC that every rung lies above.

This module loads no numpy, so the command line reads its defaults here
without importing the numerics; `quadrature` and `verifier` re-export these
names. Building a ladder loads numpy, since `RadiusLadder.radii` computes its
rungs with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ConfigError

if TYPE_CHECKING:
    import numpy as np

# Truncation radius of the inner radial integral; every rung of a radius
# ladder lies strictly above it (RadiusLadder checks its deepest rung).
EPS_TRUNC = 1e-6


@dataclass(frozen=True)
class QuadratureConfig:
    """Grid sizes used by every integral functional. n_theta is the cap of
    the trapezoid levels of a circle: read first at 16, 32 and 64 of its
    nodes, a circle stops there or at a doubled level once its reduction is
    at round-off, and otherwise ends at n_theta nodes. The area and the |f|
    extremes (mapping.min_max_modulus) read all n_theta nodes."""

    n_theta: int = 512
    n_r: int = 1024

    def __post_init__(self):
        if self.n_theta < 16 or self.n_theta % 2 != 0:
            raise ConfigError(f"n_theta must be even and >= 16, got {self.n_theta}")
        if self.n_r < 16:
            raise ConfigError(f"n_r must be >= 16, got {self.n_r}")


@dataclass(frozen=True)
class RadiusLadder:
    """Geometric radius ladder r_max * rho^j, the numerical stand-in for r -> 0.
    Its deepest rung lies strictly above EPS_TRUNC, the anchor of the inner
    radial integral, so every rung fits every integral."""

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
        deepest = self.radii()[-1]
        if not deepest > EPS_TRUNC:
            raise ConfigError(f"deepest rung r_max*rho^(count-1) = {deepest:.3e} must lie "
                              f"above EPS_TRUNC = {EPS_TRUNC:g}")

    def radii(self) -> np.ndarray:
        """Rungs in decreasing order, from r_max toward 0."""
        import numpy as np

        return self.r_max * self.rho ** np.arange(self.count)

    def tail_radii(self) -> np.ndarray:
        return self.radii()[-self.tail:]
