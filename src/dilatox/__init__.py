"""dilatox: angular-dilatation functionals of disc homeomorphisms.

Computes the p-angular dilatation of regular homeomorphisms of the unit disc,
its circular and disc means, length-area functionals, numerically verifies the
associated inequalities and asymptotic-ratio bounds, and solves the radially
symmetric nonlinear Beltrami equation with an exact-solution oracle.
"""

__version__ = "0.1.0"

from .errors import ToolkitError, ConfigError
from .mapping import MappingModel, RadialProfile
from .quadrature import QuadratureConfig
from .verifier import BoundReport, LimitProxy, RadiusLadder

__all__ = [
    "__version__",
    "ToolkitError",
    "ConfigError",
    "MappingModel",
    "RadialProfile",
    "QuadratureConfig",
    "BoundReport",
    "LimitProxy",
    "RadiusLadder",
]
