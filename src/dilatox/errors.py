"""Exception hierarchy shared by all dilatox modules."""


class ToolkitError(Exception):
    """Base class for all dilatox errors."""


class ConfigError(ToolkitError):
    """Invalid configuration or parameter range."""


class NonFiniteDerivative(ToolkitError):
    """A partial derivative evaluated to NaN or a non-flagged infinity."""


class DegenerateJacobian(ToolkitError):
    """Jacobian negative beyond tolerance: the regularity contract is violated."""


class EmptyRange(ToolkitError):
    """An integration range is empty or inverted."""


class NonPositiveImag(ToolkitError):
    """Im(conj(sigma)) <= 0 where positivity is required."""


class ComplexDrift(ToolkitError):
    """i*sigma(r) has a non-negligible imaginary part on the integration span."""


class BlowUp(ToolkitError):
    """The radial ODE solution became non-finite or exceeded the growth cap."""

