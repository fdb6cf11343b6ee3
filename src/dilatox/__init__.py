"""dilatox: angular-dilatation functionals of disc homeomorphisms.

Computes the p-angular dilatation of regular homeomorphisms of the unit disc,
its circular and disc means, length-area functionals, numerically verifies the
associated inequalities and asymptotic-ratio bounds, and solves the radially
symmetric nonlinear Beltrami equation with an exact-solution oracle.

The public names below are imported from their modules on first access
(PEP 562), so `import dilatox` loads neither numpy nor any numeric module.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the module that defines it
_HOMES = {
    "ToolkitError": "errors",
    "ConfigError": "errors",
    "MappingModel": "mapping",
    "RadialProfile": "mapping",
    "QuadratureConfig": "config",
    "BoundReport": "verifier",
    "LimitProxy": "verifier",
    "RadiusLadder": "config",
}

__all__ = ["__version__", *_HOMES]


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOMES))
