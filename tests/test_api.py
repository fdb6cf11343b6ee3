"""The public API: every name in dilatox.__all__ imports from the package and
is its home module's object, and the config names keep their earlier homes."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import dilatox
from dilatox import config


@pytest.mark.parametrize("name", [n for n in dilatox.__all__ if n != "__version__"])
def test_public_name_is_its_home_modules_object(name):
    namespace = {}
    exec(f"from dilatox import {name}", namespace)
    obj = namespace[name]
    assert getattr(importlib.import_module(obj.__module__), name) is obj
    assert getattr(dilatox, name) is obj
    assert name in dir(dilatox)


def test_version_and_unknown_names():
    assert dilatox.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="has no attribute 'nonexistent'"):
        dilatox.nonexistent  # noqa: B018


def test_config_names_keep_their_earlier_homes():
    # bench/worker.py, the README and the tests import them from here
    from dilatox.quadrature import EPS_TRUNC, QuadratureConfig
    from dilatox.verifier import RadiusLadder

    assert QuadratureConfig is config.QuadratureConfig
    assert RadiusLadder is config.RadiusLadder
    assert EPS_TRUNC == config.EPS_TRUNC == 1e-6


def _bench_tracer():
    """bench/tracer.py, loaded by path without entering sys.modules."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_names_the_bench_calls_exist():
    # the tracer wraps each of these by name, and bench/worker.py builds
    # verifier.RadiusLadder; a name gone from its module would leave a layer
    # untimed
    tracer = _bench_tracer()
    traced = [(module, fn) for module, fns in tracer.TRACED.items() for fn in fns]
    for module, fn in [*traced, tracer.ROMB]:
        assert callable(getattr(importlib.import_module(f"dilatox.{module}"), fn, None)), (
            module, fn)
    from dilatox import quadrature, verifier

    assert verifier.RadiusLadder is config.RadiusLadder
    # callers pass nested= by keyword, through the tracer's wrapper, which
    # hands the keywords on as they are
    nested = inspect.signature(quadrature.integrate_radial).parameters["nested"]
    assert nested.kind in (inspect.Parameter.POSITIONAL_OR_KEYWORD,
                           inspect.Parameter.KEYWORD_ONLY)
