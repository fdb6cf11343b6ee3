"""The public API: every name in dilatox.__all__ imports from the package and
is its home module's object, and the config names keep their earlier homes."""

import importlib

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
