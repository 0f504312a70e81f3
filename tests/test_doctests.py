"""The docstring examples of every ``cubeforge`` module run as tests."""

import doctest
import importlib
import pkgutil

import pytest

import cubeforge

MODULES = sorted(m.name for m in pkgutil.iter_modules(cubeforge.__path__, "cubeforge."))
WITH_EXAMPLES = {"cubeforge.indices", "cubeforge.perms"}


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
    assert result.attempted > 0 or name not in WITH_EXAMPLES
