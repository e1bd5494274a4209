import doctest
import importlib
import pkgutil

import pytest

import blockperm

MODULES = [
    importlib.import_module(f"blockperm.{info.name}")
    for info in pkgutil.iter_modules(blockperm.__path__)
]


@pytest.mark.parametrize("module", MODULES)
def test_doctests(module):
    failures, _ = doctest.testmod(module)
    assert failures == 0
