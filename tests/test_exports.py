"""Every exported name resolves, so a deletion cannot leave a dangling export."""

import importlib
import pkgutil

import pytest

import opendecay

MODULES = ["opendecay"] + [
    info.name
    for info in pkgutil.walk_packages(opendecay.__path__, prefix="opendecay.")
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from opendecay import *", namespace)
    assert set(opendecay.__all__) <= set(namespace)
