"""The public surface: every exported name exists, and none is listed twice."""

import importlib
import pkgutil

import pytest

import qclab

MODULES = ["qclab"] + sorted(
    info.name for info in pkgutil.walk_packages(qclab.__path__, "qclab.")
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == [], f"{name}.__all__ names missing attributes"
