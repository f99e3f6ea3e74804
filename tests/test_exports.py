"""The public surface: every exported name exists, none is listed twice, and
the package root re-exports nothing but the kernel lane."""

import importlib
import pkgutil
import types

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


def test_root_holds_only_the_kernel_lane():
    # every other name is imported from its own module
    public = {
        name
        for name, value in vars(qclab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == {"backend_name"}
