"""The public surface: every exported name exists, none is listed twice, the
package root re-exports nothing but the kernel lane, and every name the
benchmark's tracer patches exists."""

import importlib
import importlib.util
import pkgutil
import sys
import types
from pathlib import Path

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


def test_benchmark_tracer_patches_and_restores_its_names():
    # perfbench/layers.py wraps these names by attribute; a deleted one would
    # break only the benchmark, which the tier-1 suite does not run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    importlib.import_module("qclab.cli")  # loads every module the tracer patches
    importlib.import_module("qclab._kernels.fallback")  # perfbench/run.py reads it
    tracer = layers.Tracer()
    entries = [(owner, attr) for _, owner, attr, _, _ in layers._layer_functions(tracer)]
    owners = [m for n, m in sys.modules.items() if n == "qclab" or n.startswith("qclab.")]
    owners += [owner for owner, _ in entries]
    before = [dict(vars(owner)) for owner in owners]
    with layers.install(tracer):
        for owner, attr in entries:
            assert vars(owner)[attr] is not before[owners.index(owner)][attr], attr
    assert [dict(vars(owner)) for owner in owners] == before
