"""The public surface: every exported name exists, none is listed twice, the
package root re-exports nothing but the kernel lane, every name the
benchmark's tracer patches exists, the benchmark's gate passes the program's
outputs, no private module-level name or module-level import is left unused,
and maps are evaluated on grids in one module."""

import ast
import importlib
import importlib.util
import itertools
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


def _perfbench(name):
    """The benchmark's ``perfbench/<name>.py``, loaded as a module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def _tracer_layers():
    """The benchmark's tracer, ``perfbench/layers.py``."""
    return _perfbench("layers")


def test_benchmark_tracer_patches_and_restores_its_names():
    # perfbench/layers.py wraps these names by attribute; a deleted one would
    # break only the benchmark, which the tier-1 suite does not run
    layers = _tracer_layers()
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


def test_benchmark_tracer_attributes_the_ladder_ring_reductions_to_integrate():
    # one grid integral: the tracer wraps geometry.integrate, so the ring
    # reductions are not left in the self time of run_ladder
    from qclab.stability import LadderConfig, run_ladder

    layers = _tracer_layers()
    tracer = layers.Tracer()
    with layers.install(tracer):
        run_ladder(LadderConfig(n_radial=64, n_angular=32))
    # the reference and rung rows on the full and the half grid, l1 and the
    # dbar mass
    assert tracer.calls["geometry.integrate"] == 4
    assert tracer.self_s["geometry.integrate"] > 0.0


def test_benchmark_tracer_attributes_the_workloads_to_their_named_spans(tmp_path):
    # the CLI and the ladder run the public functions the tracer patches, so
    # their spans read the work rather than leaving it in cli or run_ladder
    import qclab.cli
    from qclab.stability import LadderConfig, run_ladder

    layers = _tracer_layers()
    tracer = layers.Tracer()
    argv = ["reconstruct", "--field", "conj", "--grid", "64x64", "--nodes", "256",
            "--points", "4", "--out", str(tmp_path / "out.csv")]
    with layers.install(tracer):
        assert qclab.cli.main(argv) == 0
    spans = ("pompeiu.reconstruct", "pompeiu.pompeiu_area", "pompeiu.cauchy_boundary",
             "pompeiu.dbar_field")
    assert {name: tracer.calls[name] for name in spans} == dict.fromkeys(spans, 1)
    # one kernel call per target: the benchmark's kernel span is on the live path
    assert tracer.calls["kernels.pompeiu_sum"] == 4

    tracer = layers.Tracer()
    with layers.install(tracer):
        run_ladder(LadderConfig(n_radial=64, n_angular=32))
    spans = ("functionals.l1_distance", "pompeiu.phi_dbar_mass")
    assert {name: tracer.calls[name] for name in spans} == dict.fromkeys(spans, 1)
    assert tracer.calls["geometry.integrate"] == 4


@pytest.mark.parametrize("workload", ["ladder", "reconstruct"])
def test_benchmark_gate_passes_the_first_cycle(workload, tmp_path):
    # the benchmark runs these ops in process and refuses outputs that fail
    # its gate (a wrong exit code, or a value off the paper's closed forms);
    # a cycle is three ops, as perfbench/run.py counts them
    import qclab.cli

    workloads = _perfbench("workloads")
    out = tmp_path / "out.json"
    for op in itertools.islice(workloads.op_stream(workload, 1), 3):
        for call in op.calls:
            out.unlink(missing_ok=True)
            rc = qclab.cli.main([*call.argv, "--format", "json", "--out", str(out)])
            workloads.gate(call, rc, out.read_bytes())


SRC = Path(qclab.__file__).resolve().parent


def _private_definitions(tree):
    """``(name, node)`` of each private function, class and constant at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _references(tree, skip=None):
    """Names read in ``tree`` (bare or as attributes), outside the node ``skip``."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        stack.extend(ast.iter_child_nodes(node))


def test_every_private_module_level_name_is_used():
    # a private helper, class or constant that nothing reads is dead code;
    # its own definition (a recursive call, say) does not count as a use
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}
    unused = []
    for path, tree in trees.items():
        for name, node in _private_definitions(tree):
            used = any(
                name in _references(other, skip=node if other is tree else None)
                for other in trees.values()
            )
            if not used:
                unused.append(f"{path.relative_to(SRC)}:{node.lineno} {name}")
    assert unused == []


def _exported(tree):
    """The names in a module's literal ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def test_every_module_level_import_is_used():
    # a module-level import must be read in its module, listed in its
    # __all__, or, in a package __init__.py, be a public name it re-exports
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
        }
        kept = read | _exported(tree)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                reexported = path.name == "__init__.py" and not name.startswith("_")
                if name not in kept and not reexported:
                    unused.append(f"{path.relative_to(SRC)}:{node.lineno} {name}")
    assert unused == []


def test_maps_are_evaluated_on_grids_in_functionals_alone():
    # one evaluator of maps on grids: every jet_many call is in functionals
    # (_sampled, and distortion_many on the caller's points)
    callers = {
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "jet_many"
    }
    assert callers == {"functionals.py"}
