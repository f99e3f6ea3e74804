"""Per-layer tracing from outside the program.

``Tracer`` keeps an in-memory stack of open spans.  Each wrapped call records
its span; its *self time* is the span minus the spans of the wrapped calls it
made (its children).  Summed over every wrapped call, self times add up to the
root spans exactly, so ``traced wall - sum(self times)`` is the time no layer
claims.

``install`` wraps each layer's public functions and patches every name that
binds them: the defining module, every ``qclab`` module that imported the
function (``geometry.ordered_dot``, ``functionals.integrate``,
``stability.phi_dbar_mass``, ...), and the ``wirtinger_many``/``eval_many``
methods of every ``MapFamily`` subclass.  A name left unpatched would let
nested calls go unattributed.  The patches are undone when the context exits.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

COUNTERS = (
    "kernels.values",
    "kernels.bytes_computed",
    "maps.wirtinger_points",
    "maps.eval_points",
    "geometry.cells_built",
    "gauges.evaluate_points",
    "pompeiu.area_targets",
    "pompeiu.cauchy_targets",
)

KERNEL_BYTES_PER_VALUE = {
    # float64 inputs read per reduced value; the Pompeiu sum also reads a
    # uint8 mask.  "Computed" from array sizes, not measured traffic.
    "kernels.ordered_sum": 8,
    "kernels.ordered_dot": 16,
    "kernels.pompeiu_sum": 5 * 8 + 1,
}


class Tracer:
    """Span recorder: self time and call count per span name, plus counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.root_s = 0.0
        self._stack = []  # one [child_seconds] cell per open span

    def span(self, name, fn, before=None, after=None):
        """Wrap ``fn`` so each call is a span named ``name``.

        ``before(args, kwargs)`` and ``after(result)`` run inside the span, to
        record counts from the inputs and the result.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell = [0.0]
            self._stack.append(cell)
            start = self.clock()
            try:
                if before is not None:
                    before(args, kwargs)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result)
                return result
            finally:
                span = self.clock() - start
                self._stack.pop()
                self.self_s[name] += span - cell[0]
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][0] += span
                else:
                    self.root_s += span

        return wrapper

    def count(self, name, amount):
        self.counts[name] += amount


def _size(x) -> int:
    return int(np.size(x))


class _DistinctIntegrands:
    """Counts distinct ``(map, gauge, grid, density)`` integrands per CLI call."""

    def __init__(self, tracer, mean_distortion):
        self.tracer = tracer
        self.signature = inspect.signature(mean_distortion)
        self.seen = set()

    def reset(self, args, kwargs):
        self.seen.clear()

    def record(self, args, kwargs):
        bound = self.signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        grid = a["grid"]
        key = (
            repr(a["family"]),
            repr(a["gauge"]),
            repr(a["density"]),
            grid.coordinate_kind,
            repr(grid.domain),
            grid.n_primary,
            grid.n_secondary,
            grid.mandatory_breaks,
        )
        if key not in self.seen:
            self.seen.add(key)
            self.tracer.count("functionals.distinct_integrands", 1)


def _layer_functions(tracer):
    """``(span name, owner, attribute, before, after)`` per traced callable."""
    from qclab import _kernels, cli, functionals, gauges, geometry, maps, pompeiu, stability

    def kernel_values(name):
        per_value = KERNEL_BYTES_PER_VALUE[name]

        def before(args, kwargs):
            n = _size(args[0])
            tracer.count("kernels.values", n)
            tracer.count("kernels.bytes_computed", n * per_value)

        return before

    def points(counter):
        return lambda args, kwargs: tracer.count(counter, _size(args[1]))

    def grid_cells(grid):
        tracer.count("geometry.cells_built", grid.n_cells)

    distinct = _DistinctIntegrands(tracer, functionals.mean_distortion)

    def entry(name, owner, attr, before=None, after=None):
        return (name, owner, attr, before, after)

    entries = [
        entry("cli", cli, "main", distinct.reset),
        entry("kernels.ordered_sum", _kernels, "ordered_sum",
                   kernel_values("kernels.ordered_sum")),
        entry("kernels.ordered_dot", _kernels, "ordered_dot",
                   kernel_values("kernels.ordered_dot")),
        entry("kernels.pompeiu_sum", _kernels, "pompeiu_sum",
                   kernel_values("kernels.pompeiu_sum")),
        entry("geometry.grid_build", geometry, "build_polar_grid", after=grid_cells),
        entry("geometry.grid_build", geometry, "build_cartesian_grid", after=grid_cells),
        entry("geometry.integrate", geometry, "integrate"),
        entry("geometry.integrate_complex", geometry, "integrate_complex"),
        entry("gauges.evaluate", gauges.ConvexGauge, "evaluate",
                   points("gauges.evaluate_points")),
        entry("functionals.mean_distortion", functionals, "mean_distortion",
                   distinct.record),
        entry("functionals.distortion_many", functionals, "distortion_many"),
        entry("functionals.deficit", functionals, "deficit"),
        entry("functionals.l1_distance", functionals, "l1_distance"),
        entry("pompeiu.pompeiu_area", pompeiu, "pompeiu_area",
                   lambda args, kwargs: tracer.count("pompeiu.area_targets", 1)),
        entry("pompeiu.cauchy_boundary", pompeiu, "cauchy_boundary",
                   points("pompeiu.cauchy_targets")),
        entry("pompeiu.dbar_field", pompeiu, "dbar_field"),
        entry("pompeiu.phi_dbar_mass", pompeiu, "phi_dbar_mass"),
        entry("pompeiu.reconstruct", pompeiu, "reconstruct"),
        entry("stability.run_ladder", stability, "run_ladder"),
    ]
    for name in sorted(n for n in stability.__all__ if n.startswith("audit_")):
        entries.append(entry("stability.audit", stability, name))
    for cls in _subclasses(maps.MapFamily):
        for attr, counter in (("wirtinger_many", "maps.wirtinger_points"),
                              ("eval_many", "maps.eval_points")):
            fn = cls.__dict__.get(attr)
            if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                entries.append(entry(f"maps.{attr}", cls, attr, points(counter)))
    return entries


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


@contextlib.contextmanager
def install(tracer):
    """Wrap every layer callable for the duration of the ``with`` block."""
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "qclab" or n.startswith("qclab."))]
    patched = []  # (owner, attribute, original), undone in reverse order
    try:
        for name, owner, attr, before, after in _layer_functions(tracer):
            original = owner.__dict__[attr]
            wrapper = tracer.span(name, original, before, after)
            owners = [owner]
            if inspect.ismodule(owner):
                owners += [m for m in modules
                           if m is not owner and m.__dict__.get(attr) is original]
            for target in owners:
                setattr(target, attr, wrapper)
                patched.append((target, attr, original))
        yield tracer
    finally:
        for target, attr, original in reversed(patched):
            setattr(target, attr, original)
