#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of qclab.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 30 --trace 0

One process, one thread.  ``qclab`` is imported from ``src/`` of the checkout
(never from an installed copy) and driven in-process through
``qclab.cli.main(argv)`` with ``--format json --out <file>``; every call's exit
code and output pass the correctness gate in ``workloads.py``.

``--trace 0`` runs ops back to back (a closed loop, one client) for
``--seconds`` and prints the end-to-end metrics.  ``--trace 1`` runs each op
twice, untraced and then with the layer wrappers of ``layers.py`` installed,
for ``--seconds`` in all, and prints the per-layer metrics; the traced
outputs must be byte-identical to the untraced ones.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it records the lane, ``nproc``, the Python and numpy
versions, the commit and the tail percentile used.  Per-op timings and output
digests go to ``.perfbench_out/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import os

# One thread: set before numpy is imported.  QCLAB_THREADS unset means 1.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("QCLAB_THREADS", None)

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 9
TAIL_PERCENTILES = (99, 95, 90, 85, 80, 75, 70, 65, 60, 55, 50)
TAIL_MIN_BEYOND = 10
# Windows end on a whole number of cycles, so that every reconstruct window
# holds its two fields in the same 2:1 proportion.
OPS_PER_CYCLE = 3

sys.path.insert(0, str(HERE))
import layers  # noqa: E402
import workloads  # noqa: E402


@dataclass
class OpResult:
    index: int
    seconds: float
    cells: int
    digests: list = field(default_factory=list)
    error: str | None = None


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# Run in a fresh interpreter, so numpy and every other module qclab loads
# are imported cold: time ``import qclab.cli`` plus building the first op.
SETUP_CHILD = """
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
t0 = time.perf_counter()
import qclab.cli
next(workloads.op_stream(sys.argv[3], int(sys.argv[4])))
print(repr(time.perf_counter() - t0))
"""


def cold_set_up_s(workload: str, seed: int) -> float:
    """Seconds one fresh interpreter takes to import ``qclab`` and build the first op."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), str(HERE), workload, str(seed)],
        capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout.strip().splitlines()[-1])


def run_op(cli, op, out_path: Path, references=None) -> OpResult:
    """Run every call of ``op``; time only the program, then gate each output."""
    result = OpResult(op.index, 0.0, op.cells)
    for i, call in enumerate(op.calls):
        argv = list(call.argv) + ["--format", "json", "--out", str(out_path)]
        out_path.unlink(missing_ok=True)
        crashed = None
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad input this way
            rc = exc.code
        except Exception:  # noqa: BLE001 - a crash fails the op, the run goes on
            rc, crashed = None, traceback.format_exc()
        result.seconds += time.perf_counter() - t0
        if crashed is not None:
            print(crashed, file=sys.stderr)
        raw = out_path.read_bytes() if out_path.exists() else b""
        try:
            ref = references[i] if references else None
            result.digests.append(workloads.gate(call, rc, raw, ref))
        except workloads.GateError as exc:
            result.digests.append(workloads.digest(raw))
            if result.error is None:
                result.error = f"{' '.join(call.argv)}: {exc}"
    if result.error is not None:
        print(f"op {op.index} failed: {result.error}", file=sys.stderr)
    return result


def run_window(cli, ops, seconds: float, out_path: Path):
    """Run ops from the iterator back to back until ``seconds`` have passed."""
    results = []
    t0 = time.perf_counter()
    for op in ops:
        results.append(run_op(cli, op, out_path))
        if time.perf_counter() - t0 >= seconds and len(results) % OPS_PER_CYCLE == 0:
            break
    return results, time.perf_counter() - t0


def tail_percentile(n: int) -> int:
    """Highest listed percentile with at least ten ops beyond it (else 50)."""
    for p in TAIL_PERCENTILES:
        if n - math.ceil(p * n / 100) >= TAIL_MIN_BEYOND:
            return p
    return 50


def percentile(sorted_values, p: int) -> float:
    """Linear interpolation between order statistics; p50 is the median."""
    pos = (len(sorted_values) - 1) * p / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def end_to_end(results, wall: float, setup_s: float) -> tuple[dict, dict]:
    times = sorted(r.seconds for r in results)
    p = tail_percentile(len(times))
    cells = sum(r.cells for r in results if r.error is None)
    metrics = {
        "op_p50_s": percentile(times, 50),
        "op_tail_s": percentile(times, p),
        "cells_per_s": cells / wall,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"op_tail_percentile": p, "op_samples": len(times), "window_s": wall}
    return metrics, info


def per_layer(tracer, names, n_ops: int, traced_s: float, untraced_s: float):
    """Per-op layer metrics named in BENCHMARK.json, and each span's share."""
    kernel_s = sum(v for k, v in tracer.self_s.items() if k.startswith("kernels."))
    md_calls = tracer.calls["functionals.mean_distortion"]
    derived = {
        "kernels.values_per_s": tracer.counts["kernels.values"] / kernel_s if kernel_s else 0.0,
        "functionals.distinct_ratio": (
            tracer.counts["functionals.distinct_integrands"] / md_calls if md_calls else 1.0
        ),
        "trace.wall_s": traced_s / n_ops,
        "trace.unattributed_s": (traced_s - sum(tracer.self_s.values())) / n_ops,
        "trace.overhead_s": (traced_s - untraced_s) / n_ops,
    }
    metrics = {}
    for name in names:
        if name in derived:
            metrics[name] = derived[name]
        elif name.endswith(".calls"):
            metrics[name] = tracer.calls[name[: -len(".calls")]] / n_ops
        elif name.endswith((".self_s", ".s")):
            metrics[name] = tracer.self_s[name.rsplit(".", 1)[0]] / n_ops
        elif name in layers.COUNTERS:
            metrics[name] = tracer.counts[name] / n_ops
        else:
            raise KeyError(f"no rule computes per-layer metric {name!r}")
    shares = {k: round(v / traced_s, 4) for k, v in
              sorted(tracer.self_s.items(), key=lambda kv: -kv[1])}
    shares["(unattributed)"] = round(derived["trace.unattributed_s"] * n_ops / traced_s, 4)
    return metrics, shares


def measure_end_to_end(cli, ops, first, seconds, out_path, setup_s):
    results, wall = run_window(cli, ops, seconds, out_path)
    metrics, info = end_to_end(results, wall, setup_s)
    # Determinism: the first op again must give the same bytes.
    results.append(run_op(cli, first, out_path, results[0].digests))
    return results, metrics, info


def measure_layers(cli, ops, seconds, out_path, names):
    # Each op runs untraced, then traced, so slow drift in the machine's
    # speed hits both passes alike; the traced bytes must equal the untraced.
    tracer = layers.Tracer()
    untraced, traced = [], []
    t0 = time.perf_counter()
    for op in ops:
        untraced.append(run_op(cli, op, out_path))
        with layers.install(tracer):
            traced.append(run_op(cli, op, out_path, untraced[-1].digests))
        if time.perf_counter() - t0 >= seconds and len(traced) % OPS_PER_CYCLE == 0:
            break
    untraced_s = sum(r.seconds for r in untraced)
    traced_s = sum(r.seconds for r in traced)
    metrics, shares = per_layer(tracer, names, len(traced), traced_s, untraced_s)
    info = {"traced_ops": len(traced), "traced_s": traced_s, "untraced_s": untraced_s,
            "self_time_shares": shares}
    return untraced + traced, metrics, info


def lane_agreement(fallback, compiled, seed: int = 0) -> str:
    """Bitwise agreement of the three kernels across lanes on seeded inputs."""
    if compiled is None:
        return "compiled lane absent"
    import numpy as np

    rng = np.random.default_rng(seed)
    for n in (1000, 100003):
        values = rng.normal(size=n) * np.exp(rng.uniform(-12.0, 12.0, size=n))
        weights = rng.normal(size=n)
        cr, ci, vr, vi = (rng.normal(size=n) for _ in range(4))
        mask = (rng.random(n) < 0.01).astype(np.uint8)
        cases = (
            ("ordered_sum", (values,)),
            ("ordered_dot", (weights, values)),
            ("pompeiu_sum", (cr, ci, np.abs(weights), vr, vi, 0.1, -0.2, mask)),
        )
        for name, args in cases:
            a = getattr(fallback, name)(*args)
            b = getattr(compiled, name)(*args)
            if np.asarray(a).tobytes() != np.asarray(b).tobytes():
                return f"MISMATCH in {name} at n={n}: {a!r} != {b!r}"
    return "bitwise agreement"


def commit() -> str:
    # Without .git here, git would search the parent directories instead.
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="qclab end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qclab" / "__init__.py").is_file():
        print(f"error: no qclab sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = benchmark_spec()
    sys.path.insert(0, str(SRC))

    setup_s = statistics.median(cold_set_up_s(args.workload, args.seed)
                                for _ in range(SETUP_REPEATS))
    from qclab import cli
    stream = workloads.op_stream(args.workload, args.seed)
    first = next(stream)
    import numpy as np
    import qclab
    from qclab import _kernels

    if Path(qclab.__file__).resolve().parent != (SRC / "qclab").resolve():
        print(f"error: imported qclab from {qclab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    try:
        from qclab._kernels import _core as compiled
    except ImportError:
        compiled = None
    lanes = lane_agreement(_kernels.fallback, compiled, args.seed)

    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"call-{os.getpid()}.json"
    ops = itertools.chain([first], stream)
    try:
        if args.trace == 0:
            section = spec["end_to_end"]
            results, metrics, info = measure_end_to_end(
                cli, ops, first, args.seconds, out_path, setup_s)
        else:
            section = spec["per_layer"]
            results, metrics, info = measure_layers(
                cli, ops, args.seconds, out_path, [m["name"] for m in section])
    finally:
        out_path.unlink(missing_ok=True)

    failed = sum(r.error is not None for r in results)
    info.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "lane": qclab.backend_name(),
        "lane_agreement": lanes,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit(),
        "fail_ratio": failed / len(results),
        "first_error": next((r.error for r in results if r.error), None),
    })
    record = {"info": info, "metrics": metrics,
              "ops": [vars(r) for r in results]}
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not lanes.startswith("MISMATCH"),
        "attempted": len(results),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in section},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
