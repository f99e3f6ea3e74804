"""Tests of the benchmark's own code: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import itertools
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = run.benchmark_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_is_span_minus_child_spans():
    clock = FakeClock()
    tracer = layers.Tracer(clock)

    def inner():
        clock.advance(5.0)

    inner = tracer.span("inner", inner)

    def outer():
        clock.advance(1.0)
        inner()
        clock.advance(2.0)
        inner()
        clock.advance(3.0)

    outer = tracer.span("outer", outer)
    outer()
    assert tracer.self_s == {"inner": 10.0, "outer": 6.0}
    assert tracer.calls == {"inner": 2, "outer": 1}
    assert tracer.root_s == 16.0 == sum(tracer.self_s.values())


def test_recursive_spans_of_one_name_count_each_level_once():
    clock = FakeClock()
    tracer = layers.Tracer(clock)

    def compose(depth):
        clock.advance(1.0)
        if depth:
            wrapped(depth - 1)
        clock.advance(1.0)

    wrapped = tracer.span("maps.wirtinger_many", compose)
    wrapped(2)
    assert tracer.self_s["maps.wirtinger_many"] == 6.0 == tracer.root_s
    assert tracer.calls["maps.wirtinger_many"] == 3


def test_span_records_time_when_the_call_raises():
    clock = FakeClock()
    tracer = layers.Tracer(clock)

    def boom():
        clock.advance(2.0)
        raise ValueError("degenerate")

    with pytest.raises(ValueError):
        tracer.span("stability.run_ladder", boom)()
    assert tracer.self_s["stability.run_ladder"] == 2.0
    assert tracer._stack == []


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert set(SPEC["workloads"][0]) == {"name", "why"}
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    units = [m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", u) for u in units)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_tail_percentile_keeps_ten_ops_beyond_it():
    assert run.tail_percentile(15) == 50  # too few ops: the median stands in
    assert run.tail_percentile(36) == 70
    assert run.tail_percentile(230) == 95
    assert run.tail_percentile(2000) == 99
    for n in range(20, 3000):
        p = run.tail_percentile(n)
        assert n - run.math.ceil(p * n / 100) >= 10


def test_percentile_interpolates_and_p50_is_the_median():
    values = [1.0, 2.0, 3.0, 10.0]
    assert run.percentile(values, 50) == run.statistics.median(values) == 2.5
    assert run.percentile(values, 0) == 1.0 and run.percentile(values, 100) == 10.0
    assert run.percentile([4.0], 95) == 4.0


def test_op_streams_are_seeded():
    def argvs(workload, seed):
        ops = itertools.islice(workloads.op_stream(workload, seed), 3)
        return [c.argv for op in ops for c in op.calls]

    for workload in workloads.WORKLOADS:
        assert argvs(workload, 7) == argvs(workload, 7)
        assert argvs(workload, 7) != argvs(workload, 8)


def test_reconstruct_ops_cycle_conj_conj_phi_eps():
    ops = list(itertools.islice(workloads.op_stream("reconstruct", 3), 6))
    fields = [op.calls[0].argv[op.calls[0].argv.index("--field") + 1] for op in ops]
    assert all(len(op.calls) == 1 for op in ops)
    assert fields[0] == fields[1] == fields[3] == fields[4] == "conj"
    assert fields[2].startswith("phi-eps:") and fields[5].startswith("phi-eps:")
    assert fields[2] != fields[5]


def test_set_up_is_timed_in_a_fresh_interpreter():
    seconds = run.cold_set_up_s("ladder", 1)
    assert 0.0 < seconds < 60.0


def _fit_payload(k, eps, slope):
    rows = [{"eps": e, "deficit": e / (k * k), "l1": 0.1, "dbar_mass": 0.2,
             "noise": 0.0, "included": True} for e in eps]
    return {"rows": rows, "summary": {"slope": slope, "rows_total": len(eps),
                                      "rows_used": len(eps)}}


def test_gate_fails_a_wrong_slope():
    op = next(workloads.op_stream("ladder", 1))
    call = op.calls[0]
    k = float(call.argv[call.argv.index("--k") + 1])
    eps = tuple(float(e) for e in call.argv[call.argv.index("--eps") + 1].split(","))
    good = json.dumps(_fit_payload(k, eps, 0.5004)).encode()
    workloads.gate(call, 0, good)
    with pytest.raises(workloads.GateError, match="slope"):
        workloads.gate(call, 0, json.dumps(_fit_payload(k, eps, 0.52)).encode())


def _first_sweep_call():
    op = next(workloads.op_stream("sweep", 3))
    return op.calls[0]


def _run_call(call, tmp_path):
    import qclab.cli

    out = tmp_path / "out.json"
    rc = qclab.cli.main(list(call.argv) + ["--format", "json", "--out", str(out)])
    return rc, out.read_bytes()


def test_gate_passes_real_output_and_fails_a_flipped_byte(tmp_path):
    call = _first_sweep_call()
    rc, raw = _run_call(call, tmp_path)
    reference = workloads.gate(call, rc, raw)
    assert workloads.gate(call, rc, raw, reference) == reference
    # Flip a digit of the value: still valid JSON, still close to the closed
    # form, but no longer the bytes the program wrote.
    i = raw.index(b'"value": ') + len(b'"value": ') + 6
    flipped = raw[:i] + bytes([raw[i] ^ 1]) + raw[i + 1:]
    json.loads(flipped)
    with pytest.raises(workloads.GateError, match="bytes differ"):
        workloads.gate(call, rc, flipped, reference)
    with pytest.raises(workloads.GateError, match="exit code"):
        workloads.gate(call, 2, raw)


def test_gate_fails_a_value_off_the_closed_form(tmp_path):
    call = _first_sweep_call()
    rc, raw = _run_call(call, tmp_path)
    payload = json.loads(raw)
    payload["summary"]["value"] *= 1.001
    with pytest.raises(workloads.GateError, match="value"):
        workloads.gate(call, rc, json.dumps(payload).encode())
    del payload["summary"]
    with pytest.raises(workloads.GateError, match="malformed"):
        workloads.gate(call, rc, json.dumps(payload).encode())


def test_every_sweep_call_passes_its_gate(tmp_path):
    op = next(workloads.op_stream("sweep", 11))
    for call in op.calls:
        rc, raw = _run_call(call, tmp_path)
        workloads.gate(call, rc, raw)
    assert sorted({c.expect_rc for c in op.calls}) == [0, 4]


def test_traced_op_attributes_all_time_and_restores_the_program(tmp_path):
    import qclab.cli
    import qclab.geometry
    from qclab import maps

    originals = (qclab.cli.main, qclab.geometry.ordered_dot,
                 maps.SpiralStretch.__dict__["wirtinger_many"])
    op = next(workloads.op_stream("sweep", 5))
    out = tmp_path / "out.json"
    plain = run.run_op(qclab.cli, op, out)
    tracer = layers.Tracer()
    with layers.install(tracer):
        assert qclab.geometry.ordered_dot is not originals[1]
        traced = run.run_op(qclab.cli, op, out, plain.digests)
    assert plain.error is None and traced.error is None
    assert originals == (qclab.cli.main, qclab.geometry.ordered_dot,
                         maps.SpiralStretch.__dict__["wirtinger_many"])

    names = [m["name"] for m in SPEC["per_layer"]]
    metrics, shares = run.per_layer(tracer, names, 1, traced.seconds, plain.seconds)
    assert list(metrics) == names
    assert metrics["cli.calls"] == len(op.calls)
    assert metrics["kernels.ordered_dot.calls"] > 0
    assert tracer.self_s["stability.audit"] > 0.0
    layer_s = sum(tracer.self_s.values())
    assert abs(layer_s + metrics["trace.unattributed_s"] - metrics["trace.wall_s"]) < 1e-12
    assert 0.0 <= metrics["trace.unattributed_s"] < 0.05 * metrics["trace.wall_s"]


def test_distinct_ratio_counts_the_reintegrated_reference():
    from qclab.errors import DegenerateExperimentError
    from qclab.stability import LadderConfig, run_ladder

    tracer = layers.Tracer()
    with layers.install(tracer):
        try:  # a grid this coarse may leave the fit below the noise floor
            run_ladder(LadderConfig(n_radial=32, n_angular=32, mass_n_radial=32,
                                    mass_n_angular=16, eps_values=(1e-2, 3e-2)))
        except DegenerateExperimentError:
            pass
    assert tracer.calls["functionals.mean_distortion"] == 8
    # Two candidates and the reference, each on two grids.
    assert tracer.counts["functionals.distinct_integrands"] == 6


def test_lane_agreement():
    from qclab._kernels import fallback

    assert run.lane_agreement(fallback, None) == "compiled lane absent"
    assert run.lane_agreement(fallback, fallback) == "bitwise agreement"

    class Perturbed:
        ordered_sum = staticmethod(fallback.ordered_sum)
        ordered_dot = staticmethod(fallback.ordered_dot)

        @staticmethod
        def pompeiu_sum(*args):
            re, im = fallback.pompeiu_sum(*args)
            return re, im * (1.0 + 2.0**-52)

    assert run.lane_agreement(fallback, Perturbed).startswith("MISMATCH in pompeiu_sum")


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
