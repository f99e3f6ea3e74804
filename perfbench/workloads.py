"""Seeded workloads and the per-call correctness gate.

A workload is an endless, seeded stream of ops; an op is a short list of CLI
calls that the harness passes to ``qclab.cli.main`` in-process.  Each call
carries the exit code it must return and a check of its JSON output against
the paper's closed forms, so a fast but wrong program fails the gate.  The
program sees only the generated argv.

* ``ladder`` -- one ``qclab fit`` per op at the paper's 512x512 grid, with the
  five eps rungs and ``k`` jittered by the seed: map evaluation dominates.
* ``reconstruct`` -- ``qclab reconstruct`` at its defaults, one call per op:
  the conjugation field twice, then a seeded ``phi-eps`` field: the Pompeiu
  area sum dominates.
* ``sweep`` -- a batch of small (64x64) ``distortion`` and ``audit`` calls on
  both sides (annulus and strip) with every gauge and density: per-call fixed
  costs dominate, and Cartesian grids and strip families run only here.

Only inputs the CLI handles correctly are generated; no op is expected to
fail except the flat-gauge Taylor audit, which must exit 4.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

LADDER_GRID = 512
LADDER_RUNGS = (-4.0, -3.5, -3.0, -2.5, -2.0)  # log10 of the paper's eps rungs
LADDER_HALF_BAND = 0.2  # log10 jitter of each rung; bands stay disjoint
SLOPE_TOL = 0.01  # |fitted slope - 0.5|; seeded fits stay within 0.003
DEFICIT_REL_TOL = 2e-4  # measured deficit vs eps / k**2; seeded fits stay within 3e-5

RECONSTRUCT_GRID = 512
RECONSTRUCT_NODES = 1024
RECONSTRUCT_POINTS = 32
MEDIAN_RESIDUAL_MAX = 1e-4
MAX_RESIDUAL_MAX = 1e-3

SWEEP_GRID = 64
SWEEP_BATCHES = 10  # batches per op: ~1 s ops average out a shared VM's second-scale jitter
SWEEP_AUDIT_GRID = (64, 16)
SWEEP_SAMPLES = 2000
EXACT_REL_TOL = 1e-9  # closed forms that hold up to rounding


class GateError(Exception):
    """An output failed its correctness check."""


@dataclass(frozen=True)
class Call:
    argv: tuple[str, ...]
    expect_rc: int
    check: Callable[[dict], None]
    cells: int  # quadrature cells the inputs require, counted from the argv


@dataclass(frozen=True)
class Op:
    index: int
    calls: tuple[Call, ...]

    @property
    def cells(self) -> int:
        return sum(c.cells for c in self.calls)


def digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def gate(call: Call, rc: int, raw: bytes, reference: str | None = None) -> str:
    """Check one call's exit code and output; return the output's digest.

    ``reference`` is the digest an earlier run of the same call produced; the
    determinism contract requires byte-identical output.
    """
    if rc != call.expect_rc:
        raise GateError(f"exit code {rc}, expected {call.expect_rc}")
    got = digest(raw)
    if reference is not None and got != reference:
        raise GateError("output bytes differ from an earlier run of the same call")
    try:
        payload = json.loads(raw)
    except ValueError as exc:
        raise GateError(f"output is not JSON: {exc}") from None
    try:
        call.check(payload)
    except (KeyError, IndexError, TypeError) as exc:
        raise GateError(f"malformed output: {type(exc).__name__}: {exc}") from None
    return got


# --------------------------------------------------------------------------
# closed forms
# --------------------------------------------------------------------------


def phi(gauge: str, t: float) -> float:
    """The gauge ``linear | square | power:p`` at ``t >= 1``."""
    if gauge == "linear":
        return t
    if gauge == "square":
        return t * t
    return t ** float(gauge.split(":", 1)[1])


def spiral_distortion(k: float, winding: int, q: float) -> float:
    """Distortion of the winding-``N`` spiral stretch (constant on the annulus).

    In log coordinates it is the shear-stretch ``x + iy -> k x + i(n x + y)``
    with ``n = 2 pi N / log(1/q)``; ``N = 0`` gives ``K = k``.
    """
    n = 2.0 * math.pi * winding / math.log(1.0 / q)
    fz = math.hypot(k + 1.0, n) / 2.0
    fzb = math.hypot(k - 1.0, n) / 2.0
    return (fz + fzb) / (fz - fzb)


def midpoint_rel_tol(q: float, n_radial: int) -> float:
    """Bound on the midpoint-rule error of the ``1/|w|^2`` density.

    The density reduces to ``integral dr / r`` over ``[q, 1]``, whose midpoint
    error is ``(h^2/24) (1/q^2 - 1)``; the bound is six times that, relative to
    ``log(1/q)``.  At 64 radial cells and ``q = 0.5`` it is 6.6e-5.
    """
    h = (1.0 - q) / n_radial
    return 0.25 * h * h * (1.0 / (q * q) - 1.0) / math.log(1.0 / q)


def _close(name: str, got: float, want: float, rel: float) -> None:
    if not (math.isfinite(got) and abs(got - want) <= rel * abs(want)):
        raise GateError(f"{name} = {got!r}, expected {want!r} within {rel:.1e} relative")


# --------------------------------------------------------------------------
# checks
# --------------------------------------------------------------------------


def check_fit(k: float, eps: tuple[float, ...]) -> Callable[[dict], None]:
    def check(out: dict) -> None:
        s = out["summary"]
        if s["rows_total"] != len(eps) or s["rows_used"] != len(eps):
            raise GateError(f"ladder used {s['rows_used']} of {s['rows_total']} rows")
        if not abs(s["slope"] - 0.5) <= SLOPE_TOL:
            raise GateError(f"fitted slope {s['slope']!r} not within {SLOPE_TOL} of 0.5")
        if [r["eps"] for r in out["rows"]] != list(eps):
            raise GateError("ladder rows do not echo the requested eps")
        for r in out["rows"]:
            # Square gauge, 1/|w|^2 density: the two halves stretch by
            # k +- sqrt(eps) over equal log-measure, so the deficit is eps/k^2.
            _close("deficit", r["deficit"], r["eps"] / (k * k), DEFICIT_REL_TOL)
            if not (r["l1"] > 0.0 and r["dbar_mass"] > 0.0 and r["included"]):
                raise GateError(f"degenerate ladder row {r!r}")

    return check


def check_reconstruct(conj: bool) -> Callable[[dict], None]:
    def check(out: dict) -> None:
        rows = out["rows"]
        if len(rows) != RECONSTRUCT_POINTS:
            raise GateError(f"{len(rows)} targets, expected {RECONSTRUCT_POINTS}")
        for r in rows:
            residual = math.hypot(r["value_re"] - r["exact_re"], r["value_im"] - r["exact_im"])
            _close("residual", r["residual"], residual, 1e-9)
            if conj and (r["exact_re"], r["exact_im"]) != (r["target_re"], -r["target_im"]):
                raise GateError("exact value of the conjugation field is not conj(target)")
        s = out["summary"]
        if not s["median_residual"] <= MEDIAN_RESIDUAL_MAX:
            raise GateError(f"median residual {s['median_residual']!r} > {MEDIAN_RESIDUAL_MAX}")
        if not s["max_residual"] <= MAX_RESIDUAL_MAX:
            raise GateError(f"max residual {s['max_residual']!r} > {MAX_RESIDUAL_MAX}")

    return check


def check_value(want: float, rel: float) -> Callable[[dict], None]:
    def check(out: dict) -> None:
        s = out["summary"]
        if s["degenerate_cells"] != 0 or "warning" in s:
            raise GateError(f"degenerate cells or warning in {s!r}")
        _close("value", s["value"], want, rel)

    return check


def check_audit(passed: bool, lhs: float | None = None, rhs: float | None = None,
                rel: float = EXACT_REL_TOL) -> Callable[[dict], None]:
    def check(out: dict) -> None:
        if out["summary"]["passed"] is not passed:
            raise GateError(f"audit passed={out['summary']['passed']!r}, expected {passed}")
        row = out["rows"][0]
        if lhs is not None:
            _close("lhs", row["lhs"], lhs, rel)
        if rhs is not None:
            _close("rhs", row["rhs"], rhs, rel)

    return check


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(lo, hi)


def ladder_op(rng: random.Random, index: int) -> Op:
    k = rng.uniform(1.9, 2.1)
    eps = tuple(_log_uniform(rng, e - LADDER_HALF_BAND, e + LADDER_HALF_BAND)
                for e in LADDER_RUNGS)
    n = LADDER_GRID
    cells = len(eps) * (n * n + (n // 2) * (n // 2) + n * (n // 2))
    argv = ("fit", "--k", repr(k), "--eps", ",".join(map(repr, eps)),
            "--grid", f"{n}x{n}")
    return Op(index, (Call(argv, 0, check_fit(k, eps), cells),))


def reconstruct_op(rng: random.Random, index: int) -> Op:
    """One call per op, so a window holds enough ops for a tail percentile.

    Two ops in three reconstruct the conjugation field, the third a seeded
    ``phi-eps`` field.  ``phi-eps`` runs faster (~0.9 s against ~1.2 s at
    seed); with an even mix the median would fall in the gap between the two
    modes and jump with a single slow op, while with this mix it lies inside
    the ``conj`` mode.
    """
    n, nodes, points = RECONSTRUCT_GRID, RECONSTRUCT_NODES, RECONSTRUCT_POINTS
    cells = n * n * points + 2 * nodes * points  # area cells + both circles
    conj = index % 3 != 2
    field = "conj" if conj else f"phi-eps:{_log_uniform(rng, -4.0, -2.0)!r}"
    argv = ("reconstruct", "--field", field, "--seed", str(rng.randrange(2**31)))
    return Op(index, (Call(argv, 0, check_reconstruct(conj), cells),))


def sweep_op(rng: random.Random, index: int) -> Op:
    """``SWEEP_BATCHES`` batches, each with its own seeded parameters."""
    calls = []
    for _ in range(SWEEP_BATCHES):
        calls += _sweep_batch(rng, index)
    return Op(index, tuple(calls))


def _sweep_batch(rng: random.Random, index: int) -> list[Call]:
    """Eleven ``distortion`` and nine ``audit`` calls."""
    g = SWEEP_GRID
    cells = g * g + (g // 2) * (g // 2)  # distortion: full + half grid
    q = rng.uniform(0.35, 0.65)
    k = rng.uniform(1.5, 2.5)
    p = rng.uniform(2.0, 4.0)
    winding = 1 + int(3 * rng.random())
    eps = _log_uniform(rng, -3.0, -1.5)
    power = f"power:{p!r}"
    common = ("--q", repr(q), "--k", repr(k))
    log_mass = 2.0 * math.pi * math.log(1.0 / q)  # 1/|w|^2 mass of the annulus
    area = math.pi * (1.0 - q * q)
    mid = midpoint_rel_tol(q, g)
    lo, hi = k - math.sqrt(eps), k + math.sqrt(eps)
    k_n = spiral_distortion(k, winding, q)

    def dist(mapname, gauge, density, want, rel):
        argv = ("distortion", "--map", mapname, "--gauge", gauge, "--density", density,
                "--grid", f"{g}x{g}", "--seed", str(index)) + common
        return Call(argv, 0, check_value(want, rel), cells)

    def halves(gauge):
        return 0.5 * (phi(gauge, hi) + phi(gauge, lo))

    calls = [
        # g* with the linear gauge and 1/|w|^2 density is 2 pi k log(1/q):
        # 4 pi log 2 at the paper's q = 0.5, k = 2.
        dist("gstar", "linear", "invsq", k * log_mass, mid),
        dist("gstar", "square", "uniform", phi("square", k) * area, EXACT_REL_TOL),
        dist("gstar", power, "invsq", phi(power, k) * log_mass, mid),
        dist(f"gn:{winding}", "linear", "invsq", k_n * log_mass, mid),
        dist(f"gn:{winding}", "square", "uniform", phi("square", k_n) * area, EXACT_REL_TOL),
        # g^eps stretches by k + sqrt(eps) outside |w| = sqrt(q), k - sqrt(eps)
        # inside: equal 1/|w|^2 mass, areas pi(1 - q) and pi(q - q^2).
        dist(f"geps:{eps!r}", "square", "invsq", halves("square") * log_mass, mid),
        dist(f"geps:{eps!r}", power, "uniform",
             math.pi * (phi(power, hi) * (1.0 - q) + phi(power, lo) * (q - q * q)),
             EXACT_REL_TOL),
        dist("fstar", "linear", "uniform", k, EXACT_REL_TOL),
        dist("fstar", "square", "uniform", phi("square", k), EXACT_REL_TOL),
        dist(f"feps:{eps!r}", power, "uniform", halves(power), EXACT_REL_TOL),
        dist(f"feps:{eps!r}", "linear", "uniform", k, EXACT_REL_TOL),
    ]

    nx, ny = SWEEP_AUDIT_GRID
    feps = ("--map", f"feps:{eps!r}", "--k", repr(k), "--grid", f"{nx}x{ny}")
    seed = ("--seed", str(rng.randrange(2**31)))
    samples = ("--samples", str(SWEEP_SAMPLES))
    audits = [
        # feps: K - K* = +-sqrt(eps) on equal halves, so both sides of the
        # quadratic audit equal eps, and the mean distortion is k.
        (("--lemma", "k-l2", "--gauge", "square") + feps, 0,
         check_audit(True, lhs=eps, rhs=eps, rel=1e-6), nx * ny),
        (("--lemma", "k-mean", "--gauge", "square") + feps, 0,
         check_audit(True, lhs=k), nx * ny),
        (("--lemma", "k-mean", "--gauge", "linear") + feps, 0,
         check_audit(True, lhs=k), nx * ny),
        (("--lemma", "alignment") + feps, 0, check_audit(True), nx * ny),
        (("--lemma", "gn-gap", "--gauge", "square", "--winding", str(winding),
          "--grid", f"{g}x{g}") + common, 0,
         check_audit(True, lhs=phi("square", k_n) * log_mass,
                     rhs=phi("square", k) * log_mass, rel=mid), 2 * g * g),
        (("--lemma", "taylor", "--gauge", "square") + samples + seed, 0,
         check_audit(True), 0),
        (("--lemma", "taylor", "--gauge", power) + samples + seed, 0,
         check_audit(True), 0),
        # The flat gauge is not convex: its Taylor audit fails on purpose.
        (("--lemma", "taylor", "--gauge", "flat") + samples + seed, 4,
         check_audit(False), 0),
        (("--lemma", "theta") + samples + seed, 0, check_audit(True), 0),
    ]
    calls += [Call(("audit",) + argv, rc, check, n)
              for argv, rc, check, n in audits]
    return calls


WORKLOADS = {"ladder": ladder_op, "reconstruct": reconstruct_op, "sweep": sweep_op}


def op_stream(workload: str, seed: int):
    """The workload's endless op stream; equal seeds give equal streams."""
    make = WORKLOADS[workload]
    rng = random.Random(seed)
    index = 0
    while True:
        yield make(rng, index)
        index += 1
