"""Command-line interface.

Subcommands:

* ``distortion`` — gauged mean distortion of one map with a Richardson error
  estimate.
* ``fit`` — the epsilon ladder: deficit, L1 distance, and dbar mass per rung,
  plus the fitted stability exponent.
* ``audit`` — one lemma audit (taylor, k-l2, k-mean, alignment, gn-gap,
  theta).
* ``reconstruct`` — Cauchy-Pompeiu reconstruction of a field on an annulus at
  seeded off-lattice targets.

Exit codes: 0 success / audit passed; 2 invalid input; 3 degenerate
experiment; 4 inequality violation (a failed audit).

Output (CSV with a ``#``-prefixed footer of sorted parameters, or JSON with
``params``/``rows``/``summary``) contains no timestamps or machine state, so
reruns with equal arguments are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DegenerateExperimentError, InputError, QclabError
from .functionals import Density, mean_distortion
from .gauges import ConvexGauge
from .geometry import (
    AnnulusDomain,
    RectangleDomain,
    build_cartesian_grid,
    build_polar_grid,
    half_resolution_shape,
)
from .maps import (
    Composition,
    ConjugationMap,
    IdentityMap,
    InverseSpiralStretch,
    LinearStretch,
    MapFamily,
    PiecewiseLinearStretch,
    PiecewiseRadialStretch,
    SpiralStretch,
)
from .pompeiu import annulus_trace, dbar_field, offset_targets, reconstruct_many
from .stability import (
    LadderConfig,
    audit_alignment,
    audit_gn_gap,
    audit_k_l2,
    audit_k_mean,
    audit_taylor,
    audit_theta,
    run_ladder,
)

__all__ = ["main"]


def _parse_grid(token: str) -> tuple[int, int]:
    parts = token.lower().split("x")
    if len(parts) != 2:
        raise InputError(f"malformed grid token {token!r}; expected e.g. 256x256")
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError:
        raise InputError(f"malformed grid token {token!r}; expected e.g. 256x256") from None
    if a < 1 or b < 1:
        raise InputError("grid dimensions must be >= 1")
    return a, b


def _token_number(tok: str, convert, noun: str, token: str):
    """The number after the first ``:`` of ``tok``, read with ``convert``.

    A malformed number is an ``InputError`` naming the ``noun`` token as the
    user wrote it.
    """
    try:
        return convert(tok.split(":", 1)[1])
    except ValueError:
        raise InputError(f"malformed {noun} token {token!r}") from None


def _parse_map(token: str, args) -> tuple[MapFamily, str]:
    """Build a map family from a token; returns (family, side).

    ``side`` is "annulus" for the g-families and "square" for the f-families.
    """
    tok = token.strip().lower()
    if tok == "gstar":
        return SpiralStretch(args.q, args.k, args.theta, 0), "annulus"
    if tok.startswith("gn:"):
        winding = _token_number(tok, int, "map", token)
        return SpiralStretch(args.q, args.k, args.theta, winding), "annulus"
    if tok.startswith("geps:"):
        eps = _token_number(tok, float, "map", token)
        return PiecewiseRadialStretch(args.q, args.k, eps), "annulus"
    if tok == "fstar":
        return LinearStretch(args.k, getattr(args, "n", 0.0)), "square"
    if tok.startswith("feps:"):
        eps = _token_number(tok, float, "map", token)
        return PiecewiseLinearStretch(args.k, eps), "square"
    raise InputError(
        f"unknown map token {token!r}; expected gstar|gN:N|geps:eps|fstar|feps:eps"
    )


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _emit(args, header: list[str], rows: list[dict], params: dict, summary: dict) -> None:
    params = dict(params)
    params["version"] = __version__
    if args.format == "json":
        payload = {"params": params, "rows": rows, "summary": summary}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_fmt(row[h]) for h in header))
        meta = {**params, **summary}
        for key in sorted(meta):
            lines.append(f"# {key}={_fmt(meta[key])}")
        text = "\n".join(lines) + "\n"
    if args.out in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)


def _annulus_grid_for(family: MapFamily, q: float, n_radial: int, n_angular: int):
    domain = AnnulusDomain(q)
    return build_polar_grid(domain, n_radial, n_angular, breaks=family.break_radii())


def _square_grid_for(family: MapFamily, n_x: int, n_y: int):
    domain = RectangleDomain(width=1.0, height=1.0)
    return build_cartesian_grid(domain, n_x, n_y, breaks=family.break_abscissae())


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def cmd_distortion(args) -> int:
    family, side = _parse_map(args.map, args)
    gauge = ConvexGauge.parse(args.gauge)
    density = Density.parse(args.density)
    n_a, n_b = _parse_grid(args.grid)
    half_a, half_b = half_resolution_shape(n_a, n_b)
    if side == "annulus":
        grid = _annulus_grid_for(family, args.q, n_a, n_b)
        half = _annulus_grid_for(family, args.q, half_a, half_b)
    else:
        grid = _square_grid_for(family, n_a, n_b)
        half = _square_grid_for(family, half_a, half_b)
    result = mean_distortion(family, gauge, grid, density)
    result_half = mean_distortion(family, gauge, half, density)
    error_estimate = abs(result.value - result_half.value) / 3.0
    row = {
        "map": family.label,
        "gauge": gauge.label,
        "density": density.value,
        "value": result.value,
        "error_estimate": error_estimate,
    }
    params = {
        "map": args.map,
        "gauge": gauge.label,
        "density": density.value,
        "grid": args.grid,
        "q": args.q,
        "k": args.k,
        "theta": args.theta,
        "seed": args.seed,
    }
    summary = {
        "value": result.value,
        "error_estimate": error_estimate,
        "degenerate_cells": result.degenerate_cells,
    }
    if result.warning:
        summary["warning"] = result.warning
    _emit(args, list(row), [row], params, summary)
    return 0


def cmd_fit(args) -> int:
    if args.eps:
        try:
            eps_values = tuple(float(tok) for tok in args.eps.split(","))
        except ValueError:
            raise InputError(f"malformed eps list {args.eps!r}") from None
    else:
        eps_values = LadderConfig().eps_values
    n_radial, n_angular = _parse_grid(args.grid)
    config = LadderConfig(
        q=args.q,
        k=args.k,
        theta=args.theta,
        eps_values=eps_values,
        gauge=ConvexGauge.parse(args.gauge),
        n_radial=n_radial,
        n_angular=n_angular,
    )
    report = run_ladder(config)
    rows = [vars(r) for r in report.rows]
    params = {
        "q": config.q,
        "k": config.k,
        "theta": config.theta,
        "gauge": config.gauge.label,
        "grid": args.grid,
        "seed": args.seed,
    }
    summary = {
        "slope": report.slope,
        "intercept": report.intercept,
        "max_residual": report.max_residual,
        "rows_total": len(rows),
        "rows_used": sum(r.included for r in report.rows),
    }
    _emit(args, ["eps", "deficit", "l1", "dbar_mass"], rows, params, summary)
    return 0


def cmd_audit(args) -> int:
    gauge = ConvexGauge.parse(args.gauge)
    if args.lemma == "taylor":
        report = audit_taylor(gauge, n_pairs=args.samples, seed=args.seed, c=args.c)
    elif args.lemma == "theta":
        report = audit_theta(n_samples=args.samples, seed=args.seed)
    elif args.lemma == "gn-gap":
        n_radial, n_angular = _parse_grid(args.grid)
        grid = build_polar_grid(AnnulusDomain(args.q), n_radial, n_angular)
        report = audit_gn_gap(args.q, args.k, args.theta, args.winding, gauge, grid)
    elif args.lemma in ("k-l2", "k-mean", "alignment"):
        family, side = _parse_map(args.map, args)
        if side != "square":
            raise InputError(
                f"the {args.lemma} audit requires a square-side map "
                "(fstar or feps:eps)"
            )
        n_x, n_y = _parse_grid(args.grid)
        grid = _square_grid_for(family, n_x, n_y)
        fstar = LinearStretch(args.k, 0.0)
        if args.lemma == "k-l2":
            report = audit_k_l2(family, fstar, gauge, grid)
        elif args.lemma == "k-mean":
            report = audit_k_mean(family, fstar, gauge, grid)
        else:
            align = audit_alignment(family, fstar, grid)
            row = {"lemma": "alignment", **vars(align)}
            params = {
                "lemma": "alignment",
                "map": args.map,
                "k": args.k,
                "grid": args.grid,
                "seed": args.seed,
            }
            _emit(args, list(row), [row], params, {"passed": align.passed})
            return 0 if align.passed else 4
    else:
        raise InputError(f"unknown lemma {args.lemma!r}")
    header = ["lemma", "lhs", "rhs", "ratio", "passed"]
    row = {h: getattr(report, h) for h in header}
    params = {
        "lemma": args.lemma,
        "gauge": gauge.label,
        "seed": args.seed,
        "q": args.q,
        "k": args.k,
        "theta": args.theta,
    }
    summary = {f"constant_{k}": v for k, v in sorted(report.constants.items())}
    summary["passed"] = report.passed
    _emit(args, header, [row], params, summary)
    return 0 if report.passed else 4


def cmd_reconstruct(args) -> int:
    tok = args.field.strip().lower()
    domain = AnnulusDomain(args.q**args.k)
    if tok == "identity":
        family: MapFamily = IdentityMap()
    elif tok == "conj":
        family = ConjugationMap()
    elif tok.startswith("phi-eps:"):
        eps = _token_number(tok, float, "field", args.field)
        family = Composition(
            PiecewiseRadialStretch(args.q, args.k, eps),
            InverseSpiralStretch(args.q, args.k, 0.0),
        )
    else:
        raise InputError(
            f"unknown field token {args.field!r}; expected identity|conj|phi-eps:eps"
        )
    n_radial, n_angular = _parse_grid(args.grid)
    grid = build_polar_grid(domain, n_radial, n_angular, breaks=family.break_radii())
    trace = annulus_trace(family, domain, args.nodes)
    fld = dbar_field(family, grid)
    targets = offset_targets(grid, args.points, args.seed, margin=args.margin)
    results = reconstruct_many(trace, fld, targets)
    rows = [
        {
            "target_re": r.target.real,
            "target_im": r.target.imag,
            "value_re": r.value.real,
            "value_im": r.value.imag,
            "exact_re": r.exact.real,
            "exact_im": r.exact.imag,
            "residual": r.residual,
            "near_break": r.near_break,
        }
        for r in results
    ]
    residuals = np.asarray([r.residual for r in results])
    params = {
        "field": args.field,
        "q": args.q,
        "k": args.k,
        "grid": args.grid,
        "nodes": args.nodes,
        "points": args.points,
        "seed": args.seed,
        "margin": args.margin,
    }
    summary = {
        "median_residual": float(np.median(residuals)),
        "max_residual": float(np.max(residuals)),
        "n_near_break": int(sum(r.near_break for r in results)),
    }
    _emit(args, list(rows[0]), rows, params, summary)
    return 0


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", default="-", help="output path, or - for stdout")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--seed", type=int, default=0)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``qclab`` parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="qclab",
        description="Numerical laboratory for quasiconformal extremal maps.",
    )
    parser.add_argument("--version", action="version", version=f"qclab {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("distortion", help="gauged mean distortion of one map")
    p.add_argument("--map", required=True, help="gstar|gN:N|geps:eps|fstar|feps:eps")
    p.add_argument("--q", type=float, default=0.5)
    p.add_argument("--k", type=float, default=2.0)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--n", type=float, default=0.0, help="shear of fstar")
    p.add_argument("--gauge", default="linear")
    p.add_argument("--density", default="uniform", help="uniform|invsq")
    p.add_argument("--grid", default="256x256", help="primary x secondary cells")
    _add_common(p)
    p.set_defaults(func=cmd_distortion)

    p = subs.add_parser("fit", help="epsilon ladder and stability exponent")
    p.add_argument("--q", type=float, default=0.5)
    p.add_argument("--k", type=float, default=2.0)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--eps", default="", help="comma-separated eps values")
    p.add_argument("--gauge", default="square")
    p.add_argument("--grid", default="512x512")
    _add_common(p)
    p.set_defaults(func=cmd_fit)

    p = subs.add_parser("audit", help="run one lemma audit")
    p.add_argument(
        "--lemma",
        required=True,
        choices=("taylor", "k-l2", "k-mean", "alignment", "gn-gap", "theta"),
    )
    p.add_argument("--gauge", default="square")
    p.add_argument("--c", type=float, default=None, help="declared curvature floor")
    p.add_argument("--map", default="feps:0.01")
    p.add_argument("--q", type=float, default=0.5)
    p.add_argument("--k", type=float, default=2.0)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--winding", type=int, default=1)
    p.add_argument("--grid", default="256x256")
    p.add_argument("--samples", type=int, default=10000)
    _add_common(p)
    p.set_defaults(func=cmd_audit)

    p = subs.add_parser("reconstruct", help="Cauchy-Pompeiu reconstruction")
    p.add_argument("--field", required=True, help="identity|conj|phi-eps:eps")
    p.add_argument("--q", type=float, default=0.5)
    p.add_argument("--k", type=float, default=2.0)
    p.add_argument("--grid", default="512x512")
    p.add_argument("--nodes", type=int, default=1024)
    p.add_argument("--points", type=int, default=32)
    p.add_argument("--margin", type=float, default=0.1)
    _add_common(p)
    p.set_defaults(func=cmd_reconstruct)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DegenerateExperimentError as exc:
        print(f"degenerate experiment: {exc}", file=sys.stderr)
        return 3
    except QclabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
