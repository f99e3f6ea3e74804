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

Output is CSV with a ``#``-prefixed footer of sorted parameters and summary
values, or JSON with ``params``/``rows``/``summary``.  ``params`` echoes every
option of the subcommand as parsed (strings as typed, an unset ``--c`` as JSON
``null`` and an empty CSV value), except the output-routing ones in
``_ROUTING``, plus ``version``.  The output holds no timestamps or machine
state, so reruns with equal arguments are byte-identical.
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
from .functionals import Density, _mean_distortions
from .gauges import ConvexGauge
from .geometry import (
    AnnulusDomain,
    RectangleDomain,
    build_polar_grid,
    grid_for,
    half_resolution_shape,
    image_annulus,
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
from .pompeiu import annulus_trace, dbar_field, offset_targets, reconstruct
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


def _parse_map(token: str, args) -> tuple[MapFamily, AnnulusDomain | RectangleDomain]:
    """Build a map family from a token; returns ``(family, domain)``.

    The g-families live on the annulus ``AnnulusDomain(q)``, the f-families
    on the unit square.
    """
    tok = token.strip().lower()
    if tok == "gstar":
        return SpiralStretch(args.q, args.k, args.theta, 0), AnnulusDomain(args.q)
    if tok.startswith("gn:"):
        winding = _token_number(tok, int, "map", token)
        return SpiralStretch(args.q, args.k, args.theta, winding), AnnulusDomain(args.q)
    if tok.startswith("geps:"):
        eps = _token_number(tok, float, "map", token)
        return PiecewiseRadialStretch(args.q, args.k, eps), AnnulusDomain(args.q)
    if tok == "fstar":
        return LinearStretch(args.k, getattr(args, "n", 0.0)), RectangleDomain(1.0)
    if tok.startswith("feps:"):
        eps = _token_number(tok, float, "map", token)
        return PiecewiseLinearStretch(args.k, eps), RectangleDomain(1.0)
    raise InputError(
        f"unknown map token {token!r}; expected gstar|gN:N|geps:eps|fstar|feps:eps"
    )


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


# Namespace entries that route the output rather than describe the run; they
# are left out of ``params``, so ``--out A`` and ``--out B`` write equal bytes.
_ROUTING = ("command", "func", "out", "format")


def _emit(args, header: list[str], rows: list[dict], summary: dict) -> None:
    params = {k: v for k, v in vars(args).items() if k not in _ROUTING}
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


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def cmd_distortion(args) -> int:
    family, domain = _parse_map(args.map, args)
    gauge = ConvexGauge.parse(args.gauge)
    density = Density.parse(args.density)
    n_a, n_b = _parse_grid(args.grid)
    grid = grid_for(family, domain, n_a, n_b)
    half = grid_for(family, domain, *half_resolution_shape(n_a, n_b))
    (result,), (result_half,) = _mean_distortions((family,), gauge, (grid, half), density)
    error_estimate = abs(result.value - result_half.value) / 3.0
    row = {
        "map": family.label,
        "gauge": gauge.label,
        "density": density.value,
        "value": result.value,
        "error_estimate": error_estimate,
    }
    summary = {
        "value": result.value,
        "error_estimate": error_estimate,
        "degenerate_cells": result.degenerate_cells,
    }
    if result.warning:
        summary["warning"] = result.warning
    _emit(args, list(row), [row], summary)
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
    summary = {
        "slope": report.slope,
        "intercept": report.intercept,
        "max_residual": report.max_residual,
        "rows_total": len(rows),
        "rows_used": sum(r.included for r in report.rows),
    }
    _emit(args, ["eps", "deficit", "l1", "dbar_mass"], rows, summary)
    return 0


# The options each lemma reads, beside ``--lemma`` and the common ``--out``,
# ``--format`` and ``--seed``.  ``audit`` refuses any other option set away
# from its default, so ``params`` never echoes an option that shaped nothing.
_AUDIT_READS = {
    "taylor": ("gauge", "c", "samples"),
    "theta": ("samples",),
    "gn-gap": ("gauge", "q", "k", "theta", "winding", "grid"),
    "k-l2": ("gauge", "map", "k", "grid"),
    "k-mean": ("gauge", "map", "k", "grid"),
    "alignment": ("map", "k", "grid"),
}


def cmd_audit(args) -> int:
    defaults = build_parser().parse_args(["audit", "--lemma", args.lemma])
    reads = _AUDIT_READS[args.lemma]
    unread = [
        f"--{name}"
        for name in sorted(set().union(*_AUDIT_READS.values()) - set(reads))
        if getattr(args, name) != getattr(defaults, name)
    ]
    if unread:
        raise InputError(
            f"the {args.lemma} audit does not read {', '.join(unread)}; it reads "
            f"only {', '.join('--' + name for name in reads)}"
        )
    gauge = ConvexGauge.parse(args.gauge)
    if args.lemma == "taylor":
        report = audit_taylor(gauge, samples=args.samples, seed=args.seed, c=args.c)
    elif args.lemma == "theta":
        report = audit_theta(samples=args.samples, seed=args.seed)
    elif args.lemma == "gn-gap":
        n_radial, n_angular = _parse_grid(args.grid)
        grid = build_polar_grid(AnnulusDomain(args.q), n_radial, n_angular)
        report = audit_gn_gap(args.q, args.k, args.theta, args.winding, gauge, grid)
    else:  # k-l2, k-mean or alignment: the parser admits no other lemma
        family, domain = _parse_map(args.map, args)
        if not isinstance(domain, RectangleDomain):
            raise InputError(
                f"the {args.lemma} audit requires a square-side map "
                "(fstar or feps:eps)"
            )
        n_x, n_y = _parse_grid(args.grid)
        grid = grid_for(family, domain, n_x, n_y)
        fstar = LinearStretch(args.k, 0.0)
        if args.lemma == "k-l2":
            report = audit_k_l2(family, fstar, gauge, grid)
        elif args.lemma == "k-mean":
            report = audit_k_mean(family, fstar, gauge, grid)
        else:
            report = audit_alignment(family, fstar, grid)
    if args.lemma == "alignment":
        row = {"lemma": "alignment", **vars(report)}
        summary = {"passed": report.passed}
    else:
        row = {h: getattr(report, h) for h in ("lemma", "lhs", "rhs", "ratio", "passed")}
        summary = {f"constant_{k}": v for k, v in sorted(report.constants.items())}
        summary["passed"] = report.passed
    _emit(args, list(row), [row], summary)
    return 0 if report.passed else 4


def cmd_reconstruct(args) -> int:
    tok = args.field.strip().lower()
    domain = image_annulus(args.q, args.k)
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
    grid = grid_for(family, domain, n_radial, n_angular)
    trace = annulus_trace(family, domain, args.nodes)
    fld = dbar_field(family, grid)
    targets = offset_targets(grid, args.points, args.seed, margin=args.margin)
    results = reconstruct(trace, fld, targets)
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
    summary = {
        "median_residual": float(np.median(residuals)),
        "max_residual": float(np.max(residuals)),
        "n_near_break": int(sum(r.near_break for r in results)),
        "masked_cells": sum(r.masked_cells for r in results),
        "direct_cells": sum(r.direct_cells for r in results),
    }
    _emit(args, list(rows[0]), rows, summary)
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
