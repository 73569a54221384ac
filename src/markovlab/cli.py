"""Command-line front end.

Subcommands: area, extremal, factor, verify, config. Data goes to CSV
(RFC-4180-style, 15 significant digits, byte-identical across reruns); fit
footers and verify reports are JSON. Commands that write
an output file also write `<out>.manifest.json` describing the run.

Exit codes: 0 success, 1 verification failure, 2 usage or config error,
3 numerical capacity or conditioning error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from .analysis import (
    FitResult,
    extremal_rows,
    fit_exponent,
    format_factor_csv_rows,
    report_to_json,
    verify_all,
)
from .config import ConfigError, LabConfig, config_to_dict, config_to_json, default_config, load_config
from .domains import CapacityError, Domain, delta_l, koornwinder, quad_rule, simplex_weighted
from .norms import NormSpec
from .spectral import ConditioningError, FactorPoint, l2_markov_sweep, l2_schur_sweep

TOOL_NAME = "markovlab"
TOOL_VERSION = "0.1.0"

_DOMAIN_NAMES = ("omega", "simplex-weighted", "delta-l")


def _fmt(v: float) -> str:
    return format(float(v), ".15g")


def _parse_span(text: str) -> list[int]:
    """'a:b' (inclusive) or a single integer."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return [int(parts[0])]
        if len(parts) == 2:
            a, b = int(parts[0]), int(parts[1])
            if b < a:
                raise ValueError
            return list(range(a, b + 1))
    except ValueError:
        pass
    raise ConfigError(f"bad range {text!r}; expected 'a:b' or a single integer")


def _parse_p(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity", "oo"):
        return math.inf
    try:
        p = float(text)
    except ValueError:
        raise ConfigError(f"bad p {text!r}") from None
    if p < 1.0:
        raise ConfigError("p must be >= 1")
    return p


def _domain_from_name(name: str, l: int) -> Domain:
    if name == "omega":
        return koornwinder()
    if name == "simplex-weighted":
        return simplex_weighted()
    if name == "delta-l":
        return delta_l(l)
    raise ConfigError(f"unknown domain {name!r}")


def _load_cfg(args) -> LabConfig:
    if getattr(args, "config", None):
        return load_config(args.config)
    return default_config()


def _warn_seed_ignored(args) -> None:
    if getattr(args, "seed", None) is not None:
        print(
            f"{TOOL_NAME}: warning: --seed ignored, this command is deterministic",
            file=sys.stderr,
        )


def _render_csv(rows: list[list[str]]) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerows(rows)
    return buf.getvalue().encode("ascii")


def _emit_csv(rows: list[list[str]], out: str | None) -> tuple[str | None, str]:
    data = _render_csv(rows)
    digest = hashlib.sha256(data).hexdigest()
    if out is None:
        sys.stdout.write(data.decode("ascii"))
        return None, digest
    with open(out, "wb") as fh:
        fh.write(data)
    return out, digest


def _write_manifest(
    out: str, command: str, parameters: dict, cfg: LabConfig, digest: str,
    fit: FitResult | None,
) -> None:
    doc = {
        "tool": TOOL_NAME,
        "version": TOOL_VERSION,
        "command": command,
        "parameters": parameters,
        "config": config_to_dict(cfg),
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "outputs": [{"path": out, "sha256": digest}],
        "fit": None if fit is None else _fit_dict(fit),
    }
    with open(out + ".manifest.json", "w", encoding="ascii") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fit_dict(fit: FitResult) -> dict:
    return {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "max_abs_residual": fit.max_abs_residual,
        "n_range": list(fit.n_range),
    }


def _print_fit_footer(points: list[FactorPoint]) -> FitResult | None:
    if len(points) < 3:
        return None
    try:
        fit = fit_exponent(points)
    except ValueError:
        return None  # degenerate sweep (zero abscissa or value); no footer
    print(json.dumps({"fit": _fit_dict(fit)}, sort_keys=True))
    return fit


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def cmd_area(args) -> int:
    _warn_seed_ignored(args)
    cfg = _load_cfg(args)
    domain = _domain_from_name(args.domain, args.l)
    rule = quad_rule(
        domain,
        args.exactness,
        margin=cfg.quadrature.exactness_margin,
        node_cap=cfg.quadrature.node_cap,
    )
    print(repr(round(float(np.sum(rule.weights)), 12)))
    return 0


def cmd_extremal(args) -> int:
    _warn_seed_ignored(args)
    cfg = _load_cfg(args)
    indices = _parse_span(args.range)
    p = _parse_p(args.p)
    domain = delta_l(args.l) if args.family == "wn" else koornwinder()
    rows = extremal_rows(
        args.family, indices, NormSpec(p, domain), alpha=args.alpha,
        grid_density=cfg.sup_grid.density, grid_floor=cfg.sup_grid.floor,
        node_cap=cfg.quadrature.node_cap,
    )
    table = [["index", "degree", "cusp_derivative", "norm", "ratio", "ratio_over_expected"]]
    for r in rows:
        table.append([
            str(r.index), str(r.degree), _fmt(r.numerator), _fmt(r.norm),
            _fmt(r.ratio), _fmt(r.ratio / r.floor),
        ])
    out, digest = _emit_csv(table, args.out)
    fit = _print_fit_footer([r.point for r in rows])
    if out is not None:
        params = {
            "family": args.family, "range": args.range, "p": args.p,
            "alpha": args.alpha, "l": args.l,
        }
        _write_manifest(out, "extremal", params, cfg, digest, fit)
    return 0


def cmd_factor(args) -> int:
    _warn_seed_ignored(args)
    cfg = _load_cfg(args)
    ns = _parse_span(args.n)
    pw = cfg.power_iteration
    params = {"domain": args.domain, "axis": args.axis, "n": args.n, "l": args.l}
    try:
        if args.domain == "schur":
            points = l2_schur_sweep(ns, tol=pw.tolerance, cond_limit=pw.condition_limit)
        else:
            domain = _domain_from_name(args.domain, args.l)
            points = l2_markov_sweep(
                domain, args.axis, ns, tol=pw.tolerance, cond_limit=pw.condition_limit
            )
    except ConditioningError as e:
        out, digest = _emit_csv(format_factor_csv_rows(e.partial), args.out)
        if out is not None:
            _write_manifest(out, "factor", params, cfg, digest, None)
        done = e.partial[-1].n if e.partial else None
        print(
            f"{TOOL_NAME}: conditioning abort at n={e.n}; "
            f"largest completed n: {done} ({e})",
            file=sys.stderr,
        )
        return 3
    out, digest = _emit_csv(format_factor_csv_rows(points), args.out)
    fit = _print_fit_footer(points)
    if out is not None:
        _write_manifest(out, "factor", params, cfg, digest, fit)
    return 0


def cmd_verify(args) -> int:
    cfg = _load_cfg(args)
    report = verify_all(cfg, seed=args.seed)
    for r in report.results:
        tag = "PASS" if r.passed else "FAIL"
        print(f"[{tag}] criterion {r.cid} ({r.name}): {r.details}")
    n_pass = sum(r.passed for r in report.results)
    print(f"{n_pass}/{len(report.results)} criteria passed")
    for cid, secs in sorted(report.durations.items()):
        print(f"criterion {cid}: {secs:.2f}s", file=sys.stderr)
    if args.json:
        with open(args.json, "w", encoding="ascii") as fh:
            fh.write(report_to_json(report))
    if report.limits:
        for cid, msg in sorted(report.limits.items()):
            print(f"{TOOL_NAME}: numerical limit: {msg} (criterion {cid})", file=sys.stderr)
        return 3
    return 0 if report.all_passed else 1


def cmd_config(args) -> int:
    _warn_seed_ignored(args)
    if not args.print_default:
        raise ConfigError("nothing to do; pass --print-default")
    sys.stdout.write(config_to_json(default_config()))
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point.
# ---------------------------------------------------------------------------

def _add_common(sp, *, seed=True, config=True) -> None:
    if config:
        sp.add_argument("--config", metavar="FILE", help="JSON config file")
    if seed:
        sp.add_argument("--seed", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog=TOOL_NAME, description=__doc__.splitlines()[0])
    ap.add_argument("--version", action="version", version=f"{TOOL_NAME} {TOOL_VERSION}")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("area", help="weighted measure via quadrature")
    sp.add_argument("--domain", choices=_DOMAIN_NAMES, required=True)
    sp.add_argument("--l", type=int, default=1)
    sp.add_argument("--exactness", type=int, default=0)
    _add_common(sp)
    sp.set_defaults(fn=cmd_area)

    sp = sub.add_parser("extremal", help="extremal-family ratio sweep")
    sp.add_argument("--family", choices=("pk", "qk", "wn"), required=True)
    sp.add_argument("--range", required=True, metavar="A:B")
    sp.add_argument("--p", default="inf")
    sp.add_argument("--alpha", type=float, default=14.0)
    sp.add_argument("--l", type=int, default=1)
    sp.add_argument("--out", metavar="FILE")
    _add_common(sp)
    sp.set_defaults(fn=cmd_extremal)

    sp = sub.add_parser("factor", help="spectral factor sweep")
    sp.add_argument(
        "--domain", choices=_DOMAIN_NAMES + ("schur",), required=True,
        help="domain for the derivative factor, or 'schur' for the weight-ratio factor",
    )
    sp.add_argument("--axis", choices=("x", "y"), default="y")
    sp.add_argument("--n", required=True, metavar="A:B")
    sp.add_argument("--l", type=int, default=1)
    sp.add_argument("--out", metavar="FILE")
    _add_common(sp)
    sp.set_defaults(fn=cmd_factor)

    sp = sub.add_parser("verify", help="run the acceptance criteria")
    sp.add_argument("--json", metavar="FILE", help="write the full report here")
    _add_common(sp)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("config", help="configuration helpers")
    sp.add_argument("--print-default", action="store_true")
    _add_common(sp, config=False)
    sp.set_defaults(fn=cmd_config)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"{TOOL_NAME}: error: {e}", file=sys.stderr)
        return 2
    except (CapacityError, ConditioningError) as e:
        print(f"{TOOL_NAME}: numerical limit: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"{TOOL_NAME}: error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"{TOOL_NAME}: io error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
