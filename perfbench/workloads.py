"""The benchmark's workloads: the CLI commands each one runs, and what each
command must produce.

Every command goes through the public entry point `markovlab.cli.main`. No
`--threads` flag is passed anywhere, so the workloads keep their meaning if
the sweep thread pool goes away.
"""

from __future__ import annotations

from dataclasses import dataclass

# Config files the commands refer to as {name}; written into the run's
# work directory before the first pass.
CONFIGS = {
    # R-diagonal spreads on omega are 1.90e4 at n=13 and 3.79e4 at n=14, so
    # this limit lets 4..13 finish and stops at 14 with ~1.4x margin each side.
    "probe": {"power_iteration": {"condition_limit": 2.7e4}},
    # Criterion 4's stability pair doubles the default sup-grid density 8.
    "d16": {"sup_grid": {"density": 16}},
}

FACTOR_HEADER = ["n", "value", "method"]
EXTREMAL_HEADER = ["index", "degree", "cusp_derivative", "norm", "ratio", "ratio_over_expected"]


@dataclass(frozen=True)
class Command:
    """One CLI invocation and its expected outcome.

    kind "factor"/"extremal": the command writes a CSV (--out is appended)
    whose first column must be exactly `items`; value column entries are
    compared with reference group `ref` at tolerance class `tol`, and for
    exit 0 the fit footer's slope with the group's reference slope.
    kind "verify": the command writes its JSON report (--json is appended).
    """

    id: str
    argv: tuple[str, ...]
    kind: str
    exit: int = 0
    ref: str = ""
    items: tuple[int, ...] = ()
    tol: str = ""
    stderr: str = ""  # text the command's stderr must contain


def _span(a: int, b: int) -> tuple[int, ...]:
    return tuple(range(a, b + 1))


def _factor(cid, domain, axis, a, b, ref, extra=(), exit=0, items=None, stderr=""):
    argv = ("factor", "--domain", domain) + (("--axis", axis) if axis else ()) + ("--n", f"{a}:{b}")
    return Command(cid, argv + extra, "factor", exit, ref, items or _span(a, b), "eigen", stderr)


def _extremal(cid, family, extra, a, b, ref, tol):
    argv = ("extremal", "--family", family, "--range", f"{a}:{b}") + extra
    return Command(cid, argv, "extremal", 0, ref, _span(a, b), tol)


_WN = ("--alpha", "14", "--l", "3")

WORKLOADS: dict[str, tuple[Command, ...]] = {
    "factor-sweeps": (
        _factor("omega-y", "omega", "y", 4, 14, "factor/omega/y"),
        _factor("simplex-x", "simplex-weighted", "x", 4, 16, "factor/simplex-weighted/x"),
        _factor("simplex-y", "simplex-weighted", "y", 4, 16, "factor/simplex-weighted/y"),
        _factor("schur", "schur", None, 4, 16, "factor/schur"),
        _factor(
            "omega-y-probe", "omega", "y", 4, 14, "factor/omega/y",
            extra=("--config", "{probe}"), exit=3, items=_span(4, 13),
            stderr="conditioning abort at n=14; largest completed n: 13",
        ),
    ),
    "extremal-sweeps": (
        _extremal("pk-d8", "pk", ("--p", "inf"), 4, 20, "extremal/pk", "sup_grid"),
        _extremal("qk-d8", "qk", ("--p", "inf"), 4, 20, "extremal/qk", "sup_grid"),
        _extremal("pk-d16", "pk", ("--p", "inf", "--config", "{d16}"), 4, 20, "extremal/pk", "sup_grid"),
        _extremal("qk-d16", "qk", ("--p", "inf", "--config", "{d16}"), 4, 20, "extremal/qk", "sup_grid"),
        # Integer p and beta both take the exact-Gauss panel path. The
        # adaptive path (non-integer p) is left out: at p=2.5 it does not
        # finish n=8 within 120 s.
        _extremal("wn-p2", "wn", _WN + ("--p", "2"), 8, 40, "extremal/wn/l3/alpha14/p2", "wn"),
        _extremal("wn-p3", "wn", _WN + ("--p", "3"), 8, 40, "extremal/wn/l3/alpha14/p3", "wn"),
    ),
    "verify": (
        # Criteria 4-6 are the documented strict expected failures, so the
        # expected exit code is 1.
        Command("verify", ("verify", "--seed", "{seed}"), "verify", exit=1),
    ),
}

WHY = {
    "factor-sweeps": (
        "criteria 5-7's L2 factor sweeps plus an exit-3 conditioning probe; "
        "spectral does ~97% of the work, so an eigen-engine change shows here"
    ),
    "extremal-sweeps": (
        "pk/qk sup-grid sweeps at density 8 and 16 plus wn 1-D integrals; "
        "sup grids and closed-form evaluators only, spectral is never called"
    ),
    "verify": (
        "the full acceptance suite: the only workload that runs poly2d, the "
        "dense oracles and witnesses, and spectral and sup work in one process"
    ),
}


def extremal_degree(ref: str, k: int) -> int:
    """The polynomial degree the CLI reports for family member k."""
    if ref == "extremal/pk":
        return 5 * k - 4
    if ref == "extremal/qk":
        return 5 * k - 3
    return k + 1
