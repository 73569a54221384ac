"""markovlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds src/markovlab; the program is
used from source (PYTHONPATH=src), nothing is installed. Workloads are
defined in workloads.py; each is a fixed list of `markovlab` CLI commands.

One run:

1. Set-up. A warm-up process imports markovlab (so bytecode is compiled
   before anything is timed) and writes the default config.
2. Passes. Each pass is one fresh single-threaded process that runs every
   command of the workload through `markovlab.cli.main`, in an order drawn
   from --seed (verify also gets --seed). With --trace 0, passes repeat
   while the next one is expected to end within --seconds of wall time, at
   least twice; before the first pass and after each one, two fresh
   processes each time `import markovlab` plus `load_config`. With
   --trace 1, one untraced pass is followed by one pass under
   tracer.Tracer, and set-up is not timed.
3. Checks (checks.py). Exit codes, CSV row sets, manifest digests, values
   and fitted slopes against reference.json, and the verify criteria
   pattern. Every output must have the same SHA-256 in every pass of the
   run, traced or not. A command with any miss counts as failed.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}. --trace 0 reports the end-to-end metrics:

    wall_s       median over passes of the summed command times
    setup_s      median time to import markovlab and load a config
    peak_rss_mb  median over passes of the pass process's peak RSS
    max_rel_err  worst relative deviation of any checked value from its
                 reference, reported no lower than checks.ERR_FLOOR
    pass_ratio   commands that passed every check / commands attempted

wall_s and setup_s are in reference-speed seconds: each measured time is
scaled by calibrate.to_reference with the calibration kernel's time
measured in the same process right next to it (for a command, the mean of
the kernel just before and just after). This cancels most of the host's
CPU-speed drift, which reaches 1.7x between runs on a shared machine. The
raw times are kept in the record.

--trace 1 reports the per-layer metrics of PER_LAYER, from the traced pass.
The line before the result holds the machine record and sample counts; the
full record, and the spans of a traced pass, are kept under
.bench_build/perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracer
from calibrate import to_reference
from workloads import CONFIGS, WORKLOADS, Command

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"

BUDGET_S = 170.0  # a run must end within 180 s
SETUP_SAMPLES = 2  # per sampling point: before the first pass and after each
MIN_PASSES = 2

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "max_rel_err": "ratio",
    "pass_ratio": "ratio",
}

# (metric group, span names, stats). calls, s and the work count (dim_sum,
# nodes, points) are summed over the group's outermost spans; self_s over
# all of its spans.
_GROUPS = (
    ("spectral.l2_markov_factor", ("spectral.l2_markov_factor",), ("calls", "s", "dim_sum")),
    ("spectral.l2_schur_factor", ("spectral.l2_schur_factor",), ("calls", "s", "dim_sum")),
    ("spectral.markov_witness", ("spectral.markov_witness",), ("calls", "s")),
    ("spectral.dense_oracle",
     ("spectral.dense_markov_oracle", "spectral.dense_schur_oracle"), ("calls", "s")),
    ("domains.quad_rule", ("domains.quad_rule",), ("calls", "s", "nodes")),
    ("domains.sup_grid", ("domains.sup_grid",), ("calls", "s", "points")),
    ("domains.gauss_legendre_1d", ("domains.gauss_legendre_1d",), ("calls", "s")),
    ("norms.lp_norm", ("norms.lp_norm",), ("calls", "self_s")),
    ("norms.wn_1d_integral", ("norms.wn_1d_integral",), ("calls", "s")),
    ("norms.wn_ratio", ("norms.wn_ratio",), ("calls", "s")),
    ("norms.markov_ratio", ("norms.markov_ratio",), ("calls", "s")),
    ("classical.pk_value", ("classical.pk_value",), ("calls", "s", "points")),
    ("classical.qk_value", ("classical.qk_value",), ("calls", "s", "points")),
    ("classical.jacobi_P", ("classical.jacobi_P",), ("calls", "s", "points")),
    ("classical.chebyshev_T", ("classical.chebyshev_T",), ("calls", "s")),
    ("poly2d.eval", ("poly2d.BivariatePoly.eval",), ("calls", "s")),
    ("poly2d.pullback",
     ("poly2d.pullback_symmetric", "poly2d.pullback_derivative_x",
      "poly2d.pullback_derivative_y"), ("calls", "s")),
    ("poly2d.mul", ("poly2d.BivariatePoly.multiply",), ("calls", "s")),
    ("analysis.sweep_factor", ("analysis.sweep_factor",), ("calls", "s")),
    ("analysis.sweep_schur", ("analysis.sweep_schur",), ("calls", "s")),
    ("analysis.sweep_extremal", ("analysis.sweep_extremal",), ("calls", "s")),
    ("analysis.fit_exponent", ("analysis.fit_exponent",), ("calls", "s")),
    ("analysis.verify_all", ("analysis.verify_all",), ("s",)),
    ("cli.main", ("cli.main",), ("calls", "self_s")),
    ("config.load_config", ("config.load_config",), ("calls", "s")),
)
_UNIT = {"calls": "count", "s": "s", "self_s": "s", "dim_sum": "count", "nodes": "count",
         "points": "count"}
CRITERIA = tuple(range(1, 12))

PER_LAYER = {f"{g}.{stat}": _UNIT[stat] for g, _, stats in _GROUPS for stat in stats}
PER_LAYER["spectral.conditioning_errors"] = "count"
PER_LAYER.update({f"analysis.criterion.c{c}_s": "s" for c in CRITERIA})
PER_LAYER["cli.csv_bytes"] = "bytes"
for _layer in tracer.LAYERS:
    PER_LAYER[f"layer.{_layer}.s"] = "s"
    PER_LAYER[f"layer.{_layer}.self_s"] = "s"
PER_LAYER["trace.overhead"] = "ratio"
PER_LAYER["process.cpu_s"] = "s"


class Failure(Exception):
    """The benchmark cannot run here; no result is printed."""


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """The span-derived part of PER_LAYER."""
    selfs = tracer.self_times(spans)
    out: dict[str, float] = {}
    for group, names, stats in _GROUPS:
        st = tracer.group_stats(spans, names, selfs)
        for stat in stats:
            out[f"{group}.{stat}"] = st[stat if stat in ("calls", "s", "self_s") else "work"]
    out["spectral.conditioning_errors"] = sum(
        1 for s in spans
        if s[0] in ("spectral.l2_markov_factor", "spectral.l2_schur_factor")
        and s[6] == "ConditioningError"
    )
    durations: dict[str, float] = {}
    for s in spans:
        if s[0] == "analysis.verify_all" and isinstance(s[5], dict):
            for cid, secs in s[5].items():
                durations[cid] = durations.get(cid, 0.0) + secs
    for cid in CRITERIA:
        out[f"analysis.criterion.c{cid}_s"] = durations.get(str(cid), 0.0)
    for layer in tracer.LAYERS:
        names = tracer.layer_names(spans, layer)
        st = tracer.group_stats(spans, names, selfs)
        out[f"layer.{layer}.s"] = st["s"]
        out[f"layer.{layer}.self_s"] = st["self_s"]
    return out


def _machine(warm: dict) -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": warm["numpy"],
        "longdouble_eps": warm["longdouble_eps"],
    }


class Run:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.cmds = WORKLOADS[workload]
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.rng = random.Random(seed)
        self.t0 = time.monotonic()
        self.work = BUILD / "perfbench" / f"run-{os.getpid()}"
        self.results = BUILD / "perfbench" / "results"
        # Bytecode is always cached, and only inside the checkout, so set-up
        # times do not depend on PYTHONDONTWRITEBYTECODE or on the state of
        # site-packages.
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env.update(
            PYTHONPATH=os.pathsep.join(
                p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH", "")) if p
            ),
            PYTHONPYCACHEPREFIX=str(BUILD / "pycache"),
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        self.default_config = str(self.work / "default.json")
        self.setup_samples: list[float] = []
        self.raw_setup: list[float] = []
        self.first_digest: dict[str, str | None] = {}
        self.outcomes: list[checks.Outcome] = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def remaining(self) -> float:
        return BUDGET_S - (time.monotonic() - self.t0)

    def child(self, *args: str) -> str:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            cwd=ROOT, env=self.env, capture_output=True, text=True,
            timeout=max(1.0, self.remaining()),
        )
        if proc.returncode != 0:
            raise Failure(f"child {args[0]} exited {proc.returncode}: {proc.stderr.strip()}")
        return proc.stdout

    def setup(self) -> dict:
        """Write the config files and warm up; returns the machine facts
        the warm-up process reports."""
        self.work.mkdir(parents=True, exist_ok=True)
        self.results.mkdir(parents=True, exist_ok=True)
        for name, doc in CONFIGS.items():
            (self.work / f"{name}.json").write_text(json.dumps(doc), encoding="ascii")
        return json.loads(self.child("warm", self.default_config))

    def time_setup(self) -> None:
        for _ in range(SETUP_SAMPLES):
            sample = json.loads(self.child("setup", self.default_config))
            self.raw_setup.append(sample["setup_s"])
            self.setup_samples.append(to_reference(sample["setup_s"], sample["kernel_s"]))

    def argv(self, cmd: Command, out: Path) -> list[str]:
        subs = {"{seed}": str(self.seed)}
        subs.update({f"{{{name}}}": str(self.work / f"{name}.json") for name in CONFIGS})
        argv = [subs.get(a, a) for a in cmd.argv]
        return argv + (["--json", str(out)] if cmd.kind == "verify" else ["--out", str(out)])

    def run_pass(self, index: int, trace: bool, refs: dict) -> dict | None:
        pdir = self.work / f"pass{index}"
        pdir.mkdir()
        order = self.rng.sample(self.cmds, len(self.cmds))
        outs = {c.id: pdir / (f"{c.id}.json" if c.kind == "verify" else f"{c.id}.csv")
                for c in order}
        plan = {
            "commands": [{"id": c.id, "argv": self.argv(c, outs[c.id])} for c in order],
            "trace": trace,
            "spans": str(pdir / "spans.json"),
        }
        (pdir / "plan.json").write_text(json.dumps(plan), encoding="ascii")
        self.attempted += len(order)
        try:
            self.child("pass", str(pdir / "plan.json"), str(pdir / "result.json"))
            result = json.loads((pdir / "result.json").read_text(encoding="ascii"))
        except (Failure, subprocess.TimeoutExpired) as e:
            self.failed += len(order)
            self.problems.append(f"pass {index}: {e}")
            return None
        records = {r["id"]: r for r in result["commands"]}
        for c in order:
            outcome = checks.check_command(c, records[c.id], outs[c.id], refs)
            first = self.first_digest.setdefault(c.id, outcome.digest)
            if outcome.digest != first:
                outcome.problems.append("output differs from the first pass's")
            self.outcomes.append(outcome)
            if not outcome.ok:
                self.failed += 1
                self.problems += [f"pass {index} {c.id}: {p}" for p in outcome.problems]
        result["raw_wall_s"] = sum(r["seconds"] for r in result["commands"])
        result["wall_s"] = sum(to_reference(r["seconds"], r["kernel_s"]) for r in result["commands"])
        result["csv_bytes"] = sum(
            p.stat().st_size for p in outs.values() if p.suffix == ".csv" and p.exists()
        )
        if trace:
            result["spans"] = str(self.results / f"{self.workload}.spans.json")
            shutil.copyfile(plan["spans"], result["spans"])
        return result

    def passes(self, refs: dict) -> list[dict | None]:
        """With tracing, one plain and one traced pass. Without, passes
        while the next one is expected to fit in --seconds (at least
        MIN_PASSES), with set-up samples taken before and after each."""
        if self.trace:
            return [self.run_pass(0, False, refs), self.run_pass(1, True, refs)]
        done: list[dict | None] = []
        self.time_setup()
        while True:
            done.append(self.run_pass(len(done), False, refs))
            self.time_setup()
            if done[-1] is None:
                break
            walls = [p["raw_wall_s"] for p in done]
            mean = sum(walls) / len(walls)
            if len(done) >= MIN_PASSES and (
                sum(walls) + mean > self.seconds or self.remaining() < 2.0 * mean
            ):
                break
        return done


def measure(args) -> tuple[dict, dict]:
    refs = checks.load_references()
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        warm = run.setup()
        passes = run.passes(refs)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    ok = [p for p in passes if p is not None]
    metrics: dict[str, float] = {}
    if run.trace and len(ok) == 2:
        plain, traced = ok
        spans = json.loads(Path(traced["spans"]).read_text(encoding="ascii"))["spans"]
        metrics = layer_metrics(spans)
        metrics["cli.csv_bytes"] = traced["csv_bytes"]
        metrics["trace.overhead"] = traced["wall_s"] / plain["wall_s"]
        metrics["process.cpu_s"] = plain["cpu_s"]
    elif not run.trace and ok:
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in ok),
            "setup_s": statistics.median(run.setup_samples),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in ok),
            "max_rel_err": checks.max_rel_err(run.outcomes),
            "pass_ratio": (run.attempted - run.failed) / run.attempted,
        }
    units = PER_LAYER if run.trace else END_TO_END
    result = {
        "correct": run.failed == 0 and len(metrics) == len(units),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics},
    }
    record = {
        "workload": run.workload,
        "seed": run.seed,
        "trace": run.trace,
        "machine": _machine(warm),
        "samples": {"passes": len(passes), "setup": len(run.setup_samples)},
        "pass_wall_s": [p["wall_s"] if p else None for p in passes],
        "pass_raw_wall_s": [p["raw_wall_s"] if p else None for p in passes],
        "raw_setup_s": run.raw_setup,
        "command_s": {
            r["id"]: [q["seconds"] for p in ok for q in p["commands"] if q["id"] == r["id"]]
            for r in (ok[0]["commands"] if ok else [])
        },
        "problems": run.problems,
    }
    return result, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "markovlab" / "cli.py").is_file():
        print(f"perfbench: no markovlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, record = measure(args)
    except (Failure, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (BUILD / "perfbench" / "results" / name).write_text(
        json.dumps(record, indent=1) + "\n", encoding="ascii"
    )
    for p in record["problems"]:
        print(f"perfbench: {p}", file=sys.stderr)
    print(json.dumps({"perfbench": {k: record[k] for k in ("machine", "samples", "pass_wall_s")}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
