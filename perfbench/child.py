"""The benchmark's worker process; run.py starts a fresh one per sample.

    child.py warm CONFIG_OUT       import markovlab, write the default config
                                   to CONFIG_OUT, print the machine record
    child.py setup CONFIG          print the seconds taken to import
                                   markovlab and load CONFIG, and the
                                   calibration kernel's time just after
    child.py pass PLAN RESULT      run PLAN's commands through
                                   markovlab.cli.main in this process and
                                   write per-command exit codes, output,
                                   times and the mean calibration kernel
                                   time just before and after, plus CPU
                                   time and peak RSS, to RESULT

With "trace": true in PLAN the commands run under tracer.Tracer and the
spans are written to the plan's "spans" path after the last command.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import traceback
from time import perf_counter


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def warm(config_out: str) -> None:
    import numpy as np

    from markovlab.config import config_to_json, default_config

    with open(config_out, "w", encoding="ascii") as fh:
        fh.write(config_to_json(default_config()))
    print(json.dumps({
        "numpy": np.__version__,
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
    }))


def setup(config: str) -> None:
    t0 = perf_counter()
    import markovlab  # noqa: F401  (the import is what is timed)
    from markovlab.config import load_config

    load_config(config)
    setup_s = perf_counter() - t0
    from calibrate import kernel_s

    print(json.dumps({"setup_s": setup_s, "kernel_s": kernel_s()}))


def run_pass(plan_path: str, result_path: str) -> None:
    with open(plan_path, encoding="ascii") as fh:
        plan = json.load(fh)
    import markovlab.cli

    tracer = None
    if plan["trace"]:
        from tracer import Tracer

        tracer = Tracer().install()
    from calibrate import kernel_s

    records = []
    cpu_s = 0.0
    kernel_before = kernel_s()
    for cmd in plan["commands"]:
        out, err = io.StringIO(), io.StringIO()
        cpu0 = _cpu_s()
        t0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = markovlab.cli.main(cmd["argv"])
            except SystemExit as e:  # argparse rejects the arguments
                code = e.code
            except Exception:  # keep going; the check reports the miss
                code = "exception"
                traceback.print_exc(file=err)
        seconds = perf_counter() - t0
        cpu_s += _cpu_s() - cpu0
        kernel_after = kernel_s()
        records.append({
            "id": cmd["id"],
            "exit": code,
            "seconds": seconds,
            "kernel_s": (kernel_before + kernel_after) / 2.0,
            "stdout": out.getvalue(),
            "stderr": err.getvalue(),
        })
        kernel_before = kernel_after
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(plan["spans"])
    doc = {
        "commands": records,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    with open(result_path, "w", encoding="ascii") as fh:
        json.dump(doc, fh)


def main(argv: list[str]) -> int:
    mode, *rest = argv
    if mode == "warm":
        warm(*rest)
    elif mode == "setup":
        setup(*rest)
    elif mode == "pass":
        run_pass(*rest)
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
