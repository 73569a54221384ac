"""Tests of the benchmark's output checks and of BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from workloads import WHY, WORKLOADS  # noqa: E402

REFS = checks.load_references()
OMEGA = next(c for c in WORKLOADS["factor-sweeps"] if c.id == "omega-y")


def test_compare_rejects_a_value_beyond_its_tolerance():
    tol = checks.TOLERANCES["eigen"]
    o = checks.Outcome()
    o.compare("ok", 100.0 * (1 + 0.5 * tol), 100.0, tol)
    assert o.ok
    o.compare("bad", 100.0 * (1 + 2 * tol), 100.0, tol)
    assert not o.ok and o.problems[0].startswith("bad:")
    o = checks.Outcome()
    o.compare("nan", float("nan"), 1.0, tol)
    assert not o.ok


def _write_factor_output(tmp_path, values, slope):
    rows = ["n,value,method"] + [f"{n},{v!r},eigen" for n, v in values.items()]
    data = ("\r\n".join(rows) + "\r\n").encode("ascii")
    out = tmp_path / "omega.csv"
    out.write_bytes(data)
    manifest = {"outputs": [{"path": str(out), "sha256": hashlib.sha256(data).hexdigest()}]}
    (tmp_path / "omega.csv.manifest.json").write_text(json.dumps(manifest))
    stdout = json.dumps({"fit": {"slope": slope}}) + "\n"
    return out, {"exit": 0, "stdout": stdout, "stderr": ""}


def test_reference_values_pass_and_a_perturbed_value_fails(tmp_path):
    group = REFS["factor/omega/y"]
    values = {n: group["values"][str(n)] for n in OMEGA.items}
    out, result = _write_factor_output(tmp_path, values, group["slope"])
    outcome = checks.check_command(OMEGA, result, out, REFS)
    assert outcome.ok, outcome.problems
    assert len(outcome.errors) == len(values) + 1

    values[9] *= 1 + 3 * checks.TOLERANCES["eigen"]
    out, result = _write_factor_output(tmp_path, values, group["slope"])
    outcome = checks.check_command(OMEGA, result, out, REFS)
    assert [p.split(":")[0] for p in outcome.problems] == ["factor/omega/y[9]"]


def test_wrong_rows_and_exit_code_fail(tmp_path):
    group = REFS["factor/omega/y"]
    values = {n: group["values"][str(n)] for n in OMEGA.items[:-1]}
    out, result = _write_factor_output(tmp_path, values, group["slope"])
    result["exit"] = 3
    problems = checks.check_command(OMEGA, result, out, REFS).problems
    assert any(p.startswith("exit 3") for p in problems)
    assert any(p.startswith("rows") for p in problems)


def test_max_rel_err_has_a_floor():
    o = checks.Outcome(errors=[0.0, 1e-15])
    assert checks.max_rel_err([o]) == checks.ERR_FLOOR
    assert checks.max_rel_err([o, checks.Outcome(errors=[2e-6])]) == 2e-6


def test_benchmark_json_matches_the_runner():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in doc["workloads"]} == WHY
    assert set(WHY) == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_reference_group_exists(workload):
    for cmd in WORKLOADS[workload]:
        if cmd.kind != "verify":
            assert set(map(str, cmd.items)) <= set(REFS[cmd.ref]["values"])
