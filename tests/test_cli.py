"""End-to-end CLI checks through subprocesses: output formats, exit codes,
manifests, and byte-level determinism across reruns."""

import csv
import hashlib
import io
import json
import subprocess
import sys

import pytest

from markovlab.config import config_from_json


def run_cli(*args, timeout=300):
    return subprocess.run(
        [sys.executable, "-m", "markovlab", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def parse_csv(text: str):
    return list(csv.reader(io.StringIO(text)))


class TestArea:
    @pytest.mark.parametrize(
        "domain,extra,expect",
        [
            ("omega", (), "1.333333333333"),
            ("simplex-weighted", (), "1.333333333333"),
            ("delta-l", ("--l", "1"), "2.0"),
        ],
    )
    def test_outputs(self, domain, extra, expect):
        res = run_cli("area", "--domain", domain, *extra)
        assert res.returncode == 0
        assert res.stdout.strip() == expect

    def test_capacity_exit_code(self):
        res = run_cli("area", "--domain", "omega", "--exactness", "5000")
        assert res.returncode == 3
        assert "limit" in res.stderr

    def test_seed_warning(self):
        res = run_cli("area", "--domain", "omega", "--seed", "5")
        assert res.returncode == 0
        assert "ignored" in res.stderr


class TestExtremal:
    def test_first_family_csv(self, tmp_path):
        out = tmp_path / "pk.csv"
        res = run_cli("extremal", "--family", "pk", "--range", "1:5", "--p", "inf",
                      "--out", str(out))
        assert res.returncode == 0
        rows = parse_csv(out.read_text())
        assert rows[0] == ["index", "degree", "cusp_derivative", "norm",
                           "ratio", "ratio_over_expected"]
        k1 = rows[1]
        assert k1[0] == "1" and k1[1] == "1"
        assert float(k1[4]) == pytest.approx(0.25, rel=1e-12)
        # footer on stdout is one JSON object with the fit
        fit = json.loads(res.stdout.strip())["fit"]
        assert fit["n_range"] == [1, 21]

    def test_crlf_line_endings(self, tmp_path):
        out = tmp_path / "pk.csv"
        run_cli("extremal", "--family", "pk", "--range", "1:3", "--out", str(out))
        assert b"\r\n" in out.read_bytes()

    def test_second_family_bound(self):
        res = run_cli("extremal", "--family", "qk", "--range", "2:2", "--p", "inf")
        rows = parse_csv(res.stdout)
        assert float(rows[1][4]) >= 16.0

    def test_second_family_floor_is_k4(self):
        # ratio_over_expected divides Q_k's ratio by k^4 = 16, not by the
        # P_k floor k^4/4
        res = run_cli("extremal", "--family", "qk", "--range", "2:2", "--p", "inf")
        assert res.returncode == 0
        row = parse_csv(res.stdout)[1]
        assert float(row[5]) == pytest.approx(float(row[4]) / 16.0, rel=1e-13)

    def test_node_cap_reaches_l2_norm(self, tmp_path):
        cfg = tmp_path / "tiny.json"
        cfg.write_text(json.dumps({"quadrature": {"node_cap": 10}}))
        res = run_cli("extremal", "--family", "pk", "--range", "2:3", "--p", "2",
                      "--config", str(cfg))
        assert res.returncode == 3
        assert "limit" in res.stderr

    def test_manifest(self, tmp_path):
        out = tmp_path / "w.csv"
        res = run_cli("extremal", "--family", "wn", "--range", "4:8", "--alpha", "14",
                      "--l", "3", "--p", "2", "--out", str(out))
        assert res.returncode == 0
        doc = json.loads((tmp_path / "w.csv.manifest.json").read_text())
        assert doc["tool"] == "markovlab"
        assert doc["command"] == "extremal"
        entry = doc["outputs"][0]
        assert entry["path"] == str(out)
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert entry["sha256"] == digest
        assert doc["fit"]["slope"] > 0.0

    @pytest.mark.parametrize("family,span", [("pk", "23:26"), ("qk", "24:25")])
    def test_closed_form_rows_past_expansion_cap(self, family, span):
        """Only the monomial builders cap the degree at 120; the closed-form
        rows go past it (index 25 gives degree 121 for pk, 122 for qk)."""
        res = run_cli("extremal", "--family", family, "--range", span)
        assert res.returncode == 0, res.stderr
        a, b = map(int, span.split(":"))
        rows = [r for r in parse_csv(res.stdout) if r and r[0].isdigit()]
        assert [int(r[0]) for r in rows] == list(range(a, b + 1))

    def test_wn_non_integer_p(self):
        res = run_cli("extremal", "--family", "wn", "--range", "8:12", "--alpha", "14",
                      "--l", "3", "--p", "2.5")
        assert res.returncode == 0, res.stderr
        rows = [r for r in parse_csv(res.stdout) if r and r[0].isdigit()]
        assert [int(r[0]) for r in rows] == list(range(8, 13))
        assert all(float(r[4]) > 0.0 for r in rows)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("extremal", "--family", "pk", "--range", "2:6", "--out", str(a))
        run_cli("extremal", "--family", "pk", "--range", "2:6", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestFactor:
    def test_csv_and_footer(self):
        res = run_cli("factor", "--domain", "omega", "--axis", "y", "--n", "1:5")
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        rows = parse_csv("\n".join(lines[:-1]))
        assert rows[0] == ["n", "value", "method"]
        assert rows[1][2] == "eigen"
        assert float(rows[1][1]) == pytest.approx(3.118047822311618, rel=1e-9)
        json.loads(lines[-1])  # footer parses

    def test_reruns_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            res = run_cli("factor", "--domain", "simplex-weighted", "--axis", "x",
                          "--n", "2:8", "--out", str(out))
            assert res.returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_schur_route(self):
        res = run_cli("factor", "--domain", "schur", "--n", "0:3")
        rows = parse_csv(res.stdout.splitlines()[0] + "\n" + res.stdout.splitlines()[1])
        assert float(rows[1][1]) == pytest.approx(0.9128709291752769, rel=1e-9)

    def test_conditioning_abort_reports_partial(self, tmp_path):
        cfg = tmp_path / "tight.json"
        cfg.write_text(json.dumps({"power_iteration": {"condition_limit": 100.0}}))
        out = tmp_path / "part.csv"
        res = run_cli("factor", "--domain", "omega", "--axis", "y", "--n", "1:9",
                      "--config", str(cfg), "--out", str(out))
        assert res.returncode == 3
        assert "largest completed n: 5" in res.stderr
        rows = parse_csv(out.read_text())
        assert [r[0] for r in rows[1:]] == ["1", "2", "3", "4", "5"]

    def test_conditioning_abort_at_top_degree(self, tmp_path):
        # R-diagonal prefix spreads on omega: 1.90e4 at n=13, 3.79e4 at n=14
        cfg = tmp_path / "probe.json"
        cfg.write_text(json.dumps({"power_iteration": {"condition_limit": 2.7e4}}))
        out = tmp_path / "part.csv"
        res = run_cli("factor", "--domain", "omega", "--axis", "y", "--n", "4:14",
                      "--config", str(cfg), "--out", str(out))
        assert res.returncode == 3
        assert "conditioning abort at n=14; largest completed n: 13" in res.stderr
        rows = parse_csv(out.read_text())
        assert [int(r[0]) for r in rows[1:]] == list(range(4, 14))


class TestVerify:
    def test_reduced_pass(self, tmp_path):
        cfg = tmp_path / "quick.json"
        cfg.write_text(json.dumps({
            "acceptance": {"criteria": [1, 2, 9], "pullback_samples": 5,
                           "identity_samples": 10},
        }))
        rep = tmp_path / "report.json"
        res = run_cli("verify", "--config", str(cfg), "--json", str(rep))
        assert res.returncode == 0
        assert res.stdout.count("[PASS]") == 3
        doc = json.loads(rep.read_text())
        assert doc["all_passed"] is True
        assert [c["id"] for c in doc["criteria"]] == [1, 2, 9]

    def test_degraded_grid_fails(self, tmp_path):
        # starving the sup grid neither rescues nor moves criterion 4: the
        # 1-D slice sups are exact, so the fit still misses its window and
        # density doubling still leaves the slope where it was
        cfg = tmp_path / "coarse.json"
        cfg.write_text(json.dumps({
            "sup_grid": {"density": 1, "floor": 8},
            "acceptance": {"criteria": [4]},
        }))
        rep = tmp_path / "report.json"
        res = run_cli("verify", "--config", str(cfg), "--json", str(rep))
        assert res.returncode == 1
        assert "[FAIL]" in res.stdout
        [c4] = json.loads(rep.read_text())["criteria"]
        lo, hi = c4["measured"]["window"]
        assert not lo <= c4["measured"]["slope"] <= hi
        assert c4["measured"]["stability_shift"] <= 1e-9

    def test_reruns_byte_identical_reports(self, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "acceptance": {"criteria": [5, 11], "koornwinder_degree_range": [2, 6]},
        }))
        reports = []
        for run in ("a", "b"):
            rep = tmp_path / f"r{run}.json"
            res = run_cli("verify", "--config", str(cfg), "--json", str(rep))
            reports.append((res.returncode, rep.read_bytes()))
        assert reports[0] == reports[1]

    def test_conditioning_abort_exit_3(self, tmp_path):
        cfg = tmp_path / "tight.json"
        cfg.write_text(json.dumps({
            "power_iteration": {"condition_limit": 100.0},
            "acceptance": {"criteria": [5, 9]},
        }))
        rep = tmp_path / "report.json"
        res = run_cli("verify", "--config", str(cfg), "--json", str(rep))
        assert res.returncode == 3
        assert "numerical limit: triangular factor spread" in res.stderr
        # the report is still written and keeps every criterion that ran
        doc = json.loads(rep.read_text())
        assert [(c["id"], c["passed"]) for c in doc["criteria"]] == [(5, False), (9, True)]
        assert doc["criteria"][0]["details"].startswith("numerical limit: ")

    def test_condition_limit_reaches_every_spectral_criterion(self, tmp_path):
        # every R prefix past n = 0 spreads beyond 1.5 (omega at n = 1:
        # 3.162), so each of criteria 7, 10 and 11 stops at its first solve
        # past n = 0 instead of running on the default limit 1e13
        cfg = tmp_path / "tight.json"
        cfg.write_text(json.dumps({
            "power_iteration": {"condition_limit": 1.5},
            "acceptance": {"criteria": [7, 10, 11]},
        }))
        rep = tmp_path / "report.json"
        res = run_cli("verify", "--config", str(cfg), "--json", str(rep))
        assert res.returncode == 3
        doc = json.loads(rep.read_text())
        assert [(c["id"], c["passed"]) for c in doc["criteria"]] == [
            (7, False), (10, False), (11, False)
        ]
        for c in doc["criteria"]:
            assert c["details"].startswith("numerical limit: triangular factor spread")

    def test_unknown_config_key_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"acceptance": {"no_such_knob": 1}}))
        res = run_cli("verify", "--config", str(cfg))
        assert res.returncode == 2
        assert "no_such_knob" in res.stderr

    def test_missing_config_exit_2(self):
        res = run_cli("verify", "--config", "/nonexistent/cfg.json")
        assert res.returncode == 2


class TestConfig:
    def test_print_default_round_trips(self):
        res = run_cli("config", "--print-default")
        assert res.returncode == 0
        cfg = config_from_json(res.stdout)
        assert cfg.acceptance.criteria == tuple(range(1, 12))
        assert cfg.sup_grid.density == 8

    def test_bare_config_is_usage_error(self):
        res = run_cli("config")
        assert res.returncode == 2
