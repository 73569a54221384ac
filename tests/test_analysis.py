import json
import math

import pytest

from markovlab.analysis import (
    extremal_rows,
    fit_exponent,
    format_factor_csv_rows,
    report_to_json,
    sweep_extremal,
    verify_all,
)
from markovlab.config import config_from_dict
from markovlab.domains import CapacityError, delta_l, koornwinder, simplex_weighted
from markovlab.norms import NormSpec, cusp_sup, wn_norms
from markovlab.spectral import ConditioningError, FactorPoint, l2_markov_sweep, l2_schur_sweep


class TestFitExponent:
    def test_exact_power_law(self):
        pts = [(n, 3.0 * n**4) for n in range(2, 12)]
        fit = fit_exponent(pts)
        assert fit.slope == pytest.approx(4.0, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
        assert fit.max_abs_residual < 1e-12
        assert fit.n_range == (2, 11)

    def test_accepts_factor_points(self):
        pts = [FactorPoint(n, float(n * n), "eigen") for n in (2, 4, 8)]
        assert fit_exponent(pts).slope == pytest.approx(2.0, abs=1e-12)

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            fit_exponent([(1, 1.0), (2, 4.0)])

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            fit_exponent([(1, 1.0), (2, 0.0), (3, 9.0)])

    def test_rejects_zero_abscissa(self):
        with pytest.raises(ValueError):
            fit_exponent([(0, 1.0), (2, 4.0), (3, 9.0)])


class TestSweepExtremal:
    def test_first_family_anchors(self):
        spec = NormSpec(math.inf, koornwinder())
        pts = sweep_extremal("pk", [1, 2, 3], spec)
        assert [p.n for p in pts] == [1, 6, 11]  # degrees 5k-4
        assert all(p.method == "extremal-sequence" for p in pts)
        assert pts[0].value == pytest.approx(0.25, rel=1e-12)

    def test_second_family_degree(self):
        spec = NormSpec(math.inf, koornwinder())
        pts = sweep_extremal("qk", [2], spec)
        assert pts[0].n == 7
        assert pts[0].value >= 16.0

    def test_wn_family(self):
        spec = NormSpec(2.0, delta_l(3))
        pts = sweep_extremal("wn", [8, 9], spec, alpha=14.0)
        assert [p.n for p in pts] == [9, 10]
        assert pts[1].value > 0.0

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            sweep_extremal("zz", [1, 2, 3], NormSpec(2.0, koornwinder()))

    def test_node_cap_reaches_even_p_norm(self):
        with pytest.raises(CapacityError):
            sweep_extremal("pk", [2, 3], NormSpec(2.0, koornwinder()), node_cap=10)


class TestExtremalRows:
    def test_floors(self):
        # Q_k is read against k^4, not against the P_k floor k^4/4
        spec = NormSpec(math.inf, koornwinder())
        assert [r.floor for r in extremal_rows("pk", [2, 3], spec)] == [4.0, 20.25]
        assert [r.floor for r in extremal_rows("qk", [2, 3], spec)] == [16.0, 81.0]
        wn = extremal_rows("wn", [0, 2], NormSpec(2.0, delta_l(3)))
        assert math.isnan(wn[0].floor) and wn[1].floor == 64.0

    def test_wn_rows_are_the_1d_norms(self):
        [row] = extremal_rows("wn", [8], NormSpec(3.0, delta_l(3)), alpha=14.0)
        assert (row.index, row.degree) == (8, 9)
        assert (row.numerator, row.norm) == wn_norms(8, 14.0, 3, 3.0)
        assert row.ratio == row.numerator / row.norm

    def test_sweep_extremal_is_the_point_view(self):
        spec = NormSpec(math.inf, koornwinder())
        rows = extremal_rows("pk", [2, 4], spec)
        pts = sweep_extremal("pk", [2, 4], spec)
        assert pts == [FactorPoint(r.degree, r.ratio, "extremal-sequence") for r in rows]

    @pytest.mark.parametrize("family", ["pk", "qk"])
    def test_sup_rows_are_the_slice_sups(self, family):
        rows = extremal_rows(
            family, [3, 7], NormSpec(math.inf, koornwinder()), grid_density=16, grid_floor=32
        )
        assert [r.norm for r in rows] == [
            cusp_sup(family, k, density=16, floor=32) for k in (3, 7)
        ]

    @pytest.mark.parametrize("family", ["pk", "qk"])
    def test_coarse_grid_gives_the_same_slope(self, family):
        """The slice sup is exact, so starving its grid does not move the fit."""
        spec = NormSpec(math.inf, koornwinder())
        slopes = [
            fit_exponent(
                sweep_extremal(family, range(4, 21), spec, grid_density=d, grid_floor=f)
            ).slope
            for d, f in ((1, 8), (8, 64))
        ]
        assert abs(slopes[0] - slopes[1]) <= 1e-9

    def test_cusp_families_need_the_cusped_domain(self):
        for family in ("pk", "qk"):
            for spec in (NormSpec(math.inf, delta_l(1)), NormSpec(2.0, simplex_weighted())):
                with pytest.raises(ValueError, match="cusped domain"):
                    extremal_rows(family, [2], spec)

    def test_wn_needs_delta_l_and_finite_p(self):
        with pytest.raises(ValueError, match="delta-l"):
            extremal_rows("wn", [8], NormSpec(2.0, koornwinder()))
        with pytest.raises(ValueError, match="finite p"):
            extremal_rows("wn", [8], NormSpec(math.inf, delta_l(3)))


class TestSweepFactor:
    def test_reruns_give_identical_values(self):
        ns = range(1, 6)
        first = l2_markov_sweep(koornwinder(), "y", ns)
        second = l2_markov_sweep(koornwinder(), "y", ns)
        assert [p.n for p in first] == list(ns)
        assert first == second

    def test_csv_cells_byte_identical_across_reruns(self):
        rows1 = format_factor_csv_rows(l2_schur_sweep(range(2, 7)))
        rows2 = format_factor_csv_rows(l2_schur_sweep(range(2, 7)))
        assert rows1 == rows2

    def test_abort_carries_prefix(self):
        with pytest.raises(ConditioningError) as exc:
            l2_markov_sweep(koornwinder(), "y", range(1, 9), cond_limit=100.0)
        err = exc.value
        assert err.n == 6
        assert [p.n for p in err.partial] == [1, 2, 3, 4, 5]

    def test_residual_gate_aborts_with_prefix(self):
        # n = 0 has the exact eigenpair (0, e_0), residual 0; every later
        # degree carries a rounding-level residual that a zero tolerance refuses
        with pytest.raises(ConditioningError) as exc:
            l2_markov_sweep(koornwinder(), "y", range(0, 4), tol=0.0)
        err = exc.value
        assert "residual" in str(err)
        assert err.n >= 1
        assert [p.n for p in err.partial] == list(range(err.n))


@pytest.fixture(scope="module")
def quick_cfg():
    return config_from_dict(
        {
            "acceptance": {
                "criteria": [1, 2, 9, 10],
                "pullback_samples": 5,
                "identity_samples": 10,
                "oracle_max_degree": 2,
            }
        }
    )


class TestVerifyAll:
    def test_reduced_run_passes(self, quick_cfg):
        report = verify_all(quick_cfg)
        assert report.all_passed
        assert [r.cid for r in report.results] == [1, 2, 9, 10]
        assert all(r.details for r in report.results)

    def test_report_json_stable(self, quick_cfg):
        a = report_to_json(verify_all(quick_cfg))
        b = report_to_json(verify_all(quick_cfg))
        assert a == b
        doc = json.loads(a)
        assert doc["all_passed"] is True
        assert len(doc["criteria"]) == 4

    def test_durations_not_serialized(self, quick_cfg):
        report = verify_all(quick_cfg)
        assert report.durations  # measured in-process
        assert "durations" not in json.loads(report_to_json(report))

    def test_empty_criteria_list(self):
        cfg = config_from_dict({"acceptance": {"criteria": []}})
        report = verify_all(cfg)
        assert report.all_passed
        assert report.results == []

    def test_numerical_limit_is_report_entry_not_exception(self):
        cfg = config_from_dict({
            "power_iteration": {"condition_limit": 100.0},
            "acceptance": {"criteria": [5, 9]},
        })
        report = verify_all(cfg)
        c5, c9 = report.results
        assert (c5.cid, c5.passed, c5.measured) == (5, False, {})
        assert c5.details.startswith("numerical limit: triangular factor spread")
        assert c9.passed
        assert list(report.limits) == [5]
        doc = json.loads(report_to_json(report))
        assert set(doc) == {"version", "seed", "all_passed", "criteria", "config"}
        assert [c["id"] for c in doc["criteria"]] == [5, 9]

    def test_capacity_limit_is_report_entry_not_exception(self):
        cfg = config_from_dict({
            "quadrature": {"node_cap": 10},
            "acceptance": {"criteria": [1]},
        })
        [c1] = verify_all(cfg).results
        assert not c1.passed
        assert c1.details.startswith("numerical limit: rule needs")

    def test_failure_is_report_entry_not_exception(self):
        # shrink the extremal window so criterion 4 must miss it
        cfg = config_from_dict(
            {
                "acceptance": {
                    "criteria": [4],
                    "extremal_index_range": [4, 8],
                    "extremal_slope_window": [0.1, 0.2],
                }
            }
        )
        report = verify_all(cfg)
        assert not report.all_passed
        assert report.results[0].passed is False
        assert "OUTSIDE window" in report.results[0].details


class TestFitStability:
    def test_drop_first_point(self):
        """The fitted exponent should not hinge on the smallest degree."""
        pts = l2_markov_sweep(koornwinder(), "y", range(4, 15))
        full = fit_exponent(pts).slope
        trimmed = fit_exponent(pts[1:]).slope
        assert abs(full - trimmed) < 0.15
