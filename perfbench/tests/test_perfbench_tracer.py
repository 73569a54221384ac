"""Tests of the benchmark's tracer and span arithmetic.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import tracer  # noqa: E402


def _span(name, start, end, parent, work=0, error=None):
    return [name, start, end, parent, 1, work, error]


# root a [0, 10] with children b [1, 4] and c [5, 6]; b has child d [2, 3];
# e [20, 25] is a second root.
TREE = [
    _span("a", 0.0, 10.0, -1),
    _span("b", 1.0, 4.0, 0, work=3),
    _span("d", 2.0, 3.0, 1),
    _span("c", 5.0, 6.0, 0),
    _span("e", 20.0, 25.0, -1, work=7),
]


def test_self_times_subtract_children():
    assert tracer.self_times(TREE) == pytest.approx([6.0, 2.0, 1.0, 1.0, 5.0])


def test_self_time_counts_overlapping_children_once():
    spans = [_span("a", 0.0, 10.0, -1), _span("b", 1.0, 4.0, 0), _span("c", 3.0, 6.0, 0)]
    assert tracer.self_times(spans)[0] == pytest.approx(5.0)


def test_group_stats_use_outermost_spans():
    st = tracer.group_stats(TREE, ("a", "d", "e"))
    assert st["calls"] == 2  # d runs inside a
    assert st["s"] == pytest.approx(15.0)
    assert st["self_s"] == pytest.approx(6.0 + 1.0 + 5.0)
    assert st["work"] == 7
    assert tracer.group_stats(TREE, ("b",))["work"] == 3


@pytest.fixture
def traced():
    t = tracer.Tracer().install()
    try:
        yield t
    finally:
        t.uninstall()


def test_calls_reaching_quad_rule_through_spectral_are_counted(traced):
    from markovlab import koornwinder, spectral

    spectral.l2_markov_factor(2, "y", koornwinder())
    recs = traced.records()
    hits = [r for r in recs if r[0] == "domains.quad_rule"]
    assert len(hits) == 1
    assert recs[hits[0][3]][0] == "spectral.l2_markov_factor"
    assert hits[0][5] > 0  # node count of the rule


def test_package_namespace_and_methods_are_wrapped(traced):
    import markovlab

    p = markovlab.build_pk(1)
    p.eval(0.5, 0.25)
    p * p
    markovlab.pullback_derivative_x(p)
    names = [r[0] for r in traced.records()]
    assert "classical.build_pk" in names
    assert "poly2d.BivariatePoly.eval" in names
    assert "poly2d.BivariatePoly.multiply" in names
    st = tracer.group_stats(
        traced.records(), ("poly2d.pullback_symmetric", "poly2d.pullback_derivative_x")
    )
    assert st["calls"] == 1  # pullback_symmetric runs inside pullback_derivative_x


def test_errors_are_recorded_and_reraised(traced):
    from markovlab import ConditioningError, koornwinder, spectral

    with pytest.raises(ConditioningError):
        spectral.l2_markov_factor(6, "y", koornwinder(), cond_limit=2.0)
    last = [r for r in traced.records() if r[0] == "spectral.l2_markov_factor"][-1]
    assert last[6] == "ConditioningError"


def test_uninstall_restores_every_binding():
    from markovlab import domains, spectral
    from markovlab.poly2d import BivariatePoly

    before = (spectral.quad_rule, domains.quad_rule, BivariatePoly.eval)
    t = tracer.Tracer().install()
    assert spectral.quad_rule is not before[0]
    assert spectral.quad_rule is domains.quad_rule
    t.uninstall()
    assert (spectral.quad_rule, domains.quad_rule, BivariatePoly.eval) == before
