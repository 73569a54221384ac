import functools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from markovlab.domains import delta_l, koornwinder, quad_rule, simplex_weighted
from markovlab.norms import NormSpec, markov_ratio
from markovlab.spectral import (
    ConditioningError,
    FactorPoint,
    _graded_indices,
    _mgs_r,
    _node_matrices,
    _parity_classes,
    _upper_inverse,
    basis,
    dense_markov_oracle,
    dense_schur_oracle,
    jacobi_eigenvalues,
    l2_markov_factor,
    l2_markov_sweep,
    l2_schur_factor,
    l2_schur_sweep,
    markov_witness,
    space_dimension,
)
from oracles import eigh_markov_reference, eigh_schur_reference

# closed forms for the 3-dimensional spaces, from exact moment algebra
KOORN_N1_Y = math.sqrt(175.0 / 18.0)
SCHUR_N0 = math.sqrt(5.0 / 6.0)
SCHUR_N1 = math.sqrt((23.0 + math.sqrt(249.0)) / 16.0)


class TestBasis:
    @pytest.mark.parametrize("n,dim", [(0, 1), (1, 3), (4, 15)])
    def test_dimension(self, n, dim):
        assert space_dimension(n) == dim
        assert len(basis(n, koornwinder())) == dim

    def test_degree_graded(self):
        degs = [p.total_degree() for p in basis(3, simplex_weighted())]
        assert degs == sorted(degs)
        assert degs[0] == 0 and degs[-1] == 3

    def test_bounded_on_box(self):
        # scaled Chebyshev products stay in [-1, 1] on the bounding box
        dom = koornwinder()
        xs = np.linspace(-2.0, 2.0, 31)
        ys = np.linspace(-1.0, 1.0, 17)
        xg, yg = np.meshgrid(xs, ys)
        for p in basis(5, dom):
            assert np.abs(p.eval(xg, yg)).max() <= 1.0 + 1e-12


class TestJacobiRotations:
    def test_against_lapack(self):
        rng = np.random.default_rng(7)
        for dim in (2, 5, 9):
            M = rng.standard_normal((dim, dim))
            A = (M + M.T) / 2.0
            got = jacobi_eigenvalues(A)
            want = np.sort(np.linalg.eigvalsh(A))
            np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-11)


class TestMarkovFactor:
    def test_n0_is_zero(self):
        pt = l2_markov_factor(0, "y", koornwinder())
        assert pt.value == 0.0
        assert pt.method == "eigen"

    def test_koornwinder_n1_closed_form(self):
        got = l2_markov_factor(1, "y", koornwinder()).value
        assert got == pytest.approx(KOORN_N1_Y, rel=1e-10)

    def test_matches_dense_oracle(self):
        for dom in (koornwinder(), simplex_weighted()):
            for axis in ("x", "y"):
                for n in (1, 2, 3):
                    fast = l2_markov_factor(n, axis, dom).value
                    slow = dense_markov_oracle(n, axis, dom)
                    assert fast == pytest.approx(slow, rel=1e-8)

    def test_matches_lapack_reference(self):
        # fully independent route: monomial basis, exact moments, LAPACK
        for n in (1, 2, 4):
            got = l2_markov_factor(n, "y", koornwinder()).value
            want = eigh_markov_reference(n, "y", "koornwinder")
            assert got == pytest.approx(want, rel=1e-9)
        got = l2_markov_factor(3, "x", simplex_weighted()).value
        want = eigh_markov_reference(3, "x", "simplex-weighted")
        assert got == pytest.approx(want, rel=1e-9)

    def test_nondecreasing_in_n(self):
        vals = [l2_markov_factor(n, "y", koornwinder()).value for n in range(1, 7)]
        assert all(b >= a * (1.0 - 1e-12) for a, b in zip(vals, vals[1:]))

    def test_witness_reproduces_ratio(self):
        for n in (1, 2, 3):
            pt, poly = markov_witness(n, "y", koornwinder())
            ratio = markov_ratio(poly, "y", NormSpec(2.0, koornwinder()))
            assert ratio == pytest.approx(pt.value, rel=1e-8)

    def test_witness_from_either_parity_class(self):
        # each witness is built in its winning x-parity class alone; omega-x
        # at n = 1 wins in the odd class, every other case here in the even
        winners = set()
        for axis in ("x", "y"):
            for n in range(1, 5):
                pt, poly = markov_witness(n, axis, koornwinder())
                ratio = markov_ratio(poly, axis, NormSpec(2.0, koornwinder()))
                assert ratio == pytest.approx(pt.value, rel=1e-9)
                parities = {int(i) % 2 for i in np.nonzero(poly.coeffs)[0]}
                assert len(parities) == 1
                winners |= parities
        assert winners == {0, 1}

    @pytest.mark.parametrize("l", [1, 3])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_delta_sweep_matches_dense_oracle(self, l, axis):
        # Delta_l keeps both parities: four classes from n = 2 on
        assert len(_parity_classes("delta-l", 3)) == 4
        pts = l2_markov_sweep(delta_l(l), axis, range(1, 4))
        for pt in pts:
            slow = dense_markov_oracle(pt.n, axis, delta_l(l))
            assert pt.value == pytest.approx(slow, rel=1e-9)

    @given(scale=st.floats(min_value=0.25, max_value=4.0, allow_nan=False))
    def test_scale_invariance(self, scale):
        # the value belongs to the space, not to the basis it is solved in
        got = l2_markov_factor(3, "y", koornwinder()).value
        want = eigh_markov_reference(3, "y", "koornwinder", rescale=scale)
        assert got == pytest.approx(want, rel=1e-9)

    def test_conditioning_abort(self):
        with pytest.raises(ConditioningError):
            l2_markov_factor(8, "y", koornwinder(), cond_limit=10.0)


class TestSchurFactor:
    def test_n0_closed_form(self):
        assert l2_schur_factor(0).value == pytest.approx(SCHUR_N0, rel=1e-10)

    def test_n1_closed_form(self):
        assert l2_schur_factor(1).value == pytest.approx(SCHUR_N1, rel=1e-9)

    def test_matches_dense_oracle(self):
        for n in (0, 1, 2, 3):
            fast = l2_schur_factor(n).value
            slow = dense_schur_oracle(n)
            assert fast == pytest.approx(slow, rel=1e-8)

    def test_matches_lapack_reference(self):
        for n in (1, 2, 4):
            got = l2_schur_factor(n).value
            want = eigh_schur_reference(n)
            assert got == pytest.approx(want, rel=1e-9)

    def test_nondecreasing(self):
        vals = [l2_schur_factor(n).value for n in range(0, 6)]
        assert all(b >= a * (1.0 - 1e-12) for a, b in zip(vals, vals[1:]))


def svd_reference(n: int, axis: str, domain) -> float:
    """Top singular value of the degree-n operator sqrt(W) C R^{-1}, built in
    extended precision on its own rule (exact to 2n) and taken by a float64
    SVD: no eigensolver and no nesting across degrees."""
    rule = quad_rule(domain, 2 * n, dtype=np.longdouble)
    sx, sy = domain.bounding_half_widths()
    B, C = _node_matrices(_graded_indices(n), *rule.eval_points(), sx, sy, axis)
    w = np.sqrt(rule.weights)[:, None]
    _, R = _mgs_r(w * B, 1e300)
    K = (w * C) @ _upper_inverse(R)
    return float(np.linalg.svd(K.astype(np.float64), compute_uv=False)[0])


# the four sweeps of criteria 5-7 at their default degree ranges, and omega-x
BENCH_SWEEPS = {
    "omega-x": (lambda ns: l2_markov_sweep(koornwinder(), "x", ns),
                lambda n: l2_markov_factor(n, "x", koornwinder()), range(4, 15)),
    "omega-y": (lambda ns: l2_markov_sweep(koornwinder(), "y", ns),
                lambda n: l2_markov_factor(n, "y", koornwinder()), range(4, 15)),
    "simplex-x": (lambda ns: l2_markov_sweep(simplex_weighted(), "x", ns),
                  lambda n: l2_markov_factor(n, "x", simplex_weighted()), range(4, 17)),
    "simplex-y": (lambda ns: l2_markov_sweep(simplex_weighted(), "y", ns),
                  lambda n: l2_markov_factor(n, "y", simplex_weighted()), range(4, 17)),
    "schur": (l2_schur_sweep, l2_schur_factor, range(4, 17)),
}


@functools.lru_cache(maxsize=None)
def default_sweep(name: str) -> dict[int, float]:
    """{n: value} of one BENCH_SWEEPS sweep, computed once per test run."""
    sweep, _, ns = BENCH_SWEEPS[name]
    return {pt.n: pt.value for pt in sweep(ns)}


class TestNestedSweep:
    def test_omega_top_degrees_match_svd(self):
        # top-eigenvalue gap ratios reach 0.993 here, where a capped power
        # iteration stalls in the 6th digit
        pts = l2_markov_sweep(koornwinder(), "y", range(12, 15))
        for pt in pts:
            want = svd_reference(pt.n, "y", koornwinder())
            assert pt.value == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("name", sorted(BENCH_SWEEPS))
    def test_sweep_matches_per_degree_solves(self, name):
        _, single, ns = BENCH_SWEEPS[name]
        values = default_sweep(name)
        assert list(values) == list(ns)
        for n, value in values.items():
            assert value == pytest.approx(single(n).value, rel=1e-9)

    def test_input_order_kept(self):
        fwd = l2_schur_sweep([1, 2, 3])
        rev = l2_schur_sweep([3, 2, 1])
        assert [p.n for p in rev] == [3, 2, 1]
        assert [p.value for p in rev] == pytest.approx([p.value for p in fwd[::-1]], rel=1e-13)

    def test_empty_and_negative(self):
        assert l2_schur_sweep([]) == []
        with pytest.raises(ValueError):
            l2_markov_sweep(koornwinder(), "y", [2, -1])


# 110-digit values from scripts/make_l2_reference.py (exact rational monomial
# moments, mpmath Cholesky and inverse iteration)
L2_REFERENCE = json.loads(
    (Path(__file__).parent / "data" / "l2_reference.json").read_text()
)["values"]

class TestHighPrecisionReference:
    # (sweep, reference group, bound for n <= 14, bound above)
    CASES = [
        ("omega-x", "omega/x", 1e-12, None),
        ("omega-y", "omega/y", 1e-12, None),
        ("simplex-x", "simplex-weighted/x", 1e-13, 1e-13),
        # the simplex is symmetric under (u, v) -> (-v, -u), which swaps the
        # axes, so both sweeps are checked against the x references
        ("simplex-y", "simplex-weighted/x", 1e-13, 1e-13),
        ("schur", "schur", 1e-10, 2e-9),
    ]

    @pytest.mark.parametrize("name,group,low,high", CASES)
    def test_sweep_ends_match_reference(self, name, group, low, high):
        got = default_sweep(name)
        for n, text in L2_REFERENCE[group].items():
            want = float(text)
            bound = low if int(n) <= 14 else high
            assert abs(got[int(n)] - want) <= bound * want

    def test_simplex_axes_agree(self):
        x, y = default_sweep("simplex-x"), default_sweep("simplex-y")
        assert sorted(x) == list(range(4, 17))
        for n in x:
            assert x[n] == pytest.approx(y[n], rel=1e-13)


class TestFactorPoint:
    def test_validation(self):
        with pytest.raises(ValueError):
            FactorPoint(1, -0.5, "eigen")
        with pytest.raises(ValueError):
            FactorPoint(1, 1.0, "guess")

    def test_methods_allowed(self):
        for m in ("eigen", "extremal-sequence"):
            assert FactorPoint(2, 1.0, m).method == m
        with pytest.raises(ValueError):
            FactorPoint(2, 1.0, "ratio-sample")
