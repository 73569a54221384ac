import math

import numpy as np
import pytest

from markovlab import classical
from oracles import jacobi_reference

RNG = np.random.default_rng(314159)
EPS = np.finfo(np.float64).eps


class TestChebyshev:
    def test_values_against_cos(self):
        t = np.linspace(-1.0, 1.0, 41)
        for k in (0, 1, 2, 5, 11):
            T, _ = classical.chebyshev_T(k, t)
            np.testing.assert_allclose(T, np.cos(k * np.arccos(t)), atol=1e-12)

    def test_endpoint_derivative(self):
        # T_k'(1) = k^2, exactly in the recurrence
        for k in range(0, 25):
            _, d = classical.chebyshev_T(k, 1.0)
            assert d == k * k

    def test_scalar_in_scalar_out(self):
        T, d = classical.chebyshev_T(3, 0.5)
        assert np.ndim(T) == 0
        assert T == pytest.approx(4 * 0.125 - 1.5)


class TestJacobi:
    def test_against_binomial_sum(self):
        t = np.linspace(-1.0, 1.0, 17)
        for n in (0, 1, 2, 3, 7, 15, 20):
            got = classical.jacobi_P(n, 14.0, 14.0, t)
            want = np.array([jacobi_reference(n, 14.0, 14.0, float(x)) for x in t])
            scale = np.abs(want).max()
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * scale)

    def test_legendre_special_case(self):
        t = np.linspace(-1.0, 1.0, 11)
        for n in (1, 4, 9):
            got = classical.jacobi_P(n, 0.0, 0.0, t)
            c = np.zeros(n + 1)
            c[n] = 1.0
            np.testing.assert_allclose(got, np.polynomial.legendre.legval(t, c), atol=1e-13)

    def test_value_at_one(self):
        # P_n^{(a,b)}(1) = C(n+a, n)
        assert classical.jacobi_P(4, 14.0, 14.0, 1.0) == pytest.approx(math.comb(18, 4))

    def test_symmetry(self):
        t = 0.62
        for n in range(8):
            left = classical.jacobi_P(n, 3.0, 3.0, -t)
            right = (-1) ** n * classical.jacobi_P(n, 3.0, 3.0, t)
            assert left == pytest.approx(right, rel=1e-13, abs=1e-13)


def eval_condition(p, x: float, y: float) -> float:
    """Sum |c_ij x^i y^j|: the amplification factor of the expanded form."""
    c = np.abs(p.coeffs)
    xi = np.abs(x) ** np.arange(c.shape[0])
    yj = np.abs(y) ** np.arange(c.shape[1])
    return float(xi @ c @ yj)


def omega_points(count: int):
    pts = []
    while len(pts) < count:
        x = RNG.uniform(-2.0, 2.0)
        y = RNG.uniform(-1.0, 1.0)
        if abs(x) < y + 1.0 and x * x > 4.0 * y:
            pts.append((x, y))
    return pts


class TestFirstFamily:
    def test_degree(self):
        for k in (1, 2, 7):
            assert classical.build_pk(k).total_degree() == 5 * k - 4

    def test_cusp_derivative_exact(self):
        for k in range(1, 21):
            assert classical.pk_cusp_derivative(k) == k**5 / 4.0

    def test_cusp_slope_matches_expansion(self):
        # dP_k/dy is constant in y only after the Chebyshev factor is frozen;
        # evaluate the expanded partial at the cusp itself.
        for k in range(1, 7):
            p = classical.build_pk(k).partial("y")
            assert p.eval(-2.0, 1.0) == pytest.approx(k**5 / 4.0, rel=1e-9)

    def test_closed_matches_expansion_small_k(self):
        for k in range(1, 9):
            p = classical.build_pk(k)
            for x, y in omega_points(10):
                assert classical.pk_value(k, x, y) == pytest.approx(
                    p.eval(x, y), rel=1e-9, abs=1e-9
                )

    def test_closed_matches_expansion_conditioned(self):
        """Large k: the expanded form loses digits to cancellation, so the
        comparison is bounded by the evaluation condition number."""
        for k in (12, 16, 20):
            p = classical.build_pk(k)
            for x, y in omega_points(5):
                closed = classical.pk_value(k, x, y)
                expanded = p.eval(x, y)
                bound = 64.0 * EPS * eval_condition(p, x, y)
                assert abs(closed - expanded) <= bound + 1e-300

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            classical.build_pk(25)

    def test_cap_binds_only_the_builders(self):
        # index 25 is degree 121 (pk) and 122 (qk), past MAX_TOTAL_DEGREE
        with pytest.raises(ValueError, match="cap"):
            classical.build_qk(25)
        assert classical.pk_cusp_derivative(25) == 25**5 / 4.0
        assert classical.qk_cusp_derivative(25) == float(25**5)
        assert np.isfinite(classical.pk_value(25, 0.5, 0.0))
        assert np.isfinite(classical.qk_value(25, 0.5, 0.0))
        with pytest.raises(ValueError, match="index"):
            classical.pk_value(0, 0.5, 0.0)


class TestSecondFamily:
    def test_degree(self):
        for k in (1, 3, 8):
            assert classical.build_qk(k).total_degree() == 5 * k - 3

    def test_cusp_derivative_exact(self):
        for k in range(1, 21):
            assert classical.qk_cusp_derivative(k) == float(k**5)

    def test_cusp_slope_matches_expansion(self):
        for k in range(1, 7):
            q = classical.build_qk(k).partial("x")
            assert q.eval(2.0, 1.0) == pytest.approx(float(k**5), rel=1e-9)

    def test_closed_matches_expansion_small_k(self):
        for k in range(1, 9):
            q = classical.build_qk(k)
            for x, y in omega_points(10):
                assert classical.qk_value(k, x, y) == pytest.approx(
                    q.eval(x, y), rel=1e-9, abs=1e-9
                )

    def test_vanishes_on_parabola(self):
        # the x^2/4 - y factor kills Q_k on the cusp boundary
        for k in (1, 4):
            for x in (-1.5, 0.0, 0.8):
                assert classical.qk_value(k, x, x * x / 4.0) == pytest.approx(0.0, abs=1e-12)


class TestThirdFamily:
    def test_pinned_value(self):
        # W_4 at (1, 1/2) with alpha 14: y * P_4(1) = 0.5 * C(18,4)
        w = classical.build_wn(4, 14.0)
        assert w.eval(1.0, 0.5) == pytest.approx(1530.0, rel=1e-13)

    def test_degree(self):
        for n in (0, 1, 5):
            assert classical.build_wn(n, 14.0).total_degree() == n + 1

    def test_closed_matches_expansion(self):
        for n in range(0, 11):
            w = classical.build_wn(n, 14.0)
            for _ in range(10):
                x = RNG.uniform(-1.0, 1.0)
                y = RNG.uniform(-1.0, 1.0)
                assert classical.wn_value(n, 14.0, x, y) == pytest.approx(
                    w.eval(x, y), rel=1e-9, abs=1e-9
                )

    def test_structure(self):
        # W_n = y * (polynomial in x alone)
        w = classical.build_wn(3, 2.5)
        c = w.coeffs
        assert c.shape[1] == 2
        assert np.all(c[:, 0] == 0.0)
