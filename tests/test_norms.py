import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from markovlab import classical
from markovlab.domains import delta_l, koornwinder, quad_rule, simplex_weighted
from markovlab.norms import (
    NormSpec,
    bernoulli_sandwich,
    lp_norm,
    markov_ratio,
    wn_1d_integral,
    wn_norms,
)
from markovlab.poly2d import BivariatePoly
from oracles import wn_integral_reference

ONE = BivariatePoly([[1.0]])
X = BivariatePoly.from_terms({(1, 0): 1.0})


class TestLpNorm:
    def test_constant_l2_koornwinder(self):
        assert lp_norm(ONE, NormSpec(2.0, koornwinder())) == pytest.approx(
            math.sqrt(4.0 / 3.0), rel=1e-14
        )

    def test_constant_l2_simplex(self):
        assert lp_norm(ONE, NormSpec(2.0, simplex_weighted())) == pytest.approx(
            math.sqrt(4.0 / 3.0), rel=1e-14
        )

    def test_sup_of_x(self):
        assert lp_norm(X, NormSpec(math.inf, koornwinder())) == pytest.approx(2.0, abs=1e-12)

    def test_unweighted_simplex(self):
        spec = NormSpec(2.0, simplex_weighted(), weighted=False)
        assert lp_norm(ONE, spec) == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_even_p_exactness_under_doubling(self):
        p = BivariatePoly.from_terms({(2, 1): 1.0, (0, 0): -0.3, (1, 1): 0.7})
        spec = NormSpec(4.0, koornwinder())
        base = lp_norm(p, spec)
        doubled_rule = quad_rule(koornwinder(), 8 * p.total_degree())
        again = doubled_rule.integrate(lambda x, y: p.eval(x, y) ** 4) ** 0.25
        assert again == pytest.approx(base, rel=1e-12)

    def test_general_p_close_to_exact(self):
        # p=3 runs the non-certified panel path; p=2 and p=4 bracket it
        spec3 = NormSpec(3.0, koornwinder())
        got = lp_norm(X, spec3)
        lo = lp_norm(X, NormSpec(2.0, koornwinder()))
        hi = lp_norm(X, NormSpec(4.0, koornwinder()))
        # interpolation: ||x||_3 normalized by measure sits between its neighbors
        m = 4.0 / 3.0
        assert (lo / m ** (1 / 2.0)) <= (got / m ** (1 / 3.0)) * (1 + 1e-9)
        assert (got / m ** (1 / 3.0)) <= (hi / m ** (1 / 4.0)) * (1 + 1e-9)

    def test_general_p_against_exact_integral(self):
        # int_Omega |x|^3 = 2 * int_0^2 x^3 (x^2/4 - x + 1) dx = 8/15,
        # incidentally the same value as int_Omega x^2
        # the general-p panel path is non-certified; the kink of |x|^3 crosses
        # panel interiors after the pullback, so expect a few correct digits
        spec = NormSpec(3.0, koornwinder())
        got = lp_norm(X, spec)
        assert got == pytest.approx((8.0 / 15.0) ** (1.0 / 3.0), rel=1e-5)

    def test_callable_needs_degree(self):
        with pytest.raises(TypeError):
            lp_norm(lambda x, y: x + y, NormSpec(2.0, koornwinder()))

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            NormSpec(0.5, koornwinder())

    def test_zero_polynomial(self):
        assert lp_norm(BivariatePoly.zero(), NormSpec(2.0, koornwinder())) == 0.0


class TestMarkovRatio:
    def test_constant_gives_zero(self):
        assert markov_ratio(ONE, "x", NormSpec(2.0, koornwinder())) == 0.0

    def test_x_axis_l2(self):
        got = markov_ratio(X, "x", NormSpec(2.0, koornwinder()))
        assert got == pytest.approx(math.sqrt(2.5), rel=1e-13)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            markov_ratio(BivariatePoly.zero(), "x", NormSpec(2.0, koornwinder()))

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_first_family_lower_bound(self, k):
        """Closed-form cusp slope over grid sup-norm beats k^4/4; the grid
        under-estimates the true sup, so this is conservative the right way."""
        spec = NormSpec(math.inf, koornwinder())
        sup = lp_norm(
            lambda x, y: classical.pk_value(k, x, y), spec, degree=classical.pk_degree(k)
        )
        ratio = classical.pk_cusp_derivative(k) / sup
        assert ratio >= k**4 / 4.0


class TestWnIntegral:
    def test_trivial_beta_one(self):
        assert wn_1d_integral(0, 7.5, 2.0, 1.0, 1) == pytest.approx(0.5, rel=1e-14)

    def test_trivial_beta_three(self):
        assert wn_1d_integral(0, 7.5, 2.0, 3.0, 1) == pytest.approx(0.25, rel=1e-14)

    def test_pinned_value(self):
        # frozen from the adaptive-refinement oracle in this file's sibling
        got = wn_1d_integral(6, 14.0, 2.0, 3.0, 3)
        assert got == pytest.approx(4307.102891243077, rel=1e-10)

    @pytest.mark.parametrize(
        "n,alpha,p,beta,l",
        [
            (2, 14.0, 2.0, 3.0, 3),
            (4, 2.0, 2.0, 5.0, 1),
            (3, 14.0, 3.5, 2.0, 3),  # non-integer p takes the adaptive path
            (5, 6.0, 1.0, 9.0, 3),
        ],
    )
    def test_against_simpson_oracle(self, n, alpha, p, beta, l):
        got = wn_1d_integral(n, alpha, p, beta, l)
        want = wn_integral_reference(n, alpha, p, beta, l)
        assert got == pytest.approx(want, rel=1e-8)

    def test_even_l_rejected(self):
        with pytest.raises(ValueError):
            wn_1d_integral(1, 1.0, 2.0, 1.0, 2)


def wn_ratio(n, alpha, l, p):
    dnorm, norm = wn_norms(n, alpha, l, p)
    return dnorm / norm


class TestWnRatio:
    def test_closed_form_p2(self):
        assert wn_ratio(0, 3.0, 1, 2.0) == pytest.approx(math.sqrt(6.0), rel=1e-13)

    def test_closed_form_p1(self):
        assert wn_ratio(0, 11.0, 1, 1.0) == pytest.approx(3.0, rel=1e-13)
        # W_0 = y on the unit diamond: ||1||_1 = 2 and ||y||_1 = 2/3
        assert wn_norms(0, 11.0, 1, 1.0) == pytest.approx((2.0, 2.0 / 3.0), rel=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 4, 7, 10])
    def test_cross_check_2d_route(self, n):
        """l=1 sanity: the 1-D reduction must match building the polynomial
        and taking honest 2-D norms on the diamond."""
        alpha, p = 14.0, 2.0
        dom = delta_l(1)
        spec = NormSpec(p, dom)
        w = classical.build_wn(n, alpha)
        ratio_2d = markov_ratio(w, "y", spec)
        assert wn_ratio(n, alpha, 1, p) == pytest.approx(ratio_2d, rel=1e-6)
        assert wn_norms(n, alpha, 1, p)[1] == pytest.approx(lp_norm(w, spec), rel=1e-6)

    def test_growth_is_steep(self):
        lo = wn_ratio(8, 14.0, 3, 2.0)
        hi = wn_ratio(16, 14.0, 3, 2.0)
        assert hi > 10.0 * lo  # doubling n should gain far more than 2^2


unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestSandwich:
    @given(x=unit, l=st.sampled_from([1, 3, 5, 7]))
    def test_pointwise(self, x, l):
        lower, mid, upper = bernoulli_sandwich(x, l)
        assert lower <= mid + 1e-15
        assert mid <= upper + 1e-15

    def test_vectorized_orders(self):
        xs = np.linspace(0.0, 1.0, 1000)
        for l in (1, 3, 5):
            lower, mid, upper = bernoulli_sandwich(xs, l)
            assert np.all(lower <= mid)
            assert np.all(mid <= upper)

    def test_l1_collapses(self):
        lower, mid, upper = bernoulli_sandwich(0.37, 1)
        assert lower == mid == upper
