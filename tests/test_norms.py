import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from markovlab import classical, norms
from markovlab.domains import CapacityError, delta_l, koornwinder, quad_rule, simplex_weighted
from markovlab.norms import (
    NormSpec,
    bernoulli_sandwich,
    cusp_sup,
    lp_norm,
    markov_ratio,
    wn_1d_integral,
    wn_norms,
)
from markovlab.poly2d import BivariatePoly
from oracles import cusp_sup_reference, jacobi_reference, wn_integral_reference

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
        """Closed-form cusp slope over the 1-D slice sup beats k^4/4. A grid
        sup under-reads the sup and so over-states the ratio; the slice sup
        is the exact sup up to rounding, so the bound is checked honestly."""
        ratio = classical.pk_cusp_derivative(k) / cusp_sup("pk", k)
        assert ratio >= k**4 / 4.0


class TestCuspSup:
    @pytest.mark.parametrize("family", ["pk", "qk"])
    @pytest.mark.parametrize("k", range(1, 21))
    def test_matches_oracle(self, family, k):
        assert cusp_sup(family, k) == pytest.approx(cusp_sup_reference(k), rel=1e-12)

    @pytest.mark.parametrize("density", [8, 16])
    @pytest.mark.parametrize("family", ["pk", "qk"])
    def test_not_below_2d_grid(self, family, density):
        """The slice sup is never below the max over the 2-D sup grid, and
        above it by no more than that grid's resolution (measured shortfall
        at most 1.9e-3 at density 8), so the reduction over-reads nothing."""
        spec = NormSpec(math.inf, koornwinder())
        value = classical.pk_value if family == "pk" else classical.qk_value
        degree = classical.pk_degree if family == "pk" else classical.qk_degree
        for k in (1, 2, 3, 5, 8, 13, 20):
            grid = lp_norm(
                lambda x, y: value(k, x, y), spec, degree=degree(k), grid_density=density
            )
            sup = cusp_sup(family, k, density=density)
            assert sup * (1.0 - 2.5e-3) <= grid <= sup

    def test_corner_values_exact(self):
        # k = 1: P_1 = (1+x+y)/4 and Q_1 = x^2/4 - y peak at 1 on a corner
        assert cusp_sup("pk", 1) == 1.0
        assert cusp_sup("qk", 1) == 1.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="family"):
            cusp_sup("wn", 3)
        with pytest.raises(ValueError, match="index"):
            cusp_sup("pk", 0)
        with pytest.raises(ValueError, match="density"):
            cusp_sup("qk", 3, density=0)


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
            (3, 14.0, 3.5, 2.0, 3),  # non-integer p takes the Gauss-Jacobi path
            (5, 6.0, 1.0, 9.0, 3),
            (4, 14.0, 1.5, 3.0, 3),
            (8, 14.0, 1.5, 3.0, 3),
            (12, 14.0, 1.5, 3.0, 3),
            (4, 14.0, 2.5, 3.0, 3),
            (8, 14.0, 2.5, 3.0, 3),
            (12, 14.0, 2.5, 3.0, 3),
        ],
    )
    def test_against_simpson_oracle(self, n, alpha, p, beta, l):
        got = wn_1d_integral(n, alpha, p, beta, l)
        want = wn_integral_reference(n, alpha, p, beta, l)
        assert got == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize(
        "n, p, beta, want",
        [
            # mpmath.quad at 30 digits on t = x^(1/l), split at the zeros;
            # the Simpson oracle under-resolves the narrow peak near x = 1 here
            (40, 2.5, 3.0, 1.1297550222862863e21),
            (40, 2.5, 10.5, 187338.1116964625),
            (60, 3.5, 5.0, 1.1354970130569928e34),
        ],
    )
    def test_non_integer_p_at_high_degree(self, n, p, beta, want):
        """Pins the Gauss-Jacobi stopping rule where it is loosest: its
        tolerance grows with n, to about 1e-12 here."""
        assert wn_1d_integral(n, 14.0, p, beta, 3) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_gauss_jacobi_matches_exact_path(self, p):
        """At integer p both paths apply: the Gauss-Jacobi panels must agree
        with the exact Gauss-Legendre ones."""
        alpha, l = 14.0, 3
        for n in (0, 1, 4, 9, 12):
            breaks = norms._wn_breaks(n, alpha, l)
            for beta in (float(l), (p + 1.0) * l):
                exact = norms._wn_integral(n, alpha, p, beta, l, breaks)
                got = norms._wn_gauss_jacobi(n, alpha, p, beta, l, breaks)
                assert got == pytest.approx(exact, rel=1e-12)

    def test_point_cap_refuses(self, monkeypatch):
        monkeypatch.setattr(norms, "_GJ_MAX_POINTS", 16)
        with pytest.raises(CapacityError, match="Gauss-Jacobi"):
            wn_1d_integral(8, 14.0, 2.5, 3.0, 3)

    def test_even_l_rejected(self):
        with pytest.raises(ValueError):
            wn_1d_integral(1, 1.0, 2.0, 1.0, 2)


class TestJacobiZeros:
    @pytest.mark.parametrize("alpha", [0.0, 2.0, 6.0, 14.0])
    def test_count_order_and_range(self, alpha):
        for n in range(61):
            z = norms._jacobi_zeros_01(n, alpha)
            assert z.shape == (n // 2,)
            assert np.all(np.diff(z) > 0.0)
            assert np.all((z > 0.0) & (z < 1.0))

    def test_legendre_nodes(self):
        for n in range(61):
            nodes = np.polynomial.legendre.leggauss(n)[0] if n else np.zeros(0)
            want = np.sort(nodes[nodes > 1e-8])
            np.testing.assert_allclose(norms._jacobi_zeros_01(n, 0.0), want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("alpha", [0.0, 2.0, 6.0, 14.0])
    def test_sign_change_at_each_zero(self, alpha):
        for n in range(2, 21):
            z = norms._jacobi_zeros_01(n, alpha)
            ends = np.concatenate([[0.0], z, [1.0]])
            for i, x in enumerate(z, start=1):
                d = 1e-3 * min(x - ends[i - 1], ends[i + 1] - x)
                left = jacobi_reference(n, alpha, alpha, x - d)
                right = jacobi_reference(n, alpha, alpha, x + d)
                assert left * right < 0.0, (n, x)


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

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_norms_are_the_1d_integrals(self, p):
        # wn_norms shares one set of panel breaks; the values must be the
        # same doubles as two separate wn_1d_integral calls
        n, alpha, l = 9, 14.0, 3
        dnorm, norm = wn_norms(n, alpha, l, p)
        assert dnorm == (4.0 * wn_1d_integral(n, alpha, p, float(l), l)) ** (1.0 / p)
        i_den = wn_1d_integral(n, alpha, p, (p + 1.0) * l, l)
        assert norm == (4.0 * i_den / (p + 1.0)) ** (1.0 / p)

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
