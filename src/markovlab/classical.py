"""Classical orthogonal-polynomial machinery and the extremal families.

Two kinds of object live here. Pointwise evaluators (`chebyshev_T`,
`jacobi_P` and the closed-form family evaluators built from them) run a
three-term recurrence at the given points; they are numerically benign and
dtype-preserving, so extended-precision callers get extended precision back.

Coefficient builders (`build_pk`, `build_qk`, `build_wn`) return monomial
expansions as BivariatePoly. The expansions are assembled in exact rational
arithmetic (`fractions.Fraction` end to end) and rounded to float64 once, at
the very end. Even so, EVALUATING a high-index expansion in float64 is
ill-conditioned: coefficients alternate with magnitudes up to ~1e10 and the
evaluation condition number at the domain's extreme points reaches ~3e22 by
index 20. Use the closed-form evaluators for numbers; use the expansions for
coefficient-level algebra.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .poly2d import BivariatePoly

__all__ = [
    "chebyshev_T",
    "jacobi_P",
    "MAX_TOTAL_DEGREE",
    "build_pk",
    "build_qk",
    "build_wn",
    "pk_value",
    "qk_value",
    "wn_value",
    "pk_cusp_derivative",
    "qk_cusp_derivative",
    "pk_degree",
    "qk_degree",
]

# Builders refuse expansions beyond this total degree; evaluation error of a
# float64 monomial expansion grows roughly hundredfold per index step past
# the cap region, so larger requests would hand back unusable coefficients.
MAX_TOTAL_DEGREE = 120


def chebyshev_T(k: int, t):
    """Value and derivative of the degree-k Chebyshev polynomial at t.

    Returns the pair (T_k(t), T_k'(t)) computed by the joint three-term
    recurrence. Vectorized over t; the output dtype follows the input, so
    longdouble in gives longdouble out.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    t = np.asarray(t)
    dt = np.result_type(t.dtype, np.float64)
    t = t.astype(dt, copy=False)
    ones = np.ones_like(t)
    zeros = np.zeros_like(t)
    if k == 0:
        return ones, zeros
    tm2, dm2 = ones, zeros  # T_0, T_0'
    tm1, dm1 = t, ones      # T_1, T_1'
    for _ in range(2, k + 1):
        tm1, tm2 = 2.0 * t * tm1 - tm2, tm1
        dm1, dm2 = 2.0 * tm2 + 2.0 * t * dm1 - dm2, dm1
    return tm1, dm1


def jacobi_P(n: int, alpha: float, beta: float, t):
    """Jacobi polynomial P_n^(alpha, beta)(t) by the standard recurrence.

    Vectorized over t, dtype-preserving. Parameters must satisfy
    alpha > -1 and beta > -1.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if alpha <= -1.0 or beta <= -1.0:
        raise ValueError("alpha and beta must exceed -1")
    t = np.asarray(t)
    dt = np.result_type(t.dtype, np.float64)
    t = t.astype(dt, copy=False)
    p0 = np.ones_like(t)
    if n == 0:
        return p0
    a, b = dt.type(alpha), dt.type(beta)
    p1 = (a - b) / 2.0 + (a + b + 2.0) / 2.0 * t
    for m in range(2, n + 1):
        s = 2.0 * m + a + b
        c1 = 2.0 * m * (m + a + b) * (s - 2.0)
        c2 = (s - 1.0) * s * (s - 2.0)
        c3 = (s - 1.0) * (a - b) * (a + b)
        c4 = 2.0 * (m + a - 1.0) * (m + b - 1.0) * s
        p1, p0 = ((c2 * t + c3) * p1 - c4 * p0) / c1, p1
    return p1


# ---------------------------------------------------------------------------
# Exact rational coefficient pipeline (module-private).
# ---------------------------------------------------------------------------

def _cheb_coeffs_int(k: int) -> list[int]:
    """Integer monomial coefficients of T_k."""
    if k == 0:
        return [1]
    prev, cur = [1], [0, 1]
    for _ in range(2, k + 1):
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return cur


def _polyder_int(c: list[int]) -> list[int]:
    return [i * c[i] for i in range(1, len(c))] or [0]


def _affine_compose(c, a: Fraction, b: Fraction) -> list[Fraction]:
    """p(a*s + b) as exact Fractions, by Horner over the composition."""
    out: list[Fraction] = [Fraction(c[-1])]
    for coeff in reversed(c[:-1]):
        # out := out * (a*s + b) + coeff
        shifted = [Fraction(0)] + [a * x for x in out]
        for i, x in enumerate(out):
            shifted[i] += b * x
        shifted[0] += Fraction(coeff)
        out = shifted
    return out


def _mul_frac(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def _fifth_power(p: list[Fraction]) -> list[Fraction]:
    sq = _mul_frac(p, p)
    return _mul_frac(_mul_frac(sq, sq), p)


def pk_degree(k: int) -> int:
    return 5 * k - 4


def qk_degree(k: int) -> int:
    return 5 * k - 3


def _check_family_index(k: int) -> None:
    if k < 1:
        raise ValueError("family index must be >= 1")


def build_pk(k: int) -> BivariatePoly:
    """Monomial expansion of the first cusp family member.

    P_k(x, y) = [T_k'((2 - x)/4) / k]^5 * (1 + x + y)/4, total degree 5k - 4.
    Assembled exactly in rational arithmetic, rounded once to float64.
    """
    _check_family_index(k)
    if pk_degree(k) > MAX_TOTAL_DEGREE:
        raise ValueError(f"degree {pk_degree(k)} > cap {MAX_TOTAL_DEGREE}")
    dcoef = _polyder_int(_cheb_coeffs_int(k))
    f = _affine_compose(dcoef, Fraction(-1, 4), Fraction(1, 2))
    f = [c / k for c in f]
    f5 = _fifth_power(f)
    quarter = Fraction(1, 4)
    rows = len(f5) + 1
    out = np.zeros((rows, 2))
    for i, c in enumerate(f5):
        q = c * quarter
        out[i, 0] += float(q)        # constant part of (1 + x + y)/4
        out[i + 1, 0] += float(q)    # x part
        out[i, 1] += float(q)        # y part
    return BivariatePoly(out)


def build_qk(k: int) -> BivariatePoly:
    """Monomial expansion of the second cusp family member.

    Q_k(x, y) = [T_k'((1 + y)/2) / k]^5 * (x^2/4 - y), total degree 5k - 3.
    """
    _check_family_index(k)
    if qk_degree(k) > MAX_TOTAL_DEGREE:
        raise ValueError(f"degree {qk_degree(k)} > cap {MAX_TOTAL_DEGREE}")
    dcoef = _polyder_int(_cheb_coeffs_int(k))
    f = _affine_compose(dcoef, Fraction(1, 2), Fraction(1, 2))
    f = [c / k for c in f]
    f5 = _fifth_power(f)
    cols = len(f5) + 1
    out = np.zeros((3, cols))
    quarter = Fraction(1, 4)
    for j, c in enumerate(f5):
        out[2, j] += float(c * quarter)  # x^2/4 * y^j
        out[0, j + 1] -= float(c)        # -y^{j+1}
    return BivariatePoly(out)


def build_wn(n: int, alpha: float) -> BivariatePoly:
    """Expansion of W_n(x, y) = y * P_n^(alpha, alpha)(x), degree n + 1.

    Coefficients of the Gegenbauer-type factor come from the exact rational
    recurrence; alpha is taken at its exact binary-float value.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n + 1 > MAX_TOTAL_DEGREE:
        raise ValueError(f"degree {n + 1} > cap {MAX_TOTAL_DEGREE}")
    if alpha <= -1.0:
        raise ValueError("alpha must exceed -1")
    a = Fraction(alpha)
    p0 = [Fraction(1)]
    if n == 0:
        coeffs = p0
    else:
        p1 = [Fraction(0), a + 1]
        for m in range(2, n + 1):
            s = 2 * m + 2 * a
            c1 = 2 * m * (m + 2 * a) * (s - 2)
            c2 = (s - 1) * s * (s - 2)
            c4 = 2 * (m + a - 1) * (m + a - 1) * s
            shifted = [Fraction(0)] + [c2 * c for c in p1]
            for i, c in enumerate(p0):
                shifted[i] -= c4 * c
            p0, p1 = p1, [c / c1 for c in shifted]
        coeffs = p1
    out = np.zeros((len(coeffs), 2))
    for i, c in enumerate(coeffs):
        out[i, 1] = float(c)
    return BivariatePoly(out)


# ---------------------------------------------------------------------------
# Closed-form evaluation. These are the routes every norm and sweep uses.
# ---------------------------------------------------------------------------

def pk_value(k: int, x, y):
    """P_k evaluated through the Chebyshev recurrence (well conditioned)."""
    _check_family_index(k)
    x = np.asarray(x)
    _, d = chebyshev_T(k, (2.0 - x) / 4.0)
    return (d / k) ** 5 * (1.0 + x + np.asarray(y)) / 4.0


def qk_value(k: int, x, y):
    """Q_k evaluated through the Chebyshev recurrence."""
    _check_family_index(k)
    y = np.asarray(y)
    _, d = chebyshev_T(k, (1.0 + y) / 2.0)
    x = np.asarray(x)
    return (d / k) ** 5 * (x * x / 4.0 - y)


def wn_value(n: int, alpha: float, x, y):
    """W_n(x, y) = y * P_n^(alpha, alpha)(x)."""
    return np.asarray(y) * jacobi_P(n, alpha, alpha, x)


def pk_cusp_derivative(k: int) -> float:
    """|dP_k/dy| at the left cusp: equals k^5 / 4, exactly representable.

    Computed through the recurrence at the cusp parameter (T_k'(1) = k^2,
    an exact integer) rather than from the formula, so the test that the two
    agree bitwise is meaningful.
    """
    _check_family_index(k)
    _, d = chebyshev_T(k, 1.0)
    return float(d / k) ** 5 / 4.0


def qk_cusp_derivative(k: int) -> float:
    """|dQ_k/dx| at the right cusp: equals k^5 exactly."""
    _check_family_index(k)
    _, d = chebyshev_T(k, 1.0)
    return float(d / k) ** 5
