"""Independent reference computations for the test suite.

Nothing here reuses the package's evaluation paths: moments are exact
rationals, the eigenvalue reference goes through numpy's LAPACK bindings
on a monomial basis, Jacobi values come from the finite binomial sum,
1-D integrals use adaptive Simpson refinement, and the cusp-family sups come
from the second-kind Chebyshev recurrence with golden-section refinement.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# Exact monomial moments.
# ---------------------------------------------------------------------------

def _mono_1d(k: int) -> Fraction:
    # integral of t^k over (-1, 1)
    return Fraction(0) if k % 2 else Fraction(2, k + 1)


def _simplex_plain(a: int, b: int) -> Fraction:
    # integral of u^a v^b over the triangle -1 < u < v < 1
    t1 = _mono_1d(a + b + 1)
    t2 = Fraction((-1) ** (a + 1)) * _mono_1d(b)
    return (t1 - t2) / (a + 1)


def simplex_monomial(a: int, b: int, wpow: int) -> Fraction:
    """integral of u^a v^b (v-u)^wpow over the triangle, exactly."""
    total = Fraction(0)
    for m in range(wpow + 1):
        c = Fraction(math.comb(wpow, m) * (-1) ** m)
        total += c * _simplex_plain(a + m, b + wpow - m)
    return total


def omega_monomial(i: int, j: int) -> Fraction:
    """integral of x^i y^j over the cusped domain, via the exact pullback."""
    total = Fraction(0)
    for m in range(i + 1):
        total += math.comb(i, m) * simplex_monomial(m + j, i - m + j, 1)
    return total


def _beta_frac(a: int, b: int) -> Fraction:
    return Fraction(
        math.factorial(a - 1) * math.factorial(b - 1), math.factorial(a + b - 1)
    )


def delta_monomial(i: int, j: int, l: int) -> Fraction:
    """integral of x^i y^j over |x|^(1/l) + |y|^(1/l) < 1, exactly."""
    if i % 2 or j % 2:
        return Fraction(0)
    return Fraction(4 * l, j + 1) * _beta_frac(i * l + l, (j + 1) * l + 1)


# ---------------------------------------------------------------------------
# Dense eigen reference on a scaled monomial basis.
# ---------------------------------------------------------------------------

def monomial_indices(n: int) -> list[tuple[int, int]]:
    return [(i, d - i) for d in range(n + 1) for i in range(d, -1, -1)]


def _moment_fn(kind: str, wpow: int):
    if kind == "koornwinder":
        assert wpow == 0
        return omega_monomial
    if kind == "simplex-weighted":
        return lambda a, b: simplex_monomial(a, b, wpow)
    raise ValueError(kind)


def _scaled_gram(idx, mom, sx: Fraction, sy: Fraction) -> np.ndarray:
    dim = len(idx)
    G = np.empty((dim, dim), dtype=np.float64)
    for a, (i1, j1) in enumerate(idx):
        for b, (i2, j2) in enumerate(idx):
            m = mom(i1 + i2, j1 + j2) / (sx ** (i1 + i2) * sy ** (j1 + j2))
            G[a, b] = float(m)
    return G


def _scaled_deriv_gram(idx, mom, sx: Fraction, sy: Fraction, axis: str) -> np.ndarray:
    dim = len(idx)
    A = np.zeros((dim, dim), dtype=np.float64)
    for a, (i1, j1) in enumerate(idx):
        for b, (i2, j2) in enumerate(idx):
            if axis == "x":
                if i1 == 0 or i2 == 0:
                    continue
                m = i1 * i2 * mom(i1 + i2 - 2, j1 + j2)
                m = m / (sx ** (i1 + i2) * sy ** (j1 + j2))
            else:
                if j1 == 0 or j2 == 0:
                    continue
                m = j1 * j2 * mom(i1 + i2, j1 + j2 - 2)
                m = m / (sx ** (i1 + i2) * sy ** (j1 + j2))
            A[a, b] = float(m)
    return A


def _eigh_pencil_top(A: np.ndarray, G: np.ndarray) -> float:
    w, V = np.linalg.eigh(G)
    if w.min() <= 0:
        raise ValueError("reference Gram not positive definite")
    half = V @ np.diag(1.0 / np.sqrt(w)) @ V.T
    M = half @ A @ half
    return float(np.sqrt(max(np.linalg.eigvalsh(M).max(), 0.0)))


def eigh_markov_reference(n: int, axis: str, kind: str, rescale: float = 1.0) -> float:
    """Best L2 derivative-to-norm ratio over degree-n polynomials, via exact
    monomial moments and LAPACK.

    `rescale` multiplies both monomial scales: it changes the basis of the
    space, not the space, so the ratio must not move with it.
    """
    idx = monomial_indices(n)
    mom = _moment_fn(kind, 0 if kind == "koornwinder" else 1)
    s = Fraction(rescale)
    sx = (Fraction(2) if kind == "koornwinder" else Fraction(1)) * s
    sy = s
    G = _scaled_gram(idx, mom, sx, sy)
    A = _scaled_deriv_gram(idx, mom, sx, sy, axis)
    return _eigh_pencil_top(A, G)


def eigh_schur_reference(n: int) -> float:
    idx = monomial_indices(n)
    one = Fraction(1)
    A = _scaled_gram(idx, _moment_fn("simplex-weighted", 1), one, one)
    G = _scaled_gram(idx, _moment_fn("simplex-weighted", 3), one, one)
    return _eigh_pencil_top(A, G)


# ---------------------------------------------------------------------------
# Jacobi polynomials by the closed binomial sum.
# ---------------------------------------------------------------------------

def _binom_real(z: float, k: int) -> float:
    out = 1.0
    for i in range(1, k + 1):
        out *= (z - i + 1) / i
    return out


def jacobi_reference(n: int, alpha: float, beta: float, x: float) -> float:
    total = 0.0
    for s in range(n + 1):
        total += (
            _binom_real(n + alpha, n - s)
            * _binom_real(n + beta, s)
            * ((x - 1.0) / 2.0) ** s
            * ((x + 1.0) / 2.0) ** (n - s)
        )
    return total


# ---------------------------------------------------------------------------
# Adaptive Simpson integration.
# ---------------------------------------------------------------------------

def _simpson(f, a: float, m: float, b: float, fa: float, fm: float, fb: float) -> float:
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive(f, a, m, b, fa, fm, fb, whole, tol, depth):
    lm, rm = (a + m) / 2.0, (m + b) / 2.0
    flm, frm = f(lm), f(rm)
    left = _simpson(f, a, lm, m, fa, flm, fm)
    right = _simpson(f, m, rm, b, fm, frm, fb)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    return _adaptive(f, a, lm, m, fa, flm, fm, left, tol / 2.0, depth - 1) + _adaptive(
        f, m, rm, b, fm, frm, fb, right, tol / 2.0, depth - 1
    )


def adaptive_simpson(f, a: float, b: float, rel_tol: float = 1e-11, depth: int = 22) -> float:
    """Recursive Simpson; the error budget is relative to a coarse magnitude
    scan so large integrands terminate."""
    m = (a + b) / 2.0
    fa, fm, fb = f(a), f(m), f(b)
    whole = _simpson(f, a, m, b, fa, fm, fb)
    scan = max(abs(f(a + (b - a) * i / 32.0)) for i in range(33))
    tol = rel_tol * (scan * (b - a) + 1e-300)
    return _adaptive(f, a, m, b, fa, fm, fb, whole, tol, depth)


def wn_integral_reference(n: int, alpha: float, p: float, beta: float, l: int) -> float:
    """Same integral as the package's 1-D reduction, done on the original
    x variable with adaptive Simpson (no substitution, no zero-splitting)."""

    def f(x: float) -> float:
        return abs(jacobi_reference(n, alpha, alpha, x)) ** p * (
            1.0 - x ** (1.0 / l)
        ) ** beta

    return adaptive_simpson(f, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Sup of the cusp families by the second-kind Chebyshev recurrence.
# ---------------------------------------------------------------------------

def _chebyshev_U(n: int, t):
    """U_n(t) by U_{j+1} = 2t U_j - U_{j-1}, with U_0 = 1, U_1 = 2t."""
    prev, cur = np.ones_like(t), 2.0 * t
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, 2.0 * t * cur - prev
    return cur


def cusp_sup_reference(k: int, points: int = 100_001, steps: int = 100) -> float:
    """sup over the cusped domain of |P_k|, which equals that of |Q_k|.

    T_k'/k = U_{k-1}, and both slice profiles become g(t) = |U_{k-1}(t)|^5 *
    (1-t)^2 on t in [0, 1] (P_k with x = 2 - 4t, Q_k with y = 2t - 1).
    g is scanned on a uniform grid, and every grid local maximum within half
    of the grid max is refined by scalar golden-section search over its two
    neighbouring cells.
    """

    def g(t):
        return np.abs(_chebyshev_U(k - 1, np.asarray(t, dtype=np.float64))) ** 5 * (1.0 - t) ** 2

    t = np.linspace(0.0, 1.0, points)
    vals = g(t)
    best = float(vals.max())
    padded = np.concatenate([[-1.0], vals, [-1.0]])
    peaks = np.nonzero((vals >= padded[:-2]) & (vals >= padded[2:]) & (vals >= best / 2.0))[0]
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    for i in peaks:
        a, b = t[max(i - 1, 0)], t[min(i + 1, points - 1)]
        for _ in range(steps):
            c, d = b - ratio * (b - a), a + ratio * (b - a)
            if g(c) >= g(d):
                b = d
            else:
                a = c
        best = max(best, float(g(a)), float(g(b)))
    return best
