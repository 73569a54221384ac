"""L^p and sup norms on the three domains, plus the 1-D reductions.

Certified paths: even integer p (exact quadrature of the polynomial P**p)
and p = inf (sup over a boundary-including grid, an under-estimate by
construction). General finite p >= 1 falls back to composite Gauss panels
and is not certified; acceptance-grade checks only ever use the certified
paths or the 1-D reductions below.

cusp_sup reduces the sup of the cusp families P_k and Q_k over the cusped
domain to a max over one slice variable. The W_n reduction integrates
|P_n^(a,a)(x)|^p (1 - x^(1/l))^beta over [0,1] as l |P_n(t^l)|^p t^(l-1)
(1-t)^beta over t = x^(1/l), in panels split at the zeros of the Jacobi
factor: the Golub-Welsch nodes of (1-x^2)^a, each polished by one Newton
step. With integer p and beta a panel holds a polynomial of one sign, which
one Gauss-Legendre rule integrates exactly. Otherwise a panel's integrand is
a power of the distance to each end (p at a zero, beta at t = 1, l-1 at
t = 0, plus l p for odd n) times a smooth remainder; a Gauss-Jacobi rule
carrying both exponents, from the same Golub-Welsch routine, takes it. The
rules double until two totals agree; a total that does not settle within
_GJ_MAX_POINTS points raises CapacityError (CLI exit 3) instead of being
returned unconverged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .classical import chebyshev_T, jacobi_P, pk_degree, qk_degree
from .domains import (
    DEFAULT_NODE_CAP,
    CapacityError,
    Domain,
    _sup_axis,
    gauss_legendre_1d,
    map_to_physical,
    quad_rule,
    sup_grid,
)
from .poly2d import BivariatePoly

__all__ = [
    "NormSpec",
    "lp_norm",
    "markov_ratio",
    "cusp_sup",
    "wn_1d_integral",
    "wn_norms",
    "bernoulli_sandwich",
]


@dataclass(frozen=True)
class NormSpec:
    """Which norm: exponent p (math.inf for sup), domain, and whether the
    intrinsic weight w = v - u applies on the weighted simplex."""

    p: float
    domain: Domain
    weighted: bool = True

    def __post_init__(self) -> None:
        if not (self.p >= 1.0):
            raise ValueError("p must be >= 1")


def _weight_power(spec: NormSpec) -> int | None:
    if spec.domain.kind == "simplex-weighted":
        return 1 if spec.weighted else 0
    return None


def _as_evaluator(P, degree: int | None):
    """Accept a BivariatePoly or a (callable, degree) pair."""
    if isinstance(P, BivariatePoly):
        if P.is_zero:
            return None, 0
        return P.eval, P.total_degree()
    if callable(P):
        if degree is None:
            raise TypeError("degree is required when P is a bare callable")
        return P, int(degree)
    raise TypeError(f"cannot evaluate {type(P).__name__}")


@lru_cache(maxsize=64)
def _gl_cached(m: int):
    x, w = gauss_legendre_1d(m)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _panel_nodes(lo: float, hi: float, panels: int, order: int):
    """Composite GL nodes/weights: `panels` panels of `order` points."""
    x, w = _gl_cached(order)
    edges = np.linspace(lo, hi, panels + 1)
    a = edges[:-1, None]
    h = (edges[1:, None] - a) / 2.0
    nodes = (a + h + h * x[None, :]).ravel()
    weights = (h * w[None, :]).ravel()
    return nodes, weights


def _panel_integral_2d(f, spec: NormSpec, p: float, degree: int) -> float:
    """Non-certified composite-panel integral of |f|^p over the domain."""
    dom = spec.domain
    panels = 4 * max(1, degree)
    order = 6
    if dom.kind in ("koornwinder", "simplex-weighted"):
        wp = 1 if dom.kind == "koornwinder" else _weight_power(spec)
        xu, wu = _panel_nodes(-1.0, 1.0, panels, order)
        xt, wt = _panel_nodes(0.0, 1.0, panels, order)
        U = np.repeat(xu, xt.size)
        T = np.tile(xt, xu.size)
        W = np.repeat(wu, xt.size) * np.tile(wt, xu.size)
        W = W * (1.0 - U) ** (wp + 1) * T**wp
        V = U + (1.0 - U) * T
        x, y = map_to_physical(dom, U, V)
        return float(np.sum(W * np.abs(np.asarray(f(x, y))) ** p))
    l = dom.l
    xs, ws = _panel_nodes(0.0, 1.0, panels, order)
    S = np.repeat(xs, xs.size)
    T = np.tile(xs, xs.size)
    W0 = np.repeat(ws, xs.size) * np.tile(ws, xs.size)
    W0 = W0 * (l * l) * S ** (l - 1) * T ** (l - 1) * (1.0 - S) ** l
    X0 = S**l
    Y0 = (1.0 - S) ** l * T**l
    total = 0.0
    for sx in (1.0, -1.0):
        for sy in (1.0, -1.0):
            total += float(np.sum(W0 * np.abs(np.asarray(f(sx * X0, sy * Y0))) ** p))
    return total


def lp_norm(
    P,
    spec: NormSpec,
    *,
    degree: int | None = None,
    grid_density: int = 8,
    grid_floor: int = 64,
    node_cap: int = DEFAULT_NODE_CAP,
) -> float:
    """The L^p (or sup) norm of P under spec.

    P is normally a BivariatePoly; a bare callable plus an explicit degree
    is accepted so closed-form family evaluators can be measured without
    round-tripping through their ill-conditioned expansions.

    Even integer p uses a rule exact for P**p. p = inf takes the max over
    sup_grid (grid_density/grid_floor control its side counts). Other finite
    p >= 1 uses composite panels, 4 * degree per axis, non-certified.
    """
    if not (spec.p >= 1.0):
        raise ValueError("p must be >= 1")
    f, deg = _as_evaluator(P, degree)
    if f is None:
        return 0.0
    if math.isinf(spec.p):
        pts = sup_grid(spec.domain, deg, density=grid_density, floor=grid_floor)
        vals = np.asarray(f(pts[:, 0], pts[:, 1]))
        return float(np.abs(vals).max())
    p = spec.p
    if float(p).is_integer() and int(p) % 2 == 0 and p >= 2:
        ip = int(p)
        rule = quad_rule(spec.domain, ip * deg, _weight_power(spec), node_cap=node_cap)
        x, y = rule.eval_points()
        vals = np.asarray(f(x, y))
        total = float(np.sum(rule.weights * vals**ip))
        return max(total, 0.0) ** (1.0 / ip)
    return _panel_integral_2d(f, spec, p, deg) ** (1.0 / p)


def markov_ratio(P: BivariatePoly, axis: str, spec: NormSpec, **norm_kw) -> float:
    """||dP/daxis|| / ||P|| under spec. Zero denominator is a domain error."""
    denom = lp_norm(P, spec, **norm_kw)
    if denom == 0.0:
        raise ValueError("zero polynomial has no Markov ratio")
    return lp_norm(P.partial(axis), spec, **norm_kw) / denom


# ---------------------------------------------------------------------------
# 1-D sup reductions for P_k and Q_k on the cusped domain.
# ---------------------------------------------------------------------------

# Each refinement round resamples a bracket at this many evenly spaced points
# and keeps the two cells around the best, shrinking it 8-fold; 12 rounds
# take a two-cell bracket to 8**-12 (1.5e-11) of its width.
_ZOOM_POINTS = 17
_ZOOM_ROUNDS = 12


def cusp_sup(family: str, k: int, *, density: int = 8, floor: int = 64) -> float:
    """sup over the cusped domain of |P_k| (family "pk") or |Q_k| ("qk").

    Both reduce exactly to one slice variable. P_k = (T_k'((2-x)/4)/k)^5 *
    (1+x+y)/4 is linear in y, which runs over [|x|-1, x^2/4] at fixed x;
    since (1+x/2)^2 >= 2 max(x, 0), the sup is the max over x in [-2, 2] of
    |T_k'((2-x)/4)/k|^5 (1+x/2)^2/4. For Q_k = (T_k'((1+y)/2)/k)^5 *
    (x^2/4-y), |x^2/4-y| peaks at |x| = y+1 on every slice, leaving the max
    over y in [-1, 1] of |T_k'((1+y)/2)/k|^5 (1-y)^2/4. With t = (2-x)/4
    and t = (1+y)/2 both profiles are g(t) = |T_k'(t)/k|^5 (1-t)^2 on
    [0, 1], so the two sups are equal; the family sets only the degree.

    g is sampled on the Chebyshev-Lobatto points sup_grid takes per axis
    (density and floor keep their meaning there); the two-cell bracket of
    every grid local maximum is then refined by repeated resampling, all
    brackets at once. The result is the largest value sampled, so never
    below the grid max.
    """
    if family not in ("pk", "qk"):
        raise ValueError(f"unknown cusp family {family!r}")
    if k < 1:
        raise ValueError("family index must be >= 1")

    def g(t):
        _, d = chebyshev_T(k, t)
        return np.abs(d / k) ** 5 * (1.0 - t) ** 2

    degree = pk_degree(k) if family == "pk" else qk_degree(k)
    t = (1.0 + _sup_axis(degree, density, floor)) / 2.0
    vals = g(t)
    padded = np.concatenate([[-np.inf], vals, [-np.inf]])
    peaks = np.nonzero((vals >= padded[:-2]) & (vals >= padded[2:]))[0]
    lo = t[np.maximum(peaks - 1, 0)]
    hi = t[np.minimum(peaks + 1, t.size - 1)]
    best = float(vals.max())
    frac = np.linspace(0.0, 1.0, _ZOOM_POINTS)
    rows = np.arange(peaks.size)
    for _ in range(_ZOOM_ROUNDS):
        pts = np.clip(lo[:, None] + (hi - lo)[:, None] * frac, 0.0, 1.0)
        f = g(pts)
        best = max(best, float(f.max()))
        j = f.argmax(axis=1)
        lo = pts[rows, np.maximum(j - 1, 0)]
        hi = pts[rows, np.minimum(j + 1, _ZOOM_POINTS - 1)]
    return best


# ---------------------------------------------------------------------------
# 1-D reductions for W_n on the delta-l family.
# ---------------------------------------------------------------------------

# Past this many points per panel a Gauss-Jacobi total is refused. Every case
# measured (n <= 160, alpha -0.5..14, l 1..5, p <= 7.25) settles by 64.
_GJ_MAX_POINTS = 256


@lru_cache(maxsize=128)
def _gauss_jacobi(m: int, a: float, b: float):
    """Nodes and weights (read-only) of the m-point Gauss rule for
    (1-x)^a (1+x)^b on [-1, 1] by Golub-Welsch: the eigenvalues of the
    symmetric Jacobi matrix are the nodes and mu0 V[0]^2 the weights
    (Golub & Welsch, Math. Comp. 23, 1969; Gautschi 2004, sec. 3.1)."""
    k = np.arange(1.0, m)
    s = 2.0 * k + a + b
    diag = np.concatenate([[(b - a) / (a + b + 2.0)], (b * b - a * a) / (s * (s + 2.0))])
    ratio = np.ones(m - 1)  # (k + a + b) / (s - 1), which is 1 at k = 1
    ratio[1:] = (k[1:] + a + b) / (s[1:] - 1.0)
    off = np.sqrt(4.0 * k * (k + a) * (k + b) * ratio / (s * s * (s + 1.0)))
    x, V = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    mu0 = math.exp((a + b + 1.0) * math.log(2.0) + math.lgamma(a + 1.0)
                   + math.lgamma(b + 1.0) - math.lgamma(a + b + 2.0))
    w = mu0 * V[0] ** 2
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _jacobi_zeros_01(n: int, alpha: float) -> np.ndarray:
    """Zeros of P_n^(alpha, alpha) inside (0, 1), ascending: the n // 2
    largest Golub-Welsch nodes, each given one Newton step with
    P_n' = (n + 2 alpha + 1)/2 P_(n-1)^(alpha+1, alpha+1)."""
    if n < 2:
        return np.zeros(0)
    z = _gauss_jacobi(n, float(alpha), float(alpha))[0][-(n // 2):]
    slope = (n + 2.0 * alpha + 1.0) / 2.0 * jacobi_P(n - 1, alpha + 1.0, alpha + 1.0, z)
    return z - jacobi_P(n, alpha, alpha, z) / slope


def _wn_gauss_jacobi(
    n: int, alpha: float, p: float, beta_exponent: float, l: int, breaks: np.ndarray
) -> float:
    """wn_1d_integral for any p and beta on precomputed panel breaks, one
    Gauss-Jacobi rule per panel. The rules double from 16 points until two
    successive totals agree to 1e-14 relative, or to 8 eps kappa if larger:
    kappa = p l n (n+2 alpha+1) / (2 (alpha+1)), the logarithmic derivative
    of |P_n(t^l)|^p at t = 1, bounds how far rounding a node moves the
    integrand, and converged totals were measured within 1.4 eps kappa."""
    lo, hi = breaks[:-1, None], breaks[1:, None]
    half = (hi - lo) / 2.0
    at_lo = np.full(lo.shape, float(p))
    at_hi = at_lo.copy()
    at_lo[0], at_hi[-1] = (l - 1) + l * p * (n % 2), beta_exponent
    kappa = p * l * n * (n + 2.0 * alpha + 1.0) / (2.0 * (alpha + 1.0))
    rtol = max(1e-14, 8.0 * np.finfo(np.float64).eps * kappa)
    m, prev = 16, None
    while m <= _GJ_MAX_POINTS:
        rules = [_gauss_jacobi(m, a, b) for a, b in zip(at_hi.flat, at_lo.flat)]
        x, w = (np.array(v) for v in zip(*rules))
        t = lo + half * (1.0 + x)  # a midpoint would shift the panel off lo
        f = l * t ** (l - 1) * (1.0 - t) ** beta_exponent
        f *= np.abs(jacobi_P(n, alpha, alpha, t**l)) ** p
        g = f / ((hi - t) ** at_hi * (t - lo) ** at_lo)
        total = float(np.sum(half ** (1.0 + at_lo + at_hi) * w * g))
        if prev is not None and abs(total - prev) <= rtol * total:
            return total
        m, prev = 2 * m, total
    raise CapacityError(f"W_{n} Gauss-Jacobi panels did not settle to {rtol:.1e} "
                        f"within {_GJ_MAX_POINTS} points")


def _check_wn_args(n: int, alpha: float, p: float, l: int) -> None:
    if n < 0:
        raise ValueError("n must be >= 0")
    if alpha <= -1.0:
        raise ValueError("alpha must exceed -1")
    if not (p >= 1.0) or math.isinf(p):
        raise ValueError("p must be finite and >= 1")
    if l < 1 or l % 2 == 0:
        raise ValueError("l must be odd and >= 1")


def _wn_breaks(n: int, alpha: float, l: int) -> np.ndarray:
    """Panel breaks in t: 0, the mapped zeros of the Jacobi factor, 1."""
    zeros = _jacobi_zeros_01(n, alpha)
    return np.concatenate([[0.0], zeros ** (1.0 / l), [1.0]])


def wn_1d_integral(n: int, alpha: float, p: float, beta_exponent: float, l: int) -> float:
    """integral_0^1 |P_n^(alpha,alpha)(x)|^p (1 - x^(1/l))^beta dx, by the
    substitution x = t^l and panels split at the mapped zeros of the Jacobi
    factor: exact Gauss-Legendre panels when p and beta are integers,
    converged Gauss-Jacobi panels otherwise. Raises CapacityError if those
    do not settle within the point cap (see the module docstring).
    """
    _check_wn_args(n, alpha, p, l)
    if beta_exponent < 0:
        raise ValueError("beta_exponent must be >= 0")
    return _wn_integral(n, alpha, p, beta_exponent, l, _wn_breaks(n, alpha, l))


def _wn_integral(
    n: int, alpha: float, p: float, beta_exponent: float, l: int, breaks: np.ndarray
) -> float:
    """wn_1d_integral on precomputed panel breaks, arguments unchecked."""
    if not (float(p).is_integer() and float(beta_exponent).is_integer()):
        return _wn_gauss_jacobi(n, alpha, p, beta_exponent, l, breaks)
    x, w = _gl_cached((int(p) * n * l + int(beta_exponent) + l - 1) // 2 + 2)
    total = 0.0
    for a, b in zip(breaks[:-1].tolist(), breaks[1:].tolist()):
        h = (b - a) / 2.0
        t = a + h + h * x
        # the polynomial integrand has one sign inside a panel
        f = jacobi_P(n, alpha, alpha, t**l) ** int(p) * (1.0 - t) ** int(beta_exponent)
        total += abs(float(h * np.sum(w * (f * l * t ** (l - 1)))))
    return total


def wn_norms(n: int, alpha: float, l: int, p: float) -> tuple[float, float]:
    """(||dW_n/dy||_p, ||W_n||_p) on the delta-l domain, via the 1-D
    reduction over the four symmetric quadrants:
    ||dW_n/dy||_p^p = 4 I(beta=l) and ||W_n||_p^p = 4 I(beta=(p+1)l) / (p+1).
    Both integrals share one set of panel breaks."""
    _check_wn_args(n, alpha, p, l)
    breaks = _wn_breaks(n, alpha, l)
    i_num = _wn_integral(n, alpha, p, float(l), l, breaks)
    i_den = _wn_integral(n, alpha, p, (p + 1.0) * l, l, breaks)
    return (4.0 * i_num) ** (1.0 / p), (4.0 * i_den / (p + 1.0)) ** (1.0 / p)


def bernoulli_sandwich(x, l: int):
    """The three stacked quantities ((1-x)/l)^l, (1-x^(1/l))^l, (1-x)^l.

    For x in [0,1] and integer l >= 1 the middle term is sandwiched by the
    outer two; callers assert the ordering pointwise.
    """
    x = np.asarray(x, dtype=np.float64)
    lower = ((1.0 - x) / l) ** l
    mid = (1.0 - x ** (1.0 / l)) ** l
    upper = (1.0 - x) ** l
    return lower, mid, upper
