"""Domains, quadrature rules, and sup-norm grids.

Three domain families are supported:

- ``koornwinder``: the cusped region bounded by the lines |x| = y + 1 and
  the parabola x^2 = 4y, with corners (2, 1), (-2, 1), (0, -1). It is the
  image of the triangle below under (u, v) -> (u + v, u*v).
- ``simplex-weighted``: the triangle -1 < u < v < 1 carrying the weight
  w = v - u (the Jacobian of the map above).
- ``delta-l``: the superellipse-type region |x|^(1/l) + |y|^(1/l) < 1 for
  odd l; l = 1 is the unit diamond.

Quadrature rules are tensor Gauss-Legendre rules pushed through explicit
parameterizations, exact for polynomials up to the stated degree against the
domain's measure. For the Koornwinder domain the nodes are kept in (u, v)
parameter coordinates (the measure lives naturally on the simplex side);
``eval_points()`` hands back the mapped physical points for evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CapacityError",
    "Domain",
    "koornwinder",
    "simplex_weighted",
    "delta_l",
    "gauss_legendre_1d",
    "QuadratureRule",
    "quad_rule",
    "sup_grid",
]

DEFAULT_NODE_CAP = 2_000_000

KOORNWINDER_CORNERS = ((2.0, 1.0), (-2.0, 1.0), (0.0, -1.0))


class CapacityError(Exception):
    """A rule or grid would exceed the configured node budget."""


@dataclass(frozen=True)
class Domain:
    """A supported integration domain. Use the module-level constructors."""

    kind: str
    l: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("koornwinder", "simplex-weighted", "delta-l"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.kind == "delta-l":
            if self.l < 1 or self.l % 2 == 0:
                raise ValueError("delta-l requires odd l >= 1")
        elif self.l != 1:
            raise ValueError("l is only meaningful for delta-l")

    def measure(self) -> float:
        """Weighted area: integral of the intrinsic weight over the domain."""
        if self.kind == "koornwinder":
            return 4.0 / 3.0
        if self.kind == "simplex-weighted":
            return 4.0 / 3.0  # integral of (v - u) over the triangle
        return 4.0 / math.comb(2 * self.l, self.l)

    def bounding_half_widths(self) -> tuple[float, float]:
        """Half-widths (sx, sy) of the tight axis-aligned bounding box."""
        if self.kind == "koornwinder":
            return 2.0, 1.0
        return 1.0, 1.0

    def contains(self, x, y, tol: float = 0.0):
        """Closure membership test with slack tol; vectorized."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if self.kind == "koornwinder":
            return (np.abs(x) <= y + 1.0 + tol) & (x * x >= 4.0 * y - tol)
        if self.kind == "simplex-weighted":
            return (x >= -1.0 - tol) & (x <= y + tol) & (y <= 1.0 + tol)
        e = 1.0 / self.l
        return np.abs(x) ** e + np.abs(y) ** e <= 1.0 + tol


def koornwinder() -> Domain:
    return Domain("koornwinder")


def simplex_weighted() -> Domain:
    return Domain("simplex-weighted")


def delta_l(l: int) -> Domain:
    return Domain("delta-l", l)


def map_to_physical(domain: Domain, a: np.ndarray, b: np.ndarray):
    """Parameter (a, b) -> physical (x, y). Identity except for Koornwinder,
    whose parameters are the simplex coordinates (u, v)."""
    if domain.kind == "koornwinder":
        return a + b, a * b
    return a, b


# ---------------------------------------------------------------------------
# Gauss-Legendre nodes.
# ---------------------------------------------------------------------------

def _legendre_value_deriv(m: int, x: np.ndarray):
    """(P_m(x), P_m'(x)) by recurrence; x must be interior to (-1, 1)."""
    p0 = np.ones_like(x)
    p1 = x.copy()
    for j in range(2, m + 1):
        p1, p0 = ((2 * j - 1) * x * p1 - (j - 1) * p0) / j, p1
    d = m * (x * p1 - p0) / (x * x - 1.0)
    return p1, d


def gauss_legendre_1d(m: int, dtype=np.float64):
    """Nodes and weights of the m-point Gauss-Legendre rule on [-1, 1].

    Newton iteration on the Legendre recurrence from the cosine initial
    guesses, absolute shift tolerance 1e-15, hard failure after 100 sweeps.
    Nodes are returned ascending and exactly antisymmetric (enforced by
    averaging with the reversed array). dtype may be a wider float type;
    the final applied Newton step leaves the residual quadratically below
    the tolerance, so the pinned tolerance serves extended precision too.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    dt = np.dtype(dtype)
    if m == 1:
        return np.zeros(1, dtype=dt), np.full(1, 2.0, dtype=dt)
    i = np.arange(m, dtype=dt)
    x = np.cos(np.pi * (i + dt.type(0.75)) / (m + dt.type(0.5)))
    for sweep in range(100):
        p, d = _legendre_value_deriv(m, x)
        step = p / d
        x = x - step
        if float(np.abs(step).max()) <= 1e-15:
            break
    else:
        raise RuntimeError("Gauss-Legendre Newton iteration did not converge")
    x = x[::-1].copy()
    x = (x - x[::-1]) / 2.0  # enforce antisymmetry; center of odd m lands on 0
    _, d = _legendre_value_deriv(m, x)
    w = 2.0 / ((1.0 - x * x) * d * d)
    w = (w + w[::-1]) / 2.0
    return x, w


def _gauss_legendre_01(m: int, dtype=np.float64):
    x, w = gauss_legendre_1d(m, dtype)
    half = np.dtype(dtype).type(0.5)
    return (x + 1.0) * half, w * half


# ---------------------------------------------------------------------------
# Quadrature rules.
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Positive-weight rule exact for polynomials up to exactness_degree.

    ``nodes`` are in the domain's parameter coordinates; for the Koornwinder
    domain that is (u, v) on the simplex, otherwise parameter equals
    physical. ``eval_points()`` always returns physical (x, y).
    """

    domain: Domain
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    exactness_degree: int

    def eval_points(self):
        return map_to_physical(self.domain, self.nodes[:, 0], self.nodes[:, 1])

    def integrate(self, f) -> float:
        """Integrate a callable f(x, y) against the rule."""
        x, y = self.eval_points()
        return float(np.sum(self.weights * np.asarray(f(x, y))))

    def __len__(self) -> int:
        return self.nodes.shape[0]


def _simplex_rule_arrays(degree: int, weight_power: int, margin: int, dtype):
    """Tensor rule for integrals of f(u, v) * (v - u)**weight_power over the
    triangle -1 < u < v < 1, via v = u + (1 - u) t with (u, t) rectangular."""
    m = (degree + weight_power + 3) // 2 + 1 + margin
    xu, wu = gauss_legendre_1d(m, dtype)
    xt, wt = _gauss_legendre_01(m, dtype)
    U = np.repeat(xu, m)
    T = np.tile(xt, m)
    W = np.repeat(wu, m) * np.tile(wt, m)
    V = U + (1.0 - U) * T
    W = W * (1.0 - U) ** (weight_power + 1) * T**weight_power
    return np.column_stack([U, V]), W, m


def quad_rule(
    domain: Domain,
    exactness_degree: int,
    weight_power: int | None = None,
    *,
    margin: int = 0,
    node_cap: int = DEFAULT_NODE_CAP,
    dtype=np.float64,
) -> QuadratureRule:
    """Rule integrating every polynomial of total degree <= exactness_degree
    exactly against the domain's measure.

    weight_power (simplex only) overrides the power of w = v - u in the
    measure: 1 is the intrinsic weighted measure (default), 3 the cubed
    weight, 0 plain Lebesgue on the triangle.

    Raises CapacityError before building anything when the node count would
    exceed node_cap.
    """
    if exactness_degree < 0:
        raise ValueError("exactness_degree must be >= 0")
    d = exactness_degree
    if domain.kind == "simplex-weighted":
        wp = 1 if weight_power is None else weight_power
        if wp < 0:
            raise ValueError("weight_power must be >= 0")
        m = (d + wp + 3) // 2 + 1 + margin
        _check_cap(m * m, node_cap)
        nodes, weights, _ = _simplex_rule_arrays(d, wp, margin, dtype)
        return QuadratureRule(domain, nodes, weights, d)
    if weight_power is not None:
        raise ValueError("weight_power applies to the weighted simplex only")
    if domain.kind == "koornwinder":
        # Pullback doubles the degree; the Jacobian is exactly the weight w.
        m = (2 * d + 1 + 3) // 2 + 1 + margin
        _check_cap(m * m, node_cap)
        nodes, weights, _ = _simplex_rule_arrays(2 * d, 1, margin, dtype)
        return QuadratureRule(domain, nodes, weights, d)
    # delta-l: per-quadrant map x = sx*s^l, y = sy*(1-s)^l*tau^l on (0,1)^2
    # with Jacobian l^2 s^(l-1) tau^(l-1) (1-s)^l.
    l = domain.l
    m = (l * d + 2 * l) // 2 + 1 + margin
    _check_cap(4 * m * m, node_cap)
    s, ws = _gauss_legendre_01(m, dtype)
    t, wt = _gauss_legendre_01(m, dtype)
    S = np.repeat(s, m)
    T = np.tile(t, m)
    W0 = np.repeat(ws, m) * np.tile(wt, m)
    W0 = W0 * (l * l) * S ** (l - 1) * T ** (l - 1) * (1.0 - S) ** l
    X0 = S**l
    Y0 = (1.0 - S) ** l * T**l
    xs, ys, wq = [], [], []
    for sx in (1.0, -1.0):
        for sy in (1.0, -1.0):
            xs.append(sx * X0)
            ys.append(sy * Y0)
            wq.append(W0)
    nodes = np.column_stack([np.concatenate(xs), np.concatenate(ys)])
    return QuadratureRule(domain, nodes, np.concatenate(wq), d)


def _check_cap(count: int, cap: int) -> None:
    if count > cap:
        raise CapacityError(f"rule needs {count} nodes, cap is {cap}")


# ---------------------------------------------------------------------------
# Sup-norm grids.
# ---------------------------------------------------------------------------

def _sup_axis(degree: int, density: int, floor: int) -> np.ndarray:
    """Ascending Chebyshev-Lobatto points on [-1, 1], endpoints included,
    with the sup-grid side count max(floor * density / 8, density * degree)."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if density < 1:
        raise ValueError("density must be >= 1")
    m = max((floor * density + 7) // 8, density * max(1, degree))
    return np.cos(np.pi * np.arange(m + 1) / m)[::-1]


def sup_grid(domain: Domain, degree: int, *, density: int = 8, floor: int = 64) -> np.ndarray:
    """Physical evaluation points whose max approximates the sup norm.

    Chebyshev-Lobatto tensor grid on the parameter square, filtered to the
    triangle u <= v for the simplex and Koornwinder domains (then mapped for
    the latter), taken per quadrant for delta-l. Side count per axis is
    max(floor * density / 8, density * degree): the default density 8 gives
    max(64, 8 * degree). Boundary curves are included (Lobatto endpoints),
    and the Koornwinder corner points are appended explicitly.
    """
    t = _sup_axis(degree, density, floor)
    m = t.size - 1
    if domain.kind in ("koornwinder", "simplex-weighted"):
        U = np.repeat(t, m + 1)
        V = np.tile(t, m + 1)
        keep = U <= V
        U, V = U[keep], V[keep]
        x, y = map_to_physical(domain, U, V)
        pts = np.column_stack([x, y])
        if domain.kind == "koornwinder":
            pts = np.vstack([pts, np.asarray(KOORNWINDER_CORNERS)])
        return pts
    l = domain.l
    s = (t + 1.0) / 2.0
    S = np.repeat(s, m + 1)
    T = np.tile(s, m + 1)
    X0 = S**l
    Y0 = (1.0 - S) ** l * T**l
    xs, ys = [], []
    for sx in (1.0, -1.0):
        for sy in (1.0, -1.0):
            xs.append(sx * X0)
            ys.append(sy * Y0)
    return np.column_stack([np.concatenate(xs), np.concatenate(ys)])
