"""Regenerate perfbench/reference.json, the values the benchmark checks against.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py

The benchmark never runs this script; it only reads its output. Each group of
references is computed more finely than any benchmark command computes it:

- L2 factors: the public solvers with tol=1e-16 and max_iter=30000 (the
  commands use 1e-10 and 500), cross-checked against a float64 SVD of the
  same extended-precision operator.
- pk/qk sup-norm ratios: exact 1-D reductions of the sup over Omega (the
  extremal polynomials are linear in one coordinate on every slice),
  maximised on a 400001-point grid and refined by golden-section search in
  40-digit mpmath arithmetic; cross-checked against the 2-D sup grid at
  density 24.
- wn ratios: the 1-D integrals by mpmath tanh-sinh quadrature at 30 digits,
  split at the mpmath-refined zeros of the Jacobi factor.
- Fitted slopes: numpy least squares on log-log reference values.

The tolerances the benchmark applies, and why, live in checks.py.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

import mpmath
import numpy as np

import markovlab
from markovlab import classical, spectral
from markovlab.domains import koornwinder, quad_rule, simplex_weighted, sup_grid

OUT = Path(__file__).resolve().parent / "reference.json"

REF_TOL = 1e-16
REF_MAX_ITER = 30000


def _slope(points: dict[int, float], abscissa) -> float:
    ks = sorted(points)
    x = np.log([float(abscissa(k)) for k in ks])
    y = np.log([points[k] for k in ks])
    return float(np.polyfit(x, y, 1)[0])


# ---------------------------------------------------------------------------
# L2 factors.
# ---------------------------------------------------------------------------

def _svd_top(n: int, axis: str | None, domain) -> float:
    """Top singular value of sqrt(W) C R^{-1} in float64 (SVD cross-check)."""
    idx = spectral._graded_indices(n)
    if axis is None:  # Schur pencil on the weighted simplex
        rn = quad_rule(domain, 2 * n, 1, dtype=np.longdouble)
        rd = quad_rule(domain, 2 * n, 3, dtype=np.longdouble)
        Bn, _ = spectral._node_matrices(idx, *rn.eval_points(), 1.0, 1.0, None)
        Bd, _ = spectral._node_matrices(idx, *rd.eval_points(), 1.0, 1.0, None)
        C = np.sqrt(rn.weights)[:, None] * Bn
        S = np.sqrt(rd.weights)[:, None] * Bd
    else:
        wp = 1 if domain.kind == "simplex-weighted" else None
        rule = quad_rule(domain, 2 * n, wp, dtype=np.longdouble)
        sx, sy = domain.bounding_half_widths()
        B, D = spectral._node_matrices(idx, *rule.eval_points(), sx, sy, axis)
        w = np.sqrt(rule.weights)[:, None]
        C, S = w * D, w * B
    _, R = spectral._mgs_r(S, 1e300)
    K = C @ spectral._upper_inverse(R)
    return float(np.linalg.svd(K.astype(np.float64), compute_uv=False)[0])


def factor_refs() -> dict:
    groups = {}
    cases = [
        ("factor/omega/y", koornwinder(), "y", range(4, 15)),
        ("factor/simplex-weighted/x", simplex_weighted(), "x", range(4, 17)),
        ("factor/simplex-weighted/y", simplex_weighted(), "y", range(4, 17)),
        ("factor/schur", simplex_weighted(), None, range(0, 17)),
    ]
    for key, dom, axis, ns in cases:
        values, worst = {}, 0.0
        for n in ns:
            if axis is None:
                v = spectral.l2_schur_factor(n, tol=REF_TOL, max_iter=REF_MAX_ITER).value
            else:
                v = spectral.l2_markov_factor(
                    n, axis, dom, tol=REF_TOL, max_iter=REF_MAX_ITER
                ).value
            if n > 0:
                worst = max(worst, abs(v - _svd_top(n, axis, dom)) / v)
            values[n] = v
            print(f"{key} n={n} {v!r}", file=sys.stderr, flush=True)
        groups[key] = {
            "values": {str(n): v for n, v in values.items()},
            "slope": _slope({n: v for n, v in values.items() if n >= 4}, lambda n: n),
            "method": (
                f"public solver, tol={REF_TOL}, max_iter={REF_MAX_ITER}; "
                "slope by numpy polyfit over n >= 4"
            ),
            "svd_max_rel_diff": worst,
        }
    return groups


# ---------------------------------------------------------------------------
# pk / qk sup norms by exact 1-D reductions.
# ---------------------------------------------------------------------------

def _cheb_deriv_np(k: int, t: np.ndarray) -> np.ndarray:
    """T_k'(t) = k U_{k-1}(t) by the U recurrence (float64)."""
    u0, u1 = np.ones_like(t), 2.0 * t
    if k == 1:
        return k * u0
    for _ in range(2, k):
        u0, u1 = u1, 2.0 * t * u1 - u0
    return k * u1


def _cheb_deriv_mp(k: int, t):
    u0, u1 = mpmath.mpf(1), 2 * t
    if k == 1:
        return k * u0
    for _ in range(2, k):
        u0, u1 = u1, 2 * t * u1 - u0
    return k * u1


def _slice_sup(k: int, family: str) -> float:
    """sup over Omega of |P_k| (family pk) or |Q_k| (family qk).

    P_k = (T_k'((2-x)/4)/k)^5 (1+x+y)/4 is linear in y; on the slice at
    fixed x, y runs over [|x|-1, x^2/4] and the maximum sits at y = x^2/4,
    leaving (1+x/2)^2/4. Q_k = (T_k'((1+y)/2)/k)^5 (x^2/4-y) peaks on the
    slice at |x| = y+1, leaving (1-y)^2/4.
    """
    if family == "pk":
        lo, hi = -2.0, 2.0

        def f_np(s):
            return np.abs(_cheb_deriv_np(k, (2.0 - s) / 4.0) / k) ** 5 * (1.0 + s / 2.0) ** 2 / 4.0

        def f_mp(s):
            return abs(_cheb_deriv_mp(k, (2 - s) / 4) / k) ** 5 * (1 + s / 2) ** 2 / 4
    else:
        lo, hi = -1.0, 1.0

        def f_np(s):
            return np.abs(_cheb_deriv_np(k, (1.0 + s) / 2.0) / k) ** 5 * (1.0 - s) ** 2 / 4.0

        def f_mp(s):
            return abs(_cheb_deriv_mp(k, (1 + s) / 2) / k) ** 5 * (1 - s) ** 2 / 4

    s = np.linspace(lo, hi, 400001)
    vals = f_np(s)
    h = s[1] - s[0]
    best = max(f_mp(mpmath.mpf(lo)), f_mp(mpmath.mpf(hi)))
    for i in np.argsort(vals)[-8:]:
        a = mpmath.mpf(max(lo, s[i] - h))
        b = mpmath.mpf(min(hi, s[i] + h))
        g = (mpmath.sqrt(5) - 1) / 2
        for _ in range(120):  # golden section on a bracket of one grid step
            c, d = b - g * (b - a), a + g * (b - a)
            if f_mp(c) > f_mp(d):
                b = d
            else:
                a = c
        best = max(best, f_mp((a + b) / 2))
    return float(best)


def extremal_refs() -> dict:
    groups = {}
    dom = koornwinder()
    for family, deg_of, cusp in (
        ("pk", classical.pk_degree, classical.pk_cusp_derivative),
        ("qk", classical.qk_degree, classical.qk_cusp_derivative),
    ):
        value_fn = classical.pk_value if family == "pk" else classical.qk_value
        ratios, worst_grid = {}, 0.0
        for k in range(4, 21):
            sup = _slice_sup(k, family)
            pts = sup_grid(dom, deg_of(k), density=24)
            grid = float(np.abs(value_fn(k, pts[:, 0], pts[:, 1])).max())
            if grid > sup * (1.0 + 1e-12):
                raise RuntimeError(f"{family} k={k}: 2-D grid sup exceeds the 1-D sup")
            worst_grid = max(worst_grid, (sup - grid) / sup)
            ratios[k] = cusp(k) / sup
            print(f"extremal/{family} k={k} sup={sup!r}", file=sys.stderr, flush=True)
        groups[f"extremal/{family}"] = {
            "values": {str(k): v for k, v in ratios.items()},
            "slope": _slope(ratios, deg_of),
            "method": (
                "closed-form cusp derivative over the sup from the exact 1-D "
                "slice reduction (400001-point grid, golden-section refinement "
                "at 40 digits); slope by numpy polyfit against the degree"
            ),
            "density24_grid_max_rel_shortfall": worst_grid,
        }
    return groups


# ---------------------------------------------------------------------------
# wn ratios on the l = 3 diamond by mpmath quadrature.
# ---------------------------------------------------------------------------

def _jacobi_mp(n: int, a, x):
    """P_n^(a, a)(x) by the three-term recurrence in mpmath arithmetic."""
    p0 = mpmath.mpf(1)
    if n == 0:
        return p0
    p1 = (a + 1) * x
    for m in range(2, n + 1):
        s = 2 * m + 2 * a
        c1 = 2 * m * (m + 2 * a) * (s - 2)
        c2 = (s - 1) * s * (s - 2)
        c4 = 2 * (m + a - 1) ** 2 * s
        p0, p1 = p1, (c2 * x * p1 - c4 * p0) / c1
    return p1


def _jacobi_zeros_mp(n: int, a) -> list:
    """Zeros of P_n^(a, a) in (0, 1): float sign scan, mpmath refinement."""
    xs = np.cos(np.linspace(0.0, np.pi / 2.0, 200 * (n + 2)))[::-1]
    vals = [float(_jacobi_mp(n, a, mpmath.mpf(float(x)))) for x in xs]
    zeros = []
    for i in range(len(xs) - 1):
        if vals[i] == 0.0 or vals[i] * vals[i + 1] < 0:
            zeros.append(
                mpmath.findroot(
                    lambda t: _jacobi_mp(n, a, t),
                    (mpmath.mpf(float(xs[i])), mpmath.mpf(float(xs[i + 1]))),
                    solver="anderson",
                )
            )
    if len(zeros) != n // 2:
        raise RuntimeError(f"found {len(zeros)} zeros of P_{n}, expected {n // 2}")
    return zeros


def _wn_integral_mp(n: int, a, p, beta, l: int, breaks) -> mpmath.mpf:
    def f(t):
        return abs(_jacobi_mp(n, a, t**l)) ** p * (1 - t) ** beta * l * t ** (l - 1)

    return mpmath.quad(f, breaks)


def wn_refs() -> dict:
    groups = {}
    l, alpha = 3, mpmath.mpf(14)
    with mpmath.workdps(30):
        breaks_by_n = {}
        for n in range(8, 41):
            zeros = _jacobi_zeros_mp(n, alpha)
            breaks_by_n[n] = [mpmath.mpf(0)] + [z ** (mpmath.mpf(1) / l) for z in zeros] + [mpmath.mpf(1)]
        for p in (2, 3):
            ratios = {}
            for n in range(8, 41):
                brk = breaks_by_n[n]
                i_num = _wn_integral_mp(n, alpha, p, l, l, brk)
                i_den = _wn_integral_mp(n, alpha, p, (p + 1) * l, l, brk)
                ratios[n] = float(((p + 1) * i_num / i_den) ** (mpmath.mpf(1) / p))
                print(f"extremal/wn p={p} n={n} {ratios[n]!r}", file=sys.stderr, flush=True)
            groups[f"extremal/wn/l3/alpha14/p{p}"] = {
                "values": {str(n): v for n, v in ratios.items()},
                "slope": _slope(ratios, lambda n: n + 1),
                "method": (
                    "mpmath 30-digit tanh-sinh quadrature of both 1-D integrals, "
                    "split at the mpmath-refined Jacobi zeros; slope by numpy "
                    "polyfit against n + 1"
                ),
            }
    return groups


# ---------------------------------------------------------------------------

def main() -> int:
    doc = {
        "generator": "perfbench/make_reference.py",
        "generated_with": {
            "markovlab": markovlab.__version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "mpmath": mpmath.__version__,
        },
        "groups": {},
    }
    doc["groups"].update(factor_refs())
    with mpmath.workdps(40):
        doc["groups"].update(extremal_refs())
    doc["groups"].update(wn_refs())
    doc["groups"]["area/omega"] = {
        "values": {"0": 4.0 / 3.0},
        "method": "closed form 4/3",
    }
    OUT.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="ascii")
    print(f"wrote {OUT}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
