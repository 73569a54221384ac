#!/usr/bin/env python3
"""Write tests/data/l2_reference.json: 110-digit L2 best constants at the
degrees the default sweeps end on.

Each value is sqrt(lambda_max(A, G)) for the pencil of a scaled monomial
basis (x/sx)^i (y/sy)^j, i + j <= n:

- the Grams A and G are assembled from the exact rational moments of
  tests/oracles.py (omega_monomial, simplex_monomial) and rounded once to
  110 digits;
- G = L L^T by Cholesky, and Y = L^{-1} A L^{-T}. Monomials are graded, so
  the degree-n operator is the leading block of the one at the group's top
  degree;
- a float64 eigh of that block seeds the top eigenvector, and inverse
  iteration with the shift fixed at the seed's eigenvalue refines it in
  110-digit arithmetic; the value is the square root of its Rayleigh
  quotient.

Nothing in the package's engine (Chebyshev basis, quadrature rules,
extended-precision QR) is used. The test suite only reads the output, so it
never imports mpmath. Takes about a minute.

Usage (from the repository root):
    python3 scripts/make_l2_reference.py
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from oracles import monomial_indices, omega_monomial, simplex_monomial  # noqa: E402

OUT = ROOT / "tests" / "data" / "l2_reference.json"
DPS = 110
DIGITS = 25  # significant digits stored per value

# group -> (moment kind, axis or None for the Schur pencil, degrees)
GROUPS = {
    "omega/y": ("omega", "y", range(12, 15)),
    "omega/x": ("omega", "x", range(12, 15)),
    "simplex-weighted/x": ("simplex", "x", range(14, 17)),
    "schur": ("simplex", None, range(13, 17)),
}


def _pencil(kind: str, axis: str | None, n: int):
    """(A, G) as lists of mpf rows for the scaled monomials of degree <= n."""
    idx = monomial_indices(n)
    cache: dict[tuple, Fraction] = {}

    def mom(a: int, b: int, wpow: int) -> Fraction:
        key = (a, b, wpow)
        if key not in cache:
            cache[key] = omega_monomial(a, b) if kind == "omega" else simplex_monomial(a, b, wpow)
        return cache[key]

    sx = Fraction(2) if kind == "omega" else Fraction(1)

    def entry(p, q, wpow: int, d: str | None):
        (i1, j1), (i2, j2) = p, q
        if d == "x":
            c, a, b = i1 * i2, i1 + i2 - 2, j1 + j2
        elif d == "y":
            c, a, b = j1 * j2, i1 + i2, j1 + j2 - 2
        else:
            c, a, b = 1, i1 + i2, j1 + j2
        if c == 0:
            return mpmath.mpf(0)
        f = c * mom(a, b, wpow) / sx ** (i1 + i2)
        return mpmath.mpf(f.numerator) / f.denominator

    if axis is None:  # Schur: ||P||_{w} over ||(v - u) P||_{w}, i.e. weights w and w^3
        A = [[entry(p, q, 1, None) for q in idx] for p in idx]
        G = [[entry(p, q, 3, None) for q in idx] for p in idx]
    else:
        wpow = 0 if kind == "omega" else 1
        A = [[entry(p, q, wpow, axis) for q in idx] for p in idx]
        G = [[entry(p, q, wpow, None) for q in idx] for p in idx]
    return A, G


def _cholesky(G):
    k = len(G)
    L = [[mpmath.mpf(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1):
            s = G[i][j] - mpmath.fdot(L[i][:j], L[j][:j])
            if i == j:
                if s <= 0:
                    raise ArithmeticError(f"monomial Gram indefinite at row {i}")
                L[i][i] = mpmath.sqrt(s)
            else:
                L[i][j] = s / L[j][j]
    return L


def _forward(L, b):
    x = []
    for i, bi in enumerate(b):
        x.append((bi - mpmath.fdot(L[i][:i], x)) / L[i][i])
    return x


def _operator(A, G):
    """Y = L^{-1} A L^{-T} with G = L L^T, symmetrized."""
    L = _cholesky(G)
    k = len(A)
    Z = [_forward(L, [A[r][c] for r in range(k)]) for c in range(k)]  # rows: (L^{-1} A)^T
    Y = [_forward(L, [Z[c][r] for c in range(k)]) for r in range(k)]  # L^{-1} (L^{-1} A)^T
    for i in range(k):
        for j in range(i):
            Y[i][j] = Y[j][i] = (Y[i][j] + Y[j][i]) / 2
    return Y


def _lu(M):
    """In-place Doolittle LU with partial pivoting; returns (LU, perm)."""
    k = len(M)
    perm = list(range(k))
    for c in range(k):
        p = max(range(c, k), key=lambda r: abs(M[r][c]))
        M[c], M[p] = M[p], M[c]
        perm[c], perm[p] = perm[p], perm[c]
        piv = M[c][c]
        for r in range(c + 1, k):
            f = M[r][c] / piv
            M[r][c] = f
            row, top = M[r], M[c]
            for j in range(c + 1, k):
                row[j] -= f * top[j]
    return M, perm


def _lu_solve(LU, perm, b):
    k = len(LU)
    y = []
    for i in range(k):
        y.append(b[perm[i]] - mpmath.fdot(LU[i][:i], y))
    x = [mpmath.mpf(0)] * k
    for i in range(k - 1, -1, -1):
        x[i] = (y[i] - mpmath.fdot(LU[i][i + 1 :], x[i + 1 :])) / LU[i][i]
    return x


def _matvec(Y, v):
    return [mpmath.fdot(row, v) for row in Y]


def _top(Y) -> tuple[mpmath.mpf, mpmath.mpf]:
    """(top eigenvalue, relative residual of its refined eigenpair)."""
    k = len(Y)
    w, V = np.linalg.eigh(np.array([[float(e) for e in row] for row in Y]))
    sigma = mpmath.mpf(float(w[-1]))
    LU, perm = _lu([[Y[i][j] - (sigma if i == j else 0) for j in range(k)] for i in range(k)])
    v = [mpmath.mpf(float(e)) for e in V[:, -1]]
    tol = mpmath.mpf(10) ** (-(DPS // 2 + 5))
    for _ in range(40):
        x = _lu_solve(LU, perm, v)
        nrm = mpmath.sqrt(mpmath.fdot(x, x))
        x = [e / nrm for e in x]
        if mpmath.fdot(x, v) < 0:
            x = [-e for e in x]
        step = max(abs(a - b) for a, b in zip(x, v))
        v = x
        if step < tol:
            break
    else:
        raise ArithmeticError("inverse iteration did not converge")
    Yv = _matvec(Y, v)
    theta = mpmath.fdot(v, Yv)
    res = mpmath.sqrt(mpmath.fsum((a - theta * b) ** 2 for a, b in zip(Yv, v)))
    return theta, res / theta


def main() -> int:
    mpmath.mp.dps = DPS
    doc = {
        "description": (
            "L2 best constants sqrt(lambda_max(A, G)) from exact rational "
            f"monomial moments, Cholesky and inverse iteration at {DPS} digits; "
            "written by scripts/make_l2_reference.py"
        ),
        "dps": DPS,
        "values": {},
    }
    for name, (kind, axis, ns) in GROUPS.items():
        t0 = time.perf_counter()
        Y = _operator(*_pencil(kind, axis, max(ns)))
        values = {}
        for n in ns:
            k = (n + 1) * (n + 2) // 2
            theta, rel = _top([row[:k] for row in Y[:k]])
            values[str(n)] = mpmath.nstr(mpmath.sqrt(theta), DIGITS)
            print(
                f"{name} n={n} {values[str(n)]} (residual {mpmath.nstr(rel, 3)})",
                file=sys.stderr, flush=True,
            )
        doc["values"][name] = values
        print(f"{name}: {time.perf_counter() - t0:.0f}s", file=sys.stderr, flush=True)
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUT.relative_to(ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
