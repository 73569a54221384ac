"""Exact L2 best constants as generalized symmetric eigenproblems.

The best constant sup ||dP/daxis|| / ||P|| over polynomials of total degree
at most n equals sqrt(lambda_max(A, G)) with A and G the derivative and
plain Gram matrices over any basis of the space. Both matrices are assembled
in a scaled Chebyshev product basis (monomial Grams are numerically singular
by n ~ 8), and the pencil is solved inverse-free:

    G = R^T R with R from a modified Gram-Schmidt QR of sqrt(W) B, where B
    is the basis-by-node value matrix of an exact quadrature rule, so R is
    the Cholesky factor of G computed at the square root of its condition
    number; A stays in the factored form C^T C, and the top eigenvalue is
    that of M = K^T K with K = sqrt(W) C R^{-1}, formed by triangular
    solves. M itself is only ever formed in float64, as a seed.

Parity classes. T_i(x/sx) T_j(y/sy) has x-parity (-1)^i and y-parity
(-1)^j. The cusped domain is symmetric under x -> -x and Delta_l under both
reflections, so on those domains every Gram vanishes between basis columns
of different parity, and the pencil is block diagonal: two classes on the
cusped domain, four on Delta_l, one on the weighted simplex and for the
Schur pencil. Each class gets its own QR and its own K, which halves the
extended-precision work on the cusped domain, and the value is the largest
class top.

The basis is graded, so the degree-n basis is the first dim(n) columns of
the degree-n_max basis, and a class's columns are a subsequence of that
order. Gram-Schmidt takes columns in order, so the R of a column prefix is
the leading block of the full R; R^{-1} is upper triangular as well, so the
degree-n K of a class is the leading block of its K at n_max. A sweep over
degrees therefore builds one rule (exact to 2 n_max), one node-matrix pair,
and one QR and one K per class, and reads every degree off leading blocks.
The conditioning gate reads the spread of the class R diagonals merged back
into column order, the same diagonal a QR of all columns would give.

Per degree and class, a float64 LAPACK eigh of the BLAS product K^T K (K
cast down) only seeds the top eigenvector v. The value is sqrt(theta), with
the Rayleigh quotient theta = ||K v||^2 evaluated in extended precision
straight from K; its error is quadratic in the seed's. The relative residual
||K^T (K v) - theta v|| / theta of the winning class bounds the distance
from theta to an eigenvalue of M (Parlett, The Symmetric Eigenvalue
Problem, ch. 4), and that bound, not the seed, certifies the value: a degree
whose residual exceeds the tolerance is refused like a conditioning failure.
Dropping the extended-precision M saves k^2 N multiply-adds per sweep
(k columns, N nodes) and costs 2 k N per degree.

Everything but the seed runs in numpy.longdouble (80-bit extended on x86),
which is what makes the upper sweep ends (Koornwinder n = 14, simplex and
Schur n = 16) reachable: float64 Cholesky of the explicit Gram fails at
Koornwinder n = 13, and even the float64 square-root path returns garbage on
the simplex past n ~ 12.

A dense oracle path (explicit float64 Grams through the poly2d evaluators,
hand Cholesky, cyclic Jacobi rotations) is kept deliberately separate and
cross-checked at small n by the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import _cheb_coeffs_int
from .domains import Domain, quad_rule, simplex_weighted
from .poly2d import BivariatePoly

__all__ = [
    "ConditioningError",
    "FactorPoint",
    "basis",
    "l2_markov_factor",
    "l2_markov_sweep",
    "l2_schur_factor",
    "l2_schur_sweep",
    "markov_witness",
    "dense_markov_oracle",
    "dense_schur_oracle",
    "jacobi_eigenvalues",
]

RESIDUAL_TOL = 1e-10
COND_LIMIT = 1e13


class ConditioningError(Exception):
    """Basis conditioning exhausted, or an eigenpair failed its residual
    check; reduce n.

    Raised by a sweep, it names the degree that failed (`n`) and carries the
    points completed before it (`partial`).
    """

    def __init__(self, reason: str, n: int | None = None, partial=()):
        super().__init__(reason)
        self.n = n
        self.partial = list(partial)


@dataclass(frozen=True)
class FactorPoint:
    """One computed best constant: degree, value, and how it was obtained."""

    n: int
    value: float
    method: str

    def __post_init__(self) -> None:
        if self.value < 0.0:
            raise ValueError("factor values are nonnegative")
        if self.method not in ("eigen", "extremal-sequence"):
            raise ValueError(f"unknown method tag {self.method!r}")


def _graded_indices(n: int) -> list[tuple[int, int]]:
    """Exponent pairs (i, j), i + j <= n, graded then lexicographic in (i, j)
    with the x-power ranked first (descending within a degree block)."""
    out = []
    for d in range(n + 1):
        for i in range(d, -1, -1):
            out.append((i, d - i))
    return out


def space_dimension(n: int) -> int:
    return (n + 1) * (n + 2) // 2


def basis(n: int, domain: Domain) -> list[BivariatePoly]:
    """Degree-graded Chebyshev product basis T_i(x/sx) T_j(y/sy), i+j <= n.

    The affine scalings are the domain's bounding half-widths, so both
    arguments stay in [-1, 1] over the domain.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    sx, sy = domain.bounding_half_widths()
    polys = []
    ci = [np.asarray(_cheb_coeffs_int(i), dtype=np.float64) for i in range(n + 1)]
    for i, j in _graded_indices(n):
        cx = ci[i] / sx ** np.arange(i + 1)
        cy = ci[j] / sy ** np.arange(j + 1)
        polys.append(BivariatePoly(np.outer(cx, cy)))
    return polys


# ---------------------------------------------------------------------------
# Node-matrix assembly (extended precision).
# ---------------------------------------------------------------------------

def _cheb_rows(order: int, t: np.ndarray):
    """All T_0..T_order and derivatives at t, stacked as (order+1, N) rows."""
    N = t.shape[0]
    dt = t.dtype
    T = np.empty((order + 1, N), dtype=dt)
    D = np.empty((order + 1, N), dtype=dt)
    T[0] = 1.0
    D[0] = 0.0
    if order >= 1:
        T[1] = t
        D[1] = 1.0
    for m in range(2, order + 1):
        T[m] = 2.0 * t * T[m - 1] - T[m - 2]
        D[m] = 2.0 * T[m - 1] + 2.0 * t * D[m - 1] - D[m - 2]
    return T, D


def _node_matrices(
    idx: list[tuple[int, int]],
    x: np.ndarray,
    y: np.ndarray,
    sx: float,
    sy: float,
    deriv_axis: str | None,
):
    """Value (and optionally derivative) matrix of the basis at the nodes."""
    order = max(max(i, j) for i, j in idx)
    TX, DX = _cheb_rows(order, x / sx)
    TY, DY = _cheb_rows(order, y / sy)
    N = x.shape[0]
    B = np.empty((N, len(idx)), dtype=x.dtype)
    for a, (i, j) in enumerate(idx):
        B[:, a] = TX[i] * TY[j]
    if deriv_axis is None:
        return B, None
    C = np.empty_like(B)
    for a, (i, j) in enumerate(idx):
        if deriv_axis == "x":
            C[:, a] = (DX[i] / sx) * TY[j]
        else:
            C[:, a] = TX[i] * (DY[j] / sy)
    return B, C


# ---------------------------------------------------------------------------
# Hand linear algebra in the working dtype.
# ---------------------------------------------------------------------------

def _mgs(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """QR by modified Gram-Schmidt with one reorthogonalization pass.

    Returns (Qt, R): the rows of Qt are the orthonormal columns of Q, and R
    is upper triangular with nonnegative diagonal. Columns are taken in
    order, so the factors of a column prefix are leading blocks of these.
    Exact rank loss at column j stops the factorization there with
    R[j, j] = 0, which makes the spread of every prefix through j infinite.
    """
    k = M.shape[1]
    Qt = np.array(M.T)
    R = np.zeros((k, k), dtype=M.dtype)
    for j in range(k):
        v = Qt[j]
        for _ in range(2):  # second pass restores orthogonality at high cond
            for i in range(j):
                r = Qt[i] @ v
                R[i, j] += r
                v = v - r * Qt[i]
        nrm = math.sqrt(float(v @ v))
        if nrm == 0.0:
            break
        R[j, j] = nrm
        Qt[j] = v / nrm
    return Qt, R


def _spread_failure(diag: np.ndarray, cond_limit: float) -> str | None:
    """Why a triangular factor with this diagonal is refused, or None.

    Past cond_limit even extended precision cannot certify digits, and
    silently degrading answers is worse than refusing.
    """
    lo = diag.min()
    spread = math.inf if lo == 0 else float(diag.max() / lo)
    if spread <= cond_limit:
        return None
    return f"triangular factor spread {spread:.3e} exceeds {cond_limit:.1e}; reduce n"


def _mgs_r(M: np.ndarray, cond_limit: float) -> tuple[np.ndarray, np.ndarray]:
    """(Q, R) of M by `_mgs`; raises ConditioningError when the whole
    diagonal of R spreads past cond_limit (rank loss included).

    The sweeps gate each prefix instead; perfbench/make_reference.py builds
    its SVD cross-check on this full-matrix form.
    """
    Qt, R = _mgs(M)
    reason = _spread_failure(np.diagonal(R), cond_limit)
    if reason is not None:
        raise ConditioningError(reason)
    return Qt.T, R


def _forward_solve(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """X with L X = B for lower-triangular L, one row of X at a time."""
    X = np.empty_like(B)
    for j in range(L.shape[0]):
        X[j] = (B[j] - L[j, :j] @ X[:j]) / L[j, j]
    return X


def _upper_inverse(R: np.ndarray) -> np.ndarray:
    """Inverse of an upper-triangular matrix by back substitution, solving
    R X = I for the rows of X from the bottom up."""
    k = R.shape[0]
    X = np.zeros_like(R)
    for i in range(k - 1, -1, -1):
        e = np.zeros(k, dtype=R.dtype)
        e[i] = 1.0
        if i + 1 < k:
            e = e - R[i, i + 1 :] @ X[i + 1 :, :]
        X[i, :] = e / R[i, i]
    return X


def jacobi_eigenvalues(A: np.ndarray, sweeps: int = 60) -> np.ndarray:
    """All eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    The oracle eigensolver: independent of the LAPACK-seeded engine. Works
    in the dtype of A; intended for the small dimensions of the oracle
    checks, where it converges to machine precision in a few sweeps.
    """
    A = np.array(A, copy=True)
    k = A.shape[0]
    if A.shape != (k, k):
        raise ValueError("matrix must be square")
    if k == 1:
        return A[:, 0].copy()
    eps = float(np.finfo(A.dtype).eps)
    for _ in range(sweeps):
        off = math.sqrt(float(np.sum(np.tril(A, -1) ** 2)))
        scale = math.sqrt(float(np.sum(np.diagonal(A) ** 2))) + 1.0
        if off <= 4.0 * eps * scale:
            break
        for p in range(k - 1):
            for q in range(p + 1, k):
                apq = float(A[p, q])
                if abs(apq) <= eps * scale:
                    continue
                theta = float(A[q, q] - A[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot_p = c * A[:, p] - s * A[:, q]
                rot_q = s * A[:, p] + c * A[:, q]
                A[:, p], A[:, q] = rot_p, rot_q
                rot_p = c * A[p, :] - s * A[q, :]
                rot_q = s * A[p, :] + c * A[q, :]
                A[p, :], A[q, :] = rot_p, rot_q
    return np.sort(np.diagonal(A).copy())


def _cholesky_lower(G: np.ndarray) -> np.ndarray:
    """Hand Cholesky; raises ConditioningError when G is not numerically
    positive definite, the signal to back off to a smaller degree."""
    k = G.shape[0]
    L = np.zeros_like(G)
    for i in range(k):
        for j in range(i + 1):
            s = float(G[i, j] - L[i, :j] @ L[j, :j])
            if i == j:
                if s <= 0.0:
                    raise ConditioningError(
                        f"Gram matrix numerically indefinite at row {i}; reduce n"
                    )
                L[i, i] = math.sqrt(s)
            else:
                L[i, j] = s / L[j, j]
    return L


# ---------------------------------------------------------------------------
# Factor computations: the nested sweep engine (extended precision).
# ---------------------------------------------------------------------------

def _degrees(ns) -> list[int]:
    ns = [int(n) for n in ns]
    if any(n < 0 for n in ns):
        raise ValueError("n must be >= 0")
    return ns


def _markov_pencil(domain: Domain, axis: str, n_max: int):
    """(sqrt(W) C, sqrt(W) B): derivative and value matrices of the
    degree-n_max basis on one rule exact to 2 n_max."""
    if axis not in ("x", "y"):
        raise ValueError("axis must be 'x' or 'y'")
    wp = 1 if domain.kind == "simplex-weighted" else None
    rule = quad_rule(domain, 2 * n_max, wp, dtype=np.longdouble)
    x, y = rule.eval_points()
    sx, sy = domain.bounding_half_widths()
    B, C = _node_matrices(_graded_indices(n_max), x, y, sx, sy, axis)
    sw = np.sqrt(rule.weights)[:, None]
    C *= sw
    B *= sw
    return C, B


def _schur_pencil(n_max: int):
    """(sqrt(W1) B1, sqrt(W3) B3): the degree-n_max basis on the weighted
    simplex under the intrinsic weight w and under w^3 = w (v - u)^2."""
    dom = simplex_weighted()
    idx = _graded_indices(n_max)
    mats = []
    for wp in (1, 3):
        rule = quad_rule(dom, 2 * n_max, wp, dtype=np.longdouble)
        B, _ = _node_matrices(idx, *rule.eval_points(), 1.0, 1.0, None)
        B *= np.sqrt(rule.weights)[:, None]
        mats.append(B)
    return mats[0], mats[1]


def _parity_classes(kind: str, n_max: int) -> list[np.ndarray]:
    """Column indices of the degree-n_max graded basis, one ascending array
    per parity class that the domain's reflections preserve.

    T_i(x/sx) T_j(y/sy) has x-parity (-1)^i and y-parity (-1)^j. The cusped
    domain is symmetric under x -> -x and Delta_l under both reflections,
    and every rule is exact to 2 n_max, so the Gram and both derivative
    Grams vanish between classes (d/dx flips the x-parity of both factors of
    a product, which keeps the product's). The weighted simplex, and the
    Schur pencil on it, keep no parity of this basis: one class.
    """
    idx = _graded_indices(n_max)
    if kind == "koornwinder":
        keys = [i % 2 for i, _ in idx]
    elif kind == "delta-l":
        keys = [(i % 2, j % 2) for i, j in idx]
    else:
        return [np.arange(len(idx))]
    return [
        np.array([a for a, key in enumerate(keys) if key == cls])
        for cls in sorted(set(keys))
    ]


def _nested_tops(
    ns: list[int], num: np.ndarray, den: np.ndarray, kind: str, *, tol, cond_limit
):
    """The top of the pencil (N_k^T N_k, D_k^T D_k) for every n in ns, where
    N_k and D_k are the first k = dim(n) columns of num and den, the
    degree-max(ns) basis matrices on a rule of a domain of this kind.

    The pencil is block diagonal over the parity classes of
    _parity_classes. Each class c gets its own R_c by _mgs of its den
    columns and its own K_c = N_c R_c^{-1} by one forward solve, and its
    degree-n block is a leading block of those. Per degree and class, a
    float64 eigh of the BLAS product K_c^T K_c (K_c cast down) seeds the top
    eigenvector v; theta = ||K_c v||^2 and the residual
    K_c^T (K_c v) - theta v are taken in extended precision straight from
    K_c, so no extended-precision K^T K is formed. The degree's value is the
    largest class top.

    Returns [(cols, R_c)] per class and one (n, value, c, v) per degree, v
    the unit top eigenvector of the winning class c. Degrees are taken in
    the order given; the first whose R prefix (the class diagonals merged
    back into column order) spreads past cond_limit, or whose winning
    relative eigen residual exceeds tol, raises ConditioningError carrying
    the points completed before it.
    """
    classes = _parity_classes(kind, max(ns))
    factors = [(cols, _mgs(den[:, cols])[1]) for cols in classes]
    diag = np.empty(den.shape[1], dtype=den.dtype)
    for cols, R in factors:
        diag[cols] = np.diagonal(R)
    dims = [space_dimension(n) for n in ns]
    failure = None
    ok = len(ns)
    for i, (n, k) in enumerate(zip(ns, dims)):
        reason = _spread_failure(diag[:k], cond_limit)
        if reason is not None:
            failure, ok = (n, reason), i
            break
    k_top = max(dims[:ok], default=0)
    blocks = []
    for cols, R in factors:
        kc = int(np.searchsorted(cols, k_top))
        Kt = _forward_solve(R[:kc, :kc].T, num[:, cols[:kc]].T)
        Kf = Kt.astype(np.float64)
        blocks.append((Kt, Kf @ Kf.T))
    done = []
    for n, k in zip(ns[:ok], dims):
        best = None
        for c, ((cols, _), (Kt, Mf)) in enumerate(zip(factors, blocks)):
            kc = int(np.searchsorted(cols, k))
            if kc == 0:
                continue
            _, V = np.linalg.eigh(Mf[:kc, :kc])  # seed only
            v = V[:, -1].astype(np.longdouble)
            v /= np.sqrt(v @ v)
            Ktk = Kt[:kc]
            Kv = v @ Ktk
            theta = Kv @ Kv
            if best is None or theta > best[0]:
                best = (theta, c, v, Ktk, Kv)
        theta, c, v, Ktk, Kv = best
        r = Ktk @ Kv - theta * v
        res = np.sqrt(r @ r)
        bound = float(res / theta) if theta > 0 else (0.0 if res == 0 else math.inf)
        if not bound <= tol:
            failure = (n, f"eigen residual {bound:.1e} exceeds {tol:.1e}; reduce n")
            break
        done.append((n, float(np.sqrt(theta)), c, v))
    if failure is not None:
        n, reason = failure
        partial = [FactorPoint(m, value, "eigen") for m, value, _, _ in done]
        raise ConditioningError(reason, n, partial)
    return factors, done


def _sweep_points(ns, kind: str, tol, cond_limit, pencil, *args) -> list[FactorPoint]:
    """The body of the sweeps and one-degree factors, on the pencil
    pencil(*args, max(ns))."""
    ns = _degrees(ns)
    if not ns:
        return []
    num, den = pencil(*args, max(ns))
    _, done = _nested_tops(ns, num, den, kind, tol=tol, cond_limit=cond_limit)
    return [FactorPoint(n, value, "eigen") for n, value, _, _ in done]


def l2_markov_sweep(
    domain: Domain,
    axis: str,
    ns,
    *,
    tol: float = RESIDUAL_TOL,
    cond_limit: float = COND_LIMIT,
) -> list[FactorPoint]:
    """l2_markov_factor for every degree in ns, in the order given, from one
    factorization at max(ns); see the module docstring.

    A degree whose triangular-factor spread exceeds cond_limit, or whose
    relative eigen residual exceeds tol, raises ConditioningError with that
    degree as `n` and the points completed before it as `partial`.
    """
    return _sweep_points(ns, domain.kind, tol, cond_limit, _markov_pencil, domain, axis)


def l2_schur_sweep(
    ns, *, tol: float = RESIDUAL_TOL, cond_limit: float = COND_LIMIT
) -> list[FactorPoint]:
    """l2_schur_factor for every degree in ns, from one factorization at
    max(ns); aborts as l2_markov_sweep does."""
    return _sweep_points(ns, "simplex-weighted", tol, cond_limit, _schur_pencil)


def l2_markov_factor(
    n: int,
    axis: str,
    domain: Domain,
    *,
    tol: float = RESIDUAL_TOL,
    cond_limit: float = COND_LIMIT,
) -> FactorPoint:
    """Best constant sup ||dP/daxis||_2 / ||P||_2 over total degree <= n.

    Norms are the domain's intrinsic L2 norms (weight w on the weighted
    simplex). The value is sqrt of the top eigenvalue of the derivative
    pencil, solved as a one-degree sweep; see the module docstring.
    """
    return _sweep_points([n], domain.kind, tol, cond_limit, _markov_pencil, domain, axis)[0]


def markov_witness(
    n: int,
    axis: str,
    domain: Domain,
    *,
    tol: float = RESIDUAL_TOL,
    cond_limit: float = COND_LIMIT,
) -> tuple[FactorPoint, BivariatePoly]:
    """The factor together with an extremal polynomial realizing it.

    The extremal lies in one parity class: its coefficients on that class's
    basis columns are R_c^{-1} v, and zero on every other column.
    """
    [n] = _degrees([n])
    num, den = _markov_pencil(domain, axis, n)
    factors, [(_, value, c, v)] = _nested_tops(
        [n], num, den, domain.kind, tol=tol, cond_limit=cond_limit
    )
    cols, R = factors[c]
    coeffs = np.zeros(space_dimension(n))
    coeffs[cols] = np.asarray(_upper_inverse(R) @ v, dtype=np.float64)
    acc = BivariatePoly.zero()
    for a, p in zip(coeffs, basis(n, domain)):
        acc = acc + p.scale(float(a))
    return FactorPoint(n, value, "eigen"), acc


def l2_schur_factor(
    n: int,
    *,
    tol: float = RESIDUAL_TOL,
    cond_limit: float = COND_LIMIT,
) -> FactorPoint:
    """Best constant sup ||P||_{2,w} / ||(v-u) P||_{2,w} over degree <= n
    on the weighted simplex, as a one-degree l2_schur_sweep."""
    return _sweep_points([n], "simplex-weighted", tol, cond_limit, _schur_pencil)[0]


# ---------------------------------------------------------------------------
# Dense oracle path: explicit float64 Grams, hand Cholesky, Jacobi rotations.
# ---------------------------------------------------------------------------

def _dense_top(A: np.ndarray, G: np.ndarray) -> float:
    L = _cholesky_lower(G)
    k = G.shape[0]
    # Solve L X = A, then L Y = X^T: Y = L^{-1} A L^{-T}.
    X = np.empty_like(A)
    for j in range(k):
        col = A[:, j].copy()
        for i in range(k):
            col[i] = (col[i] - L[i, :i] @ col[:i]) / L[i, i]
        X[:, j] = col
    Y = np.empty_like(A)
    for j in range(k):
        col = X[j, :].copy()
        for i in range(k):
            col[i] = (col[i] - L[i, :i] @ col[:i]) / L[i, i]
        Y[:, j] = col
    Y = (Y + Y.T) / 2.0
    lam = float(jacobi_eigenvalues(Y)[-1])
    return math.sqrt(max(lam, 0.0))


def dense_markov_oracle(n: int, axis: str, domain: Domain) -> float:
    """Markov factor via explicit Grams of the poly2d basis objects and a
    cyclic-Jacobi eigensolve. Small n only; the independent cross-check."""
    if n == 0:
        return 0.0
    polys = basis(n, domain)
    wp = 1 if domain.kind == "simplex-weighted" else None
    rule = quad_rule(domain, 2 * n, wp)
    x, y = rule.eval_points()
    B = np.column_stack([p.eval(x, y) for p in polys])
    D = np.column_stack([p.partial(axis).eval(x, y) for p in polys])
    W = rule.weights[:, None]
    G = B.T @ (W * B)
    A = D.T @ (W * D)
    return _dense_top((A + A.T) / 2.0, (G + G.T) / 2.0)


def dense_schur_oracle(n: int) -> float:
    dom = simplex_weighted()
    polys = basis(n, dom)
    rn = quad_rule(dom, 2 * n, 1)
    rd = quad_rule(dom, 2 * n, 3)
    xn, yn = rn.eval_points()
    xd, yd = rd.eval_points()
    Bn = np.column_stack([p.eval(xn, yn) for p in polys])
    Bd = np.column_stack([p.eval(xd, yd) for p in polys])
    A = Bn.T @ (rn.weights[:, None] * Bn)
    G = Bd.T @ (rd.weights[:, None] * Bd)
    return _dense_top((A + A.T) / 2.0, (G + G.T) / 2.0)
