"""Experiment orchestration: sweeps, exponent fits, claim verification.

extremal_rows is the one producer of extremal-family lower-bound ratios;
sweep_extremal is its FactorPoint view, whose `n` is the fit abscissa (the
polynomial degree 5k-4, 5k-3 or n+1). The eigen factor sweeps are
spectral.l2_markov_sweep and l2_schur_sweep, whose `n` is the space degree.
fit_exponent is a plain log-log OLS.

verify_all drives the acceptance criteria and returns a timestamp-free
report whose serialization is byte-identical across reruns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from . import classical
from .config import LabConfig, config_to_dict, default_config
from .domains import (
    DEFAULT_NODE_CAP,
    CapacityError,
    delta_l,
    koornwinder,
    quad_rule,
    simplex_weighted,
)
from .norms import (
    NormSpec,
    bernoulli_sandwich,
    cusp_sup,
    lp_norm,
    markov_ratio,
    wn_norms,
)
from .poly2d import (
    BivariatePoly,
    pullback_derivative_x,
    pullback_derivative_y,
    pullback_symmetric,
)
from .spectral import (
    ConditioningError,
    FactorPoint,
    dense_markov_oracle,
    dense_schur_oracle,
    l2_markov_factor,
    l2_markov_sweep,
    l2_schur_factor,
    l2_schur_sweep,
    markov_witness,
)

__all__ = [
    "FitResult",
    "ExtremalRow",
    "fit_exponent",
    "extremal_rows",
    "sweep_extremal",
    "CriterionResult",
    "VerifyReport",
    "verify_all",
    "report_to_json",
    "format_factor_csv_rows",
]


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    max_abs_residual: float
    n_range: tuple[int, int]


def fit_exponent(points) -> FitResult:
    """OLS of log(value) against log(n) over (n, value) pairs.

    Accepts FactorPoint objects or bare pairs; needs at least 3 points with
    positive finite values and positive n.
    """
    pairs = []
    for item in points:
        if isinstance(item, FactorPoint):
            pairs.append((item.n, item.value))
        else:
            n, v = item
            pairs.append((int(n), float(v)))
    if len(pairs) < 3:
        raise ValueError("fit needs at least 3 points")
    ns = np.array([p[0] for p in pairs], dtype=np.float64)
    vs = np.array([p[1] for p in pairs], dtype=np.float64)
    if np.any(ns <= 0):
        raise ValueError("abscissas must be positive")
    if np.any(vs <= 0) or not np.all(np.isfinite(vs)):
        raise ValueError("values must be positive and finite")
    ln, lv = np.log(ns), np.log(vs)
    slope, intercept = np.polyfit(ln, lv, 1)
    resid = lv - (slope * ln + intercept)
    return FitResult(
        float(slope),
        float(intercept),
        float(np.abs(resid).max()),
        (int(ns.min()), int(ns.max())),
    )


# ---------------------------------------------------------------------------
# Sweeps.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtremalRow:
    """One member of an extremal family: its index and polynomial degree,
    the numerator of its lower-bound ratio (the cusp derivative for pk/qk,
    ||dW_n/dy||_p for wn), its norm, and the floor the ratio is read
    against: k^4/4 for pk, k^4 for qk, n^(2l) for wn (nan at n = 0)."""

    index: int
    degree: int
    numerator: float
    norm: float
    floor: float

    @property
    def ratio(self) -> float:
        return self.numerator / self.norm

    @property
    def point(self) -> FactorPoint:
        """The (degree, ratio) pair the exponent fits take."""
        return FactorPoint(self.degree, self.ratio, "extremal-sequence")


def _cusp_member(family: str, k: int):
    """(degree, cusp derivative, closed-form evaluator, floor) of P_k or Q_k."""
    if family == "pk":
        return (
            classical.pk_degree(k), classical.pk_cusp_derivative(k),
            lambda x, y: classical.pk_value(k, x, y), k**4 / 4.0,
        )
    return (
        classical.qk_degree(k), classical.qk_cusp_derivative(k),
        lambda x, y: classical.qk_value(k, x, y), float(k**4),
    )


def extremal_rows(
    family: str,
    indices,
    spec: NormSpec,
    *,
    alpha: float = 14.0,
    grid_density: int = 8,
    grid_floor: int = 64,
    node_cap: int = DEFAULT_NODE_CAP,
) -> list[ExtremalRow]:
    """One ExtremalRow per index of family pk, qk (on the cusped domain) or
    wn (on a delta-l domain, finite p).

    pk/qk sup norms come from the exact 1-D slice reduction (cusp_sup;
    grid_density/grid_floor set its grid), finite-p norms from closed-form
    evaluation (the monomial expansions are never touched); wn norms from
    the exact 1-D reduction.
    """
    if family == "wn":
        if spec.domain.kind != "delta-l":
            raise ValueError("the wn family lives on a delta-l domain")
        if math.isinf(spec.p):
            raise ValueError("the wn family needs finite p")
        l = spec.domain.l
        rows = []
        for n in map(int, indices):
            dnorm, norm = wn_norms(n, alpha, l, spec.p)
            floor = float(n) ** (2 * l) if n > 0 else math.nan
            rows.append(ExtremalRow(n, n + 1, dnorm, norm, floor))
        return rows
    if family not in ("pk", "qk"):
        raise ValueError(f"unknown family {family!r}")
    if spec.domain.kind != "koornwinder":
        raise ValueError(f"the {family} family lives on the cusped domain")
    rows = []
    for k in map(int, indices):
        degree, cusp, value, floor = _cusp_member(family, k)
        if math.isinf(spec.p):
            norm = cusp_sup(family, k, density=grid_density, floor=grid_floor)
        else:
            norm = lp_norm(value, spec, degree=degree, node_cap=node_cap)
        rows.append(ExtremalRow(k, degree, cusp, norm, floor))
    return rows


def sweep_extremal(
    family: str,
    indices,
    spec: NormSpec,
    *,
    alpha: float = 14.0,
    grid_density: int = 8,
    grid_floor: int = 64,
    node_cap: int = DEFAULT_NODE_CAP,
) -> list[FactorPoint]:
    """extremal_rows as FactorPoints: n is the member's polynomial degree,
    value its lower-bound ratio."""
    rows = extremal_rows(
        family, indices, spec,
        alpha=alpha, grid_density=grid_density, grid_floor=grid_floor,
        node_cap=node_cap,
    )
    return [row.point for row in rows]


def format_factor_csv_rows(points: list[FactorPoint]) -> list[list[str]]:
    """Deterministic CSV cell rendering shared by the CLI and the
    determinism criterion."""
    rows = [["n", "value", "method"]]
    for pt in points:
        rows.append([str(pt.n), format(pt.value, ".15g"), pt.method])
    return rows


# ---------------------------------------------------------------------------
# Verification suite.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CriterionResult:
    cid: int
    name: str
    passed: bool
    measured: dict
    details: str


@dataclass
class VerifyReport:
    results: list[CriterionResult]
    all_passed: bool
    seed: int
    config: dict
    durations: dict = field(default_factory=dict)  # seconds; never serialized
    # criterion id -> message, for criteria stopped by a numerical limit
    # (conditioning or capacity); never serialized
    limits: dict = field(default_factory=dict)


def report_to_json(report: VerifyReport) -> str:
    """Stable, timestamp-free serialization (byte-identical across runs)."""
    import json

    doc = {
        "version": "0.1.0",
        "seed": report.seed,
        "all_passed": report.all_passed,
        "criteria": [
            {
                "id": r.cid,
                "name": r.name,
                "passed": r.passed,
                "measured": r.measured,
                "details": r.details,
            }
            for r in report.results
        ],
        "config": report.config,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _random_poly(rng: np.random.Generator, max_deg: int) -> BivariatePoly:
    c = rng.uniform(-1.0, 1.0, size=(max_deg + 1, max_deg + 1))
    i = np.arange(max_deg + 1)
    c[i[:, None] + i[None, :] > max_deg] = 0.0
    return BivariatePoly(c)


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def _limits(cfg: LabConfig) -> dict:
    """The configured residual tolerance and conditioning limit, as the
    keyword arguments every spectral solve takes."""
    pw = cfg.power_iteration
    return {"tol": pw.tolerance, "cond_limit": pw.condition_limit}


def _c1_geometry(cfg: LabConfig, rng: np.random.Generator):
    acc = cfg.acceptance
    margin = cfg.quadrature.exactness_margin
    cap = cfg.quadrature.node_cap
    dom = koornwinder()
    rule0 = quad_rule(dom, 0, margin=margin, node_cap=cap)
    area = float(np.sum(rule0.weights))
    area_err = abs(area - 4.0 / 3.0) / (4.0 / 3.0)
    rule_o = quad_rule(dom, 10, margin=margin, node_cap=cap)
    rule_s = quad_rule(simplex_weighted(), 20, 1, margin=margin, node_cap=cap)
    worst = 0.0
    for _ in range(acc.pullback_samples):
        p = _random_poly(rng, 10)
        direct = rule_o.integrate(p.eval)
        via_pullback = rule_s.integrate(pullback_symmetric(p).eval)
        worst = max(worst, _rel_err(direct, via_pullback))
    passed = area_err <= acc.area_rtol and worst <= acc.pullback_rtol
    return passed, {
        "area": area,
        "area_rel_err": area_err,
        "max_pullback_rel_err": worst,
    }, (
        f"area rel err {area_err:.2e} (tol {acc.area_rtol:.0e}); "
        f"pullback consistency worst {worst:.2e} over {acc.pullback_samples} "
        f"random polynomials (tol {acc.pullback_rtol:.0e})"
    )


def _c2_identities(cfg: LabConfig, rng: np.random.Generator):
    acc = cfg.acceptance
    vmu = BivariatePoly([[0.0, 1.0], [-1.0, 0.0]])  # v - u on the (u, v) side
    worst = 0.0
    for _ in range(acc.identity_samples):
        p = _random_poly(rng, 8)
        for lhs, axis in (
            (pullback_derivative_y(p), "y"),
            (pullback_derivative_x(p), "x"),
        ):
            rhs = vmu * pullback_symmetric(p.partial(axis))
            diff = (lhs - rhs).max_abs_coeff()
            scale = max(lhs.max_abs_coeff(), rhs.max_abs_coeff(), 1.0)
            worst = max(worst, diff / scale)
    passed = worst <= acc.identity_rtol
    return passed, {"max_coeff_rel_err": worst}, (
        f"both derivative pullback identities coefficientwise within "
        f"{worst:.2e} over {acc.identity_samples} random polynomials "
        f"(tol {acc.identity_rtol:.0e})"
    )


def _c3_sharpness(cfg: LabConfig, _rng):
    acc = cfg.acceptance
    spec = NormSpec(math.inf, koornwinder())
    worst_cusp = 0.0
    worst_sup = 0.0
    min_margin = math.inf
    for family in ("pk", "qk"):
        rows = extremal_rows(
            family, range(1, acc.sharpness_max_index + 1), spec,
            grid_density=cfg.sup_grid.density, grid_floor=cfg.sup_grid.floor,
            node_cap=cfg.quadrature.node_cap,
        )
        for row in rows:
            # the cusp derivatives k^5/4 and k^5 are k times the floors
            worst_cusp = max(worst_cusp, _rel_err(row.numerator, row.index * row.floor))
            worst_sup = max(worst_sup, row.norm / row.index)
            min_margin = min(min_margin, row.ratio / row.floor)
    slack = 1.0 + acc.sup_norm_slack
    passed = (
        worst_cusp <= 1e-12 and worst_sup <= slack and min_margin >= 1.0
    )
    return passed, {
        "max_cusp_rel_err": worst_cusp,
        "max_sup_over_k": worst_sup,
        "min_ratio_over_bound": min_margin,
    }, (
        f"cusp derivatives exact to {worst_cusp:.1e}; 1-D slice sups at most "
        f"{worst_sup:.6f} of the closed bound k; lower-bound ratios exceed "
        f"their floors by factor >= {min_margin:.6f}, all k <= {acc.sharpness_max_index}"
    )


def _extremal_slope(cfg: LabConfig, density: int) -> FitResult:
    acc = cfg.acceptance
    lo, hi = acc.extremal_index_range
    rows = extremal_rows(
        "pk", range(lo, hi + 1), NormSpec(math.inf, koornwinder()),
        grid_density=density, grid_floor=cfg.sup_grid.floor,
        node_cap=cfg.quadrature.node_cap,
    )
    return fit_exponent([row.point for row in rows])


def _c4_extremal_fit(cfg: LabConfig, _rng):
    acc = cfg.acceptance
    fit = _extremal_slope(cfg, cfg.sup_grid.density)
    fit2 = _extremal_slope(cfg, 2 * cfg.sup_grid.density)
    shift = abs(fit.slope - fit2.slope)
    lo, hi = acc.extremal_slope_window
    in_window = lo <= fit.slope <= hi
    stable = shift < acc.stability_max_shift
    return in_window and stable, {
        "slope": fit.slope,
        "slope_doubled_density": fit2.slope,
        "stability_shift": shift,
        "window": [lo, hi],
    }, (
        f"sup-ratio exponent fit {fit.slope:.5f} over indices "
        f"{acc.extremal_index_range} vs window [{lo}, {hi}]"
        f"{' (in window)' if in_window else ' (OUTSIDE window)'}; "
        f"density doubling shifts slope by {shift:.5f} "
        f"({'stable' if stable else 'UNSTABLE'}, limit {acc.stability_max_shift})"
    )


def _c5_koornwinder(cfg: LabConfig, _rng):
    acc = cfg.acceptance
    lo, hi = acc.koornwinder_degree_range
    pts = l2_markov_sweep(koornwinder(), "y", range(lo, hi + 1), **_limits(cfg))
    fit = fit_exponent(pts)
    values = [p.value for p in pts]
    nondecreasing = all(b >= a for a, b in zip(values, values[1:]))
    wlo, whi = acc.koornwinder_slope_window
    in_window = wlo <= fit.slope <= whi
    return in_window and nondecreasing, {
        "slope": fit.slope,
        "window": [wlo, whi],
        "nondecreasing": nondecreasing,
        "values": values,
    }, (
        f"L2 factor exponent {fit.slope:.5f} over n in [{lo}, {hi}] vs window "
        f"[{wlo}, {whi}]{'' if in_window else ' (OUTSIDE window)'}; factors "
        f"{'nondecreasing' if nondecreasing else 'NOT monotone'}"
    )


def _c6_simplex(cfg: LabConfig, _rng):
    acc = cfg.acceptance
    lo, hi = acc.simplex_degree_range
    wlo, whi = acc.simplex_slope_window
    measured = {}
    ok = True
    details = []
    for axis in ("x", "y"):
        pts = l2_markov_sweep(simplex_weighted(), axis, range(lo, hi + 1), **_limits(cfg))
        fit = fit_exponent(pts)
        measured[f"slope_{axis}"] = fit.slope
        in_window = wlo <= fit.slope <= whi
        ok = ok and in_window
        details.append(
            f"axis {axis}: slope {fit.slope:.5f}"
            f"{'' if in_window else ' (OUTSIDE window)'}"
        )
    measured["window"] = [wlo, whi]
    return ok, measured, (
        "; ".join(details) + f" vs window [{wlo}, {whi}] over n in [{lo}, {hi}]"
    )


def _c7_schur(cfg: LabConfig, _rng):
    acc = cfg.acceptance
    lim = _limits(cfg)
    base = l2_schur_factor(0, **lim).value
    base_expect = math.sqrt(5.0 / 6.0)
    base_err = _rel_err(base, base_expect)
    lo, hi = acc.schur_degree_range
    pts = l2_schur_sweep(range(lo, hi + 1), **lim)
    fit = fit_exponent(pts)
    passed = base_err <= acc.schur_base_rtol and fit.slope <= acc.schur_slope_max
    return passed, {
        "base_value": base,
        "base_rel_err": base_err,
        "slope": fit.slope,
        "slope_max": acc.schur_slope_max,
    }, (
        f"degree-0 value {base:.12f} matches sqrt(5/6) to {base_err:.2e} "
        f"(tol {acc.schur_base_rtol:.0e}); growth exponent {fit.slope:.5f} "
        f"<= {acc.schur_slope_max}: {fit.slope <= acc.schur_slope_max}"
    )


def _c8_wn(cfg: LabConfig, _rng):
    acc = cfg.acceptance
    lo, hi = acc.wn_index_range
    spec = NormSpec(acc.wn_p, delta_l(acc.wn_l))
    rows = extremal_rows(
        "wn", range(lo, hi + 1), spec,
        alpha=acc.wn_alpha, node_cap=cfg.quadrature.node_cap,
    )
    fit = fit_exponent([row.point for row in rows])
    wlo, whi = acc.wn_slope_window
    passed = wlo <= fit.slope <= whi
    return passed, {
        "slope": fit.slope,
        "window": [wlo, whi],
        "alpha": acc.wn_alpha,
        "l": acc.wn_l,
        "p": acc.wn_p,
    }, (
        f"1-D reduction ratio exponent {fit.slope:.5f} over n in [{lo}, {hi}] "
        f"(alpha {acc.wn_alpha}, l {acc.wn_l}, p {acc.wn_p}) vs window [{wlo}, {whi}]"
    )


def _c9_sandwich(cfg: LabConfig, _rng):
    acc = cfg.acceptance
    xs = np.linspace(0.0, 1.0, acc.sandwich_samples)
    ok = True
    for l in acc.sandwich_orders:
        lower, mid, upper = bernoulli_sandwich(xs, l)
        ok = ok and bool(np.all(lower <= mid) and np.all(mid <= upper))
    return ok, {
        "samples": acc.sandwich_samples,
        "orders": list(acc.sandwich_orders),
    }, (
        f"((1-x)/l)^l <= (1-x^(1/l))^l <= (1-x)^l pointwise at "
        f"{acc.sandwich_samples} samples for l in {list(acc.sandwich_orders)}: {ok}"
    )


def _c10_oracle(cfg: LabConfig, _rng):
    acc = cfg.acceptance
    worst_eigen = 0.0
    worst_witness = 0.0
    lim = _limits(cfg)
    for dom in (koornwinder(), simplex_weighted()):
        for axis in ("x", "y"):
            for n in range(1, acc.oracle_max_degree + 1):
                fast = l2_markov_factor(n, axis, dom, **lim).value
                slow = dense_markov_oracle(n, axis, dom)
                worst_eigen = max(worst_eigen, _rel_err(fast, slow))
    for n in range(0, acc.oracle_max_degree + 1):
        fast = l2_schur_factor(n, **lim).value
        slow = dense_schur_oracle(n)
        worst_eigen = max(worst_eigen, _rel_err(fast, slow))
    for n in range(1, acc.oracle_max_degree + 1):
        point, poly = markov_witness(n, "y", koornwinder(), **lim)
        ratio = markov_ratio(poly, "y", NormSpec(2.0, koornwinder()))
        worst_witness = max(worst_witness, _rel_err(ratio, point.value))
    passed = worst_eigen <= acc.oracle_rtol and worst_witness <= acc.oracle_rtol
    return passed, {
        "max_eigen_rel_err": worst_eigen,
        "max_witness_rel_err": worst_witness,
    }, (
        f"extended-precision eigen engine vs dense Jacobi-rotation oracle within "
        f"{worst_eigen:.2e}; witness polynomials reproduce their ratios "
        f"within {worst_witness:.2e} (tol {acc.oracle_rtol:.0e}, n <= "
        f"{acc.oracle_max_degree})"
    )


def _c11_determinism(cfg: LabConfig, _rng):
    """The nested sweeps against independent per-degree solves, and two
    reruns of each against each other, cell for cell."""
    lim = _limits(cfg)
    ns = range(2, 7)
    sweeps = (
        (lambda: l2_schur_sweep(ns, **lim),
         lambda n: l2_schur_factor(n, **lim)),
        (lambda: l2_markov_sweep(koornwinder(), "y", ns, **lim),
         lambda n: l2_markov_factor(n, "y", koornwinder(), **lim)),
    )
    worst = 0.0
    identical = True
    for sweep, single in sweeps:
        pts = sweep()
        for pt in pts:
            worst = max(worst, _rel_err(pt.value, single(pt.n).value))
        identical = identical and (
            format_factor_csv_rows(pts) == format_factor_csv_rows(sweep())
        )
    rtol = cfg.acceptance.oracle_rtol
    passed = identical and worst <= rtol
    return passed, {
        "bytes_identical": identical,
        "max_sweep_vs_single_rel_err": worst,
        "n_items": len(ns),
    }, (
        "Schur and omega-y sweeps over n in [2, 6] match per-degree solves "
        f"within {worst:.2e} (tol {rtol:.0e}); reruns render byte-identical "
        f"CSV cells: {identical}"
    )


_CRITERIA = {
    1: ("geometry-exactness", _c1_geometry),
    2: ("derivative-pullback-identities", _c2_identities),
    3: ("cusp-sharpness", _c3_sharpness),
    4: ("extremal-exponent-fit", _c4_extremal_fit),
    5: ("koornwinder-l2-exponent", _c5_koornwinder),
    6: ("simplex-l2-exponent", _c6_simplex),
    7: ("schur-factor", _c7_schur),
    8: ("delta-l-ratio-exponent", _c8_wn),
    9: ("bernoulli-sandwich", _c9_sandwich),
    10: ("oracle-equivalence", _c10_oracle),
    11: ("determinism", _c11_determinism),
}


def verify_all(config: LabConfig | None = None, *, seed: int | None = None) -> VerifyReport:
    """Run the configured acceptance criteria; failures are report entries,
    never exceptions. A criterion stopped by a conditioning or capacity
    limit fails with a "numerical limit: ..." detail and is listed in
    `limits`. The report carries no timestamps so that repeated runs
    serialize to identical bytes."""
    cfg = config if config is not None else default_config()
    cfg.validate()
    use_seed = cfg.acceptance.seed if seed is None else int(seed)
    results: list[CriterionResult] = []
    durations: dict[int, float] = {}
    limits: dict[int, str] = {}
    for cid in cfg.acceptance.criteria:
        name, fn = _CRITERIA[cid]
        rng = np.random.default_rng([use_seed, cid])
        t0 = perf_counter()
        try:
            passed, measured, details = fn(cfg, rng)
        except (CapacityError, ConditioningError) as e:
            limits[cid] = str(e)
            passed, measured, details = False, {}, f"numerical limit: {e}"
        durations[cid] = perf_counter() - t0
        results.append(CriterionResult(cid, name, bool(passed), measured, details))
    return VerifyReport(
        results=results,
        all_passed=all(r.passed for r in results),
        seed=use_seed,
        config=config_to_dict(cfg),
        durations=durations,
        limits=limits,
    )
