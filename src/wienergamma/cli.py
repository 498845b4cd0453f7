"""Experiment runner: every toolkit check as a reproducible command.

A run is fully determined by (config, seed, workers).  Each experiment emits
rows carrying both sides of its check, the Monte Carlo standard error, the
tolerance rule, and a verdict; the process exits 0 only if every row passed.
Reports are written as JSON and/or CSV with no timing information inside, so
identical (config, seed, workers) runs produce byte-identical files; the wall
clock goes to the console only.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .chaos import gamma_oracle, oracle_suite
from .comparison import (
    PerturbationSpec,
    build_gaussian_pair,
    build_perturbed_pair,
    check_phi_monotone,
    concentration_check,
    default_t_grid,
    exp_linear_function,
    perturbation_gamma,
    quadratic_function,
    slepian_experiment,
    sudakov_fernique_experiment,
)
from .core import Functional, Tanh, build_space, make_field, sample, w
from .engine import MehlerConfig, gamma_pointwise, ibp_residual, poincare_check
from .fbm import (
    NEG_TANH_DRIFT,
    TANH_DRIFT,
    ZERO_DRIFT,
    delta_fbm,
    sup_comparison,
    uniform_grid,
)
from .grammar import parse_expression
from .parallel import default_workers
from .sk import (
    IID_GAUSSIAN,
    MediumFamily,
    clt_chaos2,
    correlated_gaussian,
    free_energy_exact,
    free_energy_reference,
    gamma_f_bound_check,
    generic_bound_check,
    medium_sample,
    paired_chaos2_gap,
)

RULE_EXACT = "exact arithmetic"
RULE_REPORT = "report only"


@dataclass(frozen=True)
class Row:
    """One check: ``rhs`` is the bound or the other side, without slack, and
    ``std_error`` is the standard error of the comparison."""

    name: str
    lhs: float
    rhs: float
    std_error: float
    verdict: bool
    rule: str


# Every 3-SE verdict comes from upper, lower or close.  Each takes scalars,
# or arrays for an aggregated check, whose row is then the entry with the
# least slack: that entry passes exactly when every entry does.

def _tightest(name, lhs, rhs, se, slack, rule) -> Row:
    lhs, rhs, se, slack = (np.ravel(a) for a in np.broadcast_arrays(lhs, rhs, se, slack))
    k = int(np.argmin(slack))
    return Row(name, float(lhs[k]), float(rhs[k]), float(se[k]),
               bool(slack[k] >= 0.0), rule)


def upper(name, lhs, rhs, se) -> Row:
    """Passes when lhs <= rhs + 3 se."""
    return _tightest(name, lhs, rhs, se, rhs + 3.0 * se - lhs,
                     "pass when lhs <= rhs + 3 SE")


def lower(name, lhs, rhs, se, atol=0.0) -> Row:
    """Passes when lhs >= rhs - 3 se - atol."""
    return _tightest(name, lhs, rhs, se, lhs - (rhs - 3.0 * se - atol),
                     "pass when lhs >= rhs - 3 SE" + (f" - {atol:g}" if atol else ""))


def close(name, lhs, rhs, se, rel=0.0) -> Row:
    """Passes when |lhs - rhs| <= max(rel |rhs|, 3 se)."""
    slack = np.maximum(rel * np.abs(rhs), 3.0 * se) - np.abs(lhs - rhs)
    bound = f"max({rel:g} |rhs|, 3 SE)" if rel else "3 SE"
    return _tightest(name, lhs, rhs, se, slack, f"pass when |lhs - rhs| <= {bound}")


def _phi_pair(name: str):
    if name == "id":
        return (lambda x: x), (lambda x: np.ones_like(x))
    if name == "square":
        return (lambda x: x * x), (lambda x: 2.0 * x)
    if name == "tanh":
        return np.tanh, (lambda x: 1.0 / np.cosh(x) ** 2)
    raise ValueError(f"unknown phi {name!r}; choose id, square or tanh")


def _family_from_spec(spec) -> MediumFamily:
    if isinstance(spec, str):
        spec = {"kind": spec}
    kind = spec["kind"]
    if kind == "iid-gaussian":
        return IID_GAUSSIAN
    if kind == "correlated-gaussian":
        return correlated_gaussian(float(spec.get("r", 3.0)))
    if kind == "clt-chaos2":
        m = spec.get("m", 1)
        return clt_chaos2(m if m == "N" else int(m))
    raise ValueError(f"unknown medium family {kind!r}")


# ---------------------------------------------------------------------------
# Experiment runners: params dict -> list[Row]
# ---------------------------------------------------------------------------

def run_gamma(params, seed, workers, cfg):
    """Mehler-engine estimates against the exact chaos oracle, per pair."""
    n_points = int(params.get("n_points", 20))
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    space = build_space(4)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6A]))
    points = sample(space, rng, n_points)
    rows = []
    for name, f, g in oracle_suite(space):
        ests = [gamma_pointwise(f, g, points[k], cfg,
                                rng=np.random.default_rng(rng.integers(2**63)))
                for k in range(n_points)]
        exact = [float(gamma_oracle(f, g, points[k])) for k in range(n_points)]
        rows.append(close(f"gamma/{name}", np.array([e.value for e in ests]),
                          np.array(exact), np.array([e.std_error for e in ests]),
                          rel=0.01))
    return rows


def run_ibp_check(params, seed, workers, cfg):
    """Integration-by-parts residuals over the chaos suite or a custom pair."""
    n_outer = int(params.get("n_outer", 10_000))
    phis = params.get("phi", ["id", "square", "tanh"])
    if isinstance(phis, str):
        phis = [phis]
    rows = []
    if "f_expr" in params:
        dim = int(params.get("dim", 1))
        space = build_space(dim)
        f = Functional(space, parse_expression(params["f_expr"], dim))
        g = Functional(space, parse_expression(params.get("g_expr", params["f_expr"]), dim))
        pairs = [("custom", f, g)]
    else:
        pairs = oracle_suite(build_space(4))
    for pair_index, (name, f, g) in enumerate(pairs):
        for phi_name in phis:
            phi, phi_prime = _phi_pair(phi_name)
            res = ibp_residual(phi, phi_prime, f, g, n_outer, cfg,
                               seed=seed + 131 * pair_index)
            rows.append(close(f"ibp/{name}/{phi_name}", res.lhs, res.rhs,
                              res.std_error))
    return rows


POINCARE_SUITE = (
    ("w0", 1),
    ("hermite(2, w0)", 1),
    ("hermite(3, w0)", 1),
    ("tanh(w0)", 1),
    ("w0 * w1", 2),
    ("hermite(2, w0) + w1", 2),
)


def run_poincare(params, seed, workers, cfg):
    """Moment inequality E|F|^p <= (p-1)^{p/2} E|Gamma_{F,F}|^{p/2}."""
    p_values = params.get("p", [2.0, 3.0, 4.0])
    n_outer = int(params.get("n_outer", 20_000))
    if "expr" in params:
        suite = [(params["expr"], int(params.get("dim", 1)))]
    else:
        suite = POINCARE_SUITE
    rows = []
    for fn_index, (text, dim) in enumerate(suite):
        space = build_space(max(dim, 2))
        f = Functional(space, parse_expression(text, space.dim))
        for p in p_values:
            res = poincare_check(f, float(p), n_outer, cfg,
                                 seed=seed + 977 * fn_index)
            rows.append(upper(f"poincare/{text}/p={p:g}", res.lhs, res.rhs,
                              res.std_error))
    return rows


def run_sudakov(params, seed, workers, cfg):
    """Supremum comparison for dominated Gaussian fields plus the
    independent-additive-noise baseline."""
    d = int(params.get("d", 5))
    sigma_f = float(params.get("sigma_f", 1.0))
    sigma_g = float(params.get("sigma_g", 1.5))
    betas = tuple(params.get("betas", (1.0, 2.0, 4.0, 8.0, 16.0)))
    n_outer = int(params.get("n_outer", 4_000))
    n_sup = int(params.get("n_sup", 100_000))
    t_grid = default_t_grid(int(params.get("t_points", 21)))
    pair = build_gaussian_pair(sigma_f**2 * np.eye(d), sigma_g**2 * np.eye(d))
    report = sudakov_fernique_experiment(pair, betas, t_grid, cfg, n_outer,
                                         n_sup, seed=seed, workers=workers)
    rows = [upper(f"sudakov/phi-prime/beta={r.beta:g}/t={r.t:.3f}", r.value, 0.0,
                  r.std_error)
            for r in report.rows]
    rows.append(upper("sudakov/max-comparison", report.e_max_f.value,
                      report.e_max_g.value,
                      math.hypot(report.e_max_f.std_error, report.e_max_g.std_error)))
    for beta in betas:
        rows.append(Row(f"sudakov/sandwich-gap/beta={beta:g}",
                        report.sandwich_gaps[beta], math.log(d) / beta, 0.0,
                        True, RULE_REPORT))

    # Baseline: adding independent centered noise can only raise the expected max.
    from .comparison import expected_max
    from .core import Hermite

    space = build_space(2 * d)
    base = make_field(space, [sigma_f * w(i) for i in range(d)])
    noisy = make_field(space, [
        sigma_f * w(i) + 0.8 * Hermite(2, w(d + i)) for i in range(d)
    ])
    e_base = expected_max(base, n_sup, seed=seed + 11, workers=workers)
    e_noisy = expected_max(noisy, n_sup, seed=seed + 12, workers=workers)
    rows.append(upper("sudakov/additive-noise-baseline", e_base.value, e_noisy.value,
                      math.hypot(e_base.std_error, e_noisy.std_error)))
    return rows


def run_slepian(params, seed, workers, cfg):
    """Functional comparison with a quadratic payoff under entrywise
    dominated Gamma matrices (Gaussian case)."""
    d = int(params.get("d", 2))
    n_outer = int(params.get("n_outer", 4_000))
    n_value = int(params.get("n_value", 100_000))
    base = np.asarray(params.get("cov_g", (np.eye(d) + 0.1 * np.ones((d, d))
                                           - 0.1 * np.eye(d))), dtype=float)
    bump = np.asarray(params.get("bump", 0.8 * np.ones(d) / math.sqrt(d)), dtype=float)
    cov_f = base + np.outer(bump, bump)
    pair = build_gaussian_pair(cov_f, base)
    fn = quadratic_function(np.ones((d, d)))
    report = slepian_experiment(pair, fn, default_t_grid(int(params.get("t_points", 11))),
                                cfg, n_outer, n_value, seed=seed, workers=workers)
    rows = [lower(f"slepian/phi-prime/t={r.t:.3f}", r.value, 0.0, r.std_error)
            for r in report.rows]
    rows.append(lower("slepian/functional-comparison", report.e_f_of_f.value,
                      report.e_f_of_g.value,
                      math.hypot(report.e_f_of_f.std_error, report.e_f_of_g.std_error)))
    return rows


def run_concentration(params, seed, workers, cfg):
    """Joint upper tail against the Gaussian-dominated exponential bound."""
    rows = []
    case = params.get("case", "both")
    n_outer = int(params.get("n_outer", 1_000_000))
    if case in ("scalar-gaussian", "both"):
        space = build_space(1)
        fld = make_field(space, [w(0)])
        res = concentration_check(fld, np.array([[1.0]]),
                                  np.array([float(params.get("x", 2.0))]),
                                  n_outer, cfg, n_psd=8, seed=seed,
                                  workers=workers)
        rows += _concentration_rows("scalar", res)
    if case in ("chaos2", "both"):
        space = build_space(4)
        exprs = [w(0) + 0.1 * _hermite2(2), w(1) + 0.1 * _hermite2(3)]
        fld = make_field(space, exprs)
        x = np.asarray(params.get("x2", (1.5, 1.5)), dtype=float)
        res = concentration_check(fld, 3.0 * np.eye(2), x, n_outer, cfg,
                                  n_psd=int(params.get("n_psd", 16)),
                                  seed=seed + 1, workers=workers)
        rows += _concentration_rows("chaos2", res)
    return rows


def _concentration_rows(case, res) -> list[Row]:
    # The absolute floor keeps an exactly deterministic Gamma (SE 0) from
    # failing over a last-bit eigenvalue.
    return [lower(f"concentration/{case}/psd", res.psd_margin, 0.0,
                  res.psd_std_error, atol=1e-12),
            upper(f"concentration/{case}/tail", res.tail, res.bound, res.tail_std_error)]


def _hermite2(index):
    from .core import Hermite

    return Hermite(2, w(index))


def run_perturbation(params, seed, workers, cfg):
    """Monotone perturbation of a Gaussian vector: Gamma dominates the base
    covariance entrywise and a payoff with nonnegative cross-derivatives
    increases in mean."""
    n_points = int(params.get("n_points", 5))
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    n_value = int(params.get("n_value", 150_000))
    chol = np.linalg.cholesky(np.array([[1.0, 0.3], [0.3, 1.0]]))
    g_rows = np.hstack([chol, np.zeros((2, 2))])
    spec = PerturbationSpec(
        g_rows=g_rows,
        f_rows=((np.array([0.0, 0.0, 1.0, 0.0]),),
                (np.array([0.0, 0.0, 0.3, 0.9]),)),
        phi_builders=(lambda args: Tanh(args[0]), lambda args: Tanh(args[0])),
    )
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9E]))
    check_phi_monotone(spec, rng)
    f_field, g_field, space = build_perturbed_pair(spec, rng)
    base = g_rows @ g_rows.T

    pts = sample(space, np.random.default_rng(np.random.SeedSequence([seed, 0x9F])),
                 n_points)
    values, errors = zip(*(perturbation_gamma(f_field, pts[k], cfg, seed=seed + k)
                           for k in range(n_points)))
    rows = [lower("perturbation/gamma-dominates-covariance", np.stack(values), base,
                  np.stack(errors), atol=1e-9)]

    psi = exp_linear_function(np.asarray(params.get("theta", (0.4, 0.4)), dtype=float))
    eval_pts = sample(space, np.random.default_rng(np.random.SeedSequence([seed, 0xA0])),
                      n_value)
    vf = psi.fun(f_field.eval_all(eval_pts))
    vg = psi.fun(g_field.eval_all(eval_pts))
    se = math.hypot(float(np.std(vf, ddof=1)), float(np.std(vg, ddof=1))) / math.sqrt(n_value)
    lhs, rhs = float(np.mean(vf)), float(np.mean(vg))
    rows.append(lower("perturbation/payoff-comparison", lhs, rhs, se))
    return rows


def run_fbm_sde(params, seed, workers, cfg):
    """Supremum and squared-metric checks for the fBm-driven SDE."""
    hurst = float(params.get("hurst", 0.7))
    m = int(params.get("m", 128))
    horizon = float(params.get("horizon", 1.0))
    n_paths = int(params.get("n_paths", 100_000))
    n_outer = int(params.get("n_outer", 400))
    grid = uniform_grid(hurst, horizon, m)
    rows = []
    tables = {}

    n_dump = int(params.get("dump_paths", 0))
    if n_dump > 0:
        from .fbm import euler_solve, fbm_sample

        dump_rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD0]))
        paths, _ = fbm_sample(grid, dump_rng, size=n_dump)
        values = euler_solve(0.0, TANH_DRIFT, paths, grid.times)
        header = ["kind", "path"] + [f"t={t:.6g}" for t in grid.times]
        table_rows = []
        for k in range(n_dump):
            table_rows.append(["fbm", k] + [repr(float(x)) for x in paths[k]])
        for k in range(n_dump):
            table_rows.append(["sde", k] + [repr(float(x)) for x in values[k]])
        tables["paths"] = {"header": header, "rows": table_rows}

    pair_fracs = params.get("delta_pairs",
                            ((0.0, 1.0), (0.125, 0.375), (0.25, 0.75),
                             (0.5, 0.625), (0.25, 1.0)))
    for frac_s, frac_t in pair_fracs:
        s_idx, t_idx = int(round(frac_s * m)), int(round(frac_t * m))
        est = delta_fbm(grid, ZERO_DRIFT, s_idx, t_idx, cfg=cfg, n_outer=8,
                        seed=seed, workers=1)
        rows.append(close(f"fbm/delta-driftless/s={frac_s:g},t={frac_t:g}",
                          est.value, est.reference, est.std_error, rel=0.02))

    for frac_s, frac_t in ((0.125, 0.625), (0.0, 1.0)):
        s_idx, t_idx = int(round(frac_s * m)), int(round(frac_t * m))
        est = delta_fbm(grid, TANH_DRIFT, s_idx, t_idx, cfg=cfg,
                        n_outer=n_outer, seed=seed + 3, workers=workers)
        rows.append(lower(f"fbm/delta-increasing-drift/s={frac_s:g},t={frac_t:g}",
                          est.value, est.reference, est.std_error))

    up = sup_comparison(grid, TANH_DRIFT, n_paths=n_paths, seed=seed + 5,
                        workers=workers)
    rows.append(lower("fbm/sup-increasing-drift", up.e_max_centered_sde,
                      up.e_max_fbm, up.combined_se))
    down = sup_comparison(grid, NEG_TANH_DRIFT, n_paths=n_paths, seed=seed + 6,
                          workers=workers)
    rows.append(upper("fbm/sup-decreasing-drift", down.e_max_centered_sde,
                      down.e_max_fbm, down.combined_se))
    return (rows, tables) if tables else rows


def run_sk_free_energy(params, seed, workers, cfg):
    """Exact SK free energy for one sampled medium."""
    n = int(params.get("n", 8))
    beta = float(params.get("beta", 1.0))
    family = _family_from_spec(params.get("family", "iid-gaussian"))
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5C]))
    medium = medium_sample(family, n, rng)
    res = free_energy_exact(medium.coupling, beta)
    rows = [Row(f"sk/free-energy/N={n}/beta={beta:g}", res.value, res.value,
                0.0, True, RULE_REPORT)]
    if n == 2:
        closed = 0.5 * math.log(math.cosh(beta * medium.coupling[1, 0]))
        rows.append(Row("sk/free-energy/two-spin-closed-form", res.value,
                        closed, 0.0, abs(res.value - closed) <= 1e-12,
                        "pass when |value - closed form| <= 1e-12"))
    if params.get("check_reference", False) and n <= 10:
        ref = free_energy_reference(medium.coupling, beta)
        rows.append(Row("sk/free-energy/gray-vs-reference", res.value,
                        ref.value, 0.0, res.value == ref.value,
                        "pass when bit-identical"))
    if params.get("dump_medium", False):
        header = ["row"] + [f"j={j}" for j in range(n)]
        table_rows = [[i] + [repr(float(x)) for x in medium.coupling[i]]
                      for i in range(n)]
        return rows, {"medium": {"header": header, "rows": table_rows}}
    return rows


def run_sk_generic_bound(params, seed, workers, cfg):
    """Free-energy comparison bound cells over families and sizes, plus the
    paired-gap ladder for the size-scaled chaos family."""
    ns = params.get("ns", (8, 12, 16))
    if not isinstance(ns, (list, tuple)):
        raise ValueError("ns must be a list of sizes")
    beta = float(params.get("beta", 1.0))
    n_media = int(params.get("n_media", 200))
    f_name = params.get("f", "tanh")
    family_specs = params.get(
        "families",
        ({"kind": "clt-chaos2", "m": 1}, {"kind": "clt-chaos2", "m": "N"},
         {"kind": "correlated-gaussian", "r": 3.0}),
    )
    rows = []
    for spec in family_specs:
        family = _family_from_spec(spec)
        for n in ns:
            res = generic_bound_check(family, n, beta, f_name=f_name,
                                      n_media=n_media, seed=seed)
            rows.append(upper(f"sk/generic-bound/{res.family_label}/N={n}",
                              res.lhs, res.rhs, res.std_error))
    gap_media = int(params.get("gap_media", 4_000))
    gaps = []
    for n in ns:
        pg = paired_chaos2_gap(n, beta, n_media=gap_media, seed=seed)
        gaps.append(abs(pg.gap))
        rows.append(Row(f"sk/paired-gap/N={n}", pg.gap, 0.0, pg.std_error,
                        True, RULE_REPORT))
    decreasing = all(gaps[i] > gaps[i + 1] for i in range(len(gaps) - 1))
    rows.append(Row("sk/gap-monotone-decreasing", gaps[0], gaps[-1], 0.0,
                    decreasing, "pass when |gap| decreases along the ladder"))
    return rows


def run_sk_gamma_bound(params, seed, workers, cfg):
    """Gamma bound for the centered free energy, per sampled medium."""
    n = int(params.get("n", 12))
    betas = tuple(params.get("betas", (0.5, 1.0)))
    n_media = int(params.get("n_media", 50))
    family_specs = params.get(
        "families",
        ("iid-gaussian", {"kind": "clt-chaos2", "m": 1},
         {"kind": "clt-chaos2", "m": 4}, {"kind": "correlated-gaussian", "r": 3.0}),
    )
    rows = []
    for spec in family_specs:
        family = _family_from_spec(spec)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6B]))
        media = [medium_sample(family, n, rng) for _ in range(n_media)]
        for beta in betas:
            worst_lhs, worst_rhs = 0.0, 0.0
            ok = True
            for medium in media:
                res = gamma_f_bound_check(medium, beta)
                ok = ok and res.passed
                if res.lhs - res.rhs > worst_lhs - worst_rhs:
                    worst_lhs, worst_rhs = res.lhs, res.rhs
            rows.append(Row(
                f"sk/gamma-bound/{family.label(n)}/beta={beta:g}",
                worst_lhs, worst_rhs, 0.0, ok, RULE_EXACT))
    return rows


def run_sk_convergence(params, seed, workers, cfg):
    """Free-energy table across families and sizes with gaps to the star law."""
    from .sk import convergence_experiment

    ns = params.get("ns", (8, 12, 16))
    if not isinstance(ns, (list, tuple)):
        raise ValueError("ns must be a list of sizes")
    beta = float(params.get("beta", 1.0))
    n_media = int(params.get("n_media", 200))
    family_specs = params.get(
        "families",
        ({"kind": "clt-chaos2", "m": "N"}, {"kind": "correlated-gaussian", "r": 3.0}),
    )
    families = [_family_from_spec(s) for s in family_specs]
    rows = []
    for row in convergence_experiment(families, beta, ns, n_media, seed=seed):
        rows.append(Row(
            f"sk/convergence/{row.family_label}/N={row.n}", row.mean,
            row.gap_to_star, row.std_error, True, RULE_REPORT))
    return rows


EXPERIMENTS = {
    "gamma": (run_gamma,
              "Mehler-coupling Gamma estimates against the exact chaos oracle",
              "covariance operator via the Ornstein-Uhlenbeck semigroup"),
    "ibp-check": (run_ibp_check,
                  "integration-by-parts residual E[phi(F)G] - E[phi'(F)Gamma]",
                  "Gaussian integration by parts / chain rule"),
    "poincare": (run_poincare,
                 "moment bound E|F|^p <= (p-1)^{p/2} E|Gamma|^{p/2}",
                 "Poincare-type inequality"),
    "sudakov": (run_sudakov,
                "supremum comparison via soft-max interpolation",
                "Sudakov-Fernique comparison"),
    "slepian": (run_slepian,
                "functional comparison under dominated Gamma matrices",
                "Slepian-type comparison"),
    "concentration": (run_concentration,
                      "joint tail against exp(-|x|^2 / 2|C|_op)",
                      "Gaussian-dominated concentration bound"),
    "perturbation": (run_perturbation,
                     "monotone perturbation of a Gaussian vector",
                     "Slepian-type comparison for perturbed vectors"),
    "fbm-sde": (run_fbm_sde,
                "fBm-driven SDE: squared-metric and supremum comparisons",
                "Sudakov-Fernique comparison for fBm SDEs"),
    "sk-free-energy": (run_sk_free_energy,
                       "exact SK free energy by Gray-code enumeration",
                       "SK partition function"),
    "sk-generic-bound": (run_sk_generic_bound,
                         "free-energy universality bound across media families",
                         "SK universality: interpolation bound"),
    "sk-gamma-bound": (run_sk_gamma_bound,
                       "Gamma bound for the centered free energy",
                       "SK universality: concentration step"),
    "sk-convergence": (run_sk_convergence,
                       "finite-size free-energy table across media families",
                       "SK universality: finite-size trends"),
}


def list_experiments() -> list[dict]:
    return [
        {"name": name, "description": desc, "theory": tag}
        for name, (_, desc, tag) in EXPERIMENTS.items()
    ]


def run(config: dict) -> dict:
    """Execute one experiment config; returns the report dictionary."""
    return _execute(*_settings(config))


def _settings(config: dict):
    """Validate a config; returns (command, params, seed, workers, cfg)."""
    command = config.get("command")
    if command not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ValueError(f"unknown command {command!r}; known commands: {known}")
    params = config.get("params", {})
    mehler = config.get("mehler", {})
    if not isinstance(params, dict) or not isinstance(mehler, dict):
        raise ValueError("params and mehler must be JSON objects")
    seed = int(config.get("seed", 0))
    workers = int(config.get("workers", default_workers()))
    cfg = MehlerConfig(
        quad_nodes=int(mehler.get("quad_nodes", 32)),
        mc_samples=int(mehler.get("mc_samples", 4096)),
        antithetic=bool(mehler.get("antithetic", True)),
        seed=int(mehler.get("seed", seed)),
    )
    return command, params, seed, workers, cfg


def _execute(command, params, seed, workers, cfg) -> dict:
    runner, _, _ = EXPERIMENTS[command]
    outcome = runner(params, seed, workers, cfg)
    rows, tables = outcome if isinstance(outcome, tuple) else (outcome, {})
    return {
        "schema": 1,
        "tables": tables,
        "config": {
            "command": command,
            "seed": seed,
            "workers": workers,
            "mehler": {
                "quad_nodes": cfg.quad_nodes,
                "mc_samples": cfg.mc_samples,
                "antithetic": cfg.antithetic,
                "seed": cfg.seed,
            },
            "params": params,
        },
        "version": __version__,
        "rows": [asdict(r) for r in rows],
        "all_passed": all(r.verdict for r in rows),
    }


def write_report(report: dict, out_dir: Path, fmt: str) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    name = report["config"]["command"]
    written = []
    if fmt in ("json", "both"):
        path = out_dir / f"{name}.json"
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        written.append(path)
    if fmt in ("csv", "both"):
        path = out_dir / f"{name}.csv"
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["name", "lhs", "rhs", "std_error", "verdict", "rule"])
            for row in report["rows"]:
                writer.writerow([
                    row["name"], repr(row["lhs"]), repr(row["rhs"]),
                    repr(row["std_error"]), "pass" if row["verdict"] else "fail",
                    row["rule"],
                ])
        written.append(path)
        for table_name, table in report.get("tables", {}).items():
            table_path = out_dir / f"{name}-{table_name}.csv"
            with table_path.open("w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(table["header"])
                writer.writerows(table["rows"])
            written.append(table_path)
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wienergamma",
        description="run a toolkit experiment from a JSON config")
    parser.add_argument("--config", type=Path, help="JSON experiment config")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--workers", type=int, help="override the worker count")
    parser.add_argument("--out", type=Path, default=Path("results"),
                        help="output directory (default: results)")
    parser.add_argument("--format", choices=("csv", "json", "both"),
                        default="both")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments and exit")
    args = parser.parse_args(argv)

    if args.list:
        for entry in list_experiments():
            print(f"{entry['name']:<18} {entry['description']} [{entry['theory']}]")
        return 0
    if args.config is None:
        parser.error("--config is required unless --list is given")

    started = time.monotonic()
    try:
        config = json.loads(args.config.read_text())
        if not isinstance(config, dict):
            raise ValueError("a config must be a JSON object")
        if args.seed is not None:
            config["seed"] = args.seed
        if args.workers is not None:
            config["workers"] = args.workers
        settings = _settings(config)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error in config {args.config}: {exc}", file=sys.stderr)
        return 2
    try:
        report = _execute(*settings)
    except (ValueError, FloatingPointError) as exc:
        # A parameter the runner rejects, or EvaluationOverflow in a user's
        # expression; any other exception is a bug and keeps its traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.monotonic() - started
    written = write_report(report, args.out, args.format)

    n_pass = sum(1 for r in report["rows"] if r["verdict"])
    print(f"{report['config']['command']}: {n_pass}/{len(report['rows'])} checks "
          f"passed in {elapsed:.1f}s")
    for path in written:
        print(f"wrote {path}")
    return 0 if report["all_passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
