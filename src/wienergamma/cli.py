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
import functools
import json
import math
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, NamedTuple

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
    expected_max,
    expected_value,
    perturbation_gamma,
    quadratic_function,
    sf_phi_prime,
    slepian_phi_prime,
)
from .core import (
    Functional,
    Hermite,
    Tanh,
    build_space,
    make_field,
    require_integer,
    sample,
    w,
)
from .engine import Estimate, difference
from .engine import MehlerConfig, gamma_pointwise, ibp_residual, mean_estimate, poincare_check
from .fbm import (
    NEG_TANH_DRIFT,
    TANH_DRIFT,
    ZERO_DRIFT,
    delta_fbm,
    euler_solve,
    fbm_sample,
    sup_comparison,
    uniform_grid,
)
from .grammar import parse_expression
from .parallel import block_bounds
from .sk import (
    Medium,
    TEST_MAPS,
    MediumFamily,
    convergence_experiment,
    free_energy_exact,
    free_energy_reference,
    gamma_f_bound_check,
    generic_bound_check,
    medium_batch,
    medium_sample,
    paired_chaos2_gap,
)

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


# Every 3-SE verdict comes from upper, lower or close, which compare two sides
# (see _sides).  Arrays make an aggregated check, whose row is then the entry
# with the least slack: that entry passes exactly when every entry does.

def _tightest(name, lhs, rhs, se, slack, rule) -> Row:
    lhs, rhs, se, slack = (np.ravel(a) for a in np.broadcast_arrays(lhs, rhs, se, slack))
    k = int(np.argmin(slack))
    return Row(name, float(lhs[k]), float(rhs[k]), float(se[k]),
               bool(slack[k] >= 0.0), rule)


def _sides(lhs, rhs):
    """The values of two sides and the standard error of their comparison.  A
    side is an Estimate or an exact value; the SE is the other side's when one
    is exact, else that of ``difference``.  A list of Estimates as ``lhs`` is
    stacked into one Estimate of arrays."""
    if isinstance(lhs, list):
        lhs = Estimate(np.array([e.value for e in lhs]), np.array([e.std_error for e in lhs]))
    if not isinstance(rhs, Estimate):
        return lhs.value, rhs, lhs.std_error
    if not isinstance(lhs, Estimate):
        return lhs, rhs.value, rhs.std_error
    return lhs.value, rhs.value, difference(lhs, rhs).std_error


def upper(name, lhs, rhs) -> Row:
    """Passes when lhs <= rhs + 3 SE."""
    lhs, rhs, se = _sides(lhs, rhs)
    return _tightest(name, lhs, rhs, se, rhs + 3.0 * se - lhs,
                     "pass when lhs <= rhs + 3 SE")


def lower(name, lhs, rhs, atol=0.0) -> Row:
    """Passes when lhs >= rhs - 3 SE - atol."""
    lhs, rhs, se = _sides(lhs, rhs)
    return _tightest(name, lhs, rhs, se, lhs - (rhs - 3.0 * se - atol),
                     "pass when lhs >= rhs - 3 SE" + (f" - {atol:g}" if atol else ""))


def close(name, lhs, rhs, rel=0.0) -> Row:
    """Passes when |lhs - rhs| <= max(rel |rhs|, 3 SE)."""
    lhs, rhs, se = _sides(lhs, rhs)
    slack = np.maximum(rel * np.abs(rhs), 3.0 * se) - np.abs(lhs - rhs)
    bound = f"max({rel:g} |rhs|, 3 SE)" if rel else "3 SE"
    return _tightest(name, lhs, rhs, se, slack, f"pass when |lhs - rhs| <= {bound}")


PHIS = {"id": (lambda x: x, lambda x: np.ones_like(x)),
        "square": (lambda x: x * x, lambda x: 2.0 * x),
        "tanh": (np.tanh, lambda x: 1.0 / np.cosh(x) ** 2)}


# ---------------------------------------------------------------------------
# Parameter tables: every config key is declared once, with its default
# ---------------------------------------------------------------------------

COUNT_MAX = 2**63 - 1  # the largest integer a key takes, unless its Param says more


class Param(NamedTuple):
    """A config key: its default and what else it takes.

    The default shows the kind unless ``kind`` names it ("text", "family" or
    "pair"): a bool, an integer (at most COUNT_MAX), a float, a string (one of
    ``choices``), a dict (merged later) or a tuple, for a list of one or more
    entries of its first entry's kind or of ``kind`` (or one string, for
    strings).  ``low`` and ``high`` bound a number or each number of a list.
    A ``shape`` (numbers, or names of earlier keys) makes it a float array.
    An integer also takes ``choices`` as is, and a None default takes null.
    A key with ``needs`` is accepted only when the key it names is given too.
    """

    default: object
    low: float | None = None
    high: float | None = None
    choices: tuple = ()
    needs: str | None = None
    kind: str | None = None
    shape: tuple = ()


def _param(spec) -> Param:
    return spec if isinstance(spec, Param) else Param(spec)


def _kind(spec: Param) -> str:
    return ("array" if spec.shape else "list" if isinstance(spec.default, tuple)
            else spec.kind or type(spec.default).__name__)


FAMILIES = {"iid-gaussian": {}, "correlated-gaussian": {"r": 3.0},
            "clt-chaos2": {"m": Param(1, low=1, choices=("N",))}}


def _parse(name: str, value, spec: Param):
    """``value`` as a runner takes it, or a ValueError naming the key."""
    kind = _kind(spec)
    if kind == "list" and isinstance(value, str) and spec.choices:
        value = [value]  # one name for a list of names
    listed = isinstance(value, (list, tuple))
    if kind == "list" and listed:
        entry = spec._replace(default=spec.default[0])
        return [_parse(f"{name} entry", v, entry) for v in value]
    if kind == "array" and listed and len(value) == spec.shape[0]:
        inner = Param(0.0, spec.low, spec.high, shape=spec.shape[1:])
        return np.array([_parse(f"{name} entry", v, inner) for v in value])
    if kind == "pair" and listed and len(value) == 2:
        s, t = (_parse(name, v, Param(0.0, 0.0, 1.0)) for v in value)
        if s <= t:
            return s, t
    if kind == "int":
        return value if value in spec.choices else require_integer(
            value, spec.low, name, COUNT_MAX if spec.high is None else spec.high)
    if (kind == "float" and isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max  # neither NaN, infinite nor a huge int
            and (spec.low is None or value >= spec.low)
            and (spec.high is None or value <= spec.high)):
        return float(value)
    if kind == "family":
        given = value if isinstance(value, dict) else {"kind": value}
        family = given.get("kind")
        if family in tuple(FAMILIES):
            return MediumFamily(**merge(f"{name} ({family})", given, {
                "kind": Param(family, choices=(family,)), **FAMILIES[family]}))
    if (kind == "bool" and isinstance(value, bool) or kind == "str" and value in spec.choices
            or kind == "text" and isinstance(value, str) or kind == "dict"):
        return value
    raise ValueError(f"{name} must be {_describe(spec)}, got {value!r}")


def _describe(spec: Param) -> str:
    """What a key takes, in words: for --list and for the error on a bad value."""
    kind = _kind(spec)
    bounds = " and".join(f" {op} {b:g}" for op, b in ((">=", spec.low), ("<=", spec.high))
                         if b is not None and b < math.inf)
    if kind == "list":
        return (f"a list of one or more entries, each "
                f"{_describe(spec._replace(default=spec.default[0]))}"
                + (", or one such name" if spec.choices else ""))
    if kind == "array":
        return (f"a list of one entry per field component ({spec.shape[0]}), each "
                + _describe(Param(0.0, spec.low, spec.high, shape=spec.shape[1:])))
    return {
        "bool": "true or false",
        "int": f"an integer{bounds}" + "".join(f" or {c}" for c in spec.choices),
        "float": f"a finite number{bounds}",
        "str": f"one of {', '.join(spec.choices)}",
        "text": "text",
        "pair": "an [s, t] pair with 0 <= s <= t <= 1",
        "family": f"a medium family, {', '.join(FAMILIES)}, or an object with its kind",
    }.get(kind, "a JSON object")


def merge(where: str, given, declared: dict) -> dict:
    """``given`` checked against ``declared`` (key -> default or Param) and
    parsed, a missing key as its default: the one check of a config's keys.
    An undeclared key, an empty list or a value that its Param does not take
    is a ValueError naming the key."""
    if not isinstance(given, dict):
        raise ValueError(f"{where} must be a JSON object")
    for key in given:
        if key not in declared:
            raise ValueError(f"{where} takes no key {key!r}; accepted keys: "
                             f"{', '.join(declared) or 'none'}")
        needs = _param(declared[key]).needs
        if needs and given.get(needs) is None:
            raise ValueError(f"{where} key {key!r} is used only with {needs!r}, "
                             "which is not given")
    merged = {}
    for key, spec in declared.items():
        spec = _param(spec)
        spec = spec._replace(shape=tuple(merged.get(n, n) for n in spec.shape))
        value = given.get(key, spec.default)
        if isinstance(spec.default, tuple) and isinstance(value, (list, tuple)) and not value:
            raise ValueError(f"{where} {{{key!r}: {value!r}}} holds no entry to check")
        merged[key] = (None if value is None and spec.default is None
                       else _parse(f"{where} key {key!r}", value, spec))
    return merged


class Experiment(NamedTuple):
    runner: Callable
    description: str
    theory: str
    params: dict  # key -> default or Param


EXPERIMENTS: dict[str, Experiment] = {}


def experiment(name: str, description: str, theory: str, **params):
    """Register a runner under ``name`` with its params and their defaults.

    The registered runner merges its params itself, so a direct call with
    partial params behaves as a config does.
    """
    def register(body):
        @functools.wraps(body)
        def runner(given, seed, workers, cfg):
            return body(merge("params", given, params), seed, workers, cfg)

        EXPERIMENTS[name] = Experiment(runner, description, theory, params)
        return runner
    return register


# ---------------------------------------------------------------------------
# Experiment runners: params dict -> list[Row]
# ---------------------------------------------------------------------------

@experiment("gamma", "Mehler-coupling Gamma estimates against the exact chaos oracle",
            "covariance operator via the Ornstein-Uhlenbeck semigroup",
            n_points=Param(20, low=1))
def run_gamma(params, seed, workers, cfg):
    """Mehler-engine estimates against the exact chaos oracle, per pair."""
    n_points = params["n_points"]
    space = build_space(4)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6A]))
    points = sample(space, rng, n_points)
    rows = []
    for name, f, g in oracle_suite(space):
        ests = [gamma_pointwise(f, g, points[k], cfg,
                                rng=np.random.default_rng(rng.integers(2**63)))
                for k in range(n_points)]
        rows.append(close(f"gamma/{name}", ests, gamma_oracle(f, g, points), rel=0.01))
    return rows


@experiment("ibp-check", "integration-by-parts residual E[phi(F)G] - E[phi'(F)Gamma]",
            "Gaussian integration by parts / chain rule",
            n_outer=Param(10_000, low=2), phi=Param(tuple(PHIS), choices=tuple(PHIS)),
            f_expr=Param(None, kind="text"), g_expr=Param(None, needs="f_expr", kind="text"),
            dim=Param(1, needs="f_expr"))
def run_ibp_check(params, seed, workers, cfg):
    """Integration-by-parts residuals over the chaos suite, or over the pair
    (f_expr, g_expr) when f_expr is set; g_expr defaults to f_expr."""
    phis = params["phi"]
    rows = []
    if params["f_expr"] is not None:
        dim = params["dim"]
        space = build_space(dim)
        g_expr = params["f_expr"] if params["g_expr"] is None else params["g_expr"]
        f = Functional(space, parse_expression(params["f_expr"], dim))
        g = Functional(space, parse_expression(g_expr, dim))
        pairs = [("custom", f, g)]
    else:
        pairs = oracle_suite(build_space(4))
    phi_pairs = [PHIS[phi_name] for phi_name in phis]
    for pair_index, (name, f, g) in enumerate(pairs):
        sides = ibp_residual(phi_pairs, f, g, params["n_outer"], cfg,
                             seed=seed + 131 * pair_index)
        for phi_name, (lhs, rhs) in zip(phis, sides):
            rows.append(close(f"ibp/{name}/{phi_name}", lhs, rhs))
    return rows


POINCARE_SUITE = (
    ("w0", 1),
    ("hermite(2, w0)", 1),
    ("hermite(3, w0)", 1),
    ("tanh(w0)", 1),
    ("w0 * w1", 2),
    ("hermite(2, w0) + w1", 2),
)


@experiment("poincare", "moment bound E|F|^p <= (p-1)^{p/2} E|Gamma|^{p/2}",
            "Poincare-type inequality",
            p=(2.0, 3.0, 4.0), n_outer=Param(20_000, low=2), expr=Param(None, kind="text"),
            dim=Param(1, needs="expr"))
def run_poincare(params, seed, workers, cfg):
    """Moment inequality E|F|^p <= (p-1)^{p/2} E|Gamma_{F,F}|^{p/2}, over the
    suite or over expr when it is set."""
    suite = POINCARE_SUITE if params["expr"] is None else [(params["expr"], params["dim"])]
    rows = []
    for fn_index, (text, dim) in enumerate(suite):
        space = build_space(max(dim, 2))
        f = Functional(space, parse_expression(text, space.dim))
        sides = poincare_check(f, params["p"], params["n_outer"], cfg,
                               seed=seed + 977 * fn_index)
        for p, (lhs, rhs) in zip(params["p"], sides):
            rows.append(upper(f"poincare/{text}/p={p:g}", lhs, rhs))
    return rows


@experiment("sudakov", "supremum comparison via soft-max interpolation",
            "Sudakov-Fernique comparison",
            d=5, sigma_f=1.0, sigma_g=1.5, betas=(1.0, 2.0, 4.0, 8.0, 16.0),
            n_outer=Param(4_000, low=2), n_sup=Param(100_000, low=2),
            t_points=Param(21, low=1))
def run_sudakov(params, seed, workers, cfg):
    """Supremum comparison for dominated Gaussian fields plus the
    independent-additive-noise baseline."""
    d, sigma_f, n_sup = params["d"], params["sigma_f"], params["n_sup"]
    betas, t_grid = params["betas"], default_t_grid(params["t_points"])
    pair = build_gaussian_pair(sigma_f**2 * np.eye(d), params["sigma_g"]**2 * np.eye(d))
    rows = []
    for bi, beta in enumerate(betas):
        for ti, t in enumerate(t_grid):
            est = sf_phi_prime(pair, float(t), beta, cfg, params["n_outer"],
                               seed=seed + 7919 * bi + 104729 * ti, workers=workers)
            rows.append(upper(f"sudakov/phi-prime/beta={beta:g}/t={t:.3f}", est, 0.0))
    e_f = expected_max(pair.f, n_sup, seed=seed + 1, workers=workers)
    e_g = expected_max(pair.g, n_sup, seed=seed + 2, workers=workers)
    rows.append(upper("sudakov/max-comparison", e_f, e_g))

    # Baseline: adding independent centered noise can only raise the expected max.
    space = build_space(2 * d)
    base = make_field(space, [sigma_f * w(i) for i in range(d)])
    noisy = make_field(space, [
        sigma_f * w(i) + 0.8 * Hermite(2, w(d + i)) for i in range(d)
    ])
    e_base = expected_max(base, n_sup, seed=seed + 11, workers=workers)
    e_noisy = expected_max(noisy, n_sup, seed=seed + 12, workers=workers)
    rows.append(upper("sudakov/additive-noise-baseline", e_base, e_noisy))
    return rows


@experiment("slepian", "functional comparison under dominated Gamma matrices",
            "Slepian-type comparison",
            d=2, n_outer=Param(4_000, low=2), n_value=Param(100_000, low=2),
            cov_g=Param(None, shape=("d", "d")), bump=Param(None, shape=("d",)),
            t_points=Param(11, low=1))
def run_slepian(params, seed, workers, cfg):
    """Functional comparison with a quadratic payoff under entrywise
    dominated Gamma matrices (Gaussian case).  cov_g defaults to unit
    variances with correlation 0.1, and bump to 0.8 / sqrt(d) per entry."""
    d, base, bump = params["d"], params["cov_g"], params["bump"]
    if base is None:
        base = np.eye(d) + 0.1 * np.ones((d, d)) - 0.1 * np.eye(d)
    if bump is None:
        bump = 0.8 * np.ones(d) / math.sqrt(d)
    pair = build_gaussian_pair(base + np.outer(bump, bump), base)
    fn = quadratic_function(np.ones((d, d)))
    rows = []
    for ti, t in enumerate(default_t_grid(params["t_points"])):
        est = slepian_phi_prime(pair, fn, float(t), cfg, params["n_outer"],
                                seed=seed + 31 * ti, workers=workers)
        rows.append(lower(f"slepian/phi-prime/t={t:.3f}", est, 0.0))
    e_f = expected_value(pair.f, fn, params["n_value"], seed=seed + 3, workers=workers)
    e_g = expected_value(pair.g, fn, params["n_value"], seed=seed + 4, workers=workers)
    rows.append(lower("slepian/functional-comparison", e_f, e_g))
    return rows


@experiment("concentration", "joint tail against exp(-|x|^2 / 2|C|_op)",
            "Gaussian-dominated concentration bound",
            case=Param("both", choices=("both", "scalar-gaussian", "chaos2")),
            n_outer=Param(1_000_000, low=2), x=2.0, x2=Param((1.5, 1.5), low=0.0, shape=(2,)),
            n_psd=Param(16, low=1))
def run_concentration(params, seed, workers, cfg):
    """Joint upper tail against the Gaussian-dominated exponential bound."""
    case = params["case"]
    cases = []  # (label, field, C, x, seed)
    if case in ("scalar-gaussian", "both"):
        cases.append(("scalar", make_field(build_space(1), [w(0)]), np.array([[1.0]]),
                      [params["x"]], seed))
    if case in ("chaos2", "both"):
        exprs = [w(0) + 0.1 * Hermite(2, w(2)), w(1) + 0.1 * Hermite(2, w(3))]
        cases.append(("chaos2", make_field(build_space(4), exprs), 3.0 * np.eye(2),
                      params["x2"], seed + 1))
    rows = []
    for label, fld, c_matrix, x, case_seed in cases:
        res = concentration_check(fld, c_matrix, x, params["n_outer"], cfg,
                                  n_psd=params["n_psd"], seed=case_seed, workers=workers)
        # The absolute floor keeps an exactly deterministic Gamma (SE 0) from
        # failing over a last-bit eigenvalue.
        rows += [lower(f"concentration/{label}/psd", res.psd, 0.0, atol=1e-12),
                 upper(f"concentration/{label}/tail", res.tail, res.bound)]
    return rows


@experiment("perturbation", "monotone perturbation of a Gaussian vector",
            "Slepian-type comparison for perturbed vectors",
            n_points=Param(5, low=1), n_value=Param(150_000, low=2),
            theta=Param((0.4, 0.4), shape=(2,)))
def run_perturbation(params, seed, workers, cfg):
    """Monotone perturbation of a Gaussian vector: Gamma dominates the base
    covariance entrywise and a payoff with nonnegative cross-derivatives
    increases in mean."""
    n_points, n_value = params["n_points"], params["n_value"]
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
    gammas = [Estimate(*perturbation_gamma(f_field, pts[k], cfg, seed=seed + k))
              for k in range(n_points)]
    rows = [lower("perturbation/gamma-dominates-covariance", gammas, base, atol=1e-9)]

    psi = exp_linear_function(params["theta"])
    # Drawn and evaluated in blocks of one stream, so the values are those of
    # one draw of n_value points.
    value_rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA0]))
    f_values, g_values = np.empty(n_value), np.empty(n_value)
    for start, stop in block_bounds(n_value):
        eval_pts = sample(space, value_rng, stop - start)
        f_values[start:stop] = psi.fun(f_field.eval_all(eval_pts))
        g_values[start:stop] = psi.fun(g_field.eval_all(eval_pts))
    rows.append(lower("perturbation/payoff-comparison", mean_estimate([f_values]),
                      mean_estimate([g_values])))
    return rows


@experiment("fbm-sde", "fBm-driven SDE: squared-metric and supremum comparisons",
            "Sudakov-Fernique comparison for fBm SDEs",
            hurst=0.7, m=128, horizon=1.0, n_paths=Param(100_000, low=2),
            n_outer=Param(400, low=2), dump_paths=Param(0, low=0),
            delta_pairs=Param(([0.0, 1.0], [0.125, 0.375], [0.25, 0.75], [0.5, 0.625],
                               [0.25, 1.0]), kind="pair"))
def run_fbm_sde(params, seed, workers, cfg):
    """Supremum and squared-metric checks for the fBm-driven SDE."""
    m, n_paths, n_dump = params["m"], params["n_paths"], params["dump_paths"]
    pairs = params["delta_pairs"]
    grid = uniform_grid(params["hurst"], params["horizon"], m)
    rows = []
    tables = {}

    if n_dump > 0:
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

    def delta_pair(frac_s, frac_t):
        """Grid indices of s and t, and |t - s|^{2H}: the squared canonical
        metric of the driving noise."""
        s_idx, t_idx = int(round(frac_s * m)), int(round(frac_t * m))
        gap = abs(grid.times[t_idx] - grid.times[s_idx])
        return s_idx, t_idx, float(gap ** (2.0 * grid.hurst))

    driftless = [delta_pair(frac_s, frac_t) for frac_s, frac_t in pairs]
    ests = delta_fbm(grid, ZERO_DRIFT, [pair[:2] for pair in driftless], cfg=cfg,
                     n_outer=8, seed=seed, workers=1)
    for (frac_s, frac_t), (_, _, reference), est in zip(pairs, driftless, ests):
        rows.append(close(f"fbm/delta-driftless/s={frac_s:g},t={frac_t:g}",
                          est, reference, rel=0.02))

    # One call per pair: bench/test_bench.py pins their traced Euler work.
    for frac_s, frac_t in ((0.125, 0.625), (0.0, 1.0)):
        s_idx, t_idx, reference = delta_pair(frac_s, frac_t)
        [est] = delta_fbm(grid, TANH_DRIFT, [(s_idx, t_idx)], cfg=cfg,
                          n_outer=params["n_outer"], seed=seed + 3, workers=workers)
        rows.append(lower(f"fbm/delta-increasing-drift/s={frac_s:g},t={frac_t:g}",
                          est, reference))

    for name, drift, check, salt in (
            ("fbm/sup-increasing-drift", TANH_DRIFT, lower, 5),
            ("fbm/sup-decreasing-drift", NEG_TANH_DRIFT, upper, 6)):
        sde, driving = sup_comparison(grid, drift, n_paths=n_paths, seed=seed + salt,
                                      workers=workers)
        rows.append(check(name, sde, driving))
    return (rows, tables) if tables else rows


@experiment("sk-free-energy", "exact SK free energy by Gray-code enumeration",
            "SK partition function",
            n=Param(8, low=1), beta=1.0, family=Param("iid-gaussian", kind="family"),
            check_reference=False,
            dump_medium=False)
def run_sk_free_energy(params, seed, workers, cfg):
    """Exact SK free energy for one sampled medium."""
    n, beta = params["n"], params["beta"]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5C]))
    medium = medium_sample(params["family"], n, rng)
    res = free_energy_exact(medium.coupling, beta)
    rows = [Row(f"sk/free-energy/N={n}/beta={beta:g}", res.value, res.value,
                0.0, True, RULE_REPORT)]
    if n == 2:
        closed = 0.5 * math.log(math.cosh(beta * medium.coupling[1, 0]))
        rows.append(Row("sk/free-energy/two-spin-closed-form", res.value,
                        closed, 0.0, abs(res.value - closed) <= 1e-12,
                        "pass when |value - closed form| <= 1e-12"))
    if params["check_reference"] and n <= 10:
        ref = free_energy_reference(medium.coupling, beta)
        rows.append(Row("sk/free-energy/gray-vs-reference", res.value,
                        ref.value, 0.0, res.value == ref.value,
                        "pass when bit-identical"))
    if params["dump_medium"]:
        header = ["row"] + [f"j={j}" for j in range(n)]
        table_rows = [[i] + [repr(float(x)) for x in medium.coupling[i]]
                      for i in range(n)]
        return rows, {"medium": {"header": header, "rows": table_rows}}
    return rows


@experiment("sk-generic-bound", "free-energy universality bound across media families",
            "SK universality: interpolation bound",
            ns=Param((8, 12, 16), low=2), beta=1.0, n_media=Param(200, low=2),
            f=Param("tanh", choices=tuple(TEST_MAPS)),
            families=Param(({"kind": "clt-chaos2", "m": 1}, {"kind": "clt-chaos2", "m": "N"},
                            {"kind": "correlated-gaussian", "r": 3.0}), kind="family"),
            gap_media=Param(4_000, low=2))
def run_sk_generic_bound(params, seed, workers, cfg):
    """Free-energy comparison bound cells over families and sizes, plus the
    paired-gap ladder for the size-scaled chaos family."""
    ns, beta = params["ns"], params["beta"]
    rows = []
    for family in params["families"]:
        for n in ns:
            lhs, rhs = generic_bound_check(family, n, beta, f_name=params["f"],
                                           n_media=params["n_media"], seed=seed)
            rows.append(upper(f"sk/generic-bound/{family.label(n)}/N={n}", lhs, rhs))
    gaps = []
    for n in ns:
        gap = paired_chaos2_gap(n, beta, n_media=params["gap_media"], seed=seed)
        gaps.append(abs(gap.value))
        rows.append(Row(f"sk/paired-gap/N={n}", gap.value, 0.0, gap.std_error,
                        True, RULE_REPORT))
    decreasing = all(gaps[i] > gaps[i + 1] for i in range(len(gaps) - 1))
    rows.append(Row("sk/gap-monotone-decreasing", gaps[0], gaps[-1], 0.0,
                    decreasing, "pass when |gap| decreases along the ladder"))
    return rows


@experiment("sk-gamma-bound", "Gamma bound for the centered free energy",
            "SK universality: concentration step",
            n=Param(12, low=1), betas=(0.5, 1.0), n_media=Param(50, low=1),
            families=Param(("iid-gaussian", {"kind": "clt-chaos2", "m": 1},
                            {"kind": "clt-chaos2", "m": 4},
                            {"kind": "correlated-gaussian", "r": 3.0}), kind="family"))
def run_sk_gamma_bound(params, seed, workers, cfg):
    """Gamma bound for the centered free energy, per sampled medium; a row
    shows the medium with the least slack."""
    n = params["n"]
    rows = []
    for family in params["families"]:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6B]))
        media = [Medium(n, coupling, gamma_diag) for coupling, gamma_diag
                 in zip(*medium_batch(family, n, rng, params["n_media"]))]
        for beta in params["betas"]:
            bounds = [gamma_f_bound_check(medium, beta) for medium in media]
            lhs = np.array([b.lhs for b in bounds])
            rhs = np.array([b.rhs for b in bounds])
            # The relative and absolute floors absorb rounding in an exact bound.
            rows.append(_tightest(f"sk/gamma-bound/{family.label(n)}/beta={beta:g}",
                                  lhs, rhs, 0.0, rhs * (1.0 + 1e-12) + 1e-300 - lhs,
                                  "pass when lhs <= rhs (1 + 1e-12) + 1e-300"))
    return rows


@experiment("sk-convergence", "finite-size free-energy table across media families",
            "SK universality: finite-size trends",
            ns=Param((8, 12, 16), low=1), beta=1.0, n_media=Param(200, low=2),
            families=Param(({"kind": "clt-chaos2", "m": "N"},
                            {"kind": "correlated-gaussian", "r": 3.0}), kind="family"))
def run_sk_convergence(params, seed, workers, cfg):
    """Free-energy table across families and sizes with gaps to the star law."""
    rows = []
    for row in convergence_experiment(params["families"], params["beta"], params["ns"],
                                      params["n_media"], seed=seed):
        rows.append(Row(
            f"sk/convergence/{row.family_label}/N={row.n}", row.mean,
            row.gap_to_star, row.std_error, True, RULE_REPORT))
    return rows


def list_experiments() -> list[dict]:
    return [
        {"name": name, "description": e.description, "theory": e.theory,
         "params": {key: _param(spec).default for key, spec in e.params.items()}}
        for name, e in EXPERIMENTS.items()
    ]


def run(config: dict) -> dict:
    """Execute one experiment config; returns the report dictionary."""
    return _execute(*_settings(config))


SEED = Param(0, low=0, high=math.inf)  # SeedSequence takes any nonnegative integer
CONFIG = {"command": Param(None, kind="text"), "seed": SEED, "workers": Param(1, low=1),
          "mehler": {}, "params": {}}


MEHLER = {**asdict(MehlerConfig()), "seed": SEED}


def _settings(config: dict):
    """Validate a config; returns (command, params, seed, workers, cfg)."""
    top = merge("config", config, CONFIG)
    command = top["command"]
    if command not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ValueError(f"unknown command {command!r}; known commands: {known}")
    merge("params", top["params"], EXPERIMENTS[command].params)
    cfg = MehlerConfig(**merge("mehler", top["mehler"],
                               {**MEHLER, "seed": SEED._replace(default=top["seed"])}))
    return command, top["params"], top["seed"], top["workers"], cfg


def _execute(command, params, seed, workers, cfg) -> dict:
    outcome = EXPERIMENTS[command].runner(params, seed, workers, cfg)
    rows, tables = outcome if isinstance(outcome, tuple) else (outcome, {})
    if not rows:
        raise ValueError(f"{command} has no checks to run for params {params}")
    return {
        "schema": 1,
        "tables": tables,
        "config": {
            "command": command,
            "seed": seed,
            "workers": workers,
            "mehler": asdict(cfg),
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
                        help="list experiments with each param's default and bound, and exit")
    args = parser.parse_args(argv)

    if args.list:
        for title, declared in [*((f"{name}: {e.description} [{e.theory}]", e.params)
                                  for name, e in EXPERIMENTS.items()),
                                ("config:", {"seed": SEED, "workers": CONFIG["workers"]}),
                                ("mehler (seed defaults to the run seed):", MEHLER)]:
            print(title)
            for key, spec in declared.items():
                spec = _param(spec)
                print(f"    {key}={json.dumps(spec.default)}  {_describe(spec)}"
                      + (f"; only with {spec.needs}" if spec.needs else ""))
        print(f"Every integer but a seed is at most {COUNT_MAX}.")
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
    except (ValueError, FloatingPointError, MemoryError) as exc:
        # A parameter the runner rejects, EvaluationOverflow in a user's
        # expression, or an allocation too large for this machine; any other
        # exception is a bug and keeps its traceback.
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
