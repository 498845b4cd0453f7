"""Smart-path comparison experiments: suprema, functionals, concentration.

Two random fields under comparison are always embedded on one space with
disjoint coordinate blocks, which enforces the cross-orthogonality the
interpolation arguments need (the Gamma coupling between an F component and a
G component vanishes identically).  Both comparisons differentiate
t -> E f(sqrt(1-t) G + sqrt(t) F) by one estimator of
(1/2) E<Hess f, Gamma^F - Gamma^G>: the functional comparison for a given f,
the supremum comparison for the soft-max, whose Hessian beta (diag h - h h')
turns it into the Sudakov-Fernique derivative.  Verdicts always report both
sides with their Monte Carlo standard errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Constant,
    Coordinate,
    Expression,
    Functional,
    Product,
    RandomField,
    Sum,
    WienerSpaceError,
    build_space,
    make_field,
    sample,
)
from .engine import (
    Estimate,
    MehlerConfig,
    gamma_pointwise,
    mean_estimate,
    minus_dl_gradient_estimates,
)
from .parallel import block_bounds, run_chunked


class BlockOverlapError(ValueError):
    """The two fields of a comparison share coordinates."""


def default_t_grid(n_points: int = 21) -> np.ndarray:
    """Interpolation grid kept away from the 1/sqrt(t), 1/sqrt(1-t) endpoints."""
    return np.linspace(0.025, 0.975, n_points)


# ---------------------------------------------------------------------------
# Field pairs on disjoint blocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldPair:
    """Fields F and G of equal size sharing one space on disjoint blocks."""

    f: RandomField
    g: RandomField

    def __post_init__(self):
        if self.f.space is not self.g.space:
            raise WienerSpaceError("F and G must live on the same space")
        if self.f.dim != self.g.dim:
            raise ValueError("F and G must have the same number of components")
        overlap = self.f.coordinates() & self.g.coordinates()
        if overlap:
            raise BlockOverlapError(
                f"F and G share coordinates {sorted(overlap)}; embed them on "
                "disjoint blocks")

    @property
    def space(self):
        return self.f.space

    @property
    def dim(self) -> int:
        return self.f.dim


def _linear_expr(row: np.ndarray, offset: int) -> Expression:
    children = [
        Product((Constant(float(c)), Coordinate(offset + a)))
        for a, c in enumerate(row)
        if c != 0.0
    ]
    if not children:
        return Constant(0.0)
    return children[0] if len(children) == 1 else Sum(tuple(children))


def build_gaussian_pair(cov_f: np.ndarray, cov_g: np.ndarray) -> FieldPair:
    """Centered Gaussian fields with the given covariances, on disjoint blocks."""
    cov_f = np.asarray(cov_f, dtype=float)
    cov_g = np.asarray(cov_g, dtype=float)
    d = cov_f.shape[0]
    if cov_g.shape[0] != d:
        raise ValueError("covariance matrices must have equal size")
    lf = np.linalg.cholesky(cov_f)
    lg = np.linalg.cholesky(cov_g)
    space = build_space(2 * d)
    f = make_field(space, [_linear_expr(lf[i], 0) for i in range(d)])
    g = make_field(space, [_linear_expr(lg[i], d) for i in range(d)])
    return FieldPair(f, g)


# ---------------------------------------------------------------------------
# C^2 maps with exact Hessians
# ---------------------------------------------------------------------------

SYMMETRY_TOL = 1e-10  # largest |H_ij - H_ji| accepted from a Hessian evaluator


@dataclass(frozen=True)
class HessianFunction:
    """A C^2 map together with its exact Hessian evaluator."""

    name: str
    fun: object   # callable (..., d) -> (...)
    hessian: object  # callable (..., d) -> (..., d, d)

    def check_symmetry(self, hess: np.ndarray):
        """Reject Hessian values (..., d, d) asymmetric beyond SYMMETRY_TOL."""
        gap = np.max(np.abs(hess - np.swapaxes(hess, -1, -2)))
        if gap > SYMMETRY_TOL:
            raise ValueError(f"hessian of {self.name} is asymmetric by {gap:.3e}")


def softmax_function(beta: float) -> HessianFunction:
    """The soft-max sup F(x) = (1/beta) log sum_i exp(beta x_i), between max(x)
    and max(x) + log(d)/beta.  Its Hessian is beta (diag h - h h'), where the
    gradient h holds the soft-max weights."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")

    def fun(x):
        x = np.asarray(x, dtype=float)
        m = np.max(x, axis=-1)
        return m + np.log(np.sum(np.exp(beta * (x - m[..., None])), axis=-1)) / beta

    def hessian(x):
        s = beta * np.asarray(x, dtype=float)
        s -= np.max(s, axis=-1, keepdims=True)
        e = np.exp(s)
        h = e / np.sum(e, axis=-1, keepdims=True)
        hess = np.einsum("...i,...j->...ij", h, h)
        hess *= -beta
        diag = np.arange(h.shape[-1])
        hess[..., diag, diag] += beta * h
        return hess

    return HessianFunction("softmax", fun, hessian)


def quadratic_function(a: np.ndarray, name: str = "quadratic") -> HessianFunction:
    """f(x) = x' A x / 2 with constant Hessian A (A symmetrized)."""
    a = 0.5 * (np.asarray(a, dtype=float) + np.asarray(a, dtype=float).T)

    def fun(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * np.einsum("...i,ij,...j->...", x, a, x)

    def hessian(x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(a, x.shape[:-1] + a.shape).copy()

    return HessianFunction(name, fun, hessian)


def exp_linear_function(theta: np.ndarray, name: str = "exp-linear") -> HessianFunction:
    """f(x) = exp(<theta, x>); all second derivatives share the sign pattern
    theta_i theta_j, so nonnegative theta gives nonnegative cross-derivatives."""
    theta = np.asarray(theta, dtype=float)

    def fun(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):
            return np.exp(x @ theta)

    def hessian(x):
        vals = fun(x)
        outer = theta[:, None] * theta[None, :]
        return vals[..., None, None] * outer

    return HessianFunction(name, fun, hessian)


# ---------------------------------------------------------------------------
# Smart-path derivatives: Sudakov-Fernique and Slepian types
# ---------------------------------------------------------------------------

def _gamma_matrices_at(fld: RandomField, pts: np.ndarray, cfg: MehlerConfig,
                       rng: np.random.Generator) -> np.ndarray:
    """Per-point Gamma matrices (B, d, d); entry (i, j) couples DF_j with the
    -D L^{-1} estimate for F_i.  For all-affine fields Gamma is exact and the
    same at every point, and the one (d, d) matrix is returned."""
    const = fld.constant_gradients()
    if const is not None:
        return const @ const.T
    base = np.stack([c.gradient(pts) for c in fld.components])  # (d, B, n)
    est = minus_dl_gradient_estimates(fld.components, pts, cfg, rng)
    return np.einsum("jbn,ibn->bij", base, est)


def _phi_prime(pair: FieldPair, fn: HessianFunction, t: float, cfg: MehlerConfig,
               n_outer: int, seed: int, workers: int, label: int) -> Estimate:
    """The body of both phi' estimators (see ``slepian_phi_prime``); ``label``
    keys the outer-point streams of ``run_chunked``."""

    def job(chunk, rng):
        pts = sample(pair.space, rng, chunk)
        interp = math.sqrt(1.0 - t) * pair.g.eval_all(pts) + math.sqrt(t) * pair.f.eval_all(pts)
        hess = fn.hessian(interp)  # (B, d, d)
        fn.check_symmetry(hess[:8])
        gamma_f = _gamma_matrices_at(pair.f, pts, cfg, rng)
        gamma_g = _gamma_matrices_at(pair.g, pts, cfg, rng)
        diff = gamma_f - gamma_g  # (d, d) when both fields are all-affine
        return 0.5 * np.einsum("bij,bij->b" if diff.ndim == 3 else "bij,ij->b", hess, diff)

    return mean_estimate(run_chunked(n_outer, workers, seed, label, job))


def sf_phi_prime(pair: FieldPair, t: float, beta: float, cfg: MehlerConfig,
                 n_outer: int, seed: int = 0, workers: int = 1) -> Estimate:
    """Derivative of the soft-max interpolation at t:

        phi'(t) = (beta/4) sum_{i,j} E[h_i h_j (Delta_F(i,j) - Delta_G(i,j))],

    h the soft-max weights and Delta(i, j) = Gamma_ii + Gamma_jj - Gamma_ij -
    Gamma_ji.  As sum_i h_i = 1, the summand equals (1/2) <beta (diag h - h h'),
    Gamma^F - Gamma^G> point by point: the Slepian derivative of the soft-max.
    """
    if not 0.0 < t < 1.0:
        raise ValueError(f"t must lie in (0, 1), got {t}")
    return _phi_prime(pair, softmax_function(beta), t, cfg, n_outer, seed, workers, 0x5F1)


def slepian_phi_prime(pair: FieldPair, fn: HessianFunction, t: float,
                      cfg: MehlerConfig, n_outer: int, seed: int = 0,
                      workers: int = 1) -> Estimate:
    """Derivative of t -> E f(sqrt(1-t) G + sqrt(t) F):

        phi'(t) = (1/2) sum_{i,j} E[ d2f/dx_i dx_j (interp) (Gamma^F_ij - Gamma^G_ij) ].
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    return _phi_prime(pair, fn, t, cfg, n_outer, seed, workers, 0x51E)


def _field_mean(fld: RandomField, fn, n_samples: int, seed: int, workers: int,
                label: int) -> Estimate:
    """E[fn(field)] by plain Monte Carlo; ``fn`` maps field values (B, d) to
    (B,) row by row, and ``label`` keys the streams of ``run_chunked``.

    Each chunk is drawn and evaluated in the blocks of
    ``parallel.block_bounds``, into one array of the chunk's values, so the
    numbers are those of drawing and evaluating the chunk at once."""

    def job(chunk, rng):
        values = np.empty(chunk)
        for start, stop in block_bounds(chunk):
            values[start:stop] = fn(fld.eval_all(sample(fld.space, rng, stop - start)))
        return values

    return mean_estimate(run_chunked(n_samples, workers, seed, label, job))


def expected_max(fld: RandomField, n_samples: int, seed: int = 0,
                 workers: int = 1) -> Estimate:
    """E[max_i field_i] by plain Monte Carlo."""
    return _field_mean(fld, lambda v: np.max(v, axis=-1), n_samples, seed, workers, 0xE3A)


def expected_value(fld: RandomField, fn: HessianFunction, n_samples: int,
                   seed: int = 0, workers: int = 1) -> Estimate:
    """E[f(field)] by plain Monte Carlo."""
    return _field_mean(fld, fn.fun, n_samples, seed, workers, 0x5E2)


# ---------------------------------------------------------------------------
# Concentration bound
# ---------------------------------------------------------------------------

def operator_norm(c: np.ndarray) -> float:
    """Largest |eigenvalue| of a symmetric matrix."""
    c = np.asarray(c, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError("operator_norm expects a square matrix")
    if np.max(np.abs(c - c.T)) > 1e-10:
        raise ValueError("operator_norm expects a symmetric matrix")
    return float(np.max(np.abs(np.linalg.eigvalsh(c))))


def _gamma_matrix(fld: RandomField, omega: np.ndarray, cfg: MehlerConfig,
                  rng: np.random.Generator):
    """Entry (i, j) estimates Gamma_{F_i, F_j} at omega from its own stream,
    drawn from ``rng`` in (i, j) order; returns (values, std_errors)."""
    d = fld.dim
    values = np.zeros((d, d))
    errors = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            est = gamma_pointwise(fld.components[j], fld.components[i], omega, cfg,
                                  rng=np.random.default_rng(rng.integers(2**63)))
            values[i, j] = est.value
            errors[i, j] = est.std_error
    return values, errors


def gamma_matrix_pointwise(fld: RandomField, omega: np.ndarray, cfg: MehlerConfig,
                           rng: np.random.Generator):
    """Gamma matrix estimate at one point with entrywise standard errors."""
    return _gamma_matrix(fld, omega, cfg, rng)


@dataclass(frozen=True)
class ConcentrationResult:
    psd: Estimate   # most negative eigenvalue of C - Gamma seen, largest Gamma SE there
    tail: Estimate
    bound: float


def concentration_check(fld: RandomField, c_matrix: np.ndarray, x: np.ndarray,
                        n_outer: int, cfg: MehlerConfig, n_psd: int = 32,
                        seed: int = 0, workers: int = 1) -> ConcentrationResult:
    """Empirical joint upper tail against exp(-|x|^2 / (2 |C|_op)).

    The bound requires C - Gamma to be nonnegative definite; the result
    carries the smallest eigenvalue of C - Gamma over n_psd sampled points and
    the largest Gamma standard error there, for a 3-SE verdict.
    """
    c_matrix = np.asarray(c_matrix, dtype=float)
    x = np.asarray(x, dtype=float)
    if x.shape != (fld.dim,):
        raise ValueError(f"threshold vector x must have one entry per field "
                         f"component ({fld.dim}), got shape {x.shape}")
    if np.any(x < 0):
        raise ValueError("threshold vector x must be nonnegative")

    psd_rng = np.random.default_rng(np.random.SeedSequence([seed, 0xAB]))
    pts = sample(fld.space, psd_rng, n_psd)
    margin = math.inf
    max_se = 0.0
    for k in range(n_psd):
        gamma, errors = gamma_matrix_pointwise(fld, pts[k], cfg, psd_rng)
        gamma = 0.5 * (gamma + gamma.T)
        eigmin = float(np.linalg.eigvalsh(c_matrix - gamma)[0])
        margin = min(margin, eigmin)
        max_se = max(max_se, float(errors.max()))

    bound = math.exp(-float(x @ x) / (2.0 * operator_norm(c_matrix)))
    tail = _field_mean(fld, lambda v: np.all(v >= x, axis=-1).astype(float), n_outer,
                       seed, workers, 0xC02)
    return ConcentrationResult(Estimate(margin, max_se), tail, bound)


# ---------------------------------------------------------------------------
# Perturbation of a Gaussian vector
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerturbationSpec:
    """Ingredients for perturbing a Gaussian vector on Wiener space.

    * ``g_rows[i]``: whitened-coordinate vector of the Gaussian component G_i,
      so Cov(G_i, G_j) = <g_i, g_j>.
    * ``f_rows[i][k]``: vectors feeding the i-th perturbation; all inner
      products <f_ik, g_j> and <f_ik, f_jl> must be nonnegative.
    * ``phi_builders[i]``: maps a list of argument Expressions to the
      expression Phi_i(args); each Phi_i must be increasing in every argument.
    """

    g_rows: np.ndarray
    f_rows: tuple
    phi_builders: tuple


def validate_perturbation(spec: PerturbationSpec):
    g = np.asarray(spec.g_rows, dtype=float)
    flat = [(i, k, np.asarray(fv, dtype=float))
            for i, group in enumerate(spec.f_rows) for k, fv in enumerate(group)]
    for i, k, fv in flat:
        dots = g @ fv
        if np.any(dots < 0):
            j = int(np.argmin(dots))
            raise ValueError(
                f"<f[{i}][{k}], g[{j}]> = {dots[j]:.4g} < 0 violates the sign condition")
    for a in range(len(flat)):
        for b in range(a, len(flat)):
            i, k, fa = flat[a]
            j, l, fb = flat[b]
            dot = float(fa @ fb)
            if dot < 0:
                raise ValueError(
                    f"<f[{i}][{k}], f[{j}][{l}]> = {dot:.4g} < 0 violates the sign condition")


def build_perturbed_pair(spec: PerturbationSpec, rng: np.random.Generator,
                         n_center: int = 200_000):
    """Return (field F, field G, space).  F_i = G_i + centered Phi_i(I1(f_ik));
    the perturbations are centered by Monte Carlo so both fields have mean zero.
    """
    validate_perturbation(spec)
    check_phi_monotone(spec, rng)
    g = np.asarray(spec.g_rows, dtype=float)
    d, n = g.shape
    space = build_space(n)

    f_exprs = []
    for i in range(d):
        args = [_linear_expr(np.asarray(fv, dtype=float), 0) for fv in spec.f_rows[i]]
        phi_expr = spec.phi_builders[i](args)
        expr = Sum((_linear_expr(g[i], 0), phi_expr))
        shift = float(np.mean(phi_expr.value(sample(space, rng, n_center))))
        f_exprs.append(Functional(space, expr, mean_shift=shift))
    f_field = RandomField(space, tuple(f_exprs))
    g_field = make_field(space, [_linear_expr(g[i], 0) for i in range(d)])
    return f_field, g_field, space


def check_phi_monotone(spec: PerturbationSpec, rng: np.random.Generator,
                       n_points: int = 2_000):
    """Verify d Phi_i / d x_k >= 0 at sampled argument points."""
    g = np.asarray(spec.g_rows, dtype=float)
    n = g.shape[1]
    for i, group in enumerate(spec.f_rows):
        n_args = len(group)
        if n_args == 0:
            continue
        phi_expr = spec.phi_builders[i]([Coordinate(k) for k in range(n_args)])
        xi = np.random.default_rng(rng.integers(2**63)).standard_normal((n_points, n))
        args = np.stack([xi @ np.asarray(fv, dtype=float) for fv in group], axis=-1)
        _, grads = phi_expr.value_and_gradient(args)
        worst = float(np.min(grads))
        if worst < -1e-12:
            raise ValueError(
                f"Phi[{i}] has a negative partial derivative ({worst:.4g}) at a "
                "sampled point")


def perturbation_gamma(f_field: RandomField, omega: np.ndarray, cfg: MehlerConfig,
                       seed: int = 0):
    """Sampled Gamma matrix of the perturbed field at one point.

    Entry (i, j) estimates Gamma_{F_i, F_j}; returns (values, std_errors).
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9E4]))
    return _gamma_matrix(f_field, omega, cfg, rng)
