"""Monte Carlo / quadrature estimation of the covariance operator Gamma.

For functionals F, G on one space, Gamma_{F,G}(x) = <DF(x), -D L^{-1} G(x)>.
The pseudo-inverse side is realized through the Mehler coupling: with
u = e^{-z} the semigroup integral over z in [0, inf) becomes

    Gamma_{F,G}(x) = int_0^1 E_hat[ <DF(x), DG(u x + sqrt(1-u^2) x_hat)> ] du,

with x_hat an independent standard normal copy.  The u-integral is
Gauss-Legendre; the inner expectation is Monte Carlo (optionally antithetic).

``mehler_integral`` is the single u-quadrature: it sums ``term`` over the
Mehler-shifted inner copies, and ``inner_normals`` draws those copies.  Its
four callers differ only in ``term``: ``gamma_pointwise``,
``coupled_gamma_values``, ``minus_dl_gradient_estimates`` and
``fbm.delta_fbm``.

Rows that share a seed -- several phi in ``ibp_residual``, several p in
``poincare_check``, several (s, t) in ``fbm.delta_fbm`` -- share one Mehler
pass.  That is bit-identical to one call per row: the seed draws the same
points and copies, and each row's arithmetic on them is unchanged.

Monte Carlo estimators return an ``Estimate`` (a mean and its standard
error) or an (lhs, rhs) pair of them, and ``mean_estimate`` is the one fold
from sample batches to an Estimate.

Two sampling regimes share this representation:

* pointwise: one base point, ``mc_samples`` inner copies (``gamma_pointwise``);
* in expectation: many outer points, a few inner copies each, for quantities
  like E[Phi'(F) Gamma_{F,G}].  The ``mc_samples`` budget is spread across the
  outer points (at least one inner copy per point), which keeps estimators
  unbiased while the standard error is measured over outer points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Functional, functional_difference, sample


class CenteringError(ValueError):
    """A functional that must be centered has a mean inconsistent with zero."""


@dataclass(frozen=True)
class MehlerConfig:
    """Discretization knobs for the Mehler representation."""

    quad_nodes: int = 32
    mc_samples: int = 4096
    antithetic: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.quad_nodes < 2:
            raise ValueError(f"quad_nodes must be >= 2, got {self.quad_nodes}")
        if self.mc_samples < 2:
            raise ValueError(f"mc_samples must be >= 2, got {self.mc_samples}")


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo mean and its standard error."""

    value: float
    std_error: float


class RunningMoments:
    """Streaming mean/variance over batches (Chan's merge)."""

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0

    def add_batch(self, values: np.ndarray):
        values = np.asarray(values, dtype=float).ravel()
        n = values.size
        if n == 0:
            return
        batch_mean = float(np.mean(values))
        batch_m2 = float(np.sum((values - batch_mean) ** 2))
        if self.count == 0:
            self.count, self.mean, self._m2 = n, batch_mean, batch_m2
            return
        total = self.count + n
        delta = batch_mean - self.mean
        self._m2 += batch_m2 + delta * delta * self.count * n / total
        self.mean += delta * n / total
        self.count = total

    @property
    def variance(self) -> float:
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def std_error(self) -> float:
        if self.count < 1:
            return 0.0
        return math.sqrt(self.variance / self.count)


def mean_estimate(batches) -> Estimate:
    """Mean and standard error of the samples in ``batches``, merged in order."""
    acc = RunningMoments()
    for batch in batches:
        acc.add_batch(batch)
    return Estimate(acc.mean, acc.std_error)


def gauss_legendre_unit(n_nodes: int):
    """Gauss-Legendre nodes and weights on [0, 1]; weights renormalized to sum 1."""
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    nodes = 0.5 * (x + 1.0)
    weights = 0.5 * w
    return nodes, weights / weights.sum()


def mehler_shift(omega: np.ndarray, omega_hat: np.ndarray, u: float) -> np.ndarray:
    """The Ornstein-Uhlenbeck coupling u*omega + sqrt(1-u^2)*omega_hat."""
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"u must lie in [0, 1], got {u}")
    omega = np.asarray(omega, dtype=float)
    omega_hat = np.asarray(omega_hat, dtype=float)
    return u * omega + math.sqrt(1.0 - u * u) * omega_hat


def inner_normals(rng: np.random.Generator, lead: tuple, per: int, dim: int,
                  antithetic: bool) -> np.ndarray:
    """Inner copies of shape lead + (per, dim); antithetic pairs are stacked
    on axis -2 as (+z, -z), so ``per`` rounds down to an even count."""
    if antithetic:
        z = rng.standard_normal(lead + (per // 2, dim))
        return np.concatenate([z, -z], axis=-2)
    return rng.standard_normal(lead + (per, dim))


def mehler_integral(points: np.ndarray, inner: np.ndarray, cfg: MehlerConfig, term):
    """Gauss-Legendre sum over u of wt * term(mehler_shift(points, inner, u))."""
    nodes, weights = gauss_legendre_unit(cfg.quad_nodes)
    # One broadcast copy makes every node's shift flat; fl(u*p) is the same
    # wherever p was broadcast.
    points = np.ascontiguousarray(np.broadcast_to(points, inner.shape), dtype=float)
    total = 0.0
    for u, wt in zip(nodes, weights):
        # Kept in a local so the shifted copies stay allocated until the next
        # node replaces them; freeing them inside term() made glibc return
        # and re-fault the pages on every node.
        shifted = mehler_shift(points, inner, u)
        total += wt * term(shifted)
    return total


def gamma_pointwise(f, g, omega: np.ndarray, cfg: MehlerConfig,
                    rng: np.random.Generator | None = None) -> Estimate:
    """Estimate Gamma_{F,G} at one sample point.

    ``f`` and ``g`` can be Functionals or chaos forms -- anything with a
    ``space`` and a ``gradient`` method.  Inner copies are shared across
    quadrature nodes (common random numbers); with antithetic sampling the
    +/- pair average is the independent unit for the standard error, which
    reflects Monte Carlo variation only.
    """
    space = f.space
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (space.dim,):
        raise ValueError(f"sample point must have shape ({space.dim},)")
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed]))
    inner = inner_normals(rng, (), cfg.mc_samples, space.dim, cfg.antithetic)
    df = f.gradient(omega)
    per_sample = mehler_integral(omega, inner, cfg, lambda y: g.gradient(y) @ df)
    if cfg.antithetic:
        half = inner.shape[0] // 2
        per_sample = 0.5 * (per_sample[:half] + per_sample[half:])
    return mean_estimate([per_sample])


def capital_delta(f_s: Functional, f_t: Functional, omega: np.ndarray,
                  cfg: MehlerConfig,
                  rng: np.random.Generator | None = None) -> Estimate:
    """Delta_F(s, t) = Gamma applied twice to the difference F_t - F_s."""
    diff = functional_difference(f_t, f_s)
    return gamma_pointwise(diff, diff, omega, cfg, rng=rng)


# ---------------------------------------------------------------------------
# Expectation-level estimators (coupled inner copies)
# ---------------------------------------------------------------------------

def inner_copies_per_point(cfg: MehlerConfig, n_outer: int) -> int:
    """Spread the mc_samples budget over outer points; antithetic needs pairs."""
    per = max(1, math.ceil(cfg.mc_samples / n_outer))
    if cfg.antithetic and per % 2:
        per += 1
    return per


def coupled_gamma_values(f, g, points: np.ndarray, cfg: MehlerConfig,
                         rng: np.random.Generator) -> np.ndarray:
    """Unbiased per-point estimates of Gamma_{F,G}(points[i]) with fresh
    inner copies per point; shape (n_points,)."""
    points = np.asarray(points, dtype=float)
    n_points, dim = points.shape
    inner = inner_normals(rng, (n_points,), inner_copies_per_point(cfg, n_points),
                          dim, cfg.antithetic)
    df = f.gradient(points)  # (n_points, dim)
    # g.gradient(y) has shape (n_points, per, dim)
    return mehler_integral(points[:, None, :], inner, cfg, lambda y: np.mean(
        np.einsum("prd,pd->pr", g.gradient(y), df), axis=1))


def minus_dl_gradient_estimates(functionals, points: np.ndarray, cfg: MehlerConfig,
                                rng: np.random.Generator) -> np.ndarray:
    """Per-point estimates of the -D L^{-1} gradient for several functionals.

    Returns shape (len(functionals), n_points, dim).  One set of inner copies
    is shared across the functionals (common random numbers); each estimate is
    conditionally unbiased given the base point, and the map is linear, so
    differences of components estimate -D L^{-1} of the difference.
    """
    points = np.asarray(points, dtype=float)
    n_points, dim = points.shape
    inner = inner_normals(rng, (n_points,), inner_copies_per_point(cfg, n_points),
                          dim, cfg.antithetic)
    return mehler_integral(points[:, None, :], inner, cfg, lambda y: np.stack(
        [np.mean(f.gradient(y), axis=1) for f in functionals]))


def require_centered(f, points: np.ndarray, what: str = "functional"):
    """Reject a functional that is not centered: by its exact ``mean()`` when
    it has one (chaos forms), else when its sample mean at ``points`` is not
    within 3 SE of zero."""
    if hasattr(f, "mean"):
        if f.mean() != 0.0:
            raise CenteringError(f"{what} is not centered: exact mean {f.mean():.4g}")
        return
    vals = f.eval(points)
    n = vals.size
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1)) / math.sqrt(n) if n > 1 else 0.0
    if abs(mean) > 3.0 * se and se > 0.0:
        raise CenteringError(
            f"{what} is not centered: sample mean {mean:.4g} exceeds 3 x SE {se:.4g}")
    if se == 0.0 and mean != 0.0:
        raise CenteringError(f"{what} is deterministic and nonzero: {mean:.4g}")


def ibp_residual(phis, f, g, n_outer: int, cfg: MehlerConfig,
                 seed: int | None = None) -> list[tuple[Estimate, Estimate]]:
    """Both sides of E[Phi(F) G] = E[Phi'(F) Gamma_{F,G}], as one (lhs, rhs)
    per (phi, phi_prime) in ``phis``.

    G must be centered (see ``require_centered``).  All entries read one draw
    of outer points and one Gamma pass, so each equals a one-entry call.
    """
    space = f.space
    rng = np.random.default_rng(np.random.SeedSequence(
        [cfg.seed if seed is None else seed, 0x1B9]))
    points = sample(space, rng, n_outer)
    require_centered(g, points, what="G")

    f_vals, g_vals = f.eval(points), g.eval(points)
    gamma_vals = coupled_gamma_values(f, g, points, cfg, rng)
    return [(mean_estimate([np.asarray(phi(f_vals)) * g_vals]),
             mean_estimate([np.asarray(phi_prime(f_vals)) * gamma_vals]))
            for phi, phi_prime in phis]


def poincare_check(f, ps, n_outer: int, cfg: MehlerConfig,
                   seed: int | None = None) -> list[tuple[Estimate, Estimate]]:
    """Both sides of E|F|^p <= (p-1)^{p/2} E|Gamma_{F,F}|^{p/2}, as one
    (lhs, rhs) per p >= 2 in ``ps``.  All p read one draw of outer points and
    one Gamma pass, so each equals a one-p call."""
    if any(p < 2 for p in ps):
        raise ValueError(f"p must be >= 2, got {min(ps)}")
    space = f.space
    rng = np.random.default_rng(np.random.SeedSequence(
        [cfg.seed if seed is None else seed, 0x90C]))
    points = sample(space, rng, n_outer)
    require_centered(f, points, what="F")

    abs_f = np.abs(f.eval(points))
    abs_gamma = np.abs(coupled_gamma_values(f, f, points, cfg, rng))
    return [(mean_estimate([abs_f ** p]),
             mean_estimate([(p - 1.0) ** (p / 2.0) * abs_gamma ** (p / 2.0)]))
            for p in ps]
