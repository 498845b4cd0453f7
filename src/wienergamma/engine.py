"""Monte Carlo / quadrature estimation of the covariance operator Gamma.

For functionals F, G on one space, Gamma_{F,G}(x) = <DF(x), -D L^{-1} G(x)>.
The pseudo-inverse side is realized through the Mehler coupling: with
u = e^{-z} the semigroup integral over z in [0, inf) becomes

    Gamma_{F,G}(x) = int_0^1 E_hat[ <DF(x), DG(u x + sqrt(1-u^2) x_hat)> ] du,

with x_hat an independent standard normal copy.  The u-integral is
Gauss-Legendre; the inner expectation is Monte Carlo (optionally antithetic).

``mehler_integral`` is the single u-quadrature: it sums ``term`` over the
Mehler-shifted inner copies, and ``inner_normals`` draws those copies.  At
each node it writes the shifted copies into one buffer that it allocates once
per call in the memory layout of the copies, and every shift has the bits of
u*x + sqrt(1-u^2)*x_hat computed afresh.  Given the columns ``term`` reads,
it shifts only those and leaves the others at 0.0.  Its four callers differ
in the points they shift, in how many copies they draw and lay out, and in
what ``term`` returns:

* ``gamma_pointwise``: one point, ``mc_samples`` copies stored
  coordinate-major, one value <DG(y), DF(omega)> per copy, folded over
  antithetic pairs afterwards.  All copies are drawn, but only the columns
  of G's ``coordinates()`` are shifted: each is a contiguous column there,
  and a G of the oracle suite reads 1 or 2 of its 4;
* ``coupled_gamma_values``: many outer points, each repeated once per copy
  (a few copies each), the mean of <DG(y), DF(point)> over a point's copies,
  which ``copy_mean`` takes with numpy's bits by adding copy columns.  Its
  copies are C-ordered, so a column is strided and every column is shifted;
* ``minus_dl_gradient_estimates``: the same points and copies, one gradient
  per functional and point;
* ``fbm.delta_fbm``: outer fBm coordinates, whose ``term`` re-solves the SDE
  on the shifted copies and returns one value per (s, t) pair and point.

The two Gamma integrands need only the number <DG(y), DF>, so they take it as
``g.gradient(y, df)``, the derivative of G along DF in one forward pass,
without a dense (..., n) gradient or a matrix product per node.  Its bits
do not depend on the memory layout of the copies.  Dense gradients, which
``minus_dl_gradient_estimates`` still builds, come back C-ordered whatever
the layout of the points.

Rows that share a seed -- several phi in ``ibp_residual``, several p in
``poincare_check``, several (s, t) in ``fbm.delta_fbm`` -- share one Mehler
pass.  That is bit-identical to one call per row: the seed draws the same
points and copies, and each row's arithmetic on them is unchanged.

Monte Carlo estimators return an ``Estimate`` (a mean and its standard
error) or an (lhs, rhs) pair of them.  Every standard error of the package
comes from ``mean_estimate``, the one fold from the batches of one sample set
to an Estimate, or from ``difference``, that of two independent Estimates.

Two sampling regimes share this representation:

* pointwise: one base point, ``mc_samples`` inner copies (``gamma_pointwise``);
* in expectation: many outer points, a few inner copies each, for quantities
  like E[Phi'(F) Gamma_{F,G}].  The ``mc_samples`` budget is spread across the
  outer points (at least one inner copy per point), which keeps estimators
  unbiased while the standard error is measured over outer points.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import sample


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


def mean_estimate(batches) -> Estimate:
    """Mean and standard error of the samples in ``batches``, merged in order
    by Chan's update of the count, the mean and the sum of squared deviations."""
    count, mean, m2 = 0, 0.0, 0.0
    for batch in batches:
        values = np.asarray(batch, dtype=float).ravel()
        n = values.size
        if n == 0:
            continue
        batch_mean = float(np.mean(values))
        batch_m2 = float(np.sum((values - batch_mean) ** 2))
        if count == 0:
            count, mean, m2 = n, batch_mean, batch_m2
            continue
        total = count + n
        delta = batch_mean - mean
        m2 += batch_m2 + delta * delta * count * n / total
        mean += delta * n / total
        count = total
    if count < 2:
        return Estimate(mean, 0.0)
    return Estimate(mean, math.sqrt(m2 / (count - 1) / count))


def difference(a: Estimate, b: Estimate) -> Estimate:
    """a - b, with the standard error of two independent estimates."""
    return Estimate(a.value - b.value, math.hypot(a.std_error, b.std_error))


@functools.lru_cache(maxsize=16)
def gauss_legendre_unit(n_nodes: int):
    """Gauss-Legendre nodes and weights on [0, 1]; weights renormalized to sum 1.

    Cached per node count, so both arrays are read-only.
    """
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    nodes = 0.5 * (x + 1.0)
    weights = 0.5 * w
    weights /= weights.sum()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def inner_normals(rng: np.random.Generator, lead: tuple, per: int, dim: int,
                  antithetic: bool, order: str = "C") -> np.ndarray:
    """Inner copies of shape lead + (per, dim) in memory order ``order``;
    antithetic pairs are stacked on axis -2 as (+z, -z), so ``per`` rounds
    down to an even count.  The normals are drawn C-ordered and written once
    into the result, whatever its order."""
    if not antithetic:
        z = rng.standard_normal(lead + (per, dim))
        return z if order == "C" else np.asfortranarray(z)
    half = per // 2
    z = rng.standard_normal(lead + (half, dim))
    out = np.empty(lead + (2 * half, dim), order=order)
    out[..., :half, :] = z
    np.negative(z, out=out[..., half:, :])
    return out


def mehler_integral(points: np.ndarray, inner: np.ndarray, cfg: MehlerConfig, term,
                    columns=None):
    """Gauss-Legendre sum over u of wt * term(y_u), where y_u is the
    Ornstein-Uhlenbeck coupling u * points + sqrt(1 - u^2) * inner.

    ``points`` broadcasts against ``inner``.  Every y_u is written into one
    buffer with the shape and memory layout of ``inner``, allocated once per
    call, so ``term`` must not keep a reference to its argument.  With
    ``columns``, the indices of the last axis that ``term`` reads, only those
    columns are shifted at each node, in runs of consecutive indices, and the
    others hold 0.0 for the whole call.  Adding ``points`` is one long loop
    when they are broadcast along the contiguous axis of ``inner`` or not at
    all; broadcast along another axis, numpy loops over rows of the
    contiguous axis, which is slow when those rows are short.
    """
    nodes, weights = gauss_legendre_unit(cfg.quad_nodes)
    points, shifted = np.asarray(points), np.zeros_like(inner)
    runs = _column_runs(range(inner.shape[-1]) if columns is None else columns)
    views = [(shifted[..., a:b], inner[..., a:b], points[..., a:b],
              np.empty(points[..., a:b].shape)) for a, b in runs]
    total = 0.0
    for u, wt in zip(nodes, weights):
        scale = math.sqrt(1.0 - u * u)
        for out, z, p, moved in views:
            # fl(c*z) + fl(u*p) = fl(u*p) + fl(c*z), and fl(u*p) is the same
            # wherever p is broadcast, so y_u has the bits of the textbook form.
            np.multiply(p, u, out=moved)
            np.multiply(z, scale, out=out)
            out += moved
        total += wt * term(shifted)
    return total


def _column_runs(columns) -> list[tuple[int, int]]:
    """The distinct ``columns`` as sorted (start, stop) runs of consecutive
    indices."""
    runs = []
    for i in sorted(set(columns)):
        if runs and runs[-1][1] == i:
            runs[-1] = (runs[-1][0], i + 1)
        else:
            runs.append((i, i + 1))
    return runs


def gamma_pointwise(f, g, omega: np.ndarray, cfg: MehlerConfig,
                    rng: np.random.Generator | None = None) -> Estimate:
    """Estimate Gamma_{F,G} at one sample point.

    ``f`` and ``g`` can be Functionals or chaos forms -- anything with a
    ``space``, a ``gradient(x, along=None)`` method and, for ``g``, the
    ``coordinates()`` its gradient reads.  Inner copies are
    shared across quadrature nodes (common random numbers); with antithetic
    sampling the +/- pair average is the independent unit for the standard
    error, which reflects Monte Carlo variation only.
    """
    space = f.space
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (space.dim,):
        raise ValueError(f"sample point must have shape ({space.dim},)")
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed]))
    # Drawn straight into coordinate-major order, so the gradients' column
    # reads y[:, i] are contiguous and omega is broadcast along the
    # contiguous axis.
    inner = inner_normals(rng, (), cfg.mc_samples, space.dim, cfg.antithetic, order="F")
    df = f.gradient(omega)
    # <DG(y), DF> reads only G's coordinates, so only those are shifted.
    per_sample = mehler_integral(omega, inner, cfg, lambda y: g.gradient(y, df),
                                 columns=g.coordinates())
    if cfg.antithetic:
        half = inner.shape[0] // 2
        per_sample = 0.5 * (per_sample[:half] + per_sample[half:])
    return mean_estimate([per_sample])


# ---------------------------------------------------------------------------
# Expectation-level estimators (coupled inner copies)
# ---------------------------------------------------------------------------

def inner_copies_per_point(cfg: MehlerConfig, n_outer: int) -> int:
    """Spread the mc_samples budget over outer points; antithetic needs pairs."""
    per = max(1, math.ceil(cfg.mc_samples / n_outer))
    if cfg.antithetic and per % 2:
        per += 1
    return per


def _repeated_points_and_copies(points: np.ndarray, cfg: MehlerConfig,
                                rng: np.random.Generator):
    """The expectation regime's (points, inner copies), both of shape
    (n_points, per, dim): each point is repeated once per copy, which keeps
    ``mehler_integral``'s per-node add flat where a broadcast over the few
    copies of a point would loop over dim-long rows."""
    points = np.asarray(points, dtype=float)
    n_points, dim = points.shape
    inner = inner_normals(rng, (n_points,), inner_copies_per_point(cfg, n_points),
                          dim, cfg.antithetic)
    return np.repeat(points[:, None, :], inner.shape[1], axis=1), inner


def coupled_gamma_values(f, g, points: np.ndarray, cfg: MehlerConfig,
                         rng: np.random.Generator) -> np.ndarray:
    """Unbiased per-point estimates of Gamma_{F,G}(points[i]) with fresh
    inner copies per point; shape (n_points,)."""
    repeated, inner = _repeated_points_and_copies(points, cfg, rng)
    # DF at each point, broadcast over its copies: y has shape (n_points, per, dim).
    df = f.gradient(points)[:, None, :]
    return mehler_integral(repeated, inner, cfg,
                           lambda y: copy_mean(g.gradient(y, df)))


def copy_mean(values: np.ndarray) -> np.ndarray:
    """``np.mean(values, axis=1)`` of an (n_points, per, ...) array, bit for bit.

    Below 8 copies numpy adds a row's entries one by one onto 0.0 and divides
    once, but runs one reduction loop per row; adding the columns in that
    order runs one loop per copy.  From 8 copies up numpy sums in pairwise
    blocks, so ``np.mean`` itself runs there.
    """
    per = values.shape[1]
    if per >= 8:
        return np.mean(values, axis=1)
    total = values[:, 0] + 0.0
    for k in range(1, per):
        total += values[:, k]
    total /= per
    return total


def minus_dl_gradient_estimates(functionals, points: np.ndarray, cfg: MehlerConfig,
                                rng: np.random.Generator) -> np.ndarray:
    """Per-point estimates of the -D L^{-1} gradient for several functionals.

    Returns shape (len(functionals), n_points, dim).  One set of inner copies
    is shared across the functionals (common random numbers); each estimate is
    conditionally unbiased given the base point, and the map is linear, so
    differences of components estimate -D L^{-1} of the difference.
    """
    repeated, inner = _repeated_points_and_copies(points, cfg, rng)
    return mehler_integral(repeated, inner, cfg, lambda y: np.stack(
        [copy_mean(f.gradient(y)) for f in functionals]))


def require_centered(f, points: np.ndarray, what: str = "functional"):
    """Reject a functional that is not centered: by its exact ``mean()`` when
    it has one (chaos forms), else when its sample mean at ``points`` is not
    within 3 SE of zero."""
    if hasattr(f, "mean"):
        if f.mean() != 0.0:
            raise CenteringError(f"{what} is not centered: exact mean {f.mean():.4g}")
        return
    est = mean_estimate([f.eval(points)])
    mean, se = est.value, est.std_error
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
