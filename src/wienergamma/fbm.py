"""Fractional Brownian motion (H > 1/2), an Euler scheme for the drifted SDE

    F_t = x0 + B^H_t + int_0^t b(F_s) ds,

its pathwise derivative with respect to the driving noise, and the supremum
comparison of the centered solution against the driving fBm.

Paths are generated from the Cholesky factor of the increment covariance, so
the increments double as the correlated basis of a Wiener space: the whitened
coordinates of a path are exactly what the Gamma machinery needs, and the
long-memory kernel enters only through the increment Gram matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import WienerSpace, build_space
from .engine import (
    MehlerConfig,
    RunningMoments,
    inner_copies_per_point,
    inner_normals,
    mehler_integral,
)
from .parallel import run_chunked


@dataclass(frozen=True)
class FbmGrid:
    hurst: float
    times: np.ndarray  # 0 = t_0 < t_1 < ... < t_m = T

    def __post_init__(self):
        if not 0.5 < self.hurst < 1.0:
            raise ValueError(f"Hurst index must lie in (1/2, 1), got {self.hurst}")
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("grid needs at least two time points")
        if times[0] != 0.0:
            raise ValueError("grid must start at 0")
        if np.any(np.diff(times) <= 0):
            raise ValueError("grid must be strictly increasing")
        object.__setattr__(self, "times", times)

    @property
    def n_steps(self) -> int:
        return self.times.size - 1


def uniform_grid(hurst: float, horizon: float, n_steps: int) -> FbmGrid:
    return FbmGrid(hurst, np.linspace(0.0, horizon, n_steps + 1))


def fbm_cov(hurst: float, s, t):
    """Covariance (s^{2H} + t^{2H} - |t-s|^{2H}) / 2 of fBm at times s, t."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    two_h = 2.0 * hurst
    return 0.5 * (np.abs(s) ** two_h + np.abs(t) ** two_h - np.abs(t - s) ** two_h)


def increment_gram(grid: FbmGrid) -> np.ndarray:
    """Covariance of the fBm increments over the grid cells."""
    a = grid.times[:-1]
    b = grid.times[1:]
    h = grid.hurst
    return (
        fbm_cov(h, b[:, None], b[None, :])
        - fbm_cov(h, b[:, None], a[None, :])
        - fbm_cov(h, a[:, None], b[None, :])
        + fbm_cov(h, a[:, None], a[None, :])
    )


def fbm_space(grid: FbmGrid) -> WienerSpace:
    """Wiener space whose basis is the (correlated) increment family."""
    try:
        return build_space(grid.n_steps, gram=increment_gram(grid))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - degenerate grids
        raise ValueError(f"increment covariance factorization failed: {exc}") from exc


def paths_from_whitened(space: WienerSpace, xi: np.ndarray) -> np.ndarray:
    """Turn whitened coordinates (..., m) into fBm paths (..., m + 1)."""
    increments = xi @ space.whitener.T
    zeros = np.zeros(increments.shape[:-1] + (1,))
    return np.concatenate([zeros, np.cumsum(increments, axis=-1)], axis=-1)


def fbm_sample(grid: FbmGrid, rng: np.random.Generator, size: int | None = None,
               space: WienerSpace | None = None):
    """Sample fBm paths on the grid; returns (paths, whitened coordinates).

    The whitened coordinates are retained so the same draw can be pushed
    through the Mehler coupling later.
    """
    if space is None:
        space = fbm_space(grid)
    shape = (space.dim,) if size is None else (size, space.dim)
    xi = rng.standard_normal(shape)
    return paths_from_whitened(space, xi), xi


@dataclass(frozen=True)
class DriftSpec:
    """Drift b with its derivative; b must be Lipschitz."""

    b: object
    b_prime: object
    lipschitz_bound: float

    def __post_init__(self):
        if self.lipschitz_bound <= 0:
            raise ValueError("lipschitz_bound must be positive")


ZERO_DRIFT = DriftSpec(b=lambda x: np.zeros_like(x), b_prime=lambda x: np.zeros_like(x),
                       lipschitz_bound=1.0)
TANH_DRIFT = DriftSpec(b=np.tanh, b_prime=lambda x: 1.0 / np.cosh(x) ** 2,
                       lipschitz_bound=1.0)
NEG_TANH_DRIFT = DriftSpec(b=lambda x: -np.tanh(x),
                           b_prime=lambda x: -1.0 / np.cosh(x) ** 2,
                           lipschitz_bound=1.0)


def euler_solve(x0: float, drift: DriftSpec, fbm_paths: np.ndarray,
                times: np.ndarray) -> np.ndarray:
    """Explicit Euler: F_{k+1} = F_k + (B_{k+1} - B_k) + b(F_k) dt_k."""
    fbm_paths = np.asarray(fbm_paths, dtype=float)
    dts = np.diff(times)
    out = np.empty_like(fbm_paths)
    out[..., 0] = x0
    for k in range(dts.size):
        db = fbm_paths[..., k + 1] - fbm_paths[..., k]
        out[..., k + 1] = out[..., k] + db + drift.b(out[..., k]) * dts[k]
    return out


def _cumulative_bprime(values: np.ndarray, drift: DriftSpec,
                       times: np.ndarray) -> np.ndarray:
    """Trapezoid cumulative of b'(F) along the grid: c_k = int_0^{t_k} b'(F)."""
    bp = drift.b_prime(values)
    dts = np.diff(times)
    segments = 0.5 * (bp[..., :-1] + bp[..., 1:]) * dts
    zeros = np.zeros(values.shape[:-1] + (1,))
    return np.concatenate([zeros, np.cumsum(segments, axis=-1)], axis=-1)


def _increment_derivative(cumulative: np.ndarray, t_idx: int) -> np.ndarray:
    """d F_{t_idx} / d (increment j), j = 0..m-1, from the cumulative exponent.

    Increment j covers (t_j, t_{j+1}]; its derivative is exp(c_t - c_{j+1}) for
    j < t_idx and zero after, which is the right-endpoint reading of the
    continuous kernel and matches the Euler chain rule to first order.
    """
    m = cumulative.shape[-1] - 1
    out = np.zeros(cumulative.shape[:-1] + (m,))
    if t_idx == 0:
        return out
    ct = cumulative[..., t_idx, None]
    out[..., :t_idx] = np.exp(ct - cumulative[..., 1 : t_idx + 1])
    return out


@dataclass(frozen=True)
class DeltaEstimate:
    value: float
    std_error: float
    n_outer: int
    reference: float  # |t - s|^{2H}, the driving-noise squared canonical metric


def delta_fbm(grid: FbmGrid, drift: DriftSpec, s_idx: int, t_idx: int,
              x0: float = 0.0, cfg: MehlerConfig = MehlerConfig(),
              n_outer: int = 400, seed: int = 0, workers: int = 1) -> DeltaEstimate:
    """Average of Delta_F(t_s, t_t) = Gamma_{F_t - F_s, F_t - F_s} over paths.

    The inner expectation re-solves the SDE on Mehler-shifted coordinates (the
    coupled path u*xi + sqrt(1-u^2)*xi_hat) instead of transcribing the
    explicit double-time-integral form; the two agree by construction, and the
    long-memory weights enter through the increment Gram matrix.
    """
    if not 0 <= s_idx <= t_idx <= grid.n_steps:
        raise ValueError(f"need 0 <= s_idx <= t_idx <= {grid.n_steps}")
    space = fbm_space(grid)
    times = grid.times
    per = inner_copies_per_point(cfg, n_outer)
    acc = RunningMoments()

    def diff_gradient_whitened(xi):
        paths = paths_from_whitened(space, xi)
        values = euler_solve(x0, drift, paths, times)
        c = _cumulative_bprime(values, drift, times)
        gy = _increment_derivative(c, t_idx) - _increment_derivative(c, s_idx)
        return gy @ space.whitener  # chain rule through increments = L xi

    def job(chunk, rng):
        xi = rng.standard_normal((chunk, space.dim))
        base_grad = diff_gradient_whitened(xi)
        inner = inner_normals(rng, (chunk,), per, space.dim, cfg.antithetic)

        def term(shifted):
            shifted_grad = diff_gradient_whitened(
                shifted.reshape(-1, space.dim)
            ).reshape(chunk, per, space.dim)
            return np.mean(np.einsum("crd,cd->cr", shifted_grad, base_grad), axis=1)

        return mehler_integral(xi[:, None, :], inner, cfg, term)

    for vals in run_chunked(n_outer, workers, seed, 0xFB1, job):
        acc.add_batch(vals)
    reference = float(abs(times[t_idx] - times[s_idx]) ** (2.0 * grid.hurst))
    return DeltaEstimate(acc.mean, acc.std_error, acc.count, reference)


@dataclass(frozen=True)
class SupComparisonReport:
    e_max_centered_sde: float
    e_max_centered_sde_se: float
    e_max_fbm: float
    e_max_fbm_se: float
    n_paths: int

    @property
    def combined_se(self) -> float:
        return math.hypot(self.e_max_centered_sde_se, self.e_max_fbm_se)


def sup_comparison(grid: FbmGrid, drift: DriftSpec, x0: float = 0.0,
                   n_paths: int = 100_000, seed: int = 0,
                   workers: int = 1) -> SupComparisonReport:
    """Compare E[max_t (F_t - E F_t)] against E[max_t B^H_t] over the grid.

    E F_t comes from an independent pilot run of the same size, so centering
    does not reuse the comparison paths.  The fBm maximum is taken from the
    same driving paths as the solution; the induced positive correlation only
    tightens the difference.
    """
    space = fbm_space(grid)
    times = grid.times

    def pilot_job(chunk, rng):
        paths, _ = fbm_sample(grid, rng, size=chunk, space=space)
        values = euler_solve(x0, drift, paths, times)
        return values.sum(axis=0), chunk

    sums = np.zeros(times.size)
    total = 0
    for s, c in run_chunked(n_paths, workers, seed, 0xF1A, pilot_job):
        sums += s
        total += c
    mean_path = sums / total

    sde_acc = RunningMoments()
    fbm_acc = RunningMoments()

    def main_job(chunk, rng):
        paths, _ = fbm_sample(grid, rng, size=chunk, space=space)
        values = euler_solve(x0, drift, paths, times)
        return (values - mean_path).max(axis=-1), paths.max(axis=-1)

    for centered_max, driving_max in run_chunked(n_paths, workers, seed, 0xF1B, main_job):
        sde_acc.add_batch(centered_max)
        fbm_acc.add_batch(driving_max)

    return SupComparisonReport(
        e_max_centered_sde=sde_acc.mean,
        e_max_centered_sde_se=sde_acc.std_error,
        e_max_fbm=fbm_acc.mean,
        e_max_fbm_se=fbm_acc.std_error,
        n_paths=sde_acc.count,
    )
