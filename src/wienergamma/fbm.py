"""Fractional Brownian motion (H > 1/2), an Euler scheme for the drifted SDE

    F_t = x0 + B^H_t + int_0^t b(F_s) ds,

its pathwise derivative with respect to the driving noise, and the supremum
comparison of the centered solution against the driving fBm.

Paths are generated from the Cholesky factor L of the increment covariance
G = L L^T, so the increments double as the correlated basis of a Wiener
space: the whitened coordinates of a path are exactly what the Gamma
machinery needs, and the long-memory kernel enters only through G.

Paths, Euler solutions and the cumulative exponent of b' have shape
(..., m + 1) but are stored time-major, as the transpose of an
(m + 1, paths) buffer, so every time step reads and writes one contiguous
row.  The cumulative sums and Euler steps give the numbers of a row-major
computation bit for bit.  The synthesis product L xi^T has the paths as its
row dimension, so it can round differently from xi L^T in the last bit where
the BLAS treats that edge differently (with OpenBLAS: some path counts of 129
or more that are not multiples of 8).

``euler_solve`` can overwrite the paths with the solution, with the bits of
a solve into a separate array; the supremum comparison and the Delta
estimator solve in place, so a solve allocates no array of its own.  The
supremum comparison walks each worker chunk in the blocks of
``parallel.block_bounds``, so it never holds a chunk's draws and paths at
once, and every block of a chunk reuses one array of draws and one of paths.
The main run takes a block's fBm maxima before it solves the block.  Under
that layout the synthesis product, the one step whose bits can depend on the
blocks, gives the one-block product's bits (see ``parallel``).  The pilot
adds each block's sum over its paths into one total, in block order.

The pathwise derivative is never projected onto whitened coordinates: the
Delta integrand <(D_t - D_s)(y) L, (D_t - D_s)(x) L> is computed as
(D_t - D_s)(y) . [(D_t - D_s)(x) G], with one Gram product per outer point
and pair.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import WienerSpace, build_space
from .engine import (
    Estimate,
    MehlerConfig,
    copy_mean,
    inner_copies_per_point,
    inner_normals,
    mean_estimate,
    mehler_integral,
)
from .parallel import block_bounds, run_chunked, widest_block


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


def paths_from_whitened(space: WienerSpace, xi: np.ndarray,
                        out: np.ndarray | None = None) -> np.ndarray:
    """Turn whitened coordinates (..., m) into fBm paths (..., m + 1),
    stored time-major: the transpose of an (m + 1, paths) buffer, which is
    ``out`` when given."""
    xi = np.asarray(xi, dtype=float)
    flat = xi.reshape(-1, space.dim)
    paths = np.empty((space.dim + 1, flat.shape[0])) if out is None else out
    paths[0] = 0.0
    np.matmul(space.whitener, flat.T, out=paths[1:])
    _cumsum_rows(paths[1:])
    return paths.T.reshape(xi.shape[:-1] + (space.dim + 1,))


def _cumsum_rows(a: np.ndarray):
    """In-place cumulative sum along axis 0, one contiguous row at a time;
    ``np.cumsum`` would walk the strided axis.  Same sums, same order."""
    for k in range(1, len(a)):
        a[k] += a[k - 1]


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
    """Drift b with its derivative; b must be Lipschitz.  Both act
    elementwise; b may return a scalar that broadcasts over its argument."""

    b: object
    b_prime: object


# b returns a scalar so that an Euler step adds 0.0 without allocating zeros.
ZERO_DRIFT = DriftSpec(b=lambda x: 0.0, b_prime=lambda x: np.zeros_like(x))


def _sech_squared(sign: float):
    """x -> sign / cosh(x)**2, the operations of that expression done in one
    array."""

    def b_prime(x):
        out = np.cosh(x)
        np.square(out, out=out)
        return np.divide(sign, out, out=out)

    return b_prime


TANH_DRIFT = DriftSpec(b=np.tanh, b_prime=_sech_squared(1.0))
NEG_TANH_DRIFT = DriftSpec(b=lambda x: -np.tanh(x), b_prime=_sech_squared(-1.0))


def euler_solve(x0: float, drift: DriftSpec, fbm_paths: np.ndarray,
                times: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Explicit Euler: F_{k+1} = F_k + (B_{k+1} - B_k) + b(F_k) dt_k.

    The solution goes into ``out`` when given, and otherwise keeps the memory
    order of ``fbm_paths``, so time-major paths give contiguous steps.
    ``out`` may be ``fbm_paths`` itself: the increments are written first,
    from the last step back (so step k - 1 still holds the path when step k
    is differenced), and the forward steps then add F_k and b(F_k) dt_k to
    them, the roundings of the out-of-place solve in the same order.
    """
    fbm_paths = np.asarray(fbm_paths, dtype=float)
    dts = np.diff(times)
    if out is None:
        out = np.empty_like(fbm_paths)
    for k in range(dts.size, 0, -1):
        np.subtract(fbm_paths[..., k], fbm_paths[..., k - 1], out=out[..., k])
    out[..., 0] = x0
    for k in range(dts.size):
        prev, step = out[..., k], out[..., k + 1]
        step += prev
        step += drift.b(prev) * dts[k]
    return out


def _cumulative_bprime(values: np.ndarray, drift: DriftSpec,
                       times: np.ndarray) -> np.ndarray:
    """Trapezoid cumulative of b'(F) along the grid: c_k = int_0^{t_k} b'(F).

    Shape (..., m + 1), time-major like ``paths_from_whitened``.
    """
    bp = np.moveaxis(drift.b_prime(values), -1, 0)
    dts = np.diff(times).reshape((-1,) + (1,) * (bp.ndim - 1))
    out = np.empty(bp.shape)
    out[0] = 0.0
    segments = np.add(bp[:-1], bp[1:], out=out[1:])
    segments *= 0.5
    segments *= dts
    _cumsum_rows(segments)
    return np.moveaxis(out, 0, -1)


def _indicator(s_idx: int, t_idx: int, shape: tuple) -> np.ndarray:
    """The read-only 0/1 indicator of s_idx <= j < t_idx, of shape
    (t_idx,) + ``shape``: a real C-ordered array, not a broadcast view, so a
    matrix product with it runs in BLAS as with any other derivative."""
    out = np.ones((t_idx,) + shape)
    out[:s_idx] = 0.0
    out.setflags(write=False)
    return out


def _derivative_difference(cumulative: np.ndarray, s_idx: int, t_idx: int,
                           zero: bool, indicator=_indicator) -> np.ndarray:
    """d (F_t - F_s) / d (increment j) for j < t_idx, time-major (t_idx, ...).

    Increment j covers (t_j, t_{j+1}]; d F_t / d (increment j) is
    exp(c_t - c_{j+1}) for j < t and zero after, which is the right-endpoint
    reading of the continuous kernel and matches the Euler chain rule to first
    order.  ``cumulative`` is time-major (m + 1, ...).  ``zero`` says that
    every entry of ``cumulative`` is +-0.0 (``_zero_exponent``); then each
    exp is exp(+-0.0) = 1.0 exactly and 1.0 - 1.0 = +0.0, so the result is
    ``indicator(s_idx, t_idx, shape)``, the 0/1 indicator of
    s_idx <= j < t_idx, with the same bits.
    """
    if zero:
        return indicator(s_idx, t_idx, cumulative.shape[1:])
    out = np.exp(cumulative[t_idx] - cumulative[1 : t_idx + 1])
    out[:s_idx] -= np.exp(cumulative[s_idx] - cumulative[1 : s_idx + 1])
    return out


def _zero_exponent(cumulative: np.ndarray) -> bool:
    """True when every entry is +0.0 or -0.0, as for a driftless solution."""
    return not cumulative.any()


def delta_fbm(grid: FbmGrid, drift: DriftSpec, pairs, x0: float = 0.0,
              cfg: MehlerConfig = MehlerConfig(), n_outer: int = 400, seed: int = 0,
              workers: int = 1) -> list[Estimate]:
    """Average of Delta_F(t_s, t_t) = Gamma_{F_t - F_s, F_t - F_s} over paths,
    one Estimate per (s_idx, t_idx) in ``pairs``.

    The inner expectation re-solves the SDE on Mehler-shifted coordinates (the
    coupled path u*xi + sqrt(1-u^2)*xi_hat) instead of transcribing the
    explicit double-time-integral form; the two agree by construction, and the
    long-memory weights enter through the increment Gram matrix.  All pairs
    share the outer paths, inner copies and Euler solves; only the derivative
    and its dot product with the Gram-projected base derivative repeat per
    pair, so each estimate equals a one-pair call.
    """
    pairs = list(pairs)
    if not all(0 <= s_idx <= t_idx <= grid.n_steps for s_idx, t_idx in pairs):
        raise ValueError(f"need 0 <= s_idx <= t_idx <= {grid.n_steps}")
    space = fbm_space(grid)
    times = grid.times
    per = inner_copies_per_point(cfg, n_outer)

    def cumulative(xi):
        """Time-major exponent c, (m + 1,) + xi.shape[:-1], of the paths of
        xi, and whether it is all zeros."""
        paths = paths_from_whitened(space, xi)
        values = euler_solve(x0, drift, paths, times, out=paths)
        c = np.moveaxis(_cumulative_bprime(values, drift, times), -1, 0)
        return c, _zero_exponent(c)

    def job(chunk, rng):
        # A driftless solution reads the same indicator per pair at every
        # node, so each is built once per chunk.
        indicator = functools.cache(_indicator)
        xi = rng.standard_normal((chunk, space.dim))
        c, zero = cumulative(xi)
        # <(D_t - D_s)(y) L, (D_t - D_s)(x) L> = (D_t - D_s)(y) . v with
        # v = (D_t - D_s)(x) G: one Gram product per outer point and pair,
        # none per shifted path.
        projected = [_derivative_difference(c, s_idx, t_idx, zero, indicator).T
                     @ space.gram[:t_idx, :t_idx] for s_idx, t_idx in pairs]
        inner = inner_normals(rng, (chunk,), per, space.dim, cfg.antithetic)

        def term(shifted):
            c_y, zero_y = cumulative(shifted.reshape(-1, space.dim))
            c_y = c_y.reshape(-1, chunk, per)
            means = []
            for (s_idx, t_idx), v in zip(pairs, projected):
                d = _derivative_difference(c_y, s_idx, t_idx, zero_y,
                                           indicator).transpose(1, 0, 2)
                means.append(copy_mean((v[:, None, :] @ d)[:, 0]))
            return np.stack(means)

        return mehler_integral(xi[:, None, :], inner, cfg, term)

    return [mean_estimate(batches)
            for batches in zip(*run_chunked(n_outer, workers, seed, 0xFB1, job))]


def sup_comparison(grid: FbmGrid, drift: DriftSpec, x0: float = 0.0,
                   n_paths: int = 100_000, seed: int = 0,
                   workers: int = 1) -> tuple[Estimate, Estimate]:
    """E[max_t (F_t - E F_t)] and E[max_t B^H_t] over the grid, in that order.

    E F_t comes from an independent pilot run of the same size, so centering
    does not reuse the comparison paths.  The fBm maximum is taken from the
    same driving paths as the solution; the induced positive correlation only
    tightens the difference.

    Each chunk is drawn, solved and reduced in path blocks (see the module
    docstring).  The pilot's mean path is the sum of the per-block sums over
    the paths, added in block order, over ``n_paths``.
    """
    space = fbm_space(grid)
    times = grid.times
    rows = grid.n_steps + 1

    def path_blocks(chunk, rng):
        """(start, stop, paths) per block of the chunk; every block is drawn
        into the same two arrays, and is solved in place by its caller."""
        bounds = block_bounds(chunk)
        width = widest_block(bounds)
        xi, paths = np.empty((width, space.dim)), np.empty((rows, width))
        for start, stop in bounds:
            size = stop - start
            rng.standard_normal(out=xi[:size])
            yield start, stop, paths_from_whitened(space, xi[:size],
                                                   out=paths[:, :size])

    def pilot_job(chunk, rng):
        total = np.zeros(rows)
        for _, _, block in path_blocks(chunk, rng):
            total += euler_solve(x0, drift, block, times, out=block).sum(axis=0)
        return total

    mean_path = sum(run_chunked(n_paths, workers, seed, 0xF1A, pilot_job)) / n_paths

    def main_job(chunk, rng):
        sde_max, fbm_max = np.empty(chunk), np.empty(chunk)
        for start, stop, block in path_blocks(chunk, rng):
            block.max(axis=-1, out=fbm_max[start:stop])
            values = euler_solve(x0, drift, block, times, out=block)
            values -= mean_path
            values.max(axis=-1, out=sde_max[start:stop])
        return sde_max, fbm_max

    maxima = run_chunked(n_paths, workers, seed, 0xF1B, main_job)
    return (mean_estimate(sde for sde, _ in maxima),
            mean_estimate(driving for _, driving in maxima))
