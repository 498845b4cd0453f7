import math
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from wienergamma.cli import lower, upper
from wienergamma.engine import (
    MehlerConfig,
    inner_copies_per_point,
    inner_normals,
    mean_estimate,
    mehler_integral,
)
from wienergamma import fbm
from wienergamma.fbm import (
    _cumulative_bprime,
    DriftSpec,
    FbmGrid,
    NEG_TANH_DRIFT,
    TANH_DRIFT,
    ZERO_DRIFT,
    delta_fbm,
    euler_solve,
    fbm_cov,
    fbm_sample,
    fbm_space,
    increment_gram,
    paths_from_whitened,
    sup_comparison,
    uniform_grid,
)
from wienergamma.parallel import BLOCK, block_bounds, run_chunked
from util import traced_peak_mb


def path_major_paths(space, xi):
    """Row-major oracle: increments xi L^T, then a cumsum along the last axis."""
    increments = xi @ space.whitener.T
    zeros = np.zeros(increments.shape[:-1] + (1,))
    return np.concatenate([zeros, np.cumsum(increments, axis=-1)], axis=-1)


def path_major_euler(x0, drift, fbm_paths, times):
    """Row-major oracle of the Euler recursion, one strided column per step."""
    dts = np.diff(times)
    out = np.empty_like(fbm_paths)
    out[..., 0] = x0
    for k in range(dts.size):
        db = fbm_paths[..., k + 1] - fbm_paths[..., k]
        out[..., k + 1] = out[..., k] + db + drift.b(out[..., k]) * dts[k]
    return out


def one_block_sup_comparison(grid, drift, n_paths, seed, workers):
    """The supremum comparison with each worker chunk drawn, solved and
    reduced as one block of paths."""
    space = fbm_space(grid)

    def pilot_job(chunk, rng):
        paths = fbm_sample(grid, rng, size=chunk, space=space)[0]
        return euler_solve(0.0, drift, paths, grid.times).sum(axis=0)

    mean_path = sum(run_chunked(n_paths, workers, seed, 0xF1A, pilot_job)) / n_paths

    def main_job(chunk, rng):
        paths = fbm_sample(grid, rng, size=chunk, space=space)[0]
        values = euler_solve(0.0, drift, paths, grid.times)
        values -= mean_path
        return values.max(axis=-1), paths.max(axis=-1)

    maxima = run_chunked(n_paths, workers, seed, 0xF1B, main_job)
    return (mean_estimate(sde for sde, _ in maxima),
            mean_estimate(driving for _, driving in maxima))


def delta_whitened_reference(grid, drift, pairs, cfg, n_outer, seed, workers):
    """Delta estimates with every derivative taken to whitened coordinates,
    (D_t - D_s)(y) L . (D_t - D_s)(x) L, on the draws delta_fbm makes."""
    space = fbm_space(grid)
    m = grid.n_steps
    per = inner_copies_per_point(cfg, n_outer)

    def gradients(xi):
        values = euler_solve(0.0, drift, path_major_paths(space, xi), grid.times)
        c = _cumulative_bprime(values, drift, grid.times)
        grads = []
        for s_idx, t_idx in pairs:
            d = np.zeros(xi.shape[:-1] + (m,))
            d[..., :t_idx] = np.exp(c[..., t_idx, None] - c[..., 1 : t_idx + 1])
            d[..., :s_idx] -= np.exp(c[..., s_idx, None] - c[..., 1 : s_idx + 1])
            grads.append(d @ space.whitener)
        return grads

    def job(chunk, rng):
        xi = rng.standard_normal((chunk, m))
        base = gradients(xi)
        inner = inner_normals(rng, (chunk,), per, m, cfg.antithetic)
        return mehler_integral(xi[:, None, :], inner, cfg, lambda y: np.stack(
            [np.mean(np.einsum("crd,cd->cr", sg, bg), axis=1)
             for sg, bg in zip(gradients(y), base)]))

    return [mean_estimate(batches)
            for batches in zip(*run_chunked(n_outer, workers, seed, 0xFB1, job))]


def sde_malliavin(values: np.ndarray, drift: DriftSpec,
                  times: np.ndarray) -> np.ndarray:
    """Derivative matrix D[u, t] = 1{u <= t} exp(int_u^t b'(F_w) dw) on the grid.

    The exponent uses the trapezoid rule, matching the first-order accuracy of
    the Euler scheme.  Output shape (..., m + 1, m + 1) with u along rows.
    """
    c = _cumulative_bprime(np.asarray(values, dtype=float), drift, times)
    log_d = c[..., None, :] - c[..., :, None]  # (u, t): c_t - c_u
    d = np.exp(log_d)
    m1 = times.size
    mask = np.tril(np.ones((m1, m1)), k=-1).astype(bool)  # u > t entries
    d[..., mask] = 0.0
    return d


def euler_gradient_oracle(values, drift, times, t_idx):
    """Exact gradient of the Euler recursion w.r.t. each driving increment:
    dF_{t}/d(dB_j) = prod_{r=j+1}^{t-1} (1 + b'(F_r) dt_r) for j < t."""
    dts = np.diff(times)
    m = dts.size
    out = np.zeros(values.shape[:-1] + (m,))
    bp = drift.b_prime(values)
    for j in range(t_idx):
        prod = np.ones(values.shape[:-1])
        for r in range(j + 1, t_idx):
            prod = prod * (1.0 + bp[..., r] * dts[r])
        out[..., j] = prod
    return out


class TestGrid:
    def test_hurst_range_enforced(self):
        with pytest.raises(ValueError):
            uniform_grid(0.5, 1.0, 4)
        with pytest.raises(ValueError):
            uniform_grid(1.0, 1.0, 4)

    def test_grid_must_start_at_zero_increasing(self):
        with pytest.raises(ValueError):
            FbmGrid(0.7, np.array([0.1, 0.5, 1.0]))
        with pytest.raises(ValueError):
            FbmGrid(0.7, np.array([0.0, 0.5, 0.5]))


class TestFbmCov:
    def test_unit_variance(self):
        assert fbm_cov(0.7, 1.0, 1.0) == pytest.approx(1.0)

    def test_brownian_limit_is_min(self):
        # H = 1/2 reduces the formula to min(s, t); code sanity only.
        assert fbm_cov(0.5, 0.3, 0.8) == pytest.approx(0.3)
        assert fbm_cov(0.5, 1.2, 0.7) == pytest.approx(0.7)

    def test_value_at_h07(self):
        assert fbm_cov(0.7, 1.0, 2.0) == pytest.approx(2.0**0.4)


class TestSampling:
    def test_deterministic(self):
        grid = uniform_grid(0.7, 1.0, 16)
        a, xa = fbm_sample(grid, np.random.default_rng(5))
        b, xb = fbm_sample(grid, np.random.default_rng(5))
        assert np.array_equal(a, b) and np.array_equal(xa, xb)

    def test_terminal_variance(self):
        grid = uniform_grid(0.7, 1.0, 32)
        paths, _ = fbm_sample(grid, np.random.default_rng(6), size=100_000)
        terminal_sq = paths[:, -1] ** 2
        se = np.std(terminal_sq, ddof=1) / math.sqrt(len(terminal_sq))
        assert np.mean(terminal_sq) == pytest.approx(1.0, abs=3.0 * se)

    def test_two_point_covariance(self):
        grid = uniform_grid(0.8, 2.0, 40)
        paths, _ = fbm_sample(grid, np.random.default_rng(7), size=100_000)
        i, j = 10, 30
        prods = paths[:, i] * paths[:, j]
        se = np.std(prods, ddof=1) / math.sqrt(len(prods))
        target = fbm_cov(0.8, grid.times[i], grid.times[j])
        assert np.mean(prods) == pytest.approx(target, abs=3.0 * se)

    def test_marginal_variances_match_power_law(self):
        grid = uniform_grid(0.7, 1.0, 16)
        paths, _ = fbm_sample(grid, np.random.default_rng(8), size=100_000)
        for k in (4, 8, 16):
            sq = paths[:, k] ** 2
            se = np.std(sq, ddof=1) / math.sqrt(len(sq))
            assert np.mean(sq) == pytest.approx(
                grid.times[k] ** 1.4, abs=3.0 * se)


class TestTimeMajorKernels:
    @pytest.mark.parametrize("lead", [(), (1,), (7,), (3, 5), (4, 64), (2400,)])
    @pytest.mark.parametrize("drift", [TANH_DRIFT, NEG_TANH_DRIFT, ZERO_DRIFT],
                             ids=["tanh", "neg-tanh", "zero"])
    def test_bit_identical_to_path_major(self, lead, drift):
        # The oracle runs on the flattened (paths, m) rows: a BLAS product over
        # a stack of small matrices may round differently from one over their
        # concatenation, and the time-major kernel is the single product.  With
        # OpenBLAS, L xi^T and xi L^T round alike for these path counts (fewer
        # than 129, or a multiple of 8); see test_product_edge_rounding.
        grid = uniform_grid(0.7, 1.0, 128)
        space = fbm_space(grid)
        xi = np.random.default_rng(40).standard_normal(lead + (grid.n_steps,))
        expected = path_major_paths(space, xi.reshape(-1, grid.n_steps))
        paths = paths_from_whitened(space, xi)
        assert paths.shape == lead + (grid.n_steps + 1,)
        assert np.array_equal(paths, expected.reshape(paths.shape))
        values = euler_solve(0.3, drift, paths, grid.times)
        assert np.array_equal(values, path_major_euler(0.3, drift, expected,
                                                       grid.times).reshape(values.shape))

    def test_product_edge_rounding(self):
        # With the paths as the product's row dimension, OpenBLAS's edge
        # kernels can round L xi^T in the last bit unlike xi L^T (300 paths:
        # not a multiple of 8).  The cumulative sum and the Euler step add no
        # difference of their own.
        grid = uniform_grid(0.7, 1.0, 128)
        space = fbm_space(grid)
        xi = np.random.default_rng(42).standard_normal((300, grid.n_steps))
        paths = paths_from_whitened(space, xi)
        assert np.allclose(paths, path_major_paths(space, xi), rtol=0.0, atol=1e-14)
        increments = (space.whitener @ xi.T).T
        assert np.array_equal(paths[:, 1:], np.cumsum(increments, axis=-1))
        row_major = np.ascontiguousarray(paths)
        assert np.array_equal(euler_solve(0.3, TANH_DRIFT, paths, grid.times),
                              path_major_euler(0.3, TANH_DRIFT, row_major, grid.times))

    def test_time_steps_are_contiguous(self):
        grid = uniform_grid(0.7, 1.0, 16)
        space = fbm_space(grid)
        xi = np.random.default_rng(41).standard_normal((50, 16))
        paths = paths_from_whitened(space, xi)
        values = euler_solve(0.0, TANH_DRIFT, paths, grid.times)
        for arr in (paths, values, _cumulative_bprime(values, TANH_DRIFT, grid.times)):
            assert np.moveaxis(arr, -1, 0).flags.c_contiguous


class TestTanhDrift:
    @pytest.mark.parametrize("drift, sign", [(TANH_DRIFT, 1.0), (NEG_TANH_DRIFT, -1.0)],
                             ids=["tanh", "neg-tanh"])
    def test_b_prime_is_the_sech_squared_expression(self, drift, sign):
        # Bit for bit the expression sign / cosh(x)**2, also where cosh
        # overflows to inf and the derivative reads 0.
        x = np.random.default_rng(11).standard_normal((129, 1200)) * 3.0
        x[0, :4] = [800.0, -800.0, 710.5, -0.0]
        with np.errstate(over="ignore"):
            expected = sign / np.cosh(x) ** 2
            got = drift.b_prime(x)
            strided = drift.b_prime(x[:, :5].T)
        assert np.array_equal(got, expected)
        assert np.array_equal(got[0, :2], [0.0, 0.0])
        assert np.array_equal(strided, expected[:, :5].T)


class TestEuler:
    def test_zero_drift_reproduces_path(self):
        grid = uniform_grid(0.7, 1.0, 32)
        paths, _ = fbm_sample(grid, np.random.default_rng(9), size=10)
        values = euler_solve(1.5, ZERO_DRIFT, paths, grid.times)
        assert np.allclose(values, 1.5 + paths)

    def test_constant_drift_adds_linear_ramp(self):
        grid = uniform_grid(0.7, 1.0, 32)
        drift = DriftSpec(b=lambda x: 2.0 * np.ones_like(x),
                          b_prime=lambda x: np.zeros_like(x))
        paths, _ = fbm_sample(grid, np.random.default_rng(10), size=10)
        values = euler_solve(0.0, drift, paths, grid.times)
        assert np.allclose(values, paths + 2.0 * grid.times, atol=1e-12)

    def test_ou_variance_near_brownian_limit(self):
        # b(x) = -x with H near 1/2: Var F_1 should sit near (1 - e^{-2})/2.
        grid = uniform_grid(0.51, 1.0, 256)
        drift = DriftSpec(b=lambda x: -x, b_prime=lambda x: -np.ones_like(x))
        # Exact variance of the Euler scheme: F_m = sum_k (1-dt)^{m-1-k} dB_k.
        dts = np.diff(grid.times)
        m = dts.size
        coeff = (1.0 - dts[0]) ** np.arange(m - 1, -1, -1)
        exact_discrete = float(coeff @ increment_gram(grid) @ coeff)
        paths, _ = fbm_sample(grid, np.random.default_rng(11), size=60_000)
        values = euler_solve(0.0, drift, paths, grid.times)
        sq = values[:, -1] ** 2
        se = np.std(sq, ddof=1) / math.sqrt(len(sq))
        assert np.mean(sq) == pytest.approx(exact_discrete, abs=3.0 * se)
        assert exact_discrete == pytest.approx((1.0 - math.exp(-2.0)) / 2.0, rel=0.05)


class TestSdeMalliavin:
    def test_zero_drift_gives_indicator(self):
        grid = uniform_grid(0.7, 1.0, 8)
        paths, _ = fbm_sample(grid, np.random.default_rng(12), size=3)
        values = euler_solve(0.0, ZERO_DRIFT, paths, grid.times)
        d = sde_malliavin(values, ZERO_DRIFT, grid.times)
        expected = np.triu(np.ones((9, 9)))
        assert np.allclose(d, expected)

    def test_constant_bprime_gives_exponential(self):
        grid = uniform_grid(0.7, 1.0, 8)
        drift = DriftSpec(b=lambda x: 0.5 * x, b_prime=lambda x: 0.5 * np.ones_like(x))
        paths, _ = fbm_sample(grid, np.random.default_rng(13), size=2)
        values = euler_solve(0.0, drift, paths, grid.times)
        d = sde_malliavin(values, drift, grid.times)
        t = grid.times
        expected = np.exp(0.5 * (t[None, :] - t[:, None])) * np.triu(np.ones((9, 9)))
        assert np.allclose(d, expected, atol=1e-12)

    def test_matches_euler_gradient_oracle(self):
        grid = uniform_grid(0.7, 1.0, 256)
        paths, _ = fbm_sample(grid, np.random.default_rng(14), size=4)
        values = euler_solve(0.0, TANH_DRIFT, paths, grid.times)
        d = sde_malliavin(values, TANH_DRIFT, grid.times)
        for t_idx in (64, 192, 256):
            oracle = euler_gradient_oracle(values, TANH_DRIFT, grid.times, t_idx)
            # Increment j corresponds to kernel point u = t_{j+1}.
            approx = d[..., 1 : t_idx + 1, t_idx]
            rel = np.abs(approx - oracle[..., :t_idx]) / np.abs(oracle[..., :t_idx])
            assert np.max(rel) <= 0.05

    def test_discrepancy_decreases_with_refinement(self):
        errs = []
        for m in (64, 256):
            grid = uniform_grid(0.7, 1.0, m)
            paths, _ = fbm_sample(grid, np.random.default_rng(15), size=4)
            values = euler_solve(0.0, TANH_DRIFT, paths, grid.times)
            d = sde_malliavin(values, TANH_DRIFT, grid.times)
            oracle = euler_gradient_oracle(values, TANH_DRIFT, grid.times, m)
            approx = d[..., 1 : m + 1, m]
            errs.append(float(np.max(np.abs(approx - oracle) / np.abs(oracle))))
        assert errs[1] < errs[0]


class TestDeltaFbm:
    def test_zero_drift_reproduces_power_law(self):
        grid = uniform_grid(0.7, 1.0, 64)
        for s_idx, t_idx in ((0, 64), (16, 48), (32, 40)):
            [est] = delta_fbm(grid, ZERO_DRIFT, [(s_idx, t_idx)],
                              cfg=MehlerConfig(seed=16, quad_nodes=8), n_outer=8)
            assert est.std_error <= 1e-10
            gap = grid.times[t_idx] - grid.times[s_idx]
            assert est.value == pytest.approx(gap**1.4, rel=1e-10)

    def test_equal_indices_give_zero(self):
        grid = uniform_grid(0.7, 1.0, 16)
        [est] = delta_fbm(grid, TANH_DRIFT, [(5, 5)], cfg=MehlerConfig(seed=17),
                          n_outer=4)
        assert est.value == 0.0

    def test_increasing_drift_dominates_reference(self):
        grid = uniform_grid(0.7, 1.0, 64)
        for s_idx, t_idx in ((8, 40), (0, 64)):
            [est] = delta_fbm(grid, TANH_DRIFT, [(s_idx, t_idx)],
                              cfg=MehlerConfig(seed=18, quad_nodes=16),
                              n_outer=300)
            gap = grid.times[t_idx] - grid.times[s_idx]
            assert est.value >= gap**1.4 - 3.0 * est.std_error

    def test_workers_deterministic(self):
        grid = uniform_grid(0.7, 1.0, 32)
        cfg = MehlerConfig(seed=19, quad_nodes=8)
        [a] = delta_fbm(grid, TANH_DRIFT, [(4, 20)], cfg=cfg, n_outer=64, workers=2)
        [b] = delta_fbm(grid, TANH_DRIFT, [(4, 20)], cfg=cfg, n_outer=64, workers=2)
        assert a.value == b.value and a.std_error == b.std_error

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pairs_share_one_pass(self, workers):
        grid = uniform_grid(0.7, 1.0, 32)
        cfg = MehlerConfig(seed=20, quad_nodes=8, mc_samples=256)
        pairs = [(4, 20), (0, 32), (10, 12)]
        shared = delta_fbm(grid, TANH_DRIFT, pairs, cfg=cfg, n_outer=16, seed=3,
                           workers=workers)
        alone = [delta_fbm(grid, TANH_DRIFT, [pair], cfg=cfg, n_outer=16, seed=3,
                           workers=workers)[0] for pair in pairs]
        assert shared == alone

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("drift", [TANH_DRIFT, ZERO_DRIFT], ids=["tanh", "zero"])
    def test_gram_projection_matches_whitened_reference(self, drift, workers):
        grid = uniform_grid(0.7, 1.0, 32)
        cfg = MehlerConfig(seed=21, quad_nodes=8, mc_samples=256)
        pairs = [(0, 32), (0, 9), (4, 20), (10, 10), (0, 0), (20, 32)]
        got = delta_fbm(grid, drift, pairs, cfg=cfg, n_outer=16, seed=5, workers=workers)
        ref = delta_whitened_reference(grid, drift, pairs, cfg, 16, 5, workers)
        for g, r in zip(got, ref):
            assert g.value == pytest.approx(r.value, rel=1e-12)
            assert g.std_error == pytest.approx(r.std_error, rel=1e-6,
                                                abs=1e-12 * abs(r.value))

    def test_bad_pair_rejected(self):
        grid = uniform_grid(0.7, 1.0, 8)
        with pytest.raises(ValueError):
            delta_fbm(grid, TANH_DRIFT, [(0, 8), (5, 4)], n_outer=2)


class TestDerivativeDifference:
    PAIRS = ((0, 8), (3, 7), (4, 4), (0, 0), (8, 8))

    def test_zero_exponent_gives_the_exp_bits(self):
        c = np.zeros((9, 3, 2))
        c[2, 1, 0] = c[5, 0, 1] = c[8, 2, 1] = c[1, 0, 0] = -0.0
        assert np.signbit(c).sum() == 4 and fbm._zero_exponent(c)
        for s_idx, t_idx in self.PAIRS:
            direct = fbm._derivative_difference(c, s_idx, t_idx, zero=True)
            via_exp = fbm._derivative_difference(c, s_idx, t_idx, zero=False)
            assert direct.shape == via_exp.shape == (t_idx, 3, 2)
            assert direct.tobytes() == via_exp.tobytes()

    @pytest.mark.parametrize("entry", [1e-300, -2.5, np.nan])
    def test_nonzero_exponent_takes_exp(self, entry):
        c = np.zeros((9, 4))
        c[6, 1] = entry
        assert not fbm._zero_exponent(c)
        for s_idx, t_idx in self.PAIRS:
            want = np.exp(c[t_idx] - c[1 : t_idx + 1])
            want[:s_idx] -= np.exp(c[s_idx] - c[1 : s_idx + 1])
            got = fbm._derivative_difference(c, s_idx, t_idx, zero=False)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("drift, zero", [(ZERO_DRIFT, True), (TANH_DRIFT, False)],
                             ids=["zero", "tanh"])
    def test_delta_tests_each_exponent_once(self, monkeypatch, drift, zero):
        # One test per cumulative() result (the outer paths, then one per
        # node), and every pair's derivative reads its answer.
        tested, flags = [], []
        is_zero, difference = fbm._zero_exponent, fbm._derivative_difference
        monkeypatch.setattr(fbm, "_zero_exponent",
                            lambda c: tested.append(c.shape) or is_zero(c))
        monkeypatch.setattr(fbm, "_derivative_difference",
                            lambda c, s, t, z, indicator: flags.append(z)
                            or difference(c, s, t, z, indicator))
        cfg = MehlerConfig(seed=4, quad_nodes=4, mc_samples=32)
        pairs = [(0, 8), (2, 5), (3, 3)]
        delta_fbm(uniform_grid(0.7, 1.0, 8), drift, pairs, cfg=cfg, n_outer=4)
        assert len(tested) == 1 + cfg.quad_nodes
        assert flags == [zero] * (len(pairs) * len(tested))

    def test_driftless_indicator_is_built_once_per_chunk(self, monkeypatch):
        built = []
        original = fbm._indicator

        def counted(s_idx, t_idx, shape):
            built.append((s_idx, t_idx, len(shape)))
            return original(s_idx, t_idx, shape)

        monkeypatch.setattr(fbm, "_indicator", counted)
        cfg = MehlerConfig(seed=5, quad_nodes=4, mc_samples=32)
        pairs = [(0, 8), (2, 5), (3, 3)]
        run = partial(delta_fbm, uniform_grid(0.7, 1.0, 8), ZERO_DRIFT, pairs, cfg=cfg,
                      n_outer=6, seed=2, workers=2)
        cached = run()
        # Per chunk and pair: one indicator for the outer paths (one lead axis)
        # and one for their inner copies (two).
        assert sorted(built) == sorted([(s, t, lead) for s, t in pairs
                                        for lead in (1, 2)] * 2)
        built.clear()
        monkeypatch.setattr(fbm, "functools", SimpleNamespace(cache=lambda fn: fn))
        fresh = run()
        assert len(built) == 2 * len(pairs) * (1 + cfg.quad_nodes)
        assert cached == fresh


class TestDeltaAgainstClosedForms:
    def test_gram_conjugation_identity(self):
        # The whitened-coordinate dot product equals the increment-space
        # quadratic form with the Gram matrix: (a L) . (b L) = a G b.
        grid = uniform_grid(0.7, 1.0, 24)
        space = fbm_space(grid)
        rng = np.random.default_rng(30)
        a = rng.standard_normal(24)
        b = rng.standard_normal(24)
        lhs = float((a @ space.whitener) @ (b @ space.whitener))
        rhs = float(a @ increment_gram(grid) @ b)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_linear_drift_matches_quadratic_form(self):
        # For b(x) = c x the Euler solution is affine in the increments, so
        # Delta is deterministic: a' G a with a_j the coefficient difference
        # prod_{r > j} (1 + c dt). The estimator's trapezoid exponent matches
        # that product to O(dt).
        c = 0.5
        m = 64
        grid = uniform_grid(0.7, 1.0, m)
        drift = DriftSpec(b=lambda x: c * x, b_prime=lambda x: c * np.ones_like(x))
        s_idx, t_idx = 16, 48
        dts = np.diff(grid.times)

        def euler_coeffs(t):
            a = np.zeros(m)
            for j in range(t):
                a[j] = np.prod(1.0 + c * dts[j + 1 : t])
            return a

        a = euler_coeffs(t_idx) - euler_coeffs(s_idx)
        exact = float(a @ increment_gram(grid) @ a)
        [est] = delta_fbm(grid, drift, [(s_idx, t_idx)],
                          cfg=MehlerConfig(seed=31, quad_nodes=8), n_outer=8)
        assert est.std_error <= 1e-9  # affine functional: deterministic
        assert est.value == pytest.approx(exact, rel=0.01)


class TestSupComparison:
    def test_zero_drift_equal_within_errors(self):
        grid = uniform_grid(0.7, 1.0, 64)
        sde, driving = sup_comparison(grid, ZERO_DRIFT, n_paths=20_000, seed=20)
        gap = sde.value - driving.value
        assert abs(gap) <= 3.0 * math.hypot(sde.std_error, driving.std_error) + 0.01

    def test_increasing_drift(self):
        grid = uniform_grid(0.7, 1.0, 64)
        sde, driving = sup_comparison(grid, TANH_DRIFT, n_paths=30_000, seed=21)
        assert lower("sup", sde, driving).verdict

    def test_decreasing_drift_reverses(self):
        grid = uniform_grid(0.7, 1.0, 64)
        sde, driving = sup_comparison(grid, NEG_TANH_DRIFT, n_paths=30_000, seed=22)
        assert upper("sup", sde, driving).verdict

    @pytest.mark.parametrize("n_paths", [
        1, BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + BLOCK // 2 - 1,
        BLOCK + BLOCK // 2, 2 * BLOCK + 7, 50_000, 100_000])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("drift", [ZERO_DRIFT, TANH_DRIFT, NEG_TANH_DRIFT],
                             ids=["zero", "tanh", "neg-tanh"])
    def test_blocks_match_one_block(self, drift, workers, n_paths):
        grid = uniform_grid(0.7, 1.0, 16)
        assert (sup_comparison(grid, drift, n_paths=n_paths, seed=25, workers=workers)
                == one_block_sup_comparison(grid, drift, n_paths, 25, workers))

    # m = 128 as in the fbm-sde acceptance config; 4096 + 3 ends in a merged tail
    @pytest.mark.parametrize("n_paths, workers",
                             [(BLOCK + 3, 1), (50_000, 1), (100_000, 2)])
    def test_blocks_match_one_block_on_the_benchmark_grid(self, n_paths, workers):
        grid = uniform_grid(0.7, 1.0, 128)
        assert (sup_comparison(grid, TANH_DRIFT, n_paths=n_paths, seed=116,
                               workers=workers)
                == one_block_sup_comparison(grid, TANH_DRIFT, n_paths, 116, workers))

    @pytest.mark.parametrize("n_paths", [BLOCK + 3, BLOCK + 5, 50_000])
    def test_block_paths_are_the_one_block_paths(self, monkeypatch, n_paths):
        # The maxima can hide a last-bit difference in a few paths, so the
        # paths are compared themselves: with m = 128 a tail of 3 or 5 paths
        # synthesized on its own rounds differently.
        blocks = []

        def recording(space, xi, out=None):
            paths = paths_from_whitened(space, xi, out)
            blocks.append(paths.copy())
            return paths

        monkeypatch.setattr(fbm, "paths_from_whitened", recording)
        grid = uniform_grid(0.7, 1.0, 128)
        space = fbm_space(grid)
        sup_comparison(grid, ZERO_DRIFT, n_paths=n_paths, seed=28)

        def one_block(chunk, rng):
            return fbm_sample(grid, rng, size=chunk, space=space)[0]

        pilot, main = blocks[:len(blocks) // 2], blocks[len(blocks) // 2:]
        for label, got in ((0xF1A, pilot), (0xF1B, main)):
            [expected] = run_chunked(n_paths, 1, 28, label, one_block)
            assert np.array_equal(np.concatenate(got), expected)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pilot_sums_block_by_block(self, monkeypatch, workers):
        # The pilot's sum over a chunk's paths adds the per-block sums of the
        # one-block solution in block order, bit for bit; rounding there is
        # mostly lost in the division by n_paths, so the estimates alone would
        # not show it.  It stays within 1e-12 of numpy's one-block sum.
        results = {}

        def recording(*args):
            label = args[3]
            results[label] = run_chunked(*args)
            return results[label]

        monkeypatch.setattr(fbm, "run_chunked", recording)
        grid = uniform_grid(0.7, 1.0, 128)
        space = fbm_space(grid)
        sup_comparison(grid, TANH_DRIFT, n_paths=50_000, seed=27, workers=workers)

        def one_block(chunk, rng):
            paths = fbm_sample(grid, rng, size=chunk, space=space)[0]
            values = euler_solve(0.0, TANH_DRIFT, paths, grid.times)
            total = np.zeros(grid.n_steps + 1)
            for start, stop in block_bounds(chunk):
                total += values[start:stop].sum(axis=0)
            return total, values.sum(axis=0)

        expected = run_chunked(50_000, workers, 27, 0xF1A, one_block)
        for got, (block_order, one_sum) in zip(results[0xF1A], expected, strict=True):
            assert np.array_equal(got, block_order)
            assert np.all(np.abs(got - one_sum) <= 1e-12 * np.abs(one_sum))

    def test_pilot_holds_one_block(self):
        # m = 128 and 50 000 paths as in the fbm-sde acceptance config: a
        # chunk-sized buffer of solutions alone would take 51.6 MB.
        grid = uniform_grid(0.7, 1.0, 128)
        peak = traced_peak_mb(sup_comparison, grid, TANH_DRIFT, n_paths=50_000,
                              seed=29)
        assert peak < 25.0

    @pytest.mark.parametrize("n_paths, bounds", [
        (1, [(0, 1)]),
        (BLOCK + BLOCK // 2 - 1, [(0, BLOCK + BLOCK // 2 - 1)]),
        (BLOCK + BLOCK // 2,
         [(0, BLOCK), (BLOCK, BLOCK + BLOCK // 2)]),
        (2 * BLOCK + 7, [(0, BLOCK), (BLOCK, 2 * BLOCK + 7)])])
    def test_block_layout(self, n_paths, bounds):
        # blocks start at multiples of BLOCK; a tail shorter than half a
        # block joins the block before it
        assert block_bounds(n_paths) == bounds

    def test_chunk_is_solved_block_by_block(self, monkeypatch):
        sizes = []

        def counting(x0, drift, fbm_paths, times, out=None):
            sizes.append(len(fbm_paths))
            return euler_solve(x0, drift, fbm_paths, times, out)

        monkeypatch.setattr(fbm, "euler_solve", counting)
        sup_comparison(uniform_grid(0.7, 1.0, 16), TANH_DRIFT, n_paths=3 * BLOCK,
                       seed=26)
        # three blocks for the pilot, then three for the main run
        assert sizes == [BLOCK] * 6

    def test_grid_refinement_within_band(self):
        # Doubling the grid changes E[max B^H] by less than the 3-SE band.
        estimates = []
        for m, seed in ((128, 23), (256, 24)):
            grid = uniform_grid(0.7, 1.0, m)
            space = fbm_space(grid)
            rng = np.random.default_rng(seed)
            maxima = []
            for _ in range(10):
                paths, _ = fbm_sample(grid, rng, size=10_000, space=space)
                maxima.append(paths.max(axis=-1))
            maxima = np.concatenate(maxima)
            estimates.append((float(np.mean(maxima)),
                              float(np.std(maxima, ddof=1) / math.sqrt(len(maxima)))))
        (m1, se1), (m2, se2) = estimates
        assert abs(m2 - m1) <= 3.0 * math.hypot(se1, se2)
