import math

import numpy as np
import pytest

from wienergamma.cli import lower, upper
from wienergamma.engine import MehlerConfig
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
    sup_comparison,
    uniform_grid,
)


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


class TestEuler:
    def test_zero_drift_reproduces_path(self):
        grid = uniform_grid(0.7, 1.0, 32)
        paths, _ = fbm_sample(grid, np.random.default_rng(9), size=10)
        values = euler_solve(1.5, ZERO_DRIFT, paths, grid.times)
        assert np.allclose(values, 1.5 + paths)

    def test_constant_drift_adds_linear_ramp(self):
        grid = uniform_grid(0.7, 1.0, 32)
        drift = DriftSpec(b=lambda x: 2.0 * np.ones_like(x),
                          b_prime=lambda x: np.zeros_like(x),
                          lipschitz_bound=1.0)
        paths, _ = fbm_sample(grid, np.random.default_rng(10), size=10)
        values = euler_solve(0.0, drift, paths, grid.times)
        assert np.allclose(values, paths + 2.0 * grid.times, atol=1e-12)

    def test_ou_variance_near_brownian_limit(self):
        # b(x) = -x with H near 1/2: Var F_1 should sit near (1 - e^{-2})/2.
        grid = uniform_grid(0.51, 1.0, 256)
        drift = DriftSpec(b=lambda x: -x, b_prime=lambda x: -np.ones_like(x),
                          lipschitz_bound=1.0)
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
        drift = DriftSpec(b=lambda x: 0.5 * x, b_prime=lambda x: 0.5 * np.ones_like(x),
                          lipschitz_bound=0.5)
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
            est = delta_fbm(grid, ZERO_DRIFT, s_idx, t_idx,
                            cfg=MehlerConfig(seed=16, quad_nodes=8), n_outer=8)
            assert est.std_error <= 1e-10
            assert est.value == pytest.approx(est.reference, rel=1e-10)
            gap = grid.times[t_idx] - grid.times[s_idx]
            assert est.reference == pytest.approx(gap**1.4)

    def test_equal_indices_give_zero(self):
        grid = uniform_grid(0.7, 1.0, 16)
        est = delta_fbm(grid, TANH_DRIFT, 5, 5, cfg=MehlerConfig(seed=17),
                        n_outer=4)
        assert est.value == 0.0

    def test_increasing_drift_dominates_reference(self):
        grid = uniform_grid(0.7, 1.0, 64)
        for s_idx, t_idx in ((8, 40), (0, 64)):
            est = delta_fbm(grid, TANH_DRIFT, s_idx, t_idx,
                            cfg=MehlerConfig(seed=18, quad_nodes=16),
                            n_outer=300)
            assert est.value >= est.reference - 3.0 * est.std_error

    def test_workers_deterministic(self):
        grid = uniform_grid(0.7, 1.0, 32)
        cfg = MehlerConfig(seed=19, quad_nodes=8)
        a = delta_fbm(grid, TANH_DRIFT, 4, 20, cfg=cfg, n_outer=64, workers=2)
        b = delta_fbm(grid, TANH_DRIFT, 4, 20, cfg=cfg, n_outer=64, workers=2)
        assert a.value == b.value and a.std_error == b.std_error


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
        drift = DriftSpec(b=lambda x: c * x, b_prime=lambda x: c * np.ones_like(x),
                          lipschitz_bound=c)
        s_idx, t_idx = 16, 48
        dts = np.diff(grid.times)

        def euler_coeffs(t):
            a = np.zeros(m)
            for j in range(t):
                a[j] = np.prod(1.0 + c * dts[j + 1 : t])
            return a

        a = euler_coeffs(t_idx) - euler_coeffs(s_idx)
        exact = float(a @ increment_gram(grid) @ a)
        est = delta_fbm(grid, drift, s_idx, t_idx,
                        cfg=MehlerConfig(seed=31, quad_nodes=8), n_outer=8)
        assert est.std_error <= 1e-9  # affine functional: deterministic
        assert est.value == pytest.approx(exact, rel=0.01)


class TestSupComparison:
    def test_zero_drift_equal_within_errors(self):
        grid = uniform_grid(0.7, 1.0, 64)
        report = sup_comparison(grid, ZERO_DRIFT, n_paths=20_000, seed=20)
        gap = report.e_max_centered_sde - report.e_max_fbm
        assert abs(gap) <= 3.0 * report.combined_se + 0.01

    def test_increasing_drift(self):
        grid = uniform_grid(0.7, 1.0, 64)
        report = sup_comparison(grid, TANH_DRIFT, n_paths=30_000, seed=21)
        assert lower("sup", report.e_max_centered_sde, report.e_max_fbm,
                     report.combined_se).verdict

    def test_decreasing_drift_reverses(self):
        grid = uniform_grid(0.7, 1.0, 64)
        report = sup_comparison(grid, NEG_TANH_DRIFT, n_paths=30_000, seed=22)
        assert upper("sup", report.e_max_centered_sde, report.e_max_fbm,
                     report.combined_se).verdict

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
