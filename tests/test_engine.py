import math

import numpy as np
import pytest

from wienergamma.chaos import expectation_of_product, form, gamma_oracle, oracle_suite
from wienergamma.cli import close, upper
from wienergamma.core import Functional, Hermite, build_space, sample, w
from wienergamma.engine import (
    CenteringError,
    MehlerConfig,
    RunningMoments,
    capital_delta,
    coupled_gamma_values,
    gamma_pointwise,
    gauss_legendre_unit,
    ibp_residual,
    inner_copies_per_point,
    mehler_integral,
    mehler_shift,
    poincare_check,
)


@pytest.fixture(scope="module")
def space4():
    return build_space(4)


class ScalarMoments(RunningMoments):
    """One-value-at-a-time Welford update, the reference for the batch merge."""

    def add(self, x: float):
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (x - self.mean)


IDENTITY = (lambda x: x, lambda x: np.ones_like(x))
SQUARE = (lambda x: x**2, lambda x: 2.0 * x)


def ibp_passed(lhs, rhs) -> bool:
    return close("ibp", lhs.value, rhs.value, math.hypot(lhs.std_error, rhs.std_error)).verdict


def poincare_passed(lhs, rhs) -> bool:
    return upper("poincare", lhs.value, rhs.value,
                 math.hypot(lhs.std_error, rhs.std_error)).verdict


class TestRunningMoments:
    def test_matches_numpy(self):
        rng = np.random.default_rng(1)
        xs = rng.standard_normal(1_000) * 3.0 + 1.0
        acc = ScalarMoments()
        for x in xs:
            acc.add(float(x))
        assert acc.mean == pytest.approx(np.mean(xs), rel=1e-12)
        assert acc.variance == pytest.approx(np.var(xs, ddof=1), rel=1e-10)

    def test_batched_merge_matches_numpy(self):
        rng = np.random.default_rng(2)
        xs = rng.standard_normal(10_000)
        acc = RunningMoments()
        for chunk in np.array_split(xs, 7):
            acc.add_batch(chunk)
        assert acc.mean == pytest.approx(np.mean(xs), rel=1e-12)
        assert acc.variance == pytest.approx(np.var(xs, ddof=1), rel=1e-10)
        assert acc.std_error == pytest.approx(
            np.std(xs, ddof=1) / math.sqrt(xs.size), rel=1e-10
        )


class TestMehlerShift:
    def test_endpoints(self):
        a = np.array([1.0, 2.0])
        b = np.array([-3.0, 0.5])
        assert np.allclose(mehler_shift(a, b, 1.0), a)
        assert np.allclose(mehler_shift(a, b, 0.0), b)

    def test_u_out_of_range(self):
        with pytest.raises(ValueError):
            mehler_shift(np.zeros(2), np.zeros(2), 1.5)

    def test_shifted_law_is_standard_normal(self):
        rng = np.random.default_rng(3)
        n = 100_000
        a = rng.standard_normal(n)
        b = rng.standard_normal(n)
        z = mehler_shift(a, b, 0.6)
        se_mean = np.std(z, ddof=1) / math.sqrt(n)
        assert abs(np.mean(z)) < 3.0 * se_mean
        sq = z**2
        se_var = np.std(sq, ddof=1) / math.sqrt(n)
        assert abs(np.mean(sq) - 1.0) < 3.0 * se_var


class TestMehlerIntegral:
    def test_point_broadcast_matches_per_node_shift(self):
        # One (dim,) point against (per, dim) inner copies: the broadcast copy
        # must give the same bits as shifting the point at every node.
        rng = np.random.default_rng(4)
        point, inner = rng.standard_normal(3), rng.standard_normal((10, 3))
        cfg = MehlerConfig(quad_nodes=6)

        def term(y):
            return np.sin(y).sum(axis=-1)

        nodes, weights = gauss_legendre_unit(cfg.quad_nodes)
        expected = 0.0
        for u, wt in zip(nodes, weights):
            expected += wt * term(mehler_shift(point, inner, u))
        assert np.array_equal(mehler_integral(point, inner, cfg, term), expected)


class TestGammaPointwise:
    def test_first_chaos_deterministic(self, space4):
        f = Functional(space4, w(0))
        est = gamma_pointwise(f, f, np.array([0.3, 0, 0, 0.0]), MehlerConfig(seed=1))
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert est.std_error <= 1e-10

    def test_orthogonal_coordinates(self, space4):
        f = Functional(space4, w(0))
        g = Functional(space4, w(1))
        est = gamma_pointwise(f, g, np.zeros(4), MehlerConfig(seed=1))
        assert est.value == pytest.approx(0.0, abs=1e-12)
        assert est.std_error <= 1e-10

    def test_h2_matches_chaos_value(self, space4):
        # Gamma for F = G = H2(w0) is 2*omega_0^2 (here 4.5 at omega_0 = 1.5).
        f = Functional(space4, Hermite(2, w(0)))
        omega = np.array([1.5, 0.0, 0.0, 0.0])
        est = gamma_pointwise(f, f, omega, MehlerConfig(seed=2, mc_samples=4096))
        assert est.value == pytest.approx(4.5, abs=max(3 * est.std_error, 1e-9))

    def test_h2_without_antithetic_has_noise(self, space4):
        f = Functional(space4, Hermite(2, w(0)))
        omega = np.array([1.5, 0.0, 0.0, 0.0])
        plain = gamma_pointwise(f, f, omega,
                                MehlerConfig(seed=2, mc_samples=4096, antithetic=False))
        anti = gamma_pointwise(f, f, omega, MehlerConfig(seed=2, mc_samples=4096))
        assert plain.std_error > anti.std_error
        combined = math.hypot(plain.std_error, anti.std_error)
        assert abs(plain.value - anti.value) <= 3.0 * combined + 1e-12

    def test_engine_agrees_with_oracle(self, space4):
        rng = np.random.default_rng(10)
        cfg = MehlerConfig(quad_nodes=48, mc_samples=8192, seed=4)
        pts = sample(space4, rng, 6)
        for name, f, g in oracle_suite(space4)[:6]:
            for k in range(3):
                est = gamma_pointwise(f, g, pts[k], cfg)
                exact = float(gamma_oracle(f, g, pts[k]))
                tol = max(0.01 * abs(exact), 3.0 * est.std_error, 1e-9)
                assert abs(est.value - exact) <= tol, name

    @pytest.mark.parametrize("antithetic", [True, False])
    def test_unbiased_against_exact_product_expectation(self, space4, antithetic):
        # Averaging Gamma over outer points reproduces E[FG] for centered forms.
        rng = np.random.default_rng(20)
        cfg = MehlerConfig(quad_nodes=24, mc_samples=4096, antithetic=antithetic, seed=5)
        for name, f, g in oracle_suite(space4)[:8]:
            pts = sample(space4, rng, 4000)
            vals = coupled_gamma_values(f, g, pts, cfg, rng)
            se = np.std(vals, ddof=1) / math.sqrt(len(vals))
            expected = expectation_of_product(f, g)
            assert abs(np.mean(vals) - expected) <= 3.0 * se + 1e-12, name


class TestMinusDlGradient:
    def test_h2_estimate_is_exact_with_antithetic_pairs(self, space4):
        # -D L^{-1} H2(w0) has gradient x0 * e0; the linear-in-noise part of
        # the shifted gradient cancels exactly across an antithetic pair.
        from wienergamma.engine import minus_dl_gradient_estimates

        f = Functional(space4, Hermite(2, w(0)))
        rng = np.random.default_rng(77)
        pts = sample(space4, rng, 50)
        est = minus_dl_gradient_estimates([f], pts, MehlerConfig(seed=3), rng)
        expected = np.zeros_like(pts)
        expected[:, 0] = pts[:, 0]
        assert np.allclose(est[0], expected, atol=1e-10)

    def test_linearity_across_components(self, space4):
        from wienergamma.engine import minus_dl_gradient_estimates

        f1 = Functional(space4, Hermite(2, w(0)))
        f2 = Functional(space4, Hermite(2, w(1)))
        rng = np.random.default_rng(78)
        pts = sample(space4, rng, 20)
        est = minus_dl_gradient_estimates([f1, f2], pts,
                                          MehlerConfig(seed=4), rng)
        assert np.allclose(est[0][:, 0], pts[:, 0], atol=1e-10)
        assert np.allclose(est[1][:, 1], pts[:, 1], atol=1e-10)


class TestCapitalDelta:
    def test_zero_for_equal_functionals(self, space4):
        f = Functional(space4, Hermite(3, w(1)))
        est = capital_delta(f, f, np.array([0.4, 1.0, 0, 0.0]), MehlerConfig(seed=6))
        assert est.value == pytest.approx(0.0, abs=1e-12)
        assert est.std_error <= 1e-12

    def test_first_chaos_gives_gram_distance(self):
        # For basis elements, Delta(s, t) = |h_t - h_s|^2 from the Gram matrix.
        gram = np.array([[1.0, 0.5], [0.5, 1.0]])
        space = build_space(2, gram=gram)
        left = space.whitener
        f_s = Functional(space, 1.0 * w(0) * left[0, 0])
        f_t = Functional(space, left[1, 0] * w(0) + left[1, 1] * w(1))
        est = capital_delta(f_s, f_t, np.zeros(2), MehlerConfig(seed=7))
        expected = gram[0, 0] + gram[1, 1] - 2 * gram[0, 1]
        assert est.value == pytest.approx(expected, abs=1e-12)
        assert est.std_error <= 1e-10

    def test_h2_difference(self, space4):
        # Delta between H2(w0) and H2(w1) is 2*(x0^2 + x1^2) by the chaos rule.
        f_s = Functional(space4, Hermite(2, w(0)))
        f_t = Functional(space4, Hermite(2, w(1)))
        omega = np.array([0.9, -1.2, 0.0, 0.0])
        est = capital_delta(f_s, f_t, omega, MehlerConfig(seed=8))
        expected = 2.0 * (0.9**2 + 1.2**2)
        assert est.value == pytest.approx(expected, abs=max(3 * est.std_error, 1e-9))

    def test_mean_delta_nonnegative(self, space4):
        # Delta can be negative pointwise; its mean cannot (it is E[(F_t-F_s)^2]).
        rng = np.random.default_rng(30)
        cfg = MehlerConfig(quad_nodes=16, mc_samples=2048, seed=9)
        from wienergamma.core import functional_difference

        f_s = Functional(space4, Hermite(2, w(0)))
        f_t = Functional(space4, Hermite(3, w(1)) * 0.5)
        diff = functional_difference(f_t, f_s)
        pts = sample(space4, rng, 3000)
        vals = coupled_gamma_values(diff, diff, pts, cfg, rng)
        se = np.std(vals, ddof=1) / math.sqrt(len(vals))
        assert np.mean(vals) >= -3.0 * se


class TestIbp:
    def test_identity_first_chaos(self, space4):
        f = Functional(space4, w(0))
        [(lhs, rhs)] = ibp_residual([IDENTITY], f, f, n_outer=20_000,
                                    cfg=MehlerConfig(seed=11))
        assert rhs.value == pytest.approx(1.0, abs=1e-12)  # Gamma == 1 exactly
        assert lhs.value == pytest.approx(1.0, abs=4 * lhs.std_error)
        assert ibp_passed(lhs, rhs)

    def test_identity_h2(self, space4):
        f = Functional(space4, Hermite(2, w(0)))
        [(lhs, rhs)] = ibp_residual([IDENTITY], f, f, n_outer=20_000,
                                    cfg=MehlerConfig(seed=12))
        assert lhs.value == pytest.approx(2.0, abs=4 * lhs.std_error)
        assert rhs.value == pytest.approx(2.0, abs=4 * rhs.std_error)
        assert ibp_passed(lhs, rhs)

    def test_square_odd_moment(self, space4):
        f = Functional(space4, w(0))
        [(lhs, rhs)] = ibp_residual([SQUARE], f, f, n_outer=20_000,
                                    cfg=MehlerConfig(seed=13))
        assert lhs.value == pytest.approx(0.0, abs=4 * lhs.std_error)
        assert ibp_passed(lhs, rhs)

    def test_phis_share_one_pass(self, space4):
        f = Functional(space4, Hermite(2, w(0)) + w(1))
        g = Functional(space4, w(0) * w(1))
        tanh = (np.tanh, lambda x: 1.0 / np.cosh(x) ** 2)
        cfg = MehlerConfig(seed=21, quad_nodes=8, mc_samples=512)
        shared = ibp_residual([SQUARE, tanh], f, g, n_outer=500, cfg=cfg, seed=5)
        alone = [ibp_residual([phis], f, g, n_outer=500, cfg=cfg, seed=5)[0]
                 for phis in (SQUARE, tanh)]
        assert shared == alone

    def test_noncentered_rejected(self, space4):
        f = Functional(space4, w(0))
        g = Functional(space4, w(0) + 5.0)
        with pytest.raises(CenteringError):
            ibp_residual([IDENTITY], f, g, n_outer=5_000, cfg=MehlerConfig(seed=14))

    def test_chaos_form_mean_checked_exactly(self, space4):
        # A shift of 0.01 is far inside 3 SE on 50 points; the exact mean
        # still rejects it.
        f = form(space4, (1.0, ((0, 1),)))
        g = form(space4, (1.0, ((1, 2),)), (0.01, ()))
        with pytest.raises(CenteringError, match="exact mean"):
            ibp_residual([IDENTITY], f, g, n_outer=50, cfg=MehlerConfig(seed=14))


class TestPoincare:
    def test_p2_first_chaos_equality(self, space4):
        f = Functional(space4, w(0))
        [(lhs, rhs)] = poincare_check(f, [2.0], n_outer=400_000, cfg=MehlerConfig(seed=15))
        assert rhs.value == pytest.approx(1.0, abs=1e-12)
        assert abs(lhs.value - rhs.value) < 0.01
        assert poincare_passed(lhs, rhs)

    def test_p4_first_chaos(self, space4):
        f = Functional(space4, w(0))
        [(lhs, rhs)] = poincare_check(f, [4.0], n_outer=50_000, cfg=MehlerConfig(seed=16))
        assert rhs.value == pytest.approx(9.0, abs=1e-10)
        assert lhs.value == pytest.approx(3.0, abs=4 * lhs.std_error)
        assert poincare_passed(lhs, rhs)

    def test_p2_h2(self, space4):
        f = Functional(space4, Hermite(2, w(0)))
        [(lhs, rhs)] = poincare_check(f, [2.0], n_outer=50_000, cfg=MehlerConfig(seed=17))
        assert lhs.value == pytest.approx(2.0, abs=4 * lhs.std_error)
        assert rhs.value == pytest.approx(2.0, abs=4 * rhs.std_error)
        assert poincare_passed(lhs, rhs)

    def test_ps_share_one_pass(self, space4):
        f = Functional(space4, Hermite(3, w(0)) + w(2))
        cfg = MehlerConfig(seed=22, quad_nodes=8, mc_samples=512)
        shared = poincare_check(f, [2.0, 3.0, 4.0], n_outer=500, cfg=cfg, seed=6)
        alone = [poincare_check(f, [p], n_outer=500, cfg=cfg, seed=6)[0]
                 for p in (2.0, 3.0, 4.0)]
        assert shared == alone

    def test_p_below_two_rejected(self, space4):
        f = Functional(space4, w(0))
        with pytest.raises(ValueError):
            poincare_check(f, [2.0, 1.5], n_outer=100, cfg=MehlerConfig(seed=18))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MehlerConfig(quad_nodes=1)
        with pytest.raises(ValueError):
            MehlerConfig(mc_samples=1)

    def test_quadrature_weights_sum_to_one(self):
        _, wts = gauss_legendre_unit(32)
        assert wts.sum() == pytest.approx(1.0, abs=1e-15)

    def test_inner_copies_budget(self):
        cfg = MehlerConfig(mc_samples=20_000)
        assert inner_copies_per_point(cfg, 10_000) == 2
        assert inner_copies_per_point(cfg, 40_000) == 2  # antithetic floor
        cfg_plain = MehlerConfig(mc_samples=20_000, antithetic=False)
        assert inner_copies_per_point(cfg_plain, 40_000) == 1
