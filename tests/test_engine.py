import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wienergamma.chaos import form, gamma_oracle, oracle_suite
from wienergamma.cli import close, upper
from wienergamma.core import Functional, Hermite, Tanh, build_space, sample, w
from wienergamma.engine import (
    CenteringError,
    Estimate,
    MehlerConfig,
    copy_mean,
    coupled_gamma_values,
    gamma_pointwise,
    gauss_legendre_unit,
    ibp_residual,
    inner_copies_per_point,
    inner_normals,
    mean_estimate,
    mehler_integral,
    poincare_check,
)
from util import capital_delta, expectation_of_product, functional_difference, mehler_shift


@pytest.fixture(scope="module")
def space4():
    return build_space(4)


IDENTITY = (lambda x: x, lambda x: np.ones_like(x))
SQUARE = (lambda x: x**2, lambda x: 2.0 * x)


def ibp_passed(lhs, rhs) -> bool:
    return close("ibp", lhs.value, rhs.value, math.hypot(lhs.std_error, rhs.std_error)).verdict


def poincare_passed(lhs, rhs) -> bool:
    return upper("poincare", lhs.value, rhs.value,
                 math.hypot(lhs.std_error, rhs.std_error)).verdict


def numpy_estimate(xs: np.ndarray) -> tuple[float, float]:
    return float(np.mean(xs)), float(np.std(xs, ddof=1)) / math.sqrt(xs.size)


class TestRunningMoments:
    """The running moments that ``mean_estimate`` merges batch by batch."""

    def test_matches_numpy(self):
        # One sample per batch: every merge is a one-value update.
        rng = np.random.default_rng(1)
        xs = rng.standard_normal(1_000) * 3.0 + 1.0
        est = mean_estimate(xs[:, None])
        value, std_error = numpy_estimate(xs)
        assert est.value == pytest.approx(value, rel=1e-12)
        assert est.std_error == pytest.approx(std_error, rel=1e-10)

    def test_batched_merge_matches_numpy(self):
        # Uneven batches, empty ones among them, in order.
        rng = np.random.default_rng(2)
        xs = rng.standard_normal(10_000) * 0.5 - 2.0
        batches = np.split(xs, [0, 1, 8, 8, 2_500, 2_503, 9_000, 10_000])
        est = mean_estimate(batches)
        value, std_error = numpy_estimate(xs)
        assert est.value == pytest.approx(value, rel=1e-12)
        assert est.std_error == pytest.approx(std_error, rel=1e-10)

    def test_no_samples(self):
        assert mean_estimate([]) == Estimate(0.0, 0.0)
        assert mean_estimate([np.zeros(0), []]) == Estimate(0.0, 0.0)

    def test_single_sample_has_zero_standard_error(self):
        assert mean_estimate([[], [2.5]]) == Estimate(2.5, 0.0)


@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(1, 20), st.integers(1, 300), st.sampled_from([(), (5,)]), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_copy_mean_is_numpy_mean_bit_for_bit(per, n_points, trailing, fortran, seed):
    # (n_points, per) as the Gamma integrand's values, (n_points, per, 5) as
    # the -D L^{-1} gradients of a 5-dimensional space.
    rng = np.random.default_rng(seed)
    shape = (n_points, per) + trailing
    values = rng.standard_normal(shape) * np.exp(rng.uniform(-30, 30, shape))
    values[rng.random(values.shape) < 0.2] = 0.0
    values[rng.random(values.shape) < 0.2] = -0.0
    values[: min(2, n_points)] = -0.0  # all-negative-zero rows
    if fortran:
        values = np.asfortranarray(values)
    assert copy_mean(values).tobytes() == np.mean(values, axis=1).tobytes()


@pytest.mark.parametrize("antithetic", [True, False])
@pytest.mark.parametrize("lead, per", [((), 7), ((), 8), ((5,), 4), ((2, 3), 3)])
def test_inner_normals_layouts_share_the_draw(antithetic, lead, per):
    c_order = inner_normals(np.random.default_rng(9), lead, per, 3, antithetic)
    f_order = inner_normals(np.random.default_rng(9), lead, per, 3, antithetic, order="F")
    z = np.random.default_rng(9).standard_normal(lead + ((per // 2 if antithetic else per), 3))
    want = np.concatenate([z, -z], axis=-2) if antithetic else z
    assert c_order.flags.c_contiguous and f_order.flags.f_contiguous
    assert c_order.tobytes() == want.tobytes()
    assert np.ascontiguousarray(f_order).tobytes() == want.tobytes()


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


def pointwise_reference(f, g, omega, cfg: MehlerConfig, contract) -> Estimate:
    """``gamma_pointwise`` with a fresh C-ordered shift at every node, where
    ``contract(g, y, df)`` gives <DG(y), DF> for every copy in ``y``."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed]))
    inner = inner_normals(rng, (), cfg.mc_samples, omega.size, cfg.antithetic)
    df = f.gradient(omega)
    nodes, weights = gauss_legendre_unit(cfg.quad_nodes)
    per_sample = 0.0
    for u, wt in zip(nodes, weights):
        per_sample += wt * contract(g, mehler_shift(omega, inner, u), df)
    half = inner.shape[0] // 2
    return mean_estimate([0.5 * (per_sample[:half] + per_sample[half:])])


class TestMehlerIntegral:
    def test_point_broadcast_matches_per_node_shift(self):
        # One (dim,) point against (per, dim) inner copies, stored C-ordered
        # or coordinate-major: the reused buffer must hold the same bits as
        # shifting the point afresh at every node.
        rng = np.random.default_rng(4)
        point, inner = rng.standard_normal(3), rng.standard_normal((10, 3))
        cfg = MehlerConfig(quad_nodes=6)

        def term(y):
            return np.sin(y).sum(axis=-1)

        nodes, weights = gauss_legendre_unit(cfg.quad_nodes)
        expected = 0.0
        for u, wt in zip(nodes, weights):
            expected += wt * term(mehler_shift(point, inner, u))
        for layout in (inner, np.asfortranarray(inner)):
            assert np.array_equal(mehler_integral(point, layout, cfg, term), expected)

    @staticmethod
    def pointwise_cases():
        space = build_space(4)
        # The suite's dot products have at most two nonzero terms; these two
        # have four.
        dense = form(space, (1.0, ((0, 1),)), (0.5, ((1, 2),)), (-0.7, ((2, 1), (3, 1))))
        tree = Functional(space, Tanh(0.7 * w(0) - 0.4 * w(1) + 0.3 * w(2) + 0.9 * w(3)))
        pairs = [(f, g) for _, f, g in oracle_suite(space)] + [(dense, dense), (tree, tree)]
        cfg = MehlerConfig(quad_nodes=8, mc_samples=2048, seed=3)
        for omega in (np.zeros(4), np.array([0.8, -1.1, 0.4, 1.7])):
            for f, g in pairs:
                yield f, g, omega, cfg

    def test_pointwise_matches_per_node_reference(self):
        # The reused coordinate-major buffer gives the bits of a fresh
        # C-ordered shift at every node, contracted along DF the same way.
        for f, g, omega, cfg in self.pointwise_cases():
            expected = pointwise_reference(f, g, omega, cfg,
                                           lambda g, y, df: g.gradient(y, df))
            assert gamma_pointwise(f, g, omega, cfg) == expected

    def test_pointwise_agrees_with_dense_contraction(self):
        # The tangent along DF sums <DG, DF> in another order than a matrix
        # product with the dense gradient, so only the last bits may differ.
        # Where Gamma is deterministic the SE is rounding noise of the
        # samples, so it is compared on the scale of the samples.
        for f, g, omega, cfg in self.pointwise_cases():
            dense = pointwise_reference(f, g, omega, cfg, lambda g, y, df: g.gradient(y) @ df)
            est = gamma_pointwise(f, g, omega, cfg)
            scale = abs(dense.value) + dense.std_error
            assert abs(est.value - dense.value) <= 1e-13 * abs(dense.value)
            assert abs(est.std_error - dense.std_error) <= 1e-13 * scale


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

    def test_quadrature_cached_read_only(self):
        nodes, wts = gauss_legendre_unit(16)
        assert gauss_legendre_unit(16)[0] is nodes
        assert not nodes.flags.writeable and not wts.flags.writeable
        x, w = np.polynomial.legendre.leggauss(16)
        assert np.array_equal(nodes, 0.5 * (x + 1.0))
        assert np.array_equal(wts, 0.5 * w / (0.5 * w).sum())

    def test_inner_copies_budget(self):
        cfg = MehlerConfig(mc_samples=20_000)
        assert inner_copies_per_point(cfg, 10_000) == 2
        assert inner_copies_per_point(cfg, 40_000) == 2  # antithetic floor
        cfg_plain = MehlerConfig(mc_samples=20_000, antithetic=False)
        assert inner_copies_per_point(cfg_plain, 40_000) == 1
