import math

import numpy as np
import pytest

from wienergamma.cli import lower, run_slepian, run_sudakov, upper
from wienergamma.comparison import (
    BlockOverlapError,
    FieldPair,
    PerturbationSpec,
    build_gaussian_pair,
    build_perturbed_pair,
    check_phi_monotone,
    concentration_check,
    default_t_grid,
    exp_linear_function,
    expected_max,
    expected_value,
    h_weights,
    log_sum_exp_function,
    operator_norm,
    perturbation_gamma,
    quadratic_function,
    sf_phi_prime,
    sf_phi_value,
    slepian_phi_prime,
    softmax_sup,
    validate_perturbation,
)
from wienergamma.core import (
    Constant,
    Hermite,
    build_space,
    make_field,
    w,
)
from wienergamma.engine import MehlerConfig


def psd_passed(res) -> bool:
    return lower("psd", res.psd_margin, 0.0, res.psd_std_error, atol=1e-12).verdict


def tail_passed(res) -> bool:
    return upper("tail", res.tail, res.bound, res.tail_std_error).verdict


class TestSoftmax:
    def test_two_zeros(self):
        assert softmax_sup(1.0, np.array([0.0, 0.0])) == pytest.approx(math.log(2.0))

    def test_dominant_coordinate(self):
        assert softmax_sup(100.0, np.array([5.0, 0.0])) == pytest.approx(5.0, abs=1e-12)

    def test_sandwich_exact(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((1000, 3)) * 2.0
        s = softmax_sup(2.0, v)
        m = np.max(v, axis=-1)
        assert np.all(s >= m - 1e-12)
        assert np.all(s <= m + math.log(3.0) / 2.0 + 1e-12)

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            softmax_sup(0.0, np.array([1.0]))


class TestHWeights:
    def test_uniform_at_zero(self):
        h = h_weights(0.5, 2.0, np.zeros(4), np.zeros(4))
        assert np.allclose(h, 0.25)

    def test_dominant_weight_grows_with_beta(self):
        x = np.array([3.0, 0.0])
        y = np.zeros(2)
        h_small = h_weights(0.5, 1.0, x, y)
        h_large = h_weights(0.5, 50.0, x, y)
        assert h_large[0] > h_small[0]
        assert h_large[0] > 0.999

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((200, 5))
        y = rng.standard_normal((200, 5))
        h = h_weights(0.3, 4.0, x, y)
        assert np.allclose(np.sum(h, axis=-1), 1.0, atol=1e-12)
        assert np.all(h > 0)


class TestFieldPair:
    def test_shared_coordinates_rejected(self):
        space = build_space(2)
        f = make_field(space, [w(0)])
        g = make_field(space, [w(0) + w(1)])
        with pytest.raises(BlockOverlapError):
            FieldPair(f, g)

    def test_gaussian_pair_covariances(self):
        cov_f = np.array([[1.0, 0.3], [0.3, 2.0]])
        cov_g = np.array([[1.5, 0.0], [0.0, 1.5]])
        pair = build_gaussian_pair(cov_f, cov_g)
        rng = np.random.default_rng(2)
        from wienergamma.core import sample

        pts = sample(pair.space, rng, 200_000)
        fv = pair.f.eval_all(pts)
        gv = pair.g.eval_all(pts)
        assert np.allclose(fv.T @ fv / len(fv), cov_f, atol=0.03)
        assert np.allclose(gv.T @ gv / len(gv), cov_g, atol=0.03)
        assert np.max(np.abs(fv.T @ gv / len(fv))) < 0.03  # disjoint blocks


class TestSfPhiPrime:
    def test_single_component_is_exactly_zero(self):
        pair = build_gaussian_pair(np.array([[1.0]]), np.array([[2.0]]))
        est = sf_phi_prime(pair, 0.5, 2.0, MehlerConfig(seed=1), n_outer=500)
        assert est.value == 0.0
        assert est.std_error == 0.0

    def test_equal_law_gaussian_fields_give_zero(self):
        cov = np.array([[1.0, 0.4], [0.4, 1.0]])
        pair = build_gaussian_pair(cov, cov)
        est = sf_phi_prime(pair, 0.3, 2.0, MehlerConfig(seed=2), n_outer=2_000)
        assert est.value == pytest.approx(0.0, abs=1e-12)

    def test_equal_law_chaos_fields_within_errors(self):
        # Same non-Gaussian law on the two blocks: phi' vanishes in expectation.
        space = build_space(4)
        f = make_field(space, [Hermite(2, w(0)), Hermite(2, w(1))])
        g = make_field(space, [Hermite(2, w(2)), Hermite(2, w(3))])
        pair = FieldPair(f, g)
        est = sf_phi_prime(pair, 0.4, 1.0, MehlerConfig(seed=3, quad_nodes=16),
                           n_outer=4_000)
        assert abs(est.value) <= max(3.0 * est.std_error, 1e-12)

    def test_dominated_gaussian_field_has_nonpositive_derivative(self):
        d = 3
        pair = build_gaussian_pair(np.eye(d), 2.25 * np.eye(d))
        for t in (0.1, 0.5, 0.9):
            est = sf_phi_prime(pair, t, 4.0, MehlerConfig(seed=4), n_outer=4_000)
            assert est.value <= 3.0 * est.std_error

    def test_shift_invariance(self):
        # Adding one constant to every F component cannot change phi'.
        cov = np.array([[1.0, 0.2], [0.2, 1.0]])
        pair = build_gaussian_pair(cov, 2.0 * cov)
        shifted_f = make_field(
            pair.space, [c.expr + Constant(5.0) for c in pair.f.components]
        )
        shifted = FieldPair(shifted_f, pair.g)
        a = sf_phi_prime(pair, 0.35, 2.0, MehlerConfig(seed=5), n_outer=1_500)
        b = sf_phi_prime(shifted, 0.35, 2.0, MehlerConfig(seed=5), n_outer=1_500)
        assert a.value == pytest.approx(b.value, abs=1e-10)

    def test_workers_deterministic(self):
        pair = build_gaussian_pair(np.eye(2), 2.0 * np.eye(2))
        cfg = MehlerConfig(seed=6)
        one = sf_phi_prime(pair, 0.5, 2.0, cfg, n_outer=1_000, workers=1)
        one_again = sf_phi_prime(pair, 0.5, 2.0, cfg, n_outer=1_000, workers=1)
        two = sf_phi_prime(pair, 0.5, 2.0, cfg, n_outer=1_000, workers=2)
        two_again = sf_phi_prime(pair, 0.5, 2.0, cfg, n_outer=1_000, workers=2)
        assert one.value == one_again.value
        assert two.value == two_again.value


class TestSudakovExperiment:
    def test_gaussian_domination(self):
        # F = N(0, I_4) against G = N(0, 1.5^2 I_4).
        rows = run_sudakov({"d": 4, "sigma_f": 1.0, "sigma_g": 1.5, "betas": (1.0, 4.0),
                            "t_points": 7, "n_outer": 2_000, "n_sup": 30_000},
                           seed=3, workers=1, cfg=MehlerConfig(seed=7))
        by_name = {r.name: r for r in rows}
        phi_rows = [r for r in rows if "/phi-prime/" in r.name]
        assert len(phi_rows) == 2 * 7
        assert all(r.verdict for r in phi_rows)
        max_row = by_name["sudakov/max-comparison"]
        assert max_row.verdict
        # E max of iid N(0, 1) on 4 points is strictly below the N(0, 1.5^2) one.
        assert max_row.lhs < max_row.rhs

    def test_identical_laws_give_equal_maxima(self):
        cov = np.array([[1.0, 0.3], [0.3, 1.0]])
        pair = build_gaussian_pair(cov, cov)
        seed, cfg = 6, MehlerConfig(seed=33)
        e_f = expected_max(pair.f, 40_000, seed=seed + 1)
        e_g = expected_max(pair.g, 40_000, seed=seed + 2)
        gap = abs(e_f.value - e_g.value)
        se = math.hypot(e_f.std_error, e_g.std_error)
        assert gap <= 3.0 * se
        for ti, t in enumerate(default_t_grid(5)):  # phi' is exactly zero here
            est = sf_phi_prime(pair, float(t), 2.0, cfg, 1_000, seed=seed + 104729 * ti)
            assert upper("phi'", est.value, 0.0, est.std_error).verdict

    def test_additive_independent_noise_baseline(self):
        # With H independent of F and centered, E max(F + H) >= E max F.
        space = build_space(4)
        f_exprs = [w(0), w(1)]
        fh_exprs = [w(0) + 0.8 * Hermite(2, w(2)), w(1) + 0.8 * Hermite(2, w(3))]
        f = make_field(space, f_exprs)
        fh = make_field(space, fh_exprs)
        e_f = expected_max(f, 60_000, seed=8)
        e_fh = expected_max(fh, 60_000, seed=9)
        slack = 3.0 * math.hypot(e_f.std_error, e_fh.std_error)
        assert e_fh.value >= e_f.value - slack

    def test_phi_endpoint_difference_matches_trapezoid_of_derivative(self):
        pair = build_gaussian_pair(np.eye(3), 2.25 * np.eye(3))
        beta = 2.0
        grid = default_t_grid(21)
        cfg = MehlerConfig(seed=10)
        prime_vals, prime_ses = [], []
        for i, t in enumerate(grid):
            est = sf_phi_prime(pair, float(t), beta, cfg, n_outer=3_000, seed=50 + i)
            prime_vals.append(est.value)
            prime_ses.append(est.std_error)
        integral = float(np.trapezoid(prime_vals, grid))
        lo = sf_phi_value(pair, float(grid[0]), beta, 200_000, seed=11)
        hi = sf_phi_value(pair, float(grid[-1]), beta, 200_000, seed=12)
        direct = hi.value - lo.value
        se = math.hypot(lo.std_error, hi.std_error) + float(
            np.trapezoid(prime_ses, grid))
        assert integral == pytest.approx(direct, abs=3.0 * se + 0.01)


class TestSlepian:
    def test_equal_law_gives_zero(self):
        cov = np.array([[1.0, 0.5], [0.5, 1.0]])
        pair = build_gaussian_pair(cov, cov)
        fn = quadratic_function(np.ones((2, 2)))
        est = slepian_phi_prime(pair, fn, 0.5, MehlerConfig(seed=13), n_outer=2_000)
        assert est.value == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_quadratic_comparison(self):
        c = np.array([[1.0, 0.1], [0.1, 1.0]])
        v = np.array([0.8, 0.6])
        b = c + np.outer(v, v)
        rows = run_slepian({"d": 2, "cov_g": c.tolist(), "bump": v.tolist(), "t_points": 5,
                            "n_outer": 2_000, "n_value": 100_000},
                           seed=4, workers=1, cfg=MehlerConfig(seed=14))
        assert len(rows) == 5 + 1
        assert all(r.verdict for r in rows)  # phi' rows and the functional comparison
        # E f(F) = ones' B ones / 2 exactly for the quadratic form; the runner
        # draws it with seed + 3.
        pair = build_gaussian_pair(b, c)
        e_f = expected_value(pair.f, quadratic_function(np.ones((2, 2))), 100_000, seed=7)
        assert rows[-1].lhs == e_f.value
        exact_f = 0.5 * float(np.sum(b))
        assert e_f.value == pytest.approx(exact_f, abs=4.0 * e_f.std_error)

    def test_equal_law_chaos_fields_general_path(self):
        # Non-affine fields force the Monte Carlo Gamma-matrix route; equal
        # laws on the two blocks keep phi' at zero in expectation.
        space = build_space(4)
        f = make_field(space, [w(0) + 0.5 * Hermite(2, w(1)),
                               Hermite(2, w(0))])
        g = make_field(space, [w(2) + 0.5 * Hermite(2, w(3)),
                               Hermite(2, w(2))])
        pair = FieldPair(f, g)
        fn = quadratic_function(np.array([[1.0, 0.5], [0.5, 2.0]]))
        est = slepian_phi_prime(pair, fn, 0.4, MehlerConfig(seed=40, quad_nodes=16),
                                n_outer=4_000)
        assert abs(est.value) <= 3.0 * est.std_error

    def test_convex_function_with_independent_increment(self):
        # G and F - G independent, f convex: E f(F) >= E f(G).
        space = build_space(4)
        g_exprs = [w(0), w(1)]
        f_exprs = [w(0) + 0.7 * Hermite(2, w(2)), w(1) + 0.7 * Hermite(2, w(3))]
        f = make_field(space, f_exprs)
        g = make_field(space, g_exprs)
        fn = log_sum_exp_function(1.0)
        rng = np.random.default_rng(15)
        from wienergamma.core import sample

        pts = sample(space, rng, 120_000)
        vf = fn.fun(f.eval_all(pts))
        vg = fn.fun(g.eval_all(pts))
        se = math.hypot(np.std(vf, ddof=1), np.std(vg, ddof=1)) / math.sqrt(len(pts))
        assert np.mean(vf) >= np.mean(vg) - 3.0 * se


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-8)

    def test_diagonal(self):
        assert operator_norm(np.diag([1.0, 4.0])) == pytest.approx(4.0, abs=1e-8)

    def test_against_dense_eigensolver(self):
        rng = np.random.default_rng(16)
        for _ in range(5):
            a = rng.standard_normal((5, 5))
            c = 0.5 * (a + a.T)
            expected = float(np.max(np.abs(np.linalg.eigvalsh(c))))
            assert operator_norm(c) == pytest.approx(expected, abs=1e-8)

    def test_negative_dominant_eigenvalue(self):
        c = np.diag([-7.0, 2.0])
        assert operator_norm(c) == pytest.approx(7.0, abs=1e-8)


class TestConcentration:
    def test_scalar_gaussian(self):
        space = build_space(1)
        fld = make_field(space, [w(0)])
        res = concentration_check(fld, np.array([[1.0]]), np.array([2.0]),
                                  n_outer=200_000, cfg=MehlerConfig(seed=17),
                                  n_psd=8, seed=5)
        assert psd_passed(res)
        assert res.bound == pytest.approx(math.exp(-2.0))
        true_tail = 0.5 * math.erfc(2.0 / math.sqrt(2.0))  # = 0.02275...
        assert res.tail == pytest.approx(true_tail, abs=4.0 * res.tail_std_error)
        assert tail_passed(res)

    def test_zero_threshold_bound_is_one(self):
        space = build_space(1)
        fld = make_field(space, [w(0)])
        res = concentration_check(fld, np.array([[1.0]]), np.array([0.0]),
                                  n_outer=20_000, cfg=MehlerConfig(seed=18),
                                  n_psd=4, seed=6)
        assert res.bound == pytest.approx(1.0)
        assert tail_passed(res)

    def test_chaos_field_with_dominating_matrix(self):
        space = build_space(4)
        exprs = [w(0) + 0.1 * Hermite(2, w(2)), w(1) + 0.1 * Hermite(2, w(3))]
        fld = make_field(space, exprs)
        res = concentration_check(fld, 3.0 * np.eye(2), np.array([1.5, 1.5]),
                                  n_outer=200_000,
                                  cfg=MehlerConfig(seed=19, mc_samples=2048),
                                  n_psd=12, seed=7)
        assert psd_passed(res)
        assert tail_passed(res)

    def test_negative_threshold_rejected(self):
        space = build_space(1)
        fld = make_field(space, [w(0)])
        with pytest.raises(ValueError):
            concentration_check(fld, np.eye(1), np.array([-1.0]), n_outer=100,
                                cfg=MehlerConfig(seed=20), n_psd=2)


class TestPerturbation:
    def test_zero_perturbation_reproduces_covariance(self):
        g_rows = np.linalg.cholesky(np.array([[1.0, 0.3], [0.3, 1.0]]))
        g_rows = np.hstack([g_rows, np.zeros((2, 1))])
        spec = PerturbationSpec(
            g_rows=g_rows,
            f_rows=((), ()),
            phi_builders=(lambda args: Constant(0.0), lambda args: Constant(0.0)),
        )
        rng = np.random.default_rng(21)
        f_field, g_field, space = build_perturbed_pair(spec, rng, n_center=1000)
        values, errors = perturbation_gamma(f_field, np.zeros(3),
                                            MehlerConfig(seed=22), seed=8)
        assert np.allclose(values, g_rows @ g_rows.T, atol=1e-10)
        assert np.max(errors) <= 1e-10

    def test_identity_perturbation_with_orthogonal_direction(self):
        # d = 1, Phi(x) = x, f orthogonal to g with unit norm: Gamma = <g, g> + 1.
        spec = PerturbationSpec(
            g_rows=np.array([[1.3, 0.0]]),
            f_rows=((np.array([0.0, 1.0]),),),
            phi_builders=(lambda args: args[0],),
        )
        rng = np.random.default_rng(23)
        f_field, _, _ = build_perturbed_pair(spec, rng, n_center=1000)
        values, errors = perturbation_gamma(f_field, np.array([0.4, -0.2]),
                                            MehlerConfig(seed=24), seed=9)
        assert values[0, 0] == pytest.approx(1.3**2 + 1.0, abs=1e-10)

    def test_sign_condition_violation_rejected(self):
        spec = PerturbationSpec(
            g_rows=np.array([[1.0, 0.0]]),
            f_rows=((np.array([-0.5, 1.0]),),),
            phi_builders=(lambda args: args[0],),
        )
        with pytest.raises(ValueError, match="sign condition"):
            validate_perturbation(spec)

    def test_monotone_check_rejects_decreasing_phi(self):
        spec = PerturbationSpec(
            g_rows=np.array([[1.0, 0.0]]),
            f_rows=((np.array([0.0, 1.0]),),),
            phi_builders=(lambda args: Constant(-1.0) * args[0],),
        )
        rng = np.random.default_rng(25)
        with pytest.raises(ValueError, match="negative partial"):
            check_phi_monotone(spec, rng)

    def test_tanh_perturbation_dominates_base_covariance(self):
        from wienergamma.core import Tanh, sample

        chol = np.linalg.cholesky(np.array([[1.0, 0.3], [0.3, 1.0]]))
        g_rows = np.hstack([chol, np.zeros((2, 2))])
        f1 = np.array([0.0, 0.0, 1.0, 0.0])
        f2 = np.array([0.0, 0.0, 0.3, 0.9])
        spec = PerturbationSpec(
            g_rows=g_rows,
            f_rows=((f1,), (f2,)),
            phi_builders=(lambda args: Tanh(args[0]), lambda args: Tanh(args[0])),
        )
        rng = np.random.default_rng(26)
        check_phi_monotone(spec, rng)
        f_field, g_field, space = build_perturbed_pair(spec, rng)
        base = g_rows @ g_rows.T

        pts = sample(space, np.random.default_rng(27), 5)
        cfg = MehlerConfig(seed=28, mc_samples=8192)
        for k in range(5):
            values, errors = perturbation_gamma(f_field, pts[k], cfg, seed=10 + k)
            assert np.all(values - base >= -3.0 * errors - 1e-9)

        # Payoff with nonnegative cross-derivatives sees its mean increase.
        psi = exp_linear_function(np.array([0.4, 0.4]))
        eval_pts = sample(space, np.random.default_rng(29), 150_000)
        vf = psi.fun(f_field.eval_all(eval_pts))
        vg = psi.fun(g_field.eval_all(eval_pts))
        se = math.hypot(np.std(vf, ddof=1), np.std(vg, ddof=1)) / math.sqrt(len(eval_pts))
        assert np.mean(vf) >= np.mean(vg) - 3.0 * se
