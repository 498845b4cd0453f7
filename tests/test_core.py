import math

import numpy as np
import pytest

from wienergamma.chaos import form
from wienergamma.core import (
    Constant,
    Coordinate,
    EvaluationOverflow,
    Exp,
    ExpressionError,
    Functional,
    Hermite,
    Power,
    RandomField,
    Tanh,
    WienerSpaceError,
    build_space,
    hermite_pair,
    make_field,
    sample,
    w,
)
from util import (
    assert_tangent_close,
    central_difference_gradient,
    dense_value_and_gradient,
    functional_difference,
    hermite_value,
    point_layouts,
    random_expression,
    reference_hermite_pair,
)


class TestBuildSpace:
    def test_identity_default(self):
        space = build_space(3)
        assert np.array_equal(space.gram, np.eye(3))
        assert np.array_equal(space.whitener, np.eye(3))

    def test_diagonal_cholesky(self):
        space = build_space(2, gram=[[1.0, 0.0], [0.0, 4.0]])
        assert np.allclose(space.whitener, np.diag([1.0, 2.0]))

    def test_hand_cholesky_2x2(self):
        # [[1, .5], [.5, 1]] factors as [[1, 0], [.5, sqrt(.75)]] by hand.
        space = build_space(2, gram=[[1.0, 0.5], [0.5, 1.0]])
        expected = np.array([[1.0, 0.0], [0.5, math.sqrt(0.75)]])
        assert np.allclose(space.whitener, expected, atol=1e-14)

    def test_non_psd_rejected_with_eigenvalue(self):
        with pytest.raises(WienerSpaceError, match="eigenvalue"):
            build_space(2, gram=[[1.0, 2.0], [2.0, 1.0]])

    def test_asymmetric_rejected(self):
        with pytest.raises(WienerSpaceError, match="asymmetric"):
            build_space(2, gram=[[1.0, 0.3], [0.1, 1.0]])

    def test_semidefinite_allowed(self):
        space = build_space(2, gram=[[1.0, 1.0], [1.0, 1.0]])
        assert np.allclose(space.whitener @ space.whitener.T, space.gram, atol=1e-12)


class TestSampling:
    def test_deterministic_given_seed(self):
        space = build_space(4)
        a = sample(space, np.random.default_rng(42), size=5)
        b = sample(space, np.random.default_rng(42), size=5)
        assert np.array_equal(a, b)

    def test_mean_within_clt_band(self):
        space = build_space(1)
        xs = sample(space, np.random.default_rng(7), size=100_000)
        assert abs(np.mean(xs)) < 4.0 / math.sqrt(100_000)

    def test_variance_within_five_percent(self):
        space = build_space(1)
        xs = sample(space, np.random.default_rng(8), size=100_000)
        assert abs(np.var(xs) - 1.0) < 0.05

    def test_isonormal_covariance_matches_gram(self):
        gram = np.array([[1.0, 0.6, 0.0], [0.6, 1.0, -0.3], [0.0, -0.3, 0.5]])
        space = build_space(3, gram=gram)
        xi = sample(space, np.random.default_rng(11), size=100_000)
        vals = xi @ space.whitener.T  # the basis values W(h_i)
        emp = vals.T @ vals / len(vals)
        assert np.max(np.abs(emp - gram)) < 5.0 / math.sqrt(100_000)


class TestHermite:
    def test_small_values(self):
        assert hermite_value(2, 2.0) == pytest.approx(3.0)
        assert hermite_value(3, 1.0) == pytest.approx(-2.0)  # x^3 - 3x at 1
        assert hermite_value(4, 0.0) == pytest.approx(3.0)  # recurrence by hand
        assert hermite_value(0, 1.7) == pytest.approx(1.0)
        assert hermite_value(1, -0.4) == pytest.approx(-0.4)

    def test_pair_matches_the_reference_recurrence(self):
        x = np.random.default_rng(3).standard_normal(200) * 2.0
        x[:4] = [0.0, -0.0, 1.0, -1.0]
        for q in range(9):
            for got, want in zip(hermite_pair(q, x), reference_hermite_pair(q, x)):
                assert got.tobytes() == want.tobytes()
        assert hermite_pair(3.0, x)[0].tobytes() == hermite_pair(3, x)[0].tobytes()

    @pytest.mark.parametrize("q", [-1, -3, 1.5, -0.5])
    def test_bad_order_rejected(self, q):
        with pytest.raises(ExpressionError, match="integer >= 0"):
            hermite_pair(q, np.zeros(3))
        with pytest.raises(ExpressionError, match="integer >= 0"):
            hermite_value(q, 0.5)

    def test_orthogonality_montecarlo(self):
        rng = np.random.default_rng(13)
        xs = rng.standard_normal(200_000)
        for p in range(5):
            for q in range(5):
                prod = hermite_value(p, xs) * hermite_value(q, xs)
                mean = np.mean(prod)
                se = np.std(prod, ddof=1) / math.sqrt(xs.size)
                target = math.factorial(q) if p == q else 0.0
                assert abs(mean - target) < 3.0 * se + 1e-12


INTEGER_SITES = {
    "coordinate index": lambda v: Coordinate(v),
    "power exponent": lambda v: Power(w(0), v),
    "hermite order": lambda v: Hermite(v, w(0)),
    "hermite_pair order": lambda v: hermite_pair(v, np.zeros(3)),
    "chaos factor index": lambda v: form(build_space(4), (1.0, ((v, 2),))),
    "chaos factor order": lambda v: form(build_space(4), (1.0, ((0, v),))),
}


@pytest.mark.parametrize("site", sorted(INTEGER_SITES))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 2.5, -1, "2"])
def test_integer_parameters_reject_non_integers(site, bad):
    with pytest.raises(ExpressionError, match="must be an integer >="):
        INTEGER_SITES[site](bad)


def _site_values(built):
    """Values and gradients of what an integer site builds, at fixed points."""
    x = np.linspace(-1.5, 1.5, 12).reshape(3, 4)
    if isinstance(built, tuple):  # hermite_pair's (H_q, H_{q-1})
        return built
    if hasattr(built, "terms"):  # a chaos form
        return built.value(x), built.gradient(x)
    return built.value_and_gradient(x)


@pytest.mark.parametrize("site", sorted(INTEGER_SITES))
def test_integer_parameters_accept_integral_floats(site):
    for got, want in zip(_site_values(INTEGER_SITES[site](2.0)),
                         _site_values(INTEGER_SITES[site](2))):
        np.testing.assert_array_equal(got, want)


class TestEvaluation:
    def test_coordinate(self):
        space = build_space(3)
        f = Functional(space, Coordinate(0))
        assert f.eval(np.array([3.0, 0.0, -1.0])) == pytest.approx(3.0)

    def test_hermite_two(self):
        space = build_space(1)
        f = Functional(space, Hermite(2, w(0)))
        assert f.eval(np.array([2.0])) == pytest.approx(3.0)

    def test_exp_with_mean_shift(self):
        # E[e^xi] = e^{1/2}, so the centered functional at 0 is 1 - sqrt(e).
        space = build_space(1)
        f = Functional(space, Exp(w(0)), mean_shift=math.sqrt(math.e))
        assert f.eval(np.array([0.0])) == pytest.approx(1.0 - math.sqrt(math.e))

    def test_overflow_signaled(self):
        space = build_space(1)
        f = Functional(space, Exp(w(0)))
        with pytest.raises(EvaluationOverflow):
            f.eval(np.array([1000.0]))

    def test_coordinate_out_of_range(self):
        space = build_space(3)
        with pytest.raises(ExpressionError, match="w5"):
            Functional(space, w(5))

    def test_batch_evaluation(self):
        space = build_space(2)
        f = Functional(space, w(0) * w(1))
        pts = np.array([[1.0, 2.0], [3.0, -1.0]])
        assert np.allclose(f.eval(pts), [2.0, -3.0])

    @pytest.mark.parametrize("dim", [1, 3, 6])
    def test_value_has_the_bits_of_value_and_gradient(self, dim):
        # On one point and on C-ordered and coordinate-major batches; the
        # gradient comes back C-ordered from all of them.
        rng = np.random.default_rng(300 + dim)
        for _ in range(80):
            expr = random_expression(rng, dim)
            for x in point_layouts(rng, dim):
                with np.errstate(all="ignore"):
                    value = expr.value(x)
                    expected, grad = expr.value_and_gradient(x)
                    along, _ = expr.value_and_tangent(x, np.ones(dim))
                assert np.array_equal(value, expected, equal_nan=True)
                assert np.array_equal(value, along, equal_nan=True)
                assert grad.flags.c_contiguous


class TestMalliavinDerivative:
    def test_coordinate_gradient(self):
        space = build_space(3)
        f = Functional(space, w(0))
        grad = f.gradient(np.zeros(3))
        assert np.allclose(grad, [1.0, 0.0, 0.0])

    def test_square_gradient(self):
        space = build_space(2)
        f = Functional(space, Power(w(0), 2))
        grad = f.gradient(np.array([3.0, 0.0]))
        assert np.allclose(grad, [6.0, 0.0])

    def test_hermite_gradient_uses_recurrence(self):
        # H_2' = 2 H_1, so the gradient at omega is 2*omega_0 * e_0.
        space = build_space(2)
        f = Functional(space, Hermite(2, w(0)))
        pt = np.array([1.3, 0.4])
        grad = f.gradient(pt)
        assert np.allclose(grad, [2.0 * 1.3, 0.0])

    def test_forward_mode_matches_finite_differences(self):
        # Randomized suite: 100 expressions at 10 points each, step 1e-5.
        rng = np.random.default_rng(2024)
        dim = 3
        checked = 0
        while checked < 100:
            expr = random_expression(rng, dim)
            pts = rng.standard_normal((10, dim)) * 0.8
            try:
                _, grads = expr.value_and_gradient(pts)
            except FloatingPointError:
                continue
            if not np.all(np.isfinite(grads)):
                continue
            for k in range(10):
                fd = central_difference_gradient(expr, pts[k])
                scale = max(1.0, float(np.max(np.abs(grads[k]))))
                assert np.max(np.abs(fd - grads[k])) <= 1e-6 * scale
            checked += 1


class TestTangents:
    @pytest.mark.parametrize("dim", [1, 3, 6])
    def test_gradients_match_the_dense_oracle(self, dim):
        # The dense gradient is the tangent along the identity, with the bits
        # of a forward mode that carries a full gradient through every node;
        # the tangent along a direction is its contraction up to rounding.
        rng = np.random.default_rng(400 + dim)
        space = build_space(dim)
        for _ in range(40):
            expr = random_expression(rng, dim)
            f = Functional(space, expr)
            for x in point_layouts(rng, dim):
                with np.errstate(all="ignore"):
                    value, grad = dense_value_and_gradient(expr, x)
                    got_value, got_grad = expr.value_and_gradient(x)
                assert np.array_equal(got_value, value, equal_nan=True)
                assert np.array_equal(got_grad, grad, equal_nan=True)
                assert got_grad.flags.c_contiguous
                if not np.all(np.isfinite(grad)):
                    continue
                assert np.array_equal(f.gradient(x), grad)
                for along in (rng.standard_normal(dim), rng.standard_normal((4, 1, dim))):
                    assert_tangent_close(f.gradient(x, along=along), grad, along)

    def test_overflow_raises_along_any_direction(self):
        # exp(exp(7)) overflows; inf * 0 is NaN, so a direction that is 0 on
        # the overflowing coordinate still raises.
        f = Functional(build_space(2), Exp(Exp(w(0))) + w(1))
        x = np.array([7.0, 0.0])
        with pytest.raises(EvaluationOverflow):
            f.gradient(x)
        with pytest.raises(EvaluationOverflow):
            f.gradient(x, along=[0.0, 1.0])

    def test_constant_tangent_has_the_points_shape(self):
        f = Functional(build_space(3), Constant(2.5))
        x = np.ones((5, 2, 3))
        got = f.gradient(x, along=np.ones(3))
        assert got.shape == (5, 2)
        assert np.array_equal(got, np.zeros((5, 2)))


class TestFunctionalHelpers:
    def test_difference(self):
        space = build_space(2)
        f_t = Functional(space, Hermite(2, w(1)))
        f_s = Functional(space, Hermite(2, w(0)))
        diff = functional_difference(f_t, f_s)
        pt = np.array([1.0, 2.0])
        assert diff.eval(pt) == pytest.approx((4.0 - 1.0) - (1.0 - 1.0))

    def test_field_requires_shared_space(self):
        s1 = build_space(2)
        s2 = build_space(2)
        with pytest.raises(WienerSpaceError):
            RandomField(s1, (Functional(s1, w(0)), Functional(s2, w(1))))

    def test_functional_coordinates_are_the_expression_coordinates(self):
        space = build_space(8)
        f = Functional(space, Tanh(0.6 * w(2)) * w(5) + 3.0, mean_shift=0.5)
        assert f.coordinates() == frozenset({2, 5}) == f.expr.coordinates()
        assert Functional(space, w(0) * 0.0 + 1.0).coordinates() == frozenset({0})
        assert Functional(space, Constant(2.0)).coordinates() == frozenset()
        field = make_field(space, [w(7), Hermite(2, w(1)) * w(7)])
        assert field.coordinates() == frozenset({1, 7})

    def test_constant_gradients_affine(self):
        space = build_space(3)
        field = make_field(space, [w(0) + 2.0 * w(1), w(2) - w(0)])
        grads = field.constant_gradients()
        assert np.allclose(grads, [[1.0, 2.0, 0.0], [-1.0, 0.0, 1.0]])
        assert field.constant_gradients() is grads  # computed once per field
        assert not grads.flags.writeable

    def test_constant_gradients_none_for_nonaffine(self):
        space = build_space(2)
        field = make_field(space, [w(0), Hermite(2, w(1))])
        assert field.constant_gradients() is None
