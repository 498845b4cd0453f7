import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wienergamma.chaos import form, gamma_oracle, oracle_suite
from wienergamma.core import ExpressionError, build_space, sample
from util import (
    assert_tangent_close,
    chaos_to_functional,
    expectation_of_product,
    point_layouts,
    reference_chaos_value,
    reference_weighted_gradient,
)


@pytest.fixture(scope="module")
def space4():
    return build_space(4)


class TestGammaOracle:
    def test_h2_squared(self, space4):
        # F = G = H2(w0): DF = 2*x0*e0, -DL^{-1}G = x0*e0, product 2*x0^2.
        f = form(space4, (1.0, ((0, 2),)))
        pts = np.array([[1.5, 0.0, 0.0, 0.0], [-0.7, 2.0, 0.0, 0.0]])
        assert np.allclose(gamma_oracle(f, f, pts), 2.0 * pts[:, 0] ** 2)

    def test_cross_product_vs_h2(self, space4):
        # F = H1(w0)H1(w1), G = H2(w0): -DL^{-1}G = x0*e0, DF = x1*e0 + x0*e1.
        f = form(space4, (1.0, ((0, 1), (1, 1))))
        g = form(space4, (1.0, ((0, 2),)))
        pts = np.array([[0.4, -1.1, 0.0, 0.0], [2.0, 3.0, 0.0, 0.0]])
        assert np.allclose(gamma_oracle(f, g, pts), pts[:, 0] * pts[:, 1])

    def test_first_chaos_is_one(self, space4):
        f = form(space4, (1.0, ((0, 1),)))
        pt = np.array([0.3, 0.0, 0.0, 0.0])
        assert gamma_oracle(f, f, pt) == pytest.approx(1.0)

    def test_constant_terms_contribute_zero(self, space4):
        g = form(space4, (5.0, ()), (1.0, ((0, 2),)))
        pt = np.array([1.5, 0.0, 0.0, 0.0])
        assert np.allclose(g.minus_dl_gradient(pt), [1.5, 0.0, 0.0, 0.0])

    def test_requires_identity_gram(self):
        crooked = build_space(2, gram=[[1.0, 0.5], [0.5, 1.0]])
        with pytest.raises(ExpressionError, match="identity"):
            form(crooked, (1.0, ((0, 1),)))

    def test_repeated_coordinate_rejected(self, space4):
        with pytest.raises(ExpressionError, match="repeated"):
            form(space4, (1.0, ((0, 1), (0, 2))))


class TestExactExpectations:
    def test_mean_of_constant_terms(self, space4):
        g = form(space4, (2.5, ()), (1.0, ((0, 2),)))
        assert g.mean() == pytest.approx(2.5)

    def test_second_moments(self, space4):
        h2 = form(space4, (1.0, ((0, 2),)))
        w0 = form(space4, (1.0, ((0, 1),)))
        assert expectation_of_product(h2, h2) == pytest.approx(2.0)  # E[H2^2] = 2!
        assert expectation_of_product(w0, w0) == pytest.approx(1.0)
        assert expectation_of_product(h2, w0) == pytest.approx(0.0)

    def test_product_form_moment(self, space4):
        # E[(H2(w0)H2(w1))^2] = 2! * 2! = 4.
        f = form(space4, (1.0, ((0, 2), (1, 2))))
        assert expectation_of_product(f, f) == pytest.approx(4.0)

    def test_matches_monte_carlo(self, space4):
        rng = np.random.default_rng(5)
        f = form(space4, (0.5, ((0, 2),)), (-0.25, ((0, 1), (1, 1))), (1.0, ((3, 1),)))
        g = form(space4, (1.0, ((1, 3),)), (1.0, ((2, 1),)), (0.5, ((0, 2),)))
        pts = sample(space4, rng, 400_000)
        prods = f.value(pts) * g.value(pts)
        se = np.std(prods, ddof=1) / math.sqrt(len(prods))
        assert np.mean(prods) == pytest.approx(
            expectation_of_product(f, g), abs=3.0 * se
        )


class TestFunctionalBridge:
    def test_to_functional_matches_values_and_gradients(self, space4):
        rng = np.random.default_rng(17)
        f = form(space4, (0.5, ((0, 2), (2, 1))), (-1.0, ((1, 4),)), (0.3, ()))
        func = chaos_to_functional(f)
        pts = sample(space4, rng, 50)
        assert np.allclose(func.eval(pts), f.value(pts), atol=1e-12)
        assert np.allclose(func.gradient(pts), f.gradient(pts), atol=1e-12)


def random_form(rng: np.random.Generator, space):
    """One to three terms of order <= 4 per factor over distinct coordinates;
    a term may be constant."""
    terms = []
    for _ in range(int(rng.integers(1, 4))):
        size = int(rng.integers(0, min(3, space.dim) + 1))
        coords = rng.choice(space.dim, size=size, replace=False)
        factors = tuple((int(i), int(rng.integers(1, 5))) for i in coords)
        terms.append((float(rng.uniform(-2.0, 2.0)), factors))
    return form(space, *terms)


@pytest.mark.parametrize("dim", [1, 3, 6])
def test_gradient_along_a_direction_contracts_the_dense_one(dim):
    rng = np.random.default_rng(500 + dim)
    space = build_space(dim)
    for _ in range(30):
        f = random_form(rng, space)
        for x in point_layouts(rng, dim):
            dense = f._weighted_gradient(x, lambda q: 1.0)
            assert np.array_equal(f.gradient(x), dense)
            assert f.gradient(x).flags.c_contiguous
            for along in (rng.standard_normal(dim), rng.standard_normal((4, 1, dim))):
                assert_tangent_close(f.gradient(x, along=along), dense, along)


@st.composite
def forms_and_points(draw):
    """A chaos form on 1-4 coordinates with 1-4 terms of orders 1-5 (terms
    may share coordinates or be constant), points of shape (n,), (N, n) or
    (N, per, n) in C or F order with some exact (signed) zeros and ones, and
    a direction of None, (n,) or (N, 1, n)."""
    dim = draw(st.integers(1, 4))
    coeffs = st.sampled_from([1.0, -1.0, 0.5, 3.0]) | st.floats(-4.0, 4.0)
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        coords = draw(st.lists(st.integers(0, dim - 1), unique=True, max_size=dim))
        terms.append((draw(coeffs), tuple((i, draw(st.integers(1, 5))) for i in coords)))
    f = form(build_space(dim), *terms)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_pts, per = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    shape = draw(st.sampled_from([(dim,), (n_pts, dim), (n_pts, per, dim)]))
    x = rng.standard_normal(shape) * 1.5
    x[rng.random(shape) < 0.1] = 0.0
    x[rng.random(shape) < 0.1] = -0.0
    x[rng.random(shape) < 0.1] = 1.0
    if draw(st.booleans()):
        x = np.asfortranarray(x)
    along = draw(st.sampled_from([None, (dim,), (n_pts, 1, dim)]))
    if along is not None:
        along = rng.standard_normal(along)
        along[rng.random(along.shape) < 0.2] = 0.0
    return f, x, along


@settings(max_examples=300, deadline=None, database=None)
@given(forms_and_points())
def test_kernels_match_the_reference_bit_for_bit(case):
    f, x, along = case
    for weight in (lambda q: 1.0, lambda q: 1.0 / q):
        got = f._weighted_gradient(x, weight, along)
        want = reference_weighted_gradient(f, x, weight, along)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
    assert f.gradient(x, along).tobytes() == reference_weighted_gradient(
        f, x, lambda q: 1.0, along).tobytes()
    assert f.minus_dl_gradient(x).tobytes() == reference_weighted_gradient(
        f, x, lambda q: 1.0 / q).tobytes()
    value, want = f.value(x), reference_chaos_value(f, x)
    assert np.shape(value) == want.shape and value.tobytes() == want.tobytes()


def test_coordinates_are_the_indices_of_the_terms(space4):
    f = form(space4, (1.0, ((0, 2), (3, 1))), (0.5, ((3, 2),)), (2.0, ()))
    assert f.coordinates() == frozenset({0, 3})
    assert form(space4, (1.5, ())).coordinates() == frozenset()
    # The suite's G forms read 1.33 of the 4 coordinates on average.
    reads = [len(g.coordinates()) for _, _, g in oracle_suite(space4)]
    assert reads == [1, 1, 1, 1, 1, 1, 2, 1, 2, 1, 2, 2]


def test_oracle_suite_shape(space4):
    suite = oracle_suite(space4)
    assert len(suite) == 12
    names = [name for name, _, _ in suite]
    assert len(set(names)) == 12
    for _, f, g in suite:
        assert all(sum(q for _, q in fs) <= 4 for _, fs in f.terms + g.terms)
        assert f.mean() == 0.0 and g.mean() == 0.0
