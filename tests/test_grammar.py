import numpy as np
import pytest

from wienergamma.grammar import ParseError, parse_expression
from util import format_expression, random_expression


def test_hermite_equivalent_polynomial():
    expr = parse_expression("w0^2 - 1", dim=1)
    assert expr.value(np.array([2.0])) == pytest.approx(3.0)


def test_tanh_of_affine():
    expr = parse_expression("tanh(w0 + 0.5*w1)", dim=2)
    pt = np.array([0.3, -1.2])
    assert expr.value(pt) == pytest.approx(np.tanh(0.3 + 0.5 * -1.2))


def test_coordinate_out_of_range():
    with pytest.raises(ParseError, match="w5"):
        parse_expression("w5", dim=3)


def test_syntax_error_carries_position():
    with pytest.raises(ParseError, match=r"line 1, column"):
        parse_expression("w0 + * w1", dim=2)


def test_unexpected_character():
    with pytest.raises(ParseError, match="unexpected character"):
        parse_expression("w0 $ w1", dim=2)


def test_hermite_function():
    expr = parse_expression("hermite(2, w0)", dim=1)
    assert expr.value(np.array([2.0])) == pytest.approx(3.0)


def test_hermite_requires_integer_order():
    with pytest.raises(ParseError, match="order"):
        parse_expression("hermite(1.5, w0)", dim=1)


def test_division_by_constant():
    expr = parse_expression("w0 / 2", dim=1)
    assert expr.value(np.array([3.0])) == pytest.approx(1.5)


def test_division_by_expression_rejected():
    with pytest.raises(ParseError, match="constant"):
        parse_expression("w0 / w1", dim=2)


def test_division_by_zero_rejected():
    with pytest.raises(ParseError, match="zero"):
        parse_expression("w0 / 0", dim=1)


def test_exponent_must_be_positive():
    with pytest.raises(ParseError, match="exponent"):
        parse_expression("w0^0", dim=1)


def test_unary_minus():
    expr = parse_expression("-w0 + 1", dim=1)
    assert expr.value(np.array([0.25])) == pytest.approx(0.75)


def test_whitespace_insignificant():
    a = parse_expression("w0+2*w1", dim=2)
    b = parse_expression("  w0 +  2 * w1 ", dim=2)
    pt = np.array([1.0, 2.0])
    assert a.value(pt) == b.value(pt)


def test_roundtrip_random_expressions():
    rng = np.random.default_rng(99)
    dim = 3
    for _ in range(60):
        expr = random_expression(rng, dim)
        text = format_expression(expr)
        reparsed = parse_expression(text, dim)
        pts = rng.standard_normal((8, dim)) * 0.7
        with np.errstate(over="ignore", invalid="ignore"):
            va = expr.value(pts)
            vb = reparsed.value(pts)
        mask = np.isfinite(va)
        assert np.allclose(va[mask], vb[mask], rtol=1e-12, atol=1e-12)
