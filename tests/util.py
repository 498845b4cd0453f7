"""Shared test helpers: random expression generator and small oracles.

The oracles here check the package from outside and are not used by any
command: an expression printer for the parser round-trip, the Mehler shift of
one quadrature node, the soft-max interpolation phi(t) whose derivative
``sf_phi_prime`` estimates, the exact E[FG] of two chaos forms and the
expression tree of a chaos form.
"""

from __future__ import annotations

import math

import numpy as np

from wienergamma.chaos import ChaosForm
from wienergamma.comparison import FieldPair, softmax_sup
from wienergamma.core import (
    Constant,
    Coordinate,
    Exp,
    Expression,
    Functional,
    Hermite,
    Negate,
    Power,
    Product,
    Sum,
    Tanh,
    sample,
)
from wienergamma.engine import Estimate, mean_estimate
from wienergamma.parallel import run_chunked


def random_expression(rng: np.random.Generator, dim: int, depth: int = 3):
    """A random smooth expression with moderate growth (safe for FD checks)."""
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.7:
            return Coordinate(int(rng.integers(0, dim)))
        return Constant(float(np.round(rng.uniform(-2.0, 2.0), 3)))
    kind = rng.choice(
        ["sum", "product", "negate", "power", "exp", "tanh", "hermite"],
        p=[0.24, 0.18, 0.08, 0.14, 0.08, 0.14, 0.14],
    )
    child = lambda: random_expression(rng, dim, depth - 1)  # noqa: E731
    if kind == "sum":
        return Sum(tuple(child() for _ in range(int(rng.integers(2, 4)))))
    if kind == "product":
        return Product((child(), child()))
    if kind == "negate":
        return Negate(child())
    if kind == "power":
        return Power(child(), int(rng.integers(1, 4)))
    if kind == "exp":
        # Damp the argument so values and third derivatives stay moderate.
        return Exp(Product((Constant(0.25), child())))
    if kind == "tanh":
        return Tanh(child())
    return Hermite(int(rng.integers(0, 5)), child())


def central_difference_gradient(expr, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Independent gradient oracle: central finite differences, coordinatewise."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        up = x.copy()
        dn = x.copy()
        up[i] += step
        dn[i] -= step
        grad[i] = (expr.value(up) - expr.value(dn)) / (2.0 * step)
    return grad


# ---------------------------------------------------------------------------
# Expression printer: parse_expression(format_expression(e)) evaluates as e
# ---------------------------------------------------------------------------

def format_expression(node: Expression) -> str:
    """Print an expression so that parsing it back evaluates identically."""
    if isinstance(node, Coordinate):
        return f"w{node.index}"
    if isinstance(node, Constant):
        if node.value_ < 0:
            return f"(-{repr(-node.value_)})"
        return repr(node.value_)
    if isinstance(node, Sum):
        parts = [_paren_sum(node.children[0])]
        for child in node.children[1:]:
            if isinstance(child, Negate):
                parts.append(f"- {_paren_sum(child.child)}")
            else:
                parts.append(f"+ {_paren_sum(child)}")
        return " ".join(parts)
    if isinstance(node, Product):
        return " * ".join(_paren_sum(c) for c in node.children)
    if isinstance(node, Negate):
        return f"-({format_expression(node.child)})"
    if isinstance(node, Power):
        return f"{_paren_base(node.child)}^{node.exponent}"
    if isinstance(node, Exp):
        return f"exp({format_expression(node.child)})"
    if isinstance(node, Tanh):
        return f"tanh({format_expression(node.child)})"
    if isinstance(node, Hermite):
        return f"hermite({node.order}, {format_expression(node.child)})"
    raise TypeError(f"unknown node type {type(node).__name__}")


def _paren_sum(node: Expression) -> str:
    """A term of a sum or a factor of a product: parenthesize sums and negations."""
    if isinstance(node, (Sum, Negate)):
        return f"({format_expression(node)})"
    return format_expression(node)


def _paren_base(node: Expression) -> str:
    if isinstance(node, (Sum, Product, Negate, Power)):
        return f"({format_expression(node)})"
    return format_expression(node)


# ---------------------------------------------------------------------------
# Exact and Monte Carlo oracles
# ---------------------------------------------------------------------------

def mehler_shift(omega: np.ndarray, omega_hat: np.ndarray, u: float) -> np.ndarray:
    """The Ornstein-Uhlenbeck coupling u*omega + sqrt(1-u^2)*omega_hat."""
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"u must lie in [0, 1], got {u}")
    omega = np.asarray(omega, dtype=float)
    omega_hat = np.asarray(omega_hat, dtype=float)
    return u * omega + math.sqrt(1.0 - u * u) * omega_hat


def sf_phi_value(pair: FieldPair, t: float, beta: float, n_outer: int,
                 seed: int = 0, workers: int = 1) -> Estimate:
    """phi(t) = (1/beta) E log sum_i exp(beta (sqrt(1-t) G_i + sqrt(t) F_i))."""

    def job(chunk, rng):
        pts = sample(pair.space, rng, chunk)
        interp = math.sqrt(1.0 - t) * pair.g.eval_all(pts) + math.sqrt(t) * pair.f.eval_all(pts)
        return softmax_sup(beta, interp)

    return mean_estimate(run_chunked(n_outer, workers, seed, 0x501, job))


def expectation_of_product(f: ChaosForm, g: ChaosForm) -> float:
    """Exact E[F * G] from Hermite orthogonality E[H_p H_q] = q! 1{p=q}."""
    total = 0.0
    for cf, fs in f.terms:
        f_orders = dict(fs)
        for cg, gs in g.terms:
            if f_orders != dict(gs):
                continue
            weight = 1.0
            for q in f_orders.values():
                weight *= math.factorial(q)
            total += cf * cg * weight
    return total


def chaos_to_functional(f: ChaosForm) -> Functional:
    """The expression-tree functional with the same value and gradient as ``f``."""
    term_exprs = []
    for coeff, factors in f.terms:
        children = [Constant(float(coeff))]
        children.extend(Hermite(q, Coordinate(i)) for i, q in factors)
        term_exprs.append(children[0] if len(children) == 1 else Product(tuple(children)))
    if not term_exprs:
        term_exprs = [Constant(0.0)]
    expr = term_exprs[0] if len(term_exprs) == 1 else Sum(tuple(term_exprs))
    return Functional(f.space, expr)
