"""Shared test helpers: random expression generator and small oracles.

The oracles here check the package from outside and are not used by any
command: a per-node dense forward mode for expression gradients, frozen
reference copies of the Hermite recurrence and of the chaos-form value and
gradient loops (the package's kernels must match them bit for bit), an
expression printer for the parser round-trip, the Mehler shift of one
quadrature node, the soft-max interpolation phi(t) whose derivative
``sf_phi_prime`` estimates, the exact E[FG] of two chaos forms, the
expression tree of a chaos form, the difference of two functionals with its
Delta(s, t), the SK Hamiltonian and the N^2-normalized sums of an SK
condition audit.
"""

from __future__ import annotations

import math

import numpy as np

from wienergamma.chaos import ChaosForm
from wienergamma.comparison import FieldPair, softmax_function
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
    WienerSpaceError,
    hermite_pair,
    sample,
)
from wienergamma.engine import Estimate, MehlerConfig, gamma_pointwise, mean_estimate
from wienergamma.parallel import run_chunked
from wienergamma.sk import ConditionAudit


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


def dense_value_and_gradient(expr: Expression, x: np.ndarray):
    """Value and C-ordered (..., n) gradient by a dense forward mode that
    carries a full gradient through every node."""
    if isinstance(expr, Coordinate):
        grad = np.zeros(x.shape)
        grad[..., expr.index] = 1.0
        return x[..., expr.index], grad
    if isinstance(expr, Constant):
        return expr.value(x), np.zeros(x.shape)
    if isinstance(expr, Sum):
        val, grad = dense_value_and_gradient(expr.children[0], x)
        val, grad = val.copy(), grad.copy()
        for child in expr.children[1:]:
            v, g = dense_value_and_gradient(child, x)
            val += v
            grad += g
        return val, grad
    if isinstance(expr, Product):
        val, grad = dense_value_and_gradient(expr.children[0], x)
        val, grad = val.copy(), grad.copy()
        for child in expr.children[1:]:
            v, g = dense_value_and_gradient(child, x)
            grad *= v[..., None]
            grad += val[..., None] * g
            val = val * v
        return val, grad
    if isinstance(expr, Negate):
        v, g = dense_value_and_gradient(expr.child, x)
        return -v, -g
    v, g = dense_value_and_gradient(expr.child, x)
    if isinstance(expr, Power):
        k = expr.exponent
        if k == 1:
            return v, g
        return np.power(v, k), (k * np.power(v, k - 1))[..., None] * g
    if isinstance(expr, Exp):
        with np.errstate(over="ignore", invalid="ignore"):
            ev = np.exp(v)
            return ev, ev[..., None] * g
    if isinstance(expr, Tanh):
        tv = np.tanh(v)
        return tv, (1.0 - tv * tv)[..., None] * g
    if isinstance(expr, Hermite):
        hq, hq_minus = reference_hermite_pair(expr.order, v)
        return hq, (expr.order * hq_minus)[..., None] * g
    raise TypeError(f"unknown node type {type(expr).__name__}")


def hermite_value(q: int, x):
    """H_q(x), from H_0 = 1 and H_1 = x by the package's Hermite recurrence."""
    return hermite_pair(q, x)[0]


def reference_hermite_pair(q: int, x):
    """(H_q(x), H_{q-1}(x)) by the plain recurrence from H_0 = 1, H_1 = x,
    always in fresh arrays."""
    x = np.asarray(x, dtype=float)
    if q == 0:
        return np.ones_like(x), np.zeros_like(x)
    h_prev = np.ones_like(x)
    h = x.copy()
    for k in range(1, q):
        h_prev, h = h, x * h - k * h_prev
    return h, h_prev


def reference_chaos_value(f: ChaosForm, x) -> np.ndarray:
    """The value of a chaos form, one full array per term and factor."""
    x = np.asarray(x, dtype=float)
    total = np.zeros(x.shape[:-1])
    for coeff, factors in f.terms:
        term = np.full(x.shape[:-1], coeff)
        for i, q in factors:
            term = term * reference_hermite_pair(q, x[..., i])[0]
        total += term
    return total


def reference_weighted_gradient(f: ChaosForm, x, weight, along=None) -> np.ndarray:
    """The gradient of a chaos form with the term of order q scaled by
    weight(q), C-ordered; with ``along``, the derivative along it.  Each
    partial is a full array of the scale times every factor in term order
    (the derivative q * H_{q-1} for the differentiated one), then times the
    entry of ``along``."""
    x = np.asarray(x, dtype=float)
    if along is None:
        shape = x.shape[:-1]
        grad = np.zeros(x.shape)
    else:
        along = np.asarray(along, dtype=float)
        shape = np.broadcast_shapes(x.shape, along.shape)[:-1]
        grad = np.zeros(shape)
    for coeff, factors in f.terms:
        if not factors:
            continue
        scale = coeff * weight(sum(q for _, q in factors))
        values, derivs = [], []
        for i, q in factors:
            hq, hq_minus = reference_hermite_pair(q, x[..., i])
            values.append(hq)
            derivs.append(q * hq_minus)
        for k, (i, _) in enumerate(factors):
            part = np.full(shape, scale)
            for j, v in enumerate(values):
                part *= derivs[j] if j == k else v
            if along is None:
                grad[..., i] += part
            else:
                part *= along[..., i]
                grad += part
    return grad


def point_layouts(rng: np.random.Generator, dim: int):
    """Points shaped (n,), (4, n) and (4, 3, n); the batched ones both
    C-ordered and coordinate-major."""
    for shape in ((dim,), (4, dim), (4, 3, dim)):
        pts = rng.standard_normal(shape) * 1.5
        yield pts
        if len(shape) > 1:
            yield np.asfortranarray(pts)


def assert_tangent_close(got: np.ndarray, grad: np.ndarray, along: np.ndarray,
                         rtol: float = 1e-13):
    """``got`` is the einsum contraction <grad, along> over the broadcast
    shape, within ``rtol`` of sum_i |grad_i along_i|."""
    shape = np.broadcast_shapes(grad.shape, along.shape)
    g, a = np.broadcast_to(grad, shape), np.broadcast_to(along, shape)
    expected = np.einsum("...i,...i->...", g, a)
    scale = np.einsum("...i,...i->...", np.abs(g), np.abs(a))
    assert got.shape == shape[:-1]
    assert np.all(np.abs(got - expected) <= rtol * scale)


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
    softmax = softmax_function(beta).fun

    def job(chunk, rng):
        pts = sample(pair.space, rng, chunk)
        interp = math.sqrt(1.0 - t) * pair.g.eval_all(pts) + math.sqrt(t) * pair.f.eval_all(pts)
        return softmax(interp)

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


def functional_difference(f_t: Functional, f_s: Functional) -> Functional:
    """The functional f_t - f_s (shared space required)."""
    if f_t.space is not f_s.space and not np.array_equal(f_t.space.gram, f_s.space.gram):
        raise WienerSpaceError("functionals live on different spaces")
    return Functional(
        f_t.space,
        Sum((f_t.expr, Negate(f_s.expr))),
        f_t.mean_shift - f_s.mean_shift,
    )


def capital_delta(f_s: Functional, f_t: Functional, omega: np.ndarray,
                  cfg: MehlerConfig,
                  rng: np.random.Generator | None = None) -> Estimate:
    """Delta_F(s, t) = Gamma applied twice to the difference F_t - F_s."""
    diff = functional_difference(f_t, f_s)
    return gamma_pointwise(diff, diff, omega, cfg, rng=rng)


def hamiltonian(sigma: np.ndarray, coupling: np.ndarray) -> np.ndarray:
    """SK H(sigma) for one configuration (N,) or a stack (..., N)."""
    sigma = np.asarray(sigma, dtype=float)
    n = coupling.shape[0]
    quad = np.einsum("...i,ij,...j->...", sigma, coupling, sigma)
    return quad / math.sqrt(2.0 * n)


def cross_normalized(audit: ConditionAudit) -> float:
    """Full pair sum over N^2: the generic-bound ingredient.  For a decay law
    with summable tails this converges to a lattice constant rather than
    vanishing; the per-entry row sum is the decaying diagnostic."""
    return audit.sum_cross_abs / audit.n**2


def cross_row_normalized(audit: ConditionAudit) -> float:
    return audit.max_row_cross_abs / audit.n**2


def diag_normalized(audit: ConditionAudit) -> float:
    return audit.sum_diag_gap / audit.n**2
