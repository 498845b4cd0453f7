"""Finite-dimensional Wiener space and smooth functionals with exact gradients.

A space of dimension n carries a Gram matrix ``gram[i, j] = <h_i, h_j>`` for a
basis h_1..h_n and a factor L with ``gram = L @ L.T``.  All sampling and
differentiation happen in whitened coordinates: a sample point is a standard
normal vector xi, the basis values are ``W(h_i) = (L @ xi)_i``, and the inner
product of the ambient Hilbert space is the plain Euclidean dot product.  The
Malliavin derivative of a functional is therefore its ordinary gradient in xi.

Functionals are expression trees over a closed grammar (coordinates, constants,
sums, products, integer powers, exp, tanh, probabilists' Hermite polynomials),
so first derivatives are exact via forward-mode differentiation.  Each node
has one derivative method, ``value_and_tangent(x, a)``: its value and the
tangent <grad node(x), a>, the derivative along a direction ``a`` that
broadcasts against ``x``.  A caller that needs only <DF(x), a> gets it in one
pass over the tree at O(1) work per point and node.  The dense gradient is the
tangent along the identity: the tree runs once at ``x[..., None, :]`` with the
rows of ``np.eye(n)`` as directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

GRAM_SYMMETRY_TOL = 1e-12
GRAM_EIGENVALUE_FLOOR = -1e-10


class WienerSpaceError(ValueError):
    """Invalid space construction (asymmetric or non-PSD Gram matrix)."""


class ExpressionError(ValueError):
    """Malformed expression (bad coordinate index, bad node parameter)."""


class EvaluationOverflow(FloatingPointError):
    """A functional evaluated to a non-finite value (e.g. exp overflow)."""


# ---------------------------------------------------------------------------
# Hermite polynomials (probabilists' normalization: H2(x) = x^2 - 1)
# ---------------------------------------------------------------------------

def require_integer(value, low: int, what: str) -> int:
    """``int(value)``; ExpressionError unless ``value`` is an integer >= ``low``.

    NaN, infinities and values that are not numbers are rejected alike.
    """
    try:
        ok = float(value).is_integer() and value >= low
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise ExpressionError(f"{what} must be an integer >= {low}, got {value!r}")
    return int(value)


def hermite_ladder(q: int, x) -> list:
    """[None, H_1, ..., H_q] at the float array ``x`` for an integer q >= 1.

    H_1 is ``x`` itself, not a copy, H_2 = x*x - 1.0, and
    H_{k+1} = x*H_k - k*H_{k-1}.  H_0 = 1 is left out, as callers skip
    multiplying by it.
    """
    ladder = [None, x]
    if q >= 2:
        ladder.append(x * x - 1.0)
    for k in range(2, q):
        ladder.append(x * ladder[k] - k * ladder[k - 1])
    return ladder


def hermite_pair(q: int, x):
    """Return (H_q(x), H_{q-1}(x)); H_{-1} is taken as 0.

    The pair gives the derivative for free: H_q'(x) = q * H_{q-1}(x).  H_1 is
    ``x`` itself (as a float array), not a copy, so the results must not be
    written to.
    """
    q = require_integer(q, 0, "Hermite order")
    x = np.asarray(x, dtype=float)
    if q < 2:
        h0 = np.ones(x.shape)
        return (h0, np.zeros(x.shape)) if q == 0 else (x, h0)
    ladder = hermite_ladder(q, x)
    return ladder[q], ladder[q - 1]


# ---------------------------------------------------------------------------
# Wiener space
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WienerSpace:
    """Dimension, Gram matrix of basis inner products, and a factor of it."""

    dim: int
    gram: np.ndarray
    whitener: np.ndarray  # L with gram = L @ L.T; lower-triangular when PD

    def is_identity_gram(self) -> bool:
        return bool(np.array_equal(self.gram, np.eye(self.dim)))


def build_space(dim: int, gram: np.ndarray | None = None) -> WienerSpace:
    """Build a space of dimension ``dim``; identity Gram matrix when omitted.

    Rejects Gram matrices that are asymmetric beyond 1e-12 or have an
    eigenvalue below -1e-10, naming the offending eigenvalue.
    """
    if dim < 1 or dim != int(dim):
        raise WienerSpaceError(f"dimension must be a positive integer, got {dim}")
    dim = int(dim)
    if gram is None:
        eye = np.eye(dim)
        return WienerSpace(dim=dim, gram=_frozen(eye), whitener=_frozen(eye.copy()))
    gram = np.asarray(gram, dtype=float)
    if gram.shape != (dim, dim):
        raise WienerSpaceError(f"gram must be {dim}x{dim}, got shape {gram.shape}")
    asym = np.max(np.abs(gram - gram.T))
    if asym > GRAM_SYMMETRY_TOL:
        raise WienerSpaceError(f"gram is asymmetric: max |g - g.T| = {asym:.3e}")
    gram = 0.5 * (gram + gram.T)
    try:
        whitener = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        # Semi-definite case: eigenfactor instead of a triangular one.
        eigvals, eigvecs = np.linalg.eigh(gram)
        lam_min = float(eigvals[0])
        if lam_min < GRAM_EIGENVALUE_FLOOR:
            raise WienerSpaceError(
                f"gram is not positive semi-definite: eigenvalue {lam_min:.6e} "
                f"< {GRAM_EIGENVALUE_FLOOR:.0e}"
            ) from None
        whitener = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
    return WienerSpace(dim=dim, gram=_frozen(gram), whitener=_frozen(whitener))


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


def sample(space: WienerSpace, rng: np.random.Generator, size: int | None = None):
    """Draw whitened sample points: shape (dim,) or (size, dim)."""
    if size is None:
        return rng.standard_normal(space.dim)
    return rng.standard_normal((size, space.dim))


# ---------------------------------------------------------------------------
# Expression trees
# ---------------------------------------------------------------------------

class Expression:
    """Base node.  Subclasses implement ``value`` and ``value_and_tangent``,
    or ``map`` for a pointwise function of one child (``_Unary``).

    ``x`` is a float array of shape (..., n), in any memory layout; values
    come back with shape (...,).  ``value_and_tangent(x, a)`` also returns
    the tangent <grad node(x), a> for a direction ``a`` that broadcasts
    against ``x``; the tangent broadcasts against the value and the leading
    shape of ``a``, and may be a scalar.  ``value`` does the value half of
    ``value_and_tangent`` with the same operations in the same order, so both
    give the same bits.  Every node is smooth on all of R^n.
    """

    def value(self, x: np.ndarray):
        raise NotImplementedError

    def value_and_tangent(self, x: np.ndarray, a: np.ndarray):
        raise NotImplementedError

    def value_and_gradient(self, x: np.ndarray):
        """Value and the C-ordered (..., n) gradient: the tangents along the
        n basis vectors, each with the bits of a per-node dense forward mode."""
        x = np.asarray(x, dtype=float)
        val, tan = self.value_and_tangent(x[..., None, :], np.eye(x.shape[-1]))
        return val[..., 0], np.broadcast_to(tan, x.shape).copy()

    def coordinates(self) -> frozenset[int]:
        raise NotImplementedError

    def is_affine(self) -> bool:
        """True when the gradient is constant over R^n."""
        raise NotImplementedError

    # Sugar so fields and tests can be written as arithmetic.
    def __add__(self, other):
        return Sum((self, _as_expression(other)))

    def __radd__(self, other):
        return Sum((_as_expression(other), self))

    def __sub__(self, other):
        return Sum((self, Negate(_as_expression(other))))

    def __rsub__(self, other):
        return Sum((_as_expression(other), Negate(self)))

    def __mul__(self, other):
        return Product((self, _as_expression(other)))

    def __rmul__(self, other):
        return Product((_as_expression(other), self))

    def __truediv__(self, other):
        if not isinstance(other, (int, float)):
            raise ExpressionError("division is only defined by a nonzero constant")
        if other == 0:
            raise ExpressionError("division by zero")
        return Product((self, Constant(1.0 / float(other))))

    def __neg__(self):
        return Negate(self)

    def __pow__(self, k):
        return Power(self, k)


def _as_expression(value) -> Expression:
    if isinstance(value, Expression):
        return value
    if isinstance(value, (int, float)):
        return Constant(float(value))
    raise ExpressionError(f"cannot use {type(value).__name__} in an expression")


@dataclass(frozen=True)
class Coordinate(Expression):
    index: int

    def __post_init__(self):
        object.__setattr__(self, "index", require_integer(self.index, 0, "coordinate index"))

    def value(self, x):
        return x[..., self.index]

    def value_and_tangent(self, x, a):
        return x[..., self.index], a[..., self.index]

    def coordinates(self):
        return frozenset((self.index,))

    def is_affine(self):
        return True


@dataclass(frozen=True)
class Constant(Expression):
    value_: float

    def __post_init__(self):
        if not np.isfinite(self.value_):
            raise ExpressionError(f"constant must be finite, got {self.value_}")

    def value(self, x):
        return np.full(x.shape[:-1], self.value_)

    def value_and_tangent(self, x, a):
        return self.value(x), 0.0

    def coordinates(self):
        return frozenset()

    def is_affine(self):
        return True


class _Nary(Expression):
    """A node over a nonempty tuple ``children``."""

    def __post_init__(self):
        if len(self.children) < 1:
            raise ExpressionError(f"{type(self).__name__} needs at least one child")

    def coordinates(self):
        return frozenset().union(*(c.coordinates() for c in self.children))


@dataclass(frozen=True)
class Sum(_Nary):
    children: tuple[Expression, ...]

    def value(self, x):
        val = self.children[0].value(x).copy()
        for child in self.children[1:]:
            val += child.value(x)
        return val

    def value_and_tangent(self, x, a):
        val, tan = self.children[0].value_and_tangent(x, a)
        val = val.copy()
        for child in self.children[1:]:
            v, t = child.value_and_tangent(x, a)
            val += v
            tan = tan + t
        return val, tan

    def is_affine(self):
        return all(c.is_affine() for c in self.children)


@dataclass(frozen=True)
class Product(_Nary):
    children: tuple[Expression, ...]

    def value(self, x):
        val = self.children[0].value(x)
        for child in self.children[1:]:
            val = val * child.value(x)
        return val

    def value_and_tangent(self, x, a):
        val, tan = self.children[0].value_and_tangent(x, a)
        for child in self.children[1:]:
            v, t = child.value_and_tangent(x, a)
            tan = tan * v + val * t
            val = val * v
        return val, tan

    def is_affine(self):
        # Affine only when at most one factor depends on the coordinates.
        nonconst = [c for c in self.children if c.coordinates()]
        if not nonconst:
            return True
        return len(nonconst) == 1 and nonconst[0].is_affine()


class _Unary(Expression):
    """A pointwise map f of the value of a node ``child``.

    A subclass states f once, as ``map(v, slope)``, which returns
    (f(v), f'(v)); the value path passes ``slope`` false and does not read
    the second entry, so a map that must compute f'(v) returns None there.
    The tangent is f'(v) * t, the chain rule on the child's tangent t.
    """

    def map(self, v, slope: bool):
        raise NotImplementedError

    def value(self, x):
        return self.map(self.child.value(x), False)[0]

    def value_and_tangent(self, x, a):
        v, t = self.child.value_and_tangent(x, a)
        fv, dfv = self.map(v, True)
        # An overflow is reported by Functional's finiteness check instead.
        with np.errstate(over="ignore", invalid="ignore"):
            return fv, dfv * t

    def coordinates(self):
        return self.child.coordinates()

    def is_affine(self):
        return not self.child.coordinates()


@dataclass(frozen=True)
class Negate(_Unary):
    child: Expression

    def map(self, v, slope):
        return -v, -1.0

    def is_affine(self):
        return self.child.is_affine()


@dataclass(frozen=True)
class Power(_Unary):
    child: Expression
    exponent: int

    def __post_init__(self):
        require_integer(self.exponent, 1, "Power exponent")

    # np.power rather than ``**``: a numpy scalar's ``**`` rounds apart from
    # the ufunc, so one point (..., n) would get other bits than a batch.
    def map(self, v, slope):
        k = self.exponent
        if k == 1:
            return v, 1.0
        return np.power(v, k), (k * np.power(v, k - 1)) if slope else None

    def is_affine(self):
        return self.exponent == 1 and self.child.is_affine() or not self.child.coordinates()


@dataclass(frozen=True)
class Exp(_Unary):
    child: Expression

    def map(self, v, slope):
        with np.errstate(over="ignore", invalid="ignore"):
            ev = np.exp(v)
        return ev, ev


@dataclass(frozen=True)
class Tanh(_Unary):
    child: Expression

    def map(self, v, slope):
        tv = np.tanh(v)
        return tv, (1.0 - tv * tv) if slope else None


@dataclass(frozen=True)
class Hermite(_Unary):
    """H_q applied to a subexpression; H_q' = q * H_{q-1} drives the gradient."""

    order: int
    child: Expression

    def __post_init__(self):
        require_integer(self.order, 0, "Hermite order")

    def map(self, v, slope):
        hq, hq_minus = hermite_pair(self.order, v)
        return hq, (self.order * hq_minus) if slope else None

    def is_affine(self):
        if self.order == 0 or not self.child.coordinates():
            return True
        return self.order == 1 and self.child.is_affine()


def w(index: int) -> Coordinate:
    """Shorthand for Coordinate(index), matching the grammar's ``w<i>``."""
    return Coordinate(index)


# ---------------------------------------------------------------------------
# Functionals and random fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Functional:
    """An expression on a space, minus an explicit centering shift."""

    space: WienerSpace
    expr: Expression
    mean_shift: float = 0.0

    def __post_init__(self):
        top = max(self.expr.coordinates(), default=-1)
        if top >= self.space.dim:
            raise ExpressionError(
                f"expression uses coordinate w{top} but the space has "
                f"dimension {self.space.dim}"
            )

    def eval(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        val = self.expr.value(x) - self.mean_shift
        _check_finite(val, "functional value")
        return val

    def gradient(self, x, along=None) -> np.ndarray:
        """DF(x), C-ordered with shape (..., n); with ``along``, which
        broadcasts against ``x``, the derivative <DF(x), along> instead."""
        x = np.asarray(x, dtype=float)
        if along is None:
            _, grad = self.expr.value_and_gradient(x)
        else:
            along = np.asarray(along, dtype=float)
            _, tan = self.expr.value_and_tangent(x, along)
            shape = np.broadcast_shapes(x.shape, along.shape)[:-1]
            grad = np.broadcast_to(tan, shape).copy()
        _check_finite(grad, "functional gradient")
        return grad

    def value_and_gradient(self, x):
        x = np.asarray(x, dtype=float)
        val, grad = self.expr.value_and_gradient(x)
        val = val - self.mean_shift
        _check_finite(val, "functional value")
        _check_finite(grad, "functional gradient")
        return val, grad


def _check_finite(a, what: str):
    if not np.all(np.isfinite(a)):
        raise EvaluationOverflow(f"{what} is not finite")


@dataclass(frozen=True)
class RandomField:
    """Finitely many functionals sharing one space, indexed 0..d-1."""

    space: WienerSpace
    components: tuple[Functional, ...]

    def __post_init__(self):
        if len(self.components) < 1:
            raise ExpressionError("a random field needs at least one component")
        for f in self.components:
            if f.space is not self.space:
                raise WienerSpaceError("all field components must share one space")

    @property
    def dim(self) -> int:
        return len(self.components)

    def eval_all(self, x) -> np.ndarray:
        """Values of every component, stacked on a trailing axis (..., d)."""
        x = np.asarray(x, dtype=float)
        return np.stack([f.eval(x) for f in self.components], axis=-1)

    def coordinates(self) -> frozenset[int]:
        return frozenset().union(*(f.expr.coordinates() for f in self.components))

    def constant_gradients(self) -> np.ndarray | None:
        """(d, n) gradient matrix when every component is affine, else None."""
        if not all(f.expr.is_affine() for f in self.components):
            return None
        origin = np.zeros(self.space.dim)
        return np.stack([f.gradient(origin) for f in self.components])


def make_field(space: WienerSpace, exprs: Iterable[Expression],
               mean_shifts: Iterable[float] | None = None) -> RandomField:
    exprs = tuple(exprs)
    if mean_shifts is None:
        mean_shifts = (0.0,) * len(exprs)
    comps = tuple(
        Functional(space, e, float(m)) for e, m in zip(exprs, mean_shifts, strict=True)
    )
    return RandomField(space, comps)
