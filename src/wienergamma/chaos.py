"""Explicit finite chaos expansions and the exact Gamma oracle.

A chaos form is a sum of terms ``c * prod_k H_{q_k}(xi_{i_k})`` over distinct
coordinates of an identity-Gram space.  A term of total order q = sum(q_k)
lives in the order-q eigenspace of the Ornstein-Uhlenbeck generator, so the
pseudo-inverse acts on it as division by -q and

    -D L^{-1} G = sum over terms of order q >= 1 of  D(term) / q.

Constant terms (empty factor list) are annihilated.  This gives Gamma_{F,G}
exactly, which is the reference the Monte Carlo engine is validated against.

A value or gradient call builds one ``core.hermite_ladder`` H_1..H_Q per
coordinate, Q the coordinate's largest order in any term, and every factor
reads its H_q and H_{q-1} from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ExpressionError, WienerSpace, hermite_ladder, require_integer

Factor = tuple[int, int]  # (coordinate index, Hermite order >= 1)
Term = tuple[float, tuple[Factor, ...]]


@dataclass(frozen=True)
class ChaosForm:
    space: WienerSpace
    terms: tuple[Term, ...]

    def __post_init__(self):
        if not self.space.is_identity_gram():
            raise ExpressionError("chaos forms require an identity-Gram space")
        terms = []
        for coeff, factors in self.terms:
            if not np.isfinite(coeff):
                raise ExpressionError("term coefficient must be finite")
            # Kept as the ints that require_integer returns, which index arrays.
            factors = tuple((require_integer(i, 0, "coordinate index"),
                             require_integer(q, 1, "factor order")) for i, q in factors)
            indices = [i for i, _ in factors]
            if len(set(indices)) != len(indices):
                raise ExpressionError(f"repeated coordinate in term {factors}")
            if max(indices, default=0) >= self.space.dim:
                raise ExpressionError(f"coordinate {max(indices)} out of range for "
                                      f"dimension {self.space.dim}")
            terms.append((coeff, factors))
        object.__setattr__(self, "terms", tuple(terms))

    def coordinates(self) -> frozenset[int]:
        """The coordinates that any term reads; no other column of x is read."""
        return frozenset(i for _, factors in self.terms for i, _ in factors)

    def mean(self) -> float:
        """E[form]: only constant terms contribute."""
        return float(sum(c for c, fs in self.terms if not fs))

    def value(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        ladders = self._ladders(x)
        total = np.zeros(x.shape[:-1])
        for coeff, factors in self.terms:
            if not factors:
                total += coeff
                continue
            (i, q), rest = factors[0], factors[1:]
            term = coeff * ladders[i][q]
            for i, q in rest:
                term *= ladders[i][q]
            total += term
        return total

    def gradient(self, x, along=None) -> np.ndarray:
        """DF(x), C-ordered with shape (..., n); with ``along``, which
        broadcasts against ``x``, the derivative <DF(x), along> instead."""
        return self._weighted_gradient(x, lambda q: 1.0, along)

    def minus_dl_gradient(self, x) -> np.ndarray:
        """Gradient of -L^{-1} applied to the form: term of order q scaled by 1/q."""
        return self._weighted_gradient(x, lambda q: 1.0 / q)

    def _ladders(self, x) -> dict:
        """Per coordinate i of the form, ``hermite_ladder(Q, x[..., i])``,
        Q the largest order of i in any term."""
        top = {}
        for _, factors in self.terms:
            for i, q in factors:
                top[i] = max(q, top.get(i, 0))
        return {i: hermite_ladder(q_max, x[..., i]) for i, q_max in top.items()}

    def _weighted_gradient(self, x, weight, along=None) -> np.ndarray:
        # C order whatever the layout of x: a caller's matrix product with
        # the gradient then rounds the same for every input layout.  Each
        # partial derivative is scale * (its factors in term order), with
        # q * H_{q-1} in place of H_q for the differentiated factor and the
        # exact ones of a first-order factor's derivative skipped, times its
        # entry of the direction last, in one reused buffer.  As in ``core``,
        # the dense gradient is the tangent along the rows of the identity:
        # entry i sums the same partials in the same order, and adding +-0.0
        # leaves the other entries' sums, which start at +0.0, unchanged.
        x = np.asarray(x, dtype=float)
        if along is None:
            x, along = x[..., None, :], np.eye(x.shape[-1])
        along = np.asarray(along, dtype=float)
        shape = np.broadcast_shapes(x.shape, along.shape)[:-1]
        grad = np.zeros(shape)
        ladders = self._ladders(x)
        derivs = {}  # (i, q) -> q * H_{q-1}(x[..., i]) for q >= 2
        part = np.empty(shape)
        for coeff, factors in self.terms:
            if not factors:
                continue
            total_order = sum(q for _, q in factors)
            scale = coeff * weight(total_order)
            for i, q_i in factors:
                if q_i >= 2 and (i, q_i) not in derivs:
                    derivs[i, q_i] = q_i * ladders[i][q_i - 1]
                product = [derivs.get((j, q)) if j == i else ladders[j][q]
                           for j, q in factors]
                product = [f for f in product if f is not None]
                if product:
                    np.multiply(scale, product[0], out=part)
                    for f in product[1:]:
                        part *= f
                else:
                    part.fill(scale)
                part *= along[..., i]
                grad += part
        return grad

    # The Monte Carlo engine works through this Functional-like surface.
    def eval(self, x) -> np.ndarray:
        return self.value(x)


def gamma_oracle(f: ChaosForm, g: ChaosForm, x) -> np.ndarray:
    """Exact Gamma_{F,G}(x) = <DF(x), -D L^{-1} G(x)> for chaos forms."""
    if f.space.dim != g.space.dim:
        raise ExpressionError("chaos forms live on different spaces")
    x = np.asarray(x, dtype=float)
    return np.sum(f.gradient(x) * g.minus_dl_gradient(x), axis=-1)


def form(space: WienerSpace, *terms: Term) -> ChaosForm:
    """Convenience constructor: form(space, (1.0, ((0, 2),)), ...)."""
    return ChaosForm(space, tuple((float(c), tuple(fs)) for c, fs in terms))


def oracle_suite(space: WienerSpace) -> list[tuple[str, ChaosForm, ChaosForm]]:
    """Twelve centered chaos-form pairs, orders <= 4 on <= 4 coordinates.

    Used both for the oracle-vs-engine agreement checks and as the test bed
    for the integration-by-parts identity.
    """
    if space.dim < 4 or not space.is_identity_gram():
        raise ExpressionError("the suite needs an identity-Gram space of dim >= 4")

    def mk(*terms):
        return form(space, *terms)

    pairs = [
        ("first-chaos-equal", mk((1.0, ((0, 1),))), mk((1.0, ((0, 1),)))),
        ("first-chaos-orthogonal", mk((1.0, ((0, 1),))), mk((1.0, ((1, 1),)))),
        ("h2-equal", mk((1.0, ((0, 2),))), mk((1.0, ((0, 2),)))),
        ("cross-h1h1-vs-h2", mk((1.0, ((0, 1), (1, 1)))), mk((1.0, ((0, 2),)))),
        ("mixed-vs-h2", mk((1.0, ((0, 2),)), (1.0, ((1, 1),))), mk((1.0, ((1, 2),)))),
        ("h3-equal", mk((1.0, ((0, 3),))), mk((1.0, ((0, 3),)))),
        ("order3-vs-product", mk((1.0, ((0, 3),)), (1.0, ((2, 1),))),
         mk((1.0, ((0, 2), (1, 1))))),
        ("h4-equal", mk((0.5, ((0, 4),))), mk((0.5, ((0, 4),)))),
        ("h2h2-equal", mk((1.0, ((0, 2), (1, 2)))), mk((1.0, ((0, 2), (1, 2))))),
        ("triple-product-vs-h2", mk((1.0, ((0, 1), (1, 1), (2, 1)))),
         mk((1.0, ((3, 2),)))),
        ("order4-vs-order2", mk((1.0, ((0, 2), (1, 1), (2, 1)))),
         mk((1.0, ((0, 1), (3, 1))))),
        ("multi-term", mk((0.5, ((0, 2),)), (-0.25, ((0, 1), (1, 1))), (1.0, ((3, 1),))),
         mk((1.0, ((1, 3),)), (1.0, ((2, 1),)))),
    ]
    return pairs
