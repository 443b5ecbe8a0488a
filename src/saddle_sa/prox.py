"""Exact proximal maps for the nonsmooth terms used by the solvers.

Every kind here admits a closed-form prox; none is solved by an inner
iteration, which keeps the prox exact to rounding and removes one error
source from rate measurements. `f.prox(gamma, v)` returns the unique
minimizer of  f(w) + ||w - v||^2 / (2*gamma); each kind writes it once, as
the row-wise `_prox_rows`. The penalty kinds write their value once in the
same way, as the row-wise `_value_rows`. The indicator kinds also give their
projection's generalized Jacobian (`_jacobian_rows`) and the distance to
their normal cone (`_normal_cone_distance_rows`), row-wise as well. The
one-point `value(v)` and `normal_cone_distance(x, v)` are written once, in
`ProximableFunction`, as the checked one-row case of the row forms; only the
indicators and block sums keep a `value` of their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _row_dots, as_vector

__all__ = [
    "ProximableFunction",
    "ZeroFunction",
    "ScaledL1",
    "ScaledL2",
    "PositivePartSum",
    "BallIndicator",
    "BoxIndicator",
    "BlockSeparable",
]

# An indicator's point counts as on the boundary of its set within this
# tolerance, relative for a ball and absolute for a box face.
_BOUNDARY_TOL = 1e-9


class ProximableFunction:
    """A proper lsc convex function with evaluable value and exact prox map."""

    is_indicator = False
    dim = None  # the dimension a point must have, for kinds that fix one

    def value(self, v: np.ndarray) -> float:
        """The checked one-row case of `_value_rows`; a kind writes one of the two."""
        return float(self._value_rows(as_vector(v, dim=self.dim)[None])[0])

    def _value_rows(self, V: np.ndarray) -> np.ndarray:
        """Unchecked value at each row of the 2-D float array V; the kinds
        with a `value` of their own score row by row."""
        return np.array([self.value(v) for v in V])

    def prox(self, gamma: float, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _prox_rows(self, gamma: float, V: np.ndarray) -> np.ndarray:
        """Unchecked prox of each row of the 2-D float array V; `prox` is its
        checked one-row case."""
        raise NotImplementedError

    def subgradient(self, v: np.ndarray) -> np.ndarray:
        """A minimum-norm subgradient at v (0 whenever 0 is a subgradient)."""
        raise NotImplementedError

    def _check_gamma(self, gamma: float) -> float:
        gamma = float(gamma)
        if not (gamma > 0.0 and math.isfinite(gamma)):
            raise ValueError(f"gamma must be positive and finite, got {gamma}")
        return gamma

    # Indicator-only surface; meaningful when is_indicator is True.
    def contains(self, v: np.ndarray, tol: float = 1e-10) -> bool:
        raise NotImplementedError

    def _jacobian_rows(self, V: np.ndarray, R: np.ndarray) -> np.ndarray:
        """Row i is J_i @ R[i], for J_i an element of the generalized Jacobian
        of the projection (the prox) at the point V[i]; V and R are 2-D float
        arrays of one shape, unchecked. J_i is symmetric, so the rows of a
        matrix A give A @ J_i when every row of V is the same point."""
        raise NotImplementedError

    def normal_cone_distance(self, x: np.ndarray, v: np.ndarray) -> float:
        """Euclidean distance of v to the normal cone of the domain at x."""
        x, v = as_vector(x, dim=self.dim), as_vector(v, dim=self.dim)
        return float(self._normal_cone_distance_rows(x[None], v[None])[0])

    def _normal_cone_distance_rows(self, X: np.ndarray, V: np.ndarray) -> np.ndarray:
        """Unchecked `normal_cone_distance` of each row of V at the matching
        row of X; `normal_cone_distance` is its checked one-row case."""
        raise NotImplementedError

    def diameter(self) -> float:
        """Euclidean diameter of the domain (indicator kinds only)."""
        raise NotImplementedError


class ZeroFunction(ProximableFunction):
    """f = 0; prox is the identity. Doubles as the free-space indicator."""

    is_indicator = True  # indicator of the whole space

    def _value_rows(self, V):
        return np.zeros(len(V))

    def prox(self, gamma, v):
        return self._prox_rows(self._check_gamma(gamma), as_vector(v))

    def _prox_rows(self, gamma, V):
        return V.copy()

    def subgradient(self, v):
        return np.zeros_like(as_vector(v))

    def contains(self, v, tol=1e-10):
        return True

    def _jacobian_rows(self, V, R):
        return R.copy()

    def _normal_cone_distance_rows(self, X, V):
        # Normal cone of the whole space is {0}.
        return np.sqrt(_row_dots(V, V))

    def diameter(self):
        return math.inf


@dataclass(frozen=True)
class _Weighted(ProximableFunction):
    """A penalty scaled by the weight mu, with 0 <= mu < inf."""

    mu: float

    def __post_init__(self):
        if not 0.0 <= self.mu < math.inf:
            raise ValueError("mu must be nonnegative and finite")


@dataclass(frozen=True)
class ScaledL1(_Weighted):
    """f(v) = mu * sum |v_i|; prox is the componentwise soft threshold at mu*gamma."""

    def _value_rows(self, V):
        return self.mu * np.abs(V).sum(axis=1)

    def prox(self, gamma, v):
        # Elementwise, so the row-wise form serves a single vector too.
        return self._prox_rows(self._check_gamma(gamma), as_vector(v))

    def _prox_rows(self, gamma, V):
        t = self.mu * gamma
        return np.sign(V) * np.maximum(np.abs(V) - t, 0.0)

    def subgradient(self, v):
        return self.mu * np.sign(as_vector(v))


@dataclass(frozen=True)
class ScaledL2(_Weighted):
    """f(v) = mu * ||v||_2; prox is the block soft threshold (shrink toward 0)."""

    def _value_rows(self, V):
        return self.mu * np.sqrt(_row_dots(V, V))  # rounds as np.linalg.norm does on one row

    def prox(self, gamma, v):
        return self._prox_rows(self._check_gamma(gamma), as_vector(v)[None])[0]

    def _prox_rows(self, gamma, V):
        t = self.mu * gamma
        nrm = np.sqrt(_row_dots(V, V))
        far = nrm > t  # rows inside the ball of radius t map to 0
        scale = 1.0 - t / np.where(far, nrm, 1.0)
        return np.where(far[:, None], scale[:, None] * V, 0.0)

    def subgradient(self, v):
        v = as_vector(v)
        nrm = float(np.linalg.norm(v))
        if nrm == 0.0:
            return np.zeros_like(v)  # 0 lies in the unit-ball subdifferential
        return self.mu * v / nrm


@dataclass(frozen=True)
class PositivePartSum(_Weighted):
    """f(v) = mu * sum max(v_i, 0); one-sided soft threshold.

    prox_i = v_i - mu*gamma  if v_i >= mu*gamma
           = 0               if 0 <= v_i < mu*gamma
           = v_i             if v_i < 0

    For mu*gamma > 0 that is max(v_i - mu*gamma, min(v_i, 0) + 0), where the
    + 0 turns a -0 into +0; at mu*gamma = 0 it is v_i. A NaN entry stays NaN.
    """

    def _value_rows(self, V):
        return self.mu * np.maximum(V, 0.0).sum(axis=1)

    def prox(self, gamma, v):
        # Elementwise, so the row-wise form serves a single vector too.
        return self._prox_rows(self._check_gamma(gamma), as_vector(v))

    def _prox_rows(self, gamma, V):
        t = self.mu * gamma
        if t == 0.0:  # mu * gamma can underflow; the clamp below would turn -0 into +0
            return V - t
        return np.maximum(V - t, np.minimum(V, 0.0) + 0.0)

    def subgradient(self, v):
        # Minimum-norm selection: mu on the positive side, 0 at and below the kink.
        return self.mu * (as_vector(v) > 0.0).astype(float)


@dataclass(frozen=True, eq=False)
class BallIndicator(ProximableFunction):
    """Indicator of the closed Euclidean ball {v : ||v - center|| <= radius}."""

    center: np.ndarray
    radius: float
    is_indicator = True
    dim = property(lambda self: self.center.shape[0])

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center, name="center"))
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValueError("radius must be positive and finite")

    def value(self, v):
        return 0.0 if self.contains(v) else math.inf

    def prox(self, gamma, v):
        return self._prox_rows(self._check_gamma(gamma), as_vector(v)[None])[0]

    def _prox_rows(self, gamma, V):
        if V.shape[1] != self.dim:
            raise ValueError(f"vector must have dimension {self.dim}, got {V.shape[1]}")
        D = V - self.center
        nrm = np.sqrt(_row_dots(D, D))  # rounds as np.linalg.norm does on one row
        far = nrm > self.radius
        if not far.any():
            return V.copy()
        scale = self.radius / np.maximum(nrm, self.radius)
        return np.where(far[:, None], self.center + scale[:, None] * D, V)

    def subgradient(self, v):
        if not self.contains(v):
            raise ValueError("subgradient of an indicator is undefined outside its domain")
        return np.zeros_like(as_vector(v))

    def contains(self, v, tol=1e-10):
        v = as_vector(v, dim=self.dim)
        return float(np.linalg.norm(v - self.center)) <= self.radius + tol

    def _jacobian_rows(self, V, R):
        # Outside the ball, P(v) = c + radius * d/||d|| with d = v - c, whose
        # Jacobian is (radius/||d||) (I - u u^T) for u = d/||d||; inside it is I.
        D = V - self.center
        nrm = np.sqrt(_row_dots(D, D))
        far = nrm > self.radius
        if not far.any():
            return R.copy()
        nrm = np.where(far, nrm, 1.0)
        U = D / nrm[:, None]
        return np.where(far[:, None], (self.radius / nrm)[:, None] * (R - _row_dots(U, R)[:, None] * U), R)

    def _normal_cone_distance_rows(self, X, V):
        D = X - self.center
        nrm = np.sqrt(_row_dots(D, D))
        sq = nrm * nrm
        t = _row_dots(V, D) / np.where(sq > 0.0, sq, 1.0)
        # Interior rows keep t = 0, since their normal cone is {0}; on the
        # boundary it is the outward ray along d, and t is the larger of 0
        # and the projection coefficient of v on d.
        boundary = nrm >= self.radius - _BOUNDARY_TOL * (1.0 + self.radius)
        t = np.where(boundary & (nrm > 0.0) & (t > 0.0), t, 0.0)
        E = V - t[:, None] * D
        return np.sqrt(_row_dots(E, E))

    def diameter(self):
        return 2.0 * self.radius


@dataclass(frozen=True, eq=False)
class BoxIndicator(ProximableFunction):
    """Indicator of the box {v : lo <= v <= hi} (componentwise)."""

    lo: np.ndarray
    hi: np.ndarray
    is_indicator = True
    dim = property(lambda self: self.lo.shape[0])

    def __post_init__(self):
        object.__setattr__(self, "lo", as_vector(self.lo, name="lo"))
        object.__setattr__(self, "hi", as_vector(self.hi, name="hi"))
        if self.lo.shape != self.hi.shape:
            raise ValueError("lo and hi must have equal dimension")
        if not (self.lo <= self.hi).all():
            raise ValueError("box requires lo <= hi componentwise")

    def value(self, v):
        return 0.0 if self.contains(v) else math.inf

    def prox(self, gamma, v):
        # Elementwise, so the row-wise form serves a single vector too.
        return self._prox_rows(self._check_gamma(gamma), as_vector(v, dim=self.dim))

    def _prox_rows(self, gamma, V):
        return np.clip(V, self.lo, self.hi)

    def subgradient(self, v):
        if not self.contains(v):
            raise ValueError("subgradient of an indicator is undefined outside its domain")
        return np.zeros_like(as_vector(v))

    def contains(self, v, tol=1e-10):
        v = as_vector(v, dim=self.dim)
        return bool((v >= self.lo - tol).all() and (v <= self.hi + tol).all())

    def _jacobian_rows(self, V, R):
        return np.where((self.lo <= V) & (V <= self.hi), R, 0.0)

    def _normal_cone_distance_rows(self, X, V):
        at_hi = X >= self.hi - _BOUNDARY_TOL
        at_lo = X <= self.lo + _BOUNDARY_TOL
        # At an active face the normal cone admits the matching-sign component.
        E = np.where((at_hi & (V > 0.0)) | (at_lo & (V < 0.0)), 0.0, V)
        return np.sqrt(_row_dots(E, E))

    def diameter(self):
        return float(np.linalg.norm(self.hi - self.lo))


class BlockSeparable(ProximableFunction):
    """Separable sum f(v) = sum_i f_i(v_i) over fixed contiguous blocks.

    Realizes feasible sets that are products of per-block sets (for example a
    product of per-class norm balls) while keeping the prox an exact blockwise
    closed form. When every part is the same function over blocks of equal
    size, all blocks go through that function's row-wise prox at once as the
    rows of one (blocks, size) array; otherwise each part's row-wise prox
    takes its own column slice of the rows.
    """

    def __init__(self, parts):
        parts = list(parts)
        if not parts:
            raise ValueError("BlockSeparable needs at least one (function, dim) part")
        self.parts = []
        offset = 0
        for fn, dim in parts:
            dim = int(dim)
            if dim < 1:
                raise ValueError("block dimensions must be positive")
            self.parts.append((fn, offset, offset + dim))
            offset += dim
        self.dim = offset
        self.is_indicator = all(fn.is_indicator for fn, _, _ in self.parts)
        first, _, size = self.parts[0]  # the first block spans [0, size)
        uniform = all(fn is first and b - a == size for fn, a, b in self.parts)
        self._rows = (first, len(self.parts), size) if uniform else None

    def _blocks(self, v):
        v = as_vector(v, dim=self.dim)
        return [(fn, v[a:b]) for fn, a, b in self.parts]

    def value(self, v):
        return float(sum(fn.value(blk) for fn, blk in self._blocks(v)))

    def prox(self, gamma, v):
        return self._prox_rows(self._check_gamma(gamma), as_vector(v, dim=self.dim)[None])[0]

    def _prox_rows(self, gamma, V):
        if self._rows is None:  # mixed parts: each on its own column slice
            return np.concatenate([fn._prox_rows(gamma, V[:, a:b]) for fn, a, b in self.parts], axis=1)
        fn, _, size = self._rows
        return fn._prox_rows(gamma, V.reshape(-1, size)).reshape(V.shape)

    def subgradient(self, v):
        return np.concatenate([fn.subgradient(blk) for fn, blk in self._blocks(v)])

    def contains(self, v, tol=1e-10):
        return all(fn.contains(blk, tol) for fn, blk in self._blocks(v))

    def _jacobian_rows(self, V, R):
        if self._rows is None:
            return np.concatenate([fn._jacobian_rows(V[:, a:b], R[:, a:b]) for fn, a, b in self.parts], axis=1)
        fn, _, size = self._rows
        return fn._jacobian_rows(V.reshape(-1, size), R.reshape(-1, size)).reshape(R.shape)

    def _normal_cone_distance_rows(self, X, V):
        # The parts' squares are summed in part order, each squared by the
        # float power (C pow, which can differ from d * d in the last bit).
        if self._rows is None:
            dists = [fn._normal_cone_distance_rows(X[:, a:b], V[:, a:b]) for fn, a, b in self.parts]
        else:
            fn, blocks, size = self._rows
            dists = fn._normal_cone_distance_rows(X.reshape(-1, size), V.reshape(-1, size)).reshape(-1, blocks).T
        sq = 0.0
        for dist in dists:
            sq = sq + np.array([d ** 2 for d in dist.tolist()])
        return np.sqrt(sq)

    def diameter(self):
        return math.sqrt(sum(fn.diameter() ** 2 for fn, _, _ in self.parts))
