"""Closed convex cones with exact metric projections.

Every vector splits as y = project(y) + polar_project(y) with the two parts
orthogonal (Moreau decomposition), so the polar projection is computed as the
residual y - project(y) and is exact whenever project is; the same split gives
the polar projection's generalized Jacobian as I - J.
"""

from __future__ import annotations

import math

import numpy as np

from .core import _row_dots, as_vector

__all__ = [
    "ConvexCone",
    "NonnegativeOrthant",
    "NonpositiveOrthant",
    "SecondOrderCone",
    "ZeroCone",
    "FreeCone",
    "ProductCone",
]


class ConvexCone:
    """A closed convex cone in R^dim with an exact projection."""

    def __init__(self, dim: int):
        dim = int(dim)
        if dim < 1:
            raise ValueError("cone dimension must be positive")
        self.dim = dim

    def _check(self, y) -> np.ndarray:
        return as_vector(y, dim=self.dim, name="cone argument")

    def project(self, y: np.ndarray) -> np.ndarray:
        return self._project(self._check(y))

    def polar_project(self, y: np.ndarray) -> np.ndarray:
        """Projection onto the polar cone, via the Moreau residual."""
        return self._polar_project(self._check(y))

    def _project(self, y: np.ndarray) -> np.ndarray:
        """Projection of a finite float array along its last axis, of length
        dim: one point, or the rows of a 2-D stack; unchecked."""
        raise NotImplementedError

    def _polar_project(self, y: np.ndarray) -> np.ndarray:
        """Unchecked polar projection, for arrays built from checked data."""
        return y - self._project(y)

    def _jacobian_rows(self, Y: np.ndarray, R: np.ndarray) -> np.ndarray:
        """Row i is J_i @ R[i], for J_i an element of the generalized Jacobian
        of the projection at the point Y[i]; Y and R are (k, dim), unchecked."""
        raise NotImplementedError

    def _polar_jacobian_rows(self, Y: np.ndarray, R: np.ndarray) -> np.ndarray:
        """`_jacobian_rows` of the polar projection, via the Moreau residual."""
        return R - self._jacobian_rows(Y, R)

    def contains(self, y: np.ndarray, tol: float = 1e-10) -> bool:
        y = self._check(y)
        return float(np.linalg.norm(y - self._project(y))) <= tol

    def polar_contains(self, y: np.ndarray, tol: float = 1e-10) -> bool:
        # y lies in the polar cone iff its projection onto this cone is 0.
        y = self._check(y)
        return float(np.linalg.norm(self._project(y))) <= tol

    def interior_distance(self, y: np.ndarray) -> float:
        """Distance from y to the cone boundary; 0 when y is not interior.

        Used to turn a strictly feasible point into a Slater margin.
        """
        raise NotImplementedError


class NonnegativeOrthant(ConvexCone):
    def _project(self, y):
        return np.maximum(y, 0.0)

    def _jacobian_rows(self, Y, R):
        return np.where(Y > 0.0, R, 0.0)

    def interior_distance(self, y):
        return float(max(0.0, self._check(y).min()))


class NonpositiveOrthant(ConvexCone):
    def _project(self, y):
        return np.minimum(y, 0.0)

    def _jacobian_rows(self, Y, R):
        return np.where(Y < 0.0, R, 0.0)

    def interior_distance(self, y):
        return float(max(0.0, -self._check(y).max()))


class SecondOrderCone(ConvexCone):
    """{(u, t) : ||u|| <= t} with the scalar entry stored last; dim >= 2."""

    def __init__(self, dim: int):
        super().__init__(dim)
        if self.dim < 2:
            raise ValueError("second-order cone needs dimension >= 2")

    def _parts(self, Y):
        """(u, t, ||u||) of each row of the 2-D array Y; the norm rounds as
        np.linalg.norm does on one row."""
        U, t = Y[:, :-1], Y[:, -1]
        return U, t, np.sqrt(_row_dots(U, U))

    def _project(self, y):
        U, t, nu = self._parts(y.reshape(-1, self.dim))
        # Off the cone and its polar, |t| < ||u||, so ||u|| > 0 there.
        safe = np.where(nu > 0.0, nu, 1.0)
        shrunk = np.concatenate((((nu + t) / (2.0 * safe))[:, None] * U, ((nu + t) / 2.0)[:, None]), axis=1)
        out = np.where((nu <= t)[:, None], y.reshape(-1, self.dim), np.where((nu <= -t)[:, None], 0.0, shrunk))
        return out.reshape(y.shape)

    def _jacobian_rows(self, Y, R):
        # Off the cone and its polar, with w = u/||u|| and r = (r_u, r_t):
        # J r = ((1 + t/||u||) r_u - (t/||u||) w <w, r_u> + w r_t,  <w, r_u> + r_t) / 2.
        U, t, nu = self._parts(Y)
        safe = np.where(nu > 0.0, nu, 1.0)
        W, ratio = U / safe[:, None], t / safe
        Ru, rt = R[:, :-1], R[:, -1]
        wr = _row_dots(W, Ru)
        shrunk = np.concatenate((((1.0 + ratio)[:, None] * Ru - (ratio * wr)[:, None] * W + rt[:, None] * W) / 2.0,
                                 ((wr + rt) / 2.0)[:, None]), axis=1)
        return np.where((nu <= t)[:, None], R, np.where((nu <= -t)[:, None], 0.0, shrunk))

    def interior_distance(self, y):
        y = self._check(y)
        u, t = y[:-1], float(y[-1])
        return max(0.0, (t - float(np.linalg.norm(u))) / math.sqrt(2.0))


class ZeroCone(ConvexCone):
    """{0}; its polar is the whole space."""

    def _project(self, y):
        return np.zeros_like(y)

    def _jacobian_rows(self, Y, R):
        return np.zeros_like(R)

    def interior_distance(self, y):
        self._check(y)
        return 0.0  # empty interior


class FreeCone(ConvexCone):
    """The whole space; its polar is {0}."""

    def _project(self, y):
        return y.copy()

    def _jacobian_rows(self, Y, R):
        return R.copy()

    def interior_distance(self, y):
        self._check(y)
        return math.inf


class ProductCone(ConvexCone):
    """Cartesian product of cones; projections act blockwise."""

    def __init__(self, factors):
        factors = list(factors)
        if not factors:
            raise ValueError("product cone needs at least one factor")
        super().__init__(sum(c.dim for c in factors))
        self.factors = factors
        offsets = np.cumsum([0] + [c.dim for c in factors])
        self._slices = [slice(int(a), int(b)) for a, b in zip(offsets[:-1], offsets[1:])]

    def _project(self, y):
        return np.concatenate([c._project(y[..., s]) for c, s in zip(self.factors, self._slices)], axis=-1)

    def _jacobian_rows(self, Y, R):
        return np.concatenate([c._jacobian_rows(Y[:, s], R[:, s]) for c, s in zip(self.factors, self._slices)],
                              axis=1)

    def interior_distance(self, y):
        y = self._check(y)
        return min(c.interior_distance(y[s]) for c, s in zip(self.factors, self._slices))
