"""Closed convex cones with exact metric projections.

Every vector splits as y = project(y) + polar_project(y) with the two parts
orthogonal (Moreau decomposition), so the polar projection is computed as the
residual y - project(y) and is exact whenever project is.
"""

from __future__ import annotations

import math

import numpy as np

from .core import as_vector

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
        """Projection of a finite 1-D float array of length dim; unchecked."""
        raise NotImplementedError

    def _polar_project(self, y: np.ndarray) -> np.ndarray:
        """Unchecked polar projection, for arrays built from checked data."""
        return y - self._project(y)

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

    def interior_distance(self, y):
        return float(max(0.0, self._check(y).min()))


class NonpositiveOrthant(ConvexCone):
    def _project(self, y):
        return np.minimum(y, 0.0)

    def interior_distance(self, y):
        return float(max(0.0, -self._check(y).max()))


class SecondOrderCone(ConvexCone):
    """{(u, t) : ||u|| <= t} with the scalar entry stored last; dim >= 2."""

    def __init__(self, dim: int):
        super().__init__(dim)
        if self.dim < 2:
            raise ValueError("second-order cone needs dimension >= 2")

    def _project(self, y):
        u, t = y[:-1], float(y[-1])
        nu = float(np.linalg.norm(u))
        if nu <= t:
            return y.copy()
        if nu <= -t:
            return np.zeros_like(y)
        coef = (nu + t) / (2.0 * nu)
        out = np.empty_like(y)
        out[:-1] = coef * u
        out[-1] = (nu + t) / 2.0
        return out

    def interior_distance(self, y):
        y = self._check(y)
        u, t = y[:-1], float(y[-1])
        return max(0.0, (t - float(np.linalg.norm(u))) / math.sqrt(2.0))


class ZeroCone(ConvexCone):
    """{0}; its polar is the whole space."""

    def _project(self, y):
        return np.zeros(self.dim)

    def interior_distance(self, y):
        self._check(y)
        return 0.0  # empty interior


class FreeCone(ConvexCone):
    """The whole space; its polar is {0}."""

    def _project(self, y):
        return y.copy()

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
        return np.concatenate([c._project(y[s]) for c, s in zip(self.factors, self._slices)])

    def interior_distance(self, y):
        y = self._check(y)
        return min(c.interior_distance(y[s]) for c, s in zip(self.factors, self._slices))
