"""Exact proximal maps for the nonsmooth terms used by the solvers.

Every kind here admits a closed-form prox; none is solved by an inner
iteration, which keeps the prox exact to rounding and removes one error
source from rate measurements. `prox(f, gamma, v)` returns the unique
minimizer of  f(w) + ||w - v||^2 / (2*gamma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PrimalDualPoint, _row_dots, as_vector

__all__ = [
    "ProximableFunction",
    "ZeroFunction",
    "ScaledL1",
    "ScaledL2",
    "PositivePartSum",
    "BallIndicator",
    "BoxIndicator",
    "BlockSeparable",
    "prox",
    "prox_joint",
]


class ProximableFunction:
    """A proper lsc convex function with evaluable value and exact prox map."""

    is_indicator = False

    def value(self, v: np.ndarray) -> float:
        raise NotImplementedError

    def prox(self, gamma: float, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _prox_rows(self, gamma: float, V: np.ndarray) -> np.ndarray:
        """Unchecked prox of each row of the 2-D float array V, each row
        rounding as `prox` does on it alone; kinds with a vectorized form
        override this row loop."""
        return np.array([self.prox(gamma, v) for v in V])

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

    def normal_cone_distance(self, x: np.ndarray, v: np.ndarray) -> float:
        """Euclidean distance of v to the normal cone of the domain at x."""
        raise NotImplementedError

    def diameter(self) -> float:
        """Euclidean diameter of the domain (indicator kinds only)."""
        raise NotImplementedError


class ZeroFunction(ProximableFunction):
    """f = 0; prox is the identity. Doubles as the free-space indicator."""

    is_indicator = True  # indicator of the whole space

    def value(self, v):
        as_vector(v)
        return 0.0

    def prox(self, gamma, v):
        return self._prox_rows(self._check_gamma(gamma), as_vector(v))

    def _prox_rows(self, gamma, V):
        return V.copy()

    def subgradient(self, v):
        return np.zeros_like(as_vector(v))

    def contains(self, v, tol=1e-10):
        return True

    def normal_cone_distance(self, x, v):
        # Normal cone of the whole space is {0}.
        return float(np.linalg.norm(as_vector(v)))

    def diameter(self):
        return math.inf


@dataclass(frozen=True)
class ScaledL1(ProximableFunction):
    """f(v) = mu * sum |v_i|; prox is the componentwise soft threshold at mu*gamma."""

    mu: float

    def __post_init__(self):
        if not self.mu >= 0.0:
            raise ValueError("mu must be nonnegative")

    def value(self, v):
        return self.mu * float(np.abs(as_vector(v)).sum())

    def prox(self, gamma, v):
        # Elementwise, so the row-wise form serves a single vector too.
        return self._prox_rows(self._check_gamma(gamma), as_vector(v))

    def _prox_rows(self, gamma, V):
        t = self.mu * gamma
        return np.sign(V) * np.maximum(np.abs(V) - t, 0.0)

    def subgradient(self, v):
        return self.mu * np.sign(as_vector(v))


@dataclass(frozen=True)
class ScaledL2(ProximableFunction):
    """f(v) = mu * ||v||_2; prox is the block soft threshold (shrink toward 0)."""

    mu: float

    def __post_init__(self):
        if not self.mu >= 0.0:
            raise ValueError("mu must be nonnegative")

    def value(self, v):
        return self.mu * float(np.linalg.norm(as_vector(v)))

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
class PositivePartSum(ProximableFunction):
    """f(v) = mu * sum max(v_i, 0); one-sided soft threshold.

    prox_i = v_i - mu*gamma  if v_i >= mu*gamma
           = 0               if 0 <= v_i < mu*gamma
           = v_i             if v_i < 0
    """

    mu: float

    def __post_init__(self):
        if not self.mu >= 0.0:
            raise ValueError("mu must be nonnegative")

    def value(self, v):
        return self.mu * float(np.maximum(as_vector(v), 0.0).sum())

    def prox(self, gamma, v):
        # Elementwise, so the row-wise form serves a single vector too.
        return self._prox_rows(self._check_gamma(gamma), as_vector(v))

    def _prox_rows(self, gamma, V):
        t = self.mu * gamma
        return np.where(V >= t, V - t, np.where(V < 0.0, V, 0.0))

    def subgradient(self, v):
        # Minimum-norm selection: mu on the positive side, 0 at and below the kink.
        return self.mu * (as_vector(v) > 0.0).astype(float)


@dataclass(frozen=True, eq=False)
class BallIndicator(ProximableFunction):
    """Indicator of the closed Euclidean ball {v : ||v - center|| <= radius}."""

    center: np.ndarray
    radius: float
    is_indicator = True

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center, name="center"))
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValueError("radius must be positive and finite")

    def value(self, v):
        return 0.0 if self.contains(v) else math.inf

    def prox(self, gamma, v):
        return self._prox_rows(self._check_gamma(gamma), as_vector(v)[None])[0]

    def _prox_rows(self, gamma, V):
        if V.shape[1] != self.center.shape[0]:
            raise ValueError(f"vector must have dimension {self.center.shape[0]}, got {V.shape[1]}")
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
        v = as_vector(v, dim=self.center.shape[0])
        return float(np.linalg.norm(v - self.center)) <= self.radius + tol

    def normal_cone_distance(self, x, v, boundary_tol=1e-9):
        x = as_vector(x, dim=self.center.shape[0])
        v = as_vector(v, dim=self.center.shape[0])
        d = x - self.center
        nrm = float(np.linalg.norm(d))
        if nrm < self.radius - boundary_tol * (1.0 + self.radius):
            return float(np.linalg.norm(v))  # interior: normal cone is {0}
        # Boundary: normal cone is the outward ray along d.
        t = max(0.0, float(v @ d) / (nrm * nrm)) if nrm > 0.0 else 0.0
        return float(np.linalg.norm(v - t * d))

    def diameter(self):
        return 2.0 * self.radius


@dataclass(frozen=True, eq=False)
class BoxIndicator(ProximableFunction):
    """Indicator of the box {v : lo <= v <= hi} (componentwise)."""

    lo: np.ndarray
    hi: np.ndarray
    is_indicator = True

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
        self._check_gamma(gamma)
        return np.clip(as_vector(v, dim=self.lo.shape[0]), self.lo, self.hi)

    def subgradient(self, v):
        if not self.contains(v):
            raise ValueError("subgradient of an indicator is undefined outside its domain")
        return np.zeros_like(as_vector(v))

    def contains(self, v, tol=1e-10):
        v = as_vector(v, dim=self.lo.shape[0])
        return bool((v >= self.lo - tol).all() and (v <= self.hi + tol).all())

    def normal_cone_distance(self, x, v, boundary_tol=1e-9):
        x = as_vector(x, dim=self.lo.shape[0])
        v = as_vector(v, dim=self.lo.shape[0])
        resid = v.copy()
        at_hi = x >= self.hi - boundary_tol
        at_lo = x <= self.lo + boundary_tol
        # At an active face the normal cone admits the matching-sign component.
        resid[at_hi & (v > 0.0)] = 0.0
        resid[at_lo & (v < 0.0)] = 0.0
        return float(np.linalg.norm(resid))

    def diameter(self):
        return float(np.linalg.norm(self.hi - self.lo))


class BlockSeparable(ProximableFunction):
    """Separable sum f(v) = sum_i f_i(v_i) over fixed contiguous blocks.

    Realizes feasible sets that are products of per-block sets (for example a
    product of per-class norm balls) while keeping the prox an exact blockwise
    closed form. When every part is the same function over blocks of equal
    size, all blocks go through that function's row-wise prox at once as the
    rows of one (blocks, size) array.
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
        return v, [(fn, v[a:b]) for fn, a, b in self.parts]

    def value(self, v):
        _, blocks = self._blocks(v)
        return float(sum(fn.value(blk) for fn, blk in blocks))

    def prox(self, gamma, v):
        self._check_gamma(gamma)
        if self._rows is None:
            _, blocks = self._blocks(v)
            return np.concatenate([fn.prox(gamma, blk) for fn, blk in blocks])
        fn, count, size = self._rows
        V = as_vector(v, dim=self.dim).reshape(count, size)
        return fn._prox_rows(gamma, V).reshape(-1)

    def subgradient(self, v):
        _, blocks = self._blocks(v)
        return np.concatenate([fn.subgradient(blk) for fn, blk in blocks])

    def contains(self, v, tol=1e-10):
        _, blocks = self._blocks(v)
        return all(fn.contains(blk, tol) for fn, blk in blocks)

    def normal_cone_distance(self, x, v):
        x = as_vector(x, dim=self.dim)
        v = as_vector(v, dim=self.dim)
        sq = 0.0
        for fn, a, b in self.parts:
            sq += fn.normal_cone_distance(x[a:b], v[a:b]) ** 2
        return math.sqrt(sq)

    def diameter(self):
        return math.sqrt(sum(fn.diameter() ** 2 for fn, _, _ in self.parts))


def prox(f: ProximableFunction, gamma: float, v: np.ndarray) -> np.ndarray:
    """argmin_w f(w) + ||w - v||^2 / (2*gamma)."""
    return f.prox(gamma, v)


def prox_joint(theta: ProximableFunction, omega: ProximableFunction, gamma: float,
               z: PrimalDualPoint) -> PrimalDualPoint:
    """Blockwise prox over z = (x, y): theta acts on x, omega acts on y."""
    return PrimalDualPoint(theta.prox(gamma, z.x), omega.prox(gamma, z.y))
