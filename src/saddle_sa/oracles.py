"""Stochastic first-order oracles for the benchmark problems.

Minimax oracles return a function value and the two block (sub)gradients of
the sampled coupling term; the descent/ascent sign convention is applied by
the solver step, not here. Conic oracles return sampled objective and
constraint data with the constraint Jacobian as a dense array.

Each oracle splits sampling into `draw` (consumes randomness) and `evaluate`
(deterministic given the draw), so tests can freeze a draw and probe
gradients by finite differences. The minimax oracles also draw and evaluate
row-wise: `draws(rng, count)` stacks count draws, with the bits of count
`draw` calls, and `evaluate_rows(X, Y, draws)` evaluates row t of (X, Y) at
draw t, each row rounding as `evaluate` does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PrimalDualPoint, _row_dots, as_vector
from .cones import NonpositiveOrthant
from .data import ClassGroupedDataset, DataError
from .prox import BallIndicator, BlockSeparable

__all__ = [
    "MinimaxSample",
    "ConicSample",
    "BilinearOracle",
    "TanhOracle",
    "NeymanPearsonOracle",
]


@dataclass(frozen=True, eq=False)
class MinimaxSample:
    """One oracle call: sampled value F(x,y,xi) and block gradients.

    grad_x estimates an element of the x-subdifferential of the coupling term
    and grad_y one of the y-superdifferential; the solver consumes the stacked
    direction (grad_x, -grad_y).
    """

    value: float
    grad_x: np.ndarray
    grad_y: np.ndarray


@dataclass(frozen=True, eq=False)
class ConicSample:
    """One conic-oracle call: objective value/gradient, constraint value, and
    the (constraints, dim) constraint Jacobian."""

    f_value: float
    f_grad: np.ndarray
    g_value: np.ndarray
    g_jacobian: np.ndarray


class BilinearOracle:
    """Coupling (xi^T x)(xi^T y) with xi uniform on [0,1]^n.

    The expectation is x^T Q y with Q_ii = 1/3 and Q_ij = 1/4 (i != j), which
    makes exact gradients and the exact objective available for tests and
    error metrics.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("dimension must be positive")
        self.n = int(n)
        self.m = int(n)

    @property
    def Q(self) -> np.ndarray:
        return np.full((self.n, self.n), 0.25) + (1.0 / 3.0 - 0.25) * np.eye(self.n)

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        return self.draws(rng, 1)[0]

    def draws(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.random((count, self.n))

    def evaluate(self, z: PrimalDualPoint, xi: np.ndarray) -> MinimaxSample:
        return _first_row(self.evaluate_rows(z.x[None], z.y[None], np.asarray(xi, dtype=float)[None]))

    def evaluate_rows(self, X: np.ndarray, Y: np.ndarray, xi: np.ndarray) -> MinimaxSample:
        tx = _row_dots(xi, X)
        ty = _row_dots(xi, Y)
        return MinimaxSample(tx * ty, xi * ty[:, None], xi * tx[:, None])

    def sample(self, rng: np.random.Generator, z: PrimalDualPoint) -> MinimaxSample:
        return self.evaluate(z, self.draw(rng))

    def exact_expectation(self, z: PrimalDualPoint):
        Q = self.Q
        gx = Q @ z.y
        gy = Q @ z.x
        return float(z.x @ gx), gx, gy


def _first_row(sample: MinimaxSample) -> MinimaxSample:
    return MinimaxSample(float(sample.value[0]), sample.grad_x[0], sample.grad_y[0])


def _sign_rows(t: np.ndarray) -> np.ndarray:
    return np.where(t >= 0.0, 1.0, -1.0)


def _tanh_rows(t: np.ndarray) -> np.ndarray:
    # math.tanh per entry: np.tanh can differ from it in the last bit.
    return np.array([math.tanh(v) for v in t.tolist()])


class TanhOracle:
    """Coupling 1 - tanh(v1 <x,u1>) tanh(v2 <y,u2>) with u1,u2 uniform on
    [0,1]^n and labels v1 = sign<xbar,u1>, v2 = sign<ybar,u2>.

    Not convex-concave globally; used as an empirical study only, so no
    saddle-point invariants are asserted for it.
    """

    def __init__(self, xbar: np.ndarray, ybar: np.ndarray):
        self.xbar = as_vector(xbar, name="xbar")
        self.ybar = as_vector(ybar, name="ybar")
        if self.xbar.shape != self.ybar.shape:
            raise ValueError("xbar and ybar must have equal dimension")
        self.n = self.xbar.shape[0]
        self.m = self.n

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        return self.draws(rng, 1)[0]

    def draws(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.random((count, 2, self.n))

    def evaluate(self, z: PrimalDualPoint, u: np.ndarray) -> MinimaxSample:
        return _first_row(self.evaluate_rows(z.x[None], z.y[None], np.asarray(u, dtype=float)[None]))

    def evaluate_rows(self, X: np.ndarray, Y: np.ndarray, U: np.ndarray) -> MinimaxSample:
        u1, u2 = U[:, 0], U[:, 1]
        v1 = _sign_rows(_row_dots(u1, self.xbar))
        v2 = _sign_rows(_row_dots(u2, self.ybar))
        a = _tanh_rows(v1 * _row_dots(u1, X))
        b = _tanh_rows(v2 * _row_dots(u2, Y))
        grad_x = (-v1 * (1.0 - a * a) * b)[:, None] * u1
        grad_y = (-v2 * a * (1.0 - b * b))[:, None] * u2
        return MinimaxSample(1.0 - a * b, grad_x, grad_y)

    def sample(self, rng: np.random.Generator, z: PrimalDualPoint) -> MinimaxSample:
        return self.evaluate(z, self.draw(rng))

    def evaluate_batch(self, z: PrimalDualPoint, draws) -> MinimaxSample:
        """Mean value and gradients over a stack of frozen draws (k, 2, n)."""
        U = np.asarray(draws, dtype=float)
        u1, u2 = U[:, 0, :], U[:, 1, :]
        v1 = _sign_rows(u1 @ self.xbar)
        v2 = _sign_rows(u2 @ self.ybar)
        a = np.tanh(v1 * (u1 @ z.x))
        b = np.tanh(v2 * (u2 @ z.y))
        k = U.shape[0]
        value = float((1.0 - a * b).sum() / k)  # np.mean's sum and division, without its overhead
        grad_x = u1.T @ (-v1 * (1.0 - a * a) * b) / k
        grad_y = u2.T @ (-v2 * a * (1.0 - b * b)) / k
        return MinimaxSample(value, grad_x, grad_y)


def _phi(t):
    # log(1 + exp(-t)), stable for large |t|
    return np.logaddexp(0.0, -t)


def _phi_prime(t):
    # -1/(1 + exp(t)) written via tanh to avoid overflow
    return -0.5 * (1.0 - np.tanh(0.5 * np.asarray(t, dtype=float)))


class NeymanPearsonOracle:
    """Multi-class classification with per-class error budgets.

    The decision variable stacks one n-dim weight block per class,
    x = (x_1, ..., x_m). With psi_i drawn from class i and
    phi(t) = log(1 + exp(-t)):

      objective   f(x)   = sum_{l != 1} E[ phi(x_1.psi_1 - x_l.psi_1) ]
      constraints g_i(x) = sum_{l != i} E[ phi(x_i.psi_i - x_l.psi_i) ] - r_i
                  for i = 2..m, required to lie in the nonpositive orthant.

    The feasible set is the product of per-block l2 balls of radius lam. One
    oracle call draws a single point from every class, so each sample is an
    unbiased estimate of the objective and of every constraint row at once.
    """

    def __init__(self, dataset: ClassGroupedDataset, lam: float, r=None):
        if dataset.num_classes < 2:
            raise DataError("need at least 2 classes")
        if lam <= 0.0:
            raise ValueError("lam must be positive")
        self.dataset = dataset
        self.lam = float(lam)
        self.m = dataset.num_classes
        self.n = dataset.feature_dim
        if self.n < 1:
            raise DataError("dataset has no features")
        self.labels = dataset.labels
        if r is None:
            r = np.full(self.m - 1, float(self.m - 1))
        self.r = as_vector(r, dim=self.m - 1, name="r")
        self.dim = self.m * self.n  # stacked primal dimension
        self.cone = NonpositiveOrthant(self.m - 1)
        zero = np.zeros(self.n)
        self.feasible_set = BlockSeparable([(BallIndicator(zero, self.lam), self.n)] * self.m)
        self._matrices = [dataset.class_matrix(label) for label in self.labels]
        self._counts = [mat.shape[0] for mat in self._matrices]
        self._off_diagonal = ~np.eye(self.m, dtype=bool)
        self._others = [np.flatnonzero(row) for row in self._off_diagonal]

    def blocks(self, x: np.ndarray) -> np.ndarray:
        x = as_vector(x, dim=self.dim, name="stacked x")
        return x.reshape(self.m, self.n)

    def slater_point(self) -> np.ndarray:
        return np.zeros(self.dim)

    def draw(self, rng: np.random.Generator):
        return tuple(int(rng.integers(count)) for count in self._counts)

    def sample(self, rng: np.random.Generator, x: np.ndarray) -> ConicSample:
        return self.evaluate(x, self.draw(rng))

    def evaluate(self, x: np.ndarray, idx) -> ConicSample:
        # The full-batch arithmetic on one point per class, without the class
        # loop, so a one-point-per-class dataset reproduces full_batch bit for bit.
        m, n = self.m, self.n
        X = self.blocks(x)
        rows = [self._matrices[i][idx[i]:idx[i] + 1] for i in range(m)]
        # One product per class: a stacked Psi @ X.T can round differently.
        margins = np.concatenate([row @ X.T for row in rows])  # (m, m): psi_i . x_l
        t = (np.diagonal(margins)[:, None] - margins)[self._off_diagonal].reshape(m, m - 1)
        values = _phi(t).sum(axis=1)
        w = _phi_prime(t)
        coef = np.diag(w.sum(axis=1))
        coef[self._off_diagonal] = -w.reshape(-1)
        # grads[i, l] = coef[i, l] * psi_i is class i's gradient in block l;
        # adding 0.0 gives zeros the sign that full_batch's np.zeros gives them.
        grads = coef[:, :, None] * np.concatenate(rows)[:, None, :] + 0.0
        return ConicSample(
            float(values[0]),
            grads[0].reshape(-1),
            values[1:] - self.r,
            grads[1:].reshape(m - 1, m * n),
        )

    def full_batch(self, x: np.ndarray) -> ConicSample:
        """Exact finite-sum version over the empirical class distributions."""
        m, n = self.m, self.n
        X = self.blocks(x)
        grads = np.zeros((m, m, n))  # class 0: objective gradient; class i: Jacobian row i-1
        values = np.empty(m)
        for i, A in enumerate(self._matrices):
            P = A @ X.T  # (p_i, m) projections of class-i points on all blocks
            others = self._others[i]
            t = P[:, [i]] - P[:, others]  # (p_i, m-1)
            values[i] = _phi(t).mean(axis=0).sum()
            w = _phi_prime(t) / P.shape[0]  # (p_i, m-1) averaged weights
            grads[i, i] += A.T @ w.sum(axis=1)
            grads[i, others] -= (A.T @ w).T  # per-other-block contributions
        return ConicSample(
            float(values[0]),
            grads[0].reshape(-1),
            values[1:] - self.r,
            grads[1:].reshape(m - 1, m * n),
        )

    def envelope_constants(self) -> dict:
        """Analytic per-sample sup bounds from feature-norm envelopes.

        With B the largest feature norm and every block confined to a ball of
        radius lam, each margin t satisfies |t| <= 2*lam*B, phi(t) stays below
        log(1+exp(2*lam*B)), and |phi'(t)| <= 1.
        """
        B = self.dataset.max_feature_norm()
        m = self.m
        phi_max = float(np.logaddexp(0.0, 2.0 * self.lam * B))
        row_bound = B * math.sqrt((m - 1.0) ** 2 + (m - 1.0))
        nu_g = math.sqrt(sum(max(ri, (m - 1) * phi_max - ri) ** 2 for ri in self.r))
        return {
            "nu_g": nu_g,
            "kappa_f": row_bound,
            "kappa_g": math.sqrt(m - 1.0) * row_bound,
        }
