"""Stochastic first-order oracles for the benchmark problems.

Minimax oracles serve SAPS, which advances trials as the rows z = (x | y) of
a (T, n + m) array, and return step directions, not gradients: row t of
`directions(Z, draws)` is D = (-grad_x F | grad_y F) for the sampled coupling
term F at Z[t] and draw t, descent in x and ascent in y, so the solver steps
along it as it is. `values(Z, draws)` is the sampled F of each row, for
checks. `draws(rng, count)` stacks count draws with the bits of count single
ones; each row rounds as the 1-D arithmetic does at that point and draw.
Conic oracles return sampled objective and constraint data with the
constraint Jacobian as a dense array, always as a stack of rows (a
`ConicSample`); one point is a stack of one row. The Neyman-Pearson oracle
serves LSAAL, one sample per outer iteration and trial: `draws(rng, count)`
as above, and `evaluate_rows(X, draws)` evaluates row t of X at draw t. Its
full-batch average is `full_batch_rows(X)`, stacked the same way. With
`cone`, `feasible_set`, `dim` and `slater_point()` that is the whole conic
contract: all the runners, `lsaal.estimate_constants` and the conic metrics
read of an oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PrimalDualPoint, as_vector
from .cones import NonpositiveOrthant
from .data import ClassGroupedDataset, DataError
from .prox import BallIndicator, BlockSeparable

__all__ = [
    "ConicSample",
    "BilinearOracle",
    "TanhOracle",
    "NeymanPearsonOracle",
]


@dataclass(frozen=True, eq=False)
class ConicSample:
    """Conic-oracle data at K points, one row each: objective values (K,)
    and gradients (K, dim), constraint values (K, constraints) and
    constraint Jacobians (K, constraints, dim)."""

    f_value: np.ndarray
    f_grad: np.ndarray
    g_value: np.ndarray
    g_jacobian: np.ndarray


def _pair_dots(S: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """(T, 2) array of (s1.x, s2.y) for the draws S, a (T, 2, n) stack of
    (s1, s2) or a (T, 1, n) stack of s1 = s2, and the rows z = (x | y) of Z,
    with n = m. Z may also be a single (1, 2n) row for every draw.

    A (1, n) @ (n, 1) product per dot rounds as the 1-D `s @ x` does.
    """
    return np.matmul(S[:, :, None, :], Z.reshape(len(Z), 2, -1, 1)).reshape(-1, 2)


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

    def draws(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.random((count, self.n))

    def directions(self, Z: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """Row t: (-(xi.y) xi | (xi.x) xi) at z = Z[t] and draw xi = xi[t]."""
        t = _pair_dots(xi[:, None, :], Z)  # (T, 2): xi.x and xi.y
        t[:, 1] *= -1.0
        return (t[:, ::-1, None] * xi[:, None, :]).reshape(len(xi), -1)

    def values(self, Z: np.ndarray, xi: np.ndarray) -> np.ndarray:
        t = _pair_dots(xi[:, None, :], Z)
        return t[:, 0] * t[:, 1]

    def exact_expectation(self, z: PrimalDualPoint):
        Q = self.Q
        gx = Q @ z.y
        gy = Q @ z.x
        return float(z.x @ gx), gx, gy


def _sign_rows(t: np.ndarray) -> np.ndarray:
    return np.where(t >= 0.0, 1.0, -1.0)


def _tanh_pairs(S: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """(T, 2) array of tanh(s1.x) and tanh(s2.y), with math.tanh per entry:
    np.tanh can differ from it in the last bit."""
    return np.array([math.tanh(v) for v in _pair_dots(S, Z).ravel().tolist()]).reshape(-1, 2)


class TanhOracle:
    """Coupling 1 - tanh(v1 <x,u1>) tanh(v2 <y,u2>) with u1,u2 uniform on
    [0,1]^n and labels v1 = sign<xbar,u1>, v2 = sign<ybar,u2>. A draw
    carries its labels: it is the signed pair (s1, s2) = (v1 u1, v2 u2).

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

    def draws(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """count signed draws (s1, s2) = (v1 u1, v2 u2): the bits of
        `signed_pool(rng.random((count, 2, n)))`."""
        return self.signed_pool(rng.random((count, 2, self.n)))

    def signed_pool(self, draws) -> np.ndarray:
        """A stack of raw draws (k, 2, n) with each u1 row multiplied by its
        label v1 and each u2 row by v2. The signs are exact factors, so
        s1.x = v1 (u1.x) bit for bit but for the sign of a zero, and signing
        twice changes nothing."""
        U = np.asarray(draws, dtype=float)
        signs = np.stack((_sign_rows(U[:, 0, :] @ self.xbar), _sign_rows(U[:, 1, :] @ self.ybar)), axis=1)
        return U * signs[:, :, None]

    def directions(self, Z: np.ndarray, S: np.ndarray) -> np.ndarray:
        """Row t at z = Z[t] and signed draw (s1, s2) = S[t]: with
        a = tanh(s1.x) and b = tanh(s2.y), D = ((1 - a^2) b s1 | -a (1 - b^2) s2)."""
        A = _tanh_pairs(S, Z)
        C = (1.0 - A * A) * A[:, ::-1]
        C[:, 1] *= -1.0
        return (C[:, :, None] * S).reshape(len(S), -1)

    def values(self, Z: np.ndarray, S: np.ndarray) -> np.ndarray:
        A = _tanh_pairs(S, Z)
        return 1.0 - A[:, 0] * A[:, 1]

    def mean_directions(self, Z: np.ndarray, pool: np.ndarray) -> np.ndarray:
        """The step averaged over a pool of k signed draws, at each row of Z.

        One stacked pass over the pool's strided (2, k, n) view; each row
        rounds as two matrix-vector products per block on those views do at
        that point alone (a contiguous copy rounds differently). As
        a * a - 1.0 = -(1.0 - a * a), dividing the x block by -k gives the
        step's signs exactly, zeros included.
        """
        k = pool.shape[0]
        A = np.tanh(np.matmul(pool.transpose(1, 0, 2), Z.reshape(len(Z), 2, -1, 1))[..., 0])  # (T, 2, k)
        W = (A * A - 1.0) * A[:, ::-1]
        sums = np.matmul(pool.transpose(1, 2, 0), W[..., None])[..., 0]  # (T, 2, n)
        sums[:, 0] /= -k
        sums[:, 1] /= k
        return sums.reshape(len(Z), -1)


# Points per pass of NeymanPearsonOracle.full_batch_rows: bounds its work
# arrays at FULL_BATCH_CHUNK x (points of a class) x classes.
FULL_BATCH_CHUNK = 64


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
        self._matrices = [dataset.classes[label] for label in self.labels]
        self._counts = np.array([mat.shape[0] for mat in self._matrices])
        # Every class's points stacked, class i's starting at row _starts[i].
        self._points = np.concatenate(self._matrices)
        self._starts = np.cumsum(self._counts) - self._counts
        off_diagonal = ~np.eye(self.m, dtype=bool)
        self._others = [np.flatnonzero(row) for row in off_diagonal]
        # (class i, other block l) index pairs, as two (m, m-1) arrays, and
        # the diagonal and off-diagonal positions of a flattened (m, m) array.
        self._pairs = np.repeat(np.arange(self.m)[:, None], self.m - 1, axis=1), np.array(self._others)
        self._flat_diagonal = np.arange(self.m) * (self.m + 1)
        self._flat_off_diagonal = np.flatnonzero(off_diagonal)

    def slater_point(self) -> np.ndarray:
        return np.zeros(self.dim)

    def draws(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """count draws as a (count, m) index array, row j holding one point per
        class; the bits and stream position of count one-class-at-a-time draws."""
        return rng.integers(self._counts, size=(count, self.m))

    def evaluate_rows(self, X: np.ndarray, idx: np.ndarray) -> ConicSample:
        """The sample at each row of the (T, dim) array X for the draw in the
        same row of the (T, m) index array idx; X is unchecked.

        The full-batch arithmetic on one point per class, without the class
        loop, so a one-point-per-class dataset reproduces full_batch_rows bit
        for bit, and each row has the bits of its point and draw alone.
        """
        m, n, T = self.m, self.n, X.shape[0]
        Psi = self._points[self._starts + idx]  # (T, m, n): row i of each is class i's point
        # A (1, n) @ (n, m) product per class: a plain Psi @ X.T can round differently.
        margins = np.matmul(Psi[:, :, None, :], X.reshape(T, 1, m, n).transpose(0, 1, 3, 2)).reshape(T, m, m)
        i, others = self._pairs
        t = margins[:, i, i] - margins[:, i, others]  # (T, m, m-1): psi_i . x_i - psi_i . x_l
        values = _phi(t).sum(axis=2)
        w = _phi_prime(t)
        coef = np.empty((T, m * m))
        coef[:, self._flat_diagonal] = w.sum(axis=2)
        coef[:, self._flat_off_diagonal] = -w.reshape(T, -1)
        # grads[:, i, l] = coef[:, i, l] * psi_i is class i's gradient in block l;
        # adding 0.0 gives zeros the sign that full_batch_rows' 0.0 + and 0.0 - give them.
        grads = coef.reshape(T, m, m, 1) * Psi[:, :, None, :] + 0.0
        return ConicSample(
            values[:, 0],
            grads[:, 0].reshape(T, m * n),
            values[:, 1:] - self.r,
            grads[:, 1:].reshape(T, m - 1, m * n),
        )

    def full_batch_rows(self, X: np.ndarray) -> ConicSample:
        """The exact finite-sum sample over the empirical class distributions
        at each row of the (K, dim) array X.

        Every product is a per-point matmul of the one-row shapes, so each
        row has the bits of its point evaluated alone. The rows go through
        FULL_BATCH_CHUNK at a time.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(f"points must be a (K, {self.dim}) array, got shape {X.shape}")
        if not np.isfinite(X).all():
            raise ValueError("points have non-finite entries")
        m, n, K = self.m, self.n, X.shape[0]
        # grads[:, 0]: objective gradients; grads[:, i]: Jacobian row i-1.
        grads = np.empty((K, m, m, n))
        values = np.empty((K, m))
        for lo in range(0, K, FULL_BATCH_CHUNK):
            hi = min(lo + FULL_BATCH_CHUNK, K)
            XT = X[lo:hi].reshape(hi - lo, m, n).transpose(0, 2, 1)  # (k, n, m) blocks as columns
            for i, A in enumerate(self._matrices):
                P = np.matmul(A, XT)  # (k, p_i, m) projections of class-i points on all blocks
                others = self._others[i]
                t = P[:, :, i:i + 1] - P[:, :, others]  # (k, p_i, m-1)
                # np.mean's arithmetic over the class, without its overhead.
                values[lo:hi, i] = (_phi(t).sum(axis=1) / A.shape[0]).sum(axis=1)
                w = _phi_prime(t) / A.shape[0]  # (k, p_i, m-1) averaged weights
                # 0.0 + and 0.0 - as on a zeroed array, signs of zeros included.
                grads[lo:hi, i, i] = 0.0 + np.matmul(A.T, w.sum(axis=2)[:, :, None])[:, :, 0]
                grads[lo:hi, i, others] = 0.0 - np.matmul(A.T, w).transpose(0, 2, 1)  # per-other-block
        return ConicSample(
            values[:, 0],
            grads[:, 0].reshape(K, m * n),
            values[:, 1:] - self.r,
            grads[:, 1:].reshape(K, m - 1, m * n),
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
