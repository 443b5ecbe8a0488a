"""Error measures and statistical post-processing.

Deterministic evaluators wrap the exact (or finite-sum) objective so the
stochastic solvers can be scored against noise-free quantities: the minimax
optimality gap, Lagrangian gradient norms, constraint violation, projected
KKT residuals, log-log rate fits, and tail tallies. The conic metrics take
the oracle and a point, `proj_kkt(oracle, z)`, and evaluate the full batch
at z themselves, as the one-row case of their row forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PrimalDualPoint, _row_dots, as_vector
from .cones import ConvexCone
from .prox import ProximableFunction

__all__ = [
    "BilinearEvaluator",
    "FiniteSumMinimaxEvaluator",
    "minimax_gap",
    "lagrangian_grad",
    "KktErrors",
    "kkt_errors",
    "constraint_violation",
    "proj_kkt",
    "SlopeFit",
    "rate_slope_fit",
    "tail_tally",
    "estimate_m_star",
]


class BilinearEvaluator:
    """Exact objective theta(x) + x^T Q y - omega(y) for the bilinear
    benchmark; deterministic by construction. The regularizers carry their
    own weight, so this is the objective the solver is given."""

    def __init__(self, oracle, theta: ProximableFunction, omega: ProximableFunction):
        self.Q = oracle.Q
        self.theta = theta
        self.omega = omega

    def phi(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(self._phi_rows(as_vector(x)[None], as_vector(y)[None])[0])

    def _phi_rows(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Unchecked objective at each row pair (x, y) of X and Y; `phi` is
        its checked one-row case. A (1, n) @ (n, n) product per row, then a
        row dot, rounds as the one-row (x @ Q) @ y does; a plain X @ Q need not."""
        coupling = _row_dots(np.matmul(X[:, None, :], self.Q)[:, 0], Y)
        return self.theta._value_rows(X) + coupling - self.omega._value_rows(Y)


class FiniteSumMinimaxEvaluator:
    """Empirical-average objective over a frozen pool of oracle draws.

    Approximates the expectation objective by the mean over `draws`; serves as
    the reproducible reference problem for oracles without a closed-form
    expectation. The objective is theta(x) + mean coupling - omega(y), with
    the weight carried by the regularizers. The pool is the oracle's own
    draws (for `TanhOracle`, label-signed), and the oracle provides
    `values(Z, draws)` and the pool-mean step `mean_directions(Z, pool)`. As
    an oracle for run_saps it has the row form: empty draws that use no
    randomness, and `directions(Z, draws)` is the pool mean at each row; its
    block sizes n and m are the oracle's.
    """

    def __init__(self, oracle, draws, theta: ProximableFunction, omega: ProximableFunction):
        draws = list(draws)
        if not draws:
            raise ValueError("need at least one frozen draw")
        self.oracle = oracle
        self.n, self.m = oracle.n, oracle.m
        self.pool = np.stack(draws)
        self.theta = theta
        self.omega = omega

    def draws(self, rng, count: int) -> np.ndarray:
        return np.empty((count, 0))

    def directions(self, Z: np.ndarray, _) -> np.ndarray:
        return self.oracle.mean_directions(Z, self.pool)

    def phi(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(self._phi_rows(as_vector(x)[None], as_vector(y)[None])[0])

    def _phi_rows(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Unchecked objective at each row pair (x, y) of X and Y; `phi` is
        its checked one-row case. The oracle values every (row, draw) pair in
        one call, each row's pool mean a contiguous row of that grid."""
        rows, k = len(X), len(self.pool)
        Z = np.repeat(np.concatenate((X, Y), axis=1), k, axis=0)
        values = self.oracle.values(Z, self.pool[np.tile(np.arange(k), rows)]).reshape(rows, k)
        return self.theta._value_rows(X) + np.mean(values, axis=1) - self.omega._value_rows(Y)


def minimax_gap(evaluator, z: PrimalDualPoint, z_star: PrimalDualPoint) -> float:
    """Optimality measure phi(x, y*) - phi(x*, y); zero exactly at saddles.

    Returns the raw difference (tiny negatives up to rounding are possible);
    callers that report it may clamp at zero but should keep the raw value.
    The one-row case of `_minimax_gap_rows`.
    """
    return float(_minimax_gap_rows(evaluator, z.stacked()[None], z_star)[0])


def _minimax_gap_rows(evaluator, P: np.ndarray, z_star: PrimalDualPoint) -> np.ndarray:
    """`minimax_gap` at each stacked (x | y) row of P, from two calls of the
    evaluator's row objective `_phi_rows(X, Y)`; unchecked."""
    X, Y = P[:, :z_star.n], P[:, z_star.n:]
    # z*'s blocks as contiguous rows, which the row dots round as one point.
    X_star, Y_star = np.tile(z_star.x, (len(P), 1)), np.tile(z_star.y, (len(P), 1))
    return evaluator._phi_rows(X, Y_star) - evaluator._phi_rows(X_star, Y)


def lagrangian_grad(oracle, z: PrimalDualPoint) -> np.ndarray:
    """Stacked gradient (grad_x l, grad_y l) = (grad f + Dg^T y, g(x)) of the
    Lagrangian l(x,y) = f(x) + <y, g(x)> at z, from the conic oracle's full
    batch at z.x."""
    return _lagrangian_grad_rows(oracle.full_batch_rows(z.x[None]), z.y[None])[0]


def _lagrangian_grad_rows(fb, Y: np.ndarray) -> np.ndarray:
    """`lagrangian_grad` of each row of the stacked sample `fb` (as
    `full_batch_rows` returns it) with the matching row of Y. The per-row
    matmul rounds as the one-point Dg^T @ y does."""
    jty = np.matmul(fb.g_jacobian.transpose(0, 2, 1), Y[:, :, None])[:, :, 0]
    return np.concatenate([fb.f_grad + jty, fb.g_value], axis=1)


@dataclass(frozen=True)
class KktErrors:
    rerror: float   # best-so-far gradient norm over the raw trace, relative to the start
    raerror: float  # mean gradient norm over the averaged trace, relative to the start


def kkt_errors(norms, averaged_norms) -> KktErrors:
    """Relative Lagrangian-gradient errors over a recorded trace.

    `norms` holds the gradient norms at the raw iterates, starting at the
    initial point z^0, and `averaged_norms` those at the running averages;
    both are scored against norms[0], which must be nonzero.
    """
    if len(norms) == 0 or len(averaged_norms) == 0:
        raise ValueError("traces must be nonempty")
    base = float(norms[0])
    if base == 0.0:
        raise ValueError("degenerate start: gradient norm at z^0 is zero")
    return KktErrors(float(min(norms)) / base, float(np.mean(np.asarray(averaged_norms) / base)))


def constraint_violation(cone: ConvexCone, g_value: np.ndarray) -> float:
    """Distance of g_value to the cone, i.e. the polar-projection norm."""
    return float(_constraint_violation_rows(cone, cone._check(g_value)[None])[0])


def _constraint_violation_rows(cone: ConvexCone, G: np.ndarray) -> np.ndarray:
    """`constraint_violation` of each row of G; unchecked."""
    P = cone._polar_project(G)
    return np.sqrt(_row_dots(P, P))


def proj_kkt(oracle, z: PrimalDualPoint) -> float:
    """Projected KKT residual of a conic oracle's instance at z = (x, y),
    from its full batch at x.

    Sum of the stationarity residual dist(-grad_x l(x,y), N_X(x)), with N_X
    the normal cone of the feasible set at x, and the combined feasibility/
    complementarity residual ||g(x) - P_K(g(x) + y)||, which vanishes iff
    g(x) in K, y in K-polar and <y, g(x)> = 0. Zero exactly at KKT points;
    used instead of the raw gradient norm, which need not vanish at
    constrained optima.
    """
    X, Y, cone = z.x[None], z.y[None], oracle.cone
    fb = oracle.full_batch_rows(X)
    as_vector(_lagrangian_grad_rows(fb, Y)[0], dim=z.n + cone.dim, name="Lagrangian gradient")
    return float(_proj_kkt_rows(fb, cone, oracle.feasible_set, X, Y)[0])


def _proj_kkt_rows(fb, cone: ConvexCone, feasible: ProximableFunction, X: np.ndarray,
                   Y: np.ndarray) -> np.ndarray:
    """`proj_kkt` at each row pair (x, y) of X and Y, from the stacked
    full-batch sample `fb` at the rows of X; unchecked."""
    stationarity = feasible._normal_cone_distance_rows(X, -_lagrangian_grad_rows(fb, Y)[:, :X.shape[1]])
    C = fb.g_value - cone._project(fb.g_value + Y)
    return stationarity + np.sqrt(_row_dots(C, C))


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    r2: float


def rate_slope_fit(points) -> SlopeFit:
    """Ordinary least squares of log(err) on log(N).

    Needs at least 3 points with distinct N; every N and error must be
    positive and finite.
    """
    points = list(points)
    if len(points) < 3:
        raise ValueError("need at least 3 points for a slope fit")
    ns = np.array([float(p[0]) for p in points])
    errs = np.array([float(p[1]) for p in points])
    if len(set(ns.tolist())) != len(points):
        raise ValueError("N values must be distinct")
    if not ((ns > 0.0) & (ns < math.inf)).all():
        raise ValueError("N values must be positive and finite")
    if not ((errs > 0.0) & (errs < math.inf)).all():
        raise ValueError("errors must be positive and finite")
    lx, ly = np.log(ns), np.log(errs)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_res = float(resid @ resid)
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    if ss_res <= 1e-24:
        r2 = 1.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return SlopeFit(float(slope), float(intercept), float(r2))


def tail_tally(values, threshold: float) -> float:
    """Fraction of values that are >= threshold."""
    values = np.asarray(list(values), dtype=float)
    if values.size == 0:
        raise ValueError("tail_tally needs a nonempty value list")
    return float((values >= threshold).mean())


def estimate_m_star(oracle, theta: ProximableFunction, omega: ProximableFunction,
                    rng: np.random.Generator, n_points: int = 200, n_draws: int = 50,
                    radius: float = 2.0) -> float:
    """Sampled estimate of the second-moment bound on subgradient + oracle sums.

    Maximizes the per-point mean of ||(v_x + G_x, v_y - G_y)||^2 over points
    drawn uniformly from a centered cube of half-width `radius`, with v the
    minimum-norm subgradients of the nonsmooth terms: that is (v_x | v_y) - D
    for the oracle's step direction D = (-G_x | G_y). The oracle has the row
    form (`draws`, `directions`). An estimate, not a certified bound.
    """
    n, m = oracle.n, oracle.m
    worst = 0.0
    for _ in range(n_points):
        v = rng.uniform(-radius, radius, size=n + m)
        # One row-form call, with the bits and stream order of n_draws samples.
        D = oracle.directions(np.tile(v, (n_draws, 1)), oracle.draws(rng, n_draws))
        E = np.concatenate((theta.subgradient(v[:n]), omega.subgradient(v[n:]))) - D
        DX, DY = E[:, :n], E[:, n:]
        acc = 0.0
        for sq in (_row_dots(DX, DX) + _row_dots(DY, DY)).tolist():
            acc += sq  # in draw order: sum() compensates on Python >= 3.12
        worst = max(worst, acc / n_draws)
    return math.sqrt(worst)
