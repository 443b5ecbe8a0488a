"""Error measures and statistical post-processing.

Deterministic evaluators wrap the exact (or finite-sum) objective so the
stochastic solvers can be scored against noise-free quantities: the minimax
optimality gap, Lagrangian gradient norms, constraint violation, projected
KKT residuals, log-log rate fits, and tail tallies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PrimalDualPoint
from .cones import ConvexCone
from .oracles import MinimaxSample
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
    """Exact objective mu*theta(x) + x^T Q y - mu*omega(y) for the bilinear
    benchmark; deterministic by construction."""

    def __init__(self, oracle, theta: ProximableFunction, omega: ProximableFunction, mu: float = 1.0):
        self.Q = oracle.Q
        self.theta = theta
        self.omega = omega
        self.mu = float(mu)

    def phi(self, x: np.ndarray, y: np.ndarray) -> float:
        return self.mu * self.theta.value(x) + float(x @ self.Q @ y) - self.mu * self.omega.value(y)


class FiniteSumMinimaxEvaluator:
    """Empirical-average objective over a frozen pool of oracle draws.

    Approximates the expectation objective by the mean over `draws`; serves as
    the reproducible reference problem for oracles without a closed-form
    expectation.
    """

    def __init__(self, oracle, draws, theta: ProximableFunction, omega: ProximableFunction, mu: float = 1.0):
        draws = list(draws)
        if not draws:
            raise ValueError("need at least one frozen draw")
        self.oracle = oracle
        self.pool = np.stack(draws)
        self.theta = theta
        self.omega = omega
        self.mu = float(mu)

    def sample(self, rng, z: PrimalDualPoint) -> MinimaxSample:
        """Pool-mean value and gradients at z; `rng` is ignored, so the
        evaluator serves as a deterministic oracle for run_saps."""
        return self.oracle.evaluate_batch(z, self.pool)

    def phi(self, x: np.ndarray, y: np.ndarray) -> float:
        value = self.sample(None, PrimalDualPoint(x, y)).value
        return self.mu * self.theta.value(x) + value - self.mu * self.omega.value(y)


def minimax_gap(evaluator, z: PrimalDualPoint, z_star: PrimalDualPoint) -> float:
    """Optimality measure phi(x, y*) - phi(x*, y); zero exactly at saddles.

    Returns the raw difference (tiny negatives up to rounding are possible);
    callers that report it may clamp at zero but should keep the raw value.
    """
    return evaluator.phi(z.x, z_star.y) - evaluator.phi(z_star.x, z.y)


def lagrangian_grad(fb, y: np.ndarray) -> np.ndarray:
    """Stacked gradient (grad_x l, grad_y l) = (grad f + Dg^T y, g(x)) of the
    Lagrangian l(x,y) = f(x) + <y, g(x)>, from the full-batch sample `fb` at x."""
    return np.concatenate([fb.f_grad + fb.g_jacobian.T @ y, fb.g_value])


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
    return float(np.linalg.norm(cone.polar_project(g_value)))


def proj_kkt(fb, cone: ConvexCone, feasible: ProximableFunction, z: PrimalDualPoint) -> float:
    """Projected KKT residual of a conic instance at (x, y), from the
    full-batch sample `fb` at x.

    Sum of the stationarity residual dist(-grad_x l(x,y), N_X(x)), with N_X
    the normal cone of the feasible set at x, and the combined feasibility/
    complementarity residual ||g(x) - P_K(g(x) + y)||, which vanishes iff
    g(x) in K, y in K-polar and <y, g(x)> = 0. Zero exactly at KKT points;
    used instead of the raw gradient norm, which need not vanish at
    constrained optima.
    """
    grad_x_l = lagrangian_grad(fb, z.y)[:z.n]
    stationarity = feasible.normal_cone_distance(z.x, -grad_x_l)
    complementarity = float(np.linalg.norm(fb.g_value - cone.project(fb.g_value + z.y)))
    return stationarity + complementarity


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    r2: float


def rate_slope_fit(points) -> SlopeFit:
    """Ordinary least squares of log(err) on log(N).

    Needs at least 3 points with distinct N and strictly positive errors.
    """
    points = list(points)
    if len(points) < 3:
        raise ValueError("need at least 3 points for a slope fit")
    ns = np.array([float(p[0]) for p in points])
    errs = np.array([float(p[1]) for p in points])
    if len(set(ns.tolist())) != len(points):
        raise ValueError("N values must be distinct")
    if (ns <= 0.0).any():
        raise ValueError("N values must be positive")
    if (errs <= 0.0).any():
        raise ValueError("errors must be strictly positive")
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
    minimum-norm subgradients of the nonsmooth terms. An estimate, not a
    certified bound.
    """
    n, m = oracle.n, oracle.m
    worst = 0.0
    for _ in range(n_points):
        v = rng.uniform(-radius, radius, size=n + m)
        z = PrimalDualPoint(v[:n], v[n:])
        vx = theta.subgradient(z.x)
        vy = omega.subgradient(z.y)
        acc = 0.0
        for _ in range(n_draws):
            s = oracle.sample(rng, z)
            dx = vx + s.grad_x
            dy = vy - s.grad_y
            acc += float(dx @ dx + dy @ dy)
        worst = max(worst, acc / n_draws)
    return math.sqrt(worst)
