"""Linearized stochastic augmented-Lagrangian solver for conic programs.

Each outer iteration linearizes the sampled objective and constraint map at
the current point, solves the proximal subproblem

    min_{x in X}  <grad F, x - x_k>
                  + (1/(2*sigma)) ||P_polar(y_k + sigma*(G + DG (x - x_k)))||^2
                  + (1/(2*sigma)) ||x - x_k||^2

by projected gradient descent with backtracking, then updates the multiplier
in closed form:  y_{k+1} = P_polar(y_k + sigma*(G + DG (x_{k+1} - x_k))).
The deterministic variant replaces every sample by the full-batch average.

Multiplier-bound diagnostics expose the constants that control E||y_k||:
kappa1/(sigma*s) + kappa2*sigma + kappa3*sigma*s for a window length s.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import (
    ConvergenceError,
    DivergenceError,
    ProblemConstants,
    PrimalDualPoint,
    RunConfig,
    RunRecord,
)
from .cones import ConvexCone
from .oracles import ConicSample
from .prox import ProximableFunction

__all__ = [
    "LsaalProblem",
    "XSubproblemSpec",
    "x_subproblem_objective",
    "x_subproblem_gradient",
    "solve_x_subproblem",
    "y_update",
    "check_sample",
    "run_lsaal",
    "run_laam",
    "MultiplierDiagnostics",
    "multiplier_bound_diagnostics",
    "estimate_constants",
]

ARMIJO_FACTOR = 1e-4


@dataclass(frozen=True, eq=False)
class LsaalProblem:
    """Conic instance: stochastic oracle, constraint cone, compact feasible
    set (an indicator with exact projection), and solver knobs.

    sigma=None resolves to 1/sqrt(N) at run time, the rate-optimal choice for
    a fixed horizon N.
    """

    oracle: object
    cone: ConvexCone
    feasible: ProximableFunction
    sigma: float | None = None
    constants: ProblemConstants | None = None
    inner_tol: float = 1e-8
    inner_max_iters: int = 500

    def __post_init__(self):
        if not self.feasible.is_indicator:
            raise ValueError("feasible must be an indicator function with a projection")
        if self.sigma is not None and not 0.0 < self.sigma < math.inf:
            raise ValueError("sigma must be positive and finite")
        if not self.inner_tol > 0.0 or self.inner_max_iters < 1:
            raise ValueError("inner_tol must be positive and inner_max_iters >= 1")

    def resolve_sigma(self, horizon: int) -> float:
        return self.sigma if self.sigma is not None else 1.0 / math.sqrt(horizon)


@dataclass(frozen=True, eq=False)
class XSubproblemSpec:
    """Frozen data of one primal subproblem (current point, multiplier, sample)."""

    x_k: np.ndarray
    y_k: np.ndarray
    sample: ConicSample
    sigma: float
    cone: ConvexCone

    def linearized_g(self, x: np.ndarray) -> np.ndarray:
        s = self.sample
        return s.g_value + s.g_jacobian @ (x - self.x_k)


def x_subproblem_objective(spec: XSubproblemSpec, x: np.ndarray) -> float:
    """Subproblem objective up to an additive constant (enough for line search)."""
    s = spec.sample
    dx = x - spec.x_k
    w = spec.y_k + spec.sigma * spec.linearized_g(x)
    pw = spec.cone._polar_project(w)  # w is built from checked data
    return (
        float(s.f_grad @ dx)
        + float(pw @ pw) / (2.0 * spec.sigma)
        + float(dx @ dx) / (2.0 * spec.sigma)
    )


def x_subproblem_gradient(spec: XSubproblemSpec, x: np.ndarray) -> np.ndarray:
    """Gradient of the smooth subproblem objective.

    The squared polar-projection norm is differentiable with gradient equal to
    the polar projection itself, so the chain rule gives
    grad = grad F + DG^T P_polar(y_k + sigma*l_g(x)) + (x - x_k)/sigma.
    """
    s = spec.sample
    w = spec.y_k + spec.sigma * spec.linearized_g(x)
    return s.f_grad + s.g_jacobian.T @ spec.cone._polar_project(w) + (x - spec.x_k) / spec.sigma


def solve_x_subproblem(spec: XSubproblemSpec, feasible: ProximableFunction,
                       inner_tol: float, inner_max_iters: int) -> np.ndarray:
    """Projected gradient descent with backtracking, warm-started at x_k.

    Terminates when the projected-gradient residual
    ||x - P_X(x - s*grad(x))|| / s drops below inner_tol for the last
    accepted step size s; raises ConvergenceError past inner_max_iters.
    """
    x = np.asarray(spec.x_k, dtype=float).copy()
    fx = x_subproblem_objective(spec, x)
    step = spec.sigma
    residual = math.inf
    slack = 16.0 * np.finfo(float).eps * (1.0 + abs(fx))
    for _ in range(inner_max_iters):
        g = x_subproblem_gradient(spec, x)
        trial = feasible.prox(1.0, x - step * g)
        residual = float(np.linalg.norm(x - trial)) / step
        if residual <= inner_tol:
            return x
        # Backtracking restarts from sigma each outer pass.
        s = spec.sigma
        while True:
            x_new = feasible.prox(1.0, x - s * g)
            f_new = x_subproblem_objective(spec, x_new)
            if f_new <= fx + ARMIJO_FACTOR * float(g @ (x_new - x)):
                break
            if f_new <= fx + slack:
                # Decrease smaller than evaluation noise. Accept only on real
                # fixed-point progress, so rounding cannot mask an
                # oscillating (non-contracting) step.
                g_new = x_subproblem_gradient(spec, x_new)
                r_here = float(np.linalg.norm(x - x_new)) / s
                r_new = float(np.linalg.norm(x_new - feasible.prox(1.0, x_new - s * g_new))) / s
                if r_new <= 0.9 * r_here:
                    break
            s *= 0.5
            if s < spec.sigma * 1e-18:
                # Line search stalled in rounding; report current residual.
                raise ConvergenceError(residual, "line search stalled before reaching inner_tol")
        x, fx, step = x_new, f_new, s
        slack = 16.0 * np.finfo(float).eps * (1.0 + abs(fx))
    raise ConvergenceError(residual)


def y_update(cone: ConvexCone, y_k: np.ndarray, sigma: float, sample: ConicSample,
             x_next: np.ndarray, x_k: np.ndarray) -> np.ndarray:
    """Closed-form multiplier step; the result lies in the polar cone."""
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    lin = sample.g_value + sample.g_jacobian @ (np.asarray(x_next) - np.asarray(x_k))
    return cone.polar_project(y_k + sigma * lin)


def check_sample(sample: ConicSample, dim: int, cone: ConvexCone, k: int) -> ConicSample:
    """Validate one conic-oracle output at (outer) iteration k.

    Shapes that do not fit a dim-dimensional point and the cone raise
    ValueError; non-finite gradient, constraint or Jacobian entries raise
    DivergenceError(k).
    """
    jac = sample.g_jacobian
    if sample.f_grad.shape != (dim,) or sample.g_value.shape != (cone.dim,) or jac.shape != (cone.dim, dim):
        raise ValueError(f"sample shapes do not match a {dim}-dimensional point and a "
                         f"{cone.dim}-dimensional cone")
    if not (np.isfinite(sample.f_grad).all() and np.isfinite(sample.g_value).all()
            and np.isfinite(jac).all()):
        raise DivergenceError(k, f"non-finite oracle sample at iteration {k}")
    return sample


def run_lsaal(problem: LsaalProblem, config: RunConfig, metric_hooks=()) -> RunRecord:
    """Stochastic run: one oracle sample per outer iteration."""
    return _run_augmented(problem, config, metric_hooks, full_batch=False)


def run_laam(problem: LsaalProblem, config: RunConfig, metric_hooks=()) -> RunRecord:
    """Deterministic baseline: every sample replaced by the full-batch average."""
    return _run_augmented(problem, config, metric_hooks, full_batch=True)


def _run_augmented(problem: LsaalProblem, config: RunConfig, metric_hooks, full_batch: bool) -> RunRecord:
    N = config.horizon
    sigma = problem.resolve_sigma(N)
    oracle = problem.oracle
    feasible = problem.feasible
    rng = config.random_source().generator()

    if config.initial is not None:
        x = feasible.prox(1.0, np.asarray(config.initial.x, dtype=float))
    else:
        x = feasible.prox(1.0, rng.uniform(-1.0, 1.0, size=oracle.dim))
    y = np.zeros(problem.cone.dim)

    avg_x = np.zeros_like(x)
    avg_y = np.zeros_like(y)

    constants = problem.constants
    audit_bounds = constants is not None and None not in (
        constants.R, constants.nu_g, constants.kappa_f, constants.kappa_g)
    y_norm = 0.0
    y_norm_max = 0.0
    y_step_max = 0.0
    x_ratio_max = 0.0
    y_ratio_max = 0.0

    record = RunRecord()
    t0 = time.perf_counter()
    for k in range(1, N + 1):
        sample = check_sample(oracle.full_batch(x) if full_batch else oracle.sample(rng, x),
                              x.shape[0], problem.cone, k)
        spec = XSubproblemSpec(x, y, sample, sigma, problem.cone)
        try:
            x_next = solve_x_subproblem(spec, feasible, problem.inner_tol, problem.inner_max_iters)
            y_next = y_update(problem.cone, y, sigma, sample, x_next, x)
        except ConvergenceError as exc:
            raise ConvergenceError(exc.residual, f"inner solver failed at outer iteration {k}: {exc}") from exc
        except ValueError as exc:
            raise DivergenceError(k, f"non-finite state at iteration {k}: {exc}") from exc
        if not (np.isfinite(x_next).all() and np.isfinite(y_next).all()):
            raise DivergenceError(k, f"non-finite state at iteration {k}")

        y_norm_next = float(np.linalg.norm(y_next))
        y_step = abs(y_norm_next - y_norm)
        y_step_max = max(y_step_max, y_step)
        if audit_bounds:
            x_step = float(np.linalg.norm(x_next - x))
            x_bound = sigma * ((constants.kappa_f + constants.nu_g * constants.kappa_g * sigma)
                               + constants.kappa_g * y_norm)
            x_ratio_max = max(x_ratio_max, x_step / x_bound)
            y_ratio_max = max(y_ratio_max, y_step / (sigma * constants.beta0))

        if config.averaging:
            avg_x += (x_next - avg_x) / k
            avg_y += (y_next - avg_y) / k
        else:
            avg_x, avg_y = x_next, y_next
        y_norm = y_norm_next
        y_norm_max = max(y_norm_max, y_norm)
        x, y = x_next, y_next

        if k % config.trace_thinning == 0 or k == N:
            # avg_x/avg_y are updated in place, so the hooks get a copy.
            iterate = PrimalDualPoint(x, y)
            average = PrimalDualPoint(avg_x.copy(), avg_y.copy())
            values = {}
            for hook in metric_hooks:
                values.update(hook(k, iterate, average))
            record.append(k, sigma, values, time.perf_counter() - t0)

    record.final_iterate = PrimalDualPoint(x, y)
    record.final_average = PrimalDualPoint(avg_x, avg_y)
    record.final_metrics = {
        "sigma": sigma,
        "y_norm_max": y_norm_max,
        "y_step_max": y_step_max,
    }
    if audit_bounds:
        record.final_metrics["x_step_bound_ratio_max"] = x_ratio_max
        record.final_metrics["y_step_bound_ratio_max"] = y_ratio_max
    return record


@dataclass(frozen=True)
class MultiplierDiagnostics:
    """Constants controlling the multiplier norm for window length s."""

    kappa1: float
    kappa2: float  # may be negative for some constant combinations; reported as-is
    kappa3: float
    delta1: float
    theta_sigma_s: float


def multiplier_bound_diagnostics(constants: ProblemConstants, sigma: float, s: int) -> MultiplierDiagnostics:
    """Expected-multiplier bound Delta_1(sigma, s) and its drift threshold.

    Requires R, nu_g, kappa_f, kappa_g and a positive Slater margin eps0:

      kappa1 = R^2/eps0
      kappa2 = (kappa_f + 2 nu_g^2 + 2 kappa_g^2 R^2)/eps0 - beta0
      kappa3 = 2 beta0 + eps0/2 + (8 beta0^2/eps0) log(32 beta0^2/eps0^2)
      Delta1 = kappa1/(sigma s) + kappa2 sigma + kappa3 sigma s

    theta_sigma_s is the drift threshold
      eps0 sigma s/2 + sigma beta0 (s-1) + R^2/(eps0 sigma s)
      + (kappa_f + 2 nu_g^2 + 2 kappa_g^2 R^2) sigma / eps0.
    """
    for name in ("R", "nu_g", "kappa_f", "kappa_g"):
        if getattr(constants, name) is None:
            raise ValueError(f"multiplier diagnostics need constant {name}")
    eps0 = constants.slater_margin
    if eps0 is None or eps0 <= 0.0:
        raise ValueError("no Slater margin: slater_margin must be positive")
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    s = int(s)
    if s < 1:
        raise ValueError("window length s must be a positive integer")
    R, nu_g, kappa_f, kappa_g = constants.R, constants.nu_g, constants.kappa_f, constants.kappa_g
    beta0 = constants.beta0
    moment = kappa_f + 2.0 * nu_g ** 2 + 2.0 * kappa_g ** 2 * R ** 2
    kappa1 = R ** 2 / eps0
    kappa2 = moment / eps0 - beta0
    kappa3 = 2.0 * beta0 + eps0 / 2.0 + (8.0 * beta0 ** 2 / eps0) * math.log(32.0 * beta0 ** 2 / eps0 ** 2)
    delta1 = kappa1 / (sigma * s) + kappa2 * sigma + kappa3 * sigma * s
    theta = eps0 * sigma * s / 2.0 + sigma * beta0 * (s - 1.0) + R ** 2 / (eps0 * sigma * s) + moment * sigma / eps0
    return MultiplierDiagnostics(kappa1, kappa2, kappa3, delta1, theta)


def estimate_constants(oracle, rng: np.random.Generator, n_full: int = 2000,
                       n_sample: int = 1000) -> ProblemConstants:
    """Estimate instance constants by sampled maximization over the feasible set.

    Evaluates full-batch norms at n_full random feasible points and per-draw
    norms at n_sample random (point, draw) pairs, taking elementwise maxima.
    The diameter comes from the feasible-set geometry and the Slater margin
    from the full-batch constraint value at the oracle's Slater point. The
    result is an estimate (lower-biased for sup bounds), flagged as such.
    """
    feasible = oracle.feasible_set
    dim = oracle.dim
    R = feasible.diameter()
    if not math.isfinite(R):
        raise ValueError("feasible set must be bounded to estimate a diameter")

    def random_feasible(interior: bool) -> np.ndarray:
        v = feasible.prox(1.0, rng.uniform(-R, R, size=dim))
        if interior:
            v = v * rng.random()
        return v

    nu_g = kappa_f = kappa_g = 0.0
    nu_f = 0.0
    for i in range(n_full):
        fb = oracle.full_batch(random_feasible(i % 2 == 0))
        nu_g = max(nu_g, float(np.linalg.norm(fb.g_value)))
        kappa_f = max(kappa_f, float(np.linalg.norm(fb.f_grad)))
        kappa_g = max(kappa_g, float(np.linalg.norm(fb.g_jacobian, 2)))
    for i in range(n_sample):
        x = random_feasible(i % 2 == 0)
        s = oracle.sample(rng, x)
        nu_g = max(nu_g, float(np.linalg.norm(s.g_value)))
        kappa_f = max(kappa_f, float(np.linalg.norm(s.f_grad)))
        kappa_g = max(kappa_g, float(np.linalg.norm(s.g_jacobian, 2)))
        nu_f = max(nu_f, abs(s.f_value - oracle.full_batch(x).f_value))

    slater_point = oracle.slater_point()
    margin = oracle.cone.interior_distance(oracle.full_batch(slater_point).g_value)
    return ProblemConstants(
        R=R,
        nu_g=nu_g,
        kappa_f=kappa_f,
        kappa_g=kappa_g,
        nu_f=nu_f if nu_f > 0.0 else None,
        slater_margin=margin if margin > 0.0 else None,
        slater_point=slater_point,
        estimated=True,
    )
