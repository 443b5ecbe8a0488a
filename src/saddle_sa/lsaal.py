"""Linearized stochastic augmented-Lagrangian solver for conic programs.

Each outer iteration linearizes the sampled objective and constraint map at
the current point and solves the proximal subproblem

    min_{x in X}  <grad F, x - x_k>
                  + (1/(2*sigma)) ||P_polar(y_k + sigma*(G + DG (x - x_k)))||^2
                  + (1/(2*sigma)) ||x - x_k||^2

in the multiplier space, which has the cone's dimension. For a multiplier u
the x-minimizer is one projection, x(u) = P_X(x_k - sigma*(grad F + DG^T u)),
and the solution is the fixed point u = P_polar(w(u)) of the
(1/sigma)-strongly concave dual, with w(u) = y_k + sigma*(G + DG (x(u) - x_k)).
Semismooth Newton solves it: each step solves one (cone dim)-square system
I + sigma^2 * D_polar DG P'_X DG^T, from the projections' generalized
Jacobians, and backtracks on the residual ||u - P_polar(w(u))||. The
multiplier step y_{k+1} = P_polar(w(x_{k+1})) is the closed form at the
returned point, which the solver has already computed there.
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
    PREFETCH_ROWS,
    ConvergenceError,
    DivergenceError,
    ProblemConstants,
    PrimalDualPoint,
    RunConfig,
    RunRecord,
    _row_dots,
    as_vector,
)
from .cones import ConvexCone
from .oracles import ConicSample
from .prox import ProximableFunction

__all__ = [
    "LsaalProblem",
    "XSubproblemSpec",
    "solve_x_subproblem",
    "check_sample",
    "run_lsaal",
    "run_laam",
    "MultiplierDiagnostics",
    "multiplier_bound_diagnostics",
    "estimate_constants",
]

# A Newton step of length t is taken once it cuts the residual by the factor
# 1 - _DECREASE * t; halving stops at _MIN_STEP, whose step is taken as it is.
_DECREASE = 1e-4
_MIN_STEP = 2.0 ** -20


@dataclass(frozen=True, eq=False)
class LsaalProblem:
    """Conic instance and solver knobs. The oracle owns the instance: its
    constraint cone `oracle.cone` and its compact feasible set
    `oracle.feasible_set` (an indicator with exact projection).

    sigma=None resolves to 1/sqrt(N) at run time, the rate-optimal choice for
    a fixed horizon N. A subproblem is solved once its dual fixed-point
    residual is at most inner_tol, within inner_max_iters Newton steps.
    """

    oracle: object
    sigma: float | None = None
    constants: ProblemConstants | None = None
    inner_tol: float = 1e-8
    inner_max_iters: int = 500

    def __post_init__(self):
        if not self.oracle.feasible_set.is_indicator:
            raise ValueError("feasible_set must be an indicator function with a projection")
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


def _linearized(spec: XSubproblemSpec, x: np.ndarray) -> np.ndarray:
    """w(x) = y_k + sigma*(G + DG (x - x_k)), whose polar projection is the
    multiplier step at x."""
    s = spec.sample
    return spec.y_k + spec.sigma * (s.g_value + s.g_jacobian @ (x - spec.x_k))


def solve_x_subproblem(spec: XSubproblemSpec, feasible: ProximableFunction,
                       inner_tol: float, inner_max_iters: int) -> tuple[np.ndarray, np.ndarray]:
    """Semismooth Newton on the subproblem's dual, warm-started at u = y_k.

    Returns x(u) and the multiplier step y = P_polar(w(x(u))) there, which is
    the next multiplier. Terminates when the dual fixed-point residual
    ||u - y|| drops to inner_tol; raises ConvergenceError when inner_max_iters
    Newton steps do not get it there. A non-finite x_k - sigma*grad F or
    residual raises ValueError.
    """
    sigma, cone, jac = spec.sigma, spec.cone, spec.sample.g_jacobian
    start, step_map = spec.x_k - sigma * spec.sample.f_grad, sigma * jac.T
    # Projections go through the unchecked row prox. Past this screen a
    # non-finite projection argument reaches the residual as NaN or inf,
    # except that a box clips it to the face its exact value would reach.
    if not math.isfinite(start.sum()):  # a sum that merely overflows passes the exact scan
        as_vector(start)

    def at(u):
        """(projection argument, x(u), w, multiplier step, residual) at u."""
        arg = start - step_map @ u
        x = feasible._prox_rows(1.0, arg[None])[0]
        w = _linearized(spec, x)
        y = cone._polar_project(w)
        gap = u - y
        residual = math.sqrt(gap @ gap)
        if not math.isfinite(residual):
            raise ValueError("multiplier step has non-finite entries")
        return arg, x, w, y, residual

    u = spec.y_k
    arg, x, w, y, residual = at(u)
    for _ in range(inner_max_iters):
        if residual <= inner_tol:
            break
        # The residual's generalized Jacobian is I + D_polar(w) M, with the
        # symmetric M = sigma^2 DG P'_X(arg) DG^T; the polar rows of M are (D M)^T.
        m = (sigma * sigma) * (feasible._jacobian_rows(arg[None].repeat(len(jac), 0), jac) @ jac.T)
        jacobian = np.eye(len(m)) + cone._polar_jacobian_rows(w[None].repeat(len(m), 0), m).T
        direction = np.linalg.solve(jacobian, y - u)
        t = 1.0
        while True:
            trial = at(u + t * direction)
            if trial[4] <= (1.0 - _DECREASE * t) * residual or t <= _MIN_STEP:
                break
            t *= 0.5
        u = u + t * direction
        arg, x, w, y, residual = trial
    if residual > inner_tol:
        raise ConvergenceError(residual)
    return x, y


def check_sample(sample: ConicSample, oracle, k: int) -> ConicSample:
    """Validate one output of a conic oracle at (outer) iteration k.

    Shapes that do not fit an oracle.dim-dimensional point and oracle.cone
    raise ValueError; non-finite gradient, constraint or Jacobian entries
    raise DivergenceError(k).
    """
    dim, cone, jac = oracle.dim, oracle.cone, sample.g_jacobian
    if sample.f_grad.shape != (dim,) or sample.g_value.shape != (cone.dim,) or jac.shape != (cone.dim, dim):
        raise ValueError(f"sample shapes do not match a {dim}-dimensional point and a "
                         f"{cone.dim}-dimensional cone")
    # Any non-finite entry makes the sum non-finite; a sum that merely
    # overflows costs the exact scan and finds nothing.
    if not math.isfinite(sample.f_grad.sum() + sample.g_value.sum() + jac.sum()) and not (
            np.isfinite(sample.f_grad).all() and np.isfinite(sample.g_value).all()
            and np.isfinite(jac).all()):
        raise DivergenceError(k, f"non-finite oracle sample at iteration {k}")
    return sample


def run_lsaal(problem: LsaalProblem, config: RunConfig, metric_hooks=()) -> RunRecord:
    """Stochastic run: one oracle sample per outer iteration.

    The oracle serves it as `draws(rng, count)`, taken PREFETCH_ROWS at a
    time and exactly config.horizon in all, and `evaluate(x, draw)`.
    """
    return _run_augmented(problem, config, metric_hooks, full_batch=False)


def run_laam(problem: LsaalProblem, config: RunConfig, metric_hooks=()) -> RunRecord:
    """Deterministic baseline: every sample replaced by the full-batch average."""
    return _run_augmented(problem, config, metric_hooks, full_batch=True)


def _prefetched(oracle, rng: np.random.Generator, total: int):
    """The oracle's next `total` draws from rng, one at a time, taken from the
    stream PREFETCH_ROWS at a time."""
    for start in range(0, total, PREFETCH_ROWS):
        yield from oracle.draws(rng, min(PREFETCH_ROWS, total - start))


def _run_augmented(problem: LsaalProblem, config: RunConfig, metric_hooks, full_batch: bool) -> RunRecord:
    N = config.horizon
    sigma = problem.resolve_sigma(N)
    oracle = problem.oracle
    cone, feasible = oracle.cone, oracle.feasible_set
    rng = config.random_source().generator()

    if config.initial is not None:
        x = feasible.prox(1.0, np.asarray(config.initial.x, dtype=float))
        y = as_vector(config.initial.y, dim=cone.dim, name="initial y")
    else:
        x = feasible.prox(1.0, rng.uniform(-1.0, 1.0, size=oracle.dim))
        y = np.zeros(cone.dim)

    avg_x = np.zeros_like(x)
    avg_y = np.zeros_like(y)

    constants = problem.constants
    audit_bounds = constants is not None and None not in (
        constants.R, constants.nu_g, constants.kappa_f, constants.kappa_g)
    y_norm = float(np.linalg.norm(y))
    y_norm_max = 0.0
    y_step_max = 0.0
    x_ratio_max = 0.0
    y_ratio_max = 0.0

    draws = None if full_batch else _prefetched(oracle, rng, N)
    record = RunRecord()
    t0 = time.perf_counter()
    for k in range(1, N + 1):
        sample = check_sample(oracle.full_batch(x) if full_batch else oracle.evaluate(x, next(draws)), oracle, k)
        spec = XSubproblemSpec(x, y, sample, sigma, cone)
        try:
            x_next, y_next = solve_x_subproblem(spec, feasible, problem.inner_tol, problem.inner_max_iters)
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
            avg_x = avg_x + (x_next - avg_x) / k
            avg_y = avg_y + (y_next - avg_y) / k
        else:
            avg_x, avg_y = x_next, y_next
        y_norm = y_norm_next
        y_norm_max = max(y_norm_max, y_norm)
        x, y = x_next, y_next

        if k % config.trace_thinning == 0 or k == N:
            iterate = PrimalDualPoint(x, y)
            average = PrimalDualPoint(avg_x, avg_y)
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
    if not 0.0 < sigma < math.inf:
        raise ValueError("sigma must be positive and finite")
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

    # The full batches use no randomness: their points are drawn first, as a
    # per-point loop draws them, and evaluated as one stack. Python's max
    # takes the norms in that loop's order.
    full_points = np.array([random_feasible(i % 2 == 0) for i in range(n_full)]).reshape(n_full, dim)
    full = oracle.full_batch_rows(full_points)
    nu_g = max([0.0, *np.sqrt(_row_dots(full.g_value, full.g_value)).tolist()])
    kappa_f = max([0.0, *np.sqrt(_row_dots(full.f_grad, full.f_grad)).tolist()])
    kappa_g = max([0.0, *np.linalg.norm(full.g_jacobian, 2, axis=(1, 2)).tolist()])
    sample_points = np.empty((n_sample, dim))
    sample_values = np.empty(n_sample)
    for i in range(n_sample):
        x = random_feasible(i % 2 == 0)
        s = oracle.sample(rng, x)
        nu_g = max(nu_g, float(np.linalg.norm(s.g_value)))
        kappa_f = max(kappa_f, float(np.linalg.norm(s.f_grad)))
        kappa_g = max(kappa_g, float(np.linalg.norm(s.g_jacobian, 2)))
        sample_points[i], sample_values[i] = x, s.f_value
    deviations = np.abs(sample_values - oracle.full_batch_rows(sample_points).f_value)
    nu_f = max([0.0, *deviations.tolist()])

    margin = oracle.cone.interior_distance(oracle.full_batch(oracle.slater_point()).g_value)
    return ProblemConstants(
        R=R,
        nu_g=nu_g,
        kappa_f=kappa_f,
        kappa_g=kappa_g,
        nu_f=nu_f if nu_f > 0.0 else None,
        slater_margin=margin if margin > 0.0 else None,
        estimated=True,
    )
