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

The solver advances independent trials together: `run_lsaal_batch` holds one
row per trial, each with its own stream, horizon, sigma and thinning, and
solves their subproblems in lockstep, one stacked pass per Newton step, so a
row gets the bits of its trial run alone; `run_lsaal` and `run_laam` are its
one-row case.

Multiplier-bound diagnostics expose the constants that control E||y_k||:
kappa1/(sigma*s) + kappa2*sigma + kappa3*sigma*s for a window length s.
`estimate_constants` samples those constants in one stacked pass as well:
its loop only draws random numbers, and the oracle's row forms evaluate the
points. The runners and the estimate read of the oracle only its cone,
feasible_set, dim, slater_point(), draws, evaluate_rows and full_batch_rows,
and every sample is a stack of rows (a one-point sample is one row), checked
by `_check_sample_rows` alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ConvergenceError,
    DivergenceError,
    ProblemConstants,
    PrimalDualPoint,
    RunConfig,
    RunRecord,
    _row_dots,
    _Rows,
    _run_hooks,
    as_vector,
)
from .oracles import ConicSample

__all__ = [
    "LsaalProblem",
    "run_lsaal",
    "run_laam",
    "run_lsaal_batch",
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
        if not 0.0 < self.inner_tol < math.inf or self.inner_max_iters < 1:
            raise ValueError("inner_tol must be positive and finite and inner_max_iters >= 1")

    def resolve_sigma(self, horizon: int) -> float:
        return self.sigma if self.sigma is not None else 1.0 / math.sqrt(horizon)


def _take(sample: ConicSample, rows) -> ConicSample:
    """The given rows of a stacked sample."""
    return ConicSample(sample.f_value[rows], sample.f_grad[rows], sample.g_value[rows], sample.g_jacobian[rows])


def _solve_rows(Xk, Yk, S: ConicSample, sigma, cone, feasible, inner_tol, inner_max_iters):
    """Semismooth Newton on the duals of stacked subproblems, in lockstep,
    each warm-started at u = y_k.

    Row t is the subproblem at x_k = Xk[t], y_k = Yk[t] with the sample row
    S[t] and penalty sigma[t]; its solution is x(u) and the multiplier step
    y = P_polar(w(x(u))) there, which is the next multiplier. A row is solved
    once its dual fixed-point residual ||u - y|| is at most inner_tol, and
    fails with ConvergenceError when inner_max_iters Newton steps do not get
    it there, or with ValueError when its x_k - sigma*grad F or residual is
    not finite. Every step is one stacked pass over all rows, with one
    (rows, c, c) solve; masks keep each row's own iteration: a row moves
    only while its residual is above inner_tol, and the rows still
    backtracking share their step length. Every row gets the bits it gets
    alone. Returns (X, Y, errors): errors maps a failed row to its error,
    and its X and Y rows are undefined.
    """
    jac, sig = S.g_jacobian, sigma[:, None]
    start = Xk - sig * S.f_grad
    step_map = sigma[:, None, None] * jac.transpose(0, 2, 1)

    def at(U):
        """(projection argument, x(u), w, multiplier step, residual) of each row at its u = U."""
        arg = start - np.matmul(step_map, U[:, :, None])[:, :, 0]
        X = feasible._prox_rows(1.0, arg)
        W = Yk + sig * (S.g_value + np.matmul(jac, (X - Xk)[:, :, None])[:, :, 0])
        Y = cone._polar_project(W)
        gap = U - Y
        return arg, X, W, Y, np.sqrt(_row_dots(gap, gap))

    def without(failing, message):
        """None if no row fails; else the other rows solved alone, and each
        failing row's ValueError(message)."""
        if not failing.any():
            return None
        ok = np.flatnonzero(~failing)
        X, Y = np.empty_like(Xk), np.empty_like(Yk)
        X[ok], Y[ok], errors = _solve_rows(Xk[ok], Yk[ok], _take(S, ok), sigma[ok], cone, feasible,
                                           inner_tol, inner_max_iters)
        errors = {int(ok[row]): exc for row, exc in errors.items()}
        errors.update((int(row), ValueError(message)) for row in np.flatnonzero(failing))
        return X, Y, errors

    # Projections go through the unchecked row prox. Past this screen a
    # non-finite projection argument reaches the residual as NaN or inf,
    # except that a box clips it to the face its exact value would reach.
    # A sum that merely overflows costs the exact scan and finds nothing.
    if not math.isfinite(start.sum()):
        solved = without(~np.isfinite(start).all(axis=1), "vector has non-finite entries")
        if solved:
            return solved
    arg, X, W, Y, residual = at(Yk)
    if not math.isfinite(residual.sum()):
        solved = without(~np.isfinite(residual), "multiplier step has non-finite entries")
        if solved:
            return solved

    U = Yk
    failed = []  # rows whose residual turned non-finite, frozen since
    active = residual > inner_tol
    c = Yk.shape[1]
    for _ in range(inner_max_iters):
        if not active.any():
            break
        # The residual's generalized Jacobian is I + D_polar(w) M, with the
        # symmetric M = sigma^2 DG P'_X(arg) DG^T; the polar rows of M are (D M)^T.
        PJ = feasible._jacobian_rows(arg.repeat(c, 0), jac.reshape(-1, jac.shape[2])).reshape(jac.shape)
        M = (sig * sig)[:, :, None] * np.matmul(PJ, jac.transpose(0, 2, 1))
        DM = cone._polar_jacobian_rows(W.repeat(c, 0), M.reshape(-1, c)).reshape(M.shape)
        direction = np.linalg.solve(np.eye(c) + DM.transpose(0, 2, 1), (Y - U)[:, :, None])[:, :, 0]
        # Backtracking on the residual; the rows still searching share their
        # step length t, and every other row recomputes its state at its u.
        t, searching, everyone = 1.0, active, active.all()
        while True:
            candidate = U + t * direction
            if not everyone:
                candidate = np.where(searching[:, None], candidate, U)
            trial = at(candidate)
            # A step is taken once it cuts the residual enough, or at the
            # shortest length if finite; a non-finite residual fails the row.
            accept = trial[4] <= (1.0 - _DECREASE * t) * residual if t > _MIN_STEP else np.isfinite(trial[4])
            if accept.all() if everyone else (accept | ~searching).all():
                U, (arg, X, W, Y, residual) = candidate, trial
                break
            finite, take = np.isfinite(trial[4]), searching & accept
            U, arg, X, W, Y = (np.where(take[:, None], new, old)
                               for new, old in zip((candidate,) + trial[:4], (U, arg, X, W, Y)))
            residual = np.where(take, trial[4], residual)
            failed.extend(np.flatnonzero(searching & ~finite).tolist())
            searching, everyone = searching & ~accept & finite, False
            if not searching.any():
                break
            t *= 0.5
        active = residual > inner_tol
        if failed:
            active[failed] = False
    errors = {row: ValueError("multiplier step has non-finite entries") for row in failed}
    if active.any():
        errors.update((int(row), ConvergenceError(float(residual[row]))) for row in np.flatnonzero(active))
    return X, Y, errors


def _check_sample_rows(S: ConicSample, oracle, ks) -> dict:
    """Validate the stacked output of a conic oracle; ks is each row's
    (outer) iteration, or one iteration for every row.

    Shapes that do not fit rows of an oracle.dim-dimensional point and
    oracle.cone raise ValueError; returns row -> DivergenceError(k) for each
    row with non-finite gradient, constraint or Jacobian entries, with k
    that row's iteration, in row order.
    """
    dim, cone, jac = oracle.dim, oracle.cone, S.g_jacobian
    T = len(S.f_grad)
    if S.f_grad.shape != (T, dim) or S.g_value.shape != (T, cone.dim) or jac.shape != (T, cone.dim, dim):
        raise ValueError(f"sample shapes do not match a {dim}-dimensional point and a "
                         f"{cone.dim}-dimensional cone")
    # Any non-finite entry makes the sum non-finite; a sum that merely
    # overflows costs the exact scan and finds nothing.
    if math.isfinite(S.f_grad.sum() + S.g_value.sum() + jac.sum()):
        return {}
    bad = ~(np.isfinite(S.f_grad).all(axis=1) & np.isfinite(S.g_value).all(axis=1) & np.isfinite(jac).all(axis=(1, 2)))
    ks = np.broadcast_to(ks, T).tolist()
    return {int(row): DivergenceError(ks[row], f"non-finite oracle sample at iteration {ks[row]}")
            for row in np.flatnonzero(bad)}


def run_lsaal(problem: LsaalProblem, config: RunConfig, metric_hooks=()) -> RunRecord:
    """Stochastic run: one oracle sample per outer iteration; the one-row
    case of run_lsaal_batch.

    Every trace_thinning-th outer iteration and the last are recorded: the
    record keeps their iterates and averages. Metric hooks run after the
    run, once per recorded row as hook(k, iterate, average), and their
    name->value maps become the record's metric columns (see
    core._run_hooks); a hook that raises DivergenceError ends the run at its
    row.
    """
    outcome, = run_lsaal_batch(problem, [config])
    return _run_hooks(outcome, metric_hooks, problem.oracle.dim)


def run_laam(problem: LsaalProblem, config: RunConfig, metric_hooks=()) -> RunRecord:
    """Deterministic baseline: every sample replaced by the full-batch
    average; the one-row case of run_lsaal_batch with full_batch=True, with
    run_lsaal's metric hooks."""
    outcome, = run_lsaal_batch(problem, [config], full_batch=True)
    return _run_hooks(outcome, metric_hooks, problem.oracle.dim)


def _start(config: RunConfig, rng: np.random.Generator, oracle):
    """A run's start (x, y): RunConfig.initial, x projected onto the feasible
    set, or a uniform draw from [-1, 1]^dim projected there and y = 0."""
    if config.initial is not None:
        return (oracle.feasible_set.prox(1.0, np.asarray(config.initial.x, dtype=float)),
                as_vector(config.initial.y, dim=oracle.cone.dim, name="initial y"))
    return oracle.feasible_set.prox(1.0, rng.uniform(-1.0, 1.0, size=oracle.dim)), np.zeros(oracle.cone.dim)


def run_lsaal_batch(problem: LsaalProblem, configs, full_batch: bool = False) -> list:
    """Run one LSAAL trial per config, all advancing together; with
    full_batch=True every sample is replaced by the full-batch average (LAAM).

    Each config brings its own random stream (seed, stream_id), initial point,
    horizon and trace_thinning, and its own sigma (1/sqrt(horizon) unless
    problem.sigma is set); the configs must share averaging. A trial draws
    its start first, then its samples, all from its own stream: the oracle
    serves them as `draws(rng, count)`, taken PREFETCH_ROWS at a time and
    exactly horizon in all, and one stacked `evaluate_rows(X, draws)` per
    outer iteration (full_batch: `full_batch_rows(X)`). Every row is
    therefore bit-for-bit the trial run alone, whatever else is in the batch.

    Returns one entry per config: its RunRecord, or the DivergenceError or
    ConvergenceError that ended it, with the message it gets alone and the
    rows the trial recorded before it as the error's `record`. A trial
    leaves the batch at its horizon or at its error; the others run on. The
    recording contract is run_lsaal's; the records carry no metrics.
    """
    configs = list(configs)
    outcomes = [None] * len(configs)
    if not configs:
        return outcomes
    if any(c.averaging != configs[0].averaging for c in configs):
        raise ValueError("trials of one batch must share averaging")
    averaging = configs[0].averaging
    oracle = problem.oracle
    cone, feasible = oracle.cone, oracle.feasible_set
    rngs = [c.random_source().generator() for c in configs]
    starts = [_start(c, rng, oracle) for c, rng in zip(configs, rngs)]
    X, Y = np.stack([x for x, _ in starts]), np.stack([y for _, y in starts])
    zeros = np.zeros(len(configs))
    rows = _Rows(oracle, configs, rngs, oracle.dim + cone.dim,
                 sigma=np.array([problem.resolve_sigma(c.horizon) for c in configs]),
                 X=X, Y=Y, avg_x=np.zeros_like(X), avg_y=np.zeros_like(Y),
                 y_norm=np.sqrt(_row_dots(Y, Y)), y_norm_max=zeros, y_step_max=zeros, x_ratio_max=zeros,
                 y_ratio_max=zeros)

    constants = problem.constants
    audit_bounds = constants is not None and None not in (
        constants.R, constants.nu_g, constants.kappa_f, constants.kappa_g)
    k = 0
    while rows.index:
        k += 1
        S = oracle.full_batch_rows(rows.X) if full_batch else oracle.evaluate_rows(rows.X, rows.draws(k))
        errors = _check_sample_rows(S, oracle, k)
        if errors:
            S = _take(S, rows.drop(errors, outcomes))
            if not rows.index:
                break
        X, Y, errors = _solve_rows(rows.X, rows.Y, S, rows.sigma, cone, feasible,
                                   problem.inner_tol, problem.inner_max_iters)
        for row, exc in errors.items():
            if isinstance(exc, ConvergenceError):
                errors[row] = ConvergenceError(exc.residual, f"inner solver failed at outer iteration {k}: {exc}")
            else:
                errors[row] = DivergenceError(k, f"non-finite state at iteration {k}: {exc}")
        if errors or not (np.isfinite(X).all() and np.isfinite(Y).all()):
            for row in np.flatnonzero(~(np.isfinite(X).all(axis=1) & np.isfinite(Y).all(axis=1))):
                errors.setdefault(int(row), DivergenceError(k, f"non-finite state at iteration {k}"))
            keep = rows.drop(errors, outcomes)
            X, Y = X[keep], Y[keep]
            if not rows.index:
                break

        y_norm = np.sqrt(_row_dots(Y, Y))
        y_step = np.abs(y_norm - rows.y_norm)
        rows.y_step_max = np.maximum(rows.y_step_max, y_step)
        if audit_bounds:
            D = X - rows.X
            x_bound = rows.sigma * ((constants.kappa_f + constants.nu_g * constants.kappa_g * rows.sigma)
                                    + constants.kappa_g * rows.y_norm)
            rows.x_ratio_max = np.maximum(rows.x_ratio_max, np.sqrt(_row_dots(D, D)) / x_bound)
            rows.y_ratio_max = np.maximum(rows.y_ratio_max, y_step / (rows.sigma * constants.beta0))
        if averaging:
            rows.avg_x = rows.avg_x + (X - rows.avg_x) / k
            rows.avg_y = rows.avg_y + (Y - rows.avg_y) / k
        else:
            rows.avg_x, rows.avg_y = X, Y
        rows.y_norm = y_norm
        rows.y_norm_max = np.maximum(rows.y_norm_max, y_norm)
        rows.X, rows.Y = X, Y
        if k != rows.due:
            continue

        rows.record(k, rows.sigma, np.hstack((X, Y)), np.hstack((rows.avg_x, rows.avg_y)))
        ended = [row for row, N in enumerate(rows.horizons) if N == k]
        for row in ended:
            record = rows.records[row]
            record.final_iterate = PrimalDualPoint(X[row].copy(), Y[row].copy())
            record.final_average = PrimalDualPoint(rows.avg_x[row].copy(), rows.avg_y[row].copy())
            record.final_metrics = {"sigma": float(rows.sigma[row]), "y_norm_max": float(rows.y_norm_max[row]),
                                    "y_step_max": float(rows.y_step_max[row])}
            if audit_bounds:
                record.final_metrics.update(x_step_bound_ratio_max=float(rows.x_ratio_max[row]),
                                            y_step_bound_ratio_max=float(rows.y_ratio_max[row]))
            outcomes[rows.index[row]] = record
        if ended:
            rows.drop({}, outcomes, ended)
    return outcomes


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
    Neither size may be negative, and at least one must be positive.

    Point i of each part takes rng.uniform(-R, R, dim), then rng.random()
    for even i (which scales the projected point into the interior), then in
    the sampled part oracle.draws(rng, 1): the stream order of a per-point
    loop. The points are then projected and evaluated as stacks
    (full_batch_rows, evaluate_rows), and the maxima taken in point order.
    """
    if n_full < 0 or n_sample < 0 or n_full + n_sample == 0:
        raise ValueError(f"estimate_constants needs n_full >= 0 and n_sample >= 0, not both 0 "
                         f"(got n_full={n_full}, n_sample={n_sample})")
    feasible = oracle.feasible_set
    dim = oracle.dim
    R = feasible.diameter()
    if not math.isfinite(R):
        raise ValueError("feasible set must be bounded to estimate a diameter")

    def random_feasible(count: int, sampled: bool):
        """count random feasible points, stacked, and with sampled=True their draws."""
        U, scale, draws = np.empty((count, dim)), np.ones(count), []
        for i in range(count):
            U[i] = rng.uniform(-R, R, size=dim)
            if i % 2 == 0:
                scale[i] = rng.random()
            if sampled:
                draws.append(oracle.draws(rng, 1))
        return feasible._prox_rows(1.0, U) * scale[:, None], draws

    def raised(maxima, S: ConicSample) -> list:
        """The maxima (nu_g, kappa_f, kappa_g) raised by the row norms of S, in row order."""
        norms = (np.sqrt(_row_dots(S.g_value, S.g_value)), np.sqrt(_row_dots(S.f_grad, S.f_grad)),
                 np.linalg.norm(S.g_jacobian, 2, axis=(1, 2)))
        return [max([start, *row_norms.tolist()]) for start, row_norms in zip(maxima, norms)]

    nu_g, kappa_f, kappa_g = raised((0.0, 0.0, 0.0), oracle.full_batch_rows(random_feasible(n_full, False)[0]))
    nu_f = 0.0
    points, draws = random_feasible(n_sample, True)
    if draws:
        sampled = oracle.evaluate_rows(points, np.concatenate(draws))
        nu_g, kappa_f, kappa_g = raised((nu_g, kappa_f, kappa_g), sampled)
        nu_f = max([0.0, *np.abs(sampled.f_value - oracle.full_batch_rows(points).f_value).tolist()])

    margin = oracle.cone.interior_distance(oracle.full_batch_rows(oracle.slater_point()[None]).g_value[0])
    return ProblemConstants(
        R=R,
        nu_g=nu_g,
        kappa_f=kappa_f,
        kappa_g=kappa_g,
        nu_f=nu_f if nu_f > 0.0 else None,
        slater_margin=margin if margin > 0.0 else None,
        estimated=True,
    )
