"""Prox-subgradient saddle solver with weighted iterate averaging.

One iteration moves the primal block down and the dual block up along the
sampled gradients, then applies the blockwise prox:

    x' = prox_{gamma * theta}(x - gamma * grad_x)
    y' = prox_{gamma * omega}(y + gamma * grad_y)

The running average weights iterate k by its step size gamma_k and is
maintained in streaming form so trace thinning never affects the final
averaged point.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import (
    DIVERGENCE_NORM_BOUND,
    DivergenceError,
    PrimalDualPoint,
    RunConfig,
    RunRecord,
    gamma_at,
)
from .oracles import MinimaxSample
from .prox import ProximableFunction

__all__ = ["SapsProblem", "saps_step", "streaming_average", "run_saps"]


@dataclass(frozen=True, eq=False)
class SapsProblem:
    """Minimax instance: stochastic oracle plus the two nonsmooth terms."""

    oracle: object
    theta: ProximableFunction
    omega: ProximableFunction
    known_saddle: PrimalDualPoint | None = None


def saps_step(problem: SapsProblem, z: PrimalDualPoint, gamma: float,
              sample: MinimaxSample) -> PrimalDualPoint:
    """One prox-subgradient update at step size gamma."""
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    if sample.grad_x.shape != z.x.shape or sample.grad_y.shape != z.y.shape:
        raise ValueError("sample gradient dimensions do not match the iterate")
    x_new = problem.theta.prox(gamma, z.x - gamma * sample.grad_x)
    y_new = problem.omega.prox(gamma, z.y + gamma * sample.grad_y)
    return PrimalDualPoint(x_new, y_new)


def streaming_average(prev_avg: PrimalDualPoint, prev_weight: float,
                      z_new: PrimalDualPoint, gamma_new: float):
    """Fold one iterate into the gamma-weighted running average.

    Returns (updated average, updated total weight); after k folds the average
    equals sum(gamma_j z^j) / sum(gamma_j) exactly.
    """
    if prev_weight < 0.0:
        raise ValueError("prev_weight must be nonnegative")
    if gamma_new <= 0.0:
        raise ValueError("gamma_new must be positive")
    total = prev_weight + gamma_new
    if prev_weight == 0.0:
        return PrimalDualPoint(z_new.x.copy(), z_new.y.copy()), total
    step = gamma_new / total
    avg = PrimalDualPoint(
        prev_avg.x + step * (z_new.x - prev_avg.x),
        prev_avg.y + step * (z_new.y - prev_avg.y),
    )
    return avg, total


def _default_initial(rng: np.random.Generator, n: int, m: int) -> PrimalDualPoint:
    v = rng.uniform(-1.0, 1.0, size=n + m)
    return PrimalDualPoint(v[:n], v[n:])


def run_saps(problem: SapsProblem, config: RunConfig, metric_hooks=()) -> RunRecord:
    """Run the prox-subgradient solver for config.horizon iterations.

    The average covers the pre-update iterates z^1..z^N (the returned final
    iterate z^{N+1} is not folded in). Metric hooks are called at recorded
    iterations as hook(k, iterate, average) and return name->value maps.
    With averaging disabled the averaged slots carry the raw iterate.
    """
    N = config.horizon
    rng = config.random_source().generator()
    z = config.initial
    if z is None:
        z = _default_initial(rng, problem.oracle.n, problem.oracle.m)
    record = RunRecord()
    avg, weight = z, 0.0
    t0 = time.perf_counter()
    for k in range(1, N + 1):
        gamma = gamma_at(config.schedule, k)
        if config.averaging:
            avg, weight = streaming_average(avg, weight, z, gamma)
        else:
            avg = z
        if k % config.trace_thinning == 0 or k == N:
            values = {}
            for hook in metric_hooks:
                values.update(hook(k, z, avg))
            record.append(k, gamma, z, avg, values, time.perf_counter() - t0)
        sample = problem.oracle.sample(rng, z)
        # A shape mismatch is a programming error, not divergence.
        if sample.grad_x.shape != z.x.shape or sample.grad_y.shape != z.y.shape:
            raise ValueError(f"sample gradient dimensions do not match the iterate at iteration {k}")
        try:
            z = saps_step(problem, z, gamma, sample)
        except ValueError as exc:
            raise DivergenceError(k, f"non-finite iterate at iteration {k}: {exc}") from exc
        if float(np.abs(z.x).max(initial=0.0)) > DIVERGENCE_NORM_BOUND or \
           float(np.abs(z.y).max(initial=0.0)) > DIVERGENCE_NORM_BOUND:
            raise DivergenceError(k, f"iterate norm exceeded {DIVERGENCE_NORM_BOUND:.0e} at iteration {k}")
    record.final_average = avg
    record.final_iterate = z
    record.validate()
    return record
