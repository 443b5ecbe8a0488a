"""Prox-subgradient saddle solver with weighted iterate averaging.

One iteration moves the primal block down and the dual block up along the
sampled gradients, then applies the blockwise prox:

    x' = prox_{gamma * theta}(x - gamma * grad_x)
    y' = prox_{gamma * omega}(y + gamma * grad_y)

taken on the stacked z = (x | y) as one BlockSeparable prox of z + gamma * D,
with the direction D = (-grad_x | grad_y) that the oracle returns.

The running average weights iterate k by its step size gamma_k and is
maintained in streaming form so trace thinning never affects the final
averaged point.

The solver advances the independent trials of one horizon together: row t of
the (T, n + m) iterate array is trial t. Every trial owns its random stream,
so a trial gives the same bits in a batch of any size; `run_saps` is the
one-trial batch. The oracle serves the batch in its row form only:
`draws(rng, count)` stacks a trial's draws and `directions(Z, draws)`
returns one (n + m) direction row per trial.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import (
    DIVERGENCE_NORM_BOUND,
    PREFETCH_ROWS,
    DivergenceError,
    PrimalDualPoint,
    RunConfig,
    RunRecord,
    gamma_at,
)
from .prox import BlockSeparable, ProximableFunction

__all__ = ["SapsProblem", "run_saps", "run_saps_batch"]


@dataclass(frozen=True, eq=False)
class SapsProblem:
    """Minimax instance: stochastic oracle plus the two nonsmooth terms."""

    oracle: object
    theta: ProximableFunction
    omega: ProximableFunction


def _fold(avg, weight: float, z, gamma: float):
    """Fold iterate rows z into their gamma-weighted running averages.

    Returns (averages, total weight); the first fold returns z itself, so
    neither argument is ever written to.
    """
    total = weight + gamma
    if weight == 0.0:
        return z, total
    return avg + (gamma / total) * (z - avg), total


def _default_initial(rng: np.random.Generator, n: int, m: int) -> PrimalDualPoint:
    v = rng.uniform(-1.0, 1.0, size=n + m)
    return PrimalDualPoint(v[:n], v[n:])


class _Trials:
    """The rows still running in a batch: their streams, records and draws.

    Each trial's draws come from `oracle.draws(rng, count)`, PREFETCH_ROWS at
    a time, which yields the bits of one draw per iteration; each step's
    directions come from one `oracle.directions(Z, draws)`.
    """

    def __init__(self, oracle, rngs, horizon: int):
        self.oracle = oracle
        self.rngs = rngs
        self.index = list(range(len(rngs)))  # row -> position in the caller's list
        self.records = [RunRecord() for _ in rngs]
        self.undrawn = horizon
        self.block = np.empty((0, len(rngs)))  # prefetched draws, (draws, rows, ...); none yet
        self.cursor = 0

    def directions(self, Z):
        if self.cursor == self.block.shape[0]:
            count = min(PREFETCH_ROWS, self.undrawn)
            self.block = np.stack([self.oracle.draws(rng, count) for rng in self.rngs], axis=1)
            self.undrawn -= count
            self.cursor = 0
        D = self.oracle.directions(Z, self.block[self.cursor])
        self.cursor += 1
        return D

    def drop(self, errors: dict, outcomes: list):
        """Hand each row in `errors` its DivergenceError and forget it.

        Returns the mask of the rows that run on.
        """
        keep = np.ones(len(self.index), dtype=bool)
        for row, exc in errors.items():
            outcomes[self.index[row]] = exc
            keep[row] = False
        self.rngs = [r for r, k in zip(self.rngs, keep) if k]
        self.index = [i for i, k in zip(self.index, keep) if k]
        self.records = [r for r, k in zip(self.records, keep) if k]
        self.block = self.block[:, keep]
        return keep


def _shared_settings(configs):
    first = configs[0]
    settings = (first.horizon, first.schedule, first.trace_thinning, first.averaging)
    if any((c.horizon, c.schedule, c.trace_thinning, c.averaging) != settings for c in configs):
        raise ValueError("trials of one batch must share horizon, schedule, trace_thinning and averaging")
    return settings


def _guard(Z, n: int, k: int):
    """DivergenceError per row of Z that is non-finite or beyond the norm guard."""
    errors = {}
    peaks = np.abs(Z).max(axis=1)
    for row in np.flatnonzero(~(peaks <= DIVERGENCE_NORM_BOUND)):
        if not np.isfinite(Z[row]).all():
            block = "x" if not np.isfinite(Z[row, :n]).all() else "y"
            errors[row] = DivergenceError(k, f"non-finite iterate at iteration {k}: {block} has non-finite entries")
        else:
            errors[row] = DivergenceError(k, f"iterate norm exceeded {DIVERGENCE_NORM_BOUND:.0e} at iteration {k}")
    return errors


def run_saps_batch(problem: SapsProblem, configs, metric_hooks=()) -> list:
    """Run one prox-subgradient trial per config, all advancing together.

    The configs must share horizon, schedule, trace_thinning and averaging;
    each brings its own random stream (seed, stream_id) and initial point.
    A trial draws its default initial point first, then its oracle draws, all
    from its own stream, so its row is bit-for-bit the trial run alone.

    Returns one entry per config: its RunRecord, or the DivergenceError that
    ended it. A trial that diverges leaves the batch; the others run on. The
    recording contract is run_saps's.
    """
    configs = list(configs)
    outcomes = [None] * len(configs)
    if not configs:
        return outcomes
    horizon, schedule, thinning, averaging = _shared_settings(configs)
    if schedule is None:
        raise ValueError("SAPS needs a step-size schedule; RunConfig.schedule is None")
    oracle = problem.oracle
    rngs = [c.random_source().generator() for c in configs]
    starts = [c.initial if c.initial is not None else _default_initial(rng, oracle.n, oracle.m)
              for c, rng in zip(configs, rngs)]
    n, m = starts[0].n, starts[0].m
    if any((z.n, z.m) != (n, m) for z in starts):
        raise ValueError("initial points of one batch must have equal dimensions")
    trials = _Trials(oracle, rngs, horizon)
    Z = np.stack([z.stacked() for z in starts])
    # With theta is omega (the same object) over blocks of equal size this is
    # one row prox over 2T rows.
    block_prox = BlockSeparable([(problem.theta, n), (problem.omega, m)])
    avg, weight = Z, 0.0
    t0 = time.perf_counter()
    for k in range(1, horizon + 1):
        gamma = gamma_at(schedule, k, horizon)  # positive and finite: RunConfig checks the last step
        if averaging:
            avg, weight = _fold(avg, weight, Z, gamma)
        else:
            avg = Z
        errors = {}  # row -> the DivergenceError that ends it at this iteration
        if k % thinning == 0 or k == horizon:
            for row, record in enumerate(trials.records):
                # Views: the loop rebinds Z and avg and never writes them in place.
                z = PrimalDualPoint(Z[row, :n], Z[row, n:])
                a = PrimalDualPoint(avg[row, :n], avg[row, n:]) if averaging else z
                values = {}
                try:
                    for hook in metric_hooks:
                        values.update(hook(k, z, a))
                except DivergenceError as exc:
                    errors[row] = exc
                    continue
                record.append(k, gamma, values, time.perf_counter() - t0)
        D = trials.directions(Z)  # descent in x, ascent in y
        # A shape mismatch is a programming error, not divergence.
        if D.shape != Z.shape:
            raise ValueError(f"sample direction dimensions do not match the iterate at iteration {k}")
        V = Z + gamma * D
        # Any non-finite entry makes the sum non-finite; a sum that merely
        # overflows costs the exact scan and finds nothing.
        if not math.isfinite(V.sum()):
            message = f"non-finite iterate at iteration {k}: vector has non-finite entries"
            for row in np.flatnonzero(~np.isfinite(V).all(axis=1)):
                errors.setdefault(row, DivergenceError(k, message))
        # Leave before the prox: the row prox is unchecked, and some (PositivePartSum)
        # map NaN to 0, so a NaN gradient would turn silently into a finite iterate.
        if errors:
            keep = trials.drop(errors, outcomes)
            V, avg = V[keep], avg[keep]
            if not trials.index:
                break
        Z = block_prox._prox_rows(gamma, V)
        if not np.abs(Z).max() <= DIVERGENCE_NORM_BOUND:
            keep = trials.drop(_guard(Z, n, k), outcomes)
            Z, avg = Z[keep], avg[keep]
            if not trials.index:
                break
    for row, (i, record) in enumerate(zip(trials.index, trials.records)):
        record.final_average = PrimalDualPoint(avg[row, :n].copy(), avg[row, n:].copy())
        record.final_iterate = PrimalDualPoint(Z[row, :n].copy(), Z[row, n:].copy())
        outcomes[i] = record
    return outcomes


def run_saps(problem: SapsProblem, config: RunConfig, metric_hooks=()) -> RunRecord:
    """Run the prox-subgradient solver for config.horizon iterations.

    The average covers the pre-update iterates z^1..z^N (the returned final
    iterate z^{N+1} is not folded in). Metric hooks are called at recorded
    iterations as hook(k, iterate, average) and return name->value maps;
    the points share memory with the solver's state, which is never updated
    in place, so a hook may keep them but must not write to them.
    With averaging disabled the averaged slots carry the raw iterate.
    This is the one-trial case of run_saps_batch.
    """
    outcome, = run_saps_batch(problem, [config], metric_hooks)
    if isinstance(outcome, DivergenceError):
        raise outcome
    return outcome
