"""Prox-subgradient saddle solver with weighted iterate averaging.

One iteration moves the primal block down and the dual block up along the
sampled gradients, then applies the blockwise prox:

    x' = prox_{gamma * theta}(x - gamma * grad_x)
    y' = prox_{gamma * omega}(y + gamma * grad_y)

The running average weights iterate k by its step size gamma_k and is
maintained in streaming form so trace thinning never affects the final
averaged point.

The solver advances the independent trials of one horizon together: row t of
the (T, n + m) iterate array is trial t. Every trial owns its random stream,
so a trial gives the same bits in a batch of any size; `run_saps` is the
one-trial batch.
"""

from __future__ import annotations

import math
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
from .prox import ProximableFunction

__all__ = ["SapsProblem", "run_saps", "run_saps_batch"]

# Oracle draws taken from each trial's stream at a time: bounds the prefetch
# buffer at PREFETCH_ROWS x T draws.
PREFETCH_ROWS = 1024


@dataclass(frozen=True, eq=False)
class SapsProblem:
    """Minimax instance: stochastic oracle plus the two nonsmooth terms."""

    oracle: object
    theta: ProximableFunction
    omega: ProximableFunction
    known_saddle: PrimalDualPoint | None = None


# ---------------------------------------------------------------------------
# The update, row by row
# ---------------------------------------------------------------------------


def _fold(avg, weight: float, z, gamma: float):
    """Fold iterate rows z into their gamma-weighted running averages.

    Returns (averages, total weight); the first fold returns z itself, so
    neither argument is ever written to.
    """
    total = weight + gamma
    if weight == 0.0:
        return z, total
    return avg + (gamma / total) * (z - avg), total


def _nonfinite_rows(Vx, Vy):
    """Mask of the rows with a non-finite entry, or None when there are none."""
    # Any non-finite entry makes the sum non-finite; a sum that merely
    # overflows costs the exact scan and finds nothing.
    if math.isfinite(Vx.sum() + Vy.sum()):
        return None
    bad = ~(np.isfinite(Vx).all(axis=1) & np.isfinite(Vy).all(axis=1))
    return bad if bad.any() else None


# ---------------------------------------------------------------------------
# The batch loop
# ---------------------------------------------------------------------------


def _default_initial(rng: np.random.Generator, n: int, m: int) -> PrimalDualPoint:
    v = rng.uniform(-1.0, 1.0, size=n + m)
    return PrimalDualPoint(v[:n], v[n:])


class _Trials:
    """The rows still running in a batch: their streams, records and draws.

    An oracle with `draws(rng, count)` and `evaluate_rows(X, Y, draws)` gets
    each trial's draws PREFETCH_ROWS at a time, which yields the bits of one
    draw per iteration; any other oracle is sampled through `sample(rng, z)`
    one row at a time.
    """

    def __init__(self, oracle, rngs, horizon: int):
        self.oracle = oracle
        self.rngs = rngs
        self.index = list(range(len(rngs)))  # row -> position in the caller's list
        self.records = [RunRecord() for _ in rngs]
        self.rows_form = hasattr(oracle, "evaluate_rows")
        self.undrawn = horizon
        self.block = None
        self.cursor = 0

    def gradients(self, X, Y):
        if not self.rows_form:
            samples = [self.oracle.sample(rng, PrimalDualPoint(x, y))
                       for rng, x, y in zip(self.rngs, X, Y)]
            return np.array([s.grad_x for s in samples]), np.array([s.grad_y for s in samples])
        if self.block is None or self.cursor == self.block.shape[0]:
            count = min(PREFETCH_ROWS, self.undrawn)
            self.block = np.stack([self.oracle.draws(rng, count) for rng in self.rngs], axis=1)
            self.undrawn -= count
            self.cursor = 0
        sample = self.oracle.evaluate_rows(X, Y, self.block[self.cursor])
        self.cursor += 1
        return sample.grad_x, sample.grad_y

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
        if self.block is not None:
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
    oracle = problem.oracle
    rngs = [c.random_source().generator() for c in configs]
    starts = [c.initial if c.initial is not None else _default_initial(rng, oracle.n, oracle.m)
              for c, rng in zip(configs, rngs)]
    n = starts[0].n
    if any((z.n, z.m) != (n, starts[0].m) for z in starts):
        raise ValueError("initial points of one batch must have equal dimensions")
    trials = _Trials(oracle, rngs, horizon)
    Z = np.stack([z.stacked() for z in starts])
    avg, weight = Z, 0.0
    t0 = time.perf_counter()
    for k in range(1, horizon + 1):
        gamma = gamma_at(schedule, k)
        if not 0.0 < gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, got {gamma} at iteration {k}")
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
        GX, GY = trials.gradients(Z[:, :n], Z[:, n:])
        # A shape mismatch is a programming error, not divergence.
        if GX.shape != (Z.shape[0], n) or GY.shape != (Z.shape[0], Z.shape[1] - n):
            raise ValueError(f"sample gradient dimensions do not match the iterate at iteration {k}")
        Vx, Vy = Z[:, :n] - gamma * GX, Z[:, n:] + gamma * GY  # descent in x, ascent in y
        bad = _nonfinite_rows(Vx, Vy)
        if bad is not None:
            message = f"non-finite iterate at iteration {k}: vector has non-finite entries"
            for row in np.flatnonzero(bad):
                errors.setdefault(row, DivergenceError(k, message))
        if errors:  # leave before the prox, which rejects non-finite rows
            keep = trials.drop(errors, outcomes)
            Vx, Vy, avg = Vx[keep], Vy[keep], avg[keep]
            if not trials.index:
                break
        Z = np.concatenate((problem.theta._prox_rows(gamma, Vx),
                            problem.omega._prox_rows(gamma, Vy)), axis=1)
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
