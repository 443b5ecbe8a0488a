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
from dataclasses import dataclass

import numpy as np

from .core import (
    DIVERGENCE_NORM_BOUND,
    DivergenceError,
    PrimalDualPoint,
    RunConfig,
    RunRecord,
    _Rows,
    _run_hooks,
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


def _shared_settings(configs):
    first = configs[0]
    settings = (first.horizon, first.schedule, first.averaging)
    if any((c.horizon, c.schedule, c.averaging) != settings for c in configs):
        raise ValueError("trials of one batch must share horizon, schedule and averaging")
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


def run_saps_batch(problem: SapsProblem, configs) -> list:
    """Run one prox-subgradient trial per config, all advancing together.

    The configs must share horizon, schedule and averaging; each brings its
    own random stream (seed, stream_id), initial point and trace_thinning.
    A trial draws its default initial point first, then its oracle draws,
    all from its own stream, so its row is bit-for-bit the trial run alone.

    Returns one entry per config: its RunRecord, or the DivergenceError that
    ended it, with the rows the trial recorded before it as the error's
    `record`. A trial that diverges leaves the batch; the others run on. The
    recording contract is run_saps's; the records carry no metrics.
    """
    configs = list(configs)
    outcomes = [None] * len(configs)
    if not configs:
        return outcomes
    horizon, schedule, averaging = _shared_settings(configs)
    if schedule is None:
        raise ValueError("SAPS needs a step-size schedule; RunConfig.schedule is None")
    oracle = problem.oracle
    rngs = [c.random_source().generator() for c in configs]
    starts = [c.initial if c.initial is not None else _default_initial(rng, oracle.n, oracle.m)
              for c, rng in zip(configs, rngs)]
    n, m = starts[0].n, starts[0].m
    if any((z.n, z.m) != (n, m) for z in starts):
        raise ValueError("initial points of one batch must have equal dimensions")
    rows = _Rows(oracle, configs, rngs, n + m)
    Z = np.stack([z.stacked() for z in starts])
    # With theta is omega (the same object) over blocks of equal size this is
    # one row prox over 2T rows.
    block_prox = BlockSeparable([(problem.theta, n), (problem.omega, m)])
    avg, weight = Z, 0.0
    for k in range(1, horizon + 1):
        gamma = gamma_at(schedule, k, horizon)  # positive and finite: RunConfig checks the last step
        if averaging:
            avg, weight = _fold(avg, weight, Z, gamma)
        else:
            avg = Z
        if k == rows.due:
            rows.record(k, gamma, Z, avg)
        D = oracle.directions(Z, rows.draws(k))  # descent in x, ascent in y
        # A shape mismatch is a programming error, not divergence.
        if D.shape != Z.shape:
            raise ValueError(f"sample direction dimensions do not match the iterate at iteration {k}")
        V = Z + gamma * D
        # Any non-finite entry makes the sum non-finite; a sum that merely
        # overflows costs the exact scan and finds nothing. Leave before the
        # prox: the row prox is unchecked, and some (ScaledL2) map a NaN row
        # to 0, so a NaN gradient would turn silently into a finite iterate.
        # The bare reductions skip V.sum()'s and max()'s Python wrappers.
        if not math.isfinite(np.add.reduce(V, None)):
            message = f"non-finite iterate at iteration {k}: vector has non-finite entries"
            bad = np.flatnonzero(~np.isfinite(V).all(axis=1))
            keep = rows.drop({row: DivergenceError(k, message) for row in bad}, outcomes)
            V, avg = V[keep], avg[keep]
            if not rows.index:
                break
        Z = block_prox._prox_rows(gamma, V)
        if not np.maximum.reduce(np.abs(Z), None) <= DIVERGENCE_NORM_BOUND:
            keep = rows.drop(_guard(Z, n, k), outcomes)
            Z, avg = Z[keep], avg[keep]
            if not rows.index:
                break
    for row, (i, record) in enumerate(zip(rows.index, rows.records)):
        record.final_average = PrimalDualPoint(avg[row, :n].copy(), avg[row, n:].copy())
        record.final_iterate = PrimalDualPoint(Z[row, :n].copy(), Z[row, n:].copy())
        outcomes[i] = record
    return outcomes


def run_saps(problem: SapsProblem, config: RunConfig, metric_hooks=()) -> RunRecord:
    """Run the prox-subgradient solver for config.horizon iterations.

    The average covers the pre-update iterates z^1..z^N (the returned final
    iterate z^{N+1} is not folded in). Every trace_thinning-th iteration and
    the last are recorded: the record keeps their iterates and averages.
    With averaging disabled the averaged slots carry the raw iterate.
    This is the one-trial case of run_saps_batch. Metric hooks run after it,
    once per recorded row as hook(k, iterate, average), and their name->value
    maps become the record's metric columns (see core._run_hooks); a hook
    that raises DivergenceError ends the run at its row.
    """
    outcome, = run_saps_batch(problem, [config])
    n = config.initial.n if config.initial is not None else problem.oracle.n
    return _run_hooks(outcome, metric_hooks, n)
