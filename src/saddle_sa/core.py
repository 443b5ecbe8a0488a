"""Shared numeric types: primal-dual points, step schedules, run configuration,
per-run traces, the rows of a running solver batch, problem constants, and the
reproducible random-stream contract.

All vectors are 1-D float64 numpy arrays with finite entries. Scalars are
double precision throughout; finiteness means exact IEEE finiteness.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DivergenceError",
    "ConvergenceError",
    "as_vector",
    "PrimalDualPoint",
    "StepSchedule",
    "gamma_at",
    "RunConfig",
    "RunRecord",
    "ProblemConstants",
    "RandomSource",
    "derive_stream_id",
]

DIVERGENCE_NORM_BOUND = 1e12
# Oracle draws a solver takes from a random stream at a time: bounds a
# prefetch buffer at PREFETCH_ROWS draws per stream.
PREFETCH_ROWS = 1024


class DivergenceError(RuntimeError):
    """An iterate became non-finite or exceeded the norm guard.

    Carries the 1-based iteration index at which the run was aborted.
    """

    def __init__(self, iteration: int, message: str = ""):
        self.iteration = iteration
        super().__init__(message or f"iterate diverged at iteration {iteration}")

    def __reduce__(self):
        return type(self), (self.iteration, str(self))


class ConvergenceError(RuntimeError):
    """An inner solver exhausted its iteration budget.

    Carries the last dual fixed-point residual ||u - P_polar(w(u))|| of the
    Newton solver.
    """

    def __init__(self, residual: float, message: str = ""):
        self.residual = residual
        super().__init__(message or f"inner solver did not converge (residual {residual:.3e})")

    def __reduce__(self):
        return type(self), (self.residual, str(self))


_F64 = np.dtype(np.float64)


def _row_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Dot product of each row of A with the matching row of B (or with B
    itself when it is 1-D).

    A (1, n) @ (n, 1) product per row rounds as the 1-D `a @ b` does; axis
    sums and einsum can differ from it in the last bit.
    """
    return np.matmul(A[:, None, :], B[..., None]).reshape(A.shape[0])


def _row_distances(P: np.ndarray, ref: "PrimalDualPoint") -> list:
    """Distance to ref of each stacked (x | y) row of P: the hypot of the two
    block distances, each the root of a row dot product, which rounds as the
    1-D norm does."""
    D = P - ref.stacked()
    Dx, Dy = D[:, :ref.n], D[:, ref.n:]
    return list(map(math.hypot, np.sqrt(_row_dots(Dx, Dx)).tolist(), np.sqrt(_row_dots(Dy, Dy)).tolist()))


def as_vector(v, dim: int | None = None, name: str = "vector") -> np.ndarray:
    """Coerce to a 1-D float64 array and reject non-finite entries."""
    if type(v) is np.ndarray and v.dtype == _F64 and v.ndim == 1:
        arr = v  # hot path: already canonical, skip the copy
    else:
        arr = np.asarray(v, dtype=float)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if arr.ndim != 1:
            raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"{name} must have dimension {dim}, got {arr.shape[0]}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} has non-finite entries")
    return arr


@dataclass(frozen=True, eq=False)
class PrimalDualPoint:
    """The joint variable of a saddle problem: a primal block and a dual block."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", as_vector(self.x, name="x"))
        object.__setattr__(self, "y", as_vector(self.y, name="y"))

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def m(self) -> int:
        return self.y.shape[0]

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.x, self.y])

    def norm(self) -> float:
        return math.hypot(float(np.linalg.norm(self.x)), float(np.linalg.norm(self.y)))

    def distance_to(self, other: "PrimalDualPoint") -> float:
        return _row_distances(self.stacked()[None], other)[0]

    def allclose(self, other: "PrimalDualPoint", tol: float = 0.0) -> bool:
        return bool(
            np.allclose(self.x, other.x, rtol=0.0, atol=tol)
            and np.allclose(self.y, other.y, rtol=0.0, atol=tol)
        )


# The StepSchedule parameters each kind reads.
SCHEDULE_READS = {"const_over_sqrt_n": (), "scaled_const": ("theta", "dist_estimate", "M_estimate"),
                  "harmonic": ("theta",), "inv_sqrt_k": ("theta",)}
SCHEDULE_KINDS = tuple(SCHEDULE_READS)


@dataclass(frozen=True)
class StepSchedule:
    """Step-size rule gamma_k of a run of N iterations (RunConfig.horizon).

    Kinds:
      const_over_sqrt_n  gamma_k = 1/sqrt(N)
      scaled_const       gamma_k = theta*dist/(M*sqrt(N))
      harmonic           gamma_k = theta/k
      inv_sqrt_k         gamma_k = theta/sqrt(k)

    `dist_estimate` and `M_estimate` are user-supplied guesses of the initial
    distance to the saddle and of the oracle second-moment bound; neither is
    observable in practice, so the scaled_const rule takes them as inputs.
    """

    kind: str
    theta: float = 1.0
    dist_estimate: float | None = None
    M_estimate: float | None = None

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}; expected one of {SCHEDULE_KINDS}")
        if not 0.0 < self.theta < math.inf:
            raise ValueError("theta must be positive and finite")
        if self.kind == "scaled_const":
            if self.dist_estimate is None or self.M_estimate is None:
                raise ValueError("scaled_const requires dist_estimate and M_estimate")
            if not (0.0 < self.dist_estimate < math.inf and 0.0 < self.M_estimate < math.inf):
                raise ValueError("dist_estimate and M_estimate must be positive and finite")


def gamma_at(schedule: StepSchedule, k: int, horizon: int) -> float:
    """Step size at (1-based) iteration k of a run of `horizon` iterations; requires 1 <= k <= horizon."""
    if not 1 <= k <= horizon:
        raise ValueError(f"iteration index must be in [1, {horizon}], got {k}")
    if schedule.kind == "const_over_sqrt_n":
        return 1.0 / math.sqrt(horizon)
    if schedule.kind == "scaled_const":
        return schedule.theta * schedule.dist_estimate / (schedule.M_estimate * math.sqrt(horizon))
    if schedule.kind == "harmonic":
        return schedule.theta / k
    return schedule.theta / math.sqrt(k)


def _check_last_step(schedule: StepSchedule, horizon: int) -> None:
    # Steps never grow with k, so a valid step at the horizon makes every step 1..horizon valid.
    last = gamma_at(schedule, horizon, horizon)
    if not 0.0 < last < math.inf:
        raise ValueError(f"the step size at the horizon N={horizon} is {last!r}; it must be positive and finite")


@dataclass(frozen=True)
class RunConfig:
    """Per-run knobs shared by every solver runner. SAPS steps by the
    schedule; LSAAL and LAAM step by their penalty and take none."""

    horizon: int
    seed: int
    schedule: StepSchedule | None = None
    trace_thinning: int = 1  # record every t-th iteration (the last one is always kept)
    averaging: bool = True
    stream_id: int = 0
    initial: PrimalDualPoint | None = None

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.trace_thinning < 1:
            raise ValueError("trace_thinning must be >= 1")
        if self.seed < 0 or self.stream_id < 0:
            raise ValueError("seed and stream_id must be nonnegative")
        if self.schedule is not None:
            _check_last_step(self.schedule, self.horizon)

    def random_source(self) -> "RandomSource":
        return RandomSource(self.seed, self.stream_id)


@dataclass
class RunRecord:
    """Append-only trace of a single run.

    One row per recorded (possibly thinned) iteration: iteration index, step
    size and the solver's elapsed wall time in seconds. The row's iterate and
    average are copied into row i of `iterates` and `averages`, two
    (rows, n + m) arrays of stacked (x | y), which callers score after the
    run; `metrics` maps each score's name to its column, one value per row.
    The run's last iterate and average land in `final_iterate`/
    `final_average`, run-level scalars in `final_metrics`.
    """

    ks: list = field(default_factory=list)
    gammas: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    elapsed: list = field(default_factory=list)
    iterates: np.ndarray | None = None
    averages: np.ndarray | None = None
    final_average: PrimalDualPoint | None = None
    final_iterate: PrimalDualPoint | None = None
    final_metrics: dict = field(default_factory=dict)

    def append(self, k, gamma, elapsed_s):
        if self.ks and k <= self.ks[-1]:
            raise ValueError(f"recorded iterations must strictly increase ({k} after {self.ks[-1]})")
        if self.elapsed and elapsed_s < self.elapsed[-1]:
            raise ValueError("elapsed time must be nondecreasing")
        self.ks.append(int(k))
        self.gammas.append(float(gamma))
        self.elapsed.append(float(elapsed_s))


def _run_hooks(outcome, hooks, n: int) -> RunRecord:
    """A one-row runner's outcome with its metric hooks applied after the run.

    outcome is a RunRecord, or the error that ended the run with the rows
    recorded before it as its `record`. Each recorded row k, in order, calls
    hook(k, iterate, average) on views of the record's copies (the first n
    entries of a stacked row are x), and the hooks' name->value maps become
    the record's metric columns. A hook that raises DivergenceError at row k
    ends the run there: the error is raised with the rows before k as its
    record. Otherwise the record is returned, or the outcome raised.
    """
    record = outcome.record if isinstance(outcome, Exception) else outcome
    rows = []
    for i, (k, z, a) in enumerate(zip(record.ks, record.iterates, record.averages)):
        values = {}
        try:
            for hook in hooks:
                values.update(hook(k, PrimalDualPoint(z[:n], z[n:]), PrimalDualPoint(a[:n], a[n:])))
        except DivergenceError as exc:
            exc.record = RunRecord(record.ks[:i], record.gammas[:i], _columns(rows), record.elapsed[:i],
                                   record.iterates[:i], record.averages[:i])
            raise
        rows.append(values)
    record.metrics = _columns(rows)
    if isinstance(outcome, Exception):
        raise outcome
    return record


def _columns(rows) -> dict:
    """name -> column of the per-row maps, NaN where a row lacks the name."""
    names = dict.fromkeys(name for values in rows for name in values)
    return {name: [values.get(name, math.nan) for values in rows] for name in names}


class _Rows:
    """The rows still running in a solver batch: each one's random stream,
    RunRecord, horizon and thinning, their prefetched oracle draws, and the
    kernel's own per-row arrays, given as keyword arguments.

    Row t of the kernel's stacked state is the trial at position index[t] of
    its caller's list. A row records every thinning-th iteration and its
    last one, by copying its points into its RunRecord; scoring them is left
    to the caller, after the run. `due` is the next iteration at which any
    row records, so an iteration that records no row costs the kernel one
    comparison with it.
    """

    def __init__(self, oracle, configs, rngs, dim: int, **state):
        self.oracle, self.rngs = oracle, list(rngs)
        self.index = list(range(len(configs)))
        self.horizons = [c.horizon for c in configs]
        self.thinnings = [c.trace_thinning for c in configs]
        # One array pair for the batch, each record holding its own rows' slice.
        counts = [-(-c.horizon // c.trace_thinning) for c in configs]
        stops = np.cumsum(counts).tolist()
        iterates, averages = np.empty((stops[-1], dim)), np.empty((stops[-1], dim))
        self.records = [RunRecord(iterates=iterates[stop - count:stop], averages=averages[stop - count:stop])
                        for count, stop in zip(counts, stops)]
        self.nexts = [min(t, N) for N, t in zip(self.horizons, self.thinnings)]
        self.due = min(self.nexts)
        self.block = None  # prefetched draws, (draws, rows, ...)
        self.state = tuple(state)
        self.__dict__.update(state)
        self.t0 = time.perf_counter()

    def draws(self, k: int) -> np.ndarray:
        """The rows' draws for iteration k. Each stream serves min(PREFETCH_ROWS,
        N - k + 1) draws at a time, exactly its horizon N in all; a row with
        fewer draws left than the block holds is padded with zeros past N."""
        at = (k - 1) % PREFETCH_ROWS
        if at == 0:
            blocks = [self.oracle.draws(rng, min(PREFETCH_ROWS, N - k + 1)) for rng, N in zip(self.rngs, self.horizons)]
            self.block = np.zeros((max(map(len, blocks)), len(blocks)) + blocks[0].shape[1:], dtype=blocks[0].dtype)
            for row, block in enumerate(blocks):
                self.block[:len(block), row] = block
        return self.block[at]

    def record(self, k: int, gamma, Z, A) -> None:
        """Record the rows due at iteration k = `due`: copy each one's iterate
        Z[row] and average A[row] into its RunRecord with its step (gamma, or
        gamma[row] for an array)."""
        gammas = np.broadcast_to(gamma, len(self.index))
        for row, (N, thinning) in enumerate(zip(self.horizons, self.thinnings)):
            if self.nexts[row] != k:
                continue
            record = self.records[row]
            record.iterates[len(record.ks)], record.averages[len(record.ks)] = Z[row], A[row]
            record.append(k, gammas[row], time.perf_counter() - self.t0)
            self.nexts[row] = min(k + thinning, N)
        self.due = min(self.nexts)

    def drop(self, errors: dict, outcomes: list, finished=()) -> np.ndarray:
        """Hand each row in `errors` its error, with the rows the trial
        recorded before it as the error's `record`, and forget those rows
        and the finished ones. Returns the mask of the rows that run on."""
        keep = np.ones(len(self.index), dtype=bool)
        keep[list(finished)] = False
        for row, exc in errors.items():
            record = self.records[row]
            record.iterates, record.averages = record.iterates[:len(record.ks)], record.averages[:len(record.ks)]
            exc.record = record
            outcomes[self.index[row]] = exc
            keep[row] = False
        for name in ("rngs", "index", "records", "horizons", "thinnings", "nexts"):
            setattr(self, name, [v for v, kept in zip(getattr(self, name), keep) if kept])
        for name in self.state:
            setattr(self, name, getattr(self, name)[keep])
        if self.block is not None:
            self.block = self.block[:, keep]
        self.due = min(self.nexts, default=0)
        return keep


@dataclass(frozen=True)
class ProblemConstants:
    """Instance constants feeding schedules, step-bound audits, and multiplier
    diagnostics.

    R             diameter of the compact primal feasible set
    nu_g          sup-norm bound on sampled constraint values
    kappa_f       sup-norm bound on sampled objective gradients
    kappa_g       sup-norm bound on sampled constraint Jacobians
    nu_f          light-tail scale of the sampled objective values
    slater_margin distance of the constraint value at the oracle's Slater
                  point to the cone boundary (must be positive for diagnostics)
    """

    R: float | None = None
    nu_g: float | None = None
    kappa_f: float | None = None
    kappa_g: float | None = None
    nu_f: float | None = None
    slater_margin: float | None = None
    estimated: bool = False  # True when produced by sampled maximization

    def __post_init__(self):
        for name in ("R", "nu_g", "kappa_f", "kappa_g", "nu_f", "slater_margin"):
            value = getattr(self, name)
            if value is not None and not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be strictly positive and finite, got {value}")

    @property
    def beta0(self) -> float:
        """Multiplier step-size constant nu_g + kappa_g * R."""
        if self.nu_g is None or self.kappa_g is None or self.R is None:
            raise ValueError("beta0 requires nu_g, kappa_g and R")
        return self.nu_g + self.kappa_g * self.R


@dataclass(frozen=True)
class RandomSource:
    """Reproducible, splittable random-stream handle.

    Equal (seed, stream_id) pairs reproduce the identical bit stream on the
    same build; distinct stream_ids give statistically independent streams
    (numpy SeedSequence spawn-key construction).
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if self.seed < 0 or self.stream_id < 0:
            raise ValueError("seed and stream_id must be nonnegative")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.default_rng(ss)


def derive_stream_id(*parts) -> int:
    """Stable 63-bit stream id from integer/string parts (order-sensitive).

    Uses SHA-256 over a canonical encoding so ids do not depend on the Python
    hash seed or on scheduling order. Integral parts are encoded as Python
    ints, so a numpy integer gives the same id as the equal Python int.
    """
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, numbers.Integral):
            p = int(p)
        h.update(repr(p).encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest()[:8], "big") >> 1
