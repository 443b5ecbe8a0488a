"""Shared numeric types: primal-dual points, step schedules, run configuration,
per-run traces, problem constants, and the reproducible random-stream contract.

All vectors are 1-D float64 numpy arrays with finite entries. Scalars are
double precision throughout; finiteness means exact IEEE finiteness.
"""

from __future__ import annotations

import hashlib
import math
import numbers
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


class DivergenceError(RuntimeError):
    """An iterate became non-finite or exceeded the norm guard.

    Carries the 1-based iteration index at which the run was aborted.
    """

    def __init__(self, iteration: int, message: str = ""):
        self.iteration = iteration
        super().__init__(message or f"iterate diverged at iteration {iteration}")


class ConvergenceError(RuntimeError):
    """An inner solver exhausted its iteration budget.

    Carries the last projected-gradient residual observed.
    """

    def __init__(self, residual: float, message: str = ""):
        self.residual = residual
        super().__init__(message or f"inner solver did not converge (residual {residual:.3e})")


_F64 = np.dtype(np.float64)


def _row_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Dot product of each row of A with the matching row of B (or with B
    itself when it is 1-D).

    A (1, n) @ (n, 1) product per row rounds as the 1-D `a @ b` does; axis
    sums and einsum can differ from it in the last bit.
    """
    return np.matmul(A[:, None, :], B[..., None]).reshape(A.shape[0])


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
        return math.hypot(
            float(np.linalg.norm(self.x - other.x)),
            float(np.linalg.norm(self.y - other.y)),
        )

    def allclose(self, other: "PrimalDualPoint", tol: float = 0.0) -> bool:
        return bool(
            np.allclose(self.x, other.x, rtol=0.0, atol=tol)
            and np.allclose(self.y, other.y, rtol=0.0, atol=tol)
        )


SCHEDULE_KINDS = ("const_over_sqrt_n", "scaled_const", "harmonic", "inv_sqrt_k")
_HORIZON_BOUND = ("const_over_sqrt_n", "scaled_const")


@dataclass(frozen=True)
class StepSchedule:
    """Step-size rule gamma_k.

    Kinds:
      const_over_sqrt_n  gamma_k = 1/sqrt(N)                  (fixed horizon N)
      scaled_const       gamma_k = theta*dist/(M*sqrt(N))     (fixed horizon N)
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
    horizon: int | None = None

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}; expected one of {SCHEDULE_KINDS}")
        if not 0.0 < self.theta < math.inf:
            raise ValueError("theta must be positive and finite")
        if self.kind in _HORIZON_BOUND:
            if self.horizon is None or self.horizon < 1:
                raise ValueError(f"schedule {self.kind!r} requires a positive horizon")
        if self.kind == "scaled_const":
            if self.dist_estimate is None or self.M_estimate is None:
                raise ValueError("scaled_const requires dist_estimate and M_estimate")
            if not (0.0 < self.dist_estimate < math.inf and 0.0 < self.M_estimate < math.inf):
                raise ValueError("dist_estimate and M_estimate must be positive and finite")
        if self.horizon is not None:
            # Steps never grow with k, so the one at the horizon is the smallest.
            last = gamma_at(self, self.horizon)
            if not 0.0 < last < math.inf:
                raise ValueError(f"the step size at the horizon N={self.horizon} is {last!r}; "
                                 "it must be positive and finite")


def gamma_at(schedule: StepSchedule, k: int) -> float:
    """Step size at (1-based) iteration k; horizon-bound kinds require 1 <= k <= N."""
    if k < 1:
        raise ValueError(f"iteration index must be >= 1, got {k}")
    if schedule.kind in _HORIZON_BOUND and k > schedule.horizon:
        raise ValueError(f"iteration {k} exceeds schedule horizon {schedule.horizon}")
    if schedule.kind == "const_over_sqrt_n":
        return 1.0 / math.sqrt(schedule.horizon)
    if schedule.kind == "scaled_const":
        return schedule.theta * schedule.dist_estimate / (schedule.M_estimate * math.sqrt(schedule.horizon))
    if schedule.kind == "harmonic":
        return schedule.theta / k
    return schedule.theta / math.sqrt(k)


@dataclass(frozen=True)
class RunConfig:
    """Per-run knobs shared by every solver driver."""

    horizon: int
    seed: int
    schedule: StepSchedule
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

    def random_source(self) -> "RandomSource":
        return RandomSource(self.seed, self.stream_id)


@dataclass
class RunRecord:
    """Append-only trace of a single run.

    One row per recorded (possibly thinned) iteration: iteration index, step
    size, metric values, and elapsed wall time in seconds. The points of a
    row reach the metric hooks and are not stored; the run's last iterate and
    average land in `final_iterate`/`final_average`, run-level scalars in
    `final_metrics`.
    """

    ks: list = field(default_factory=list)
    gammas: list = field(default_factory=list)
    metrics: list = field(default_factory=list)
    elapsed: list = field(default_factory=list)
    final_average: PrimalDualPoint | None = None
    final_iterate: PrimalDualPoint | None = None
    final_metrics: dict = field(default_factory=dict)

    def append(self, k, gamma, metric_values, elapsed_s):
        if self.ks and k <= self.ks[-1]:
            raise ValueError(f"recorded iterations must strictly increase ({k} after {self.ks[-1]})")
        if self.elapsed and elapsed_s < self.elapsed[-1]:
            raise ValueError("elapsed time must be nondecreasing")
        self.ks.append(int(k))
        self.gammas.append(float(gamma))
        self.metrics.append(dict(metric_values))
        self.elapsed.append(float(elapsed_s))


@dataclass(frozen=True)
class ProblemConstants:
    """Instance constants feeding schedules, step-bound audits, and multiplier
    diagnostics.

    R             diameter of the compact primal feasible set
    nu_g          sup-norm bound on sampled constraint values
    kappa_f       sup-norm bound on sampled objective gradients
    kappa_g       sup-norm bound on sampled constraint Jacobians
    nu_f          light-tail scale of the sampled objective values
    slater_margin distance of the constraint value at the Slater point to the
                  cone boundary (must be positive for diagnostics)
    slater_point  strictly feasible primal point
    """

    R: float | None = None
    nu_g: float | None = None
    kappa_f: float | None = None
    kappa_g: float | None = None
    nu_f: float | None = None
    slater_margin: float | None = None
    slater_point: np.ndarray | None = None
    estimated: bool = False  # True when produced by sampled maximization

    def __post_init__(self):
        for name in ("R", "nu_g", "kappa_f", "kappa_g", "nu_f", "slater_margin"):
            value = getattr(self, name)
            if value is not None and not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be strictly positive and finite, got {value}")
        if self.slater_point is not None:
            object.__setattr__(self, "slater_point", as_vector(self.slater_point, name="slater_point"))

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
