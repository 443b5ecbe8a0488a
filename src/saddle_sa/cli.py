"""Batch experiment driver.

Parses flat key=value config files, builds the registered experiments
(bilinear / tanh / neyman_pearson), runs multi-seed trials (optionally in
parallel), and emits CSV traces, per-horizon aggregates and a slope summary.

Output bodies are a pure function of the config: every trial owns the random
stream derived from (seed, N, trial), so completion order and the parallelism
degree never change the files. Wall-clock timing is therefore excluded from
the CSVs unless include_timing is set.

Exit codes: 0 success, 1 config/data error, 2 numerical failure.
"""

from __future__ import annotations

import csv
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .core import (
    DivergenceError,
    ConvergenceError,
    PrimalDualPoint,
    RandomSource,
    RunConfig,
    RunRecord,
    SCHEDULE_READS,
    StepSchedule,
    _row_distances,
    _row_dots,
    derive_stream_id,
)
from .data import DataError, ParseError, parse_libsvm, synth_gaussian_classes
from .lsaal import (
    LsaalProblem,
    _check_sample_rows,
    _take,
    estimate_constants,
    multiplier_bound_diagnostics,
    run_lsaal_batch,
)
from .metrics import (
    BilinearEvaluator,
    FiniteSumMinimaxEvaluator,
    _constraint_violation_rows,
    _lagrangian_grad_rows,
    _minimax_gap_rows,
    _proj_kkt_rows,
    estimate_m_star,
    kkt_errors,
    rate_slope_fit,
    tail_tally,
)
from .oracles import BilinearOracle, NeymanPearsonOracle, TanhOracle
from .prox import PositivePartSum, ScaledL1, ScaledL2, ZeroFunction
from .saps import SapsProblem, run_saps, run_saps_batch

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "run_experiment", "main"]

ENV_OUTPUT_DIR = "SADDLE_SA_OUT"
REGULARIZERS = ("l1", "l2", "max")
SUBSAMPLE_CAP = 5000  # desk-scale policy: never hold more points per class


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    algorithm: str
    N_list: tuple
    n: int = 3                       # block dimension (features for neyman_pearson)
    m_classes: int = 3
    mu: float = 1.0
    regularizer: str = "l1"          # l1 | l2 | max (positive-part sum)
    lam: float = 5.0                 # per-class ball radius ("lambda" key)
    r: float | None = None           # constraint budget; default m_classes - 1
    dataset_path: str | None = None
    normalize: bool = True
    points_per_class: int = 100
    separation: float = 1.0
    subsample_per_class: int = SUBSAMPLE_CAP
    trials: int = 20
    schedule: str = "const_over_sqrt_n"
    theta: float = 1.0
    dist_estimate: float | None = None
    M_estimate: float | None = None
    sigma: float | None = None       # penalty override for lsaal/laam
    inner_tol: float = 1e-8
    inner_max_iters: int = 500
    seed: int = 0
    output_dir: str | None = None
    trace_thinning: int = 0          # 0 = auto (about 200 recorded rows)
    averaging: bool = True
    tail_multiplier: float = 5.0
    parallel: int = 0                # 0 = use all available processors
    include_timing: bool = False
    ref_pool_size: int = 500         # frozen draw pool for the tanh reference
    ref_iters: int = 20000           # deterministic solve length for the reference point


_KEY_ALIASES = {"lambda": "lam"}
_KEY_NAMES = {field: key for key, field in _KEY_ALIASES.items()}  # as a user writes them
# Keys every experiment reads; EXPERIMENTS names the rest each one reads.
_COMMON_KEYS = ("experiment algorithm N_list n trials seed output_dir trace_thinning averaging "
                "tail_multiplier parallel include_timing")
# Keys that describe the synthetic dataset, which a dataset_path file replaces.
_SYNTHETIC_KEYS = ("n", "m_classes", "points_per_class", "separation")
# Keys that set StepSchedule parameters, of which each schedule kind reads its own.
_SCHEDULE_PARAMETERS = {name for reads in SCHEDULE_READS.values() for name in reads}


def _parse_bool(raw: str, key: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"key {key!r}: expected a boolean, got {raw!r}")


def _parse_n_list(raw: str) -> tuple:
    values = tuple(int(tok) for tok in raw.split(",") if tok.strip())
    if not values or any(v < 1 for v in values):
        raise ValueError
    return values


# Parsers follow the ExperimentConfig annotations; None is only ever a default.
_KEY_TYPES = {f.name: f.type.removesuffix(" | None") for f in fields(ExperimentConfig)}
_PARSERS = {"int": int, "float": float, "str": str, "tuple": _parse_n_list}


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if _KEY_TYPES[key] == "bool":
        return _parse_bool(raw, key)
    try:
        return _PARSERS[_KEY_TYPES[key]](raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: cannot parse value {raw!r}") from None


def load_config(source, overrides=()) -> ExperimentConfig:
    """Build a validated config from key=value text plus override pairs.

    `source` is a pathlib.Path to read, literal key=value text, or None
    (overrides only). Later overrides win over file values.
    """
    pairs = {}
    if source is not None:
        text = source.read_text(encoding="utf-8") if isinstance(source, Path) else str(source)
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:  # a one-line str is most likely a path
                hint = "" if isinstance(source, Path) or "\n" in text else " (to read a file, pass a Path)"
                raise ConfigError(f"config line {lineno}: expected key=value, got {raw!r}{hint}")
            pairs[key.strip()] = value
    for item in overrides:
        key, sep, value = str(item).partition("=")
        if not sep:
            raise ConfigError(f"override {item!r} is not key=value")
        pairs[key.strip()] = value

    parsed = {}
    for key, raw in pairs.items():
        key = _KEY_ALIASES.get(key, key)
        if key not in _KEY_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        parsed[key] = _parse_value(key, raw)

    for required in ("experiment", "algorithm", "N_list"):
        if required not in parsed:
            raise ConfigError(f"missing required config key {required!r}")
    config = ExperimentConfig(**parsed)
    _validate(config)
    return config


def _validate(config: ExperimentConfig) -> None:
    experiment = EXPERIMENTS.get(config.experiment)
    if experiment is None:
        raise ConfigError(f"unknown experiment {config.experiment!r}")
    if config.algorithm not in experiment.algorithms:
        raise ConfigError(
            f"algorithm {config.algorithm!r} is incompatible with experiment "
            f"{config.experiment!r} (expected one of {experiment.algorithms})")
    if config.regularizer not in REGULARIZERS:
        raise ConfigError(f"unknown regularizer {config.regularizer!r}")
    if config.trials < 1:
        raise ConfigError("trials must be >= 1")
    if config.n < 1 or config.m_classes < 2:
        raise ConfigError("need n >= 1 and m_classes >= 2")
    if config.subsample_per_class < 1 or config.subsample_per_class > SUBSAMPLE_CAP:
        raise ConfigError(f"subsample_per_class must be in [1, {SUBSAMPLE_CAP}]")
    for name, value in (("lambda", config.lam), ("sigma", config.sigma), ("r", config.r),
                        ("inner_tol", config.inner_tol), ("tail_multiplier", config.tail_multiplier)):
        if value is not None and not 0.0 < value < math.inf:
            raise ConfigError(f"{name} must be positive and finite")
    if config.inner_max_iters < 1:
        raise ConfigError("inner_max_iters must be >= 1")
    if config.points_per_class < 1:
        raise ConfigError("points_per_class must be >= 1")
    if not math.isfinite(config.separation):
        raise ConfigError("separation must be finite")
    if config.parallel < 0 or config.trace_thinning < 0:
        raise ConfigError("need parallel >= 0 and trace_thinning >= 0")
    if config.ref_pool_size < 1 or config.ref_iters < 1:
        raise ConfigError("need ref_pool_size >= 1 and ref_iters >= 1")
    if len(set(config.N_list)) != len(config.N_list):
        raise ConfigError(f"N_list repeats a horizon: {','.join(map(str, config.N_list))}")
    # The random-stream, schedule, run and regularizer classes own their parameter rules.
    try:
        RandomSource(config.seed)
        schedule = _schedule_for(config)
        for N in config.N_list:
            RunConfig(horizon=N, seed=config.seed, schedule=schedule)
        _regularizer(config.regularizer, config.mu)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    # After the value rules: a key the experiment does not read keeps its default.
    reads = (_COMMON_KEYS + " " + experiment.keys).split()
    changed = [f.name for f in fields(config) if getattr(config, f.name) != f.default]
    unread = [name for name in changed if name not in reads]
    if unread:
        raise ConfigError(f"experiment {config.experiment!r} does not read {_key_list(unread)}; "
                          "remove the key(s) or set their defaults")
    replaced = [name for name in changed if name in _SYNTHETIC_KEYS] if config.dataset_path else []
    if replaced:
        raise ConfigError(f"dataset_path replaces the synthetic data that {_key_list(replaced)} describe; "
                          "remove the key(s) or set their defaults")
    ignored = [name for name in changed if name in _SCHEDULE_PARAMETERS
               and name not in SCHEDULE_READS[config.schedule]]
    if ignored:
        raise ConfigError(f"schedule {config.schedule!r} does not read {_key_list(ignored)}; "
                          "remove the key(s) or set their defaults")


def _key_list(names) -> str:
    return ", ".join(repr(_KEY_NAMES.get(name, name)) for name in names)


def _regularizer(kind: str, mu: float):
    if mu == 0.0:
        return ZeroFunction()
    if kind == "l1":
        return ScaledL1(mu)
    if kind == "l2":
        return ScaledL2(mu)
    return PositivePartSum(mu)


def _schedule_for(config: ExperimentConfig) -> StepSchedule:
    return StepSchedule(config.schedule, config.theta, config.dist_estimate, config.M_estimate)


# ---------------------------------------------------------------------------
# Experiments: each one's shared setup, trial batch, scoring and diagnose,
# and the EXPERIMENTS registry that names them, at the end of this section.
# ---------------------------------------------------------------------------


def _build_dataset(config: ExperimentConfig):
    rng = RandomSource(config.seed, derive_stream_id(config.seed, "data")).generator()
    if config.dataset_path:
        with open(config.dataset_path, "r", encoding="utf-8") as fh:
            dataset = parse_libsvm(fh)
    else:
        dataset = synth_gaussian_classes(rng, config.m_classes, config.n,
                                         config.points_per_class, config.separation)
    if max(dataset.num_points(lbl) for lbl in dataset.labels) > config.subsample_per_class:
        dataset = dataset.subsample(config.subsample_per_class, rng)
    if config.normalize:
        dataset = dataset.normalize()
    return dataset


def _tanh_anchors(config: ExperimentConfig):
    """Label anchors drawn from the dedicated reference stream."""
    rng = RandomSource(config.seed, derive_stream_id(config.seed, "tanh_ref")).generator()
    xbar = rng.uniform(-1.0, 1.0, size=config.n)
    ybar = rng.uniform(-1.0, 1.0, size=config.n)
    return rng, xbar, ybar


def _tanh_reference(config: ExperimentConfig):
    """Frozen draw pool, label anchors, and a deterministic reference point.

    The reference problem is the empirical average over ref_pool_size frozen
    draws; its approximate saddle is the weighted average of a long SAPS run
    with inverse-sqrt steps on that deterministic oracle, computed once and
    shared by every trial.
    """
    rng, xbar, ybar = _tanh_anchors(config)
    oracle = TanhOracle(xbar, ybar)
    pool = oracle.draws(rng, config.ref_pool_size)
    theta = _regularizer(config.regularizer, config.mu)
    evaluator = FiniteSumMinimaxEvaluator(oracle, pool, theta, theta)
    z = PrimalDualPoint(rng.uniform(-1.0, 1.0, size=config.n),
                        rng.uniform(-1.0, 1.0, size=config.n))
    run_cfg = RunConfig(horizon=config.ref_iters, seed=config.seed,
                        schedule=StepSchedule("inv_sqrt_k", theta=1.0),
                        trace_thinning=config.ref_iters, initial=z)
    z_ref = run_saps(SapsProblem(evaluator, theta, theta), run_cfg).final_average
    return {"xbar": xbar, "ybar": ybar, "z_ref": z_ref}


def _experiment_shared(config: ExperimentConfig):
    """Heavy, trial-independent setup computed once and shipped to workers."""
    return EXPERIMENTS[config.experiment].shared(config)


def run_trial_batch(config: ExperimentConfig, pairs, shared: dict) -> list:
    """Execute the given (N, trial) pairs; one outcome per pair, in order.

    An outcome is the trial's RunRecord, or the DivergenceError or
    ConvergenceError that ended it, deterministic given (config, N, trial)
    whatever else is in the batch; the experiment scores it after the run.
    Each pair's RunConfig fixes its horizon, recorded rows and streams.
    """
    schedule = _schedule_for(config) if config.algorithm == "saps" else None  # LSAAL steps by sigma
    starts = [(RunConfig(horizon=N, seed=config.seed, schedule=schedule,
                         trace_thinning=config.trace_thinning or max(1, N // 200),  # 0: about 200 rows
                         averaging=config.averaging, stream_id=derive_stream_id(config.seed, N, trial)),
               RandomSource(config.seed, derive_stream_id(config.seed, N, trial, "init")).generator())
              for N, trial in pairs]
    outcomes = EXPERIMENTS[config.experiment].run_batch(config, starts, shared)
    for outcome in outcomes:
        if isinstance(outcome, RunRecord):
            # Scored: the CSVs read only its metrics, and a pool worker's
            # records need not carry their points back to the parent process.
            outcome.iterates = outcome.averages = None
    return outcomes


def _saps_batch(config, starts, problem: SapsProblem, score) -> list:
    """Run the starts as one run_saps_batch per horizon; `score` maps a
    record's iterates and averages to its metric columns."""
    configs = [replace(run_cfg, initial=PrimalDualPoint(init_rng.uniform(-1.0, 1.0, size=config.n),
                                                        init_rng.uniform(-1.0, 1.0, size=config.n)))
               for run_cfg, init_rng in starts]
    outcomes = [None] * len(configs)
    for N in dict.fromkeys(c.horizon for c in configs):
        group = [i for i, c in enumerate(configs) if c.horizon == N]
        for i, outcome in zip(group, run_saps_batch(problem, [configs[i] for i in group])):
            if isinstance(outcome, RunRecord):
                outcome.metrics = score(outcome.iterates, outcome.averages)
            outcomes[i] = outcome
    return outcomes


def _bilinear_batch(config, starts, shared: dict) -> list:
    """Scored by the minimax gap, one row pass per trial, and the distances
    to the known saddle 0."""
    theta = _regularizer(config.regularizer, config.mu)
    oracle = BilinearOracle(config.n)
    z_star = PrimalDualPoint(np.zeros(config.n), np.zeros(config.n))
    evaluator = BilinearEvaluator(oracle, theta, theta)

    def bilinear_metrics(Z, A):
        gaps = _minimax_gap_rows(evaluator, A, z_star).tolist()
        return {"minimax_gap": [max(gap, 0.0) for gap in gaps], "minimax_gap_raw": gaps,
                "dist_to_saddle": _row_distances(A, z_star), "dist_last": _row_distances(Z, z_star)}

    return _saps_batch(config, starts, SapsProblem(oracle, theta, theta), bilinear_metrics)


def _tanh_batch(config, starts, shared: dict) -> list:
    """Scored by the distances to the shared reference point."""
    theta = _regularizer(config.regularizer, config.mu)
    z_ref = shared["z_ref"]

    def tanh_metrics(Z, A):
        return {"dist_avg_to_ref": _row_distances(A, z_ref), "dist_last_to_ref": _row_distances(Z, z_ref)}

    problem = SapsProblem(TanhOracle(shared["xbar"], shared["ybar"]), theta, theta)
    return _saps_batch(config, starts, problem, tanh_metrics)


def _m_star_diagnose(config: ExperimentConfig, oracle) -> None:
    """Print a sampled second-moment estimate of a SAPS experiment's oracle."""
    theta = _regularizer(config.regularizer, config.mu)
    rng = RandomSource(config.seed, derive_stream_id(config.seed, "diagnose")).generator()
    m_star = estimate_m_star(oracle, theta, theta, rng)
    # As for the conic constants, an estimate that is not finite and positive is no estimate.
    if not 0.0 < m_star < math.inf:
        raise ConfigError(f"cannot estimate the instance constants of this config: M_star={m_star!r}")
    print(f"M_star={m_star!r} (estimated)")


def _np_shared(config: ExperimentConfig):
    dataset = _build_dataset(config)
    r = None if config.r is None else np.full(dataset.num_classes - 1, config.r)
    oracle = NeymanPearsonOracle(dataset, config.lam, r)
    problem = LsaalProblem(oracle, sigma=config.sigma, inner_tol=config.inner_tol,
                           inner_max_iters=config.inner_max_iters)
    return {"dataset": dataset, "problem": problem}


def _np_batch(config, starts, shared: dict) -> list:
    """The starts as one run_lsaal_batch (full_batch for laam), each trial
    then scored on its recorded rows."""
    problem = shared["problem"]
    oracle = problem.oracle
    z0s = [PrimalDualPoint(oracle.feasible_set.prox(1.0, init_rng.uniform(-1.0, 1.0, size=oracle.dim)),
                           np.zeros(oracle.cone.dim)) for _, init_rng in starts]
    configs = [replace(run_cfg, initial=z0) for (run_cfg, _), z0 in zip(starts, z0s)]
    outcomes = run_lsaal_batch(problem, configs, full_batch=config.algorithm == "laam")
    for i, (outcome, z0) in enumerate(zip(outcomes, z0s)):
        # A failed trial is still scored on the rows it recorded: a divergence
        # at one of them came before the solver's error.
        failed = isinstance(outcome, (DivergenceError, ConvergenceError))
        record = outcome.record if failed else outcome
        try:
            metrics, base_norm = _np_metrics(problem, z0, record.iterates, record.averages, record.ks)
        except DivergenceError as exc:
            outcomes[i] = exc
            continue
        if failed:
            continue
        record.metrics = metrics
        # Relative KKT errors over the recorded trace, scored against the start.
        if base_norm > 0.0:
            errors = kkt_errors([base_norm] + metrics["grad_norm_raw"], metrics["grad_norm_avg"])
            record.final_metrics.update(rerror=errors.rerror, raerror=errors.raerror)
    return outcomes


def _np_metrics(problem: LsaalProblem, z0: PrimalDualPoint, Z, A, ks):
    """The metric columns of a Neyman-Pearson trial's recorded iterates Z and
    averages A, recorded at iterations ks, and the Lagrangian-gradient norm
    at its start z0.

    One full_batch_rows call evaluates the start, then each row's average
    and iterate, and each metric is one pass over the stacked rows. Full
    batches are checked in that order, outside the solver's guard: the
    first non-finite one is DivergenceError at its row's iteration k (0 for
    the start).
    """
    oracle = problem.oracle
    cone, dim, rows = oracle.cone, oracle.dim, len(ks)
    points = np.empty((1 + 2 * rows, dim + cone.dim))
    points[0], points[1::2], points[2::2] = z0.stacked(), A, Z
    fb = oracle.full_batch_rows(points[:, :dim])
    errors = _check_sample_rows(fb, oracle, [0, *np.repeat(ks, 2).tolist()])
    if errors:
        raise next(iter(errors.values()))

    grads = _lagrangian_grad_rows(fb, points[:, dim:])
    norms = np.sqrt(_row_dots(grads, grads))
    fb_avg = _take(fb, np.s_[1::2])
    Y = Z[:, dim:]
    columns = {
        "constraint_violation": _constraint_violation_rows(cone, fb_avg.g_value),
        "proj_kkt": _proj_kkt_rows(fb_avg, cone, oracle.feasible_set, A[:, :dim], A[:, dim:]),
        "grad_norm_raw": norms[2::2],
        "grad_norm_avg": norms[1::2],
        "y_norm": np.sqrt(_row_dots(Y, Y)),
    }
    return {name: column.tolist() for name, column in columns.items()}, float(norms[0])


def _np_diagnose(config: ExperimentConfig) -> None:
    problem = _experiment_shared(config)["problem"]
    N = max(config.N_list)
    rng = RandomSource(config.seed, derive_stream_id(config.seed, "diagnose")).generator()
    sigma = problem.resolve_sigma(N)
    s = math.isqrt(N - 1) + 1  # ceil(sqrt(N))
    # A degenerate instance (a ball too large or too small for double
    # precision, or data normalized to zero) has no finite positive constants.
    try:
        constants = estimate_constants(problem.oracle, rng)
        diag = multiplier_bound_diagnostics(constants, sigma, s) if constants.slater_margin else None
    except (ValueError, OverflowError) as exc:
        reason = "a constant overflows" if isinstance(exc, OverflowError) else exc
        raise ConfigError(f"cannot estimate the instance constants of this config: {reason}") from None
    print(f"# constants estimated by sampled maximization (N={N}, sigma={sigma!r}, s={s})")
    print(f"R={constants.R!r} (exact from feasible-set geometry)")
    for name in ("nu_g", "kappa_f", "kappa_g", "nu_f", "slater_margin"):
        print(f"{name}={getattr(constants, name)!r} (estimated)")
    print(f"beta0={constants.beta0!r} (estimated)")
    if diag is None:
        print("# multiplier diagnostics skipped: no Slater margin")
        return
    for name in ("kappa1", "kappa2", "kappa3", "delta1", "theta_sigma_s"):
        print(f"{name}={getattr(diag, name)!r} (estimated)")


@dataclass(frozen=True)
class _Experiment:
    """One experiment. Its functions call oracles and runners as module globals, so patches reach them."""

    algorithms: tuple
    keys: str          # the config keys it reads beyond _COMMON_KEYS
    shared: object     # config -> trial-independent setup, a dict
    run_batch: object  # (config, starts, shared) -> one outcome per start
    diagnose: object   # config -> None; prints estimated instance constants


_SAPS_KEYS = "mu regularizer schedule theta dist_estimate M_estimate"
EXPERIMENTS = {
    "bilinear": _Experiment(("saps",), _SAPS_KEYS, lambda config: {}, _bilinear_batch,
                            lambda config: _m_star_diagnose(config, BilinearOracle(config.n))),
    "tanh": _Experiment(("saps",), _SAPS_KEYS + " ref_pool_size ref_iters", _tanh_reference, _tanh_batch,
                        lambda config: _m_star_diagnose(config, TanhOracle(*_tanh_anchors(config)[1:]))),
    "neyman_pearson": _Experiment(
        ("lsaal", "laam"), "m_classes lam r dataset_path normalize points_per_class separation "
        "subsample_per_class sigma inner_tol inner_max_iters", _np_shared, _np_batch, _np_diagnose),
}


# ---------------------------------------------------------------------------
# CSV emission and aggregation
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _trace_path(out_dir: Path, config: ExperimentConfig, N: int, trial: int) -> Path:
    return out_dir / f"trace_{config.experiment}_{config.algorithm}_N{N}_trial{trial}.csv"


def _emit_trace(out_dir: Path, config: ExperimentConfig, N: int, trial: int, record: RunRecord) -> Path:
    names = sorted(record.metrics)
    header = ["k", "gamma"] + names
    columns = [record.ks, record.gammas] + [record.metrics[name] for name in names]
    if config.include_timing:
        header.append("elapsed_ms")
        columns.append([elapsed * 1e3 for elapsed in record.elapsed])
    path = _trace_path(out_dir, config, N, trial)
    _write_csv(path, header, zip(*columns))
    return path


def _available_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass
class ExperimentResult:
    output_dir: Path
    trace_paths: list
    aggregate_rows: list
    summary_rows: list
    failures: dict      # N -> (trial, DivergenceError | ConvergenceError) pairs, in trial order
    exit_code: int

    @property
    def diverged(self) -> dict:
        """N -> number of failed trials, of either kind."""
        return {N: len(failed) for N, failed in self.failures.items()}


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run every (N, trial) pair, write trace/aggregate/summary CSVs.

    Trials execute in parallel when config.parallel != 1; aggregation folds
    the (N, trial)-sorted results, so outputs never depend on scheduling or
    on how trials are batched.
    """
    out_dir = Path(config.output_dir or os.environ.get(ENV_OUTPUT_DIR) or "saddle_sa_out")
    shared = _experiment_shared(config)
    pairs = [(N, trial) for N in config.N_list for trial in range(config.trials)]
    workers = min(config.parallel or _available_cpus(), len(pairs))
    # Pair i goes to task i mod workers, so every task spans every horizon
    # and a serial run is one task.
    tasks = [pairs[i::workers] for i in range(workers)]

    if workers == 1:
        batches = [run_trial_batch(config, task, shared) for task in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor  # a serial run never loads multiprocessing

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(run_trial_batch, config, task, shared) for task in tasks]
            batches = [fut.result() for fut in futures]
    outcomes = {pair: outcome for task, batch in zip(tasks, batches) for pair, outcome in zip(task, batch)}

    # A config or data error raised by the setup or the trials leaves no output directory behind.
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_paths = []
    failures = {N: [] for N in config.N_list}
    finals = {N: [] for N in config.N_list}
    for (N, trial), outcome in sorted(outcomes.items()):
        if isinstance(outcome, (DivergenceError, ConvergenceError)):
            failures[N].append((trial, outcome))
            continue
        trace_paths.append(_emit_trace(out_dir, config, N, trial, outcome))
        last_row = {name: column[-1] for name, column in outcome.metrics.items()}
        finals[N].append({**last_row, **outcome.final_metrics})

    aggregate_rows = _aggregate(config, finals, failures)
    _write_csv(out_dir / "aggregate.csv",
               ["N", "metric", "mean", "median", "stderr", "min", "max", "tail_fraction"],
               aggregate_rows)

    summary_rows = _summarize(config, aggregate_rows)
    _write_csv(out_dir / "summary.csv",
               ["metric", "stat", "slope", "intercept", "r2"],
               summary_rows)

    exit_code = 2 if any(not finals[N] for N in config.N_list) else 0
    return ExperimentResult(out_dir, trace_paths, aggregate_rows, summary_rows, failures, exit_code)


def _aggregate(config: ExperimentConfig, finals: dict, failures: dict) -> list:
    rows = []
    for N in sorted(finals):
        values_by_metric = {}
        for final in finals[N]:
            for name, value in final.items():
                values_by_metric.setdefault(name, []).append(float(value))
        for name in sorted(values_by_metric):
            vals = np.asarray(values_by_metric[name], dtype=float)
            # The statistics of vals / scale, scaled back: a power of two
            # divides exactly, and keeps the sums and squares of huge values
            # finite. Ordinary values have scale 1.
            scale = 2.0 ** max(0, math.frexp(float(np.abs(vals).max()))[1] - 256)
            scaled = vals / scale
            median = float(np.median(scaled))
            stderr = float(np.std(scaled, ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0
            rows.append([
                N, name, float(scaled.mean()) * scale, median * scale, stderr * scale,
                float(vals.min()), float(vals.max()),
                tail_tally(scaled, config.tail_multiplier * median),
            ])
        count = float(len(failures[N]))
        rows.append([N, "diverged_trials", count, count, 0.0, count, count, 0.0])
    return rows


def _summarize(config: ExperimentConfig, aggregate_rows: list) -> list:
    by_metric = {}
    for N, name, mean, median, *_ in aggregate_rows:
        if name == "diverged_trials":
            continue
        by_metric.setdefault(name, []).append((N, mean, median))
    rows = []
    for name in sorted(by_metric):
        points = by_metric[name]
        if len(points) < 3:
            continue
        for stat, values in (("mean", [(N, m) for N, m, _ in points]),
                             ("median", [(N, md) for N, _, md in points])):
            if not all(0.0 < v < math.inf for _, v in values):
                continue
            fit = rate_slope_fit(values)
            rows.append([name, stat, fit.slope, fit.intercept, fit.r2])
    return rows


# ---------------------------------------------------------------------------
# Command-line interface
# ---------------------------------------------------------------------------


def _check_data(path: str) -> int:
    with open(path, "r", encoding="utf-8") as fh:
        dataset = parse_libsvm(fh)
    print(f"classes={dataset.num_classes} feature_dim={dataset.feature_dim} points={dataset.num_points()}")
    for label in dataset.labels:
        print(f"class {label}: {dataset.num_points(label)} points")
    return 0


def _build_parser():
    import argparse  # only the command line needs it

    parser = argparse.ArgumentParser(prog="saddle-sa", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a config file")
    run_p.add_argument("config", help="path to a key=value config file")
    diag_p = sub.add_parser("diagnose", help="print estimated instance constants")
    diag_p.add_argument("config", help="path to a key=value config file")
    for p in (run_p, diag_p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--parallel", type=int, default=None)
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (repeatable)")

    check_p = sub.add_parser("check-data", help="parse-validate a LIBSVM file")
    check_p.add_argument("path")
    return parser


def _overrides_from_args(args) -> list:
    overrides = list(args.set)
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    if args.trials is not None:
        overrides.append(f"trials={args.trials}")
    if args.out is not None:
        overrides.append(f"output_dir={args.out}")
    if args.parallel is not None:
        overrides.append(f"parallel={args.parallel}")
    return overrides


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "check-data":
            return _check_data(args.path)
        config = load_config(Path(args.config), _overrides_from_args(args))
        if args.command == "diagnose":
            EXPERIMENTS[config.experiment].diagnose(config)
            return 0
        result = run_experiment(config)
        for N, failed in sorted(result.failures.items()):
            for kind, error_type in (("diverged", DivergenceError), ("not-converged", ConvergenceError)):
                of_kind = [(trial, error) for trial, error in failed if isinstance(error, error_type)]
                if of_kind:
                    trial, error = of_kind[0]
                    print(f"warning: {len(of_kind)} {kind} trial(s) at N={N} "
                          f"(trial {trial}: {error})", file=sys.stderr)
        print(f"wrote {len(result.trace_paths)} trace files, aggregate.csv and summary.csv "
              f"to {result.output_dir}")
        return result.exit_code
    except (ConfigError, ParseError, DataError, OSError, UnicodeDecodeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DivergenceError, ConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
