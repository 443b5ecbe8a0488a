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

import argparse
import csv
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .core import (
    DivergenceError,
    ConvergenceError,
    PrimalDualPoint,
    RandomSource,
    RunConfig,
    StepSchedule,
    derive_stream_id,
)
from .data import DataError, ParseError, parse_libsvm, synth_gaussian_classes
from .lsaal import (
    LsaalProblem,
    check_sample,
    estimate_constants,
    multiplier_bound_diagnostics,
    run_laam,
    run_lsaal,
)
from .metrics import (
    BilinearEvaluator,
    FiniteSumMinimaxEvaluator,
    constraint_violation,
    estimate_m_star,
    kkt_errors,
    lagrangian_grad,
    minimax_gap,
    proj_kkt,
    rate_slope_fit,
    tail_tally,
)
from .oracles import BilinearOracle, NeymanPearsonOracle, TanhOracle
from .prox import PositivePartSum, ScaledL1, ScaledL2, ZeroFunction
from .saps import SapsProblem, run_saps, run_saps_batch

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "run_experiment", "main"]

ENV_OUTPUT_DIR = "SADDLE_SA_OUT"
EXPERIMENTS = ("bilinear", "tanh", "neyman_pearson")
ALGORITHMS = ("saps", "lsaal", "laam")
COMPATIBLE = {"bilinear": ("saps",), "tanh": ("saps",), "neyman_pearson": ("lsaal", "laam")}
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

    `source` is a path, literal text containing newlines, or None (overrides
    only). Later overrides win over file values.
    """
    pairs = {}
    text = None
    if source is not None:
        text = source.read_text(encoding="utf-8") if isinstance(source, Path) else str(source)
    if text is not None:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ConfigError(f"config line {lineno}: expected key=value, got {raw!r}")
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
    if config.experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {config.experiment!r}")
    if config.algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {config.algorithm!r}")
    if config.algorithm not in COMPATIBLE[config.experiment]:
        raise ConfigError(
            f"algorithm {config.algorithm!r} is incompatible with experiment "
            f"{config.experiment!r} (expected one of {COMPATIBLE[config.experiment]})")
    if config.regularizer not in REGULARIZERS:
        raise ConfigError(f"unknown regularizer {config.regularizer!r}")
    if config.trials < 1:
        raise ConfigError("trials must be >= 1")
    if config.n < 1 or config.m_classes < 2:
        raise ConfigError("need n >= 1 and m_classes >= 2")
    if config.subsample_per_class < 1 or config.subsample_per_class > SUBSAMPLE_CAP:
        raise ConfigError(f"subsample_per_class must be in [1, {SUBSAMPLE_CAP}]")
    for name, value in (("lambda", config.lam), ("sigma", config.sigma), ("r", config.r)):
        if value is not None and not 0.0 < value < math.inf:
            raise ConfigError(f"{name} must be positive and finite")
    if not config.inner_tol > 0.0 or config.inner_max_iters < 1:
        raise ConfigError("need inner_tol > 0 and inner_max_iters >= 1")
    if config.points_per_class < 1:
        raise ConfigError("points_per_class must be >= 1")
    if not math.isfinite(config.separation):
        raise ConfigError("separation must be finite")
    if not config.tail_multiplier > 0.0:
        raise ConfigError("tail_multiplier must be positive")
    if config.parallel < 0 or config.trace_thinning < 0:
        raise ConfigError("need parallel >= 0 and trace_thinning >= 0")
    if config.ref_pool_size < 1 or config.ref_iters < 1:
        raise ConfigError("need ref_pool_size >= 1 and ref_iters >= 1")
    if len(set(config.N_list)) != len(config.N_list):
        raise ConfigError(f"N_list repeats a horizon: {','.join(map(str, config.N_list))}")
    # The random-stream, schedule and regularizer classes own their parameter rules.
    try:
        RandomSource(config.seed)
        for N in config.N_list:
            _schedule_for(config, N)
        _regularizer(config.regularizer, config.mu)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _regularizer(kind: str, mu: float):
    if mu == 0.0:
        return ZeroFunction()
    if kind == "l1":
        return ScaledL1(mu)
    if kind == "l2":
        return ScaledL2(mu)
    return PositivePartSum(mu)


def _schedule_for(config: ExperimentConfig, N: int) -> StepSchedule:
    return StepSchedule(
        kind=config.schedule,
        theta=config.theta,
        dist_estimate=config.dist_estimate,
        M_estimate=config.M_estimate,
        horizon=N,
    )


def _auto_thinning(config: ExperimentConfig, N: int) -> int:
    return config.trace_thinning if config.trace_thinning > 0 else max(1, N // 200)


# ---------------------------------------------------------------------------
# Experiment registry: shared (per-experiment) setup plus per-trial runners.
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


def _np_oracle(config: ExperimentConfig, dataset):
    m = dataset.num_classes
    r_value = config.r if config.r is not None else float(m - 1)
    return NeymanPearsonOracle(dataset, config.lam, np.full(m - 1, r_value))


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
    pool = [oracle.draw(rng) for _ in range(config.ref_pool_size)]
    theta = _regularizer(config.regularizer, config.mu)
    evaluator = FiniteSumMinimaxEvaluator(oracle, pool, theta, theta, 1.0)
    z = PrimalDualPoint(rng.uniform(-1.0, 1.0, size=config.n),
                        rng.uniform(-1.0, 1.0, size=config.n))
    run_cfg = RunConfig(horizon=config.ref_iters, seed=config.seed,
                        schedule=StepSchedule("inv_sqrt_k", theta=1.0),
                        trace_thinning=config.ref_iters, initial=z)
    z_ref = run_saps(SapsProblem(evaluator, theta, theta), run_cfg).final_average
    return {"xbar": xbar, "ybar": ybar, "z_ref": z_ref}


def _experiment_shared(config: ExperimentConfig):
    """Heavy, trial-independent setup computed once and shipped to workers."""
    if config.experiment == "neyman_pearson":
        return {"dataset": _build_dataset(config)}
    if config.experiment == "tanh":
        return _tanh_reference(config)
    return {}


@dataclass
class TrialResult:
    N: int
    trial: int
    rows: list          # (k, gamma, metrics dict, elapsed seconds)
    final_values: dict  # last-row metrics merged with run-level metrics
    diverged: bool = False
    error: str = ""


def _trial_setup(config: ExperimentConfig, N: int, trial: int):
    """The trial's run config, on its own stream, and its initial-point stream."""
    run_cfg = RunConfig(
        horizon=N,
        seed=config.seed,
        schedule=_schedule_for(config, N),
        trace_thinning=_auto_thinning(config, N),
        averaging=config.averaging,
        stream_id=derive_stream_id(config.seed, N, trial),
    )
    init_rng = RandomSource(config.seed, derive_stream_id(config.seed, N, trial, "init")).generator()
    return run_cfg, init_rng


def _trial_result(N: int, trial: int, outcome) -> TrialResult:
    """A finished run's RunRecord, or the error that ended it, as a TrialResult."""
    if isinstance(outcome, (DivergenceError, ConvergenceError)):
        return TrialResult(N, trial, [], {}, diverged=True, error=str(outcome))
    rows = [(k, g, m, e) for k, g, m, e in zip(outcome.ks, outcome.gammas, outcome.metrics, outcome.elapsed)]
    final_values = dict(outcome.metrics[-1]) if outcome.metrics else {}
    final_values.update(outcome.final_metrics)
    return TrialResult(N, trial, rows, final_values)


def run_trial_batch(config: ExperimentConfig, N: int, trials, shared: dict) -> list:
    """Execute the given trials of horizon N, one TrialResult each.

    Each result is deterministic given (config, N, trial), whatever else is
    in the batch: bilinear and tanh trials advance together through
    run_saps_batch, Neyman-Pearson trials run one after another.
    """
    if config.experiment == "neyman_pearson":
        return [run_single_trial(config, N, trial, shared) for trial in trials]
    problem, hooks = _saps_experiment(config, shared)
    configs = []
    for trial in trials:
        run_cfg, init_rng = _trial_setup(config, N, trial)
        initial = PrimalDualPoint(init_rng.uniform(-1.0, 1.0, size=config.n),
                                  init_rng.uniform(-1.0, 1.0, size=config.n))
        configs.append(replace(run_cfg, initial=initial))
    outcomes = run_saps_batch(problem, configs, [hooks])
    return [_trial_result(N, trial, outcome) for trial, outcome in zip(trials, outcomes)]


def run_single_trial(config: ExperimentConfig, N: int, trial: int, shared: dict) -> TrialResult:
    """Execute one Neyman-Pearson (N, trial) run; deterministic given (config, N, trial)."""
    run_cfg, init_rng = _trial_setup(config, N, trial)
    try:
        outcome = _run_np_trial(config, run_cfg, init_rng, shared)
    except (DivergenceError, ConvergenceError) as exc:
        outcome = exc
    return _trial_result(N, trial, outcome)


def _saps_experiment(config: ExperimentConfig, shared: dict):
    """The bilinear or tanh problem and the metric hook its trials share."""
    theta = _regularizer(config.regularizer, config.mu)
    if config.experiment == "tanh":
        z_ref = shared["z_ref"]

        def tanh_hooks(k, z, avg):
            return {
                "dist_avg_to_ref": avg.distance_to(z_ref),
                "dist_last_to_ref": z.distance_to(z_ref),
            }

        return SapsProblem(TanhOracle(shared["xbar"], shared["ybar"]), theta, theta), tanh_hooks

    oracle = BilinearOracle(config.n)
    z_star = PrimalDualPoint(np.zeros(config.n), np.zeros(config.n))
    evaluator = BilinearEvaluator(oracle, theta, theta, 1.0)

    def bilinear_hooks(k, z, avg):
        gap = minimax_gap(evaluator, avg, z_star)
        return {
            "minimax_gap": max(gap, 0.0),
            "minimax_gap_raw": gap,
            "dist_to_saddle": avg.distance_to(z_star),
            "dist_last": z.distance_to(z_star),
        }

    return SapsProblem(oracle, theta, theta, known_saddle=z_star), bilinear_hooks


def _run_np_trial(config, run_cfg, init_rng, shared):
    oracle = _np_oracle(config, shared["dataset"])
    problem = LsaalProblem(oracle, oracle.cone, oracle.feasible_set,
                           sigma=config.sigma, inner_tol=config.inner_tol,
                           inner_max_iters=config.inner_max_iters)
    x0 = oracle.feasible_set.prox(1.0, init_rng.uniform(-1.0, 1.0, size=oracle.dim))
    z0 = PrimalDualPoint(x0, np.zeros(oracle.cone.dim))

    def full_batch(x, k):
        # Hook values run outside the solver's guard: a non-finite one is
        # divergence at the recorded iteration k (0 for the start point).
        return check_sample(oracle.full_batch(x), oracle.dim, oracle.cone, k)

    base_norm = float(np.linalg.norm(lagrangian_grad(full_batch(z0.x, 0), z0.y)))

    def hooks(k, z, avg):
        fb_avg = full_batch(avg.x, k)
        return {
            "constraint_violation": constraint_violation(problem.cone, fb_avg.g_value),
            "proj_kkt": proj_kkt(fb_avg, problem.cone, problem.feasible, avg),
            "grad_norm_raw": float(np.linalg.norm(lagrangian_grad(full_batch(z.x, k), z.y))),
            "grad_norm_avg": float(np.linalg.norm(lagrangian_grad(fb_avg, avg.y))),
            "y_norm": float(np.linalg.norm(z.y)),
        }

    runner = run_laam if config.algorithm == "laam" else run_lsaal
    record = runner(problem, replace(run_cfg, initial=z0), [hooks])

    # Relative KKT errors over the recorded trace, scored against the start.
    if base_norm > 0.0 and record.metrics:
        errors = kkt_errors([base_norm] + [row["grad_norm_raw"] for row in record.metrics],
                            [row["grad_norm_avg"] for row in record.metrics])
        record.final_metrics.update(rerror=errors.rerror, raerror=errors.raerror)
    return record


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


def _emit_trace(out_dir: Path, config: ExperimentConfig, result: TrialResult) -> Path:
    names = sorted({name for _, _, metrics, _ in result.rows for name in metrics})
    header = ["k", "gamma"] + names
    if config.include_timing:
        header.append("elapsed_ms")
    rows = []
    for k, gamma, metrics, elapsed in result.rows:
        row = [k, float(gamma)] + [float(metrics.get(n, math.nan)) for n in names]
        if config.include_timing:
            row.append(elapsed * 1e3)
        rows.append(row)
    path = _trace_path(out_dir, config, result.N, result.trial)
    _write_csv(path, header, rows)
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
    diverged: dict      # N -> count
    exit_code: int


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run every (N, trial) pair, write trace/aggregate/summary CSVs.

    Trials execute in parallel when config.parallel != 1; aggregation folds
    the (N, trial)-sorted results, so outputs never depend on scheduling or
    on how trials are batched.
    """
    out_dir = Path(config.output_dir or os.environ.get(ENV_OUTPUT_DIR) or "saddle_sa_out")
    out_dir.mkdir(parents=True, exist_ok=True)
    shared = _experiment_shared(config)
    workers = min(config.parallel or _available_cpus(), len(config.N_list) * config.trials)
    # One task per (N, contiguous chunk of trials), at most `workers` chunks
    # per N: a serial run takes each horizon whole.
    chunks = min(workers, config.trials)
    bounds = [config.trials * i // chunks for i in range(chunks + 1)]
    tasks = [(N, range(lo, hi)) for N in config.N_list for lo, hi in zip(bounds, bounds[1:])]

    if workers == 1:
        batches = [run_trial_batch(config, N, trials, shared) for N, trials in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(run_trial_batch, config, N, trials, shared) for N, trials in tasks]
            batches = [fut.result() for fut in futures]
    results = {(res.N, res.trial): res for batch in batches for res in batch}

    trace_paths = []
    diverged = {N: 0 for N in config.N_list}
    finals = {N: [] for N in config.N_list}
    for N, trial in sorted(results):
        res = results[(N, trial)]
        if res.diverged:
            diverged[N] += 1
            continue
        trace_paths.append(_emit_trace(out_dir, config, res))
        finals[N].append(res.final_values)

    aggregate_rows = _aggregate(config, finals, diverged)
    _write_csv(out_dir / "aggregate.csv",
               ["N", "metric", "mean", "median", "stderr", "min", "max", "tail_fraction"],
               aggregate_rows)

    summary_rows = _summarize(config, aggregate_rows)
    _write_csv(out_dir / "summary.csv",
               ["metric", "stat", "slope", "intercept", "r2"],
               summary_rows)

    exit_code = 2 if any(not finals[N] for N in config.N_list) else 0
    return ExperimentResult(out_dir, trace_paths, aggregate_rows, summary_rows, diverged, exit_code)


def _aggregate(config: ExperimentConfig, finals: dict, diverged: dict) -> list:
    rows = []
    for N in sorted(finals):
        values_by_metric = {}
        for final in finals[N]:
            for name, value in final.items():
                values_by_metric.setdefault(name, []).append(float(value))
        for name in sorted(values_by_metric):
            vals = np.asarray(values_by_metric[name], dtype=float)
            median = float(np.median(vals))
            stderr = float(np.std(vals, ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0
            rows.append([
                N, name, float(vals.mean()), median, stderr,
                float(vals.min()), float(vals.max()),
                tail_tally(vals, config.tail_multiplier * median),
            ])
        rows.append([N, "diverged_trials", float(diverged[N]), float(diverged[N]), 0.0,
                     float(diverged[N]), float(diverged[N]), 0.0])
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
            if any(v <= 0.0 for _, v in values):
                continue
            fit = rate_slope_fit(values)
            rows.append([name, stat, fit.slope, fit.intercept, fit.r2])
    return rows


# ---------------------------------------------------------------------------
# Command-line interface
# ---------------------------------------------------------------------------


def _diagnose(config: ExperimentConfig) -> int:
    N = max(config.N_list)
    if config.experiment == "neyman_pearson":
        shared = _experiment_shared(config)
        oracle = _np_oracle(config, shared["dataset"])
        rng = RandomSource(config.seed, derive_stream_id(config.seed, "diagnose")).generator()
        constants = estimate_constants(oracle, rng)
        sigma = config.sigma if config.sigma is not None else 1.0 / math.sqrt(N)
        s = math.isqrt(N - 1) + 1  # ceil(sqrt(N))
        print(f"# constants estimated by sampled maximization (N={N}, sigma={sigma!r}, s={s})")
        print(f"R={constants.R!r} (exact from feasible-set geometry)")
        for name in ("nu_g", "kappa_f", "kappa_g", "nu_f", "slater_margin"):
            print(f"{name}={getattr(constants, name)!r} (estimated)")
        print(f"beta0={constants.beta0!r} (estimated)")
        if constants.slater_margin is None:
            print("# multiplier diagnostics skipped: no Slater margin")
            return 0
        diag = multiplier_bound_diagnostics(constants, sigma, s)
        for name in ("kappa1", "kappa2", "kappa3", "delta1", "theta_sigma_s"):
            print(f"{name}={getattr(diag, name)!r} (estimated)")
        return 0
    # saps experiments: report a sampled second-moment estimate
    theta = _regularizer(config.regularizer, config.mu)
    if config.experiment == "bilinear":
        oracle = BilinearOracle(config.n)
    else:
        _, xbar, ybar = _tanh_anchors(config)
        oracle = TanhOracle(xbar, ybar)
    rng = RandomSource(config.seed, derive_stream_id(config.seed, "diagnose")).generator()
    m_star = estimate_m_star(oracle, theta, theta, rng)
    print(f"M_star={m_star!r} (estimated)")
    return 0


def _check_data(path: str) -> int:
    with open(path, "r", encoding="utf-8") as fh:
        dataset = parse_libsvm(fh)
    print(f"classes={dataset.num_classes} feature_dim={dataset.feature_dim} points={dataset.num_points()}")
    for label in dataset.labels:
        print(f"class {label}: {dataset.num_points(label)} points")
    return 0


def _build_parser() -> argparse.ArgumentParser:
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
            return _diagnose(config)
        result = run_experiment(config)
        for N, count in sorted(result.diverged.items()):
            if count:
                print(f"warning: {count} diverged trial(s) at N={N}", file=sys.stderr)
        print(f"wrote {len(result.trace_paths)} trace files, aggregate.csv and summary.csv "
              f"to {result.output_dir}")
        return result.exit_code
    except (ConfigError, ParseError, DataError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DivergenceError, ConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
