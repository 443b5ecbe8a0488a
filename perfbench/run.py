"""saddle-sa benchmark: closed-loop `run_experiment` workloads.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}
  python3 perfbench/run.py --workload all --seconds S     # every workload in turn
  python3 perfbench/run.py --workload NAME --record-reference [--size tiny]

One client runs one experiment at a time, each in a fresh process
(perfbench/child.py) with `parallel=1`, until the next experiment would end
after S seconds (at least MIN_RUNS experiments).  The workload seed becomes
the config's `seed`; the program receives only the generated config text.
Every experiment of a run has the same config, so its timings are repeats.

--trace 0 reports the end-to-end metrics from untraced experiments.
--trace 1 alternates untraced and traced experiments and reports the
per-layer metrics of the traced ones, plus the tracing overhead against the
untraced wall time.  Spans of the last traced experiment are written to
.perfbench/<workload>/spans.csv, and every experiment's record to
.perfbench/<workload>/records.json.

Every experiment's output is checked: exit code 0, no diverged trial, and
the same bytes as the run's first experiment.  The first experiment's
summary.csv slope must lie within the workload's sanity bounds, and at the
default seed every aggregate.csv value must match the reference recorded in
perfbench/reference/ within RTOL.  An experiment that fails a check is a
failed operation.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import itertools
import json
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"
WORK_DIR = ROOT / ".perfbench"
DEFAULT_SEED = 0
MIN_RUNS = 3
LAST_START_S = 120.0  # start no experiment after this; a run must end within 180 s
CHILD_TIMEOUT_S = 170.0
# aggregate.csv tolerance: far below any change of the maths, far above
# rounding differences from reordered reductions.
RTOL = 1e-6
ATOL = 1e-12

COMMON = "parallel = 1\nschedule = const_over_sqrt_n\n"


@dataclass(frozen=True)
class Workload:
    """One experiment config; why each was chosen is in BENCHMARK.json."""

    config: str         # key = value text without trials, seed and output_dir
    trials: int
    tiny: str           # overrides that shrink the workload for the benchmark's tests
    slope: tuple        # (metric, stat, low, high) bounds on the summary.csv slope

    def config_text(self, seed, size, output_dir):
        text = self.config + COMMON + f"trials = {self.trials}\n"
        if size == "tiny":
            text += self.tiny
        # Config seeds must be nonnegative; any integer workload seed maps to one.
        return text + f"seed = {seed % 2**32}\noutput_dir = {output_dir}\n"


WORKLOADS = {
    "bilinear_saps": Workload(
        config=("experiment = bilinear\nalgorithm = saps\nn = 3\nregularizer = l1\nmu = 1.0\n"
                "N_list = 100,1000,10000\n"),
        trials=4,
        tiny="N_list = 100,300,1000\ntrials = 2\n",
        slope=("minimax_gap", "median", -0.8, -0.2),
    ),
    "tanh_saps": Workload(
        config=("experiment = tanh\nalgorithm = saps\nn = 3\nregularizer = max\nmu = 1.0\n"
                "N_list = 100,1000,10000\nref_pool_size = 500\nref_iters = 20000\n"),
        trials=6,
        tiny="N_list = 100,300,1000\ntrials = 2\nref_pool_size = 50\nref_iters = 500\n",
        slope=("dist_avg_to_ref", "median", -1.0, 0.4),
    ),
    "np_lsaal": Workload(
        config=("experiment = neyman_pearson\nalgorithm = lsaal\nn = 10\nm_classes = 3\n"
                "points_per_class = 100\nlambda = 5.0\nN_list = 250,1000,4000\n"),
        trials=2,
        tiny="N_list = 50,100,200\npoints_per_class = 20\ntrials = 1\n",
        slope=("proj_kkt", "median", -1.0, 0.0),
    ),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "iters_per_s": "1/s", "peak_rss_mb": "MiB"}


def output_dir(workload):
    """Where an experiment of `workload` writes, relative to the checkout."""
    return (WORK_DIR / workload / "out").relative_to(ROOT)


def reference_path(workload, size):
    return REFERENCE_DIR / f"{workload}-{size}.aggregate.csv"


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _rows(text):
    return list(csv.reader(io.StringIO(text)))


def check_aggregate(actual, reference, rtol=RTOL, atol=ATOL):
    """Problems found comparing aggregate.csv text with the reference text."""
    got, want = _rows(actual), _rows(reference)
    if len(got) != len(want) or got[:1] != want[:1]:
        return [f"aggregate.csv has {len(got)} rows / header {got[:1]}, reference {len(want)} / {want[:1]}"]
    problems = []
    for row, ref in zip(got[1:], want[1:]):
        if row[:2] != ref[:2]:
            problems.append(f"row {row[:2]} where the reference has {ref[:2]}")
            continue
        for name, a, b in zip(want[0][2:], row[2:], ref[2:]):
            a, b = float(a), float(b)
            if not abs(a - b) <= rtol * max(abs(a), abs(b)) + atol:
                problems.append(f"N={row[0]} {row[1]} {name}: {a!r}, reference {b!r}")
    return problems


def check_slope(summary, bounds):
    metric, stat, low, high = bounds
    for row in csv.DictReader(io.StringIO(summary)):
        if row["metric"] == metric and row["stat"] == stat:
            slope = float(row["slope"])
            if low <= slope <= high:
                return []
            return [f"{metric} {stat} slope {slope:.3f} outside [{low}, {high}]"]
    return [f"summary.csv has no {metric} {stat} slope"]


def check_output(workload, seed, size, out_dir):
    """Content checks of one experiment's output directory."""
    problems = []
    reference = reference_path(workload, size)
    if seed == DEFAULT_SEED and reference.is_file():
        problems += check_aggregate((out_dir / "aggregate.csv").read_text(), reference.read_text())
    if size == "full":
        problems += check_slope((out_dir / "summary.csv").read_text(), WORKLOADS[workload].slope)
    return problems


def output_digest(out_dir):
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Closed loop
# ---------------------------------------------------------------------------


def run_child(mode, config_text, spans_path, timeout):
    """One experiment in a fresh process; returns (record or None, error)."""
    cmd = [sys.executable, str(HERE / "child.py"), mode]
    if spans_path:
        cmd.append(str(spans_path))
    try:
        proc = subprocess.run(cmd, input=config_text, capture_output=True, text=True,
                              cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"experiment timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), ""
    except (ValueError, IndexError):
        return None, f"child printed no record: {proc.stdout[-500:]!r}"


def closed_loop(workload, seed, seconds, trace, size):
    """Run experiments back to back; returns (records, failed count, log lines)."""
    out_rel = output_dir(workload)
    text = WORKLOADS[workload].config_text(seed, size, out_rel.as_posix())
    modes = ("plain", "traced") if trace else ("plain",)
    min_runs = max(MIN_RUNS, len(modes))
    records, failed, log = [], 0, []
    first_digest, first_ok = None, False
    start = time.monotonic()
    for attempt in itertools.count():
        mode = modes[attempt % len(modes)]
        shutil.rmtree(ROOT / out_rel, ignore_errors=True)
        began = time.monotonic()
        timeout = max(1.0, CHILD_TIMEOUT_S - (began - start))
        spans = WORK_DIR / workload / "spans.csv" if mode == "traced" else None
        record, error = run_child(mode, text, spans, timeout)
        took = time.monotonic() - began
        problems = [error] if record is None else []
        if record is not None:
            records.append(record)
            if record["exit_code"] != 0:
                problems.append(f"exit code {record['exit_code']}")
            if record["diverged"]:
                problems.append(f"{record['diverged']} diverged trial(s)")
            digest = output_digest(ROOT / out_rel)
            if first_digest is None:
                first_digest = digest
                content = check_output(workload, seed, size, ROOT / out_rel)
                first_ok = not content
                problems += content
            elif digest != first_digest:
                problems.append("output bytes differ from the first experiment of this run")
            elif not first_ok:
                problems.append("same output as the first experiment, which failed its check")
        if problems:
            failed += 1
            log.append(f"experiment {attempt} ({mode}) failed: " + "; ".join(problems))
        elapsed = time.monotonic() - start
        if elapsed + took > LAST_START_S or (attempt + 1 >= min_runs and elapsed + took > seconds):
            break
    return records, failed, log


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def describe(name, values, unit):
    """Median plus the highest percentile with at least ten samples beyond it."""
    values = sorted(values)
    n = len(values)
    line = f"  {name:<32} median {statistics.median(values):.6g} {unit} (n={n}"
    if n >= 11:
        idx = n - 11  # ten samples above this one
        line += f", p{100 * (idx + 1) // n}={values[idx]:.6g}"
    return line + ")"


def end_to_end(records):
    samples = {
        "wall_s": [r["wall_s"] for r in records],
        "setup_s": [r["setup_s"] for r in records],
        "iters_per_s": [r["iterations"] / r["trial_s"] for r in records],
        "peak_rss_mb": [r["peak_rss_mb"] for r in records],
    }
    lines = [describe(name, values, END_TO_END[name]) for name, values in samples.items()]
    trials = sum(r["trials"] for r in records)
    diverged = sum(r["diverged"] for r in records)
    lines.append(f"  {'failed_trial_frac':<32} {diverged / trials:.6g} ratio ({diverged} of {trials} trials)")
    metrics = {name: {"value": statistics.median(values), "unit": END_TO_END[name]}
               for name, values in samples.items()}
    # The rate is pooled over the whole run's trial time rather than taken as a
    # median of per-experiment rates: tanh_saps spends most of an experiment in
    # setup, and a shared host's CPU speed drifts over seconds, so a few short
    # trial phases sample the drift instead of averaging it out.
    pooled = sum(r["iterations"] for r in records) / sum(r["trial_s"] for r in records)
    metrics["iters_per_s"]["value"] = pooled
    lines.append(f"  {'iters_per_s (pooled, reported)':<32} {pooled:.6g} 1/s")
    return metrics, lines


def per_layer(records):
    plain = [r for r in records if r["mode"] == "plain"]
    traced = [r for r in records if r["mode"] == "traced"]
    if not plain or not traced:
        raise SystemExit("error: a traced run needs at least one untraced and one traced experiment")
    metrics, lines = {}, []
    for name in traced[0]["layers"]:
        values = [r["layers"][name] for r in traced]
        unit = layer_unit(name)
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        lines.append(describe(name, values, unit))
    overhead = statistics.median(r["wall_s"] for r in traced) / statistics.median(r["wall_s"] for r in plain) - 1.0
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    lines.append(f"  {'trace.overhead_frac':<32} {overhead:.6g} ratio (traced {len(traced)}, untraced {len(plain)})")
    return metrics, lines


def layer_unit(name):
    for suffix, unit in (("_us", "us"), ("_us_per_row", "us"), ("_ms", "ms"), ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    if name.endswith(("_per_outer", "_ratio", "_frac")):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def record_reference(workload, size):
    out_rel = output_dir(workload)
    shutil.rmtree(ROOT / out_rel, ignore_errors=True)
    text = WORKLOADS[workload].config_text(DEFAULT_SEED, size, out_rel.as_posix())
    record, error = run_child("plain", text, None, CHILD_TIMEOUT_S)
    if record is None or record["exit_code"] != 0 or record["diverged"]:
        print(f"error: cannot record a reference: {error or record}", file=sys.stderr)
        return 1
    REFERENCE_DIR.mkdir(exist_ok=True)
    shutil.copyfile(ROOT / out_rel / "aggregate.csv", reference_path(workload, size))
    print(f"wrote {reference_path(workload, size).relative_to(ROOT)}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn (metrics prefixed by workload)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the benchmark's own tests")
    parser.add_argument("--record-reference", action="store_true",
                        help="write the default-seed aggregate.csv reference and exit")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "saddle_sa" / "__init__.py").is_file():
        print(f"error: no saddle_sa sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.record_reference:
        return max(record_reference(w, args.size) for w in workloads)

    attempted = failed = 0
    metrics = {}
    for workload in workloads:
        records, n_failed, log = closed_loop(workload, args.seed, args.seconds, args.trace, args.size)
        for line in log:
            print(line, file=sys.stderr)
        if not records:
            print(f"error: no {workload} experiment produced a record", file=sys.stderr)
            return 1
        (WORK_DIR / workload / "records.json").write_text(json.dumps(records, indent=1))
        found, lines = per_layer(records) if args.trace else end_to_end(records)
        print(f"{workload} seed={args.seed} size={args.size} trace={args.trace}: "
              f"{len(records) + n_failed} experiments, {n_failed} failed")
        print("\n".join(lines))
        attempted += len(records) + n_failed
        failed += n_failed
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update({prefix + name: value for name, value in found.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
