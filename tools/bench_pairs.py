"""Compare two checkouts on one benchmark workload in alternating pairs.

Usage:
  python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs K [--seed N]

Pair i (i = 1 .. K) runs `perfbench/run.py --workload W --seed N+i-1
--seconds S` once in each checkout, each with its own `perfbench/` and
`src/`, where S is the `run_seconds` of CHANGE_DIR's BENCHMARK.json; the
parent runs first in odd pairs and second in even ones, so a drift of the
host's speed over time favours neither side.  A run fails when it exits
non-zero, times out or reports `correct: false`.  For each end-to-end metric
in the final JSON lines of the pairs where both runs succeeded it prints
both sides' medians and quartiles, the parent's interquartile range (IQR),
and in how many pairs the change was better (ties count for neither side;
the better direction is read from the same BENCHMARK.json).  `gain` reads
`yes` when the change won at least nine tenths of all K pairs, its median is
better than the parent's by more than the parent's IQR, and no more of the
change's runs failed than of the parent's.

Each run is printed to stderr as it ends.  The exit code is 1 when any run
failed, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 300.0  # perfbench/run.py ends each workload within 180 s


def run_once(checkout: Path, workload: str, seed: int, seconds: float):
    """The final JSON object of one benchmark run, or None if it failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    try:
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"  {checkout}: timed out after {RUN_TIMEOUT_S:g} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"  {checkout}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def benchmark_spec(checkout: Path):
    """(run_seconds, end-to-end metric name -> 'lower' or 'higher') from BENCHMARK.json."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return spec["run_seconds"], {m["name"]: m["better"] for m in spec["end_to_end"]}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(pairs, n_pairs: int, failed: dict, better: dict) -> list:
    """One line per metric present in every run of both sides of the complete pairs."""
    names = set.intersection(*(set(run["metrics"]) for pair in pairs for run in pair))
    lines = [f"{'metric':<24} {'parent median':>14} {'change median':>14} {'delta':>8} "
             f"{'parent IQR':>11} {'won':>6}  gain"]
    for name in sorted(names):
        direction = better.get(name.rsplit(".", 1)[-1], "lower")
        sign = 1.0 if direction == "higher" else -1.0
        old = [p["metrics"][name]["value"] for p, _ in pairs]
        new = [c["metrics"][name]["value"] for _, c in pairs]
        won = sum(sign * (c - p) > 0 for p, c in zip(old, new))
        old_med, new_med = statistics.median(old), statistics.median(new)
        q1, q3 = quartiles(old)
        rel = (new_med / old_med - 1.0) * 100.0 if old_med else float("nan")
        gain = (won >= 0.9 * n_pairs and sign * (new_med - old_med) > q3 - q1
                and failed["change"] <= failed["parent"])
        lines.append(f"{name:<24} {old_med:>14.6g} {new_med:>14.6g} {rel:>+7.1f}% "
                     f"{q3 - q1:>11.3g} {won:>3}/{n_pairs:<2}  {'yes' if gain else 'no'}")
        new_q1, new_q3 = quartiles(new)
        lines.append(f"{'':<24} quartiles: parent [{q1:.6g}, {q3:.6g}], change [{new_q1:.6g}, {new_q3:.6g}]; "
                     f"{direction} is better")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True, help="a perfbench workload, or all")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0, help="seed of the first pair; pair i adds i - 1")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, checkout in sides.items():
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"{side} {checkout} has no perfbench/run.py")
    seconds, better = benchmark_spec(sides["change"])

    pairs, failed = [], {"parent": 0, "change": 0}
    for i in range(1, args.pairs + 1):
        seed = args.seed + i - 1
        order = ("parent", "change") if i % 2 else ("change", "parent")
        runs = {}
        for side in order:
            run = run_once(sides[side], args.workload, seed, seconds)
            ok = run is not None and run["correct"]
            failed[side] += not ok
            runs[side] = run if ok else None
            shown = " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(run["metrics"].items())) if run else ""
            print(f"pair {i} seed {seed} {side}: {'ok' if ok else 'FAILED'} {shown}", file=sys.stderr)
        if runs["parent"] and runs["change"]:
            pairs.append((runs["parent"], runs["change"]))

    print(f"{args.workload}: {len(pairs)} complete pairs of {args.pairs}, failed runs: "
          f"parent {failed['parent']}, change {failed['change']}; "
          f"--seconds {seconds:g}, seeds {args.seed}..{args.seed + args.pairs - 1}")
    if pairs:
        print("\n".join(summarize(pairs, args.pairs, failed, better)))
    return 1 if failed["parent"] or failed["change"] else 0


if __name__ == "__main__":
    sys.exit(main())
