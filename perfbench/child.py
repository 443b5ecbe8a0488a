"""Run one experiment in this (fresh) process and print its record as JSON.

Usage: python3 perfbench/child.py {plain|traced} [spans.csv] < config.txt

The config text arrives on stdin and goes through the public
`saddle_sa.cli.load_config` + `run_experiment` path, with `parallel=1`.  The
plain mode installs no tracing; the only instrumentation is one timer around
the experiment's shared setup (`cli._experiment_shared`, called once per
experiment), which splits `run_experiment` into setup and trial time.  The
traced mode wraps every public function of every module (see tracer.py) and
writes the spans to the given path after the timed region.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time
from pathlib import Path

START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_program():
    """Import saddle_sa from this checkout's src/, never from elsewhere."""
    if not (SRC / "saddle_sa" / "__init__.py").is_file():
        raise SystemExit(f"error: no saddle_sa package under {SRC}")
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("saddle_sa.cli")
    if Path(cli.__file__).resolve().parent != SRC / "saddle_sa":
        raise SystemExit(f"error: imported saddle_sa from {cli.__file__}, not from {SRC}")
    return cli


def _capture_shared_setup(cli):
    """Time the one shared-setup call of run_experiment.

    Returns (captured, original): `captured` receives (seconds, dataset
    points) when run_experiment builds its shared setup.
    """
    original = cli._experiment_shared
    captured = []

    def experiment_shared(config):
        t0 = time.perf_counter()
        shared = original(config)
        dataset = shared.get("dataset")
        captured.append((time.perf_counter() - t0, dataset.num_points() if dataset is not None else 0))
        return shared

    cli._experiment_shared = experiment_shared
    return captured, original


def run(mode, config_text, spans_path=None):
    """Load the config, run the experiment once, and return its record."""
    cli = import_program()
    config = cli.load_config(config_text)
    loaded = time.perf_counter()
    tracer = None
    if mode == "traced":
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer()
    captured, original = _capture_shared_setup(cli)
    try:
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        result = cli.run_experiment(config)
        wall = time.perf_counter() - t0
    finally:
        if tracer:
            tracer.uninstall()
        cli._experiment_shared = original
    (shared_s, points), = captured

    iterations = config.trials * sum(config.N_list)
    record = {
        "mode": mode,
        "exit_code": result.exit_code,
        "wall_s": wall,
        "setup_s": (loaded - START) + shared_s,
        "trial_s": wall - shared_s,
        "iterations": iterations,
        "trials": config.trials * len(config.N_list),
        "diverged": sum(result.diverged.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        layers = tracer.layer_metrics(iterations if config.algorithm == "saps" else 0, points)
        layers["cli.csv_bytes"] = sum(p.stat().st_size for p in Path(result.output_dir).iterdir())
        layers["cli.trace_files"] = len(result.trace_paths)
        record["layers"] = layers
        if spans_path:
            tracer.write(spans_path)
    return record


def main(argv):
    if len(argv) not in (1, 2) or argv[0] not in ("plain", "traced"):
        print(__doc__, file=sys.stderr)
        return 2
    record = run(argv[0], sys.stdin.read(), argv[1] if len(argv) == 2 else None)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
