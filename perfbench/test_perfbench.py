"""Tests of the benchmark itself, at the tiny size of each workload.

Run with: python3 -m pytest perfbench
"""

from __future__ import annotations

import importlib
import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from child import import_program  # noqa: E402
from tracer import MODULES, PACKAGE, Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(argv):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *argv], capture_output=True,
                          text=True, cwd=ROOT, timeout=170)
    return proc, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_named_metric_is_emitted_with_its_unit(workload, trace, key):
    proc, lines = _result(["--workload", workload, "--seed", "0", "--seconds", "0",
                           "--trace", str(trace), "--size", "tiny"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want


def _bindings():
    """Every attribute of the package, its modules and their classes."""
    package = importlib.import_module(PACKAGE)
    owners = [package] + [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
    owners += [obj for module in owners[1:] for obj in vars(module).values()
               if inspect.isclass(obj) and obj.__module__ == module.__name__]
    return {(id(owner), attr): value for owner in owners for attr, value in list(vars(owner).items())}


def test_traced_run_restores_every_patched_binding():
    import_program()
    core = importlib.import_module(f"{PACKAGE}.core")
    prox = importlib.import_module(f"{PACKAGE}.prox")
    cli = importlib.import_module(f"{PACKAGE}.cli")
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        # Imported bindings are patched too, not only the defining module.
        assert prox.as_vector is core.as_vector is not before[(id(core), "as_vector")]
        assert cli.run_saps is not before[(id(cli), "run_saps")]
        assert prox.ScaledL1.prox is not before[(id(prox.ScaledL1), "prox")]
        changed = [key for key, value in _bindings().items() if before.get(key) is not value]
        assert len(changed) > 50
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


@pytest.fixture(scope="module", params=sorted(run.WORKLOADS))
def three_runs(request, tmp_path_factory):
    """One untraced and two traced tiny experiments of one workload."""
    workload = request.param
    runs = []
    for i, mode in enumerate(("plain", "traced", "traced")):
        out = tmp_path_factory.mktemp(f"{workload}-{i}")
        text = run.WORKLOADS[workload].config_text(0, "tiny", out.as_posix())
        record, error = run.run_child(mode, text, out.parent / f"spans-{workload}-{i}.csv", 120)
        assert record is not None, error
        runs.append((record, out))
    return workload, runs


def test_traced_and_untraced_outputs_are_byte_identical(three_runs):
    _, runs = three_runs
    digests = {run.output_digest(out) for _, out in runs}
    assert len(digests) == 1


def test_two_traced_runs_give_identical_counts(three_runs):
    _, runs = three_runs
    first, second = runs[1][0]["layers"], runs[2][0]["layers"]
    counts = [name for name in first if run.layer_unit(name) in ("count", "bytes", "ratio")]
    assert "core.as_vector_calls" in counts
    assert {name: first[name] for name in counts} == {name: second[name] for name in counts}


def test_output_check_passes_and_a_corrupted_reference_fails_it(three_runs):
    workload, runs = three_runs
    actual = (runs[0][1] / "aggregate.csv").read_text()
    reference = run.reference_path(workload, "tiny").read_text()
    assert run.check_aggregate(actual, reference) == []
    lines = reference.splitlines(keepends=True)
    fields = lines[1].split(",")
    fields[2] = repr(float(fields[2]) * (1 + 1e-4) + 1e-9)
    corrupted = "".join(lines[:1] + [",".join(fields)] + lines[2:])
    assert run.check_aggregate(actual, corrupted)


def test_corrupted_reference_makes_every_experiment_fail(tmp_path, monkeypatch):
    workload = "bilinear_saps"
    reference = run.reference_path(workload, "tiny").read_text().splitlines(keepends=True)
    fields = reference[-2].split(",")
    fields[3] = repr(float(fields[3]) * 1.01 + 1e-9)
    (tmp_path / run.reference_path(workload, "tiny").name).write_text(
        "".join(reference[:-2] + [",".join(fields)] + reference[-1:]))
    monkeypatch.setattr(run, "REFERENCE_DIR", tmp_path)
    records, failed, log = run.closed_loop(workload, 0, 0, 0, "tiny")
    assert failed == len(records) == run.MIN_RUNS
    assert "reference" in log[0]


def test_slope_check():
    summary = "metric,stat,slope,intercept,r2\nminimax_gap,median,-0.52,0.1,0.9\n"
    assert run.check_slope(summary, ("minimax_gap", "median", -0.8, -0.2)) == []
    assert run.check_slope(summary, ("minimax_gap", "median", -0.4, 0.0))
    assert run.check_slope(summary, ("proj_kkt", "median", -1.0, 0.0))


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "np_lsaal", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], capture_output=True, text=True,
                          cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
