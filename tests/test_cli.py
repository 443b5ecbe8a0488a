import csv
import math
import os
import tempfile
import warnings
from concurrent.futures import Future
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from saddle_sa import cli
from saddle_sa.cli import (
    ConfigError,
    ExperimentConfig,
    load_config,
    main,
    run_experiment,
)
from saddle_sa.core import PrimalDualPoint
from saddle_sa.oracles import ConicSample, NeymanPearsonOracle, TanhOracle


def bilinear_text(**overrides):
    base = {
        "experiment": "bilinear",
        "algorithm": "saps",
        "n": 3,
        "N_list": "50,100",
        "trials": 2,
        "seed": 7,
        "parallel": 1,
    }
    base.update(overrides)
    return "\n".join(f"{k}={v}" for k, v in base.items()) + "\n"


class TestLoadConfig:
    def test_defaults_filled(self):
        cfg = load_config("experiment=bilinear\nalgorithm=saps\nn=3\nN_list=100,1000\n")
        assert cfg.mu == 1.0
        assert cfg.trials == 20
        assert cfg.schedule == "const_over_sqrt_n"
        assert cfg.N_list == (100, 1000)

    def test_incompatible_pair_rejected(self):
        with pytest.raises(ConfigError):
            load_config("experiment=neyman_pearson\nalgorithm=saps\nN_list=10\n")
        with pytest.raises(ConfigError):
            load_config("experiment=bilinear\nalgorithm=lsaal\nN_list=10\n")

    def test_empty_input_rejected(self):
        with pytest.raises(ConfigError):
            load_config("")

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError) as err:
            load_config(bilinear_text() + "frobnicate=1\n")
        assert "frobnicate" in str(err.value)

    def test_comments_and_overrides(self):
        cfg = load_config("# cfg\n" + bilinear_text(), overrides=["trials=5", "mu=2.0"])
        assert cfg.trials == 5
        assert cfg.mu == 2.0

    def test_lambda_alias(self):
        cfg = load_config(bilinear_text() + "lambda=7.5\n")
        assert cfg.lam == 7.5

    def test_bad_boolean(self):
        with pytest.raises(ConfigError):
            load_config(bilinear_text() + "normalize=maybe\n")

    def test_missing_required(self):
        with pytest.raises(ConfigError):
            load_config("experiment=bilinear\nalgorithm=saps\n")

    def test_reads_file_path(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(bilinear_text(), encoding="utf-8")
        cfg = load_config(path)
        assert cfg.experiment == "bilinear"


class TestRunExperiment:
    def test_single_trial_single_row(self, tmp_path):
        cfg = load_config(bilinear_text(N_list="1", trials=1, output_dir=tmp_path))
        result = run_experiment(cfg)
        assert result.exit_code == 0
        assert len(result.trace_paths) == 1
        rows = list(csv.reader(result.trace_paths[0].read_text().splitlines()))
        assert len(rows) == 2  # header + one recorded iteration
        assert rows[0][:2] == ["k", "gamma"]
        assert (result.output_dir / "aggregate.csv").exists()
        assert (result.output_dir / "summary.csv").exists()

    def test_rerun_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg_a = load_config(bilinear_text(output_dir=out_a))
        cfg_b = load_config(bilinear_text(output_dir=out_b))
        run_experiment(cfg_a)
        run_experiment(cfg_b)
        files_a = sorted(p.name for p in out_a.iterdir())
        files_b = sorted(p.name for p in out_b.iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_summary_contains_slope_for_three_horizons(self, tmp_path):
        cfg = load_config(bilinear_text(N_list="50,100,200", trials=3, output_dir=tmp_path))
        result = run_experiment(cfg)
        metrics = {row[0] for row in result.summary_rows}
        assert "dist_to_saddle" in metrics

    def test_aggregate_layout(self, tmp_path):
        cfg = load_config(bilinear_text(N_list="20", trials=3, output_dir=tmp_path))
        result = run_experiment(cfg)
        with (result.output_dir / "aggregate.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["N", "metric", "mean", "median", "stderr", "min", "max", "tail_fraction"]
        names = {r[1] for r in rows[1:]}
        assert {"minimax_gap", "dist_to_saddle", "diverged_trials"} <= names

    def test_neyman_pearson_pipeline(self, tmp_path):
        text = (
            "experiment=neyman_pearson\nalgorithm=lsaal\nn=6\nm_classes=3\n"
            "points_per_class=20\nN_list=30\ntrials=2\nseed=3\nparallel=1\n"
            f"output_dir={tmp_path}\n"
        )
        result = run_experiment(load_config(text))
        assert result.exit_code == 0
        agg_metrics = {row[1] for row in result.aggregate_rows}
        assert {"constraint_violation", "proj_kkt", "rerror", "raerror", "y_norm_max"} <= agg_metrics

    def test_laam_deterministic_across_trials(self, tmp_path):
        # the deterministic baseline differs across trials only via the initial point
        text = (
            "experiment=neyman_pearson\nalgorithm=laam\nn=5\nm_classes=2\n"
            "points_per_class=10\nN_list=20\ntrials=2\nseed=3\nparallel=1\n"
            f"output_dir={tmp_path}\n"
        )
        result = run_experiment(load_config(text))
        assert result.exit_code == 0

    def test_tanh_pipeline(self, tmp_path):
        text = (
            "experiment=tanh\nalgorithm=saps\nn=4\nN_list=25\ntrials=2\nseed=1\n"
            f"parallel=1\nref_pool_size=30\nref_iters=200\noutput_dir={tmp_path}\n"
        )
        result = run_experiment(load_config(text))
        assert result.exit_code == 0
        agg_metrics = {row[1] for row in result.aggregate_rows}
        assert "dist_avg_to_ref" in agg_metrics

    def test_timing_column_is_opt_in(self, tmp_path):
        cfg = load_config(bilinear_text(N_list="5", trials=1, output_dir=tmp_path / "no"))
        result = run_experiment(cfg)
        header = result.trace_paths[0].read_text().splitlines()[0].split(",")
        assert "elapsed_ms" not in header
        cfg2 = load_config(bilinear_text(N_list="5", trials=1, include_timing="true",
                                         output_dir=tmp_path / "yes"))
        result2 = run_experiment(cfg2)
        header2 = result2.trace_paths[0].read_text().splitlines()[0].split(",")
        assert header2[-1] == "elapsed_ms"


def hand_rolled_tanh_reference(config):
    """The tanh reference solve written out as a plain loop, without run_saps."""
    rng, xbar, ybar = cli._tanh_anchors(config)
    oracle = TanhOracle(xbar, ybar)
    draws = np.stack([oracle.draw(rng) for _ in range(config.ref_pool_size)])
    theta = cli._regularizer(config.regularizer, config.mu)
    x = rng.uniform(-1.0, 1.0, size=config.n)
    y = rng.uniform(-1.0, 1.0, size=config.n)
    ax, ay, weight = x, y, 0.0
    for k in range(1, config.ref_iters + 1):
        gamma = 1.0 / math.sqrt(k)
        if weight == 0.0:
            ax, ay, weight = x, y, gamma
        else:
            weight += gamma
            step = gamma / weight
            ax, ay = ax + step * (x - ax), ay + step * (y - ay)
        s = oracle.evaluate_batch(PrimalDualPoint(x, y), draws)
        x = theta.prox(gamma, x - gamma * s.grad_x)
        y = theta.prox(gamma, y + gamma * s.grad_y)
    return PrimalDualPoint(ax, ay)


class TestTanhReference:
    @pytest.mark.parametrize("regularizer", ["max", "l1"])
    def test_matches_hand_rolled_loop_bit_for_bit(self, regularizer):
        cfg = load_config(
            "experiment=tanh\nalgorithm=saps\nn=3\nN_list=10\nseed=4\n"
            f"regularizer={regularizer}\nref_pool_size=30\nref_iters=200\n")
        z_ref = cli._tanh_reference(cfg)["z_ref"]
        expect = hand_rolled_tanh_reference(cfg)
        assert np.array_equal(z_ref.x, expect.x)
        assert np.array_equal(z_ref.y, expect.y)


BAD_VALUES = {
    "theta": ["theta=-1"],
    "dist_estimate": ["schedule=scaled_const", "M_estimate=1", "dist_estimate=-1"],
    "mu": ["mu=-1"],
    "ref_pool_size": ["ref_pool_size=0"],
    "ref_iters": ["ref_iters=0"],
    "scaled_const_nan": ["schedule=scaled_const", "M_estimate=nan", "dist_estimate=1"],
    # Non-finite schedule parameters, and finite ones whose step is 0 at the horizon.
    "scaled_const_M_inf": ["schedule=scaled_const", "dist_estimate=1", "M_estimate=inf"],
    "scaled_const_dist_inf": ["schedule=scaled_const", "dist_estimate=inf", "M_estimate=1"],
    "scaled_const_underflow": ["schedule=scaled_const", "dist_estimate=1e-300", "M_estimate=1e300"],
    "harmonic_theta_inf": ["schedule=harmonic", "theta=inf"],
    "inv_sqrt_k_theta_inf": ["schedule=inv_sqrt_k", "theta=inf"],
    "harmonic_underflow": ["schedule=harmonic", "theta=5e-324"],
    "N_list_duplicate": ["N_list=10,10,20"],
    **{kv: [kv] for kv in (
        "seed=-1", "mu=nan", "theta=nan", "lam=nan", "lam=inf",
        "sigma=0", "sigma=-1", "sigma=-inf", "sigma=nan", "sigma=inf",
        "inner_tol=0", "inner_tol=-1", "inner_tol=-inf", "inner_tol=nan",
        "inner_max_iters=0", "inner_max_iters=-1", "points_per_class=0", "points_per_class=-1",
        "separation=nan", "separation=inf", "separation=-inf",
        "r=nan", "r=inf", "r=-inf", "r=0", "r=-1",
        "tail_multiplier=0", "tail_multiplier=-1", "parallel=-1", "trace_thinning=-1")},
}


class TestMainEntry:
    def test_run_roundtrip(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(bilinear_text(N_list="10", trials=1), encoding="utf-8")
        code = main(["run", str(cfg_path), "--out", str(tmp_path / "out"), "--parallel", "1"])
        assert code == 0
        assert (tmp_path / "out" / "aggregate.csv").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("experiment=neyman_pearson\nalgorithm=saps\nN_list=10\n", encoding="utf-8")
        assert main(["run", str(cfg_path)]) == 1

    @pytest.mark.parametrize("overrides", list(BAD_VALUES.values()), ids=list(BAD_VALUES))
    def test_bad_value_is_config_error(self, tmp_path, capsys, overrides):
        cfg_path = tmp_path / "tanh.cfg"
        cfg_path.write_text("experiment=tanh\nalgorithm=saps\nN_list=10\ntrials=1\nparallel=1\n"
                            "ref_pool_size=5\nref_iters=5\n", encoding="utf-8")
        argv = ["run", str(cfg_path), "--out", str(tmp_path / "out")]
        for kv in overrides:
            argv += ["--set", kv]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_missing_file_exit_code(self, capsys):
        assert main(["run", "/nonexistent/config.cfg"]) == 1

    def test_check_data(self, tmp_path, capsys):
        data = tmp_path / "toy.libsvm"
        data.write_text("1 1:0.5\n2 2:1.0\n", encoding="utf-8")
        assert main(["check-data", str(data)]) == 0
        out = capsys.readouterr().out
        assert "classes=2" in out

    def test_check_data_parse_error(self, tmp_path, capsys):
        data = tmp_path / "bad.libsvm"
        data.write_text("1 3:1 2:1\n", encoding="utf-8")
        assert main(["check-data", str(data)]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_diagnose_np(self, tmp_path, capsys):
        cfg_path = tmp_path / "np.cfg"
        cfg_path.write_text(
            "experiment=neyman_pearson\nalgorithm=lsaal\nn=4\nm_classes=2\n"
            "points_per_class=10\nN_list=100\n", encoding="utf-8")
        assert main(["diagnose", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        for key in ("kappa1", "kappa2", "kappa3", "delta1", "slater_margin", "beta0"):
            assert key in out
        assert "estimated" in out

    def test_diagnose_without_slater_margin_skips_multiplier_bounds(self, tmp_path, capsys):
        # With budget r=0.5 < log 2 per other class, the Slater point x=0 violates
        # every constraint, so no multiplier bound applies; run still exits 0.
        cfg_path = tmp_path / "np.cfg"
        cfg_path.write_text(
            "experiment=neyman_pearson\nalgorithm=lsaal\nn=4\nm_classes=3\nr=0.5\n"
            "points_per_class=10\nN_list=100\n", encoding="utf-8")
        assert main(["diagnose", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "slater_margin=None" in out and "beta0=" in out
        assert "multiplier diagnostics skipped: no Slater margin" in out
        assert "kappa1" not in out

    def test_one_class_dataset_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "one.libsvm"
        data.write_text("1 1:0.5 2:0.1\n1 1:0.2\n", encoding="utf-8")
        cfg_path = tmp_path / "np.cfg"
        cfg_path.write_text(f"experiment=neyman_pearson\nalgorithm=lsaal\nN_list=5\ntrials=1\n"
                            f"parallel=1\ndataset_path={data}\n", encoding="utf-8")
        for command in ("run", "diagnose"):
            assert main([command, str(cfg_path), "--out", str(tmp_path / "out")]) == 1
            assert capsys.readouterr().err == "error: need at least 2 classes\n"

    def test_non_utf8_config_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_bytes(bilinear_text(N_list="5", trials=1).encode() + b"# \xff\n")
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_non_utf8_dataset_exit_code(self, tmp_path, capsys):
        data = tmp_path / "bad.libsvm"
        data.write_bytes(b"1 1:0.5\n2 2:1.0 # \xff\n")
        cfg_path = tmp_path / "np.cfg"
        cfg_path.write_text(f"experiment=neyman_pearson\nalgorithm=lsaal\nN_list=5\ntrials=1\n"
                            f"parallel=1\ndataset_path={data}\n", encoding="utf-8")
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_non_utf8_check_data_exit_code(self, tmp_path, capsys):
        data = tmp_path / "bad.libsvm"
        data.write_bytes(b"1 1:0.5\n\xff 2:1.0\n")
        assert main(["check-data", str(data)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_diagnose_saps(self, tmp_path, capsys):
        cfg_path = tmp_path / "b.cfg"
        cfg_path.write_text(bilinear_text(), encoding="utf-8")
        assert main(["diagnose", str(cfg_path)]) == 0
        assert "M_star" in capsys.readouterr().out

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SADDLE_SA_OUT", str(tmp_path / "env_out"))
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(bilinear_text(N_list="5", trials=1), encoding="utf-8")
        assert main(["run", str(cfg_path)]) == 0
        assert (tmp_path / "env_out" / "aggregate.csv").exists()


class TestDivergenceReporting:
    def test_all_trials_diverged_gives_exit_code_2(self, tmp_path, monkeypatch):
        from saddle_sa import cli as cli_mod

        def fake_batch(config, N, trials, shared):
            return [cli_mod.TrialResult(N, trial, [], {}, diverged=True, error="blew up")
                    for trial in trials]

        monkeypatch.setattr(cli_mod, "run_trial_batch", fake_batch)
        cfg = load_config(bilinear_text(N_list="10", trials=2, output_dir=tmp_path))
        result = cli_mod.run_experiment(cfg)
        assert result.exit_code == 2
        assert result.diverged[10] == 2
        agg = (tmp_path / "aggregate.csv").read_text()
        assert "diverged_trials" in agg


class TestParallelDeterminism:
    def test_parallel_matches_serial(self, tmp_path):
        serial_dir, par_dir = tmp_path / "serial", tmp_path / "par"
        cfg_serial = load_config(bilinear_text(N_list="20,40", trials=2, output_dir=serial_dir, parallel=1))
        cfg_par = load_config(bilinear_text(N_list="20,40", trials=2, output_dir=par_dir, parallel=2))
        run_experiment(cfg_serial)
        run_experiment(cfg_par)
        for name in sorted(p.name for p in serial_dir.iterdir()):
            assert (serial_dir / name).read_bytes() == (par_dir / name).read_bytes()

    @pytest.mark.parametrize("text", [
        bilinear_text(N_list="20,45", trials=5),
        "experiment=tanh\nalgorithm=saps\nn=3\nN_list=20,45\ntrials=5\nseed=2\n"
        "ref_pool_size=10\nref_iters=50\n",
    ], ids=["bilinear", "tanh"])
    def test_output_bytes_do_not_depend_on_chunking(self, tmp_path, text):
        # parallel=2 and 3 split each horizon's five trials into 2+3 and 1+2+2.
        digests = set()
        for parallel in (1, 2, 3):
            out = tmp_path / f"p{parallel}"
            run_experiment(load_config(text + f"parallel={parallel}\noutput_dir={out}\n"))
            digests.add(tuple((p.name, p.read_bytes()) for p in sorted(out.iterdir())))
        assert len(digests) == 1


class TestWorkerCount:
    def test_available_cpus_follows_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert cli._available_cpus() == 2

    def test_available_cpus_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert cli._available_cpus() == 3

    def test_pool_never_larger_than_task_count(self, tmp_path, monkeypatch):
        sizes, chunks = [], []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                chunks.append((args[1], list(args[2])))  # (N, trials)
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(cli, "_available_cpus", lambda: 1)
        run_experiment(load_config(bilinear_text(N_list="5", trials=2, parallel=0,
                                                 output_dir=tmp_path / "auto")))
        assert sizes == []  # one available CPU: trials run in this process
        run_experiment(load_config(bilinear_text(N_list="5", trials=2, parallel=1000,
                                                 output_dir=tmp_path / "wide")))
        assert sizes == [2]
        # One task per (N, contiguous chunk of trials), at most `parallel` chunks per N.
        chunks.clear()
        run_experiment(load_config(bilinear_text(N_list="5,6", trials=5, parallel=2,
                                                 output_dir=tmp_path / "chunks")))
        assert chunks == [(5, [0, 1]), (5, [2, 3, 4]), (6, [0, 1]), (6, [2, 3, 4])]


class TestNeymanPearsonHook:
    def test_one_full_batch_per_distinct_point(self, tmp_path, monkeypatch):
        calls = []
        full_batch = NeymanPearsonOracle.full_batch

        def counted(self, x):
            calls.append(1)
            return full_batch(self, x)

        monkeypatch.setattr(NeymanPearsonOracle, "full_batch", counted)
        cfg = load_config("experiment=neyman_pearson\nalgorithm=lsaal\nn=4\nm_classes=2\n"
                          "points_per_class=10\nN_list=30\ntrials=1\ntrace_thinning=4\n")
        shared = cli._experiment_shared(cfg)
        result = cli.run_single_trial(cfg, 30, 0, shared)
        assert len(result.rows) == 8
        assert len(calls) == 1 + 2 * len(result.rows)


    def test_non_finite_hook_value_is_divergence(self, tmp_path, monkeypatch, capsys):
        # The hooks run outside the solver's guard; a non-finite full-batch
        # value there must mark the trial diverged, not escape as ValueError.
        full_batch = NeymanPearsonOracle.full_batch
        calls = []

        def poisoned(self, x):
            calls.append(1)
            fb = full_batch(self, x)
            if len(calls) > 3:
                fb = ConicSample(fb.f_value, fb.f_grad, fb.g_value * np.nan, fb.g_jacobian)
            return fb

        monkeypatch.setattr(NeymanPearsonOracle, "full_batch", poisoned)
        text = ("experiment=neyman_pearson\nalgorithm=lsaal\nn=4\nm_classes=2\n"
                "points_per_class=10\nN_list=30\ntrials=1\ntrace_thinning=4\nparallel=1\n")
        cfg = load_config(text)
        result = cli.run_single_trial(cfg, 30, 0, cli._experiment_shared(cfg))
        assert result.diverged
        assert "iteration 8" in result.error
        cfg_path = tmp_path / "np.cfg"
        cfg_path.write_text(text, encoding="utf-8")
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2


def _numeric_keys():
    return sorted(f.name for f in fields(ExperimentConfig)
                  if f.type.removesuffix(" | None") in ("int", "float", "tuple"))


TINY_CONFIGS = {
    "bilinear": "experiment=bilinear\nalgorithm=saps\nn=2\n",
    "tanh": "experiment=tanh\nalgorithm=saps\nn=2\nref_pool_size=4\nref_iters=4\n",
    "lsaal": "experiment=neyman_pearson\nalgorithm=lsaal\nn=3\nm_classes=2\npoints_per_class=5\n",
    "laam": "experiment=neyman_pearson\nalgorithm=laam\nn=3\nm_classes=2\npoints_per_class=5\n",
}


class TestAnyNumericValue:
    def test_main_exits_0_1_or_2(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        values = st.one_of(
            st.integers(-3, 12).map(str),
            st.floats(allow_nan=True, allow_infinity=True).map(repr),
            st.sampled_from(["nan", "-inf", "inf", "-0.0", "1e308", "5e-324", "2.5", "", "1,2"]),
        )

        @hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                             suppress_health_check=[hypothesis.HealthCheck.too_slow])
        @hypothesis.given(st.sampled_from(sorted(TINY_CONFIGS)), st.sampled_from(_numeric_keys()),
                          values)
        def check(pair, key, value):
            # Without the override the run has one (N, trial) task, and a
            # `parallel` override leaves it at one, so no worker process starts.
            with tempfile.TemporaryDirectory() as tmp:
                cfg_path = Path(tmp) / "tiny.cfg"
                cfg_path.write_text(TINY_CONFIGS[pair] + "N_list=4\ntrials=1\nparallel=1\n",
                                    encoding="utf-8")
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    code = main(["run", str(cfg_path), "--out", str(Path(tmp) / "out"),
                                 "--set", f"{key}={value}"])
            assert code in (0, 1, 2)

        check()


# Every run sets the four schedule keys; these values include ones whose step
# is not positive and finite at the horizon.
SCHEDULE_TEXT = {
    "schedule": ["scaled_const", "harmonic", "inv_sqrt_k", "const_over_sqrt_n", "geometric"],
    "theta": ["1", "inf", "5e-324", "nan", "0", "-1", "1e308"],
    "dist_estimate": ["1", "1e-300", "inf", "1e300", "0", "nan"],
    "M_estimate": ["1", "inf", "1e300", "1e-300", "-inf", ""],
}
OTHER_TEXT = {
    "mu": ["0", "1", "-1", "nan", "1e308"],
    "regularizer": ["l1", "l2", "max", "huber"],
    "averaging": ["true", "false", "maybe"],
    "trace_thinning": ["0", "1", "3", "-2"],
    "N_list": ["4", "1,2", "0", "3,x"],
    "n": ["1", "2", "0"],
    "seed": ["0", "7", "-1"],
    "frobnicate": ["1"],
}


class TestFreeFormOverrides:
    def test_main_exits_0_1_or_2(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        schedule = st.fixed_dictionaries({key: st.sampled_from(values)
                                          for key, values in SCHEDULE_TEXT.items()})
        listed = st.one_of(*(st.tuples(st.just(key), st.sampled_from(values))
                             for key, values in OTHER_TEXT.items()))
        # Any short value text for any key, not only the listed values.
        free = st.tuples(st.sampled_from(sorted(SCHEDULE_TEXT) + sorted(OTHER_TEXT)),
                         st.text(st.characters(codec="ascii", exclude_characters="\n\r\x00"),
                                 max_size=8))

        @hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                             suppress_health_check=[hypothesis.HealthCheck.too_slow])
        @hypothesis.given(st.sampled_from(sorted(TINY_CONFIGS)), schedule,
                          st.lists(st.one_of(listed, free), max_size=3))
        def check(pair, schedule_keys, others):
            # The base has one (N, trial) task; an N_list override adds at
            # most two, and parallel=1 keeps every run in this process.
            with tempfile.TemporaryDirectory() as tmp:
                cfg_path = Path(tmp) / "tiny.cfg"
                cfg_path.write_text(TINY_CONFIGS[pair] + "N_list=4\ntrials=1\nparallel=1\n",
                                    encoding="utf-8")
                argv = ["run", str(cfg_path), "--out", str(Path(tmp) / "out"), "--parallel", "1"]
                for key, value in [*schedule_keys.items(), *others]:
                    argv += ["--set", f"{key}={value}"]
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    code = main(argv)
            assert code in (0, 1, 2)

        check()
