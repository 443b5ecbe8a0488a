import concurrent.futures
import csv
import math
import os
import subprocess
import sys
import tempfile
import warnings
from concurrent.futures import Future
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from conftest import indicator_points, reference_normal_cone_distance
from saddle_sa import LsaalProblem, cli, synth_gaussian_classes
from saddle_sa.cli import (
    ConfigError,
    ExperimentConfig,
    load_config,
    main,
    run_experiment,
)
from saddle_sa import lsaal as lsaal_module
from saddle_sa.core import ConvergenceError, DivergenceError, PrimalDualPoint, RunRecord
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
        cfg = load_config("experiment=neyman_pearson\nalgorithm=lsaal\nN_list=10\nlambda=7.5\n")
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

    def test_str_path_error_says_to_pass_a_path(self):
        # A str is config text; a path given as one fails on its first line.
        with pytest.raises(ConfigError, match="to read a file, pass a Path"):
            load_config("exp.cfg")
        with pytest.raises(ConfigError) as err:
            load_config(bilinear_text() + "oops\n")
        assert "pass a Path" not in str(err.value)

    def test_every_key_is_read_by_some_experiment(self):
        common = set(cli._COMMON_KEYS.split())
        by_experiment = [set(experiment.keys.split()) for experiment in cli.EXPERIMENTS.values()]
        assert not any(common & keys for keys in by_experiment)
        assert common.union(*by_experiment) == {f.name for f in fields(ExperimentConfig)}


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

    def test_summary_skips_a_stat_outside_the_fit_range(self):
        # A mean that overflowed to inf (or a zero median) has no log-log fit;
        # the other stat of the same metric still gets one.
        cfg = load_config(bilinear_text())
        rows = [[N, "err", mean, median, 0.0, 0.0, 0.0, 0.0]
                for N, mean, median in ((10, 1.0, 1.0), (20, math.inf, 0.5), (40, 0.25, 0.0))]
        assert [row[:2] for row in cli._summarize(cfg, rows)] == []
        rows[2][3] = 0.25
        assert [row[:2] for row in cli._summarize(cfg, rows)] == [["err", "median"]]

    def test_statistics_of_huge_finite_values_are_finite(self):
        # Their sum and squares overflow, but not those of the values scaled
        # by a power of two; ordinary values keep the plain statistics' bits.
        cfg = load_config(bilinear_text())
        [row, _] = cli._aggregate(cfg, {10: [{"x": 1e308}, {"x": 1.5e308}]}, {10: []})
        assert row[2:5] == pytest.approx([1.25e308, 1.25e308, 2.5e307], rel=1e-15)
        assert row[5:] == [1e308, 1.5e308, 0.0]
        vals = np.random.default_rng(3).lognormal(0.0, 5.0, 9)
        [row, _] = cli._aggregate(cfg, {10: [{"x": v} for v in vals.tolist()]}, {10: []})
        median = float(np.median(vals))
        assert row[2:] == [float(vals.mean()), median, float(np.std(vals, ddof=1) / 3.0),
                           float(vals.min()), float(vals.max()), float((vals >= 5.0 * median).mean())]

    @pytest.mark.parametrize("small", [1e-80, 1e-300])
    def test_median_far_below_the_largest_value_keeps_its_bits(self, small):
        # The scaling that keeps huge sums finite would flush these medians
        # toward 0 (and a zero median puts every value in the tail).
        cfg = load_config(bilinear_text())
        [row, _] = cli._aggregate(cfg, {10: [{"x": small}, {"x": small}, {"x": 1e306}]}, {10: []})
        assert row[3] == small
        assert row[7] == 1.0 / 3.0
        assert row[2] == pytest.approx(1e306 / 3.0, rel=1e-15)

    def test_median_is_numpy_median_bit_for_bit(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan])

        @hypothesis.settings(max_examples=500, deadline=None, derandomize=True)
        @hypothesis.given(st.lists(st.one_of(special, st.floats()), min_size=1, max_size=9))
        def check(values):
            vals = np.array(values)
            with np.errstate(all="ignore"):
                got, want = cli._median(vals), np.median(vals)
            # Equal bits, the sign of zero included; any NaN equals any NaN.
            assert (math.isnan(got) and math.isnan(want)) or np.float64(got).tobytes() == np.float64(want).tobytes()

        check()

    def test_runs_leave_numpy_ma_unloaded(self, tmp_path):
        # np.median imports numpy.ma on its first call; a run's medians do not.
        script = (
            "import sys\n"
            "from saddle_sa.cli import load_config, run_experiment\n"
            "codes = [run_experiment(load_config(text + f'output_dir={sys.argv[1]}/{i}\\n')).exit_code\n"
            "         for i, text in enumerate(sys.argv[2:])]\n"
            "print(codes, 'numpy.ma' in sys.modules)\n"
        )
        configs = [TINY_CONFIGS[name] + "N_list=4\ntrials=2\nparallel=1\n" for name in ("bilinear", "tanh", "lsaal")]
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path), *configs],
                              capture_output=True, text=True, env=env, check=True)
        assert proc.stdout.splitlines()[-1] == "[0, 0, 0] False"

    def test_huge_gaps_aggregate_to_finite_statistics(self, tmp_path):
        cfg = load_config(bilinear_text(N_list="10,20,40", trials=3, output_dir=tmp_path), ["mu=1e300"])
        result = run_experiment(cfg)
        assert result.exit_code == 0
        gaps = [row for row in result.aggregate_rows if row[1] == "minimax_gap"]
        assert len(gaps) == 3 and all(row[2] > 1e297 for row in gaps)
        assert all(math.isfinite(value) for row in result.aggregate_rows for value in row[2:])

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
    """The tanh reference solve written out as a plain loop, without run_saps.

    Returns the reference point and the number of iterates that differ in
    their bits from the one before, the first included: the pool means that
    a solve keeping one step per distinct iterate computes.
    """
    rng, xbar, ybar = cli._tanh_anchors(config)
    draws = rng.random((config.ref_pool_size, 2, config.n))  # the raw bits of ref_pool_size draws
    u1, u2 = draws[:, 0, :], draws[:, 1, :]
    v1, v2 = np.where(u1 @ xbar >= 0.0, 1.0, -1.0), np.where(u2 @ ybar >= 0.0, 1.0, -1.0)
    theta = cli._regularizer(config.regularizer, config.mu)
    x = rng.uniform(-1.0, 1.0, size=config.n)
    y = rng.uniform(-1.0, 1.0, size=config.n)
    ax, ay, weight = x, y, 0.0
    last, distinct = None, 0
    for k in range(1, config.ref_iters + 1):
        gamma = 1.0 / math.sqrt(k)
        if weight == 0.0:
            ax, ay, weight = x, y, gamma
        else:
            weight += gamma
            step = gamma / weight
            ax, ay = ax + step * (x - ax), ay + step * (y - ay)
        key = x.tobytes() + y.tobytes()
        distinct += key != last
        last = key
        # The pool-mean gradients, with the label signs applied per draw.
        a, b = np.tanh(v1 * (u1 @ x)), np.tanh(v2 * (u2 @ y))
        grad_x = u1.T @ (-v1 * (1.0 - a * a) * b) / len(draws)
        grad_y = u2.T @ (-v2 * a * (1.0 - b * b)) / len(draws)
        x = theta.prox(gamma, x - gamma * grad_x)
        y = theta.prox(gamma, y + gamma * grad_y)
    return PrimalDualPoint(ax, ay), distinct


def tanh_reference_config(regularizer, pool, iters, seed):
    return load_config(
        f"experiment=tanh\nalgorithm=saps\nn=3\nN_list=10\nseed={seed}\n"
        f"regularizer={regularizer}\nref_pool_size={pool}\nref_iters={iters}\n")


class TestTanhReference:
    @pytest.mark.parametrize("regularizer,pool,iters,seed", [
        pytest.param(reg, pool, 200, 4, id=reg if pool == 30 else f"{reg}-pool{pool}")
        for pool in (30, 500) for reg in ("max", "l1", "l2")] + [
        # Seed 0's solve rests at a fixed point only after 991 distinct iterates.
        pytest.param("max", 500, 2000, 0, id="max-pool500-rests-late")])
    def test_matches_hand_rolled_loop_bit_for_bit(self, regularizer, pool, iters, seed):
        cfg = tanh_reference_config(regularizer, pool, iters, seed)
        z_ref = cli._tanh_reference(cfg)["z_ref"]
        expect, _ = hand_rolled_tanh_reference(cfg)
        assert np.array_equal(z_ref.x, expect.x)
        assert np.array_equal(z_ref.y, expect.y)

    @pytest.mark.parametrize("iters,seed,distinct", [(200, 4, 2), (20000, 0, 991)])
    def test_computes_one_pool_mean_per_distinct_iterate(self, monkeypatch, iters, seed, distinct):
        # The benchmark's tanh reference solve (pool 500, 20,000 steps) at
        # seed 0 and a short one: the iterate stops moving, and the pool mean
        # is computed once per distinct iterate, not once per step.
        calls = []
        mean_directions = TanhOracle.mean_directions

        def counted(self, Z, pool):
            calls.append(len(Z))
            return mean_directions(self, Z, pool)

        monkeypatch.setattr(TanhOracle, "mean_directions", counted)
        cfg = tanh_reference_config("max", 500, iters, seed)
        cli._tanh_reference(cfg)
        _, expect = hand_rolled_tanh_reference(cfg)
        assert len(calls) == expect == distinct < iters


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
        "seed=-1", "mu=nan", "mu=inf", "theta=nan", "lam=nan", "lam=inf",
        "sigma=0", "sigma=-1", "sigma=-inf", "sigma=nan", "sigma=inf",
        "inner_tol=0", "inner_tol=-1", "inner_tol=-inf", "inner_tol=nan", "inner_tol=inf",
        "inner_max_iters=0", "inner_max_iters=-1", "points_per_class=0", "points_per_class=-1",
        "separation=nan", "separation=inf", "separation=-inf",
        "r=nan", "r=inf", "r=-inf", "r=0", "r=-1",
        "tail_multiplier=0", "tail_multiplier=-1", "tail_multiplier=inf",
        "parallel=-1", "trace_thinning=-1")},
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

    def test_infinite_inner_tol_is_config_error(self, tmp_path, capsys):
        # A Neyman-Pearson run reads inner_tol, so the value rule, not the
        # unread-key rule of BAD_VALUES' tanh config, rejects it.
        cfg_path = tmp_path / "np.cfg"
        cfg_path.write_text("experiment=neyman_pearson\nalgorithm=lsaal\nn=3\nm_classes=2\npoints_per_class=5\n"
                            "N_list=10\ntrials=1\nparallel=1\n", encoding="utf-8")
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out"), "--set", "inner_tol=inf"]) == 1
        assert capsys.readouterr().err == "error: inner_tol must be positive and finite\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, overrides, named", [
        (bilinear_text(), ["sigma=0.1", "ref_iters=5", "dataset_path=/nonexistent", "inner_tol=3"],
         ["'sigma'", "'ref_iters'", "'dataset_path'", "'inner_tol'"]),
        ("experiment=tanh\nalgorithm=saps\nN_list=10\nref_pool_size=5\nref_iters=5\n",
         ["lambda=7.5", "m_classes=4"], ["'lambda'", "'m_classes'"]),
        ("experiment=neyman_pearson\nalgorithm=lsaal\nn=3\nm_classes=2\npoints_per_class=5\n"
         "N_list=10\n", ["schedule=harmonic", "theta=0.3", "mu=7"], ["'schedule'", "'theta'", "'mu'"]),
    ], ids=["bilinear", "tanh", "neyman_pearson"])
    def test_unread_key_is_config_error(self, tmp_path, capsys, text, overrides, named):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(text + "trials=1\nparallel=1\n", encoding="utf-8")
        argv = ["run", str(cfg_path), "--out", str(tmp_path / "out")]
        for kv in overrides:
            argv += ["--set", kv]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert all(key in err for key in named) and "'lam'" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [("m_classes", "5"), ("n", "2"), ("points_per_class", "7"),
                                            ("separation", "9")])
    def test_synthetic_data_key_with_dataset_path_is_config_error(self, tmp_path, capsys, key, value):
        data = tmp_path / "data.libsvm"
        data.write_text("1 1:0.5\n2 2:1.0\n1 1:0.3 2:0.1\n2 1:0.2 2:0.9\n", encoding="utf-8")
        cfg_path = tmp_path / "np.cfg"
        cfg_path.write_text(f"experiment=neyman_pearson\nalgorithm=lsaal\nN_list=5\ntrials=1\n"
                            f"parallel=1\ndataset_path={data}\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out), "--set", f"{key}={value}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: dataset_path replaces") and err.count("\n") == 1
        assert f"'{key}'" in err
        assert not out.exists()
        assert main(["run", str(cfg_path), "--out", str(out)]) == 0  # the file alone runs

    @pytest.mark.parametrize("text, overrides, message", [
        (bilinear_text(N_list="100,200,400"), ["theta=7"],
         "schedule 'const_over_sqrt_n' does not read 'theta'"),
        (bilinear_text(N_list="100,200,400"), ["dist_estimate=9", "M_estimate=3"],
         "schedule 'const_over_sqrt_n' does not read 'dist_estimate', 'M_estimate'"),
        (bilinear_text(), ["schedule=inv_sqrt_k", "theta=2", "M_estimate=3"],
         "schedule 'inv_sqrt_k' does not read 'M_estimate'"),
        # The experiment's unread-key rule comes first.
        ("experiment=neyman_pearson\nalgorithm=lsaal\nn=3\nm_classes=2\npoints_per_class=5\nN_list=10\n"
         "trials=1\nparallel=1\n", ["theta=7"], "experiment 'neyman_pearson' does not read 'theta'"),
    ], ids=["theta", "scaled_const_estimates", "inv_sqrt_k_M_estimate", "neyman_pearson"])
    def test_schedule_parameter_the_kind_does_not_read_is_config_error(self, tmp_path, capsys, text,
                                                                        overrides, message):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(text, encoding="utf-8")
        argv = ["run", str(cfg_path), "--out", str(tmp_path / "out")]
        for kv in overrides:
            argv += ["--set", kv]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}; remove the key(s) or set their defaults\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides", [
        ["schedule=harmonic", "theta=2"], ["schedule=inv_sqrt_k", "theta=0.5"],
        ["schedule=scaled_const", "theta=0.5", "dist_estimate=2", "M_estimate=1.5"],
        ["theta=1.0"],  # a default value is never an error
    ], ids=["harmonic", "inv_sqrt_k", "scaled_const", "default_theta"])
    def test_schedule_parameters_the_kind_reads_run(self, tmp_path, capsys, overrides):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(bilinear_text(N_list="10", trials=1), encoding="utf-8")
        argv = ["run", str(cfg_path), "--out", str(tmp_path / "out")]
        for kv in overrides:
            argv += ["--set", kv]
        assert main(argv) == 0

    @pytest.mark.parametrize("command, text, override", [
        ("run", bilinear_text(), "n=100000000000000000"),
        ("diagnose", "experiment=neyman_pearson\nalgorithm=lsaal\nN_list=10\nparallel=1\n",
         "points_per_class=10000000000000000"),
    ], ids=["run_bilinear_n", "diagnose_np_points_per_class"])
    def test_unallocatable_size_is_config_error(self, tmp_path, capsys, command, text, override):
        # Each size asks numpy for hundreds of PiB, more than any address
        # space, so the allocation fails at once and touches no memory.
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(text, encoding="utf-8")
        assert main([command, str(cfg_path), "--out", str(tmp_path / "out"), "--set", override]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()  # a failed config writes nothing

    def test_np_trials_pass_no_schedule(self, monkeypatch):
        seen = []
        run_lsaal_batch = cli.run_lsaal_batch

        def recording(problem, configs, full_batch=False):
            seen.extend(config.schedule for config in configs)
            return run_lsaal_batch(problem, configs, full_batch)

        monkeypatch.setattr(cli, "run_lsaal_batch", recording)
        cfg = load_config(NP_HOOK_TEXT)
        cli.run_trial_batch(cfg, [(10, 0), (10, 1)], cli._experiment_shared(cfg))
        assert seen == [None, None]

    def test_np_config_with_default_schedule_keys_runs(self, tmp_path, capsys):
        cfg_path = tmp_path / "np.cfg"
        cfg_path.write_text("experiment = neyman_pearson\nalgorithm = lsaal\nn = 4\nm_classes = 2\n"
                            "points_per_class = 10\nlambda = 5.0\nN_list = 20\ntrials = 1\n"
                            "parallel = 1\nschedule = const_over_sqrt_n\ntheta = 1.0\n", encoding="utf-8")
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "aggregate.csv").exists()

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

    @pytest.mark.parametrize("override, reason", [
        ("lambda=1e200", "a constant overflows"),
        ("lambda=1e308", "feasible set must be bounded to estimate a diameter"),
        ("separation=1e300", "kappa_f must be strictly positive and finite, got 0.0"),
    ], ids=["overflowing_diameter", "unbounded_ball", "zero_gradients"])
    def test_degenerate_instance_diagnose_is_config_error(self, tmp_path, capsys, override, reason):
        # run accepts each of these configs; diagnose finds no finite positive
        # constants to print and says so in one line.
        cfg_path = tmp_path / "np.cfg"
        cfg_path.write_text("experiment=neyman_pearson\nalgorithm=lsaal\nn=3\nm_classes=2\n"
                            "points_per_class=10\nN_list=10,20\ntrials=2\nparallel=1\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["run", str(cfg_path), "--out", str(tmp_path / "out"), "--set", override]) == 0
        capsys.readouterr()
        assert main(["diagnose", str(cfg_path), "--set", override]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot estimate the instance constants of this config: {reason}\n"

    def test_one_class_dataset_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "one.libsvm"
        data.write_text("1 1:0.5 2:0.1\n1 1:0.2\n", encoding="utf-8")
        cfg_path = tmp_path / "np.cfg"
        cfg_path.write_text(f"experiment=neyman_pearson\nalgorithm=lsaal\nN_list=5\ntrials=1\n"
                            f"parallel=1\ndataset_path={data}\n", encoding="utf-8")
        for command in ("run", "diagnose"):
            assert main([command, str(cfg_path), "--out", str(tmp_path / "out")]) == 1
            assert capsys.readouterr().err == "error: need at least 2 classes\n"

    @pytest.mark.parametrize("dataset", ["missing", "one_class"])
    def test_data_error_leaves_no_output_directory(self, tmp_path, capsys, dataset):
        data = tmp_path / "data.libsvm"
        if dataset == "one_class":
            data.write_text("1 1:0.5 2:0.1\n1 1:0.2\n", encoding="utf-8")
        cfg_path = tmp_path / "np.cfg"
        cfg_path.write_text(f"experiment=neyman_pearson\nalgorithm=lsaal\nN_list=5\ntrials=1\n"
                            f"parallel=1\ndataset_path={data}\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_unallocatable_dataset_exit_code(self, tmp_path, capsys):
        # A feature index of 2**62 makes the dense class matrix too big for
        # numpy's size check, which fails before any memory is touched.
        data = tmp_path / "huge.libsvm"
        data.write_text(f"1 1:0.5\n2 {2**62}:1.0\n", encoding="utf-8")
        cfg_path = tmp_path / "np.cfg"
        cfg_path.write_text(f"experiment=neyman_pearson\nalgorithm=lsaal\nN_list=5\ntrials=1\n"
                            f"parallel=1\ndataset_path={data}\n", encoding="utf-8")
        out = tmp_path / "out"
        for argv in (["check-data", str(data)], ["run", str(cfg_path), "--out", str(out)]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: class 1 with 1 point(s)") and captured.err.count("\n") == 1
        assert not out.exists()

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

    def test_diagnose_saps_without_a_finite_estimate_is_config_error(self, tmp_path, capsys):
        # As for the Neyman-Pearson constants: no finite positive M_star, one error line.
        cfg_path = tmp_path / "b.cfg"
        cfg_path.write_text(bilinear_text(), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["diagnose", str(cfg_path), "--set", "mu=1e308"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cannot estimate the instance constants of this config: M_star=inf\n"

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SADDLE_SA_OUT", str(tmp_path / "env_out"))
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(bilinear_text(N_list="5", trials=1), encoding="utf-8")
        assert main(["run", str(cfg_path)]) == 0
        assert (tmp_path / "env_out" / "aggregate.csv").exists()


class TestDivergenceReporting:
    def test_all_trials_diverged_gives_exit_code_2(self, tmp_path, monkeypatch):
        from saddle_sa import cli as cli_mod

        def fake_batch(config, pairs, shared):
            return [DivergenceError(1, "blew up") for pair in pairs]

        monkeypatch.setattr(cli_mod, "run_trial_batch", fake_batch)
        cfg = load_config(bilinear_text(N_list="10", trials=2, output_dir=tmp_path))
        result = cli_mod.run_experiment(cfg)
        assert result.exit_code == 2
        assert result.diverged[10] == 2
        assert [(trial, str(error)) for trial, error in result.failures[10]] == [(0, "blew up"), (1, "blew up")]
        agg = (tmp_path / "aggregate.csv").read_text()
        assert "diverged_trials" in agg

    def test_warning_names_the_first_failed_trial(self, tmp_path, monkeypatch, capsys):
        from saddle_sa import cli as cli_mod
        real_batch = cli_mod.run_trial_batch

        def fake_batch(config, pairs, shared):
            # Every trial fails except trial 0 at N=20, where trial 1's inner
            # solver does not converge and trial 2 diverges.
            return [outcome if (N, trial) == (20, 0)
                    else ConvergenceError(0.5, f"stalled in trial {trial}") if (N, trial) == (20, 1)
                    else DivergenceError(1, f"blew up in trial {trial}")
                    for (N, trial), outcome in zip(pairs, real_batch(config, pairs, shared))]

        monkeypatch.setattr(cli_mod, "run_trial_batch", fake_batch)
        cfg_path = tmp_path / "bilinear.cfg"
        cfg_path.write_text(bilinear_text(N_list="10,20", trials=3), encoding="utf-8")
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "warning: 3 diverged trial(s) at N=10 (trial 0: blew up in trial 0)",
            "warning: 1 diverged trial(s) at N=20 (trial 2: blew up in trial 2)",
            "warning: 1 not-converged trial(s) at N=20 (trial 1: stalled in trial 1)",
        ]

    @pytest.mark.parametrize("text, error_type, kind", [
        (bilinear_text(N_list="10,20", trials=3, schedule="harmonic", theta=1e13, mu=0),
         DivergenceError, "diverged"),
        # One Newton step per subproblem is too few at sigma = 100.
        ("experiment=neyman_pearson\nalgorithm=lsaal\nn=3\nm_classes=2\npoints_per_class=5\n"
         "N_list=10,20\ntrials=3\ninner_max_iters=1\nsigma=100\n", ConvergenceError, "not-converged"),
    ], ids=["diverged", "not_converged"])
    def test_failures_cross_the_process_pool(self, tmp_path, capsys, text, error_type, kind):
        # Every trial fails. Worker processes send the errors back by pickling:
        # they keep their type, and the report matches the serial run's.
        cfg_path = tmp_path / "fail.cfg"
        cfg_path.write_text(text, encoding="utf-8")
        reports = []
        for parallel in ("1", "2"):
            argv = ["run", str(cfg_path), "--out", str(tmp_path / parallel), "--parallel", parallel]
            reports.append((main(argv), capsys.readouterr().err))
        assert reports[0] == reports[1]
        assert reports[0][0] == 2 and reports[0][1].count(f"warning: 3 {kind} trial(s)") == 2
        result = run_experiment(load_config(text, ["parallel=2", f"output_dir={tmp_path / 'direct'}"]))
        assert {type(error) for failed in result.failures.values() for _, error in failed} == {error_type}


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
        # parallel=2 and 3 deal the ten (N, trial) pairs into tasks of 5+5 and 4+3+3.
        digests = set()
        for parallel in (1, 2, 3):
            out = tmp_path / f"p{parallel}"
            run_experiment(load_config(text + f"parallel={parallel}\noutput_dir={out}\n"))
            digests.add(tuple((p.name, p.read_bytes()) for p in sorted(out.iterdir())))
        assert len(digests) == 1


    @pytest.mark.parametrize("algorithm", ["lsaal", "laam"])
    def test_neyman_pearson_bytes_do_not_depend_on_the_task_split(self, tmp_path, algorithm):
        # 3 horizons x 3 trials: parallel=2 and 3 give tasks of 5+4 and 3+3+3
        # pairs, each one lockstep batch over every horizon.
        text = (f"experiment=neyman_pearson\nalgorithm={algorithm}\nn=4\nm_classes=3\npoints_per_class=10\n"
                "N_list=20,45,60\ntrials=3\nseed=4\ntrace_thinning=4\n")
        digests = set()
        for parallel in (1, 2, 3):
            out = tmp_path / f"p{parallel}"
            run_experiment(load_config(text + f"parallel={parallel}\noutput_dir={out}\n"))
            digests.add(tuple((p.name, p.read_bytes()) for p in sorted(out.iterdir())))
        assert len(digests) == 1
        assert len(digests.pop()) == 9 + 2  # every trace, aggregate.csv and summary.csv


class InlinePool:
    """ProcessPoolExecutor stand-in that runs each task in this process."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


class TestTaskSplit:
    @pytest.mark.parametrize("N_list, trials, parallel, expected", [
        ("5,6,7", 1, 2, [[(5, 0), (7, 0)], [(6, 0)]]),
        ("5,6", 3, 4, [[(5, 0), (6, 1)], [(5, 1), (6, 2)], [(5, 2)], [(6, 0)]]),
        ("5,6,7", 2, 1, [[(5, 0), (5, 1), (6, 0), (6, 1), (7, 0), (7, 1)]]),
        ("5", 2, 8, [[(5, 0)], [(5, 1)]]),
    ])
    def test_every_pair_runs_once(self, tmp_path, monkeypatch, N_list, trials, parallel, expected):
        # Pair i goes to task i mod workers: a single trial per horizon still
        # fills two workers, and every (N, trial) pair runs exactly once.
        tasks = []
        real_batch = cli.run_trial_batch

        def recording(config, pairs, shared):
            tasks.append(list(pairs))
            return real_batch(config, pairs, shared)

        monkeypatch.setattr(cli, "run_trial_batch", recording)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        result = run_experiment(load_config(bilinear_text(N_list=N_list, trials=trials, parallel=parallel,
                                                          output_dir=tmp_path)))
        assert tasks == expected
        assert sorted(pair for task in tasks for pair in task) == [
            (int(N), trial) for N in N_list.split(",") for trial in range(trials)]
        assert len(result.trace_paths) == len(N_list.split(",")) * trials


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
                chunks.append(list(args[1]))  # the task's (N, trial) pairs
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(cli, "_available_cpus", lambda: 1)
        run_experiment(load_config(bilinear_text(N_list="5", trials=2, parallel=0,
                                                 output_dir=tmp_path / "auto")))
        assert sizes == []  # one available CPU: trials run in this process
        run_experiment(load_config(bilinear_text(N_list="5", trials=2, parallel=1000,
                                                 output_dir=tmp_path / "wide")))
        assert sizes == [2]
        # One task per worker; pair i of the (N, trial) pairs goes to task i mod 2.
        chunks.clear()
        run_experiment(load_config(bilinear_text(N_list="5,6", trials=5, parallel=2,
                                                 output_dir=tmp_path / "chunks")))
        assert chunks == [[(5, 0), (5, 2), (5, 4), (6, 1), (6, 3)], [(5, 1), (5, 3), (6, 0), (6, 2), (6, 4)]]


NP_HOOK_TEXT = ("experiment=neyman_pearson\nalgorithm=lsaal\nn=4\nm_classes=2\n"
                "points_per_class=10\nN_list=30\ntrials=1\ntrace_thinning=4\nparallel=1\n")


def watch_full_batch_rows(monkeypatch, poison_from=None):
    """Record the number of points of each full_batch_rows call, and make
    every point from index `poison_from` on non-finite; returns the record."""
    full_batch_rows = NeymanPearsonOracle.full_batch_rows
    calls = []

    def watched(self, X):
        calls.append(X.shape[0])
        fb = full_batch_rows(self, X)
        if poison_from is None:
            return fb
        g_value = fb.g_value.copy()
        g_value[poison_from:] = np.nan
        return ConicSample(fb.f_value, fb.f_grad, g_value, fb.g_jacobian)

    monkeypatch.setattr(NeymanPearsonOracle, "full_batch_rows", watched)
    return calls


class TestNeymanPearsonHook:
    def test_one_full_batch_per_distinct_point(self, tmp_path, monkeypatch):
        # The start, then each recorded row's average and iterate: one
        # full_batch_rows call over 1 + 2 * rows points, after the run.
        calls = watch_full_batch_rows(monkeypatch)
        cfg = load_config(NP_HOOK_TEXT)
        [record] = cli.run_trial_batch(cfg, [(30, 0)], cli._experiment_shared(cfg))
        assert len(record.ks) == 8
        assert calls == [1 + 2 * len(record.ks)]

    def test_non_finite_hook_value_is_divergence(self, tmp_path, monkeypatch, capsys):
        # The full batches run outside the solver's guard; a non-finite one
        # must mark the trial diverged at its row's iteration, not escape as
        # ValueError. Point 3 is the average of the second row, k = 8.
        watch_full_batch_rows(monkeypatch, poison_from=3)
        cfg = load_config(NP_HOOK_TEXT)
        [outcome] = cli.run_trial_batch(cfg, [(30, 0)], cli._experiment_shared(cfg))
        assert isinstance(outcome, DivergenceError)
        assert outcome.iteration == 8 and "iteration 8" in str(outcome)
        cfg_path = tmp_path / "np.cfg"
        cfg_path.write_text(NP_HOOK_TEXT, encoding="utf-8")
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2

    def test_divergence_at_a_row_comes_before_a_later_solver_error(self, monkeypatch):
        # The solver fails at outer iteration 6, after the row at k = 4; a
        # non-finite full batch at that row was met first, so it is the outcome.
        solve = lsaal_module._solve_rows
        solves = []

        def failing(*args):
            solves.append(1)
            X, Y, errors = solve(*args)
            if len(solves) == 6:
                errors[0] = ConvergenceError(1.0)
            return X, Y, errors

        monkeypatch.setattr(lsaal_module, "_solve_rows", failing)
        cfg = load_config(NP_HOOK_TEXT)
        shared = cli._experiment_shared(cfg)
        [outcome] = cli.run_trial_batch(cfg, [(30, 0)], shared)
        assert isinstance(outcome, ConvergenceError) and "outer iteration 6" in str(outcome)
        solves.clear()
        watch_full_batch_rows(monkeypatch, poison_from=2)  # the iterate of row k = 4
        [outcome] = cli.run_trial_batch(cfg, [(30, 0)], shared)
        assert isinstance(outcome, DivergenceError)
        assert outcome.iteration == 4 and str(outcome) == "non-finite oracle sample at iteration 4"


def reference_np_metrics(problem, z0, kept):
    """The Neyman-Pearson metric rows as the per-row loop first computed
    them: one-point formulas on each row's full batches."""
    oracle = problem.oracle
    cone = oracle.cone
    dim, rows = oracle.dim, len(kept.ks)
    points = [z0.x]
    for row in range(rows):
        points += [kept.averages[row, :dim], kept.iterates[row, :dim]]
    fb = oracle.full_batch_rows(np.array(points))

    def grad(p, y):
        return np.concatenate([fb.f_grad[p] + fb.g_jacobian[p].T @ y, fb.g_value[p]])

    metrics = []
    for row in range(rows):
        avg, y = kept.averages[row], kept.iterates[row, dim:]
        p, g = 1 + 2 * row, fb.g_value[1 + 2 * row]
        stationarity = reference_normal_cone_distance(oracle.feasible_set, avg[:dim], -grad(p, avg[dim:])[:dim])
        metrics.append([float(np.linalg.norm(cone.polar_project(g))),
                        stationarity + float(np.linalg.norm(g - cone.project(g + avg[dim:]))),
                        float(np.linalg.norm(grad(p + 1, y))),
                        float(np.linalg.norm(grad(p, avg[dim:]))),
                        float(np.linalg.norm(y))])
    return metrics, float(np.linalg.norm(grad(0, z0.y)))


class TestNeymanPearsonMetrics:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_stacked_rows_equal_the_per_row_formulas(self, m):
        # 1,200 kept rows whose blocks lie inside their balls, on them or at
        # 0, with multipliers partly zero: every metric equals the per-row
        # formulas bit for bit.
        rng = np.random.default_rng(40 + m)
        oracle = NeymanPearsonOracle(synth_gaussian_classes(rng, m, 4, 12, 1.0), 2.0)
        problem = LsaalProblem(oracle)
        rows, dim = 1200, oracle.dim
        kept = RunRecord(iterates=np.empty((rows, dim + m - 1)), averages=np.empty((rows, dim + m - 1)))
        for points in (kept.iterates, kept.averages):
            points[:, :dim] = indicator_points(oracle.feasible_set, rng, rows)
            points[:, dim:] = np.maximum(rng.normal(size=(rows, m - 1)), 0.0) * rng.uniform(0.0, 4.0, size=(rows, 1))
        kept.ks.extend(range(1, rows + 1))
        z0 = PrimalDualPoint(indicator_points(oracle.feasible_set, rng, 1)[0], np.zeros(m - 1))
        metrics, base = cli._np_metrics(problem, z0, kept.iterates, kept.averages, kept.ks)
        expected, expected_base = reference_np_metrics(problem, z0, kept)
        assert list(metrics) == ["constraint_violation", "proj_kkt", "grad_norm_raw", "grad_norm_avg", "y_norm"]
        assert all(len(column) == rows for column in metrics.values())
        assert all(type(value) is float for column in metrics.values() for value in column)
        assert np.array_equal(np.array(list(metrics.values())).T, expected)
        assert base == expected_base
        # The rows reach both sides of every branch.
        assert 0 < sum(row[0] > 0.0 for row in expected) < rows


def write_libsvm_700(path: Path) -> None:
    """The 700-point, 3-class, 12-feature LIBSVM file of
    tools/output_digests.py, about half its entries zero and its features
    not normalized."""
    rng = np.random.default_rng(20240613)
    lines = ["2"]
    for _ in range(699):
        label = int(rng.integers(1, 4))
        row = rng.normal(loc=0.5 * label, size=12) * (rng.random(12) < 0.5)
        kept = [(i, v) for i, v in enumerate(row.tolist(), start=1) if v != 0.0 or rng.random() < 0.1]
        lines.append(" ".join([str(label)] + [f"{i}:{v!r}" for i, v in kept]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestUnnormalizedData:
    def test_every_trial_converges(self, tmp_path):
        # Raw feature scales make the subproblems stiff; each trial's inner
        # solves must still reach inner_tol.
        data = tmp_path / "data.libsvm"
        write_libsvm_700(data)
        text = (f"experiment=neyman_pearson\nalgorithm=lsaal\ndataset_path={data}\nnormalize=false\n"
                f"N_list=50,100,200\ntrials=2\nseed=9\nparallel=1\noutput_dir={tmp_path / 'out'}\n")
        result = run_experiment(load_config(text))
        assert result.exit_code == 0
        assert not any(result.failures.values())


def blow_up(oracle_class, stream, at):
    """oracle_class, with the draws of the trial on stream `stream` infinite
    from iteration `at` on; for runs of one block of draws (N <= PREFETCH_ROWS)."""

    class BlowUp(oracle_class):
        def draws(self, rng, count):
            out = super().draws(rng, count)
            if rng.bit_generator.seed_seq.spawn_key == (stream,):
                out[at - 1:] = np.inf
            return out

        def directions(self, Z, draws):
            with np.errstate(invalid="ignore", over="ignore"):
                return super().directions(Z, draws)

    return BlowUp


class TestSapsBatchPostPass:
    @pytest.mark.parametrize("experiment", ["bilinear", "tanh"])
    def test_surviving_trials_match_their_solo_runs(self, monkeypatch, experiment):
        # Trial 1 leaves the batch at iteration 9; the rows kept after that
        # shift, and each record must still score its own points.
        N = 40
        text = bilinear_text(N_list=N, trials=3, trace_thinning=1)
        if experiment == "tanh":
            text = text.replace("experiment=bilinear", "experiment=tanh") + "ref_pool_size=5\nref_iters=20\n"
        cfg = load_config(text)
        stream = cli.derive_stream_id(cfg.seed, N, 1)
        for name in ("BilinearOracle", "TanhOracle"):
            monkeypatch.setattr(cli, name, blow_up(getattr(cli, name), stream, 9))
        shared = cli._experiment_shared(cfg)
        batch = cli.run_trial_batch(cfg, [(N, 0), (N, 1), (N, 2)], shared)
        assert isinstance(batch[1], DivergenceError) and batch[1].iteration == 9
        for trial in (0, 2):
            [solo] = cli.run_trial_batch(cfg, [(N, trial)], shared)
            assert batch[trial].ks == solo.ks == list(range(1, N + 1))
            assert batch[trial].metrics == solo.metrics
            assert batch[trial].final_average.allclose(solo.final_average)


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

    def test_diagnose_exits_0_or_1(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        values = st.one_of(
            st.integers(-3, 12).map(str),
            st.floats(allow_nan=True, allow_infinity=True).map(repr),
            st.sampled_from(["nan", "-inf", "inf", "-0.0", "1e308", "1e200", "1e-300", "5e-324", "2.5", "", "1,2"]),
        )

        @hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                             suppress_health_check=[hypothesis.HealthCheck.too_slow])
        @hypothesis.given(st.sampled_from(sorted(TINY_CONFIGS)), st.sampled_from(_numeric_keys()),
                          values)
        def check(pair, key, value):
            with tempfile.TemporaryDirectory() as tmp:
                cfg_path = Path(tmp) / "tiny.cfg"
                cfg_path.write_text(TINY_CONFIGS[pair] + "N_list=4\ntrials=1\nparallel=1\n", encoding="utf-8")
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    code = main(["diagnose", str(cfg_path), "--set", f"{key}={value}"])
            assert code in (0, 1)

        check()

    @pytest.mark.parametrize("command", ["run", "diagnose"])
    def test_neyman_pearson_data_keys_at_extreme_magnitudes(self, command):
        # The draws above seldom pair a Neyman-Pearson config with its data
        # keys; here every draw does, at magnitudes that overflow the ball
        # geometry or the class margins, or underflow them to zero.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        magnitudes = ["1e200", "1e308", "1e-300", "1e300", "5e-324", "inf", "nan"]

        @hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                             suppress_health_check=[hypothesis.HealthCheck.too_slow])
        @hypothesis.given(st.sampled_from(["lsaal", "laam"]),
                          st.sampled_from(["lambda", "separation", "r", "points_per_class"]),
                          st.sampled_from(magnitudes), st.sampled_from(["", "-"]))
        def check(pair, key, magnitude, sign):
            with tempfile.TemporaryDirectory() as tmp:
                cfg_path = Path(tmp) / "tiny.cfg"
                cfg_path.write_text(TINY_CONFIGS[pair] + "N_list=4\ntrials=1\nparallel=1\n", encoding="utf-8")
                argv = [command, str(cfg_path), "--set", f"{key}={sign}{magnitude}"]
                if command == "run":
                    argv += ["--out", str(Path(tmp) / "out")]
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    code = main(argv)
            assert code in ((0, 1, 2) if command == "run" else (0, 1))

        check()


# Every SAPS run sets the four schedule keys (Neyman-Pearson runs do not read
# them); these values include ones whose step is not positive and finite at the horizon.
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
                saps = pair in ("bilinear", "tanh")
                for key, value in [*(schedule_keys.items() if saps else ()), *others]:
                    argv += ["--set", f"{key}={value}"]
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    code = main(argv)
            assert code in (0, 1, 2)

        check()
