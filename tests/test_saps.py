import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import assert_kept_points_seen, point_hook, recording_hook, scalar_evaluate
from saddle_sa import (
    BilinearEvaluator,
    BilinearOracle,
    DivergenceError,
    PrimalDualPoint,
    RunConfig,
    RunRecord,
    SapsProblem,
    ScaledL1,
    ScaledL2,
    PositivePartSum,
    StepSchedule,
    TanhOracle,
    ZeroFunction,
    gamma_at,
    minimax_gap,
    run_saps,
    run_saps_batch,
)
from saddle_sa import core as core_module


class DeterministicOracle:
    """Row-form oracle whose empty draws consume no randomness."""

    def draws(self, rng, count):
        return np.empty((count, 0))


class FrozenXiOracle(DeterministicOracle):
    """Bilinear oracle that always uses the same xi (deterministic)."""

    def __init__(self, xi):
        self.xi = np.asarray(xi, dtype=float)
        self.n = self.xi.shape[0]
        self.m = self.n
        self._inner = BilinearOracle(self.n)

    def directions(self, Z, _):
        return self._inner.directions(Z, np.tile(self.xi, (Z.shape[0], 1)))


class ExactGradientOracle(DeterministicOracle):
    """Deterministic oracle returning the exact expectation gradients."""

    def __init__(self, n):
        self.Q = BilinearOracle(n).Q
        self.n = n
        self.m = n

    def directions(self, Z, _):
        X, Y = Z[:, :self.n], Z[:, self.n:]
        return np.concatenate((-(Y @ self.Q.T), X @ self.Q), axis=1)


def make_config(N, seed=0, thin=None, **kw):
    return RunConfig(horizon=N, seed=seed,
                     schedule=StepSchedule("const_over_sqrt_n"),
                     trace_thinning=thin or N, **kw)


class ConstantStepOracle(DeterministicOracle):
    """Deterministic oracle returning the same direction (-grad_x | grad_y) at every point."""

    def __init__(self, grad_x, grad_y, n, m):
        self.fixed = np.concatenate((-np.asarray(grad_x, dtype=float), np.asarray(grad_y, dtype=float)))
        self.n, self.m = n, m

    def directions(self, Z, _):
        return np.tile(self.fixed, (Z.shape[0], 1))


def one_step(problem, z, gamma):
    """The iterate after one run_saps step of size gamma from z."""
    cfg = RunConfig(horizon=1, seed=0, schedule=StepSchedule("harmonic", theta=gamma), initial=z)
    return run_saps(problem, cfg).final_iterate


class TestSapsStep:
    """One prox-subgradient update, observed as a horizon-1 run_saps."""

    def test_identity_prox_is_gradient_step(self):
        oracle = ConstantStepOracle([0.5, -0.5], [1.0, 0.0], 2, 2)
        prob = SapsProblem(oracle, ZeroFunction(), ZeroFunction())
        out = one_step(prob, PrimalDualPoint([1.0, 2.0], [3.0, 4.0]), 0.1)
        np.testing.assert_allclose(out.x, [0.95, 2.05], atol=1e-15)
        np.testing.assert_allclose(out.y, [3.1, 4.0], atol=1e-15)

    def test_hand_example_bilinear_l1(self):
        # frozen xi=0.5, z=(1,1), gamma=1: grads 0.25 -> z' = (0, 0.25)
        prob = SapsProblem(FrozenXiOracle([0.5]), ScaledL1(1.0), ScaledL1(1.0))
        out = one_step(prob, PrimalDualPoint([1.0], [1.0]), 1.0)
        np.testing.assert_allclose(out.x, [0.0], atol=1e-15)
        np.testing.assert_allclose(out.y, [0.25], atol=1e-15)

    def test_saddle_is_fixed_point(self):
        # exact subgradient certificate at z* = 0 keeps the iterate at z*
        prob = SapsProblem(ExactGradientOracle(3), ScaledL1(1.0), ScaledL1(1.0))
        z_star = PrimalDualPoint(np.zeros(3), np.zeros(3))
        z = z_star
        for gamma in (0.1, 1.0, 7.3):
            z = one_step(prob, z, gamma)
            assert z.allclose(z_star)

    def test_dimension_mismatch_rejected(self):
        prob = SapsProblem(ConstantStepOracle(np.zeros(3), np.zeros(2), 2, 2), ZeroFunction(), ZeroFunction())
        with pytest.raises(ValueError, match="dimensions"):
            one_step(prob, PrimalDualPoint([1.0, 2.0], [3.0, 4.0]), 0.1)

    def test_gamma_positive_required(self):
        # A horizon-less schedule is checked at the run's horizon: 5e-324 / 2
        # rounds to a zero step at k = 2, so the config is rejected before any
        # iteration runs.
        with pytest.raises(ValueError, match="step size at the horizon N=2 is 0.0"):
            RunConfig(horizon=2, seed=0, schedule=StepSchedule("harmonic", theta=5e-324))


def push_by(shift, gamma):
    """Oracle under whose gradients one step of size gamma with the identity
    prox moves the iterate by shift = (x shift, y shift)."""
    dx, dy = np.asarray(shift[0]), np.asarray(shift[1])
    return ConstantStepOracle(-dx / gamma, dy / gamma, dx.shape[0], dy.shape[0])


class TestStreamingAverage:
    """The step-size-weighted average of z^1..z^N, observed through run_saps
    and a hook that keeps every iterate."""

    def test_equal_weights_mean(self):
        # gamma = 1/sqrt(2) twice; z1 = (1, 1) steps to z2 = (3, 3)
        gamma = 1.0 / math.sqrt(2.0)
        oracle = push_by(([2.0], [2.0]), gamma)
        prob = SapsProblem(oracle, ZeroFunction(), ZeroFunction())
        seen = []
        rec = run_saps(prob, make_config(2, thin=1, initial=PrimalDualPoint([1.0], [1.0])),
                       [recording_hook(seen)])
        np.testing.assert_allclose(seen[1][1].x, [3.0], atol=1e-15)
        np.testing.assert_allclose(rec.final_average.x, [2.0], atol=1e-15)
        np.testing.assert_allclose(rec.final_average.y, [2.0], atol=1e-15)

    def test_single_update_returns_point(self):
        z = PrimalDualPoint([4.0], [-2.0])
        prob = SapsProblem(BilinearOracle(1), ZeroFunction(), ZeroFunction())
        cfg = RunConfig(horizon=1, seed=0, schedule=StepSchedule("harmonic", theta=0.3), initial=z)
        assert run_saps(prob, cfg).final_average.allclose(z)

    def test_weighted_example(self):
        # harmonic theta=3: gamma 3 then 1.5; z1 = 0, z2 = 9 -> (3*0 + 1.5*9)/4.5 = 3
        oracle = push_by(([9.0], [9.0]), 3.0)
        prob = SapsProblem(oracle, ZeroFunction(), ZeroFunction())
        cfg = RunConfig(horizon=2, seed=0, schedule=StepSchedule("harmonic", theta=3.0),
                        initial=PrimalDualPoint([0.0], [0.0]))
        rec = run_saps(prob, cfg)
        np.testing.assert_allclose(rec.final_average.x, [3.0], atol=1e-15)

    def test_matches_direct_weighted_sum(self):
        prob = SapsProblem(BilinearOracle(2), ScaledL1(0.1), ScaledL1(0.1))
        cfg = RunConfig(horizon=1000, seed=2, schedule=StepSchedule("inv_sqrt_k", theta=0.5))
        seen = []
        rec = run_saps(prob, cfg, [recording_hook(seen)])
        gammas = np.array([gamma_at(cfg.schedule, k, cfg.horizon) for k, _, _ in seen])
        assert [k for k, _, _ in seen] == list(range(1, 1001))
        direct_x = sum(g * z.x for (_, z, _), g in zip(seen, gammas)) / gammas.sum()
        direct_y = sum(g * z.y for (_, z, _), g in zip(seen, gammas)) / gammas.sum()
        np.testing.assert_allclose(rec.final_average.x, direct_x, rtol=1e-12)
        np.testing.assert_allclose(rec.final_average.y, direct_y, rtol=1e-12)


class TestRunSaps:
    def test_schedule_is_required(self):
        prob = SapsProblem(BilinearOracle(2), ScaledL1(1.0), ScaledL1(1.0))
        for run in (lambda cfg: run_saps(prob, cfg), lambda cfg: run_saps_batch(prob, [cfg, cfg])):
            with pytest.raises(ValueError, match="RunConfig.schedule is None"):
                run(RunConfig(horizon=5, seed=0))

    def test_single_iteration_average_is_initial(self):
        prob = SapsProblem(BilinearOracle(2), ScaledL1(1.0), ScaledL1(1.0))
        z0 = PrimalDualPoint([0.5, -0.5], [0.25, 0.0])
        rec = run_saps(prob, make_config(1, initial=z0))
        assert rec.final_average.allclose(z0)
        assert rec.ks == [1]

    def test_two_steps_frozen_xi(self):
        # z1=(1,1) -> z2=(0, 0.25); average = mean (equal gammas)
        oracle = FrozenXiOracle([0.5])
        prob = SapsProblem(oracle, ScaledL1(1.0), ScaledL1(1.0))
        z0 = PrimalDualPoint([1.0], [1.0])
        cfg = RunConfig(horizon=2, seed=0, schedule=StepSchedule("scaled_const", theta=1.0,
                        dist_estimate=math.sqrt(2.0), M_estimate=math.sqrt(2.0) / math.sqrt(2.0)),
                        trace_thinning=1, initial=z0)
        # scaled_const with these estimates gives gamma = 1 exactly
        assert gamma_at(cfg.schedule, 1, cfg.horizon) == pytest.approx(1.0)
        seen = []
        rec = run_saps(prob, cfg, [recording_hook(seen)])
        z2 = seen[1][1]
        np.testing.assert_allclose(z2.x, [0.0], atol=1e-15)
        np.testing.assert_allclose(z2.y, [0.25], atol=1e-15)
        np.testing.assert_allclose(rec.final_average.x, [0.5], atol=1e-15)
        np.testing.assert_allclose(rec.final_average.y, [0.625], atol=1e-15)
        # z3 continues with the same frozen draw at z2 = (0, 0.25)
        assert rec.final_iterate.allclose(one_step(prob, z2, 1.0))

    def test_recorded_gammas_match_schedule(self):
        prob = SapsProblem(BilinearOracle(2), ScaledL1(1.0), ScaledL1(1.0))
        cfg = RunConfig(horizon=20, seed=3, schedule=StepSchedule("harmonic", theta=2.0),
                        trace_thinning=3)
        rec = run_saps(prob, cfg)
        for k, g in zip(rec.ks, rec.gammas):
            assert g == pytest.approx(2.0 / k)
        assert rec.ks[-1] == 20

    def test_thinning_always_keeps_last(self):
        prob = SapsProblem(BilinearOracle(1), ZeroFunction(), ZeroFunction())
        rec = run_saps(prob, make_config(7, thin=3))
        assert rec.ks == [3, 6, 7]

    def test_metric_hooks_receive_average(self):
        prob = SapsProblem(BilinearOracle(2), ScaledL1(1.0), ScaledL1(1.0))
        z_star = PrimalDualPoint(np.zeros(2), np.zeros(2))
        seen = []

        def hook(k, z, avg):
            seen.append(k)
            return {"d": avg.distance_to(z_star)}

        rec = run_saps(prob, make_config(5, thin=2), [hook])
        assert seen == [2, 4, 5]
        assert list(rec.metrics) == ["d"] and len(rec.metrics["d"]) == 3

    def test_reproducible_given_seed(self):
        prob = SapsProblem(BilinearOracle(3), ScaledL2(1.0), ScaledL2(1.0))
        a = run_saps(prob, make_config(50, seed=11))
        b = run_saps(prob, make_config(50, seed=11))
        assert np.array_equal(a.final_average.stacked(), b.final_average.stacked())
        c = run_saps(prob, make_config(50, seed=12))
        assert not np.array_equal(a.final_average.stacked(), c.final_average.stacked())

    def test_divergence_guard_names_iteration(self):
        exploding = ConstantStepOracle([-1e13], [0.0], 1, 1)
        prob = SapsProblem(exploding, ZeroFunction(), ZeroFunction())
        with pytest.raises(DivergenceError) as err:
            run_saps(prob, make_config(10))
        assert err.value.iteration == 1

    def test_gradient_shape_mismatch_is_value_error(self):
        short_grad = ConstantStepOracle(np.zeros(1), np.zeros(2), 2, 2)
        prob = SapsProblem(short_grad, ZeroFunction(), ZeroFunction())
        with pytest.raises(ValueError):
            run_saps(prob, make_config(10))

    def test_averaging_disabled_passes_iterate(self):
        prob = SapsProblem(BilinearOracle(2), ScaledL1(1.0), ScaledL1(1.0))
        seen = []
        run_saps(prob, make_config(5, thin=1, averaging=False), [recording_hook(seen)])
        assert len(seen) == 5
        for _, it, avg in seen:
            assert it.allclose(avg)


def scalar_reference(problem, config, hooks=()):
    """The SAPS loop one iteration and one draw at a time, in 1-D arithmetic:
    the reference every row of the batch kernel must reproduce bit for bit."""
    rng = config.random_source().generator()
    oracle = problem.oracle
    if config.initial is None:
        v = rng.uniform(-1.0, 1.0, size=oracle.n + oracle.m)
        x, y = v[:oracle.n], v[oracle.n:]
    else:
        x, y = config.initial.x, config.initial.y
    ax, ay, weight = x, y, 0.0
    out = {"ks": [], "gammas": [], "metrics": {}, "iterates": [], "averages": []}
    N = config.horizon
    for k in range(1, N + 1):
        gamma = gamma_at(config.schedule, k, N)
        if not config.averaging:
            ax, ay = x, y
        elif weight == 0.0:
            ax, ay, weight = x.copy(), y.copy(), gamma
        else:
            weight += gamma
            step = gamma / weight
            ax, ay = ax + step * (x - ax), ay + step * (y - ay)
        if k % config.trace_thinning == 0 or k == N:
            values = {}
            for hook in hooks:
                values.update(hook(k, PrimalDualPoint(x, y), PrimalDualPoint(ax, ay)))
            for name, value in values.items():
                out["metrics"].setdefault(name, []).append(value)
            out["ks"].append(k)
            out["gammas"].append(gamma)
            out["iterates"].append(np.concatenate([x, y]))
            out["averages"].append(np.concatenate([ax, ay]))
        _, gx, gy = scalar_evaluate(oracle, PrimalDualPoint(x, y), oracle.draws(rng, 1)[0])
        x = problem.theta.prox(gamma, x - gamma * gx)
        y = problem.omega.prox(gamma, y + gamma * gy)
    out["average"], out["iterate"] = np.concatenate([ax, ay]), np.concatenate([x, y])
    out["iterates"], out["averages"] = np.array(out["iterates"]), np.array(out["averages"])
    return out


def probe_hook(k, z, avg):
    return {"avg_sum": float(avg.x.sum() - avg.y.sum()), "z_norm": z.norm()}


def assert_same_run(a: RunRecord, b: RunRecord):
    assert np.array_equal(a.final_average.stacked(), b.final_average.stacked())
    assert np.array_equal(a.final_iterate.stacked(), b.final_iterate.stacked())
    assert a.ks == b.ks and a.gammas == b.gammas and a.metrics == b.metrics
    assert np.array_equal(a.iterates, b.iterates) and np.array_equal(a.averages, b.averages)


def assert_matches_reference(rec: RunRecord, ref: dict):
    assert np.array_equal(rec.final_average.stacked(), ref["average"])
    assert np.array_equal(rec.final_iterate.stacked(), ref["iterate"])
    assert (rec.ks, rec.gammas, rec.metrics) == (ref["ks"], ref["gammas"], ref["metrics"])
    assert np.array_equal(rec.iterates, ref["iterates"]) and np.array_equal(rec.averages, ref["averages"])


def kernel_problem(kind, reg):
    theta = {"l1": ScaledL1(0.8), "l2": ScaledL2(0.8), "max": PositivePartSum(0.8),
             "mu0": ZeroFunction()}[reg]
    if kind == "bilinear":
        oracle = BilinearOracle(3)
    else:
        rng = np.random.default_rng(21)
        oracle = TanhOracle(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
    return SapsProblem(oracle, theta, theta)


def trial_config(t, N, thin, averaging, given):
    initial = None
    if given:
        rng = np.random.default_rng(500 + t)
        initial = PrimalDualPoint(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
    return RunConfig(horizon=N, seed=4, stream_id=11 * t + 1,
                     schedule=StepSchedule("inv_sqrt_k", theta=1.5),
                     trace_thinning=thin, averaging=averaging, initial=initial)


KINDS = [(kind, reg) for kind in ("bilinear", "tanh") for reg in ("l1", "l2", "max", "mu0")]


class TestBatchKernel:
    @pytest.mark.parametrize("kind,reg", KINDS)
    def test_solo_run_matches_scalar_reference(self, kind, reg):
        problem = kernel_problem(kind, reg)
        N = 25
        for averaging in (True, False):
            for thin in (1, 3, N):
                for given in (True, False):
                    cfg = trial_config(0, N, thin, averaging, given)
                    rec = run_saps(problem, cfg, [probe_hook])
                    assert_matches_reference(rec, scalar_reference(problem, cfg, [probe_hook]))

    @pytest.mark.parametrize("kind,reg", KINDS)
    def test_rows_match_solo_runs(self, kind, reg, monkeypatch):
        problem = kernel_problem(kind, reg)
        N = 25
        solo = {}
        for averaging in (True, False):
            for thin in (1, 3, N):
                for given in (True, False):
                    for t in range(5):
                        solo[averaging, thin, given, t] = run_saps(
                            problem, trial_config(t, N, thin, averaging, given))
        # Small prefetch blocks: the batch refills its draws six times in N = 25.
        monkeypatch.setattr(core_module, "PREFETCH_ROWS", 4)
        for T in (1, 2, 5):
            for averaging in (True, False):
                for thin in (1, 3, N):
                    for given in (True, False):
                        configs = [trial_config(t, N, thin, averaging, given) for t in range(T)]
                        records = run_saps_batch(problem, configs)
                        for t, rec in enumerate(records):
                            assert_same_run(rec, solo[averaging, thin, given, t])

    @pytest.mark.parametrize("T", [1, 3])
    @pytest.mark.parametrize("averaging", [True, False])
    def test_kept_hook_points_stay_valid(self, T, averaging):
        # The hook points are views of the record's copies; every point a
        # hook on a trial's one-row run keeps must still hold its row's
        # values after the run, and the trial's batch row keeps them too.
        problem = kernel_problem("bilinear", "l1")
        configs = [trial_config(t, 25, 1, averaging, False) for t in range(T)]
        for cfg, rec in zip(configs, run_saps_batch(problem, configs)):
            seen, ref = [], []
            run_saps(problem, cfg, [recording_hook(seen)])
            scalar_reference(problem, cfg, [recording_hook(ref)])
            assert len(seen) == len(ref) == 25
            for row, ((k, z, avg), (k_ref, z_ref, avg_ref)) in enumerate(zip(seen, ref)):
                assert k == k_ref == rec.ks[row]
                assert np.array_equal(z.stacked(), z_ref.stacked())
                assert np.array_equal(avg.stacked(), avg_ref.stacked())
                assert np.array_equal(rec.iterates[row], z_ref.stacked())
                assert np.array_equal(rec.averages[row], avg_ref.stacked())

    @pytest.mark.parametrize("kind", ["bilinear", "tanh"])
    def test_mixed_regularizers_match_scalar_reference(self, kind):
        # theta != omega: the stacked prox applies each part to its own
        # columns, a path the CLI (theta is omega) never takes.
        oracle = kernel_problem(kind, "l1").oracle
        problem = SapsProblem(oracle, ScaledL1(0.8), ScaledL2(0.8))
        N = 25
        for averaging in (True, False):
            for thin in (1, 3, N):
                for given in (True, False):
                    for T in (1, 2, 5):
                        configs = [trial_config(t, N, thin, averaging, given) for t in range(T)]
                        hooks = [probe_hook] if T == 1 else []  # only the one-row runner takes hooks
                        records = [run_saps(problem, configs[0], hooks)] if T == 1 else \
                            run_saps_batch(problem, configs)
                        for cfg, rec in zip(configs, records):
                            assert_matches_reference(rec, scalar_reference(problem, cfg, hooks))

    def test_mismatched_settings_rejected(self):
        # Horizon, schedule and averaging are shared; thinnings may differ.
        problem = kernel_problem("bilinear", "l1")
        with pytest.raises(ValueError, match="share horizon"):
            run_saps_batch(problem, [trial_config(0, 10, 1, True, True), trial_config(1, 11, 1, True, True)])
        with pytest.raises(ValueError, match="share horizon"):
            run_saps_batch(problem, [trial_config(0, 10, 1, True, True), trial_config(1, 10, 1, False, True)])
        other_schedule = replace(trial_config(1, 10, 1, True, True), schedule=StepSchedule("harmonic"))
        with pytest.raises(ValueError, match="share horizon"):
            run_saps_batch(problem, [trial_config(0, 10, 1, True, True), other_schedule])
        assert run_saps_batch(problem, []) == []


class TestRecordedPoints:
    @pytest.mark.parametrize("T", [1, 2, 5])
    @pytest.mark.parametrize("averaging", [True, False])
    def test_records_keep_the_points_hooks_see(self, T, averaging, monkeypatch):
        # Thinnings 1, 3 and 7 in one batch, on a horizon that 3 and 7 do not
        # divide: each record keeps the points a hook on its trial's one-row
        # run sees, and each row is its solo run.
        monkeypatch.setattr(core_module, "PREFETCH_ROWS", 4)
        problem = kernel_problem("tanh", "max")
        N = 20
        configs = [trial_config(t, N, (1, 3, 7)[t % 3], averaging, t % 2 == 0) for t in range(T)]
        for cfg, rec in zip(configs, run_saps_batch(problem, configs)):
            assert rec.ks == [k for k in range(1, N + 1) if k % cfg.trace_thinning == 0 or k == N]
            assert_same_run(rec, run_saps(problem, cfg))
            hooked = run_saps(problem, cfg, [point_hook])
            assert_kept_points_seen(hooked, 6)
            assert np.array_equal(rec.iterates, hooked.iterates)
            assert np.array_equal(rec.averages, hooked.averages)
            if not averaging:
                assert np.array_equal(rec.averages, rec.iterates)

    @pytest.mark.parametrize("thinning", [1, 3, 7])
    def test_diverged_row_keeps_the_rows_it_recorded(self, thinning):
        # Trial 1 diverges at k = 7: its error's record holds the rows it
        # recorded up to then (k = 7 is recorded before that step), equal to
        # the rows of the same trial without the blow-up.
        N = 20
        configs = [trial_config(t, N, thinning, True, False) for t in range(3)]

        def blow_up():
            return SapsProblem(BlowUpOracle(3, configs[1].stream_id, 7, 1e15), ZeroFunction(), ZeroFunction())

        error = run_saps_batch(blow_up(), configs)[1]
        assert isinstance(error, DivergenceError) and error.iteration == 7
        rows = [k for k in range(1, 8) if k % thinning == 0]
        assert error.record.ks == rows
        with pytest.raises(DivergenceError) as hooked:
            run_saps(blow_up(), configs[1], [point_hook])
        assert hooked.value.record.ks == rows
        assert_kept_points_seen(hooked.value.record, 6)
        assert np.array_equal(error.record.iterates, hooked.value.record.iterates)
        assert np.array_equal(error.record.averages, hooked.value.record.averages)
        clean = run_saps(SapsProblem(BilinearOracle(3), ZeroFunction(), ZeroFunction()), configs[1])
        assert np.array_equal(error.record.iterates, clean.iterates[:len(rows)])
        assert np.array_equal(error.record.averages, clean.averages[:len(rows)])


class BlowUpOracle(BilinearOracle):
    """Bilinear oracle whose gradients are scaled by `factor` at iteration
    `at` of the trial on stream `stream`; the mark travels with the draws."""

    def __init__(self, n, stream, at, factor):
        super().__init__(n)
        self.stream, self.at, self.factor = stream, at, factor
        self.drawn = {}

    def draws(self, rng, count):
        start = self.drawn.get(id(rng), 0)
        self.drawn[id(rng)] = start + count
        scale = np.ones((count, 1))
        if rng.bit_generator.seed_seq.spawn_key == (self.stream,) and start < self.at <= start + count:
            scale[self.at - start - 1] = self.factor
        return np.concatenate([super().draws(rng, count), scale], axis=1)

    def directions(self, Z, draws):
        with np.errstate(invalid="ignore"):  # an inf factor makes 0*inf entries NaN
            return super().directions(Z, draws[:, :-1]) * draws[:, -1:]


class TestBatchDivergence:
    @pytest.mark.parametrize("factor", [math.nan, math.inf, 1e15])
    def test_diverged_row_leaves_and_others_run_on(self, factor, monkeypatch):
        # PositivePartSum's prox maps NaN to 0: only the check before the
        # prox stops a NaN gradient from becoming a finite iterate.
        monkeypatch.setattr(core_module, "PREFETCH_ROWS", 4)
        N = 20
        configs = [trial_config(t, N, 3, True, t % 2 == 0) for t in range(5)]
        stream = configs[2].stream_id
        for regularizer in (ZeroFunction(), PositivePartSum(1.0)):

            def problem():
                return SapsProblem(BlowUpOracle(3, stream, 7, factor), regularizer, regularizer)

            outcomes = run_saps_batch(problem(), configs)
            with pytest.raises(DivergenceError) as solo_error:
                run_saps(problem(), configs[2])
            assert isinstance(outcomes[2], DivergenceError)
            assert outcomes[2].iteration == solo_error.value.iteration == 7
            assert str(outcomes[2]) == str(solo_error.value)
            for t in (0, 1, 3, 4):
                assert_same_run(outcomes[t], run_saps(problem(), configs[t]))

    def test_hook_divergence_ends_only_its_row(self):
        # Hooks run on one-row runs, after the run: a hook that rejects a
        # trial's row 6 ends that trial there, with the rows before it, and
        # leaves the other trials, whose batch rows it does not see, as the
        # hookless batch ran them plus the hook's columns.
        def hook(k, z, avg):
            if k == 6 and z.x[0] > 0.0:
                raise DivergenceError(k, f"hook rejected the iterate at iteration {k}")
            return probe_hook(k, z, avg)

        problem = kernel_problem("bilinear", "mu0")
        configs = [trial_config(t, 20, 3, True, True) for t in range(6)]
        outcomes = run_saps_batch(problem, configs)
        kinds = set()
        for config, outcome in zip(configs, outcomes):
            try:
                solo = run_saps(problem, config, [hook])
            except DivergenceError as exc:
                kinds.add("diverged")
                assert exc.iteration == 6 and str(exc) == "hook rejected the iterate at iteration 6"
                assert exc.record.ks == [3] and np.array_equal(exc.record.iterates, outcome.iterates[:1])
            else:
                kinds.add("finished")
                assert solo.metrics == scalar_reference(problem, config, [probe_hook])["metrics"]
                outcome.metrics = solo.metrics
                assert_same_run(outcome, solo)
        assert kinds == {"diverged", "finished"}

    def test_every_row_diverging_ends_the_batch(self):
        exploding = ConstantStepOracle([-1e13], [0.0], 1, 1)
        problem = SapsProblem(exploding, ZeroFunction(), ZeroFunction())
        configs = [RunConfig(horizon=10, seed=0, stream_id=t, trace_thinning=1,
                             schedule=StepSchedule("const_over_sqrt_n")) for t in range(3)]
        outcomes = run_saps_batch(problem, configs)
        assert [o.iteration for o in outcomes] == [1, 1, 1]


class TestPostRunHooks:
    """run_saps calls its metric hooks after the run, on the recorded rows."""

    def test_hooked_record_is_the_bare_record_plus_the_hook_columns(self):
        problem = kernel_problem("tanh", "l1")
        config = trial_config(0, 20, 3, True, False)
        bare, hooked = run_saps(problem, config), run_saps(problem, config, [point_hook])
        assert bare.metrics == {}
        assert (hooked.ks, hooked.gammas) == (bare.ks, bare.gammas)
        assert np.array_equal(hooked.iterates, bare.iterates) and np.array_equal(hooked.averages, bare.averages)
        assert np.array_equal(hooked.final_iterate.stacked(), bare.final_iterate.stacked())
        assert np.array_equal(hooked.final_average.stacked(), bare.final_average.stacked())
        assert hooked.final_metrics == bare.final_metrics == {}
        assert hooked.metrics == {"iterate": [z.tobytes() for z in bare.iterates],
                                  "average": [a.tobytes() for a in bare.averages]}

    def test_hook_error_ends_the_run_at_its_row(self):
        # Rows 3, 6, 9, ...: the hook rejects k = 9, so the error keeps the
        # two rows before it, with their hook columns.
        problem = kernel_problem("bilinear", "l2")
        config = trial_config(1, 20, 3, True, True)
        bare = run_saps(problem, config)

        def hook(k, z, avg):
            if k == 9:
                raise DivergenceError(k, f"hook rejected the iterate at iteration {k}")
            return probe_hook(k, z, avg)

        with pytest.raises(DivergenceError) as err:
            run_saps(problem, config, [hook])
        error = err.value
        assert type(error) is DivergenceError and error.iteration == 9
        assert str(error) == "hook rejected the iterate at iteration 9"
        record = error.record
        assert (record.ks, record.gammas) == ([3, 6], bare.gammas[:2]) and len(record.elapsed) == 2
        assert np.array_equal(record.iterates, bare.iterates[:2]) and np.array_equal(record.averages, bare.averages[:2])
        assert record.metrics == {name: column[:2] for name, column in
                                  scalar_reference(problem, config, [probe_hook])["metrics"].items()}
        assert (record.final_iterate, record.final_average) == (None, None)

    @pytest.mark.parametrize("k_bad, first", [(7, "hook"), (8, "solver")])
    def test_the_earlier_of_a_hook_error_and_a_divergence_ends_the_run(self, k_bad, first):
        # The iterate diverges in the step of iteration 7, after row 7 is
        # recorded: a hook that rejects row 7 came first, and one that would
        # reject row 8 is never reached.
        config = trial_config(0, 20, 1, True, True)

        def problem():
            return SapsProblem(BlowUpOracle(3, config.stream_id, 7, 1e15), ZeroFunction(), ZeroFunction())

        def hook(k, z, avg):
            if k == k_bad:
                raise DivergenceError(k, f"hook rejected the iterate at iteration {k}")
            return point_hook(k, z, avg)

        with pytest.raises(DivergenceError) as bare:
            run_saps(problem(), config)
        with pytest.raises(DivergenceError) as hooked:
            run_saps(problem(), config, [hook])
        error = hooked.value
        assert bare.value.iteration == 7 and bare.value.record.ks == list(range(1, 8))
        if first == "hook":
            assert str(error) == "hook rejected the iterate at iteration 7" and error.record.ks == list(range(1, 7))
        else:
            assert str(error) == str(bare.value) and error.record.ks == bare.value.record.ks
        rows = len(error.record.ks)
        assert np.array_equal(error.record.iterates, bare.value.record.iterates[:rows])
        assert_kept_points_seen(error.record, 6)


class TestGapTrend:
    def test_median_error_nonincreasing_in_horizon(self):
        # statistical: median final error over 20 seeds shrinks as the horizon
        # grows, for all three regularizer choices. For l1/l2 the saddle is
        # unique at 0 and the distance itself shrinks; the positive-part sum
        # has a flat saddle region {(0, y): y <= 0, |Qy|_inf <= 1}, so only
        # the optimality gap (which is what the averaging bound controls) is
        # checked there.
        z_star = PrimalDualPoint(np.zeros(3), np.zeros(3))
        oracle = BilinearOracle(3)
        for theta in (ScaledL1(1.0), ScaledL2(1.0), PositivePartSum(1.0)):
            prob = SapsProblem(oracle, theta, theta)
            ev = BilinearEvaluator(oracle, theta, theta)
            use_gap = isinstance(theta, PositivePartSum)
            medians = []
            for N in (100, 1000, 10000):
                finals = []
                for rec in run_saps_batch(prob, [make_config(N, seed=seed) for seed in range(20)]):
                    if use_gap:
                        finals.append(minimax_gap(ev, rec.final_average, z_star))
                    else:
                        finals.append(rec.final_average.distance_to(z_star))
                medians.append(float(np.median(finals)))
            assert medians[0] >= medians[1] >= medians[2], (type(theta).__name__, medians)

    def test_gap_nonnegative_at_verified_saddle(self):
        oracle = BilinearOracle(3)
        theta = ScaledL1(1.0)
        prob = SapsProblem(oracle, theta, theta)
        ev = BilinearEvaluator(oracle, theta, theta)
        z_star = PrimalDualPoint(np.zeros(3), np.zeros(3))
        rng = np.random.default_rng(8)
        for _ in range(200):
            z = PrimalDualPoint(rng.normal(size=3), rng.normal(size=3))
            assert minimax_gap(ev, z, z_star) >= -1e-9
