import math

import numpy as np
import pytest

from conftest import recording_hook, scalar_evaluate
from saddle_sa import (
    BilinearEvaluator,
    BilinearOracle,
    DivergenceError,
    MinimaxSample,
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
from saddle_sa import saps as saps_module


class FrozenXiOracle:
    """Bilinear oracle that always uses the same xi (deterministic)."""

    def __init__(self, xi):
        self.xi = np.asarray(xi, dtype=float)
        self.n = self.xi.shape[0]
        self.m = self.n
        self._inner = BilinearOracle(self.n)

    def sample(self, rng, z):
        return self._inner.evaluate(z, self.xi)


class ExactGradientOracle:
    """Deterministic oracle returning the exact expectation gradients."""

    def __init__(self, n):
        self._inner = BilinearOracle(n)
        self.n = n
        self.m = n

    def sample(self, rng, z):
        value, gx, gy = self._inner.exact_expectation(z)
        return MinimaxSample(value, gx, gy)


def make_config(N, seed=0, thin=None, **kw):
    return RunConfig(horizon=N, seed=seed,
                     schedule=StepSchedule("const_over_sqrt_n", horizon=N),
                     trace_thinning=thin or N, **kw)


class ConstantSampleOracle:
    """Deterministic oracle returning the same sample at every point."""

    def __init__(self, sample, n, m):
        self.fixed, self.n, self.m = sample, n, m

    def sample(self, rng, z):
        return self.fixed


def one_step(problem, z, gamma):
    """The iterate after one run_saps step of size gamma from z."""
    cfg = RunConfig(horizon=1, seed=0, schedule=StepSchedule("harmonic", theta=gamma), initial=z)
    return run_saps(problem, cfg).final_iterate


class TestSapsStep:
    """One prox-subgradient update, observed as a horizon-1 run_saps."""

    def test_identity_prox_is_gradient_step(self):
        s = MinimaxSample(0.0, np.array([0.5, -0.5]), np.array([1.0, 0.0]))
        prob = SapsProblem(ConstantSampleOracle(s, 2, 2), ZeroFunction(), ZeroFunction())
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
        bad = MinimaxSample(0.0, np.zeros(3), np.zeros(2))
        prob = SapsProblem(ConstantSampleOracle(bad, 2, 2), ZeroFunction(), ZeroFunction())
        with pytest.raises(ValueError, match="dimensions"):
            one_step(prob, PrimalDualPoint([1.0, 2.0], [3.0, 4.0]), 0.1)

    def test_gamma_positive_required(self):
        # A horizon-less schedule is not checked up front: 5e-324 / 2 rounds
        # to a zero step at k = 2, which the kernel rejects.
        prob = SapsProblem(BilinearOracle(1), ZeroFunction(), ZeroFunction())
        cfg = RunConfig(horizon=2, seed=0, schedule=StepSchedule("harmonic", theta=5e-324))
        with pytest.raises(ValueError, match="gamma must be positive and finite, got 0.0 at iteration 2"):
            run_saps(prob, cfg)


def push_by(shift, gamma):
    """Gradients under which one step of size gamma with the identity prox
    moves the iterate by shift = (x shift, y shift)."""
    return MinimaxSample(0.0, -np.asarray(shift[0]) / gamma, np.asarray(shift[1]) / gamma)


class TestStreamingAverage:
    """The step-size-weighted average of z^1..z^N, observed through run_saps
    and a hook that keeps every iterate."""

    def test_equal_weights_mean(self):
        # gamma = 1/sqrt(2) twice; z1 = (1, 1) steps to z2 = (3, 3)
        gamma = 1.0 / math.sqrt(2.0)
        oracle = ConstantSampleOracle(push_by(([2.0], [2.0]), gamma), 1, 1)
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
        oracle = ConstantSampleOracle(push_by(([9.0], [9.0]), 3.0), 1, 1)
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
        gammas = np.array([gamma_at(cfg.schedule, k) for k, _, _ in seen])
        assert [k for k, _, _ in seen] == list(range(1, 1001))
        direct_x = sum(g * z.x for (_, z, _), g in zip(seen, gammas)) / gammas.sum()
        direct_y = sum(g * z.y for (_, z, _), g in zip(seen, gammas)) / gammas.sum()
        np.testing.assert_allclose(rec.final_average.x, direct_x, rtol=1e-12)
        np.testing.assert_allclose(rec.final_average.y, direct_y, rtol=1e-12)


class TestRunSaps:
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
                        dist_estimate=math.sqrt(2.0), M_estimate=math.sqrt(2.0) / math.sqrt(2.0),
                        horizon=2), trace_thinning=1, initial=z0)
        # scaled_const with these estimates gives gamma = 1 exactly
        assert gamma_at(cfg.schedule, 1) == pytest.approx(1.0)
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
        prob = SapsProblem(BilinearOracle(2), ScaledL1(1.0), ScaledL1(1.0),
                           known_saddle=PrimalDualPoint(np.zeros(2), np.zeros(2)))
        seen = []

        def hook(k, z, avg):
            seen.append(k)
            return {"d": avg.distance_to(prob.known_saddle)}

        rec = run_saps(prob, make_config(5, thin=2), [hook])
        assert seen == [2, 4, 5]
        assert [sorted(row) for row in rec.metrics] == [["d"]] * 3

    def test_reproducible_given_seed(self):
        prob = SapsProblem(BilinearOracle(3), ScaledL2(1.0), ScaledL2(1.0))
        a = run_saps(prob, make_config(50, seed=11))
        b = run_saps(prob, make_config(50, seed=11))
        assert np.array_equal(a.final_average.stacked(), b.final_average.stacked())
        c = run_saps(prob, make_config(50, seed=12))
        assert not np.array_equal(a.final_average.stacked(), c.final_average.stacked())

    def test_divergence_guard_names_iteration(self):
        class ExplodingOracle:
            n = 1
            m = 1

            def sample(self, rng, z):
                return MinimaxSample(0.0, np.array([-1e13]), np.array([0.0]))

        prob = SapsProblem(ExplodingOracle(), ZeroFunction(), ZeroFunction())
        with pytest.raises(DivergenceError) as err:
            run_saps(prob, make_config(10))
        assert err.value.iteration == 1

    def test_gradient_shape_mismatch_is_value_error(self):
        class ShortGradOracle:
            n = 2
            m = 2

            def sample(self, rng, z):
                return MinimaxSample(0.0, np.zeros(1), np.zeros(2))

        prob = SapsProblem(ShortGradOracle(), ZeroFunction(), ZeroFunction())
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
    out = {"ks": [], "gammas": [], "metrics": []}
    N = config.horizon
    for k in range(1, N + 1):
        gamma = gamma_at(config.schedule, k)
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
            out["ks"].append(k)
            out["gammas"].append(gamma)
            out["metrics"].append(values)
        _, gx, gy = scalar_evaluate(oracle, PrimalDualPoint(x, y), oracle.draw(rng))
        x = problem.theta.prox(gamma, x - gamma * gx)
        y = problem.omega.prox(gamma, y + gamma * gy)
    out["average"], out["iterate"] = np.concatenate([ax, ay]), np.concatenate([x, y])
    return out


def probe_hook(k, z, avg):
    return {"avg_sum": float(avg.x.sum() - avg.y.sum()), "z_norm": z.norm()}


def assert_same_run(a: RunRecord, b: RunRecord):
    assert np.array_equal(a.final_average.stacked(), b.final_average.stacked())
    assert np.array_equal(a.final_iterate.stacked(), b.final_iterate.stacked())
    assert a.ks == b.ks and a.gammas == b.gammas and a.metrics == b.metrics


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
                     schedule=StepSchedule("inv_sqrt_k", theta=1.5, horizon=N),
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
                    ref = scalar_reference(problem, cfg, [probe_hook])
                    assert np.array_equal(rec.final_average.stacked(), ref["average"])
                    assert np.array_equal(rec.final_iterate.stacked(), ref["iterate"])
                    assert (rec.ks, rec.gammas, rec.metrics) == (ref["ks"], ref["gammas"], ref["metrics"])

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
                            problem, trial_config(t, N, thin, averaging, given), [probe_hook])
        # Small prefetch blocks: the batch refills its draws six times in N = 25.
        monkeypatch.setattr(saps_module, "PREFETCH_ROWS", 4)
        for T in (1, 2, 5):
            for averaging in (True, False):
                for thin in (1, 3, N):
                    for given in (True, False):
                        configs = [trial_config(t, N, thin, averaging, given) for t in range(T)]
                        records = run_saps_batch(problem, configs, [probe_hook])
                        for t, rec in enumerate(records):
                            assert_same_run(rec, solo[averaging, thin, given, t])

    @pytest.mark.parametrize("T", [1, 3])
    @pytest.mark.parametrize("averaging", [True, False])
    def test_kept_hook_points_stay_valid(self, T, averaging):
        # The hook points share memory with the kernel's state; every point a
        # hook keeps must still hold its row's values after the run.
        problem = kernel_problem("bilinear", "l1")
        configs = [trial_config(t, 25, 1, averaging, False) for t in range(T)]
        seen = []
        run_saps_batch(problem, configs, [recording_hook(seen)])
        for t, cfg in enumerate(configs):
            ref = []
            scalar_reference(problem, cfg, [recording_hook(ref)])
            rows = seen[t::T]  # hooks run row by row within each recorded k
            assert len(rows) == len(ref) == 25
            for (k, z, avg), (k_ref, z_ref, avg_ref) in zip(rows, ref):
                assert k == k_ref
                assert np.array_equal(z.stacked(), z_ref.stacked())
                assert np.array_equal(avg.stacked(), avg_ref.stacked())

    def test_mismatched_settings_rejected(self):
        problem = kernel_problem("bilinear", "l1")
        with pytest.raises(ValueError):
            run_saps_batch(problem, [trial_config(0, 10, 1, True, True), trial_config(1, 11, 1, True, True)])
        with pytest.raises(ValueError):
            run_saps_batch(problem, [trial_config(0, 10, 1, True, True), trial_config(1, 10, 2, True, True)])
        assert run_saps_batch(problem, []) == []


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

    def evaluate_rows(self, X, Y, draws):
        s = super().evaluate_rows(X, Y, draws[:, :-1])
        return MinimaxSample(s.value, s.grad_x * draws[:, -1:], s.grad_y * draws[:, -1:])


class BlowUpSampler:
    """The same blow-up for an oracle that only has sample(rng, z)."""

    n = m = 3

    def __init__(self, stream, at, factor):
        self.inner = BilinearOracle(3)
        self.stream, self.at, self.factor = stream, at, factor
        self.calls = {}

    def sample(self, rng, z):
        self.calls[id(rng)] = call = self.calls.get(id(rng), 0) + 1
        s = self.inner.sample(rng, z)
        if call == self.at and rng.bit_generator.seed_seq.spawn_key == (self.stream,):
            return MinimaxSample(s.value, s.grad_x * self.factor, s.grad_y * self.factor)
        return s


class TestBatchDivergence:
    @pytest.mark.parametrize("factor", [math.nan, math.inf, 1e15])
    @pytest.mark.parametrize("form", ["rows", "sample"])
    def test_diverged_row_leaves_and_others_run_on(self, form, factor, monkeypatch):
        monkeypatch.setattr(saps_module, "PREFETCH_ROWS", 4)
        N = 20
        configs = [trial_config(t, N, 3, True, t % 2 == 0) for t in range(5)]
        stream = configs[2].stream_id

        def problem():
            oracle = BlowUpOracle(3, stream, 7, factor) if form == "rows" else BlowUpSampler(stream, 7, factor)
            return SapsProblem(oracle, ZeroFunction(), ZeroFunction())

        outcomes = run_saps_batch(problem(), configs, [probe_hook])
        with pytest.raises(DivergenceError) as solo_error:
            run_saps(problem(), configs[2], [probe_hook])
        assert isinstance(outcomes[2], DivergenceError)
        assert outcomes[2].iteration == solo_error.value.iteration == 7
        assert str(outcomes[2]) == str(solo_error.value)
        for t in (0, 1, 3, 4):
            assert_same_run(outcomes[t], run_saps(problem(), configs[t], [probe_hook]))

    def test_hook_divergence_ends_only_its_row(self):
        def hook(k, z, avg):
            if k == 6 and z.x[0] > 0.0:
                raise DivergenceError(k, f"hook rejected the iterate at iteration {k}")
            return probe_hook(k, z, avg)

        problem = kernel_problem("bilinear", "mu0")
        configs = [trial_config(t, 20, 3, True, True) for t in range(6)]
        outcomes = run_saps_batch(problem, configs, [hook])
        kinds = set()
        for config, outcome in zip(configs, outcomes):
            try:
                solo = run_saps(problem, config, [hook])
            except DivergenceError as exc:
                kinds.add("diverged")
                assert outcome.iteration == exc.iteration == 6 and str(outcome) == str(exc)
            else:
                kinds.add("finished")
                assert_same_run(outcome, solo)
        assert kinds == {"diverged", "finished"}

    def test_every_row_diverging_ends_the_batch(self):
        class Exploding:
            n = m = 1

            def sample(self, rng, z):
                return MinimaxSample(0.0, np.array([-1e13]), np.array([0.0]))

        problem = SapsProblem(Exploding(), ZeroFunction(), ZeroFunction())
        configs = [RunConfig(horizon=10, seed=0, stream_id=t, trace_thinning=1,
                             schedule=StepSchedule("const_over_sqrt_n", horizon=10)) for t in range(3)]
        outcomes = run_saps_batch(problem, configs)
        assert [o.iteration for o in outcomes] == [1, 1, 1]


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
            prob = SapsProblem(oracle, theta, theta, known_saddle=z_star)
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
