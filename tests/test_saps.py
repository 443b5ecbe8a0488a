import math

import numpy as np
import pytest

from saddle_sa import (
    BilinearEvaluator,
    BilinearOracle,
    DivergenceError,
    MinimaxSample,
    PrimalDualPoint,
    RunConfig,
    SapsProblem,
    ScaledL1,
    ScaledL2,
    PositivePartSum,
    StepSchedule,
    ZeroFunction,
    minimax_gap,
    run_saps,
    saps_step,
    streaming_average,
)


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


class TestSapsStep:
    def test_identity_prox_is_gradient_step(self):
        prob = SapsProblem(BilinearOracle(2), ZeroFunction(), ZeroFunction())
        z = PrimalDualPoint([1.0, 2.0], [3.0, 4.0])
        s = MinimaxSample(0.0, np.array([0.5, -0.5]), np.array([1.0, 0.0]))
        out = saps_step(prob, z, 0.1, s)
        np.testing.assert_allclose(out.x, [0.95, 2.05], atol=1e-15)
        np.testing.assert_allclose(out.y, [3.1, 4.0], atol=1e-15)

    def test_hand_example_bilinear_l1(self):
        # frozen xi=0.5, z=(1,1), gamma=1: grads 0.25 -> z' = (0, 0.25)
        oracle = FrozenXiOracle([0.5])
        prob = SapsProblem(oracle, ScaledL1(1.0), ScaledL1(1.0))
        z = PrimalDualPoint([1.0], [1.0])
        s = oracle.sample(None, z)
        out = saps_step(prob, z, 1.0, s)
        np.testing.assert_allclose(out.x, [0.0], atol=1e-15)
        np.testing.assert_allclose(out.y, [0.25], atol=1e-15)

    def test_saddle_is_fixed_point(self):
        # exact subgradient certificate at z* = 0 keeps the iterate at z*
        prob = SapsProblem(ExactGradientOracle(3), ScaledL1(1.0), ScaledL1(1.0))
        z_star = PrimalDualPoint(np.zeros(3), np.zeros(3))
        z = z_star
        for gamma in (0.1, 1.0, 7.3):
            z = saps_step(prob, z, gamma, prob.oracle.sample(None, z))
            assert z.allclose(z_star)

    def test_dimension_mismatch_rejected(self):
        prob = SapsProblem(BilinearOracle(2), ZeroFunction(), ZeroFunction())
        z = PrimalDualPoint([1.0, 2.0], [3.0, 4.0])
        bad = MinimaxSample(0.0, np.zeros(3), np.zeros(2))
        with pytest.raises(ValueError):
            saps_step(prob, z, 0.1, bad)

    def test_gamma_positive_required(self):
        prob = SapsProblem(BilinearOracle(1), ZeroFunction(), ZeroFunction())
        z = PrimalDualPoint([1.0], [1.0])
        with pytest.raises(ValueError):
            saps_step(prob, z, 0.0, MinimaxSample(0.0, np.zeros(1), np.zeros(1)))


class TestStreamingAverage:
    def test_equal_weights_mean(self):
        a = PrimalDualPoint([1.0], [1.0])
        b = PrimalDualPoint([3.0], [3.0])
        avg, w = streaming_average(a, 0.0, a, 1.0)
        avg, w = streaming_average(avg, w, b, 1.0)
        np.testing.assert_allclose(avg.x, [2.0], atol=1e-15)
        assert w == pytest.approx(2.0)

    def test_single_update_returns_point(self):
        z = PrimalDualPoint([4.0], [-2.0])
        avg, w = streaming_average(PrimalDualPoint([9.0], [9.0]), 0.0, z, 0.3)
        assert avg.allclose(z)
        assert w == pytest.approx(0.3)

    def test_weighted_example(self):
        z1 = PrimalDualPoint([0.0], [0.0])
        z2 = PrimalDualPoint([4.0], [4.0])
        avg, w = streaming_average(z1, 0.0, z1, 1.0)
        avg, w = streaming_average(avg, w, z2, 3.0)
        np.testing.assert_allclose(avg.x, [3.0], atol=1e-15)

    def test_matches_direct_weighted_sum(self):
        rng = np.random.default_rng(2)
        zs = [PrimalDualPoint(rng.normal(size=2), rng.normal(size=1)) for _ in range(1000)]
        gammas = rng.uniform(0.01, 2.0, size=1000)
        avg, w = zs[0], 0.0
        for z, g in zip(zs, gammas):
            avg, w = streaming_average(avg, w, z, float(g))
        direct_x = sum(g * z.x for z, g in zip(zs, gammas)) / gammas.sum()
        direct_y = sum(g * z.y for z, g in zip(zs, gammas)) / gammas.sum()
        np.testing.assert_allclose(avg.x, direct_x, rtol=1e-12)
        np.testing.assert_allclose(avg.y, direct_y, rtol=1e-12)


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
        assert cfg.schedule.gamma(1) == pytest.approx(1.0)
        rec = run_saps(prob, cfg)
        np.testing.assert_allclose(rec.iterates[1].x, [0.0], atol=1e-15)
        np.testing.assert_allclose(rec.iterates[1].y, [0.25], atol=1e-15)
        np.testing.assert_allclose(rec.final_average.x, [0.5], atol=1e-15)
        np.testing.assert_allclose(rec.final_average.y, [0.625], atol=1e-15)
        # z3 continues with the same frozen draw at z2 = (0, 0.25)
        s = oracle.sample(None, rec.iterates[1])
        expect = saps_step(prob, rec.iterates[1], 1.0, s)
        assert rec.final_iterate.allclose(expect)

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
        assert rec.metric_names() == ["d"]

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
        rec = run_saps(prob, make_config(5, thin=1, averaging=False))
        for it, avg in zip(rec.iterates, rec.averages):
            assert it.allclose(avg)


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
                for seed in range(20):
                    rec = run_saps(prob, make_config(N, seed=seed))
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
