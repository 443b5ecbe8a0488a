import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import evaluate_one, reference_minimax_gap, scalar_evaluate
from saddle_sa import (
    BallIndicator,
    BilinearEvaluator,
    BilinearOracle,
    BoxIndicator,
    ConicSample,
    FiniteSumMinimaxEvaluator,
    NonpositiveOrthant,
    PositivePartSum,
    PrimalDualPoint,
    RandomSource,
    RunConfig,
    SapsProblem,
    ScaledL1,
    ScaledL2,
    SecondOrderCone,
    StepSchedule,
    TanhOracle,
    ZeroFunction,
    constraint_violation,
    estimate_m_star,
    kkt_errors,
    lagrangian_grad,
    minimax_gap,
    proj_kkt,
    rate_slope_fit,
    run_saps,
    tail_tally,
)
from saddle_sa.metrics import _minimax_gap_rows


class TestMinimaxGap:
    def make(self):
        oracle = BilinearOracle(1)
        theta = ScaledL1(1.0)
        return BilinearEvaluator(oracle, theta, theta), PrimalDualPoint([0.0], [0.0])

    def test_zero_at_saddle(self):
        ev, z_star = self.make()
        assert minimax_gap(ev, z_star, z_star) == pytest.approx(0.0, abs=1e-15)

    def test_hand_example(self):
        # phi(x,y) = |x| + xy/3 - |y|; phi(1,0) - phi(0,1) = 1 - (-1) = 2
        ev, z_star = self.make()
        z = PrimalDualPoint([1.0], [1.0])
        assert minimax_gap(ev, z, z_star) == pytest.approx(2.0, rel=1e-12)

    def test_invariant_to_constant_shift(self):
        ev, z_star = self.make()

        class Shifted:
            def _phi_rows(self, X, Y):
                return ev._phi_rows(X, Y) + 42.0

        z = PrimalDualPoint([0.3], [-0.7])
        assert minimax_gap(Shifted(), z, z_star) == pytest.approx(minimax_gap(ev, z, z_star), rel=1e-12)

    @pytest.mark.parametrize("n", [1, 3, 9, 17])
    @pytest.mark.parametrize("theta", [ZeroFunction(), ScaledL1(0.7), ScaledL2(0.7), PositivePartSum(0.7)],
                             ids=["zero", "l1", "l2", "max"])
    def test_rows_match_one_point_formula_bit_for_bit(self, theta, n):
        rng = np.random.default_rng(n)
        oracle = BilinearOracle(n)
        ev = BilinearEvaluator(oracle, theta, theta)
        P = np.concatenate([scale * rng.normal(size=(30, 2 * n)) for scale in (1e-8, 1.0, 1e6)])
        P[0], P[1] = 0.0, -0.0
        for z_star in (PrimalDualPoint(np.zeros(n), np.zeros(n)),
                       PrimalDualPoint(rng.normal(size=n), rng.normal(size=n))):
            gaps = _minimax_gap_rows(ev, P, z_star)
            expect = np.array([reference_minimax_gap(oracle.Q, theta, theta, p[:n], p[n:], z_star.x, z_star.y)
                               for p in P])
            assert_same_bits(gaps, expect)
            for p, gap in zip(P[:10], gaps):
                assert_same_bits(minimax_gap(ev, PrimalDualPoint(p[:n], p[n:]), z_star), gap)


def grad_norms(trace):
    """Gradient norms of the linear Lagrangian l with grad l(z) = z."""
    return [float(np.linalg.norm(z.stacked())) for z in trace]


class TestKktErrors:
    def test_ratio(self):
        trace = grad_norms([PrimalDualPoint([4.0], [0.0]), PrimalDualPoint([1.0], [0.0])])
        out = kkt_errors(trace, trace)
        assert out.rerror == pytest.approx(0.25)

    def test_constant_trace_is_one(self):
        z = PrimalDualPoint([2.0], [1.0])
        out = kkt_errors(grad_norms([z, z, z]), grad_norms([z, z, z]))
        assert out.rerror == pytest.approx(1.0)
        assert out.raerror == pytest.approx(1.0)

    def test_exact_kkt_point_gives_zero(self):
        trace = grad_norms([PrimalDualPoint([1.0], [0.0]), PrimalDualPoint([0.0], [0.0])])
        assert kkt_errors(trace, trace).rerror == pytest.approx(0.0)

    def test_degenerate_start_rejected(self):
        z0 = PrimalDualPoint([0.0], [0.0])
        with pytest.raises(ValueError):
            kkt_errors(grad_norms([z0]), grad_norms([z0]))
        with pytest.raises(ValueError):
            kkt_errors([], [1.0])

    def test_rerror_nonincreasing_as_trace_extends(self):
        rng = RandomSource(3).generator()
        trace = grad_norms([PrimalDualPoint(rng.normal(size=2), rng.normal(size=1)) for _ in range(20)])
        values = [kkt_errors(trace[:k], trace[:k]).rerror for k in range(1, 21)]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    def test_matches_inline_formulas_exactly(self):
        # the formulas the CLI wrote to aggregate.csv before kkt_errors took norms
        rng = RandomSource(5).generator()
        base = float(rng.uniform(0.5, 2.0))
        raw_norms = rng.uniform(0.0, 3.0, size=37).tolist()
        avg_norms = rng.uniform(0.0, 3.0, size=37).tolist()
        out = kkt_errors([base] + raw_norms, avg_norms)
        assert out.rerror == min([base] + raw_norms) / base
        assert out.raerror == float(np.mean([v / base for v in avg_norms]))


class TestConstraintViolation:
    def test_orthant(self):
        assert constraint_violation(NonpositiveOrthant(2), np.array([-1.0, 2.0])) == pytest.approx(2.0)

    def test_member_is_zero(self):
        assert constraint_violation(NonpositiveOrthant(2), np.array([-1.0, -2.0])) == 0.0

    def test_soc_example(self):
        assert constraint_violation(SecondOrderCone(3), np.array([3.0, 0.0, 1.0])) == pytest.approx(math.sqrt(2.0))


class TinyConicOracle:
    """min c.x over X = [-1,1], s.t. x <= 0; full batch only."""

    def __init__(self, c):
        self.c = float(c)
        self.dim = 1
        self.cone = NonpositiveOrthant(1)
        self.feasible_set = BoxIndicator(np.array([-1.0]), np.array([1.0]))

    def full_batch_rows(self, X):
        K = len(X)
        return ConicSample(self.c * X[:, 0], np.full((K, 1), self.c), X.copy(), np.ones((K, 1, 1)))


class TestProjKkt:
    def test_zero_at_inactive_kkt_point(self):
        # min x s.t. x <= 0 over [-1,1]: optimum x=-1 (X boundary), y=0
        oracle = TinyConicOracle(1.0)
        z = PrimalDualPoint([-1.0], [0.0])
        assert proj_kkt(oracle, z) == pytest.approx(0.0, abs=1e-12)

    def test_zero_at_active_kkt_point(self):
        # min -x s.t. x <= 0 over [-1,1]: optimum x=0 with multiplier y=1
        oracle = TinyConicOracle(-1.0)
        z = PrimalDualPoint([0.0], [1.0])
        assert proj_kkt(oracle, z) == pytest.approx(0.0, abs=1e-12)

    def test_positive_away_from_kkt(self):
        oracle = TinyConicOracle(-1.0)
        z = PrimalDualPoint([0.5], [0.0])
        assert proj_kkt(oracle, z) > 0.4

    def test_detects_complementarity_violation(self):
        # feasible x=-1 with a positive multiplier violates complementarity
        oracle = TinyConicOracle(1.0)
        z = PrimalDualPoint([-1.0], [2.0])
        assert proj_kkt(oracle, z) > 0.5


class TestRateSlopeFit:
    def test_exact_inverse_sqrt(self):
        pts = [(1, 2.0), (4, 1.0), (16, 0.5)]
        fit = rate_slope_fit(pts)
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0)

    def test_constant_series(self):
        fit = rate_slope_fit([(1, 3.0), (10, 3.0), (100, 3.0)])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0)

    def test_exact_inverse(self):
        fit = rate_slope_fit([(2, 1.0), (4, 0.5), (8, 0.25)])
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)

    def test_requires_three_distinct_positive(self):
        with pytest.raises(ValueError):
            rate_slope_fit([(1, 1.0), (2, 0.5)])
        with pytest.raises(ValueError):
            rate_slope_fit([(1, 1.0), (1, 0.5), (2, 0.25)])
        with pytest.raises(ValueError):
            rate_slope_fit([(1, 1.0), (2, 0.0), (4, 0.25)])

    @pytest.mark.parametrize("points", [
        [(1, 1.0), (2, math.nan), (4, 0.25)],
        [(math.nan, 1.0), (2, 0.5), (4, 0.25)],
        [(1, 1.0), (2, math.inf), (4, 0.25)],
        [(1, 1.0), (2, 0.5), (math.inf, 0.25)],
    ], ids=["nan_error", "nan_N", "inf_error", "inf_N"])
    def test_nan_rejected(self, points):
        with pytest.raises(ValueError, match="positive and finite"):
            rate_slope_fit(points)


class TestTailTally:
    def test_examples(self):
        assert tail_tally([1.0, 2.0, 3.0, 10.0], 5.0) == pytest.approx(0.25)
        assert tail_tally([1.0, 2.0], 0.5) == 1.0
        assert tail_tally([1.0, 2.0], 5.0) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tail_tally([], 1.0)


def two_matvec_pool_mean(pool, x, y):
    """The pool-mean step (-grad_x | grad_y) at one point over a signed tanh
    pool, as two matrix-vector products per block on its strided views."""
    s1, s2 = pool[:, 0, :], pool[:, 1, :]
    a, b = np.tanh(s1 @ x), np.tanh(s2 @ y)
    k = pool.shape[0]
    grad_x = s1.T @ ((a * a - 1.0) * b) / k
    grad_y = s2.T @ (a * (b * b - 1.0)) / k
    return np.concatenate((-grad_x, grad_y))


def assert_same_bits(a, b):
    assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestEvaluators:
    def test_finite_sum_matches_manual_average(self):
        rng = RandomSource(2).generator()
        oracle = TanhOracle(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
        draws = [oracle.draws(rng, 1)[0] for _ in range(20)]
        theta = ScaledL1(1.0)
        ev = FiniteSumMinimaxEvaluator(oracle, draws, theta, theta)
        z = PrimalDualPoint(rng.normal(size=3), rng.normal(size=3))
        per_draw = [evaluate_one(oracle, z, d) for d in draws]
        manual = np.mean([s.value for s in per_draw])
        expect = theta.value(z.x) + manual - theta.value(z.y)
        assert ev.phi(z.x, z.y) == pytest.approx(expect, rel=1e-12)
        pooled = ev.directions(z.stacked()[None], ev.draws(None, 1))[0]
        np.testing.assert_allclose(-pooled[:3], np.mean([s.grad_x for s in per_draw], axis=0), rtol=1e-12)
        np.testing.assert_allclose(pooled[3:], np.mean([s.grad_y for s in per_draw], axis=0), rtol=1e-12)

    @pytest.mark.parametrize("theta", [ScaledL1(0.7), ScaledL2(0.7), PositivePartSum(0.7)], ids=["l1", "l2", "max"])
    def test_finite_sum_rows_match_one_point_phi(self, theta):
        rng = RandomSource(4).generator()
        oracle = TanhOracle(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
        ev = FiniteSumMinimaxEvaluator(oracle, oracle.draws(rng, 40), theta, theta)
        P = rng.normal(size=(12, 6)) * 3.0
        P[0] = 0.0
        rows = ev._phi_rows(P[:, :3], P[:, 3:])
        assert rows.shape == (12,)
        for p, value in zip(P, rows):
            assert_same_bits(ev.phi(p[:3], p[3:]), value)
            one = float(np.mean(oracle.values(p[None], ev.pool)))  # one point against the whole pool
            assert_same_bits(theta.value(p[:3]) + one - theta.value(p[3:]), value)

    def test_finite_sum_serves_saps_and_m_star_without_an_initial_point(self):
        # The evaluator has its oracle's n and m, so run_saps can draw the
        # default start and estimate_m_star can size its points.
        rng = RandomSource(11).generator()
        oracle = TanhOracle(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
        theta = ScaledL1(0.5)
        ev = FiniteSumMinimaxEvaluator(oracle, oracle.draws(rng, 50), theta, theta)
        assert (ev.n, ev.m) == (oracle.n, oracle.m) == (3, 3)
        problem = SapsProblem(ev, theta, theta)
        config = RunConfig(horizon=10, seed=0, schedule=StepSchedule("inv_sqrt_k"))
        record = run_saps(problem, config)
        # The default start is the stream's first draw, as for any SAPS oracle.
        v = config.random_source().generator().uniform(-1.0, 1.0, size=6)
        again = run_saps(problem, replace(config, initial=PrimalDualPoint(v[:3], v[3:])))
        assert np.array_equal(record.final_average.stacked(), again.final_average.stacked())
        m_star = estimate_m_star(ev, theta, theta, RandomSource(12).generator(), n_points=20, n_draws=5)
        assert 0.0 < m_star < math.inf

    @pytest.mark.parametrize("T", [1, 3])
    def test_finite_sum_rows_equal_sample_bit_for_bit(self, T):
        rng = RandomSource(6).generator()
        oracle = TanhOracle(rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4))
        theta = ScaledL1(1.0)
        ev = FiniteSumMinimaxEvaluator(oracle, oracle.draws(rng, 500), theta, theta)
        draw_rng = RandomSource(7).generator()
        state = draw_rng.bit_generator.state
        for _ in range(50):
            Z = rng.uniform(-2, 2, (T, 8))
            empty = ev.draws(draw_rng, T)
            assert empty.shape == (T, 0)
            rows = ev.directions(Z, empty)
            assert rows.shape == (T, 8)
            for t in range(T):
                assert_same_bits(rows[t], two_matvec_pool_mean(ev.pool, Z[t, :4], Z[t, 4:]))
        assert draw_rng.bit_generator.state == state  # the evaluator's draws use no randomness

    def test_finite_sum_step_is_kept_per_distinct_iterate(self, monkeypatch):
        # One kept step, keyed on the iterate's bits: a repeat returns it, any
        # other iterate (a zero of the other sign, another shape) recomputes.
        rng = RandomSource(9).generator()
        oracle = TanhOracle(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
        ev = FiniteSumMinimaxEvaluator(oracle, oracle.draws(rng, 50), ScaledL1(1.0), ScaledL1(1.0))
        calls = []
        mean_directions = TanhOracle.mean_directions

        def counted(self, Z, pool):
            calls.append(Z.shape)
            return mean_directions(self, Z, pool)

        monkeypatch.setattr(TanhOracle, "mean_directions", counted)
        Z1 = rng.uniform(-1, 1, (1, 6))
        Z1[0, 1] = 0.0
        Z2 = rng.uniform(-1, 1, (1, 6))
        flipped = Z1.copy()
        flipped[0, 1] = -0.0
        stack = np.concatenate((Z1, Z2))
        sequence = [Z1, Z1.copy(), Z2, Z1, flipped, stack, stack[:1]]
        for Z in sequence:
            step = ev.directions(Z, ev.draws(None, len(Z)))
            assert_same_bits(step, mean_directions(oracle, Z, ev.pool))
            with pytest.raises(ValueError):
                step[0, 0] = 1.0
        assert calls == [(1, 6), (1, 6), (1, 6), (1, 6), (2, 6), (1, 6)]

    @pytest.mark.parametrize("T", [1, 2, 5])
    def test_batched_pool_mean_equals_two_matvec_form(self, T):
        # 1,000 points per batch size; every fifth row has x = 0 (a = 0 for
        # every draw) and every seventh y = 0 (b = 0), so whole sums are zeros.
        rng = RandomSource(8).generator()
        oracle = TanhOracle(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
        pool = oracle.draws(rng, 500)
        Z = rng.normal(size=(1000, 6)) * rng.choice([0.1, 1.0, 10.0], size=(1000, 1))
        Z[::5, :3] = 0.0
        Z[::7, 3:] = 0.0
        for lo in range(0, 1000, T):
            rows = oracle.mean_directions(Z[lo:lo + T], pool)
            for t, z in enumerate(Z[lo:lo + T]):
                assert_same_bits(rows[t], two_matvec_pool_mean(pool, z[:3], z[3:]))

    def test_conic_lagrangian_gradient(self):
        oracle = TinyConicOracle(-1.0)
        z = PrimalDualPoint([0.3], [2.0])
        grad = lagrangian_grad(oracle, z)
        # grad_x l = c + y * Dg = -1 + 2; grad_y l = g(x) = 0.3
        np.testing.assert_allclose(grad, [1.0, 0.3], atol=1e-15)


def per_draw_m_star(oracle, theta, omega, rng, n_points, n_draws, radius):
    """estimate_m_star with one draw and one 1-D evaluation at a time."""
    n, m = oracle.n, oracle.m
    worst = 0.0
    for _ in range(n_points):
        v = rng.uniform(-radius, radius, size=n + m)
        z = PrimalDualPoint(v[:n], v[n:])
        vx, vy = theta.subgradient(z.x), omega.subgradient(z.y)
        acc = 0.0
        for _ in range(n_draws):
            _, gx, gy = scalar_evaluate(oracle, z, oracle.draws(rng, 1)[0])
            dx, dy = vx + gx, vy - gy
            acc += float(dx @ dx + dy @ dy)
        worst = max(worst, acc / n_draws)
    return math.sqrt(worst)


class TestEstimateMStar:
    @pytest.mark.parametrize("kind", ["bilinear", "tanh"])
    @pytest.mark.parametrize("theta", [ScaledL1(1.0), ScaledL2(0.5), ZeroFunction()], ids=["l1", "l2", "zero"])
    def test_row_form_matches_per_draw_loop_exactly(self, kind, theta):
        rng = RandomSource(9).generator()
        oracle = BilinearOracle(3) if kind == "bilinear" else TanhOracle(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
        rows_rng, loop_rng = RandomSource(10).generator(), RandomSource(10).generator()
        got = estimate_m_star(oracle, theta, theta, rows_rng, n_points=40, n_draws=50, radius=2.0)
        assert got == per_draw_m_star(oracle, theta, theta, loop_rng, 40, 50, 2.0)
        assert rows_rng.bit_generator.state == loop_rng.bit_generator.state

    def test_upper_bounds_typical_draws(self):
        oracle = BilinearOracle(2)
        theta = ScaledL1(1.0)
        rng = RandomSource(3).generator()
        m_star = estimate_m_star(oracle, theta, theta, rng, n_points=50, n_draws=20, radius=2.0)
        # every term is bounded: |v| <= mu*sqrt(n) per block, |G| <= |xi||xi.z|
        assert 0.0 < m_star < 50.0
        # reproducible under the same stream
        rng2 = RandomSource(3).generator()
        again = estimate_m_star(oracle, theta, theta, rng2, n_points=50, n_draws=20, radius=2.0)
        assert m_star == pytest.approx(again)
