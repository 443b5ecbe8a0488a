import math

import numpy as np
import pytest

from saddle_sa import (
    BallIndicator,
    BilinearEvaluator,
    BilinearOracle,
    BoxIndicator,
    ConicSample,
    FiniteSumMinimaxEvaluator,
    NonpositiveOrthant,
    PrimalDualPoint,
    RandomSource,
    ScaledL1,
    SecondOrderCone,
    TanhOracle,
    ZeroFunction,
    constraint_violation,
    estimate_m_star,
    kkt_errors,
    lagrangian_grad,
    minimax_gap,
    proj_kkt,
    rate_slope_fit,
    tail_tally,
)


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
            def phi(self, x, y):
                return ev.phi(x, y) + 42.0

        z = PrimalDualPoint([0.3], [-0.7])
        assert minimax_gap(Shifted(), z, z_star) == pytest.approx(minimax_gap(ev, z, z_star), rel=1e-12)


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

    def full_batch(self, x):
        return ConicSample(self.c * float(x[0]), np.array([self.c]),
                           np.array([float(x[0])]), np.array([[1.0]]))


class TestProjKkt:
    def test_zero_at_inactive_kkt_point(self):
        # min x s.t. x <= 0 over [-1,1]: optimum x=-1 (X boundary), y=0
        oracle = TinyConicOracle(1.0)
        z = PrimalDualPoint([-1.0], [0.0])
        assert proj_kkt(oracle.full_batch(z.x), oracle.cone, oracle.feasible_set, z) == pytest.approx(0.0, abs=1e-12)

    def test_zero_at_active_kkt_point(self):
        # min -x s.t. x <= 0 over [-1,1]: optimum x=0 with multiplier y=1
        oracle = TinyConicOracle(-1.0)
        z = PrimalDualPoint([0.0], [1.0])
        assert proj_kkt(oracle.full_batch(z.x), oracle.cone, oracle.feasible_set, z) == pytest.approx(0.0, abs=1e-12)

    def test_positive_away_from_kkt(self):
        oracle = TinyConicOracle(-1.0)
        z = PrimalDualPoint([0.5], [0.0])
        assert proj_kkt(oracle.full_batch(z.x), oracle.cone, oracle.feasible_set, z) > 0.4

    def test_detects_complementarity_violation(self):
        # feasible x=-1 with a positive multiplier violates complementarity
        oracle = TinyConicOracle(1.0)
        z = PrimalDualPoint([-1.0], [2.0])
        assert proj_kkt(oracle.full_batch(z.x), oracle.cone, oracle.feasible_set, z) > 0.5


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


class TestTailTally:
    def test_examples(self):
        assert tail_tally([1.0, 2.0, 3.0, 10.0], 5.0) == pytest.approx(0.25)
        assert tail_tally([1.0, 2.0], 0.5) == 1.0
        assert tail_tally([1.0, 2.0], 5.0) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tail_tally([], 1.0)


class TestEvaluators:
    def test_finite_sum_matches_manual_average(self):
        rng = RandomSource(2).generator()
        oracle = TanhOracle(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
        draws = [oracle.draw(rng) for _ in range(20)]
        theta = ScaledL1(1.0)
        ev = FiniteSumMinimaxEvaluator(oracle, draws, theta, theta)
        z = PrimalDualPoint(rng.normal(size=3), rng.normal(size=3))
        manual = np.mean([oracle.evaluate(z, d).value for d in draws])
        expect = theta.value(z.x) + manual - theta.value(z.y)
        assert ev.phi(z.x, z.y) == pytest.approx(expect, rel=1e-12)
        pooled = ev.sample(None, z)
        per_draw = [oracle.evaluate(z, d) for d in draws]
        assert pooled.value == pytest.approx(manual, rel=1e-12)
        np.testing.assert_allclose(pooled.grad_x, np.mean([s.grad_x for s in per_draw], axis=0), rtol=1e-12)
        np.testing.assert_allclose(pooled.grad_y, np.mean([s.grad_y for s in per_draw], axis=0), rtol=1e-12)

    def test_conic_lagrangian_gradient(self):
        oracle = TinyConicOracle(-1.0)
        z = PrimalDualPoint([0.3], [2.0])
        grad = lagrangian_grad(oracle.full_batch(z.x), z.y)
        # grad_x l = c + y * Dg = -1 + 2; grad_y l = g(x) = 0.3
        np.testing.assert_allclose(grad, [1.0, 0.3], atol=1e-15)


class TestEstimateMStar:
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
