import math

import numpy as np
import pytest

from conftest import recording_hook
from saddle_sa import (
    BallIndicator,
    BoxIndicator,
    ConicSample,
    ConvergenceError,
    DivergenceError,
    LsaalProblem,
    NonpositiveOrthant,
    PrimalDualPoint,
    ProblemConstants,
    RandomSource,
    RunConfig,
    StepSchedule,
    XSubproblemSpec,
    estimate_constants,
    multiplier_bound_diagnostics,
    proj_kkt,
    run_laam,
    run_lsaal,
    solve_x_subproblem,
    x_subproblem_gradient,
    x_subproblem_objective,
    y_update,
    synth_gaussian_classes,
)
from saddle_sa.oracles import NeymanPearsonOracle


def sample_1d(f_grad=1.0, g_value=0.5, dg=1.0):
    return ConicSample(0.0, np.array([f_grad]), np.array([g_value]), np.array([[dg]]))


def spec_1d(sigma=1.0, x_k=0.0, y_k=0.0, **kw):
    return XSubproblemSpec(np.array([x_k]), np.array([y_k]), sample_1d(**kw),
                           sigma, NonpositiveOrthant(1))


def run_config(N, seed=0, thin=None, initial=None):
    return RunConfig(horizon=N, seed=seed,
                     schedule=StepSchedule("const_over_sqrt_n", horizon=N),
                     trace_thinning=thin or N, initial=initial)


class TestSubproblemGradient:
    def test_interior_constraint_vanishes(self):
        # y=0 and G strictly inside the cone: polar projection is 0, so the
        # gradient at x_k is just the sampled objective gradient
        spec = spec_1d(g_value=-0.5)
        g = x_subproblem_gradient(spec, np.array([0.0]))
        np.testing.assert_allclose(g, [1.0], atol=0.0)

    def test_hand_example(self):
        # grad = 1 + P_{R+}(0.5) + 0 = 1.5
        spec = spec_1d()
        g = x_subproblem_gradient(spec, np.array([0.0]))
        np.testing.assert_allclose(g, [1.5], atol=0.0)

    def test_matches_finite_differences(self):
        rng = RandomSource(3).generator()
        for _ in range(20):
            n, m = 4, 2
            sample = ConicSample(
                0.0,
                rng.normal(size=n),
                rng.normal(size=m),
                rng.normal(size=(m, n)),
            )
            spec = XSubproblemSpec(rng.normal(size=n), np.abs(rng.normal(size=m)),
                                   sample, float(rng.uniform(0.2, 2.0)), NonpositiveOrthant(m))
            x = rng.normal(size=n)
            grad = x_subproblem_gradient(spec, x)
            fd = np.empty(n)
            h = 1e-6
            for i in range(n):
                e = np.zeros(n)
                e[i] = h
                fd[i] = (x_subproblem_objective(spec, x + e) - x_subproblem_objective(spec, x - e)) / (2 * h)
            assert np.linalg.norm(fd - grad) / max(1.0, np.linalg.norm(grad)) <= 1e-5


class TestSolveSubproblem:
    def test_zero_data_returns_warm_start(self):
        spec = XSubproblemSpec(np.array([0.3]), np.array([0.0]),
                               sample_1d(f_grad=0.0, g_value=0.0, dg=0.0),
                               1.0, NonpositiveOrthant(1))
        box = BoxIndicator(np.array([-1.0]), np.array([1.0]))
        out = solve_x_subproblem(spec, box, 1e-12, 100)
        np.testing.assert_allclose(out, [0.3], atol=1e-11)

    def test_1d_worked_instance_hits_boundary(self):
        # objective x + max(0.5+x, 0)^2/2 + x^2/2 over [-1, 1]; grid-verified
        # minimizer is the left endpoint
        spec = spec_1d()
        box = BoxIndicator(np.array([-1.0]), np.array([1.0]))
        out = solve_x_subproblem(spec, box, 1e-10, 500)
        grid = np.arange(-1.0, 1.0 + 1e-5, 1e-5)
        obj = grid + np.maximum(0.5 + grid, 0.0) ** 2 / 2.0 + grid ** 2 / 2.0
        best = grid[int(np.argmin(obj))]
        assert best == pytest.approx(-1.0, abs=1e-5)
        np.testing.assert_allclose(out, [best], atol=1e-6)

    def test_matches_closed_form_when_polar_projection_is_identity(self):
        # With K = R^2_- and the affine value positive at the solution, the
        # polar projection is the identity and the subproblem is the quadratic
        #   g.dx + |y + s(G + J dx)|^2/(2s) + |dx|^2/(2s),
        # solved in closed form via its normal equations.
        # sigma stays below ~0.85: at sigma ~ 1 the Armijo-accepted step sits
        # at the oscillation boundary of this quadratic (contraction factor
        # sigma^2 -> 1), which only crawls; production runs use sigma = 1/sqrt(N).
        rng = RandomSource(9).generator()
        for _ in range(20):
            sigma = float(rng.uniform(0.3, 0.85))
            J = np.eye(2)
            G = rng.uniform(1.0, 2.0, size=2)
            y = rng.uniform(0.5, 1.5, size=2)
            fg = rng.uniform(-0.3, 0.3, size=2)
            x_k = rng.normal(size=2) * 0.1
            sample = ConicSample(0.0, fg, G, J)
            spec = XSubproblemSpec(x_k, y, sample, sigma, NonpositiveOrthant(2))
            ball = BallIndicator(np.zeros(2), 50.0)  # effectively unconstrained
            # normal equations: (sigma I + I/sigma) dx = -(fg + y + sigma G)
            dx = np.linalg.solve((sigma + 1.0 / sigma) * np.eye(2), -(fg + y + sigma * G))
            x_expect = x_k + dx
            w = y + sigma * (G + J @ (x_expect - x_k))
            if not (w > 0.0).all():
                continue  # identity-projection assumption broke; skip draw
            out = solve_x_subproblem(spec, ball, 1e-12, 2000)
            np.testing.assert_allclose(out, x_expect, atol=1e-9)

    def test_matches_dense_grid_search_2d(self):
        # independent restatement of the subproblem objective on a refining
        # grid over the box feasible set; polar projection of R^2_- is the
        # componentwise positive part
        rng = RandomSource(15).generator()
        box = BoxIndicator(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        for _ in range(10):
            sigma = float(rng.uniform(0.2, 0.8))
            fg = rng.normal(size=2)
            G = rng.normal(size=2)
            J = rng.normal(size=(2, 2))
            y = np.abs(rng.normal(size=2))
            x_k = rng.uniform(-0.5, 0.5, size=2)
            sample = ConicSample(0.0, fg, G, J)
            spec = XSubproblemSpec(x_k, y, sample, sigma, NonpositiveOrthant(2))
            out = solve_x_subproblem(spec, box, 1e-8, 3000)

            def objective(W):
                dx = W - x_k
                lin = G[None, :] + dx @ J.T
                pw = np.maximum(y[None, :] + sigma * lin, 0.0)
                return (W @ fg - x_k @ fg
                        + (pw ** 2).sum(axis=1) / (2 * sigma)
                        + (dx ** 2).sum(axis=1) / (2 * sigma))

            lo, hi = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
            npts = 121
            while True:
                a = np.linspace(lo[0], hi[0], npts)
                b = np.linspace(lo[1], hi[1], npts)
                A, B = np.meshgrid(a, b, indexing="ij")
                W = np.column_stack([A.ravel(), B.ravel()])
                best = W[int(np.argmin(objective(W)))]
                step = (hi - lo) / (npts - 1)
                if step.max() <= 1e-5:
                    break
                lo = np.maximum(best - 4 * step, -1.0)
                hi = np.minimum(best + 4 * step, 1.0)
            np.testing.assert_allclose(out, best, atol=1e-3)

    def test_budget_exhaustion_raises(self):
        spec = XSubproblemSpec(np.array([0.0]), np.array([0.0]), sample_1d(),
                               1.0, NonpositiveOrthant(1))
        box = BoxIndicator(np.array([-1.0]), np.array([1.0]))
        with pytest.raises(ConvergenceError) as err:
            solve_x_subproblem(spec, box, 1e-16, 1)
        assert err.value.residual > 0.0


class TestYUpdate:
    def test_clip_example(self):
        cone = NonpositiveOrthant(1)
        out = y_update(cone, np.array([1.0]), 0.5,
                       sample_1d(g_value=-4.0, dg=0.0), np.array([0.0]), np.array([0.0]))
        np.testing.assert_allclose(out, [0.0], atol=0.0)

    def test_passthrough_example(self):
        cone = NonpositiveOrthant(1)
        out = y_update(cone, np.array([0.0]), 1.0,
                       sample_1d(g_value=2.0, dg=0.0), np.array([0.0]), np.array([0.0]))
        np.testing.assert_allclose(out, [2.0], atol=0.0)

    def test_continuation_of_worked_instance(self):
        # x+ = -1: y+ = P_{R+}(0 + 1*(0.5 + 1*(-1))) = 0
        cone = NonpositiveOrthant(1)
        out = y_update(cone, np.array([0.0]), 1.0, sample_1d(),
                       np.array([-1.0]), np.array([0.0]))
        np.testing.assert_allclose(out, [0.0], atol=0.0)

    def test_result_lies_in_polar_cone(self):
        rng = RandomSource(4).generator()
        cone = NonpositiveOrthant(3)
        for _ in range(50):
            sample = ConicSample(0.0, np.zeros(2), rng.normal(size=3),
                                 rng.normal(size=(3, 2)))
            out = y_update(cone, np.abs(rng.normal(size=3)), float(rng.uniform(0.1, 2.0)),
                           sample, rng.normal(size=2), rng.normal(size=2))
            assert cone.polar_contains(out, tol=1e-12)


class TestRunners:
    def test_single_iteration_average_is_first_computed_pair(self, np_instance):
        problem = LsaalProblem(np_instance, np_instance.cone, np_instance.feasible_set)
        seen = []
        rec = run_lsaal(problem, run_config(1, seed=5), [recording_hook(seen)])
        assert rec.ks == [1]
        assert rec.final_average.allclose(rec.final_iterate)
        (_, z, avg), = seen
        assert avg.allclose(z)

    def test_multipliers_stay_in_polar_cone(self, np_instance):
        problem = LsaalProblem(np_instance, np_instance.cone, np_instance.feasible_set)
        seen = []
        run_lsaal(problem, run_config(60, seed=2, thin=1), [recording_hook(seen)])
        assert len(seen) == 60
        for _, it, _ in seen:
            assert np_instance.cone.polar_contains(it.y, tol=1e-10)
            assert np_instance.feasible_set.contains(it.x, tol=1e-10)

    def test_laam_equals_lsaal_on_single_point_classes(self):
        # with one data point per class the full batch IS the only sample
        rng = np.random.default_rng(3)
        ds = synth_gaussian_classes(rng, 3, 6, 1, 1.0).normalize()
        oracle = NeymanPearsonOracle(ds, 5.0)
        problem = LsaalProblem(oracle, oracle.cone, oracle.feasible_set)
        a, b = [], []
        run_lsaal(problem, run_config(40, seed=9, thin=1), [recording_hook(a)])
        run_laam(problem, run_config(40, seed=9, thin=1), [recording_hook(b)])
        assert len(a) == len(b) == 40
        for (_, za, _), (_, zb, _) in zip(a, b):
            assert np.array_equal(za.stacked(), zb.stacked())

    def test_laam_fixed_point_at_interior_kkt(self):
        # start at the unconstrained interior minimum with strictly feasible
        # constraints: iterates stay put within inner_tol
        center = np.array([0.4, -0.2])

        class QuadraticOracle:
            dim = 2
            cone = NonpositiveOrthant(1)
            feasible_set = BallIndicator(np.zeros(2), 3.0)

            def full_batch(self, x):
                return ConicSample(
                    float(((x - center) ** 2).sum() / 2.0),
                    x - center,
                    np.array([((x - center) ** 2).sum() / 2.0 - 1.0]),
                    (x - center)[None, :],
                )

            def sample(self, rng, x):
                return self.full_batch(x)

            def slater_point(self):
                return center

        oracle = QuadraticOracle()
        problem = LsaalProblem(oracle, oracle.cone, oracle.feasible_set, inner_tol=1e-12)
        seen = []
        run_laam(problem, run_config(30, seed=0, thin=1, initial=PrimalDualPoint(center, np.zeros(1))),
                 [recording_hook(seen)])
        assert len(seen) == 30
        for _, it, _ in seen:
            np.testing.assert_allclose(it.x, center, atol=1e-9)
            np.testing.assert_allclose(it.y, np.zeros(1), atol=1e-9)

    def test_laam_kkt_residual_decreases_over_first_50_iterations(self, np_instance):
        problem = LsaalProblem(np_instance, np_instance.cone, np_instance.feasible_set,
                               sigma=1.0 / math.sqrt(50.0))
        residuals = []

        def hook(k, z, avg):
            residuals.append(proj_kkt(np_instance.full_batch(z.x), np_instance.cone,
                                      np_instance.feasible_set, z))
            return {}

        run_laam(problem, run_config(50, seed=1, thin=1), [hook])
        assert len(residuals) == 50
        for prev, cur in zip(residuals, residuals[1:]):
            assert cur <= prev * (1.0 + 1e-9), (prev, cur)

    def test_step_bound_audit(self, np_small_instance):
        oracle = np_small_instance
        rng = RandomSource(123).generator()
        constants = estimate_constants(oracle, rng, n_full=300, n_sample=200)
        problem = LsaalProblem(oracle, oracle.cone, oracle.feasible_set,
                               constants=constants, inner_tol=1e-10, inner_max_iters=2000)
        rec = run_lsaal(problem, run_config(200, seed=4))
        assert rec.final_metrics["x_step_bound_ratio_max"] <= 1.01
        assert rec.final_metrics["y_step_bound_ratio_max"] <= 1.01

    def test_sigma_defaults_to_inv_sqrt_n(self, np_instance):
        problem = LsaalProblem(np_instance, np_instance.cone, np_instance.feasible_set)
        rec = run_lsaal(problem, run_config(25, seed=0))
        assert rec.final_metrics["sigma"] == pytest.approx(0.2)
        assert rec.gammas[-1] == pytest.approx(0.2)


class CorruptingOracle:
    """Wraps an oracle; from sample call `at` on, `corrupt` edits each sample."""

    def __init__(self, oracle, at, corrupt):
        self.oracle, self.at, self.corrupt = oracle, at, corrupt
        self.dim, self.calls = oracle.dim, 0

    def sample(self, rng, x):
        self.calls += 1
        s = self.oracle.sample(rng, x)
        if self.calls < self.at:
            return s
        return self.corrupt(s)


NON_FINITE = {
    "f_grad": lambda s: ConicSample(s.f_value, np.full_like(s.f_grad, np.nan), s.g_value, s.g_jacobian),
    "g_value": lambda s: ConicSample(s.f_value, s.f_grad, s.g_value + np.inf, s.g_jacobian),
    "jacobian": lambda s: ConicSample(s.f_value, s.f_grad, s.g_value, s.g_jacobian * np.nan),
}


class TestSampleGuard:
    @pytest.mark.parametrize("field", sorted(NON_FINITE))
    def test_non_finite_sample_diverges_at_its_iteration(self, np_instance, field):
        oracle = CorruptingOracle(np_instance, 7, NON_FINITE[field])
        problem = LsaalProblem(oracle, np_instance.cone, np_instance.feasible_set)
        with pytest.raises(DivergenceError) as err:
            run_lsaal(problem, run_config(20, seed=2))
        assert err.value.iteration == 7

    def test_shape_mismatch_is_value_error(self, np_instance):
        def short_grad(s):
            return ConicSample(s.f_value, s.f_grad[:-1], s.g_value, s.g_jacobian)

        problem = LsaalProblem(CorruptingOracle(np_instance, 3, short_grad),
                               np_instance.cone, np_instance.feasible_set)
        with pytest.raises(ValueError):
            run_lsaal(problem, run_config(20, seed=2))


class TestLinearizedPolarMonotonicity:
    def test_linearized_polar_norm_never_larger(self, np_instance):
        # |P_polar(y + s G(x))|^2 >= |P_polar(y + s l_g(x))|^2 where l_g is the
        # linearization at a second point (graph convexity of the samples)
        oracle = np_instance
        rng = RandomSource(8).generator()
        cone = oracle.cone
        for _ in range(100):
            x = oracle.feasible_set.prox(1.0, rng.uniform(-6, 6, size=oracle.dim))
            xk = oracle.feasible_set.prox(1.0, rng.uniform(-6, 6, size=oracle.dim))
            y = cone.polar_project(rng.normal(size=cone.dim))
            sigma = float(rng.uniform(0.05, 1.5))
            idx = oracle.draw(rng)
            s_at_xk = oracle.evaluate(xk, idx)
            s_at_x = oracle.evaluate(x, idx)
            lin = s_at_xk.g_value + s_at_xk.g_jacobian @ (x - xk)
            lhs = np.linalg.norm(cone.polar_project(y + sigma * s_at_x.g_value)) ** 2
            rhs = np.linalg.norm(cone.polar_project(y + sigma * lin)) ** 2
            assert lhs >= rhs - 1e-8


class TestMultiplierDiagnostics:
    def worked_constants(self):
        return ProblemConstants(R=1.0, slater_margin=0.5, nu_g=1.0, kappa_f=1.0, kappa_g=1.0)

    def test_worked_example(self):
        diag = multiplier_bound_diagnostics(self.worked_constants(), sigma=1.0, s=1)
        assert diag.kappa1 == pytest.approx(2.0)
        assert diag.kappa2 == pytest.approx(8.0)
        assert diag.kappa3 == pytest.approx(4.25 + 64.0 * math.log(512.0))
        assert diag.delta1 == pytest.approx(2.0 + 8.0 + 4.25 + 64.0 * math.log(512.0))

    def test_theta_formula(self):
        c = self.worked_constants()
        sigma, s = 0.25, 4
        diag = multiplier_bound_diagnostics(c, sigma, s)
        moment = c.kappa_f + 2 * c.nu_g ** 2 + 2 * c.kappa_g ** 2 * c.R ** 2
        expect = (c.slater_margin * sigma * s / 2.0 + sigma * c.beta0 * (s - 1)
                  + c.R ** 2 / (c.slater_margin * sigma * s) + moment * sigma / c.slater_margin)
        assert diag.theta_sigma_s == pytest.approx(expect, rel=1e-12)

    def test_delta1_minimized_near_sqrt_ratio_then_increases(self):
        c = self.worked_constants()
        sigma = 1.0
        diag = multiplier_bound_diagnostics(c, sigma, 1)
        s_opt = math.sqrt(diag.kappa1 / diag.kappa3) / sigma
        values = [multiplier_bound_diagnostics(c, sigma, s).delta1 for s in range(1, 30)]
        best_s = 1 + int(np.argmin(values))
        assert abs(best_s - s_opt) <= 1.0
        tail = values[best_s - 1:]
        assert all(a <= b + 1e-12 for a, b in zip(tail, tail[1:]))

    def test_sqrt_n_combination(self):
        # sigma = 1/sqrt(N) with window s = ceil(sqrt(N)) gives sigma*s ~ 1,
        # so delta1 stays bounded as N grows
        c = self.worked_constants()
        values = []
        for N in (100, 10_000, 1_000_000):
            sigma = 1.0 / math.sqrt(N)
            s = math.isqrt(N - 1) + 1
            assert s >= math.sqrt(N) >= s - 1
            values.append(multiplier_bound_diagnostics(c, sigma, s).delta1)
        assert max(values) <= values[0] * 1.5

    def test_requires_slater_margin(self):
        c = ProblemConstants(R=1.0, nu_g=1.0, kappa_f=1.0, kappa_g=1.0)
        with pytest.raises(ValueError):
            multiplier_bound_diagnostics(c, 1.0, 1)

    def test_rejects_bad_sigma_and_s(self):
        c = self.worked_constants()
        with pytest.raises(ValueError):
            multiplier_bound_diagnostics(c, 0.0, 1)
        with pytest.raises(ValueError):
            multiplier_bound_diagnostics(c, 1.0, 0)


class TestEstimateConstants:
    def test_estimates_dominate_observed_run(self, np_small_instance):
        oracle = np_small_instance
        rng = RandomSource(5).generator()
        constants = estimate_constants(oracle, rng, n_full=200, n_sample=150)
        assert constants.estimated
        assert constants.R == pytest.approx(10.0 * math.sqrt(2.0))  # two balls of radius 5
        env = oracle.envelope_constants()
        assert constants.nu_g <= env["nu_g"] + 1e-9
        assert constants.kappa_f <= env["kappa_f"] + 1e-9
        assert constants.kappa_g <= env["kappa_g"] + 1e-9
        assert constants.slater_margin == pytest.approx(1.0 - math.log(2.0), rel=1e-12)

    def test_margin_matches_interior_distance(self, np_instance):
        rng = RandomSource(6).generator()
        constants = estimate_constants(np_instance, rng, n_full=50, n_sample=50)
        assert constants.slater_margin == pytest.approx(2.0 * (1.0 - math.log(2.0)), rel=1e-12)
