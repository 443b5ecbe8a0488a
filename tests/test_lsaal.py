import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (
    Subproblem,
    assert_kept_points_seen,
    conic_evaluate,
    point_hook,
    recording_hook,
    solve_subproblem,
)
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
    estimate_constants,
    multiplier_bound_diagnostics,
    proj_kkt,
    run_laam,
    run_lsaal,
    run_lsaal_batch,
    synth_gaussian_classes,
)
from saddle_sa import core as core_module
from saddle_sa.oracles import NeymanPearsonOracle


def sample_1d(f_grad=1.0, g_value=0.5, dg=1.0):
    return ConicSample(0.0, np.array([f_grad]), np.array([g_value]), np.array([[dg]]))


def spec_1d(sigma=1.0, x_k=0.0, y_k=0.0, **kw):
    return Subproblem(np.array([x_k]), np.array([y_k]), sample_1d(**kw),
                      sigma, NonpositiveOrthant(1))


def multiplier_step(spec, x):
    """The solver's multiplier step P_polar(y_k + sigma*(G + DG (x - x_k))),
    with the unchecked polar projection."""
    s = spec.sample
    return spec.cone._polar_project(spec.y_k + spec.sigma * (s.g_value + s.g_jacobian @ (x - spec.x_k)))


def subproblem_gradient(spec, x):
    """grad F + DG^T y(x) + (x - x_k)/sigma: the multiplier step is the
    gradient of the squared polar-projection term before DG^T is applied."""
    s = spec.sample
    return s.f_grad + s.g_jacobian.T @ multiplier_step(spec, x) + (x - spec.x_k) / spec.sigma


def run_config(N, seed=0, thin=None, initial=None):
    return RunConfig(horizon=N, seed=seed,
                     schedule=StepSchedule("const_over_sqrt_n"),
                     trace_thinning=thin or N, initial=initial)


class TestSubproblemGradient:
    def test_interior_constraint_vanishes(self):
        # y=0 and G strictly inside the cone: polar projection is 0, so the
        # gradient at x_k is just the sampled objective gradient
        spec = spec_1d(g_value=-0.5)
        g = subproblem_gradient(spec, np.array([0.0]))
        np.testing.assert_allclose(g, [1.0], atol=0.0)

    def test_hand_example(self):
        # grad = 1 + P_{R+}(0.5) + 0 = 1.5
        spec = spec_1d()
        g = subproblem_gradient(spec, np.array([0.0]))
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
            spec = Subproblem(rng.normal(size=n), np.abs(rng.normal(size=m)),
                              sample, float(rng.uniform(0.2, 2.0)), NonpositiveOrthant(m))
            x = rng.normal(size=n)
            grad = subproblem_gradient(spec, x)
            fd = np.empty(n)
            h = 1e-6
            for i in range(n):
                e = np.zeros(n)
                e[i] = h
                fd[i] = (reference_objective(spec, x + e) - reference_objective(spec, x - e)) / (2 * h)
            assert np.linalg.norm(fd - grad) / max(1.0, np.linalg.norm(grad)) <= 1e-5


class TestSolveSubproblem:
    def test_zero_data_returns_warm_start(self):
        spec = Subproblem(np.array([0.3]), np.array([0.0]),
                          sample_1d(f_grad=0.0, g_value=0.0, dg=0.0),
                          1.0, NonpositiveOrthant(1))
        box = BoxIndicator(np.array([-1.0]), np.array([1.0]))
        out, _ = solve_subproblem(spec, box, 1e-12, 100)
        np.testing.assert_allclose(out, [0.3], atol=1e-11)

    def test_1d_worked_instance_hits_boundary(self):
        # objective x + max(0.5+x, 0)^2/2 + x^2/2 over [-1, 1]; grid-verified
        # minimizer is the left endpoint
        spec = spec_1d()
        box = BoxIndicator(np.array([-1.0]), np.array([1.0]))
        out, _ = solve_subproblem(spec, box, 1e-10, 500)
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
        rng = RandomSource(9).generator()
        for _ in range(20):
            sigma = float(rng.uniform(0.3, 0.85))
            J = np.eye(2)
            G = rng.uniform(1.0, 2.0, size=2)
            y = rng.uniform(0.5, 1.5, size=2)
            fg = rng.uniform(-0.3, 0.3, size=2)
            x_k = rng.normal(size=2) * 0.1
            sample = ConicSample(0.0, fg, G, J)
            spec = Subproblem(x_k, y, sample, sigma, NonpositiveOrthant(2))
            ball = BallIndicator(np.zeros(2), 50.0)  # effectively unconstrained
            # normal equations: (sigma I + I/sigma) dx = -(fg + y + sigma G)
            dx = np.linalg.solve((sigma + 1.0 / sigma) * np.eye(2), -(fg + y + sigma * G))
            x_expect = x_k + dx
            w = y + sigma * (G + J @ (x_expect - x_k))
            if not (w > 0.0).all():
                continue  # identity-projection assumption broke; skip draw
            out, _ = solve_subproblem(spec, ball, 1e-12, 2000)
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
            spec = Subproblem(x_k, y, sample, sigma, NonpositiveOrthant(2))
            out, _ = solve_subproblem(spec, box, 1e-8, 3000)

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
        # An active constraint over a disc: the projection onto the circle is
        # not affine, so one Newton step from y_k = 0 leaves a residual.
        sample = ConicSample(0.0, np.array([-1.0, -1.0]), np.array([0.5]), np.array([[1.0, 1.0]]))
        spec = Subproblem(np.zeros(2), np.array([0.0]), sample, 10.0, NonpositiveOrthant(1))
        disc = BallIndicator(np.zeros(2), 1.0)
        with pytest.raises(ConvergenceError) as err:
            solve_subproblem(spec, disc, 1e-12, 1)
        assert err.value.residual > 1e-12
        x, y = solve_subproblem(spec, disc, 1e-12, 50)
        assert np.array_equal(y, multiplier_step(spec, x))


def reference_multiplier(spec, x):
    """The closed-form multiplier step P_polar(y_k + sigma*(G + DG (x - x_k)))."""
    s = spec.sample
    return spec.cone.polar_project(spec.y_k + spec.sigma * (s.g_value + s.g_jacobian @ (x - spec.x_k)))


def reference_objective(spec, x):
    """The subproblem objective, up to an additive constant."""
    dx = x - spec.x_k
    pw = reference_multiplier(spec, x)
    return (
        float(spec.sample.f_grad @ dx)
        + float(pw @ pw) / (2.0 * spec.sigma)
        + float(dx @ dx) / (2.0 * spec.sigma)
    )


def random_neyman_pearson_subproblems(m):
    """32 random subproblems on an m-class Neyman-Pearson instance, 8 each at
    sigma = 1/sqrt(250), 1/sqrt(4000), 1 and 10, with a Newton budget: at the
    horizons' sigma = 1/sqrt(N) local convergence ends each solve within 3
    steps."""
    rng = np.random.default_rng(80 + m)
    oracle = NeymanPearsonOracle(synth_gaussian_classes(rng, m, 5, 15, 1.5), 3.0)
    for sigma in (1 / math.sqrt(250), 1 / math.sqrt(4000), 1.0, 10.0):
        for _ in range(8):
            x_k = oracle.feasible_set.prox(1.0, rng.normal(size=oracle.dim) * 2.0)
            y_k = np.maximum(rng.normal(size=m - 1), 0.0) * 2.0
            sample = conic_evaluate(oracle, x_k, oracle.draws(rng, 1)[0])
            spec = Subproblem(x_k, y_k, sample, sigma, oracle.cone)
            yield oracle.feasible_set, spec, 3 if sigma < 0.1 else 200


class TestSolverMatchesReference:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_random_neyman_pearson_subproblems_bit_for_bit(self, m):
        # The returned multiplier is bit for bit the closed-form multiplier
        # step at the returned x, and a solve from equal copies of the spec
        # returns the same bits.
        for feasible, spec, budget in random_neyman_pearson_subproblems(m):
            x, y = solve_subproblem(spec, feasible, 1e-8, budget)
            assert np.array_equal(y, reference_multiplier(spec, x))
            twin = Subproblem(spec.x_k.copy(), spec.y_k.copy(), spec.sample,
                              spec.sigma, spec.cone)
            x2, y2 = solve_subproblem(twin, feasible, 1e-8, budget)
            assert np.array_equal(x2, x) and np.array_equal(y2, y)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_random_neyman_pearson_subproblems_meet_kkt_conditions(self, m):
        # The solution pair (x, y) satisfies the subproblem's KKT conditions:
        # y is the closed-form multiplier step at x, and x is the projected
        # point of the proximal Lagrangian step at y, that is the fixed point
        # x = P_X(x - s*(grad F + DG^T y + (x - x_k)/sigma)) for every s > 0
        # (s = sigma gives x = P_X(x_k - sigma*(grad F + DG^T y))). The dual
        # residual bound inner_tol moves x by at most sigma*||DG||*inner_tol
        # from the exact fixed point, and the fixed-point residual at step s
        # by at most (2 + s/sigma) times that.
        tol, active = 1e-8, 0
        for feasible, spec, budget in random_neyman_pearson_subproblems(m):
            sample, sigma = spec.sample, spec.sigma
            x, y = solve_subproblem(spec, feasible, tol, budget)
            assert feasible.contains(x, tol=1e-12)
            assert np.array_equal(y, reference_multiplier(spec, x))
            active += bool((y > 0.0).any())
            moved = sigma * np.linalg.norm(sample.g_jacobian, 2) * tol
            lagrangian_step = sample.f_grad + sample.g_jacobian.T @ y + (x - spec.x_k) / sigma
            for s in (sigma, 0.1 * sigma):
                residual = np.linalg.norm(x - feasible.prox(1.0, x - s * lagrangian_step))
                assert residual <= (2.0 + s / sigma) * moved + 1e-12, (sigma, s, residual)
        assert active > 0  # some multipliers are active, so the coupling is tested

    def test_result_is_writable_and_writable_points_are_not_remembered(self, np_instance):
        # The spec keeps no state between calls: a point changed in place
        # is evaluated afresh, and so is a read-only point.
        rng = np.random.default_rng(5)
        x_k = np_instance.feasible_set.prox(1.0, rng.normal(size=np_instance.dim))
        sample = conic_evaluate(np_instance, x_k, np_instance.draws(rng, 1)[0])
        spec = Subproblem(x_k, np.ones(np_instance.cone.dim), sample, 0.1, np_instance.cone)
        out, y = solve_subproblem(spec, np_instance.feasible_set, 1e-8, 500)
        assert out.flags.writeable and y.flags.writeable
        assert out is not spec.x_k
        multiplier_step(spec, out)
        out += 0.5
        frozen = out - 0.25
        frozen.flags.writeable = False
        for point in (out, frozen):
            assert np.array_equal(multiplier_step(spec, point), reference_multiplier(spec, point))


class TestYUpdate:
    """The multiplier step y(x) = P_polar(y_k + sigma*(G + DG (x - x_k))) that
    the solver returns with its solution."""

    def test_clip_example(self):
        spec = spec_1d(sigma=0.5, y_k=1.0, g_value=-4.0, dg=0.0)
        np.testing.assert_allclose(multiplier_step(spec, np.array([0.0])), [0.0], atol=0.0)

    def test_passthrough_example(self):
        spec = spec_1d(g_value=2.0, dg=0.0)
        np.testing.assert_allclose(multiplier_step(spec, np.array([0.0])), [2.0], atol=0.0)

    def test_continuation_of_worked_instance(self):
        # x+ = -1: y+ = P_{R+}(0 + 1*(0.5 + 1*(-1))) = 0
        np.testing.assert_allclose(multiplier_step(spec_1d(), np.array([-1.0])), [0.0], atol=0.0)

    def test_result_lies_in_polar_cone(self):
        rng = RandomSource(4).generator()
        cone = NonpositiveOrthant(3)
        for _ in range(50):
            sample = ConicSample(0.0, np.zeros(2), rng.normal(size=3),
                                 rng.normal(size=(3, 2)))
            y_k, sigma = np.abs(rng.normal(size=3)), float(rng.uniform(0.1, 2.0))
            x_next, x_k = rng.normal(size=2), rng.normal(size=2)
            out = multiplier_step(Subproblem(x_k, y_k, sample, sigma, cone), x_next)
            assert cone.polar_contains(out, tol=1e-12)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
    def test_sigma_must_be_positive_and_finite(self, sigma):
        # The step's sigma comes from LsaalProblem, which owns its rule.
        box = BoxIndicator(np.array([-1.0]), np.array([1.0]))
        with pytest.raises(ValueError, match="positive and finite"):
            LsaalProblem(SimpleNamespace(cone=NonpositiveOrthant(1), feasible_set=box), sigma=sigma)

    @pytest.mark.parametrize("inner_tol", [0.0, -1.0, math.nan, math.inf])
    def test_inner_tol_must_be_positive_and_finite(self, inner_tol):
        # inner_tol = inf would end every subproblem at its warm start.
        box = BoxIndicator(np.array([-1.0]), np.array([1.0]))
        with pytest.raises(ValueError, match="positive and finite"):
            LsaalProblem(SimpleNamespace(cone=NonpositiveOrthant(1), feasible_set=box), inner_tol=inner_tol)


class TestRunners:
    def test_single_iteration_average_is_first_computed_pair(self, np_instance):
        problem = LsaalProblem(np_instance)
        seen = []
        rec = run_lsaal(problem, run_config(1, seed=5), [recording_hook(seen)])
        assert rec.ks == [1]
        assert rec.final_average.allclose(rec.final_iterate)
        (_, z, avg), = seen
        assert avg.allclose(z)

    def test_multipliers_stay_in_polar_cone(self, np_instance):
        problem = LsaalProblem(np_instance)
        seen = []
        run_lsaal(problem, run_config(60, seed=2, thin=1), [recording_hook(seen)])
        assert len(seen) == 60
        for _, it, _ in seen:
            assert np_instance.cone.polar_contains(it.y, tol=1e-10)
            assert np_instance.feasible_set.contains(it.x, tol=1e-10)

    @pytest.mark.parametrize("runner", [run_lsaal, run_laam], ids=["lsaal", "laam"])
    def test_runs_without_a_schedule(self, np_instance, runner):
        # The runners step by sigma and record it as the row's gamma.
        problem = LsaalProblem(np_instance)
        scheduled = runner(problem, run_config(30, seed=3, thin=5))
        config = replace(run_config(30, seed=3, thin=5), schedule=None)
        unscheduled = runner(problem, config)
        assert (unscheduled.ks, unscheduled.gammas) == (scheduled.ks, scheduled.gammas)
        assert np.array_equal(unscheduled.final_average.stacked(), scheduled.final_average.stacked())
        assert np.array_equal(unscheduled.final_iterate.stacked(), scheduled.final_iterate.stacked())

    def test_laam_equals_lsaal_on_single_point_classes(self):
        # with one data point per class the full batch IS the only sample
        rng = np.random.default_rng(3)
        ds = synth_gaussian_classes(rng, 3, 6, 1, 1.0).normalize()
        oracle = NeymanPearsonOracle(ds, 5.0)
        problem = LsaalProblem(oracle)
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

            def full_batch_rows(self, X):
                D = X - center
                half_sq = (D ** 2).sum(axis=1) / 2.0
                return ConicSample(half_sq, D, half_sq[:, None] - 1.0, D[:, None, :])

            def slater_point(self):
                return center

        oracle = QuadraticOracle()
        problem = LsaalProblem(oracle, inner_tol=1e-12)
        seen = []
        run_laam(problem, run_config(30, seed=0, thin=1, initial=PrimalDualPoint(center, np.zeros(1))),
                 [recording_hook(seen)])
        assert len(seen) == 30
        for _, it, _ in seen:
            np.testing.assert_allclose(it.x, center, atol=1e-9)
            np.testing.assert_allclose(it.y, np.zeros(1), atol=1e-9)

    def test_laam_kkt_residual_decreases_over_first_50_iterations(self, np_instance):
        problem = LsaalProblem(np_instance, sigma=1.0 / math.sqrt(50.0))
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
        problem = LsaalProblem(oracle, constants=constants, inner_tol=1e-10, inner_max_iters=2000)
        rec = run_lsaal(problem, run_config(200, seed=4))
        assert rec.final_metrics["x_step_bound_ratio_max"] <= 1.01
        assert rec.final_metrics["y_step_bound_ratio_max"] <= 1.01

    def test_sigma_defaults_to_inv_sqrt_n(self, np_instance):
        problem = LsaalProblem(np_instance)
        rec = run_lsaal(problem, run_config(25, seed=0))
        assert rec.final_metrics["sigma"] == pytest.approx(0.2)
        assert rec.gammas[-1] == pytest.approx(0.2)

    def test_initial_multiplier_is_used(self, np_instance):
        problem = LsaalProblem(np_instance)
        x_init = np.full(np_instance.dim, 0.3)
        x0 = np_instance.feasible_set.prox(1.0, x_init)
        runs = {}
        for y0 in (np.zeros(np_instance.cone.dim), np.full(np_instance.cone.dim, 0.7)):
            seen = []
            cfg = run_config(20, seed=6, thin=1, initial=PrimalDualPoint(x_init, y0))
            run_lsaal(problem, cfg, [recording_hook(seen)])
            runs[y0[0]] = seen
            # With an initial point no start is drawn, so the first sample is
            # the stream's first draw at x0.
            sample = conic_evaluate(np_instance, x0, np_instance.draws(cfg.random_source().generator(), 1)[0])
            (_, z1, _) = seen[0]
            spec = Subproblem(x0, y0, sample, problem.resolve_sigma(20), np_instance.cone)
            assert np.array_equal(z1.y, reference_multiplier(spec, z1.x))
        assert not np.array_equal(runs[0.0][-1][1].stacked(), runs[0.7][-1][1].stacked())

    def test_initial_multiplier_of_wrong_length_rejected(self, np_instance):
        problem = LsaalProblem(np_instance)
        x0 = np.zeros(np_instance.dim)
        bad = PrimalDualPoint(x0, np.zeros(np_instance.cone.dim + 1))
        with pytest.raises(ValueError, match="initial y"):
            run_lsaal(problem, run_config(5, initial=bad))

    @pytest.mark.parametrize("runner", [run_lsaal, run_laam])
    @pytest.mark.parametrize("averaging", [True, False])
    def test_kept_hook_points_stay_valid(self, np_instance, runner, averaging):
        # The hook points are views of the record's copies; every point a
        # hook keeps must still hold the values it had when the hook ran, and
        # the average must be the running mean of the iterates.
        problem = LsaalProblem(np_instance)
        seen, then = [], []

        def snapshot(k, z, avg):
            then.append((z.stacked(), avg.stacked()))
            return {}

        cfg = replace(run_config(25, seed=3, thin=1), averaging=averaging)
        rec = runner(problem, cfg, [recording_hook(seen), snapshot])
        assert len(seen) == len(then) == 25
        avg_ref = np.zeros(np_instance.dim + np_instance.cone.dim)
        for (k, z, avg), (z_then, avg_then) in zip(seen, then):
            assert np.array_equal(z.stacked(), z_then)
            assert np.array_equal(avg.stacked(), avg_then)
            avg_ref = avg_ref + (z_then - avg_ref) / k if averaging else z_then
            assert np.array_equal(avg_then, avg_ref)
        assert np.array_equal(rec.final_average.stacked(), avg_ref)


class CorruptingOracle:
    """Wraps an oracle; from evaluate_rows call `at` on, `corrupt` edits each
    stacked sample."""

    def __init__(self, oracle, at, corrupt):
        self.oracle, self.at, self.corrupt = oracle, at, corrupt
        self.dim, self.cone, self.feasible_set = oracle.dim, oracle.cone, oracle.feasible_set
        self.calls = 0

    def draws(self, rng, count):
        return self.oracle.draws(rng, count)

    def evaluate_rows(self, X, draws):
        self.calls += 1
        s = self.oracle.evaluate_rows(X, draws)
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
        problem = LsaalProblem(oracle)
        with pytest.raises(DivergenceError) as err:
            run_lsaal(problem, run_config(20, seed=2))
        assert err.value.iteration == 7

    def test_shape_mismatch_is_value_error(self, np_instance):
        def short_grad(s):
            return ConicSample(s.f_value, s.f_grad[:, :-1], s.g_value, s.g_jacobian)

        problem = LsaalProblem(CorruptingOracle(np_instance, 3, short_grad))
        with pytest.raises(ValueError):
            run_lsaal(problem, run_config(20, seed=2))


class HugeGradientOracle:
    """A 3-dimensional conic oracle with one inactive constraint whose
    objective gradient (or, with field="g_jacobian", constraint Jacobian)
    jumps to 1e300 from evaluate_rows call `at` on."""

    dim = 3
    cone = NonpositiveOrthant(1)
    feasible_set = BallIndicator(np.zeros(3), 1.0)

    def __init__(self, at, field="f_grad"):
        self.at, self.field, self.calls = at, field, 0

    def draws(self, rng, count):
        return rng.normal(size=(count, 3))

    def evaluate_rows(self, X, draws):
        self.calls += 1
        huge, T = self.calls >= self.at, len(X)
        f_grad = np.full((T, 3), 1e300) if huge and self.field == "f_grad" else draws
        jacobian = np.full((T, 1, 3), 1e300) if huge and self.field == "g_jacobian" else np.zeros((T, 1, 3))
        return ConicSample(np.zeros(T), f_grad, np.full((T, 1), -1.0), jacobian)


class TestInnerSolverOverflow:
    def test_overflowing_prox_argument_is_divergence_at_outer_iteration(self):
        # x_k - sigma*grad F overflows to -inf; the finiteness screen before
        # the unchecked prox must classify it as divergence.
        problem = LsaalProblem(HugeGradientOracle(4), sigma=1e10)
        with np.errstate(over="ignore"), pytest.raises(DivergenceError) as err:
            run_lsaal(problem, run_config(10, seed=1))
        assert err.value.iteration == 4
        assert str(err.value).endswith("vector has non-finite entries")

    def test_overflowing_constraint_step_is_divergence_at_outer_iteration(self):
        # sigma * DG overflows past the screen: the projection argument turns
        # NaN, and so does the residual, which ends the solve as divergence.
        problem = LsaalProblem(HugeGradientOracle(4, "g_jacobian"), sigma=1e10)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as err:
            run_lsaal(problem, run_config(10, seed=1))
        assert err.value.iteration == 4
        assert str(err.value).endswith("multiplier step has non-finite entries")


def batch_problem(m, oracle=None, **knobs):
    """An m-class instance with audit constants: the feasible set's diameter
    and the oracle's analytic envelopes."""
    rng = np.random.default_rng(60 + m)
    base = NeymanPearsonOracle(synth_gaussian_classes(rng, m, 4, 12, 1.0).normalize(), 3.0)
    constants = ProblemConstants(R=base.feasible_set.diameter(), **base.envelope_constants())
    return LsaalProblem(oracle(base) if oracle else base, constants=constants, **knobs)


def batch_configs(T, oracle, averaging=True):
    """T trials with horizons 10, 37 and 100 in turn, thinnings 1, 3 and 7,
    and every fourth from a given start."""
    configs = []
    for t in range(T):
        initial = None
        if t % 4 == 3:
            rng = np.random.default_rng(t)
            initial = PrimalDualPoint(rng.normal(size=oracle.dim) * 2.0, np.abs(rng.normal(size=oracle.cone.dim)))
        configs.append(RunConfig(horizon=(10, 37, 100)[t % 3], seed=7, stream_id=t, trace_thinning=(1, 3, 7)[t % 3],
                                 averaging=averaging, initial=initial))
    return configs


def assert_same_run(rec, solo):
    assert (rec.ks, rec.gammas, rec.metrics) == (solo.ks, solo.gammas, solo.metrics)
    assert np.array_equal(rec.iterates, solo.iterates) and np.array_equal(rec.averages, solo.averages)
    assert np.array_equal(rec.final_iterate.stacked(), solo.final_iterate.stacked())
    assert np.array_equal(rec.final_average.stacked(), solo.final_average.stacked())
    assert rec.final_metrics == solo.final_metrics
    assert set(rec.final_metrics) >= {"sigma", "y_norm_max", "y_step_max",
                                      "x_step_bound_ratio_max", "y_step_bound_ratio_max"}


class PoisonedOracle:
    """Wraps an oracle; from iteration `at` on, the trial on stream `stream`
    gets `edit` applied to the `field` array of its sample rows, which its
    draws flag in an extra column."""

    def __init__(self, oracle, stream, at, field, edit):
        self.oracle, self.stream, self.at, self.field, self.edit = oracle, stream, at, field, edit
        self.dim, self.cone, self.feasible_set = oracle.dim, oracle.cone, oracle.feasible_set

    def draws(self, rng, count):
        # One block per trial: the horizons stay below PREFETCH_ROWS.
        flags = np.zeros((count, 1), dtype=np.int64)
        if rng.bit_generator.seed_seq.spawn_key == (self.stream,):
            flags[self.at - 1:] = 1
        return np.concatenate([self.oracle.draws(rng, count), flags], axis=1)

    def evaluate_rows(self, X, draws):
        s = self.oracle.evaluate_rows(X, draws[:, :-1])
        hit = draws[:, -1] == 1
        if not hit.any():
            return s
        a = getattr(s, self.field)
        return replace(s, **{self.field: np.where(hit.reshape((-1,) + (1,) * (a.ndim - 1)), self.edit(a), a)})


POISONS = {
    # (field, edit, problem knobs, the error's message): caught by the sample
    # check, the solver's screen, its residual, and its budget.
    "non_finite_sample": ("g_value", lambda a: a * np.nan, {}, "non-finite oracle sample at iteration 12"),
    "overflowing_gradient": ("f_grad", lambda a: np.where(a != 0.0, np.copysign(1e308, a), a), {"sigma": 3.0},
                             "non-finite state at iteration 12: vector has non-finite entries"),
    "overflowing_jacobian": ("g_jacobian", lambda a: a * 1e300, {},
                             "non-finite state at iteration 12: multiplier step has non-finite entries"),
    "stiff_subproblem": ("g_jacobian", lambda a: a * 1e3, {"inner_max_iters": 3},
                         "inner solver failed at outer iteration 12: inner solver did not converge"),
}


class TestBatchKernel:
    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("runner", [run_lsaal, run_laam], ids=["lsaal", "laam"])
    def test_rows_match_solo_runs(self, m, runner, monkeypatch):
        # Mixed horizons, thinnings and starts: each row of a batch of any
        # size is bit for bit its trial run alone, recorded points, final
        # points and audit ratios included.
        problem = batch_problem(m)
        full_batch = runner is run_laam
        for averaging in (True, False):
            solo = [runner(problem, cfg) for cfg in batch_configs(10, problem.oracle, averaging)]
            # Small prefetch blocks: the batch refills its draws, and pads the
            # rows that end inside a block.
            monkeypatch.setattr(core_module, "PREFETCH_ROWS", 4)
            for T in (1, 2, 5, 10):
                records = run_lsaal_batch(problem, batch_configs(T, problem.oracle, averaging), full_batch=full_batch)
                for rec, ref in zip(records, solo):
                    assert_same_run(rec, ref)
            monkeypatch.undo()

    @pytest.mark.parametrize("kind", sorted(POISONS))
    def test_failing_row_leaves_with_its_solo_error(self, kind):
        # Trial 4 (horizon 37) fails at iteration 12; it leaves the batch with
        # the error it raises alone, and the other rows run on unchanged.
        field, edit, knobs, message = POISONS[kind]
        poisoned = batch_problem(3, lambda oracle: PoisonedOracle(oracle, 4, 12, field, edit), **knobs)
        clean = batch_problem(3, **knobs)
        configs = batch_configs(10, clean.oracle)
        with np.errstate(over="ignore", invalid="ignore"):
            batch = run_lsaal_batch(poisoned, configs)
            with pytest.raises((DivergenceError, ConvergenceError)) as err:
                run_lsaal(poisoned, configs[4])
        solo = err.value
        failed = batch[4]
        assert type(failed) is type(solo) and str(failed) == str(solo)
        assert str(failed).startswith(message)
        if isinstance(solo, DivergenceError):
            assert failed.iteration == solo.iteration == 12
        else:
            assert failed.residual == solo.residual
        assert failed.record.ks == list(range(3, 12, 3))  # the rows recorded before it
        assert np.array_equal(failed.record.iterates, solo.record.iterates)
        assert np.array_equal(failed.record.averages, solo.record.averages)
        for t, cfg in enumerate(configs):
            if t != 4:
                assert_same_run(batch[t], run_lsaal(clean, cfg))

    @pytest.mark.parametrize("T", [1, 2, 5])
    @pytest.mark.parametrize("runner", [run_lsaal, run_laam], ids=["lsaal", "laam"])
    def test_records_keep_the_points_hooks_see(self, T, runner):
        # Thinnings 3 and 7 on horizons 37 and 100, which they do not divide:
        # each batch record keeps the points a hook on its trial's one-row
        # run sees.
        problem = batch_problem(3)
        dim = problem.oracle.dim + problem.oracle.cone.dim
        full_batch = runner is run_laam
        for averaging in (True, False):
            configs = batch_configs(T, problem.oracle, averaging)
            for cfg, rec in zip(configs, run_lsaal_batch(problem, configs, full_batch=full_batch)):
                N, thinning = cfg.horizon, cfg.trace_thinning
                assert rec.ks == [k for k in range(1, N + 1) if k % thinning == 0 or k == N]
                hooked = runner(problem, cfg, [point_hook])
                assert_kept_points_seen(hooked, dim)
                assert np.array_equal(rec.iterates, hooked.iterates)
                assert np.array_equal(rec.averages, hooked.averages)
                assert np.array_equal(rec.iterates[-1], rec.final_iterate.stacked())
                if not averaging:
                    assert np.array_equal(rec.averages, rec.iterates)

    def test_configs_must_share_averaging(self, np_instance):
        configs = [run_config(5, seed=0), replace(run_config(5, seed=1), averaging=False)]
        with pytest.raises(ValueError, match="averaging"):
            run_lsaal_batch(LsaalProblem(np_instance), configs)

    def test_empty_batch(self, np_instance):
        assert run_lsaal_batch(LsaalProblem(np_instance), []) == []


def point_columns(record, rows=None):
    """The columns point_hook gives the first `rows` rows of a record."""
    return {"iterate": [z.tobytes() for z in record.iterates[:rows]],
            "average": [a.tobytes() for a in record.averages[:rows]]}


def rejecting_at(k_bad):
    """point_hook, raising DivergenceError at row k_bad."""

    def hook(k, z, avg):
        if k == k_bad:
            raise DivergenceError(k, f"hook rejected the iterate at iteration {k}")
        return point_hook(k, z, avg)

    return hook


class TestPostRunHooks:
    """run_lsaal and run_laam call their metric hooks after the run, on the
    recorded rows."""

    @pytest.mark.parametrize("runner", [run_lsaal, run_laam], ids=["lsaal", "laam"])
    def test_hooked_record_is_the_bare_record_plus_the_hook_columns(self, runner):
        problem = batch_problem(3)
        config = batch_configs(2, problem.oracle)[1]  # horizon 37, thinning 3
        bare, hooked = runner(problem, config), runner(problem, config, [point_hook])
        assert bare.metrics == {}
        assert (hooked.ks, hooked.gammas) == (bare.ks, bare.gammas)
        assert np.array_equal(hooked.iterates, bare.iterates) and np.array_equal(hooked.averages, bare.averages)
        assert np.array_equal(hooked.final_iterate.stacked(), bare.final_iterate.stacked())
        assert np.array_equal(hooked.final_average.stacked(), bare.final_average.stacked())
        assert hooked.final_metrics == bare.final_metrics
        assert hooked.metrics == point_columns(bare)

    @pytest.mark.parametrize("runner", [run_lsaal, run_laam], ids=["lsaal", "laam"])
    def test_hook_error_ends_the_run_at_its_row(self, runner):
        # Rows 3, 6, 9, 12, ...: the hook rejects k = 12, so the error keeps
        # the three rows before it, with their hook columns.
        problem = batch_problem(3)
        config = batch_configs(2, problem.oracle)[1]
        bare = runner(problem, config)
        with pytest.raises(DivergenceError) as err:
            runner(problem, config, [rejecting_at(12)])
        error = err.value
        assert type(error) is DivergenceError and error.iteration == 12
        assert str(error) == "hook rejected the iterate at iteration 12"
        record = error.record
        assert (record.ks, record.gammas) == ([3, 6, 9], bare.gammas[:3]) and len(record.elapsed) == 3
        assert np.array_equal(record.iterates, bare.iterates[:3]) and np.array_equal(record.averages, bare.averages[:3])
        assert record.metrics == point_columns(bare, 3)
        assert (record.final_iterate, record.final_average, record.final_metrics) == (None, None, {})

    @pytest.mark.parametrize("k_bad, first", [(9, "hook"), (15, "solver")])
    def test_the_earlier_of_a_hook_error_and_a_solver_error_ends_the_run(self, k_bad, first):
        # The solver fails at outer iteration 12. A hook that rejects row 9
        # came first; one that would reject row 15 is never reached, and the
        # solver's error keeps the hook columns of the rows before it.
        field, edit, knobs, message = POISONS["non_finite_sample"]
        poisoned = batch_problem(3, lambda oracle: PoisonedOracle(oracle, 4, 12, field, edit), **knobs)
        config = batch_configs(5, poisoned.oracle)[4]  # horizon 37, thinning 3, stream 4
        with np.errstate(invalid="ignore"), pytest.raises(DivergenceError) as bare:
            run_lsaal(poisoned, config)
        with np.errstate(invalid="ignore"), pytest.raises(DivergenceError) as hooked:
            run_lsaal(poisoned, config, [rejecting_at(k_bad)])
        error = hooked.value
        if first == "hook":
            assert (error.iteration, str(error)) == (9, "hook rejected the iterate at iteration 9")
            assert error.record.ks == [3, 6]
        else:
            assert type(error) is type(bare.value) and str(error) == str(bare.value) == message
            assert error.record.ks == bare.value.record.ks == [3, 6, 9]
        rows = len(error.record.ks)
        assert np.array_equal(error.record.iterates, bare.value.record.iterates[:rows])
        assert error.record.metrics == point_columns(bare.value.record, rows)


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
            idx = oracle.draws(rng, 1)[0]
            s_at_xk = conic_evaluate(oracle, xk, idx)
            s_at_x = conic_evaluate(oracle, x, idx)
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

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_rejects_non_finite_sigma(self, sigma):
        with pytest.raises(ValueError, match="positive and finite"):
            multiplier_bound_diagnostics(self.worked_constants(), sigma, 1)


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

    @pytest.mark.parametrize("n_full, n_sample", [(150, 100), (1, 0), (0, 3), (0, 0), (7, 5)])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_stacked_maxima_match_a_per_point_loop(self, m, n_full, n_sample):
        # The loop estimate_constants replaced: each point drawn, then its
        # full batch or its one-row sample taken, the maxima kept point by
        # point. With no point at all the loop rejects the zero nu_g, and
        # estimate_constants rejects the sizes first.
        dataset = synth_gaussian_classes(np.random.default_rng(20240501), m, 10, 100, 1.0).normalize()
        oracle = NeymanPearsonOracle(dataset, 5.0)

        def per_point_loop(rng):
            R = oracle.feasible_set.diameter()

            def random_feasible(interior):
                v = oracle.feasible_set.prox(1.0, rng.uniform(-R, R, size=oracle.dim))
                return v * rng.random() if interior else v

            nu_g = kappa_f = kappa_g = nu_f = 0.0
            for i in range(n_full):
                fb = oracle.full_batch(random_feasible(i % 2 == 0))
                nu_g = max(nu_g, float(np.linalg.norm(fb.g_value)))
                kappa_f = max(kappa_f, float(np.linalg.norm(fb.f_grad)))
                kappa_g = max(kappa_g, float(np.linalg.norm(fb.g_jacobian, 2)))
            for i in range(n_sample):
                x = random_feasible(i % 2 == 0)
                s = conic_evaluate(oracle, x, oracle.draws(rng, 1)[0])
                nu_g = max(nu_g, float(np.linalg.norm(s.g_value)))
                kappa_f = max(kappa_f, float(np.linalg.norm(s.f_grad)))
                kappa_g = max(kappa_g, float(np.linalg.norm(s.g_jacobian, 2)))
                nu_f = max(nu_f, abs(s.f_value - oracle.full_batch(x).f_value))
            margin = oracle.cone.interior_distance(oracle.full_batch(oracle.slater_point()).g_value)
            return ProblemConstants(R=R, nu_g=nu_g, kappa_f=kappa_f, kappa_g=kappa_g, nu_f=nu_f or None,
                                    slater_margin=margin if margin > 0.0 else None, estimated=True)

        def outcome(estimate):
            try:
                return estimate(RandomSource(77).generator())
            except ValueError as exc:
                return str(exc)

        expected = outcome(per_point_loop)
        got = outcome(lambda rng: estimate_constants(oracle, rng, n_full=n_full, n_sample=n_sample))
        assert isinstance(expected, ProblemConstants) == (n_full + n_sample > 0)
        if n_full + n_sample == 0:
            assert expected.startswith("nu_g must be strictly positive")
            expected = "estimate_constants needs n_full >= 0 and n_sample >= 0, not both 0 (got n_full=0, n_sample=0)"
        assert got == expected

    @pytest.mark.parametrize("n_full, n_sample", [(-1, 5), (5, -1), (-2, 0), (0, -3), (-4, -4)])
    def test_negative_sizes_are_rejected_by_name(self, np_small_instance, n_full, n_sample):
        # A negative size would otherwise reach numpy as a negative dimension.
        message = (f"estimate_constants needs n_full >= 0 and n_sample >= 0, not both 0 "
                   f"(got n_full={n_full}, n_sample={n_sample})")
        with pytest.raises(ValueError) as err:
            estimate_constants(np_small_instance, RandomSource(1).generator(), n_full=n_full, n_sample=n_sample)
        assert str(err.value) == message
