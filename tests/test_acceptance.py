"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Every tolerance is pinned here; the statistical
checks use fixed seeds, so reruns are exact reproductions.
"""

import math
import time

import numpy as np
import pytest

import saddle_sa as sa
from saddle_sa import metrics as M
from saddle_sa.cli import load_config, run_experiment
from saddle_sa.lsaal import estimate_constants, multiplier_bound_diagnostics
from conftest import grid_prox_1d, grid_prox_2d, random_prox_instances


def check(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {status} | {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {name} ({detail})"


def all_cones():
    return [
        sa.NonnegativeOrthant(4),
        sa.NonpositiveOrthant(4),
        sa.SecondOrderCone(4),
        sa.ZeroCone(4),
        sa.FreeCone(4),
        sa.ProductCone([sa.NonnegativeOrthant(1), sa.SecondOrderCone(3)]),
    ]


def bilinear_problem(theta):
    oracle = sa.BilinearOracle(3)
    z_star = sa.PrimalDualPoint(np.zeros(3), np.zeros(3))
    problem = sa.SapsProblem(oracle, theta, theta, known_saddle=z_star)
    evaluator = M.BilinearEvaluator(oracle, theta, theta)
    return problem, evaluator, z_star


def final_gaps(problem, evaluator, z_star, N, seeds):
    """Final averaged-iterate gap of one run per seed, the seeds run as one batch."""
    configs = [sa.RunConfig(horizon=N, seed=seed,
                            schedule=sa.StepSchedule("const_over_sqrt_n", horizon=N),
                            trace_thinning=N) for seed in seeds]
    return [max(M.minimax_gap(evaluator, rec.final_average, z_star), 0.0)
            for rec in sa.run_saps_batch(problem, configs)]


def test_criterion_01_prox_projection_exactness():
    t0 = time.perf_counter()
    ok = True
    # closed-form examples at 1e-12
    ok &= np.allclose(sa.prox(sa.ScaledL1(1.0), 1.0, np.array([3.0, -1.0, 0.2])), [2, 0, 0], atol=1e-12)
    ok &= np.allclose(sa.prox(sa.ScaledL2(1.0), 2.0, np.array([3.0, 4.0])), [1.8, 2.4], atol=1e-12)
    ok &= np.allclose(sa.prox(sa.PositivePartSum(1.0), 1.0, np.array([2.0, 0.5, -1.0])), [1, 0, -1], atol=1e-12)
    z = sa.PrimalDualPoint([3.0, 4.0], [7.0])
    joint = sa.prox_joint(sa.BallIndicator(np.zeros(2), 1.0), sa.ZeroFunction(), 0.5, z)
    ok &= np.allclose(joint.x, [0.6, 0.8], atol=1e-12) and np.allclose(joint.y, [7.0], atol=1e-12)
    soc = sa.SecondOrderCone(3)
    ok &= np.allclose(soc.project(np.array([3.0, 0.0, 1.0])), [2.0, 0.0, 2.0], atol=1e-12)
    ok &= np.allclose(soc.project(np.array([1.0, 0.0, -2.0])), [0.0, 0.0, 0.0], atol=1e-12)
    ok &= np.allclose(soc.polar_project(np.array([3.0, 0.0, 1.0])), [1.0, 0.0, -1.0], atol=1e-12)
    ok &= np.allclose(sa.NonnegativeOrthant(2).project(np.array([1.0, -2.0])), [1.0, 0.0], atol=1e-12)
    ok &= np.allclose(sa.NonpositiveOrthant(2).polar_project(np.array([1.0, -2.0])), [1.0, 0.0], atol=1e-12)

    # grid-search oracle equivalence on 200 random 1-D/2-D instances at 2e-4
    rng = np.random.default_rng(2024)
    worst = 0.0
    count = 0
    while count < 200:
        dim = 1 if count % 2 == 0 else 2
        for f in random_prox_instances(rng, dim):
            if count >= 200:
                break
            gamma = float(rng.uniform(0.1, 2.0))
            v = rng.uniform(-3.0, 3.0, size=dim)
            got = sa.prox(f, gamma, v)
            if dim == 1:
                expect = np.array([grid_prox_1d(f, gamma, float(v[0]), bound=8.0)])
            else:
                expect = grid_prox_2d(f, gamma, v, bound=8.0)
            worst = max(worst, float(np.abs(got - expect).max()))
            count += 1
    ok &= worst <= 2e-4
    check(1, "prox/projection exactness", ok,
          f"grid deviation {worst:.2e} over {count} instances in {time.perf_counter()-t0:.1f}s")


def test_criterion_02_moreau_suite():
    t0 = time.perf_counter()
    worst_dec = worst_orth = worst_idem = 0.0
    member_fail = 0
    for cone in all_cones():
        rng = np.random.default_rng(cone.dim * 101 + len(type(cone).__name__))
        for _ in range(10_000):
            y = rng.normal(size=cone.dim) * 3.0
            p = cone.project(y)
            q = cone.polar_project(y)
            worst_dec = max(worst_dec, float(np.linalg.norm(y - p - q)))
            worst_orth = max(worst_orth, abs(float(p @ q)))
            worst_idem = max(worst_idem, float(np.linalg.norm(cone.project(p) - p)))
            if not (cone.contains(p, tol=1e-10) and cone.polar_contains(q, tol=1e-10)):
                member_fail += 1
    ok = worst_dec <= 1e-10 and worst_orth <= 1e-10 and worst_idem <= 1e-10 and member_fail == 0
    check(2, "Moreau decomposition suite", ok,
          f"decomp {worst_dec:.1e}, orth {worst_orth:.1e}, idem {worst_idem:.1e}, "
          f"membership failures {member_fail}, {time.perf_counter()-t0:.1f}s")


def test_criterion_03_prox_inequality_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    worst = -math.inf
    count = 0
    while count < 1000:
        for f in random_prox_instances(rng, 3):
            if count >= 1000:
                break
            zc = rng.normal(size=3) * 2.0
            zz = rng.normal(size=3) * 2.0
            if f.is_indicator:
                zz = f.prox(1.0, zz)
            gamma = float(rng.uniform(0.05, 3.0))
            zp = sa.prox(f, gamma, zc)
            lhs = f.value(zz) + (np.linalg.norm(zz - zc) ** 2 - np.linalg.norm(zz - zp) ** 2) / (2 * gamma)
            rhs = f.value(zp) + np.linalg.norm(zp - zc) ** 2 / (2 * gamma)
            worst = max(worst, rhs - lhs)
            count += 1
    ok = worst <= 1e-10
    check(3, "prox inequality suite", ok,
          f"worst violation {worst:.2e} over {count} draws, {time.perf_counter()-t0:.1f}s")


def test_criterion_04_oracle_unbiasedness_and_gradients(np_instance):
    t0 = time.perf_counter()
    # unbiasedness: bilinear grad_x mean vs Q y over 1e5 samples, 3 SE per coordinate
    oracle = sa.BilinearOracle(3)
    rng = sa.RandomSource(404).generator()
    z = sa.PrimalDualPoint(rng.normal(size=3), rng.normal(size=3))
    n_samples = 100_000
    grads = np.empty((n_samples, 3))
    for i in range(n_samples):
        grads[i] = oracle.sample(rng, z).grad_x
    target = oracle.Q @ z.y
    se = grads.std(axis=0, ddof=1) / math.sqrt(n_samples)
    dev = np.abs(grads.mean(axis=0) - target)
    unbiased_ok = bool((dev <= 3.0 * se + 1e-12).all())

    # finite differences at 50 random points per oracle, relative 1e-5
    def fd_ok(value_fn, grad, point, step=1e-6):
        fd = np.empty_like(point)
        for i in range(point.shape[0]):
            e = np.zeros_like(point)
            e[i] = step
            fd[i] = (value_fn(point + e) - value_fn(point - e)) / (2 * step)
        return float(np.linalg.norm(fd - grad)) / max(1.0, float(np.linalg.norm(grad))) <= 1e-5

    grad_ok = True
    tanh_oracle = sa.TanhOracle(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
    for _ in range(50):
        zb = sa.PrimalDualPoint(rng.normal(size=3), rng.normal(size=3))
        xi = oracle.draw(rng)
        samp = oracle.evaluate(zb, xi)
        grad_ok &= fd_ok(lambda x: oracle.evaluate(sa.PrimalDualPoint(x, zb.y), xi).value, samp.grad_x, zb.x)
        grad_ok &= fd_ok(lambda y: oracle.evaluate(sa.PrimalDualPoint(zb.x, y), xi).value, samp.grad_y, zb.y)

        u = tanh_oracle.draw(rng)
        st = tanh_oracle.evaluate(zb, u)
        grad_ok &= fd_ok(lambda x: tanh_oracle.evaluate(sa.PrimalDualPoint(x, zb.y), u).value, st.grad_x, zb.x)
        grad_ok &= fd_ok(lambda y: tanh_oracle.evaluate(sa.PrimalDualPoint(zb.x, y), u).value, st.grad_y, zb.y)

        npo = np_instance
        x = npo.feasible_set.prox(1.0, rng.normal(size=npo.dim) * 2.0)
        idx = npo.draw(rng)
        sc = npo.evaluate(x, idx)
        grad_ok &= fd_ok(lambda w: npo.evaluate(w, idx).f_value, sc.f_grad, x)
        for row in range(npo.m - 1):
            grad_ok &= fd_ok(lambda w, r=row: npo.evaluate(w, idx).g_value[r], sc.g_jacobian[row], x)

    ok = unbiased_ok and grad_ok
    check(4, "oracle unbiasedness and gradient consistency", ok,
          f"max |mean-Qy|/SE {(dev/se).max():.2f}, FD at 50 pts x 3 oracles, {time.perf_counter()-t0:.1f}s")


def test_criterion_05_saps_rate():
    t0 = time.perf_counter()
    Ns = (100, 400, 1600, 6400, 25600)
    slopes = {}
    for name, theta in (("l1", sa.ScaledL1(1.0)), ("l2", sa.ScaledL2(1.0)),
                        ("max", sa.PositivePartSum(1.0))):
        problem, evaluator, z_star = bilinear_problem(theta)
        means = []
        for N in Ns:
            gaps = final_gaps(problem, evaluator, z_star, N, range(20))
            means.append(float(np.mean(gaps)))
        slopes[name] = M.rate_slope_fit(list(zip(Ns, means))).slope
    ok = all(-0.80 <= s <= -0.30 for s in slopes.values())
    detail = ", ".join(f"{k}: {v:.3f}" for k, v in slopes.items())
    check(5, "averaged-iterate gap rate, slope in [-0.80, -0.30]", ok,
          f"{detail}, {time.perf_counter()-t0:.0f}s")


def test_criterion_06_tail_shape():
    t0 = time.perf_counter()
    problem, evaluator, z_star = bilinear_problem(sa.ScaledL1(1.0))
    gaps = np.array(final_gaps(problem, evaluator, z_star, 10_000, range(200)))
    median = float(np.median(gaps))
    frac = M.tail_tally(gaps, 5.0 * median)
    ok = frac <= 0.05
    check(6, "light-tail shape at N=1e4 (200 trials)", ok,
          f"fraction >= 5x median: {frac:.3f}, median {median:.2e}, {time.perf_counter()-t0:.0f}s")


def test_criterion_07_graph_convexity_suites(np_instance):
    t0 = time.perf_counter()
    oracle = np_instance
    cone = oracle.cone
    rng = sa.RandomSource(707).generator()
    worst_lin = -math.inf
    worst_polar = -math.inf
    worst_l37 = -math.inf
    for _ in range(1000):
        x = oracle.feasible_set.prox(1.0, rng.uniform(-6, 6, size=oracle.dim))
        zz = oracle.feasible_set.prox(1.0, rng.uniform(-6, 6, size=oracle.dim))
        fx = oracle.full_batch(x)
        fz = oracle.full_batch(zz)
        lin = fx.g_value + fx.g_jacobian @ (zz - x)
        worst_lin = max(worst_lin, float((lin - fz.g_value).max()))
        worst_polar = max(worst_polar,
                          float(np.linalg.norm(cone.polar_project(lin))
                                - np.linalg.norm(cone.polar_project(fz.g_value))))
        # per-sample monotonicity of the linearized polar norm
        y = cone.polar_project(rng.normal(size=cone.dim))
        sigma = float(rng.uniform(0.05, 1.5))
        idx = oracle.draw(rng)
        s_at_x = oracle.evaluate(x, idx)
        s_at_z = oracle.evaluate(zz, idx)
        lin_s = s_at_x.g_value + s_at_x.g_jacobian @ (zz - x)
        lhs = np.linalg.norm(cone.polar_project(y + sigma * s_at_z.g_value)) ** 2
        rhs = np.linalg.norm(cone.polar_project(y + sigma * lin_s)) ** 2
        worst_l37 = max(worst_l37, rhs - lhs)
    ok = worst_lin <= 1e-8 and worst_polar <= 1e-8 and worst_l37 <= 1e-8
    check(7, "graph-convexity and linearized-polar monotonicity", ok,
          f"linearization {worst_lin:.2e}, polar {worst_polar:.2e}, "
          f"sampled {worst_l37:.2e}, {time.perf_counter()-t0:.1f}s")


@pytest.fixture(scope="module")
def lsaal_sweep(np_instance):
    """Criterion 8's runs, shared with criterion 9's multiplier audits."""
    oracle = np_instance
    constants = estimate_constants(oracle, sa.RandomSource(999).generator(),
                                   n_full=1000, n_sample=500)
    problem = sa.LsaalProblem(oracle, oracle.cone, oracle.feasible_set, constants=constants)
    sweep = {}
    for N in (250, 1000, 4000):
        records = []
        for seed in range(10):
            cfg = sa.RunConfig(horizon=N, seed=seed,
                               schedule=sa.StepSchedule("const_over_sqrt_n", horizon=N),
                               trace_thinning=N)
            records.append(sa.run_lsaal(problem, cfg))
        sweep[N] = records
    return oracle, constants, sweep


def test_criterion_08_lsaal_rate(lsaal_sweep):
    t0 = time.perf_counter()
    oracle, _, sweep = lsaal_sweep
    med_viol, med_pk = [], []
    for N, records in sweep.items():
        viols, pks = [], []
        for rec in records:
            fb = oracle.full_batch(rec.final_average.x)
            viols.append(M.constraint_violation(oracle.cone, fb.g_value))
            pks.append(M.proj_kkt(fb, oracle.cone, oracle.feasible_set, rec.final_average))
        med_viol.append(float(np.median(viols)))
        med_pk.append(float(np.median(pks)))
    nonincreasing = all(a >= b - 1e-15 for a, b in zip(med_viol, med_viol[1:]))
    fit = M.rate_slope_fit(list(zip(sweep.keys(), med_pk)))
    slope_ok = -0.9 <= fit.slope <= -0.2
    ok = nonincreasing and slope_ok
    check(8, "constraint violation nonincreasing + projected-KKT slope in [-0.9, -0.2]", ok,
          f"median violations {med_viol}, proj_kkt slope {fit.slope:.3f} (r2 {fit.r2:.3f}), "
          f"{time.perf_counter()-t0:.1f}s")


def test_criterion_09_multiplier_control(lsaal_sweep):
    oracle, constants, sweep = lsaal_sweep
    ok = True
    worst_norm_ratio = 0.0
    worst_step_ratio = 0.0
    for N, records in sweep.items():
        sigma = 1.0 / math.sqrt(N)
        s = math.isqrt(N - 1) + 1  # ceil(sqrt(N))
        delta1 = multiplier_bound_diagnostics(constants, sigma, s).delta1
        for rec in records:
            worst_norm_ratio = max(worst_norm_ratio, rec.final_metrics["y_norm_max"] / (3.0 * delta1))
            worst_step_ratio = max(worst_step_ratio, rec.final_metrics["y_step_bound_ratio_max"])
    ok = worst_norm_ratio <= 1.0 and worst_step_ratio <= 1.01
    check(9, "multiplier norm within 3*Delta1 and per-step within 1.01*sigma*beta0", ok,
          f"max |y|/(3 Delta1) = {worst_norm_ratio:.2e}, max step ratio {worst_step_ratio:.3f}")


def test_criterion_10_step_bound(np_small_instance):
    t0 = time.perf_counter()
    oracle = np_small_instance
    constants = estimate_constants(oracle, sa.RandomSource(1234).generator(),
                                   n_full=1000, n_sample=500)
    problem = sa.LsaalProblem(oracle, oracle.cone, oracle.feasible_set, constants=constants,
                              inner_tol=1e-10, inner_max_iters=2000)
    cfg = sa.RunConfig(horizon=500, seed=11,
                       schedule=sa.StepSchedule("const_over_sqrt_n", horizon=500),
                       trace_thinning=500)
    rec = sa.run_lsaal(problem, cfg)
    ratio = rec.final_metrics["x_step_bound_ratio_max"]
    ok = ratio <= 1.01
    check(10, "primal step bound over 500 iterations at inner_tol 1e-10", ok,
          f"max ratio {ratio:.4f}, {time.perf_counter()-t0:.1f}s")


def test_criterion_11_determinism(tmp_path):
    t0 = time.perf_counter()
    ok = True
    configs = {
        "bilinear": "experiment=bilinear\nalgorithm=saps\nn=3\nN_list=30,60\ntrials=2\nseed=5\nparallel=1\n",
        "neyman_pearson": ("experiment=neyman_pearson\nalgorithm=lsaal\nn=5\nm_classes=2\n"
                           "points_per_class=15\nN_list=25\ntrials=2\nseed=5\nparallel=1\n"),
    }
    for name, text in configs.items():
        out_a, out_b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        run_experiment(load_config(text + f"output_dir={out_a}\n"))
        run_experiment(load_config(text + f"output_dir={out_b}\n"))
        names_a = sorted(p.name for p in out_a.iterdir())
        names_b = sorted(p.name for p in out_b.iterdir())
        ok &= names_a == names_b
        ok &= all((out_a / f).read_bytes() == (out_b / f).read_bytes() for f in names_a)
    check(11, "experiment reruns are byte-identical", ok,
          f"{time.perf_counter()-t0:.1f}s")


def test_criterion_12_libsvm_parser():
    t0 = time.perf_counter()
    rng = sa.RandomSource(1212).generator()
    ok = True
    trips = 0
    for _ in range(1000):
        lines = []
        dim = int(rng.integers(1, 15))
        for _ in range(int(rng.integers(1, 12))):
            label = int(rng.integers(-3, 6))
            count = int(rng.integers(0, dim + 1))
            idx = np.sort(rng.choice(np.arange(1, dim + 1), size=count, replace=False))
            feats = " ".join(f"{i}:{rng.normal():.8g}" for i in idx)
            lines.append(f"{label} {feats}".strip())
        text = "\n".join(lines) + "\n"
        ds = sa.parse_libsvm(text)
        ok &= sa.parse_libsvm(sa.to_libsvm(ds)) == ds
        trips += 1

    # documented malformed-input cases, each with its line number
    with pytest.raises(sa.ParseError) as e1:
        sa.parse_libsvm("1 1:1\nxyz 1:1\n")
    ok &= e1.value.line_number == 2
    with pytest.raises(sa.ParseError) as e2:
        sa.parse_libsvm("1 3:1 2:1\n")
    ok &= e2.value.line_number == 1
    with pytest.raises(sa.ParseError) as e3:
        sa.parse_libsvm("1 1:1\n2 2:two\n")
    ok &= e3.value.line_number == 2
    with pytest.raises(sa.DataError):
        sa.parse_libsvm("")
    check(12, "LIBSVM parser round-trip and error reporting", ok,
          f"{trips} round-trips, {time.perf_counter()-t0:.1f}s")
