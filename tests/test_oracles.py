import math

import numpy as np
import pytest

from conftest import conic_evaluate, conic_full_batch, evaluate_one, scalar_evaluate
from saddle_sa import oracles
from saddle_sa import (
    BilinearOracle,
    ClassGroupedDataset,
    NeymanPearsonOracle,
    PrimalDualPoint,
    RandomSource,
    TanhOracle,
    synth_gaussian_classes,
)


def class_loop_assemble(oracle, X, mats):
    """Reference ConicSample data (f_value, f_grad, g_value, Jacobian matrix)
    of a Neyman-Pearson oracle, one class and one other block at a time."""
    m, n = oracle.m, oracle.n
    f_value = 0.0
    f_grad = np.zeros((m, n))
    g_value = np.empty(m - 1)
    jac = np.zeros((m - 1, m, n))
    for i in range(m):
        A = mats[i]
        P = A @ X.T
        others = [l for l in range(m) if l != i]
        t = P[:, [i]] - P[:, others]
        val = float(np.logaddexp(0.0, -t).mean(axis=0).sum())
        w = -0.5 * (1.0 - np.tanh(0.5 * t)) / P.shape[0]
        own = A.T @ w.sum(axis=1)
        cross = A.T @ w
        if i == 0:
            f_value = val
            f_grad[0] += own
            for j, l in enumerate(others):
                f_grad[l] -= cross[:, j]
        else:
            g_value[i - 1] = val - oracle.r[i - 1]
            jac[i - 1, i] += own
            for j, l in enumerate(others):
                jac[i - 1, l] -= cross[:, j]
    return f_value, f_grad.reshape(-1), g_value, jac.reshape(m - 1, m * n)


def assert_sample_equals(sample, expect):
    f_value, f_grad, g_value, jac = expect
    assert sample.f_value == f_value
    assert np.array_equal(sample.f_grad, f_grad)
    assert np.array_equal(sample.g_value, g_value)
    assert np.array_equal(sample.g_jacobian, jac)


def finite_diff_check(value_fn, grad, point, step=1e-6, rel_tol=1e-5):
    """Central finite differences of value_fn at point vs supplied gradient."""
    fd = np.empty_like(point)
    for i in range(point.shape[0]):
        e = np.zeros_like(point)
        e[i] = step
        fd[i] = (value_fn(point + e) - value_fn(point - e)) / (2.0 * step)
    scale = max(1.0, float(np.linalg.norm(grad)))
    assert np.linalg.norm(fd - grad) / scale <= rel_tol


def edge_rows(rng, T, n):
    """T random rows z = (x | y), with x = 0 in the first row (so a = 0 for
    tanh), y = -0.0 in the last, and y = 1e3 in the second (tanh saturates)."""
    Z = rng.normal(size=(T, 2 * n)) * 3.0
    Z[0, :n] = 0.0
    Z[-1, n:] = -0.0
    if T > 2:
        Z[1, n:] = 1e3
    return Z


class TestRowWiseSampling:
    """draws/directions/values against one draw and the 1-D formulas, bit for bit."""

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_rows_match_scalar_formulas(self, n):
        rng = np.random.default_rng(40 + n)
        for oracle in (BilinearOracle(n), TanhOracle(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n))):
            for T in (1, 2, 5, 7):
                Z = edge_rows(rng, T, n)
                D = oracle.draws(rng, T)
                steps, values = oracle.directions(Z, D), oracle.values(Z, D)
                assert steps.shape == (T, 2 * n) and values.shape == (T,)
                for t in range(T):
                    value, gx, gy = scalar_evaluate(oracle, PrimalDualPoint(Z[t, :n], Z[t, n:]), D[t])
                    expect = np.concatenate((-gx, gy))
                    assert values[t] == value
                    assert np.array_equal(steps[t], expect)
                    assert np.array_equal(np.signbit(steps[t]), np.signbit(expect))

    @pytest.mark.parametrize("n", [1, 3])
    def test_tanh_draws_are_signed_raw_draws(self, n):
        rng = np.random.default_rng(n)
        oracle = TanhOracle(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n))
        signed_rng, raw_rng = RandomSource(5, 2).generator(), RandomSource(5, 2).generator()
        for K in (1, 4, 1024):
            S = oracle.draws(signed_rng, K)
            raw = raw_rng.random((K, 2, n))
            assert signed_rng.bit_generator.state == raw_rng.bit_generator.state
            assert np.array_equal(S, oracle.signed_pool(raw))
            assert np.array_equal(np.signbit(S), np.signbit(oracle.signed_pool(raw)))
            assert np.array_equal(oracle.signed_pool(S), S)  # signing twice changes nothing

    def test_signed_tanh_draw_steps_equal_raw_draw_formulas(self):
        # v (u.x) and (v u).x are the same number; where it is zero its sign
        # can differ (v * +0.0 against a dot of zero products), so only the
        # values are compared here, not the signs of zeros.
        rng = np.random.default_rng(12)
        oracle = TanhOracle(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
        Z = edge_rows(rng, 200, 3)
        raw = rng.random((200, 2, 3))
        steps, values = oracle.directions(Z, oracle.signed_pool(raw)), oracle.values(Z, oracle.signed_pool(raw))
        for t in range(200):
            value, gx, gy = scalar_evaluate(oracle, PrimalDualPoint(Z[t, :3], Z[t, 3:]), raw[t])
            assert values[t] == value
            assert np.array_equal(steps[t], np.concatenate((-gx, gy)))

    @pytest.mark.parametrize("oracle", [BilinearOracle(3), TanhOracle(np.ones(3), -np.ones(3))],
                             ids=["bilinear", "tanh"])
    def test_block_of_draws_has_the_bits_of_single_draws(self, oracle):
        block = oracle.draws(RandomSource(3, 9).generator(), 50)
        rng = RandomSource(3, 9).generator()
        singles = np.stack([oracle.draws(rng, 1)[0] for _ in range(50)])
        assert np.array_equal(block, singles)


class TestBilinearOracle:
    def test_frozen_xi_hand_example(self):
        oracle = BilinearOracle(1)
        s = evaluate_one(oracle, PrimalDualPoint([1.0], [1.0]), [0.5])
        assert s.value == pytest.approx(0.25)
        np.testing.assert_allclose(s.grad_x, [0.25], atol=0.0)
        np.testing.assert_allclose(s.grad_y, [0.25], atol=0.0)

    def test_zero_x_kills_grad_y(self):
        oracle = BilinearOracle(3)
        rng = RandomSource(1).generator()
        z = PrimalDualPoint(np.zeros(3), rng.normal(size=3))
        s = evaluate_one(oracle, z, oracle.draws(rng, 1)[0])
        np.testing.assert_allclose(s.grad_y, np.zeros(3), atol=0.0)

    def test_exact_expectation_2d(self):
        oracle = BilinearOracle(2)
        f, gx, gy = oracle.exact_expectation(PrimalDualPoint([1.0, 0.0], [0.0, 1.0]))
        assert f == pytest.approx(0.25)

    def test_exact_expectation_vs_monte_carlo(self):
        # E[(xi.x)(xi.y)] estimated with 1e6 uniform draws, checked within
        # 3 standard errors of the analytic value x'Qy.
        oracle = BilinearOracle(2)
        z = PrimalDualPoint([1.0, 0.0], [0.0, 1.0])
        rng = RandomSource(99).generator()
        xi = rng.random((1_000_000, 2))
        vals = (xi @ z.x) * (xi @ z.y)
        f_exact, _, _ = oracle.exact_expectation(z)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - f_exact) <= 3.0 * se

    def test_unbiased_grad_x(self):
        # mean of grad_x over draws approaches Q y, per coordinate within 3 SE
        oracle = BilinearOracle(3)
        rng = RandomSource(7).generator()
        z = PrimalDualPoint(rng.normal(size=3), rng.normal(size=3))
        n_samples = 20_000
        grads = -oracle.directions(np.tile(z.stacked(), (n_samples, 1)), oracle.draws(rng, n_samples))[:, :3]
        target = oracle.Q @ z.y
        se = grads.std(axis=0, ddof=1) / math.sqrt(n_samples)
        assert (np.abs(grads.mean(axis=0) - target) <= 3.0 * se + 1e-12).all()

    def test_gradients_match_finite_differences(self):
        oracle = BilinearOracle(4)
        rng = RandomSource(3).generator()
        for _ in range(10):
            z = PrimalDualPoint(rng.normal(size=4), rng.normal(size=4))
            xi = oracle.draws(rng, 1)[0]
            s = evaluate_one(oracle, z, xi)
            finite_diff_check(lambda x: evaluate_one(oracle, PrimalDualPoint(x, z.y), xi).value, s.grad_x, z.x)
            finite_diff_check(lambda y: evaluate_one(oracle, PrimalDualPoint(z.x, y), xi).value, s.grad_y, z.y)


class TestTanhOracle:
    def make(self, n=3, seed=5):
        rng = RandomSource(seed).generator()
        return TanhOracle(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)), rng

    def test_zero_x_value_is_one(self):
        oracle, rng = self.make()
        z = PrimalDualPoint(np.zeros(3), rng.normal(size=3))
        s = evaluate_one(oracle, z, oracle.draws(rng, 1)[0])
        assert s.value == pytest.approx(1.0)

    def test_zero_x_kills_grad_y(self):
        oracle, rng = self.make()
        z = PrimalDualPoint(np.zeros(3), rng.normal(size=3))
        s = evaluate_one(oracle, z, oracle.draws(rng, 1)[0])
        np.testing.assert_allclose(s.grad_y, np.zeros(3), atol=0.0)

    def test_grad_x_at_zero_x(self):
        # sech^2(0) = 1, so grad_x = -v1 * tanh(v2 <y,u2>) * u1
        oracle, rng = self.make()
        z = PrimalDualPoint(np.zeros(3), rng.normal(size=3))
        u = oracle.draws(rng, 1)[0]
        s = evaluate_one(oracle, z, u)
        v1 = 1.0 if float(oracle.xbar @ u[0]) >= 0 else -1.0
        v2 = 1.0 if float(oracle.ybar @ u[1]) >= 0 else -1.0
        expected = -v1 * math.tanh(v2 * float(z.y @ u[1])) * u[0]
        np.testing.assert_allclose(s.grad_x, expected, rtol=1e-14)

    def test_gradients_match_finite_differences(self):
        oracle, rng = self.make(n=4, seed=8)
        for _ in range(10):
            z = PrimalDualPoint(rng.normal(size=4), rng.normal(size=4))
            u = oracle.draws(rng, 1)[0]
            s = evaluate_one(oracle, z, u)
            finite_diff_check(lambda x: evaluate_one(oracle, PrimalDualPoint(x, z.y), u).value, s.grad_x, z.x)
            finite_diff_check(lambda y: evaluate_one(oracle, PrimalDualPoint(z.x, y), u).value, s.grad_y, z.y)

    def test_batch_evaluation_matches_per_draw_mean(self):
        oracle, rng = self.make(n=5, seed=13)
        z = PrimalDualPoint(rng.normal(size=5), rng.normal(size=5))
        pool = oracle.draws(rng, 40)
        mean = oracle.mean_directions(z.stacked()[None], pool)
        singles = oracle.directions(np.tile(z.stacked(), (40, 1)), pool)
        np.testing.assert_allclose(mean[0], singles.mean(axis=0), rtol=1e-12)


class TestNeymanPearsonOracle:
    def test_values_at_zero(self, np_instance):
        oracle = np_instance
        m = oracle.m
        fb = conic_full_batch(oracle, np.zeros(oracle.dim))
        assert fb.f_value == pytest.approx((m - 1) * math.log(2.0), rel=1e-12)
        np.testing.assert_allclose(fb.g_value, (m - 1) * (math.log(2.0) - 1.0), rtol=1e-12)

    def test_zero_is_slater_point(self, np_instance):
        oracle = np_instance
        fb = conic_full_batch(oracle, oracle.slater_point())
        assert (fb.g_value < 0.0).all()
        margin = oracle.cone.interior_distance(fb.g_value)
        assert margin == pytest.approx((oracle.m - 1) * (1.0 - math.log(2.0)), rel=1e-12)

    def test_gradient_contributions_at_zero(self, np_instance):
        # phi'(0) = -1/2: every term contributes +/- psi/2 on its two blocks
        oracle = np_instance
        idx = (0, 0, 0)
        s = conic_evaluate(oracle, np.zeros(oracle.dim), idx)
        psi1 = oracle.dataset.classes[oracle.labels[0]][0]
        grads = s.f_grad.reshape(oracle.m, oracle.n)
        np.testing.assert_allclose(grads[0], -(oracle.m - 1) * psi1 / 2.0, rtol=1e-12)
        for l in range(1, oracle.m):
            np.testing.assert_allclose(grads[l], psi1 / 2.0, rtol=1e-12)

    def test_sample_distribution_and_unbiasedness(self, np_instance):
        oracle = np_instance
        rng = RandomSource(21).generator()
        x = oracle.feasible_set.prox(1.0, rng.normal(size=oracle.dim))
        fb = conic_full_batch(oracle, x)
        n_samples = 4000
        acc_g = np.zeros_like(fb.g_value)
        acc_f = 0.0
        for _ in range(n_samples):
            s = conic_evaluate(oracle, x, oracle.draws(rng, 1)[0])
            acc_g += s.g_value
            acc_f += s.f_value
        np.testing.assert_allclose(acc_g / n_samples, fb.g_value, atol=0.05)
        assert acc_f / n_samples == pytest.approx(fb.f_value, abs=0.05)

    def test_gradients_match_finite_differences(self, np_instance):
        oracle = np_instance
        rng = RandomSource(31).generator()
        for _ in range(5):
            x = oracle.feasible_set.prox(1.0, rng.normal(size=oracle.dim) * 2.0)
            idx = oracle.draws(rng, 1)[0]
            s = conic_evaluate(oracle, x, idx)
            finite_diff_check(lambda w: conic_evaluate(oracle, w, idx).f_value, s.f_grad, x)
            jac = s.g_jacobian
            for row in range(oracle.m - 1):
                finite_diff_check(lambda w, r=row: conic_evaluate(oracle, w, idx).g_value[r], jac[row], x)

    def test_jacobian_adjoint_consistency(self, np_instance):
        oracle = np_instance
        rng = RandomSource(41).generator()
        s = conic_evaluate(oracle, np.zeros(oracle.dim), oracle.draws(rng, 1)[0])
        h = rng.normal(size=oracle.dim)
        w = rng.normal(size=oracle.m - 1)
        lhs = float(w @ (s.g_jacobian @ h))
        rhs = float((s.g_jacobian.T @ w) @ h)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_envelope_bounds_hold_on_samples(self, np_instance):
        oracle = np_instance
        env = oracle.envelope_constants()
        rng = RandomSource(51).generator()
        for _ in range(200):
            x = oracle.feasible_set.prox(1.0, rng.uniform(-6, 6, size=oracle.dim))
            s = conic_evaluate(oracle, x, oracle.draws(rng, 1)[0])
            assert np.linalg.norm(s.g_value) <= env["nu_g"] + 1e-9
            assert np.linalg.norm(s.f_grad) <= env["kappa_f"] + 1e-9
            assert np.linalg.norm(s.g_jacobian, 2) <= env["kappa_g"] + 1e-9

    def test_graph_convexity_linearization_below(self, np_instance):
        # constraint map linearizations stay below the map, componentwise,
        # and shorten the polar projection (full-batch map).
        oracle = np_instance
        rng = RandomSource(61).generator()
        for _ in range(50):
            x = oracle.feasible_set.prox(1.0, rng.uniform(-6, 6, size=oracle.dim))
            z = oracle.feasible_set.prox(1.0, rng.uniform(-6, 6, size=oracle.dim))
            fx = conic_full_batch(oracle, x)
            fz = conic_full_batch(oracle, z)
            lin = fx.g_value + fx.g_jacobian @ (z - x)
            assert (lin - fz.g_value <= 1e-8).all()
            lhs = np.linalg.norm(oracle.cone.polar_project(lin))
            rhs = np.linalg.norm(oracle.cone.polar_project(fz.g_value))
            assert lhs <= rhs + 1e-8

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_evaluate_and_full_batch_match_class_loop_bit_for_bit(self, m):
        rng = np.random.default_rng(700 + m)
        ds = synth_gaussian_classes(rng, m, 6, 12, 1.5)
        # Unequal class sizes, so the full-batch means divide by different counts.
        ds = ClassGroupedDataset({label: ds.classes[label][:5 + 3 * i]
                                  for i, label in enumerate(ds.labels)}, ds.feature_dim)
        oracle = NeymanPearsonOracle(ds, 3.0, r=rng.uniform(0.5, 2.0, size=m - 1))
        mats = [ds.classes[label] for label in ds.labels]
        for _ in range(25):
            # Scaled up to reach saturated margins, then onto the feasible balls.
            x = oracle.feasible_set.prox(1.0, rng.normal(size=oracle.dim) * 4.0)
            X = x.reshape(m, oracle.n)
            idx = oracle.draws(rng, 1)[0]
            rows = [mat[j:j + 1] for mat, j in zip(mats, idx)]
            assert_sample_equals(conic_evaluate(oracle, x, idx), class_loop_assemble(oracle, X, rows))
            assert_sample_equals(conic_full_batch(oracle, x), class_loop_assemble(oracle, X, mats))

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_full_batch_rows_match_one_row_calls_bit_for_bit(self, m):
        rng = np.random.default_rng(800 + m)
        # Unequal class sizes, and one all-zero feature so that some gradient
        # entries are signed zeros.
        mats = {label: rng.normal(loc=0.5 * label, size=(4 + 5 * label, 6)) for label in range(m)}
        for mat in mats.values():
            mat[:, 2] = 0.0
        oracle = NeymanPearsonOracle(ClassGroupedDataset(mats, 6), 3.0, r=rng.uniform(0.5, 2.0, size=m - 1))
        chunk = oracles.FULL_BATCH_CHUNK
        X = np.array([oracle.feasible_set.prox(1.0, rng.normal(size=oracle.dim) * 4.0)
                      for _ in range(chunk + 1)])
        X[chunk // 2] = -0.0
        for K in (1, chunk - 1, chunk, chunk + 1):
            rows = oracle.full_batch_rows(X[:K])
            assert rows.f_value.shape == (K,) and rows.g_jacobian.shape == (K, m - 1, oracle.dim)
            for p in range(K):
                one = conic_full_batch(oracle, X[p])
                for name in ("f_value", "f_grad", "g_value", "g_jacobian"):
                    a, b = getattr(rows, name)[p], getattr(one, name)
                    assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b)), (K, p, name)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_evaluate_rows_match_one_row_calls_bit_for_bit(self, m):
        # The stacked samples of the LSAAL batch: each row has the bits of its
        # point and draw evaluated alone, signed zeros included.
        rng = np.random.default_rng(900 + m)
        mats = {label: rng.normal(loc=0.5 * label, size=(4 + 5 * label, 6)) for label in range(m)}
        for mat in mats.values():
            mat[:, 2] = 0.0
        oracle = NeymanPearsonOracle(ClassGroupedDataset(mats, 6), 3.0, r=rng.uniform(0.5, 2.0, size=m - 1))
        X = np.array([oracle.feasible_set.prox(1.0, rng.normal(size=oracle.dim) * 4.0) for _ in range(12)])
        X[5] = -0.0
        idx = oracle.draws(rng, 12)
        for K in (1, 2, 12):
            rows = oracle.evaluate_rows(X[:K], idx[:K])
            assert rows.f_value.shape == (K,) and rows.g_jacobian.shape == (K, m - 1, oracle.dim)
            for p in range(K):
                one = conic_evaluate(oracle, X[p], idx[p])
                for name in ("f_value", "f_grad", "g_value", "g_jacobian"):
                    a, b = getattr(rows, name)[p], getattr(one, name)
                    assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b)), (K, p, name)

    @pytest.mark.parametrize("sizes", [(100, 100, 100), (37, 100, 5000)])
    def test_draws_match_one_class_at_a_time(self, sizes):
        rng = np.random.default_rng(5)
        ds = ClassGroupedDataset({label: rng.normal(size=(size, 2)) for label, size in enumerate(sizes)}, 2)
        oracle = NeymanPearsonOracle(ds, 1.0)
        block, single = np.random.default_rng(11), np.random.default_rng(11)
        draws = oracle.draws(block, 1024)
        assert draws.shape == (1024, len(sizes))
        assert draws.tolist() == [[int(single.integers(size)) for size in sizes] for _ in range(1024)]
        assert block.random() == single.random()

    def test_needs_two_classes(self):
        rng = np.random.default_rng(0)
        ds = synth_gaussian_classes(rng, 2, 3, 5, 0.0)
        only_one = {ds.labels[0]: ds.classes[ds.labels[0]]}
        from saddle_sa import ClassGroupedDataset
        one_class = ClassGroupedDataset(only_one, ds.feature_dim)
        with pytest.raises(ValueError):
            NeymanPearsonOracle(one_class, 1.0)
