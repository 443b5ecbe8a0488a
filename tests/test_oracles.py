import math

import numpy as np
import pytest

from conftest import scalar_evaluate
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


class TestRowWiseSampling:
    """draws/evaluate_rows against one draw/evaluate at a time, bit for bit."""

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_rows_match_scalar_formulas(self, n):
        rng = np.random.default_rng(40 + n)
        for oracle in (BilinearOracle(n), TanhOracle(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n))):
            for T in (1, 2, 7):
                X = rng.normal(size=(T, n)) * 3.0
                Y = rng.normal(size=(T, n)) * 3.0
                D = oracle.draws(rng, T)
                rows = oracle.evaluate_rows(X, Y, D)
                assert rows.grad_x.shape == (T, n) and rows.grad_y.shape == (T, n)
                for t in range(T):
                    z = PrimalDualPoint(X[t], Y[t])
                    value, gx, gy = scalar_evaluate(oracle, z, D[t])
                    assert rows.value[t] == value
                    assert np.array_equal(rows.grad_x[t], gx) and np.array_equal(rows.grad_y[t], gy)
                    one = oracle.evaluate(z, D[t])
                    assert one.value == value and type(one.value) is float
                    assert np.array_equal(one.grad_x, gx) and np.array_equal(one.grad_y, gy)

    @pytest.mark.parametrize("oracle", [BilinearOracle(3), TanhOracle(np.ones(3), -np.ones(3))],
                             ids=["bilinear", "tanh"])
    def test_block_of_draws_has_the_bits_of_single_draws(self, oracle):
        block = oracle.draws(RandomSource(3, 9).generator(), 50)
        rng = RandomSource(3, 9).generator()
        singles = np.stack([oracle.draw(rng) for _ in range(50)])
        assert np.array_equal(block, singles)


class TestBilinearOracle:
    def test_frozen_xi_hand_example(self):
        oracle = BilinearOracle(1)
        s = oracle.evaluate(PrimalDualPoint([1.0], [1.0]), np.array([0.5]))
        assert s.value == pytest.approx(0.25)
        np.testing.assert_allclose(s.grad_x, [0.25], atol=0.0)
        np.testing.assert_allclose(s.grad_y, [0.25], atol=0.0)

    def test_zero_x_kills_grad_y(self):
        oracle = BilinearOracle(3)
        rng = RandomSource(1).generator()
        z = PrimalDualPoint(np.zeros(3), rng.normal(size=3))
        s = oracle.sample(rng, z)
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
        grads = np.empty((n_samples, 3))
        for i in range(n_samples):
            grads[i] = oracle.sample(rng, z).grad_x
        target = oracle.Q @ z.y
        se = grads.std(axis=0, ddof=1) / math.sqrt(n_samples)
        assert (np.abs(grads.mean(axis=0) - target) <= 3.0 * se + 1e-12).all()

    def test_gradients_match_finite_differences(self):
        oracle = BilinearOracle(4)
        rng = RandomSource(3).generator()
        for _ in range(10):
            z = PrimalDualPoint(rng.normal(size=4), rng.normal(size=4))
            xi = oracle.draw(rng)
            s = oracle.evaluate(z, xi)
            finite_diff_check(lambda x: oracle.evaluate(PrimalDualPoint(x, z.y), xi).value, s.grad_x, z.x)
            finite_diff_check(lambda y: oracle.evaluate(PrimalDualPoint(z.x, y), xi).value, s.grad_y, z.y)


class TestTanhOracle:
    def make(self, n=3, seed=5):
        rng = RandomSource(seed).generator()
        return TanhOracle(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)), rng

    def test_zero_x_value_is_one(self):
        oracle, rng = self.make()
        z = PrimalDualPoint(np.zeros(3), rng.normal(size=3))
        s = oracle.sample(rng, z)
        assert s.value == pytest.approx(1.0)

    def test_zero_x_kills_grad_y(self):
        oracle, rng = self.make()
        z = PrimalDualPoint(np.zeros(3), rng.normal(size=3))
        s = oracle.sample(rng, z)
        np.testing.assert_allclose(s.grad_y, np.zeros(3), atol=0.0)

    def test_grad_x_at_zero_x(self):
        # sech^2(0) = 1, so grad_x = -v1 * tanh(v2 <y,u2>) * u1
        oracle, rng = self.make()
        z = PrimalDualPoint(np.zeros(3), rng.normal(size=3))
        u = oracle.draw(rng)
        s = oracle.evaluate(z, u)
        v1 = 1.0 if float(oracle.xbar @ u[0]) >= 0 else -1.0
        v2 = 1.0 if float(oracle.ybar @ u[1]) >= 0 else -1.0
        expected = -v1 * math.tanh(v2 * float(z.y @ u[1])) * u[0]
        np.testing.assert_allclose(s.grad_x, expected, rtol=1e-14)

    def test_gradients_match_finite_differences(self):
        oracle, rng = self.make(n=4, seed=8)
        for _ in range(10):
            z = PrimalDualPoint(rng.normal(size=4), rng.normal(size=4))
            u = oracle.draw(rng)
            s = oracle.evaluate(z, u)
            finite_diff_check(lambda x: oracle.evaluate(PrimalDualPoint(x, z.y), u).value, s.grad_x, z.x)
            finite_diff_check(lambda y: oracle.evaluate(PrimalDualPoint(z.x, y), u).value, s.grad_y, z.y)

    def test_batch_evaluation_matches_per_draw_mean(self):
        oracle, rng = self.make(n=5, seed=13)
        z = PrimalDualPoint(rng.normal(size=5), rng.normal(size=5))
        draws = [oracle.draw(rng) for _ in range(40)]
        batch = oracle.evaluate_batch(z, np.stack(draws))
        singles = [oracle.evaluate(z, u) for u in draws]
        assert batch.value == pytest.approx(np.mean([s.value for s in singles]), rel=1e-12)
        np.testing.assert_allclose(batch.grad_x, np.mean([s.grad_x for s in singles], axis=0), rtol=1e-12)
        np.testing.assert_allclose(batch.grad_y, np.mean([s.grad_y for s in singles], axis=0), rtol=1e-12)


class TestNeymanPearsonOracle:
    def test_values_at_zero(self, np_instance):
        oracle = np_instance
        m = oracle.m
        fb = oracle.full_batch(np.zeros(oracle.dim))
        assert fb.f_value == pytest.approx((m - 1) * math.log(2.0), rel=1e-12)
        np.testing.assert_allclose(fb.g_value, (m - 1) * (math.log(2.0) - 1.0), rtol=1e-12)

    def test_zero_is_slater_point(self, np_instance):
        oracle = np_instance
        fb = oracle.full_batch(oracle.slater_point())
        assert (fb.g_value < 0.0).all()
        margin = oracle.cone.interior_distance(fb.g_value)
        assert margin == pytest.approx((oracle.m - 1) * (1.0 - math.log(2.0)), rel=1e-12)

    def test_gradient_contributions_at_zero(self, np_instance):
        # phi'(0) = -1/2: every term contributes +/- psi/2 on its two blocks
        oracle = np_instance
        idx = (0, 0, 0)
        s = oracle.evaluate(np.zeros(oracle.dim), idx)
        psi1 = oracle.dataset.class_matrix(oracle.labels[0])[0]
        grads = s.f_grad.reshape(oracle.m, oracle.n)
        np.testing.assert_allclose(grads[0], -(oracle.m - 1) * psi1 / 2.0, rtol=1e-12)
        for l in range(1, oracle.m):
            np.testing.assert_allclose(grads[l], psi1 / 2.0, rtol=1e-12)

    def test_sample_distribution_and_unbiasedness(self, np_instance):
        oracle = np_instance
        rng = RandomSource(21).generator()
        x = oracle.feasible_set.prox(1.0, rng.normal(size=oracle.dim))
        fb = oracle.full_batch(x)
        n_samples = 4000
        acc_g = np.zeros_like(fb.g_value)
        acc_f = 0.0
        for _ in range(n_samples):
            s = oracle.sample(rng, x)
            acc_g += s.g_value
            acc_f += s.f_value
        np.testing.assert_allclose(acc_g / n_samples, fb.g_value, atol=0.05)
        assert acc_f / n_samples == pytest.approx(fb.f_value, abs=0.05)

    def test_gradients_match_finite_differences(self, np_instance):
        oracle = np_instance
        rng = RandomSource(31).generator()
        for _ in range(5):
            x = oracle.feasible_set.prox(1.0, rng.normal(size=oracle.dim) * 2.0)
            idx = oracle.draw(rng)
            s = oracle.evaluate(x, idx)
            finite_diff_check(lambda w: oracle.evaluate(w, idx).f_value, s.f_grad, x)
            jac = s.g_jacobian
            for row in range(oracle.m - 1):
                finite_diff_check(lambda w, r=row: oracle.evaluate(w, idx).g_value[r], jac[row], x)

    def test_jacobian_adjoint_consistency(self, np_instance):
        oracle = np_instance
        rng = RandomSource(41).generator()
        s = oracle.sample(rng, np.zeros(oracle.dim))
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
            s = oracle.sample(rng, x)
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
            fx = oracle.full_batch(x)
            fz = oracle.full_batch(z)
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
        mats = [ds.class_matrix(label) for label in ds.labels]
        for _ in range(25):
            # Scaled up to reach saturated margins, then onto the feasible balls.
            x = oracle.feasible_set.prox(1.0, rng.normal(size=oracle.dim) * 4.0)
            X = x.reshape(m, oracle.n)
            idx = oracle.draw(rng)
            rows = [mat[j:j + 1] for mat, j in zip(mats, idx)]
            assert_sample_equals(oracle.evaluate(x, idx), class_loop_assemble(oracle, X, rows))
            assert_sample_equals(oracle.full_batch(x), class_loop_assemble(oracle, X, mats))

    def test_needs_two_classes(self):
        rng = np.random.default_rng(0)
        ds = synth_gaussian_classes(rng, 2, 3, 5, 0.0)
        only_one = {ds.labels[0]: ds.classes[ds.labels[0]]}
        from saddle_sa import ClassGroupedDataset
        one_class = ClassGroupedDataset(only_one, ds.feature_dim)
        with pytest.raises(ValueError):
            NeymanPearsonOracle(one_class, 1.0)
