import math

import numpy as np
import pytest

from conftest import batch_value, grid_prox_1d, grid_prox_2d, random_prox_instances
from saddle_sa import (
    BallIndicator,
    BlockSeparable,
    BoxIndicator,
    PositivePartSum,
    PrimalDualPoint,
    ScaledL1,
    ScaledL2,
    ZeroFunction,
    prox,
    prox_joint,
)


class TestClosedForms:
    def test_soft_threshold(self):
        out = prox(ScaledL1(1.0), 1.0, np.array([3.0, -1.0, 0.2]))
        np.testing.assert_allclose(out, [2.0, 0.0, 0.0], atol=1e-15)

    def test_block_soft_threshold(self):
        out = prox(ScaledL2(1.0), 2.0, np.array([3.0, 4.0]))
        np.testing.assert_allclose(out, [1.8, 2.4], atol=1e-15)

    def test_positive_part_piecewise(self):
        # Frozen from the 1-D grid oracle below: per component minimizers of
        # mu*max(w,0) + (w-v)^2/(2 gamma).
        f = PositivePartSum(1.0)
        v = np.array([2.0, 0.5, -1.0])
        out = prox(f, 1.0, v)
        np.testing.assert_allclose(out, [1.0, 0.0, -1.0], atol=1e-15)
        for vi, expect in zip(v, out):
            assert grid_prox_1d(f, 1.0, float(vi), bound=4.0) == pytest.approx(expect, abs=2e-4)

    def test_ball_projection(self):
        f = BallIndicator(np.zeros(2), 1.0)
        np.testing.assert_allclose(prox(f, 0.5, np.array([3.0, 4.0])), [0.6, 0.8], atol=1e-15)
        np.testing.assert_allclose(prox(f, 1.0, np.array([0.1, -0.2])), [0.1, -0.2], atol=1e-15)

    def test_box_projection(self):
        f = BoxIndicator(np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
        np.testing.assert_allclose(prox(f, 1.0, np.array([5.0, -3.0])), [1.0, 0.0], atol=1e-15)

    def test_zero_is_identity(self):
        v = np.array([1.0, -2.0, 3.0])
        np.testing.assert_allclose(prox(ZeroFunction(), 0.3, v), v, atol=0.0)

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError):
            prox(ScaledL1(1.0), 0.0, np.array([1.0]))
        with pytest.raises(ValueError):
            prox(ScaledL1(1.0), -1.0, np.array([1.0]))


class TestProxJoint:
    def test_identity_blocks(self):
        z = PrimalDualPoint([1.0, -2.0], [7.0])
        out = prox_joint(ZeroFunction(), ZeroFunction(), 1.0, z)
        assert out.allclose(z)

    def test_blockwise_soft_threshold(self):
        z = PrimalDualPoint([3.0], [-1.0])
        out = prox_joint(ScaledL1(1.0), ScaledL1(1.0), 1.0, z)
        np.testing.assert_allclose(out.x, [2.0], atol=1e-15)
        np.testing.assert_allclose(out.y, [0.0], atol=1e-15)

    def test_ball_and_zero(self):
        z = PrimalDualPoint([3.0, 4.0], [7.0])
        out = prox_joint(BallIndicator(np.zeros(2), 1.0), ZeroFunction(), 0.5, z)
        np.testing.assert_allclose(out.x, [0.6, 0.8], atol=1e-15)
        np.testing.assert_allclose(out.y, [7.0], atol=0.0)

    def test_matches_block_separable_on_stacked(self):
        rng = np.random.default_rng(5)
        theta, omega = ScaledL1(0.7), ScaledL2(1.3)
        stacked_fn = BlockSeparable([(theta, 3), (omega, 2)])
        for _ in range(20):
            z = PrimalDualPoint(rng.normal(size=3), rng.normal(size=2))
            gamma = float(rng.uniform(0.1, 2.0))
            joint = prox_joint(theta, omega, gamma, z)
            stacked = stacked_fn.prox(gamma, z.stacked())
            assert np.array_equal(joint.stacked(), stacked)


class TestProperties:
    def test_nonexpansiveness(self):
        rng = np.random.default_rng(11)
        for trial in range(50):
            for f in random_prox_instances(rng, 4):
                u = rng.normal(size=4) * 2.0
                v = rng.normal(size=4) * 2.0
                gamma = float(rng.uniform(0.05, 3.0))
                d_out = np.linalg.norm(prox(f, gamma, u) - prox(f, gamma, v))
                assert d_out <= np.linalg.norm(u - v) + 1e-12

    def test_prox_inequality(self):
        # f(z) + |z-zc|^2/2g - |z-z+|^2/2g >= f(z+) + |z+-zc|^2/2g
        rng = np.random.default_rng(12)
        for trial in range(100):
            for f in random_prox_instances(rng, 3):
                zc = rng.normal(size=3) * 2.0
                z = rng.normal(size=3) * 2.0
                if f.is_indicator:
                    z = f.prox(1.0, z)  # keep f(z) finite so the bound is informative
                gamma = float(rng.uniform(0.05, 3.0))
                zp = prox(f, gamma, zc)
                lhs = f.value(z) + (np.linalg.norm(z - zc) ** 2 - np.linalg.norm(z - zp) ** 2) / (2 * gamma)
                rhs = f.value(zp) + np.linalg.norm(zp - zc) ** 2 / (2 * gamma)
                assert lhs >= rhs - 1e-10

    def test_grid_search_equivalence_1d(self):
        rng = np.random.default_rng(13)
        for trial in range(30):
            for f in random_prox_instances(rng, 1):
                v = float(rng.uniform(-3.0, 3.0))
                gamma = float(rng.uniform(0.1, 2.0))
                expect = grid_prox_1d(f, gamma, v, bound=8.0)
                got = prox(f, gamma, np.array([v]))[0]
                assert got == pytest.approx(expect, abs=2e-4)

    def test_grid_search_equivalence_2d(self):
        rng = np.random.default_rng(14)
        for trial in range(10):
            for f in random_prox_instances(rng, 2):
                v = rng.uniform(-3.0, 3.0, size=2)
                gamma = float(rng.uniform(0.1, 2.0))
                expect = grid_prox_2d(f, gamma, v, bound=8.0)
                got = prox(f, gamma, v)
                np.testing.assert_allclose(got, expect, atol=2e-4)

    def test_fixed_points(self):
        # prox(gamma, v) = v whenever 0 is a subgradient at v
        np.testing.assert_allclose(prox(ScaledL1(1.0), 0.7, np.zeros(3)), np.zeros(3), atol=0.0)
        np.testing.assert_allclose(prox(ScaledL2(2.0), 0.7, np.zeros(3)), np.zeros(3), atol=0.0)
        v = np.array([-1.0, -0.5])
        np.testing.assert_allclose(prox(PositivePartSum(1.0), 0.7, v), v, atol=0.0)
        inside = np.array([0.2, -0.1])
        np.testing.assert_allclose(prox(BallIndicator(np.zeros(2), 1.0), 0.7, inside), inside, atol=0.0)


class TestBlockSeparable:
    def test_value_and_membership(self):
        f = BlockSeparable([(BallIndicator(np.zeros(2), 1.0), 2), (BoxIndicator(np.array([0.0]), np.array([1.0])), 1)])
        assert f.is_indicator
        assert f.contains(np.array([0.5, 0.5, 0.5]))
        assert not f.contains(np.array([2.0, 0.0, 0.5]))
        assert f.value(np.array([0.0, 0.0, 0.5])) == 0.0
        assert f.value(np.array([0.0, 0.0, 5.0])) == math.inf

    def test_projection_blockwise(self):
        f = BlockSeparable([(BallIndicator(np.zeros(2), 1.0), 2), (ZeroFunction(), 1)])
        out = f.prox(1.0, np.array([3.0, 4.0, 9.0]))
        np.testing.assert_allclose(out, [0.6, 0.8, 9.0], atol=1e-15)

    def test_diameter(self):
        f = BlockSeparable([(BallIndicator(np.zeros(2), 2.0), 2)] * 3)
        assert f.diameter() == pytest.approx(4.0 * math.sqrt(3.0))

    def test_mixed_nonindicator(self):
        f = BlockSeparable([(ScaledL1(1.0), 2), (ZeroFunction(), 1)])
        assert not f.is_indicator
        out = f.prox(1.0, np.array([3.0, -0.5, 2.0]))
        np.testing.assert_allclose(out, [2.0, 0.0, 2.0], atol=1e-15)

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (3, 10), (5, 7)])
    def test_equal_balls_match_per_block_prox_bit_for_bit(self, m, n):
        # Identical balls over equal blocks take the row-wise projection; it
        # must reproduce the per-block BallIndicator.prox exactly. Rows are
        # drawn inside, outside, exactly on the sphere (a 3-4-5 multiple
        # around an integer center), and at zero.
        rng = np.random.default_rng(100 * m + n)
        for trial in range(200):
            scale = 2.0 ** int(rng.integers(-3, 4))
            center = rng.integers(-2, 3, size=n).astype(float) if trial % 2 else np.zeros(n)
            ball = BallIndicator(center, 5.0 * scale)
            f = BlockSeparable([(ball, n)] * m)
            assert f._rows is not None
            on_sphere = np.zeros(n)
            on_sphere[0] = 5.0 * scale
            if n > 1:
                on_sphere[:2] = [3.0 * scale, -4.0 * scale]
            kinds = [
                center + rng.uniform(-1.0, 1.0, size=n) * scale,
                center + rng.normal(size=n) * 20.0 * scale,
                center + on_sphere,
                np.zeros(n),
            ]
            V = np.stack([kinds[int(k)] for k in rng.integers(0, 4, size=m)])
            expect = np.concatenate([ball_projection_1d(center, 5.0 * scale, row) for row in V])
            assert np.array_equal(f.prox(0.7, V.reshape(-1)), expect)
            assert np.array_equal(np.concatenate([ball.prox(0.7, row) for row in V]), expect)

    def test_mixed_parts_keep_the_block_loop(self):
        a, b = BallIndicator(np.zeros(2), 1.0), BallIndicator(np.zeros(2), 1.0)
        assert BlockSeparable([(a, 2), (b, 2)])._rows is None  # equal, not the same
        assert BlockSeparable([(a, 2), (ZeroFunction(), 2)])._rows is None
        assert BlockSeparable([(a, 2), (a, 3)])._rows is None  # same, but unequal blocks
        # One function over equal blocks takes the row-wise path, also for a
        # kind whose row-wise prox is the default loop over rows.
        box = BoxIndicator(np.zeros(2), np.ones(2))
        f = BlockSeparable([(box, 2)] * 2)
        assert f._rows == (box, 2, 2)
        v = np.array([-1.0, 0.5, 2.0, 0.25])
        assert np.array_equal(f.prox(1.0, v), np.concatenate([box.prox(1.0, v[:2]), box.prox(1.0, v[2:])]))

    @pytest.mark.parametrize("fn", [ZeroFunction(), ScaledL1(0.8), ScaledL2(0.8), PositivePartSum(0.8)])
    def test_equal_parts_match_per_block_prox_bit_for_bit(self, fn):
        rng = np.random.default_rng(5)
        f = BlockSeparable([(fn, 3)] * 4)
        assert f._rows is not None
        for _ in range(100):
            v = rng.normal(size=12) * 2.0 ** int(rng.integers(-4, 4))
            expect = np.concatenate([fn.prox(0.6, blk) for blk in v.reshape(4, 3)])
            assert np.array_equal(f.prox(0.6, v), expect)

    def test_bad_input_rejected(self):
        f = BlockSeparable([(BallIndicator(np.zeros(2), 1.0), 2)] * 3)
        for v in ([0.0] * 5, [0.0] * 5 + [math.nan], [math.inf] + [0.0] * 5):
            with pytest.raises(ValueError):
                f.prox(1.0, np.array(v))
        with pytest.raises(ValueError):
            f.prox(0.0, np.zeros(6))
        with pytest.raises(ValueError):
            BlockSeparable([(BallIndicator(np.zeros(1), 1.0), 2)] * 2).prox(1.0, np.zeros(4))


def ball_projection_1d(center, radius, v):
    """BallIndicator.prox written as a 1-D formula with np.linalg.norm."""
    d = v - center
    nrm = float(np.linalg.norm(d))
    if nrm <= radius:
        return v.copy()
    return center + (radius / nrm) * d


def block_soft_threshold_1d(mu, gamma, v):
    """ScaledL2.prox written as a 1-D formula with np.linalg.norm."""
    t = mu * gamma
    nrm = float(np.linalg.norm(v))
    if nrm <= t:
        return np.zeros_like(v)
    return (1.0 - t / nrm) * v


class TestRowWiseProx:
    @pytest.mark.parametrize("n", [1, 3, 10])
    def test_block_soft_threshold_matches_1d_formula_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        for _ in range(500):
            mu, gamma = float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.01, 2.0))
            v = rng.normal(size=n) * 2.0 ** int(rng.integers(-6, 6))
            if rng.random() < 0.1:
                v = v * 0.0
            assert np.array_equal(ScaledL2(mu).prox(gamma, v), block_soft_threshold_1d(mu, gamma, v))

    @pytest.mark.parametrize("n", [1, 3, 10])
    def test_ball_projection_matches_1d_formula_bit_for_bit(self, n):
        rng = np.random.default_rng(20 + n)
        for _ in range(500):
            scale = 2.0 ** int(rng.integers(-6, 6))
            center = rng.normal(size=n) * scale if rng.random() < 0.5 else np.zeros(n)
            radius = float(rng.uniform(0.1, 3.0)) * scale
            v = center + rng.normal(size=n) * radius * float(rng.uniform(0.0, 2.0))
            ball = BallIndicator(center, radius)
            assert np.array_equal(ball.prox(0.5, v), ball_projection_1d(center, radius, v))

    @pytest.mark.parametrize("fn", [ZeroFunction(), ScaledL1(0.7), ScaledL2(0.7), PositivePartSum(0.7),
                                    BallIndicator(np.array([0.5, -1.0, 0.0]), 1.5),
                                    BoxIndicator(np.array([-1.0, 0.0, -0.5]), np.array([1.0, 0.5, 2.0])),
                                    BlockSeparable([(ScaledL1(0.7), 2), (BallIndicator(np.zeros(1), 0.5), 1)])])
    def test_rows_match_prox_of_each_row(self, fn):
        rng = np.random.default_rng(9)
        V = rng.normal(size=(40, 3)) * rng.uniform(0.01, 5.0, size=(40, 1))
        V[::7] = 0.0
        out = fn._prox_rows(0.9, V)
        assert out.shape == V.shape
        for row, v in zip(out, V):
            assert np.array_equal(row, fn.prox(0.9, v))


class TestNormalConeDistance:
    def test_ball_interior_and_boundary(self):
        ball = BallIndicator(np.zeros(2), 1.0)
        # interior: normal cone is {0}
        assert ball.normal_cone_distance(np.array([0.2, 0.0]), np.array([0.3, 0.4])) == pytest.approx(0.5)
        # boundary: outward ray along x absorbs the radial component
        x = np.array([1.0, 0.0])
        assert ball.normal_cone_distance(x, np.array([2.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
        assert ball.normal_cone_distance(x, np.array([2.0, 1.0])) == pytest.approx(1.0)
        # inward vector is not in the cone at all
        assert ball.normal_cone_distance(x, np.array([-2.0, 0.0])) == pytest.approx(2.0)

    def test_box_faces(self):
        box = BoxIndicator(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        x = np.array([1.0, 0.5])  # on the hi face of coordinate 0 only
        assert box.normal_cone_distance(x, np.array([3.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
        assert box.normal_cone_distance(x, np.array([-3.0, 0.0])) == pytest.approx(3.0)
        assert box.normal_cone_distance(x, np.array([0.0, 0.2])) == pytest.approx(0.2)

    def test_free_space(self):
        z = ZeroFunction()
        assert z.normal_cone_distance(np.array([1.0]), np.array([2.0])) == pytest.approx(2.0)
