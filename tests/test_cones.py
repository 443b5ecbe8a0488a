import math

import numpy as np
import pytest

from saddle_sa import (
    FreeCone,
    NonnegativeOrthant,
    NonpositiveOrthant,
    ProductCone,
    SecondOrderCone,
    ZeroCone,
)


def all_cone_kinds():
    return [
        NonnegativeOrthant(4),
        NonpositiveOrthant(4),
        SecondOrderCone(4),
        ZeroCone(4),
        FreeCone(4),
        ProductCone([NonnegativeOrthant(1), SecondOrderCone(3)]),
    ]


class TestClosedForms:
    def test_orthant_clip(self):
        cone = NonnegativeOrthant(2)
        np.testing.assert_allclose(cone.project(np.array([1.0, -2.0])), [1.0, 0.0], atol=0.0)

    def test_soc_polar_interior_case(self):
        cone = SecondOrderCone(3)
        np.testing.assert_allclose(cone.project(np.array([1.0, 0.0, -2.0])), [0.0, 0.0, 0.0], atol=0.0)

    def test_soc_shrink_case(self):
        cone = SecondOrderCone(3)
        np.testing.assert_allclose(cone.project(np.array([3.0, 0.0, 1.0])), [2.0, 0.0, 2.0], atol=1e-15)

    def test_soc_member_untouched(self):
        cone = SecondOrderCone(3)
        y = np.array([0.3, 0.4, 2.0])
        np.testing.assert_allclose(cone.project(y), y, atol=0.0)

    def test_nonpositive_polar_is_positive_part(self):
        cone = NonpositiveOrthant(2)
        np.testing.assert_allclose(cone.polar_project(np.array([1.0, -2.0])), [1.0, 0.0], atol=0.0)

    def test_free_polar_is_zero(self):
        cone = FreeCone(3)
        np.testing.assert_allclose(cone.polar_project(np.array([1.0, -2.0, 5.0])), np.zeros(3), atol=0.0)

    def test_zero_cone(self):
        cone = ZeroCone(2)
        y = np.array([1.0, -2.0])
        np.testing.assert_allclose(cone.project(y), [0.0, 0.0], atol=0.0)
        np.testing.assert_allclose(cone.polar_project(y), y, atol=0.0)

    def test_soc_polar_matches_grid_search(self):
        # Projection of (u=[3,0], t=1) onto {(u, t): ||u|| <= -t}, searched on
        # a refining grid in the (u1, t) plane (u2 = 0 by symmetry).
        target = np.array([3.0, 1.0])
        lo, hi = np.array([-6.0, -6.0]), np.array([6.0, 6.0])
        npts = 161
        while True:
            a = np.linspace(lo[0], hi[0], npts)
            b = np.linspace(lo[1], hi[1], npts)
            A, B = np.meshgrid(a, b, indexing="ij")
            W = np.column_stack([A.ravel(), B.ravel()])
            feas = np.abs(W[:, 0]) <= -W[:, 1]
            obj = np.where(feas, ((W - target) ** 2).sum(axis=1), np.inf)
            best = W[int(np.argmin(obj))]
            step = (hi - lo) / (npts - 1)
            if step.max() <= 1e-4:
                break
            lo, hi = best - 4.0 * step, best + 4.0 * step
        np.testing.assert_allclose(best, [1.0, -1.0], atol=2e-4)
        cone = SecondOrderCone(3)
        polar = cone.polar_project(np.array([3.0, 0.0, 1.0]))
        np.testing.assert_allclose(polar, [1.0, 0.0, -1.0], atol=1e-12)

    def test_product_blockwise(self):
        cone = ProductCone([NonnegativeOrthant(2), NonpositiveOrthant(1)])
        np.testing.assert_allclose(cone.project(np.array([-1.0, 2.0, 3.0])), [0.0, 2.0, 0.0], atol=0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            NonnegativeOrthant(3).project(np.array([1.0, 2.0]))

    @pytest.mark.parametrize("cone", all_cone_kinds(), ids=lambda c: type(c).__name__)
    @pytest.mark.parametrize("method", ["project", "polar_project", "contains", "polar_contains"])
    def test_non_finite_argument_rejected(self, cone, method):
        for bad in (math.nan, math.inf, -math.inf):
            y = np.zeros(cone.dim)
            y[-1] = bad
            with pytest.raises(ValueError):
                getattr(cone, method)(y)


class TestMoreauProperties:
    N_VECTORS = 500  # the full 1e4-vector sweep runs in the acceptance suite

    @pytest.mark.parametrize("cone", all_cone_kinds(), ids=lambda c: type(c).__name__)
    def test_decomposition_orthogonality_membership(self, cone):
        rng = np.random.default_rng(hash(type(cone).__name__) % 2**32)
        for _ in range(self.N_VECTORS):
            y = rng.normal(size=cone.dim) * 3.0
            p = cone.project(y)
            q = cone.polar_project(y)
            assert np.linalg.norm(y - p - q) <= 1e-10
            assert abs(float(p @ q)) <= 1e-10
            assert cone.contains(p, tol=1e-10)
            assert cone.polar_contains(q, tol=1e-10)

    @pytest.mark.parametrize("cone", all_cone_kinds(), ids=lambda c: type(c).__name__)
    def test_idempotence(self, cone):
        rng = np.random.default_rng(3)
        for _ in range(100):
            y = rng.normal(size=cone.dim) * 3.0
            p = cone.project(y)
            np.testing.assert_allclose(cone.project(p), p, atol=1e-12)

    @pytest.mark.parametrize("cone", all_cone_kinds(), ids=lambda c: type(c).__name__)
    def test_nonexpansive(self, cone):
        rng = np.random.default_rng(4)
        for _ in range(100):
            u = rng.normal(size=cone.dim) * 3.0
            v = rng.normal(size=cone.dim) * 3.0
            assert np.linalg.norm(cone.project(u) - cone.project(v)) <= np.linalg.norm(u - v) + 1e-12

    @pytest.mark.parametrize("cone", all_cone_kinds(), ids=lambda c: type(c).__name__)
    def test_conic_scaling(self, cone):
        rng = np.random.default_rng(5)
        for _ in range(50):
            y = rng.normal(size=cone.dim) * 2.0
            alpha = float(rng.uniform(0.1, 5.0))
            np.testing.assert_allclose(cone.project(alpha * y), alpha * cone.project(y),
                                       rtol=1e-12, atol=1e-12)


class TestInteriorDistance:
    def test_orthants(self):
        assert NonpositiveOrthant(2).interior_distance(np.array([-0.5, -2.0])) == pytest.approx(0.5)
        assert NonpositiveOrthant(2).interior_distance(np.array([0.5, -2.0])) == 0.0
        assert NonnegativeOrthant(2).interior_distance(np.array([0.25, 3.0])) == pytest.approx(0.25)

    def test_soc(self):
        cone = SecondOrderCone(3)
        assert cone.interior_distance(np.array([0.0, 0.0, 1.0])) == pytest.approx(1.0 / math.sqrt(2.0))
        assert cone.interior_distance(np.array([2.0, 0.0, 1.0])) == 0.0

    def test_free_and_zero(self):
        assert FreeCone(2).interior_distance(np.array([1.0, 1.0])) == math.inf
        assert ZeroCone(2).interior_distance(np.array([0.0, 0.0])) == 0.0

    def test_product_takes_min(self):
        cone = ProductCone([NonpositiveOrthant(1), NonpositiveOrthant(1)])
        assert cone.interior_distance(np.array([-0.5, -0.2])) == pytest.approx(0.2)


def soc_points(rng, count, dim):
    """Points of R^dim inside the second-order cone, inside its polar and in
    neither, in turn, each at least 0.1 * ||u|| from the boundaries."""
    U = rng.normal(size=(count, dim - 1))
    nu = np.linalg.norm(U, axis=1)
    t = nu * rng.uniform(1.1, 3.0, size=count)  # inside the cone
    t[1::3] *= -1.0  # inside the polar cone
    t[2::3] = nu[2::3] * rng.uniform(-0.9, 0.9, size=len(t[2::3]))  # in neither
    return np.column_stack([U, t])


def cone_points(cone, rng, count):
    """Points away from the kinks of the cone's projection: no orthant
    coordinate near 0, second-order blocks as in soc_points."""
    Y = rng.normal(size=(count, cone.dim))
    Y += np.where(Y >= 0.0, 0.2, -0.2)
    for factor, part in zip(getattr(cone, "factors", [cone]), getattr(cone, "_slices", [slice(None)])):
        if isinstance(factor, SecondOrderCone):
            Y[:, part] = soc_points(rng, count, factor.dim)
    return Y


class TestRowForms:
    @pytest.mark.parametrize("cone", all_cone_kinds(), ids=lambda c: type(c).__name__)
    def test_rows_match_projection_of_each_row(self, cone):
        rng = np.random.default_rng(12)
        Y = rng.normal(size=(300, cone.dim)) * rng.uniform(0.01, 5.0, size=(300, 1))
        Y[::7] = 0.0
        if isinstance(cone, SecondOrderCone):
            Y[1::5] = soc_points(rng, len(Y[1::5]), cone.dim)
        for rows, one in ((cone._project(Y), cone.project), (cone._polar_project(Y), cone.polar_project)):
            assert rows.shape == Y.shape
            for row, y in zip(rows, Y):
                assert np.array_equal(row, one(y))


class TestJacobians:
    @pytest.mark.parametrize("cone", all_cone_kinds() + [SecondOrderCone(2), SecondOrderCone(5)],
                             ids=lambda c: f"{type(c).__name__}{c.dim}")
    def test_jacobian_rows_match_central_differences(self, cone):
        # Away from the kinks the projections are smooth, so J r is the
        # directional derivative along r, for the cone and its polar.
        rng = np.random.default_rng(cone.dim)
        Y = cone_points(cone, rng, 300)
        R = rng.normal(size=Y.shape)
        h = 1e-6
        for rows, project in ((cone._jacobian_rows(Y, R), cone._project),
                              (cone._polar_jacobian_rows(Y, R), cone._polar_project)):
            fd = (project(Y + h * R) - project(Y - h * R)) / (2.0 * h)
            np.testing.assert_allclose(rows, fd, rtol=1e-6, atol=1e-7)

    def test_soc_jacobian_on_each_side(self):
        cone = SecondOrderCone(3)
        R = np.array([[0.3, -1.0, 2.0]] * 3)
        inside, polar, neither = np.array([[1.0, 0.0, 2.0], [1.0, 0.0, -2.0], [3.0, 0.0, 1.0]])
        out = cone._jacobian_rows(np.array([inside, polar, neither]), R)
        np.testing.assert_array_equal(out[0], R[0])  # identity inside the cone
        np.testing.assert_array_equal(out[1], np.zeros(3))  # zero inside the polar
        # At (u, t) = ((3, 0), 1): J = [[1/2, 0, 1/2], [0, 2/3, 0], [1/2, 0, 1/2]].
        np.testing.assert_allclose(out[2], [1.15, -2.0 / 3.0, 1.15], rtol=1e-15)
