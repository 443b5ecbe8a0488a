"""Shared test fixtures and independent oracles.

The grid searches below restate each function's defining objective directly
(value formulas written out here, not imported behavior) so prox/projection
implementations are checked against brute-force minimization.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
import pytest

from saddle_sa import (
    BallIndicator,
    BilinearOracle,
    BlockSeparable,
    BoxIndicator,
    ConicSample,
    NeymanPearsonOracle,
    PositivePartSum,
    ScaledL1,
    ScaledL2,
    ZeroFunction,
    synth_gaussian_classes,
)
from saddle_sa import lsaal

GRID_STEP = 1e-4


def batch_value(f, W: np.ndarray) -> np.ndarray:
    """Vectorized restatement of f's defining value over rows of W."""
    if isinstance(f, ScaledL1):
        return f.mu * np.abs(W).sum(axis=1)
    if isinstance(f, ScaledL2):
        return f.mu * np.linalg.norm(W, axis=1)
    if isinstance(f, PositivePartSum):
        return f.mu * np.maximum(W, 0.0).sum(axis=1)
    if isinstance(f, BallIndicator):
        inside = np.linalg.norm(W - f.center, axis=1) <= f.radius + 1e-12
        return np.where(inside, 0.0, np.inf)
    if isinstance(f, BoxIndicator):
        inside = ((W >= f.lo - 1e-12) & (W <= f.hi + 1e-12)).all(axis=1)
        return np.where(inside, 0.0, np.inf)
    if isinstance(f, ZeroFunction):
        return np.zeros(W.shape[0])
    raise TypeError(f"no independent value formula for {type(f).__name__}")


def reference_positive_part_prox(f, gamma: float, V: np.ndarray) -> np.ndarray:
    """PositivePartSum's prox restated as its three defining cases, one
    np.where each: V - t at or above t = mu*gamma, V below 0, else 0."""
    t = f.mu * gamma
    return np.where(V >= t, V - t, np.where(V < 0.0, V, 0.0))


def grid_prox_1d(f, gamma: float, v: float, bound: float, step: float = GRID_STEP) -> float:
    """Dense 1-D grid argmin of f(w) + (w - v)^2 / (2 gamma)."""
    grid = np.arange(-bound, bound + step, step)
    W = grid[:, None]
    obj = batch_value(f, W) + (grid - v) ** 2 / (2.0 * gamma)
    return float(grid[int(np.argmin(obj))])


def _grid_prox_2d_cartesian(f, gamma, v, bound, final_step):
    lo = np.array([-bound, -bound], dtype=float)
    hi = np.array([bound, bound], dtype=float)
    npts = 161
    while True:
        axes = [np.linspace(lo[d], hi[d], npts) for d in range(2)]
        G0, G1 = np.meshgrid(axes[0], axes[1], indexing="ij")
        W = np.column_stack([G0.ravel(), G1.ravel()])
        obj = batch_value(f, W) + ((W - v) ** 2).sum(axis=1) / (2.0 * gamma)
        best = W[int(np.argmin(obj))]
        step = (hi - lo) / (npts - 1)
        if step.max() <= final_step:
            return best
        lo = best - 4.0 * step
        hi = best + 4.0 * step


def _grid_prox_2d_ball(f: BallIndicator, v, final_step):
    # Dense grid over the disk itself in polar coordinates (radius, angle);
    # a cartesian grid cannot resolve the curved boundary to final_step.
    rho_lo, rho_hi = 0.0, f.radius
    phi_lo, phi_hi = -math.pi, math.pi
    npts = 161
    while True:
        rho = np.linspace(rho_lo, rho_hi, npts)
        phi = np.linspace(phi_lo, phi_hi, npts)
        Rg, Pg = np.meshgrid(rho, phi, indexing="ij")
        W = np.column_stack([
            f.center[0] + (Rg * np.cos(Pg)).ravel(),
            f.center[1] + (Rg * np.sin(Pg)).ravel(),
        ])
        obj = ((W - v) ** 2).sum(axis=1)
        flat = int(np.argmin(obj))
        best_rho = Rg.ravel()[flat]
        best_phi = Pg.ravel()[flat]
        rho_step = (rho_hi - rho_lo) / (npts - 1)
        phi_step = (phi_hi - phi_lo) / (npts - 1)
        if rho_step <= final_step and f.radius * phi_step <= final_step:
            return W[flat]
        rho_lo = max(0.0, best_rho - 4.0 * rho_step)
        rho_hi = min(f.radius, best_rho + 4.0 * rho_step)
        phi_lo = best_phi - 4.0 * phi_step
        phi_hi = best_phi + 4.0 * phi_step


def grid_prox_2d(f, gamma: float, v: np.ndarray, bound: float,
                 final_step: float = GRID_STEP) -> np.ndarray:
    """Refining 2-D grid argmin of the prox objective.

    Zooms on the argmin cell of successively finer grids; valid as a global
    search because the objective is strictly convex (and, for the ball,
    unimodal in polar coordinates).
    """
    if isinstance(f, BallIndicator):
        return _grid_prox_2d_ball(f, np.asarray(v, dtype=float), final_step)
    return _grid_prox_2d_cartesian(f, gamma, np.asarray(v, dtype=float), bound, final_step)


def scalar_evaluate(oracle, z, d):
    """One draw of the bilinear or tanh oracle as 1-D formulas: (value,
    grad_x, grad_y). A tanh draw may be raw, (u1, u2), or label-signed,
    (v1 u1, v2 u2) as `TanhOracle.draws` returns it; a signed draw's labels
    are +1."""
    if isinstance(oracle, BilinearOracle):
        tx = float(d @ z.x)
        ty = float(d @ z.y)
        return tx * ty, d * ty, d * tx
    u1, u2 = d[0], d[1]
    v1 = 1.0 if float(oracle.xbar @ u1) >= 0.0 else -1.0
    v2 = 1.0 if float(oracle.ybar @ u2) >= 0.0 else -1.0
    a = math.tanh(v1 * float(z.x @ u1))
    b = math.tanh(v2 * float(z.y @ u2))
    return 1.0 - a * b, (-v1 * (1.0 - a * a) * b) * u1, (-v2 * a * (1.0 - b * b)) * u2


class PointSample(NamedTuple):
    """Conic-oracle data at one point: a float objective value, the 1-D
    gradient and constraint value, and the (constraints, dim) Jacobian. An
    oracle's `ConicSample` is always a stack of rows; this is one row of it."""

    f_value: float
    f_grad: np.ndarray
    g_value: np.ndarray
    g_jacobian: np.ndarray


def _point_sample(s: ConicSample) -> PointSample:
    """The only row of a one-row ConicSample."""
    return PointSample(float(s.f_value[0]), s.f_grad[0], s.g_value[0], s.g_jacobian[0])


def conic_evaluate(oracle, x, idx) -> PointSample:
    """A conic oracle's sample at one point x and one draw idx: the one-row
    case of its `evaluate_rows`."""
    return _point_sample(oracle.evaluate_rows(np.asarray(x, dtype=float)[None], np.asarray(idx)[None]))


def conic_full_batch(oracle, x) -> PointSample:
    """A conic oracle's full batch at one point x: the one-row case of its
    `full_batch_rows`."""
    return _point_sample(oracle.full_batch_rows(np.asarray(x, dtype=float)[None]))


class Subproblem(NamedTuple):
    """One LSAAL subproblem: current point, multiplier, sample, penalty and cone."""

    x_k: np.ndarray
    y_k: np.ndarray
    sample: PointSample
    sigma: float
    cone: object


def solve_subproblem(spec: Subproblem, feasible, inner_tol: float, inner_max_iters: int):
    """The one-row case of the LSAAL solver's stacked subproblem solve: x(u)
    and the multiplier step there, or the error the row fails with, raised."""
    s = spec.sample
    sample = ConicSample(np.array([s.f_value]), s.f_grad[None], s.g_value[None], s.g_jacobian[None])
    X, Y, errors = lsaal._solve_rows(spec.x_k[None], spec.y_k[None], sample, np.array([spec.sigma]),
                                     spec.cone, feasible, inner_tol, inner_max_iters)
    if errors:
        raise errors[0]
    return X[0], Y[0]


class Sample(NamedTuple):
    value: float
    grad_x: np.ndarray
    grad_y: np.ndarray


def evaluate_one(oracle, z, d):
    """A row-form minimax oracle at one point and one draw, read back as the
    value and the two gradients from its one-row `values` and `directions`:
    the direction is (-grad_x | grad_y)."""
    Z, draws = z.stacked()[None], np.asarray(d, dtype=float)[None]
    step = oracle.directions(Z, draws)[0]
    return Sample(float(oracle.values(Z, draws)[0]), -step[:z.n], step[z.n:])


def reference_value(fn, v) -> float:
    """The one-point value of a penalty kind, restated as each kind first
    wrote it on a 1-D vector."""
    if isinstance(fn, ScaledL1):
        return fn.mu * float(np.abs(v).sum())
    if isinstance(fn, ScaledL2):
        return fn.mu * float(np.linalg.norm(v))
    if isinstance(fn, PositivePartSum):
        return fn.mu * float(np.maximum(v, 0.0).sum())
    assert isinstance(fn, ZeroFunction)
    return 0.0


def reference_minimax_gap(Q, theta, omega, x, y, x_star, y_star) -> float:
    """phi(x, y*) - phi(x*, y) for the bilinear objective, with each phi
    written on 1-D vectors as theta(x) + (x @ Q) @ y - omega(y)."""
    def phi(u, w):
        return reference_value(theta, u) + float(u @ Q @ w) - reference_value(omega, w)

    return phi(x, y_star) - phi(x_star, y)


def reference_normal_cone_distance(fn, x, v, boundary_tol=1e-9):
    """The one-point normal-cone distance of an indicator, restated as each
    kind first wrote it: a block sum squares each part's distance with the
    float power and takes math.sqrt of the running sum."""
    if isinstance(fn, BlockSeparable):
        sq = 0.0
        for part, a, b in fn.parts:
            sq += reference_normal_cone_distance(part, x[a:b], v[a:b]) ** 2
        return math.sqrt(sq)
    if isinstance(fn, BallIndicator):
        d = x - fn.center
        nrm = float(np.linalg.norm(d))
        if nrm < fn.radius - boundary_tol * (1.0 + fn.radius):
            return float(np.linalg.norm(v))  # interior: normal cone is {0}
        t = max(0.0, float(v @ d) / (nrm * nrm)) if nrm > 0.0 else 0.0
        return float(np.linalg.norm(v - t * d))
    if isinstance(fn, BoxIndicator):
        resid = v.copy()
        resid[(x >= fn.hi - boundary_tol) & (v > 0.0)] = 0.0
        resid[(x <= fn.lo + boundary_tol) & (v < 0.0)] = 0.0
        return float(np.linalg.norm(resid))
    assert isinstance(fn, ZeroFunction)
    return float(np.linalg.norm(v))


def indicator_points(fn, rng: np.random.Generator, count: int, kinks: bool = True) -> np.ndarray:
    """count points of the indicator's space, block by block, each block
    inside or outside its set by at least 5% of the radius (or half-width)
    from the boundary; with kinks=True every third row lies on the boundary
    instead and every fifth is 0. A ZeroFunction (part) gets 3 columns."""
    if isinstance(fn, BlockSeparable):
        return np.concatenate([indicator_points(part, rng, count, kinks) for part, _, _ in fn.parts], axis=1)
    if isinstance(fn, ZeroFunction):
        return rng.normal(size=(count, 3))
    if isinstance(fn, BallIndicator):
        center, dim = fn.center, fn.center.shape[0]
        D = rng.normal(size=(count, dim))
        D /= np.linalg.norm(D, axis=1)[:, None]
        X = center + fn.radius * _off_boundary(rng, (count, 1)) * D
        if kinks:
            X[1::3] = fn._prox_rows(1.0, center + 3.0 * fn.radius * D[1::3])  # on the sphere
    else:
        center, half = (fn.lo + fn.hi) / 2.0, (fn.hi - fn.lo) / 2.0
        signs = rng.choice([-1.0, 1.0], size=(count, center.shape[0]))
        X = center + half * signs * _off_boundary(rng, (count, center.shape[0]))
        if kinks:
            face = np.where(signs > 0.0, fn.hi, fn.lo)
            X[1::3] = np.where(rng.random(X[1::3].shape) < 0.5, face[1::3], X[1::3])  # on some faces
    if kinks:
        X[2::5] = 0.0
    return X


def _off_boundary(rng: np.random.Generator, shape) -> np.ndarray:
    """Radial factors in [0, 0.95] or [1.05, 2], half each."""
    return np.where(rng.random(shape) < 0.5, rng.uniform(0.0, 0.95, size=shape), rng.uniform(1.05, 2.0, size=shape))


def recording_hook(seen: list):
    """Metric hook that appends each (k, iterate, average) it receives to seen."""

    def hook(k, z, avg):
        seen.append((k, z, avg))
        return {}

    return hook


def point_hook(k, z, avg):
    """Metric hook whose values are the row's two points, as bytes."""
    return {"iterate": z.stacked().tobytes(), "average": avg.stacked().tobytes()}


def assert_kept_points_seen(record, dim: int):
    """The record's iterates and averages are, row for row, the points
    point_hook saw, with one row per recorded iteration."""
    for name, kept in (("iterate", record.iterates), ("average", record.averages)):
        seen = np.array([np.frombuffer(value) for value in record.metrics[name]]).reshape(len(record.ks), dim)
        assert kept.shape == (len(record.ks), dim)
        assert np.array_equal(kept, seen)


def random_prox_instances(rng: np.random.Generator, dim: int):
    """One random instance of every prox kind, with a value-grid bound."""
    mu = float(rng.uniform(0.1, 2.0))
    center = rng.uniform(-1.0, 1.0, size=dim)
    radius = float(rng.uniform(0.5, 2.0))
    lo = rng.uniform(-2.0, 0.0, size=dim)
    hi = lo + rng.uniform(0.5, 2.0, size=dim)
    return [
        ZeroFunction(),
        ScaledL1(mu),
        ScaledL2(mu),
        PositivePartSum(mu),
        BallIndicator(center, radius),
        BoxIndicator(lo, hi),
    ]


@pytest.fixture(scope="session")
def np_instance():
    """Desk-scale 3-class classification instance shared across suites."""
    rng = np.random.default_rng(20240501)
    dataset = synth_gaussian_classes(rng, 3, 10, 100, 1.0).normalize()
    return NeymanPearsonOracle(dataset, 5.0)


@pytest.fixture(scope="session")
def np_small_instance():
    """2-class, 4-feature instance for tight-tolerance audits."""
    rng = np.random.default_rng(77)
    dataset = synth_gaussian_classes(rng, 2, 4, 50, 1.0).normalize()
    return NeymanPearsonOracle(dataset, 5.0)
