import math

import numpy as np
import pytest

from saddle_sa import (
    PrimalDualPoint,
    ProblemConstants,
    RandomSource,
    RunConfig,
    RunRecord,
    StepSchedule,
    derive_stream_id,
    gamma_at,
)


class TestStepSchedule:
    def test_const_over_sqrt_n(self):
        sch = StepSchedule("const_over_sqrt_n", horizon=100)
        assert gamma_at(sch, 7) == pytest.approx(0.1, abs=1e-15)

    def test_harmonic(self):
        sch = StepSchedule("harmonic", theta=2.0)
        assert gamma_at(sch, 4) == pytest.approx(0.5, abs=1e-15)

    def test_scaled_const(self):
        sch = StepSchedule("scaled_const", theta=1.0, dist_estimate=2.0, M_estimate=4.0, horizon=16)
        assert gamma_at(sch, 3) == pytest.approx(0.125, abs=1e-15)

    def test_inv_sqrt_k(self):
        sch = StepSchedule("inv_sqrt_k", theta=3.0)
        assert gamma_at(sch, 9) == pytest.approx(1.0, abs=1e-15)

    def test_out_of_horizon_rejected(self):
        sch = StepSchedule("const_over_sqrt_n", horizon=10)
        with pytest.raises(ValueError):
            gamma_at(sch, 11)
        with pytest.raises(ValueError):
            gamma_at(sch, 0)

    def test_unbounded_kinds_accept_any_k(self):
        assert gamma_at(StepSchedule("harmonic", theta=1.0), 10**9) > 0.0

    @pytest.mark.parametrize("kind,kwargs", [
        ("const_over_sqrt_n", {"horizon": 50}),
        ("scaled_const", {"horizon": 50, "dist_estimate": 1.0, "M_estimate": 2.0}),
        ("harmonic", {}),
        ("inv_sqrt_k", {}),
    ])
    def test_positivity_over_horizon(self, kind, kwargs):
        sch = StepSchedule(kind, theta=0.7, **kwargs)
        assert all(gamma_at(sch, k) > 0.0 for k in range(1, 51))

    def test_missing_horizon_rejected(self):
        with pytest.raises(ValueError):
            StepSchedule("const_over_sqrt_n")

    @pytest.mark.parametrize("kind,kwargs", [
        ("harmonic", {"theta": math.inf}),
        ("inv_sqrt_k", {"theta": math.inf}),
        ("scaled_const", {"dist_estimate": math.inf, "M_estimate": 1.0}),
        ("scaled_const", {"dist_estimate": 1.0, "M_estimate": math.inf}),
        # finite parameters whose step underflows to 0 or overflows to inf
        ("scaled_const", {"dist_estimate": 1e-300, "M_estimate": 1e300}),
        ("scaled_const", {"theta": 1e300, "dist_estimate": 1e300, "M_estimate": 1e-300}),
        ("harmonic", {"theta": 5e-324}),
        ("inv_sqrt_k", {"theta": 5e-324}),
    ])
    def test_step_at_horizon_must_be_positive_and_finite(self, kind, kwargs):
        with pytest.raises(ValueError):
            StepSchedule(kind, horizon=10, **kwargs)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            StepSchedule("geometric")


class TestPrimalDualPoint:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            PrimalDualPoint([1.0, np.nan], [0.0])
        with pytest.raises(ValueError):
            PrimalDualPoint([1.0], [np.inf])

    def test_stacking_roundtrip(self):
        z = PrimalDualPoint([1.0, 2.0], [3.0])
        v = z.stacked()
        assert v.tolist() == [1.0, 2.0, 3.0]
        assert z.allclose(PrimalDualPoint(v[:z.n], v[z.n:]))
        assert z.n == 2 and z.m == 1

    def test_distance(self):
        a = PrimalDualPoint([0.0], [0.0])
        b = PrimalDualPoint([3.0], [4.0])
        assert a.distance_to(b) == pytest.approx(5.0)


class TestRandomSource:
    def test_reproducible_first_10k_draws(self):
        a = RandomSource(12345, 7).generator().random(10_000)
        b = RandomSource(12345, 7).generator().random(10_000)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RandomSource(12345, 7).generator().random(1_000)
        b = RandomSource(12345, 8).generator().random(1_000)
        assert not np.array_equal(a, b)

    def test_derive_stream_id_stable_and_order_sensitive(self):
        assert derive_stream_id(1, 100, 2) == derive_stream_id(1, 100, 2)
        assert derive_stream_id(1, 100, 2) != derive_stream_id(2, 100, 1)
        assert 0 <= derive_stream_id(0) < 2**63

    def test_derive_stream_id_canonicalises_integers(self):
        expect = derive_stream_id(1, 100, 2, "init")
        assert expect == 3544436831749058048  # the id Python ints have always had
        assert derive_stream_id(np.int64(1), np.int64(100), np.uint8(2), "init") == expect


class TestRunRecord:
    def test_append_and_validate(self):
        rec = RunRecord()
        rec.append(1, 0.5, {"m": 1.0}, 0.0)
        rec.append(3, 0.25, {"m": 2.0}, 0.1)
        assert (rec.ks, rec.gammas, rec.elapsed) == ([1, 3], [0.5, 0.25], [0.0, 0.1])
        assert rec.metrics == [{"m": 1.0}, {"m": 2.0}]

    def test_nonincreasing_k_rejected(self):
        rec = RunRecord()
        rec.append(2, 0.5, {}, 0.0)
        with pytest.raises(ValueError):
            rec.append(2, 0.5, {}, 0.1)

    def test_decreasing_time_rejected(self):
        rec = RunRecord()
        rec.append(1, 0.5, {}, 1.0)
        with pytest.raises(ValueError):
            rec.append(2, 0.5, {}, 0.5)


class TestRunConfig:
    def test_validation(self):
        sch = StepSchedule("harmonic")
        with pytest.raises(ValueError):
            RunConfig(horizon=0, seed=1, schedule=sch)
        with pytest.raises(ValueError):
            RunConfig(horizon=1, seed=1, schedule=sch, trace_thinning=0)


class TestProblemConstants:
    def test_beta0(self):
        c = ProblemConstants(R=1.0, nu_g=1.0, kappa_g=1.0)
        assert c.beta0 == pytest.approx(2.0)

    def test_beta0_needs_fields(self):
        with pytest.raises(ValueError):
            _ = ProblemConstants(R=1.0).beta0

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            ProblemConstants(R=-1.0)
        with pytest.raises(ValueError):
            ProblemConstants(nu_g=0.0)
        with pytest.raises(ValueError):
            ProblemConstants(slater_margin=math.inf)
