import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemoctrl import (
    ModelParams,
    g_energy,
    power_difference_bound_holds,
    truncate,
    truncate_derivative,
)

nonneg = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)


class TestModelParams:
    def test_valid(self):
        p = ModelParams(s=1.0, alpha=0.1, m=4.0, q=3.0, t_final=0.5)
        assert p.s == 1.0

    @pytest.mark.parametrize("kw", [
        dict(s=0.5), dict(s=1.0, alpha=0.0), dict(s=1.0, m=-1.0),
        dict(s=1.0, q=2.5), dict(s=1.0, t_final=-0.1),
    ])
    def test_invalid(self, kw):
        with pytest.raises(ValueError):
            ModelParams(**kw)

    def test_zero_horizon_allowed(self):
        assert ModelParams(s=2.0, t_final=0.0).t_final == 0.0


class TestTruncate:
    def test_identity_below_knee(self):
        assert truncate(3.0, 5.0) == 3.0

    def test_continuous_at_knee(self):
        assert truncate(5.0, 5.0) == 5.0

    def test_exponential_cap(self):
        assert truncate(7.0, 5.0) == pytest.approx(6.0 - np.exp(-2.0), rel=1e-14)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            truncate(-0.1, 5.0)
        with pytest.raises(ValueError):
            truncate(1.0, 0.0)

    def test_vectorized(self):
        out = truncate(np.array([0.0, 5.0, 7.0, 1e6]), 5.0)
        assert out[0] == 0.0 and out[1] == 5.0
        assert out[3] <= 6.0

    def test_derivative_values(self):
        assert truncate_derivative(3.0, 5.0) == 1.0
        assert truncate_derivative(5.0, 5.0) == 1.0
        assert truncate_derivative(7.0, 5.0) == pytest.approx(np.exp(-2.0), rel=1e-14)

    @given(r=nonneg, m=st.floats(min_value=1e-2, max_value=100.0))
    @settings(max_examples=300, deadline=None)
    def test_bounded_by_min(self, r, m):
        t = truncate(r, m)
        assert t <= min(r, m + 1.0) + 1e-12
        assert 0.0 <= truncate_derivative(r, m) <= 1.0

    @given(r1=nonneg, r2=nonneg, m=st.floats(min_value=1e-2, max_value=100.0))
    @settings(max_examples=300, deadline=None)
    def test_monotone_and_lipschitz(self, r1, r2, m):
        lo, hi = sorted((r1, r2))
        assert truncate(hi, m) >= truncate(lo, m) - 1e-12
        assert truncate(hi, m) - truncate(lo, m) <= (hi - lo) + 1e-12

    def test_derivative_matches_finite_difference(self):
        rng = np.random.default_rng(42)
        m = 5.0
        for r in rng.uniform(0.1, 12.0, size=200):
            if abs(r - m) < 1e-2:  # knee excluded, one-sided formulas differ
                continue
            eps = 1e-6
            fd = (truncate(r + eps, m) - truncate(max(r - eps, 0.0), m)) / (2 * eps)
            assert truncate_derivative(r, m) == pytest.approx(fd, abs=1e-6)


class TestEntropyDensity:
    def test_vanishes_at_zero(self):
        for s in (1.0, 1.5, 2.0, 3.0):
            assert g_energy(0.0, s) == 0.0

    def test_quadratic_branch(self):
        # u^s / (s (s-1)) at u = 2, s = 2
        assert g_energy(2.0, 2.0) == pytest.approx(2.0, rel=1e-14)

    def test_log_branch(self):
        # (u+1) ln(u+1) - u at u = 1
        assert g_energy(1.0, 1.0) == pytest.approx(2.0 * np.log(2.0) - 1.0, rel=1e-14)

    def test_rejects_s_below_one(self):
        with pytest.raises(ValueError):
            g_energy(1.0, 0.9)

    @pytest.mark.parametrize("s", [1.0, 1.5, 2.0, 3.0])
    def test_midpoint_convexity(self, s):
        rng = np.random.default_rng(7)
        u = rng.uniform(0.0, 50.0, size=(500, 2))
        mid = g_energy(u.mean(axis=1), s)
        avg = 0.5 * (g_energy(u[:, 0], s) + g_energy(u[:, 1], s))
        assert np.all(mid <= avg + 1e-12 * np.maximum(avg, 1.0))


class TestPowerDifferenceBound:
    def test_equal_arguments(self):
        for a in (0.0, 1.0, 7.3):
            assert power_difference_bound_holds(a, a, 2.5)

    def test_simple_case(self):
        assert power_difference_bound_holds(0.0, 1.0, 3.0)

    @given(w1=nonneg, w2=nonneg,
           s=st.floats(min_value=1.0, max_value=6.0, allow_nan=False))
    @settings(max_examples=500, deadline=None)
    def test_bound_holds_everywhere(self, w1, w2, s):
        assert power_difference_bound_holds(w1, w2, s)

    def test_vectorized(self):
        rng = np.random.default_rng(0)
        w1 = rng.uniform(0, 100, size=1000)
        w2 = rng.uniform(0, 100, size=1000)
        s = 2.7
        assert power_difference_bound_holds(w1, w2, s).all()
