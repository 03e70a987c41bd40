import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gms.core import (
    PointCloud,
    SolverConfig,
    ValidationError,
    ZetaSpec,
    zeta_derivative,
    zeta_limit,
    zeta_value,
)

ALL_SPECS = [
    ZetaSpec("ms_arctan"),
    ZetaSpec("tv_smoothed", delta=0.001),
    ZetaSpec("tv_smoothed", delta=0.5),
    ZetaSpec("quadratic"),
    ZetaSpec("capped_linear"),
]


class TestZetaValue:
    def test_ms_at_zero(self):
        assert zeta_value(ZetaSpec("ms_arctan"), 0.0) == 0.0

    def test_quadratic_identity(self):
        assert zeta_value(ZetaSpec("quadratic"), 3.5) == 3.5

    def test_ms_arctan_of_one(self):
        # (2/pi) * arctan(1) = 1/2
        assert zeta_value(ZetaSpec("ms_arctan"), 2.0 / math.pi) == pytest.approx(0.5, rel=1e-15)

    def test_tv_at_zero_is_delta(self):
        assert zeta_value(ZetaSpec("tv_smoothed", delta=0.001), 0.0) == pytest.approx(0.001)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValidationError):
            zeta_value(ZetaSpec("ms_arctan"), -0.1)

    def test_ms_saturates_below_one(self):
        v = zeta_value(ZetaSpec("ms_arctan"), 1e6)
        assert 1 - 1e-5 < v < 1


class TestZetaDerivative:
    def test_values_at_zero(self):
        assert zeta_derivative(ZetaSpec("ms_arctan"), 0.0) == 1.0
        assert zeta_derivative(ZetaSpec("quadratic"), 17.0) == 1.0
        assert zeta_derivative(ZetaSpec("tv_smoothed", delta=0.001), 0.0) == pytest.approx(500.0)

    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_matches_finite_difference(self, t):
        spec = ZetaSpec("ms_arctan")
        h = 1e-6 * max(t, 1.0)
        fd = (zeta_value(spec, t + h) - zeta_value(spec, t - h)) / (2 * h)
        assert zeta_derivative(spec, t) == pytest.approx(fd, rel=1e-6)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValidationError):
            zeta_derivative(ZetaSpec("quadratic"), -1.0)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.kind}-{s.delta}")
def test_derivative_matches_fd_densely(spec):
    rng = np.random.default_rng(0)
    t = rng.uniform(0.0, 100.0, size=1000)
    if spec.kind == "capped_linear":
        t = t[np.abs(t - 1.0) > 1e-3]  # kink
    h = 1e-5 * np.maximum(t, 1.0)
    fd = (zeta_value(spec, t + h) - zeta_value(spec, t - h)) / (2 * h)
    deriv = zeta_derivative(spec, t)
    assert np.allclose(deriv, fd, rtol=1e-5)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.kind}-{s.delta}")
@settings(max_examples=50, deadline=None)
@given(s=st.floats(0, 200), t=st.floats(0, 200))
def test_concavity_tangent_bound(spec, s, t):
    # the majorization used by IRLS: zeta(s) <= zeta(t) + zeta'(t) (s - t)
    assert zeta_value(spec, s) <= zeta_value(spec, t) + zeta_derivative(spec, t) * (s - t) + 1e-12


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.kind}-{s.delta}")
@settings(max_examples=50, deadline=None)
@given(a=st.floats(0, 500), b=st.floats(0, 500))
def test_monotone(spec, a, b):
    lo, hi = min(a, b), max(a, b)
    assert zeta_value(spec, lo) <= zeta_value(spec, hi) + 1e-15


def test_theta_limits():
    assert zeta_limit(ZetaSpec("ms_arctan")) == 1.0
    assert zeta_limit(ZetaSpec("capped_linear")) == 1.0
    assert zeta_limit(ZetaSpec("quadratic")) is None
    assert zeta_limit(ZetaSpec("tv_smoothed", delta=0.1)) is None


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            ZetaSpec("cauchy")

    def test_tv_needs_delta(self):
        with pytest.raises(ValidationError):
            ZetaSpec("tv_smoothed")

    def test_delta_only_for_tv(self):
        with pytest.raises(ValidationError):
            ZetaSpec("quadratic", delta=0.5)


class TestPointCloud:
    def test_basic(self):
        c = PointCloud(points=[[0.0, 0.0], [1.0, 1.0]], labels=[1.0, 2.0])
        assert c.n == 2 and c.dim == 2

    def test_label_length_mismatch(self):
        with pytest.raises(ValidationError):
            PointCloud(points=[[0.0, 0.0]], labels=[1.0, 2.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            PointCloud(points=[[np.nan, 0.0]])
        with pytest.raises(ValidationError):
            PointCloud(points=[[0.0, 0.0]], labels=[np.inf])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            PointCloud(points=np.zeros((0, 2)))


class TestSolverConfig:
    def test_positivity(self):
        with pytest.raises(ValidationError):
            SolverConfig(eps=0.0)
        with pytest.raises(ValidationError):
            SolverConfig(lam=-1.0)

