import io
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gms import core
from gms.core import (
    PointCloud,
    SolverConfig,
    ValidationError,
    ZetaSpec,
    zeta_derivative,
    zeta_limit,
    read_table,
    zeta_value,
    write_rows,
)
from gms.consistency import density_deviation_curve
from gms.continuum import NoisyFidelityCase, StepCase, gamma_experiment, noise_offset_experiment, sphere_moment_mc
from gms.datasets import generate_synthetic
from gms.graph import SparseGraph, save_graph

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



class TestWriteRows:
    """write_rows writes the bytes of the per-row f-string it replaced."""

    ROWS = st.lists(
        st.tuples(
            st.integers(-(2**63), 2**63 - 1),
            st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
            st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
        ),
        max_size=12,
    )

    @settings(max_examples=200, deadline=None)
    @given(rows=ROWS, block=st.sampled_from([1, 2, 3, 5, core._SAVE_BLOCK]))
    @example(rows=[], block=core._SAVE_BLOCK)
    @example(rows=[(2**63 - 1, math.nan, -0.0), (-(2**63), math.inf, -math.inf), (0, 5e-324, -2.2e-308)], block=2)
    @example(rows=[(k, k / 7, -k / 3) for k in range(core._SAVE_BLOCK + 1)], block=core._SAVE_BLOCK)
    def test_matches_per_row_format(self, rows, block):
        ints = np.array([r[0] for r in rows], dtype=np.int64)
        floats = [np.array([r[c] for r in rows], dtype=float) for c in (1, 2)]
        fh = io.StringIO()
        with mock.patch.object(core, "_SAVE_BLOCK", block):
            write_rows(fh, "%d,%.17g %.17g\n", (ints, *floats))
        assert fh.getvalue() == "".join(f"{i},{x:.17g} {y:.17g}\n" for i, x, y in rows)


class TestReadTable:
    """read_table returns the float64 bits that the writers of the four tables wrote."""

    ROWS = st.lists(
        st.tuples(
            st.integers(-(2**53), 2**53),
            st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
            st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
        ),
        max_size=12,
    )
    AWKWARD = [
        (2**53, -0.0, 1e308), (-(2**53), 5e-324, -1e308), (0, -2.2250738585072014e-308, 0.1),
        (7, 1 / 3, 1.2345678901234567e-5), (1, 1e308, -0.0), (3, -1e308, 5e-324),
    ]

    @staticmethod
    def read_written(write, **kwargs):
        """The bytes that ``write(path)`` writes and read_table's result for them."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            write(path)
            return path.read_bytes(), read_table(path, **kwargs)

    @settings(max_examples=60, deadline=None)
    @given(rows=ROWS.filter(len), labels=st.booleans())
    @example(rows=AWKWARD, labels=True)
    @example(rows=AWKWARD, labels=False)
    def test_point_table(self, rows, labels):
        from gms.cli import write_cloud_csv

        _, x, y = (np.array(c) for c in zip(*rows))
        cloud = PointCloud(points=np.column_stack([x, y]), labels=y[::-1] if labels else None)
        data, (header, table) = self.read_written(lambda path: write_cloud_csv(path, cloud))
        assert data.count(b"\r\n") == cloud.n + 1
        assert header == (["x0", "x1", "f"] if labels else ["x0", "x1"])
        expected = np.column_stack([x, y, y[::-1]] if labels else [x, y])
        assert table.tobytes() == expected.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(rows=ROWS)
    @example(rows=[])
    @example(rows=AWKWARD)
    def test_value_table(self, rows):
        from gms.cli import _write_values_csv

        values = np.array([r[1] for r in rows], dtype=float)
        _, (header, table) = self.read_written(lambda path: _write_values_csv(path, "u", values), columns=1)
        assert header == ["u"] and table.shape == (len(values), 1)
        assert table.tobytes() == values.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(rows=ROWS)
    @example(rows=[])
    @example(rows=AWKWARD)
    def test_graph_table(self, rows):
        ends = np.array([r[0] for r in rows], dtype=np.int64)
        w, r = (np.array([row[c] for row in rows], dtype=float) for c in (1, 2))
        graph = SparseGraph(n=3, dim=2, eps=0.1, sigma=1.0, ii=ends, jj=ends[::-1], weights=w, distances=r)
        _, (header, table) = self.read_written(lambda path: save_graph(graph, path), columns=4, delimiter=None)
        assert header == ["3", "2", "0.10000000000000001", "1"]
        expected = np.column_stack([ends, ends[::-1], w, r]).astype(float).reshape(-1, 4)
        assert table.tobytes() == expected.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(rows=ROWS)
    @example(rows=[])
    @example(rows=AWKWARD)
    def test_edge_table(self, rows):
        ends = np.array([r[0] for r in rows], dtype=np.int64)
        jump = np.array([r[1] for r in rows], dtype=float)

        def write(path):
            # the rows that ``gms edges`` writes
            with open(path, "w", newline="") as fh:
                fh.write("i,j,jump\n")
                write_rows(fh, "%d,%d,%.17g\n", (ends, ends[::-1], jump))

        _, (header, table) = self.read_written(write, columns=3)
        assert header == ["i", "j", "jump"]
        expected = np.column_stack([ends, ends[::-1], jump]).astype(float).reshape(-1, 3)
        assert table.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "draw",
    [
        lambda seed: generate_synthetic(10, seed=seed),
        lambda seed: gamma_experiment(StepCase(), [100], ZetaSpec("ms_arctan"), seed=seed),
        lambda seed: density_deviation_curve([100], seed=seed),
        lambda seed: noise_offset_experiment(NoisyFidelityCase(), 10, 2, seed=seed),
        lambda seed: sphere_moment_mc(2.0, 2, n_samples=10, seed=seed),
    ],
    ids=["generate_synthetic", "gamma_experiment", "density_deviation_curve", "noise_offset_experiment",
         "sphere_moment_mc"],
)
def test_negative_seed_rejected(draw):
    # numpy's generators raise a bare ValueError for it
    with pytest.raises(ValidationError, match="seed must be nonnegative, got -1"):
        draw(-1)
    draw(0)
