import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gms.core import ValidationError
from gms.datasets import (
    DEFAULT_MAX_LONGITUDE,
    IngestError,
    generate_synthetic,
    ingest_housing,
    jump_distance,
    jump_side,
    l1_error,
    truth_values,
)


class TestTruth:
    def test_plateau_values(self):
        # representative interior points of each region
        left = truth_values(np.array([[0.1, 0.5]]))[0]
        mid = truth_values(np.array([[0.5, 0.5]]))[0]
        right = truth_values(np.array([[0.9, 0.5]]))[0]
        assert left == pytest.approx(0.15 + 0.25 * 0.1 + 0.10 * 0.5)
        assert mid == pytest.approx(0.85 - 0.20 * 0.5 + 0.15 * 0.5)
        assert right == pytest.approx(0.05 + 0.30 * 0.9 + 0.05 * 0.5)
        assert mid > left and mid > right

    def test_jump_heights_are_substantial(self):
        # values just either side of both boundaries differ by ~0.5
        x1 = np.linspace(0, 1, 21)
        for intercept, slope in [(0.30, 0.10), (0.70, -0.10)]:
            x0 = intercept + slope * x1
            below = truth_values(np.stack([x0 - 1e-6, x1], axis=1))
            above = truth_values(np.stack([x0 + 1e-6, x1], axis=1))
            assert np.all(np.abs(above - below) > 0.3)

    def test_jump_distance_zero_on_boundary(self):
        x1 = np.linspace(0, 1, 11)
        pts = np.stack([0.30 + 0.10 * x1, x1], axis=1)
        assert np.allclose(jump_distance(pts), 0.0, atol=1e-12)

    def test_jump_distance_positive_off_boundary(self):
        assert jump_distance(np.array([[0.5, 0.5]]))[0] > 0.1

    def test_jump_side_signs(self):
        sides = jump_side(np.array([[0.1, 0.5], [0.5, 0.5], [0.9, 0.5]]))
        assert list(sides) == [-1, 1, -1]


class TestGenerateSynthetic:
    def test_noiseless_labels_equal_truth(self):
        case = generate_synthetic(500, noise_std=0.0, seed=3)
        assert np.array_equal(case.cloud.labels, case.truth)
        assert np.array_equal(case.truth, truth_values(case.cloud.points))

    def test_reproducible(self):
        a = generate_synthetic(1000, 0.2, seed=9)
        b = generate_synthetic(1000, 0.2, seed=9)
        assert np.array_equal(a.cloud.points, b.cloud.points)
        assert np.array_equal(a.cloud.labels, b.cloud.labels)

    def test_different_seed_differs(self):
        a = generate_synthetic(100, 0.2, seed=1)
        b = generate_synthetic(100, 0.2, seed=2)
        assert not np.array_equal(a.cloud.points, b.cloud.points)

    def test_noise_mean_clt(self):
        n = 10**6
        case = generate_synthetic(n, noise_std=0.2, seed=11)
        noise = case.cloud.labels - case.truth
        assert abs(noise.mean()) <= 3 * 0.2 / np.sqrt(n)
        assert noise.std() == pytest.approx(0.2, rel=0.01)

    def test_points_in_unit_square(self):
        case = generate_synthetic(1000, seed=0)
        assert np.all(case.cloud.points >= 0) and np.all(case.cloud.points <= 1)

    def test_invalid_args(self):
        with pytest.raises(ValidationError):
            generate_synthetic(0)
        with pytest.raises(ValidationError):
            generate_synthetic(10, noise_std=-0.1)


class TestL1Error:
    def test_identical_zero(self):
        assert l1_error([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_constant_shift(self):
        u = np.array([0.0, 1.0, 2.0])
        assert l1_error(u + 0.3, u) == pytest.approx(0.3)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            l1_error([1.0], [1.0, 2.0])

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = rng.random((3, 20))
        assert l1_error(a, c) <= l1_error(a, b) + l1_error(b, c) + 1e-12


HEADER = "id,long,lat,price,sqft_living\n"


def write_csv(path, rows):
    path.write_text(HEADER + "".join(rows))
    return path


class TestIngestHousing:
    def test_basic_filtering(self, tmp_path):
        path = write_csv(
            tmp_path / "h.csv",
            [
                "1,-122.3,47.6,500000,2000\n",       # kept
                "2,-121.0,47.5,400000,1500\n",       # dropped: east of cutoff
                "3,-122.2,47.7,300000,\n",           # dropped: missing sqft
                "4,-122.1,47.4,250000,0\n",          # dropped: zero sqft
                "5,-122.0,47.3,800000,1600\n",       # kept
            ],
        )
        cloud = ingest_housing(path)
        assert cloud.n == 2
        # labels normalized by the max price-per-sqft (800000/1600 = 500)
        assert cloud.labels.max() == pytest.approx(1.0)
        assert cloud.labels[0] == pytest.approx(250.0 / 500.0)
        assert np.allclose(cloud.points[0], [-122.3, 47.6])

    def test_raw_labels(self, tmp_path):
        path = write_csv(tmp_path / "h.csv", ["1,-122.3,47.6,500000,2000\n"])
        cloud = ingest_housing(path, normalize=False)
        assert cloud.labels[0] == pytest.approx(250.0)

    def test_malformed_row_reports_line(self, tmp_path):
        path = write_csv(
            tmp_path / "h.csv",
            ["1,-122.3,47.6,500000,2000\n", "2,-122.2,oops,400000,1500\n"],
        )
        with pytest.raises(IngestError, match=":3:"):
            ingest_housing(path)

    def test_missing_columns(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(IngestError, match="columns"):
            ingest_housing(path)

    def test_empty_result(self, tmp_path):
        path = write_csv(tmp_path / "h.csv", ["1,-121.0,47.5,400000,1500\n"])
        with pytest.raises(IngestError, match="no usable"):
            ingest_housing(path)

    def test_default_cutoff_value(self):
        assert DEFAULT_MAX_LONGITUDE == -121.68

    def test_boundary_longitude_kept(self, tmp_path):
        path = write_csv(tmp_path / "h.csv", ["1,-121.68,47.5,400000,1500\n"])
        assert ingest_housing(path).n == 1
