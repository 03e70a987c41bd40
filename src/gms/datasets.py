"""Synthetic piecewise-planar benchmark and housing-record ingestion."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .core import PointCloud, ValidationError, check_seed, open_text

__all__ = [
    "SyntheticCase",
    "generate_synthetic",
    "truth_values",
    "jump_distance",
    "jump_side",
    "l1_error",
    "ingest_housing",
    "DEFAULT_MAX_LONGITUDE",
]

# Reference ground truth on [0,1]^2: three planar pieces separated by two
# straight jump segments
#   boundary 1: x0 = 0.30 + 0.10 * x1   (left | middle)
#   boundary 2: x0 = 0.70 - 0.10 * x1   (middle | right)
# The plateau heights span roughly [0.15, 0.95] with jumps of height ~0.5.
_B1 = (0.30, 0.10)
_B2 = (0.70, -0.10)


def _region(points: np.ndarray) -> np.ndarray:
    x0, x1 = points[..., 0], points[..., 1]
    left = x0 < _B1[0] + _B1[1] * x1
    right = x0 > _B2[0] + _B2[1] * x1
    out = np.ones(np.shape(x0), dtype=np.int64)  # middle
    out[left] = 0
    out[right] = 2
    return out


def truth_values(points: np.ndarray) -> np.ndarray:
    """Evaluate the reference piecewise-planar signal anywhere on [0,1]^2."""
    points = np.asarray(points, dtype=float)
    x0, x1 = points[..., 0], points[..., 1]
    region = _region(points)
    planes = [
        0.15 + 0.25 * x0 + 0.10 * x1,  # left
        0.85 - 0.20 * x0 + 0.15 * x1,  # middle
        0.05 + 0.30 * x0 + 0.05 * x1,  # right
    ]
    out = np.choose(region, planes)
    return out


def _segment_distance(points: np.ndarray, intercept: float, slope: float) -> np.ndarray:
    """Distance from points to the segment {(intercept + slope*t, t): t in [0,1]}."""
    a = np.array([intercept, 0.0])
    b = np.array([intercept + slope, 1.0])
    ab = b - a
    t = np.clip(((points - a) @ ab) / (ab @ ab), 0.0, 1.0)
    proj = a + t[..., None] * ab
    return np.linalg.norm(points - proj, axis=-1)


def jump_distance(points: np.ndarray) -> np.ndarray:
    """Distance from each point to the nearest jump segment of the reference truth."""
    points = np.asarray(points, dtype=float)
    return np.minimum(
        _segment_distance(points, *_B1), _segment_distance(points, *_B2)
    )


def jump_side(points: np.ndarray) -> np.ndarray:
    """+1 on the high side of the nearest jump, -1 on the low side.

    The middle plateau is higher than both outer pieces, so the high side of
    either boundary is the middle region.
    """
    points = np.asarray(points, dtype=float)
    return np.where(_region(points) == 1, 1, -1)


@dataclass(frozen=True)
class SyntheticCase:
    """A generated benchmark instance with its noiseless reference values."""

    cloud: PointCloud
    truth: np.ndarray
    noise_std: float
    seed: int


def generate_synthetic(n: int, noise_std: float = 0.2, seed: int = 0) -> SyntheticCase:
    """n uniform samples on [0,1]^2, labels = truth + N(0, noise_std^2), reproducible."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    if not 0 <= noise_std < np.inf:
        raise ValidationError(f"noise_std must be nonnegative and finite, got {noise_std}")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    points = rng.random((n, 2))
    truth = truth_values(points)
    labels = truth + (rng.standard_normal(n) * noise_std if noise_std else 0.0)
    return SyntheticCase(
        cloud=PointCloud(points=points, labels=labels),
        truth=truth,
        noise_std=noise_std,
        seed=seed,
    )


def l1_error(u, truth) -> float:
    """(1/n) sum |u_i - truth_i|."""
    u = np.asarray(u, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if u.shape != truth.shape:
        raise ValidationError(f"length mismatch: {u.shape} vs {truth.shape}")
    return float(np.mean(np.abs(u - truth)))


DEFAULT_MAX_LONGITUDE = -121.68


class IngestError(ValidationError):
    """Malformed or empty input data."""


def ingest_housing(csv_path, max_longitude: float = DEFAULT_MAX_LONGITUDE, normalize: bool = True) -> PointCloud:
    """Read a housing CSV into a point cloud labeled by price per square foot.

    Rows east of ``max_longitude`` or with missing/zero living square footage
    are dropped.  With ``normalize`` the labels are divided by their maximum.
    """
    required = {"long", "lat", "price", "sqft_living"}
    rows = []
    with open_text(csv_path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not required.issubset(set(reader.fieldnames)):
            raise IngestError(
                f"CSV must have columns {sorted(required)}; got {reader.fieldnames}"
            )
        for lineno, row in enumerate(reader, start=2):
            sqft_raw = (row.get("sqft_living") or "").strip()
            if sqft_raw == "":
                continue  # missing square footage: drop
            try:
                lon = float(row["long"])
                lat = float(row["lat"])
                price = float(row["price"])
                sqft = float(sqft_raw)
            except (TypeError, ValueError) as exc:
                raise IngestError(f"{csv_path}:{lineno}: malformed row ({exc})") from exc
            if not all(map(math.isfinite, (lon, lat, price, sqft))):
                raise IngestError(f"{csv_path}:{lineno}: non-finite field")
            if sqft <= 0:
                continue
            if lon > max_longitude:
                continue
            rows.append((lon, lat, price / sqft))
    if not rows:
        raise IngestError(f"no usable records in {csv_path}")
    data = np.array(rows)
    labels = data[:, 2] / data[:, 2].max() if normalize else data[:, 2]
    return PointCloud(points=data[:, :2], labels=labels)
