"""Binned empirical measures and the bounded-energy spike sequence.

Two desk-scale experiments: (1) box-histogram regularization of the empirical
measure of uniform samples, whose density converges uniformly to 1; (2) the
dyadic grid spike sequence that stays bounded in L^1 and in energy while its
sup norm blows up, showing that an L^1 bound alone gives no compactness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ValidationError, ZetaSpec, check_seed
from .continuum import omega_ball_volume, sampled_energy

__all__ = [
    "BinnedMeasure",
    "bin_measure",
    "density_deviation_curve",
    "dyadic_counterexample",
]


@dataclass(frozen=True)
class BinnedMeasure:
    d: int
    delta: float
    counts: np.ndarray  # per-box point counts, shape (m,)*d
    density: np.ndarray  # counts / (n * delta^d)

    def __post_init__(self):
        total = self.density.sum() * self.delta**self.d
        if abs(total - 1.0) > 1e-12:
            raise ValidationError("binned density must integrate to 1")


def bin_measure(points: np.ndarray, delta: float) -> BinnedMeasure:
    """Exact box histogram of points in [0,1]^d, normalized to a density.

    1/delta must be an integer; points with a coordinate equal to 1 fall into
    the last box (right-closed boundary), so counts are conserved exactly.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValidationError("points must be an (n, d) array")
    n, d = points.shape
    m = round(1.0 / delta)
    if abs(m * delta - 1.0) > 1e-9:
        raise ValidationError("1/delta must be a positive integer")
    if np.any(points < 0) or np.any(points > 1):
        raise ValidationError("points must lie in the unit cube")
    cells = np.minimum((points * m).astype(np.int64), m - 1)
    counts = np.zeros((m,) * d, dtype=np.int64)
    np.add.at(counts, tuple(cells.T), 1)
    density = counts / (n * delta**d)
    return BinnedMeasure(d=d, delta=delta, counts=counts, density=density)


# Boxes m^d that density_deviation_curve may histogram: the counts and the
# density take 8 bytes a box each, 16 MiB at this bound.  As m >= 2 for
# every n >= 2, it admits d <= 20.
MAX_BOXES = 2**20


def _boxes_per_axis(n: int, d: int) -> int:
    """Smallest m with (1/m)^d <= b_n ln(n)/n, b_n = sqrt(ln n): delta = 1/m is the largest such box side."""
    target = (math.sqrt(math.log(n)) * math.log(n) / n) ** (1.0 / d)
    return max(1, math.ceil(1.0 / target))


def density_deviation_curve(n_list: Sequence[int], d: int = 2, seed: int = 0) -> list[dict]:
    """Table of sup |density - 1| for uniform samples, with the transport proxy.

    delta follows delta^d = b_n ln(n)/n with b_n = sqrt(ln n); the proxy for
    the infinity-transport distance is the box diameter sqrt(d)*delta,
    reported against eps_n = 0.7 n^{-1/4}.  Every n is checked before the
    first sample is drawn: n >= 2, and at most MAX_BOXES boxes m^d.
    """
    if d < 1:
        raise ValidationError(f"d must be a positive integer, got {d}")
    check_seed(seed)
    boxes = []
    for n in n_list:
        if n < 2:
            raise ValidationError("need n >= 2 samples")
        m = _boxes_per_axis(n, d)
        if m**d > MAX_BOXES:
            raise ValidationError(f"memory guard: n={n} at d={d} needs {m}^{d} boxes, more than {MAX_BOXES}")
        boxes.append(m)
    rng = np.random.default_rng(seed)
    rows = []
    for n, m in zip(n_list, boxes):
        delta = 1.0 / m
        pts = rng.random((n, d))
        binned = bin_measure(pts, delta)
        ell = math.sqrt(d) * delta
        eps = 0.7 * n ** (-0.25)
        rows.append(
            {
                "n": int(n),
                "delta": delta,
                "sup_deviation": float(np.max(np.abs(binned.density - 1.0))),
                "ell": ell,
                "eps": eps,
                "ell_over_eps": ell / eps,
                "seed": int(seed),
            }
        )
    return rows


def dyadic_counterexample(k: int, alpha: float = 0.7, d: int = 3) -> dict:
    """Spike on the dyadic grid of the centered unit cube: L^1 norm and energy.

    Grid points are the 2^{kd} barycenters of the dyadic subcubes; the function
    is the normalized indicator of the ball of radius 2^{-k/2} at the origin,
    evaluated with eps_k = 2^{-k alpha}, the capped-linear saturation
    min(t, 1), p = 2, q = 0 and the unit Gaussian kernel cut at radius 3.
    Returns the L^1 norm, the energy, the spike count, the sup norm, and the
    candidate-pair counts of the energy evaluation (``pairs``).
    """
    if k < 1:
        raise ValidationError(f"k must be a positive integer, got {k}")
    if not (0.5 < alpha < 1.0):
        raise ValidationError("alpha must lie in (1/2, 1)")
    if d < 3:
        raise ValidationError("the construction needs d >= 3 for the eps scaling")
    if k * d > 18:
        raise ValidationError("memory guard: k*d must be <= 18")
    m = 2**k
    n = m**d
    axis = (np.arange(m) + 0.5) / m - 0.5
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    points = np.stack(grids, axis=-1).reshape(-1, d)
    r_k = 2.0 ** (-k / 2)
    eps_k = 2.0 ** (-k * alpha)
    in_ball = np.linalg.norm(points, axis=1) < r_k
    omega_d = omega_ball_volume(d)
    u = in_ball / (omega_d * r_k**d)
    l1 = float(u.sum() / n)
    spec = ZetaSpec("capped_linear")
    pairs: dict = {}
    energy = sampled_energy(points, u, spec, eps_k, stats=pairs)
    return {
        "k": k,
        "d": d,
        "n": n,
        "eps": eps_k,
        "r": r_k,
        "ball_count": int(in_ball.sum()),
        "l1": l1,
        "energy": energy,
        "max_u": float(u.max()),
        "pairs": pairs,
    }
