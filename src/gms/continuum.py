"""Limiting-functional constants and empirical convergence experiments.

The continuum energy predicted for the discrete functionals is

    theta(p, q) * zeta'(0) * int |grad u|^p rho^2 dx
    + sigma * Theta * int_{S_u} rho^2 dH^{d-1}

with kernel-moment constants theta and sigma.  This module computes the
constants by quadrature, evaluates the limit for simple test cases, and runs
the discrete-vs-continuum ratio experiments.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import gamma as gamma_fn

from .core import ValidationError, ZetaSpec, zeta_derivative, zeta_limit, zeta_value
from .energy import pair_terms

__all__ = [
    "omega_ball_volume",
    "radial_moment",
    "theta_eta",
    "sigma_eta",
    "sphere_moment",
    "sphere_moment_mc",
    "gaussian_eta",
    "LimitConstants",
    "SmoothCase",
    "StepCase",
    "NoisyFidelityCase",
    "continuum_ms",
    "sampled_energy",
    "gamma_experiment",
    "noise_offset_experiment",
]


def omega_ball_volume(m: int) -> float:
    """Volume of the unit ball in R^m; omega_0 = 1 by convention."""
    if m < 0:
        raise ValidationError("dimension must be nonnegative")
    return math.pi ** (m / 2) / gamma_fn(m / 2 + 1)


class DivergentIntegralError(ValueError):
    """A kernel moment required by the limiting constants does not converge."""


def radial_moment(eta: Callable, power: float) -> float:
    """int_0^inf t^power eta(t) dt by adaptive quadrature with a doubling cutoff.

    The cutoff grows until the last doubling contributes less than 1e-12 of
    the running total; failure to stabilize raises DivergentIntegralError.
    """
    # Imported here, not at module level: scipy.integrate pulls in
    # scipy.optimize, which only these constants need, into every gms start.
    from scipy.integrate import quad

    integrand = lambda t: t**power * eta(t)
    total = quad(integrand, 0.0, 1.0, limit=200)[0]
    lo, hi = 1.0, 2.0
    for _ in range(60):
        piece = quad(integrand, lo, hi, limit=200)[0]
        total += piece
        if piece <= 1e-12 * total or (total == 0.0 and piece == 0.0):
            return total
        lo, hi = hi, 2 * hi
    raise DivergentIntegralError(
        f"kernel moment of order {power} did not converge (assumption B2 violated)"
    )


def sphere_moment(p: float, d: int) -> float:
    """int_{S^{d-1}} |e . v|^p dH^{d-1}(v) = 2 omega_{d-1} G((p+1)/2) G((d+1)/2) / G((p+d)/2)."""
    return (
        2.0
        * omega_ball_volume(d - 1)
        * gamma_fn(p / 2 + 0.5)
        * gamma_fn(d / 2 + 0.5)
        / gamma_fn(p / 2 + d / 2)
    )


def sphere_moment_mc(p: float, d: int, n_samples: int = 10**6, seed: int = 0) -> float:
    """Monte-Carlo estimate of sphere_moment via uniform samples on S^{d-1}."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n_samples, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    surface = d * omega_ball_volume(d)
    return surface * float(np.mean(np.abs(v[:, 0]) ** p))


def theta_eta(p: float, q: float, d: int, eta: Callable) -> float:
    """Gradient-term constant: sphere moment times int t^{p-q+d-1} eta(t) dt."""
    if not (0 <= q < p):
        raise ValidationError("q must lie in [0, p)")
    return sphere_moment(p, d) * radial_moment(eta, p - q + d - 1)


def sigma_eta(d: int, eta: Callable) -> float:
    """Jump-term constant: 2 omega_{d-1} int t^d eta(t) dt."""
    value = 2.0 * omega_ball_volume(d - 1) * radial_moment(eta, float(d))
    if value <= 0:
        raise ValidationError("kernel must not be identically zero (assumption B1)")
    return value


def gaussian_eta(sigma: float = 1.0, cutoff_multiplier: float = 3.0) -> Callable:
    """The truncated Gaussian profile matching the graph builder's edge weights."""
    cut = cutoff_multiplier * sigma

    def eta(t):
        t = np.asarray(t, dtype=float)
        out = np.where(t <= cut, np.exp(-(t**2) / (2.0 * sigma**2)), 0.0)
        return float(out) if out.ndim == 0 else out

    return eta


@dataclass(frozen=True)
class LimitConstants:
    theta: float
    sigma: float
    theta_big: float | None  # None = unbounded saturation limit
    zeta_prime0: float
    d: int
    p: float
    q: float

    @classmethod
    def from_kernel(cls, spec: ZetaSpec, eta: Callable, p: float, q: float, d: int):
        return cls(
            theta=theta_eta(p, q, d, eta),
            sigma=sigma_eta(d, eta),
            theta_big=zeta_limit(spec),
            zeta_prime0=zeta_derivative(spec, 0.0),
            d=d,
            p=p,
            q=q,
        )


@dataclass(frozen=True)
class SmoothCase:
    """u(x) = amplitude * sin(2 pi frequency x_1) on [0,1]^d, uniform density."""

    frequency: float = 1.0
    amplitude: float = 1.0
    d: int = 2

    def values(self, x: np.ndarray) -> np.ndarray:
        return self.amplitude * np.sin(2.0 * np.pi * self.frequency * x[..., 0])

    def grad_norm(self, x1: np.ndarray) -> np.ndarray:
        w = 2.0 * np.pi * self.frequency
        return np.abs(self.amplitude * w * np.cos(w * x1))


@dataclass(frozen=True)
class StepCase:
    """u = low + (high-low) 1_{x_1 > location} on [0,1]^d, uniform density."""

    location: float = 0.5
    low: float = 0.0
    high: float = 1.0
    d: int = 2

    def values(self, x: np.ndarray) -> np.ndarray:
        return np.where(x[..., 0] > self.location, self.high, self.low)

    @property
    def jump_measure(self) -> float:
        # axis-aligned hyperplane section of the unit cube
        return 1.0


@dataclass(frozen=True)
class NoisyFidelityCase:
    """u - f identically constant, noise uniform on [-half_width, half_width]."""

    offset: float = 0.0
    half_width: float = 1.0
    d: int = 2

    def __post_init__(self):
        if not (self.half_width >= 0) or not math.isfinite(self.half_width):
            raise ValidationError("noise must have bounded support")

    @property
    def variance(self) -> float:
        return self.half_width**2 / 3.0


def continuum_ms(constants: LimitConstants, case) -> float:
    """Evaluate the limiting energy for a test case with uniform density.

    The gradient term uses 256-point Gauss-Legendre quadrature along x_1; the
    jump term is the closed-form (d-1)-measure for the axis-aligned step.
    """
    if isinstance(case, SmoothCase):
        x, w = np.polynomial.legendre.leggauss(256)
        x, w = (x + 1.0) / 2.0, w / 2.0
        grad_term = float(np.sum(case.grad_norm(x) ** constants.p * w))
        # remaining axes integrate the constant density 1
        return constants.theta * constants.zeta_prime0 * grad_term
    if isinstance(case, StepCase):
        if case.high != case.low and constants.theta_big is None:
            raise ValidationError(
                "jump-set cases need a finite saturation limit (bounded zeta)"
            )
        if case.high == case.low:
            return 0.0
        return constants.sigma * constants.theta_big * case.jump_measure
    raise ValidationError(f"unsupported case type {type(case).__name__}")


# Upper bound on the candidate pairs (rows x columns) compared in one block.
# It keeps each float temporary at 256 KB, within the CPU caches: on a
# 2-core x86 box the gamma-step enumeration (2-D, n=64k, 1.0e8 pairs) took
# 2.1 s with 2**15 and 3.2 s with 2**17.  A block is also the unit that is
# skipped when its rows and columns all carry one value, so the partition
# stays the same whether or not values are given.
_BLOCK_CANDIDATES = 1 << 15


def _cell_order(points: np.ndarray, radius: float):
    """The permutation into cell order, and the cell coordinates in that order.

    Points are bucketed into cells of side just over radius/2, so a pair within
    the radius is at most two cells apart on every axis.  Cells are keyed by
    their integer coordinates and sorted lexicographically, so a run of
    neighbor cells along the last axis is one contiguous strip of points.
    """
    lo = points.min(axis=0)
    scale = float(np.max(np.abs(points)))
    # The margin covers rounding in the cell index and in d2 <= r2; the
    # scale term also keeps every cell index below 2^42.
    side = max(0.5 * radius * (1.0 + 2.0**-40) + scale * 2.0**-40, np.finfo(float).tiny)
    cells = np.floor((points - lo) / side).astype(np.int64)
    order = np.lexsort(cells.T[::-1])
    return order, cells[order]


def _cell_pairs(
    points: np.ndarray, order: np.ndarray, cells: np.ndarray, radius: float, values=None, stats=None
):
    """Yield (i_idx, j_idx, r) chunks covering every unordered pair within radius.

    ``order`` and ``cells`` are what ``_cell_order`` gives for ``points``.
    The yielded indices are positions in cell order, so ``order`` maps them
    back to rows of ``points``.  Each occupied cell is compared against
    its own row of cells from itself forward and against the
    two-cells-either-side strip of every lexicographically forward neighbor
    row, so each pair appears exactly once.  A strip is compared in blocks of
    at most ``_BLOCK_CANDIDATES`` candidate pairs.  Squared distances are
    summed one coordinate at a time, in axis order.

    When ``values`` (in cell order) is given, a block whose rows and columns
    all carry one value is skipped before any distance is computed.  When
    ``stats`` is given, it receives the candidate pairs (rows x columns,
    summed over blocks) ``compared`` and ``skipped``.
    """
    n, d = points.shape
    r2 = radius**2
    coords = [points[order, k] for k in range(d)]

    new_cell = np.ones(n, dtype=bool)
    new_cell[1:] = np.any(cells[1:] != cells[:-1], axis=1)
    starts = np.flatnonzero(new_cell)
    keys = cells[starts].tolist()
    starts = starts.tolist()
    ends = starts[1:] + [n]
    # row (all but the last cell coordinate) -> (first cell, last coordinates)
    rows: dict[tuple, tuple[int, list[int]]] = {}
    for c, key in enumerate(keys):
        rows.setdefault(tuple(key[:-1]), (c, []))[1].append(key[-1])
    forward = [o for o in itertools.product(range(-2, 3), repeat=d - 1) if o > (0,) * (d - 1)]

    if values is not None:
        # run_start[k]: first index of the run of equal values holding k, so
        # values[a:b] is one value exactly when run_start[b - 1] <= a
        new_run = np.ones(n, dtype=bool)
        new_run[1:] = values[1:] != values[:-1]
        run_start = np.maximum.accumulate(np.where(new_run, np.arange(n), 0))
    compared = skipped = 0

    def strip(s0, e0, s1, e1, same):
        # points s0:e0 against s1:e1, in blocks of at most _BLOCK_CANDIDATES
        nonlocal compared, skipped
        cstep = min(e1 - s1, _BLOCK_CANDIDATES)
        rstep = _BLOCK_CANDIDATES // cstep
        for i0 in range(s0, e0, rstep):
            i1 = min(e0, i0 + rstep)
            for j0 in range(s1, e1, cstep):
                j1 = min(e1, j0 + cstep)
                if (
                    values is not None
                    and run_start[i1 - 1] <= i0
                    and run_start[j1 - 1] <= j0
                    and values[i0] == values[j0]
                ):
                    skipped += (i1 - i0) * (j1 - j0)
                    continue
                compared += (i1 - i0) * (j1 - j0)
                d2 = np.subtract.outer(coords[0][i0:i1], coords[0][j0:j1])
                d2 *= d2
                for x in coords[1:]:
                    diff = np.subtract.outer(x[i0:i1], x[j0:j1])
                    diff *= diff
                    d2 += diff
                # 2-D np.nonzero is several times slower than this flat split
                flat = np.flatnonzero(d2 <= r2)
                ia = flat // (j1 - j0)
                ib = flat - ia * (j1 - j0)
                r = np.sqrt(d2.ravel().take(flat))
                ia += i0
                ib += j0
                if same:
                    keep = ia < ib
                    ia, ib, r = ia[keep], ib[keep], r[keep]
                if len(ia):
                    yield ia, ib, r

    for key, s0, e0 in zip(keys, starts, ends):
        *lead, last = key
        first, lasts = rows[tuple(lead)]
        stop = first + bisect.bisect_right(lasts, last + 2)
        yield from strip(s0, e0, s0, ends[stop - 1], True)
        for off in forward:
            row = rows.get(tuple(a + b for a, b in zip(lead, off)))
            if row is None:
                continue
            first, lasts = row
            k0 = first + bisect.bisect_left(lasts, last - 2)
            k1 = first + bisect.bisect_right(lasts, last + 2)
            if k0 < k1:
                yield from strip(s0, e0, starts[k0], ends[k1 - 1], False)
    if stats is not None:
        stats.update(compared=compared, skipped=skipped)


def sampled_energy(
    points: np.ndarray,
    values: np.ndarray,
    spec: ZetaSpec,
    eps: float,
    p: float = 2.0,
    q: float = 0.0,
    sigma: float = 1.0,
    cutoff_multiplier: float = 3.0,
    stats: dict | None = None,
) -> float:
    """Fidelity-free energy evaluated directly from a point cloud.

    Equivalent to building the uncapped geometric graph and calling gms_energy,
    but streams the pairs within the cutoff radius block by block, so the full
    edge list is never materialized.  The pairs come from a cell list with
    cells of side radius/2, compared as strips of neighbor cells along the
    last axis; each block holds a bounded number of candidate pairs, so memory
    stays fixed however many pairs there are.  Values are gathered once into
    cell order and read there with the kernel's indices.  When zeta(0) = 0
    and q = 0, a pair with u_i = u_j adds exactly 0, so blocks whose rows and
    columns all carry one value are skipped unevaluated.  Block sums are
    combined with math.fsum, so skipping leaves the result bit for bit.

    When ``stats`` is given, it receives the candidate pairs ``compared``
    and ``skipped`` (see ``_cell_pairs``).
    """
    points = np.asarray(points, dtype=float)
    values = np.asarray(values, dtype=float)
    if not (0 <= q < p):
        raise ValidationError("q must lie in [0, p)")
    n, d = points.shape
    if values.shape != (n,):
        raise ValidationError(f"values must have length {n}")
    radius = cutoff_multiplier * sigma * eps
    if not radius > 0:
        raise ValidationError("the cutoff radius cutoff_multiplier * sigma * eps must be positive")
    if not np.all(np.isfinite(points)):
        raise ValidationError("point coordinates must be finite")
    if not np.all(np.isfinite(values)):
        raise ValidationError("values must be finite")
    order, cells = _cell_order(points, radius)
    u = values[order]
    skip_constant = q == 0 and zeta_value(spec, 0.0) == 0.0
    pieces = []
    for ia, ib, r in _cell_pairs(points, order, cells, radius, u if skip_constant else None, stats):
        w = np.exp(-(r**2) / (2.0 * sigma**2 * eps**2))
        pieces.append(float(np.sum(pair_terms(u, ia, ib, r, w, spec, eps, p, q, labels=order))))
    return 2.0 * math.fsum(pieces) * eps ** (-d) / (eps * n**2)


def gamma_experiment(
    case,
    n_list: Sequence[int],
    spec: ZetaSpec,
    p: float = 2.0,
    q: float = 0.0,
    seed: int = 0,
    sigma: float | None = None,
    cutoff_multiplier: float = 3.0,
) -> list[dict]:
    """Discrete-vs-continuum ratio table for i.i.d. uniform samples on [0,1]^d.

    Each n is evaluated at eps_n = 0.7 n^{-1/4}.  The kernel width ``sigma``
    trades statistical noise against the finite-eps saturation bias of bounded
    zeta; the default is 0.2 for smooth cases and 1.0 for step cases, with the
    continuum constants computed for the same truncated kernel.  Each row's
    ``pairs`` holds the candidate-pair counts of its ``sampled_energy`` call.
    """
    if any(n < 1 for n in n_list):
        raise ValidationError("sample sizes must be positive")
    d = case.d
    if sigma is None:
        sigma = 0.2 if isinstance(case, SmoothCase) else 1.0
    eta = gaussian_eta(sigma, cutoff_multiplier)
    constants = LimitConstants.from_kernel(spec, eta, p, q, d)
    continuum = continuum_ms(constants, case)
    rng = np.random.default_rng(seed)
    rows = []
    for n in n_list:
        eps = 0.7 * n ** (-0.25)
        x = rng.random((n, d))
        u = case.values(x)
        pairs: dict = {}
        discrete = sampled_energy(
            x, u, spec, eps, p, q, sigma=sigma, cutoff_multiplier=cutoff_multiplier, stats=pairs
        )
        rows.append(
            {
                "n": int(n),
                "eps": float(eps),
                "discrete": discrete,
                "continuum": continuum,
                "ratio": discrete / continuum,
                "seed": int(seed),
                "pairs": pairs,
            }
        )
    return rows


def noise_offset_experiment(
    case: NoisyFidelityCase, n: int, trials: int, seed: int = 0
) -> dict:
    """Mean discrete fidelity (1/n) sum |u(x_i) - f(x_i) - y_i|^2 over repeated draws.

    With u - f constant equal to c and centered uniform noise the limit is
    c^2 + Var(noise).
    """
    if n < 1 or trials < 1:
        raise ValidationError("n and trials must be positive")
    rng = np.random.default_rng(seed)
    c = case.offset
    per_trial = np.empty(trials)
    for t in range(trials):
        y = rng.uniform(-case.half_width, case.half_width, size=n) if case.half_width else np.zeros(n)
        per_trial[t] = np.mean((c - y) ** 2)
    estimate = float(np.mean(per_trial))
    se = float(np.std(per_trial, ddof=1) / math.sqrt(trials)) if trials > 1 else float("nan")
    return {
        "estimate": estimate,
        "expected": c**2 + case.variance,
        "std_error": se,
        "n": n,
        "trials": trials,
    }
