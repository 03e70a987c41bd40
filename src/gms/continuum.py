"""Limiting-functional constants and empirical convergence experiments.

The continuum energy predicted for the discrete functionals is

    theta(p, q) * zeta'(0) * int |grad u|^p rho^2 dx
    + sigma * Theta * int_{S_u} rho^2 dH^{d-1}

with kernel-moment constants theta and sigma.  This module computes the
constants by quadrature, evaluates the limit for simple test cases, and runs
the discrete-vs-continuum ratio experiments.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import gamma as gamma_fn

from .core import ValidationError, ZetaSpec, zeta_derivative, zeta_limit, zeta_value
from .energy import check_exponents, pair_terms

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
    check_exponents(p, q)
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


# Upper bound on the candidate pairs compared in one chunk, besides its last
# run.  On a 2-core x86 box the spike-d3 enumeration (3-D, k=5) took at least
# 0.23, 0.20, 0.21 and 0.26 s with 2**13 to 2**16: smaller chunks cost Python
# overhead, larger ones page faults (8,000 a call with 2**15, 500 with 2**14).
_BLOCK_CANDIDATES = 1 << 14


def _cell_order(points: np.ndarray, radius: float):
    """The permutation into row order, and the row cells in that order.

    Every axis but the last is bucketed into cells of side just over
    radius/2, so a pair within the radius is at most two cells apart on each
    of them.  Points that share those cells form a row.  Rows are sorted
    lexicographically by their cells, and each row by its last coordinate;
    for d = 1 the whole cloud is one row.
    """
    lo = points[:, :-1].min(axis=0)
    scale = float(np.max(np.abs(points)))
    # The margin covers rounding in the cell index and in d2 <= r2; the
    # scale term also keeps every cell index below 2^42.
    side = max(0.5 * radius * (1.0 + 2.0**-40) + scale * 2.0**-40, np.finfo(float).tiny)
    cells = np.floor((points[:, :-1] - lo) / side).astype(np.int64)
    order = np.lexsort((points[:, -1], *cells.T[::-1]))
    return order, cells[order]


def _cell_pairs(
    points: np.ndarray, order: np.ndarray, cells: np.ndarray, radius: float, values=None, stats=None
):
    """Yield (i_idx, j_idx, r) chunks covering every unordered pair within radius.

    ``order`` and ``cells`` are what ``_cell_order`` gives for ``points``.
    The yielded indices are positions in row order, so ``order`` maps them
    back to rows of ``points``.  Each row is swept against itself and every
    lexicographically forward row at most two cells away: point i meets the
    run [lo_i, hi_i) of a row that lies within reach along the last axis,
    after i in its own row, so each pair appears exactly once.  A chunk holds
    the runs of whole points, fewer than ``_BLOCK_CANDIDATES`` candidate
    pairs plus one run, and a run never exceeds its row.  Squared distances
    are summed one coordinate at a time, in axis order.

    With ``values`` (in row order), point i is skipped against a row where
    its whole run carries u_i.  ``stats`` receives the candidate pairs (run
    lengths, summed) ``compared`` and ``skipped``.
    """
    n, d = points.shape
    # twice the cell side, with the same margin for rounding
    reach = radius * (1.0 + 2.0**-40) + float(np.max(np.abs(points))) * 2.0**-39
    coords = [points[order, k] for k in range(d)]
    last = coords[-1]

    keys, starts = np.unique(cells, axis=0, return_index=True)
    rows = dict(zip(map(tuple, keys.tolist()), itertools.pairwise([*starts.tolist(), n])))
    forward = [o for o in itertools.product(range(-2, 3), repeat=d - 1) if o >= (0,) * (d - 1)]

    if values is not None:
        # run[k]: which run of equal values holds k
        run = np.concatenate(([0], np.cumsum(values[1:] != values[:-1])))
    compared = skipped = 0

    for key, (s0, e0) in rows.items():
        for off in forward:
            row = rows.get(tuple(k + o for k, o in zip(key, off)))
            if row is None:
                continue
            s1, e1 = row
            i = np.arange(s0, e0)
            # in its own row, i's window reaches back to i itself
            lo = i + 1 if s1 == s0 else s1 + np.searchsorted(last[s1:e1], last[s0:e0] - reach)
            hi = s1 + np.searchsorted(last[s1:e1], last[s0:e0] + reach, "right")
            live = hi > lo
            i, lo, hi = i[live], lo[live], hi[live]
            if values is not None:
                same = (values[lo] == values[i]) & (run[lo] == run[hi - 1])
                skipped += int(np.sum(hi[same] - lo[same]))
                i, lo, hi = i[~same], lo[~same], hi[~same]
            count = hi - lo
            compared += int(np.sum(count))
            # chunk c: the points whose runs start in [c, c + 1) * _BLOCK_CANDIDATES
            start = np.cumsum(count) - count
            cuts = np.flatnonzero(np.diff(start // _BLOCK_CANDIDATES, prepend=-1)).tolist()
            for a, b in zip(cuts, cuts[1:] + [len(i)]):
                runs = count[a:b]
                # stream position t of point k's run is window index t + lo[k] - start[k]
                ib = np.repeat(lo[a:b] - start[a:b], runs)
                ib += np.arange(start[a], start[b - 1] + runs[-1])
                d2 = np.zeros(len(ib))
                for x in coords:
                    diff = np.repeat(x[i[a:b]], runs)
                    diff -= x.take(ib)
                    diff *= diff
                    d2 += diff
                near = np.flatnonzero(d2 <= radius**2)
                yield np.repeat(i[a:b], runs).take(near), ib.take(near), np.sqrt(d2.take(near))
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
    but streams the pairs within the cutoff radius chunk by chunk, so the full
    edge list is never materialized.  The pairs come from a sorted sweep: rows
    of cells of side radius/2 on every axis but the last, each sorted along
    the last axis, so a point's candidates in a neighbor row are one run.
    Each chunk holds a bounded number of candidate pairs, so memory stays
    fixed however many pairs there are.  Values are gathered once into row
    order and read there with the kernel's indices.  When zeta(0) = 0 and
    q = 0, a pair with u_i = u_j adds exactly 0, so a point is skipped
    unevaluated against a row where its whole run carries u_i.  Chunk sums are
    combined with math.fsum; skipping changes which terms share a chunk, so it
    can move the result in the last bits only.

    When ``stats`` is given, it receives the candidate pairs ``compared``
    and ``skipped`` (see ``_cell_pairs``).
    """
    points = np.asarray(points, dtype=float)
    values = np.asarray(values, dtype=float)
    check_exponents(p, q)
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
