"""Limiting-functional constants and empirical convergence experiments.

The continuum energy predicted for the discrete functionals is

    theta(p, q) * zeta'(0) * int |grad u|^p rho^2 dx
    + sigma * Theta * int_{S_u} rho^2 dH^{d-1}

with kernel-moment constants theta and sigma.  This module computes the
constants, with a closed-form sphere moment and a radial moment by adaptive
Gauss-Lobatto quadrature in plain Python (no scipy), lets each test case
evaluate the one term its limit has, and runs the ratio experiments.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Sequence

import numpy as np

from .core import PointCloud, ValidationError, ZetaSpec, check_seed, zeta_derivative, zeta_limit, zeta_value
from .energy import check_exponents, pair_terms

__all__ = [
    "omega_ball_volume",
    "radial_moment",
    "theta_eta",
    "sigma_eta",
    "sphere_moment",
    "sphere_moment_mc",
    "gaussian_eta",
    "SmoothCase",
    "StepCase",
    "NoisyFidelityCase",
    "sampled_energy",
    "gamma_experiment",
    "noise_offset_experiment",
]


def omega_ball_volume(m: int) -> float:
    """Volume of the unit ball in R^m; omega_0 = 1 by convention."""
    if m < 0:
        raise ValidationError("dimension must be nonnegative")
    return math.pi ** (m / 2) / math.gamma(m / 2 + 1)


class DivergentIntegralError(ValidationError):
    """A kernel moment required by the limiting constants does not converge, or is not finite."""


def _lobatto_rule() -> list[tuple[float, float]]:
    """The 7-point Gauss-Lobatto rule, exact to degree 11, as (node, weight) on [0, 1].

    Its nodes are the ends, the midpoint and the roots of P_6'.  As it samples
    the ends of an interval, every bisection point is a node, so a jump just
    beside one still separates the halves' sum from the whole's.
    """
    x1, x2 = (math.sqrt(5.0 / 11.0 + s * 2.0 / 11.0 * math.sqrt(5.0 / 3.0)) for s in (-1.0, 1.0))
    w1, w2 = ((124.0 - s * 7.0 * math.sqrt(15.0)) / 350.0 for s in (-1.0, 1.0))
    rule = [(-1.0, 1.0 / 21.0), (-x2, w2), (-x1, w1), (0.0, 256.0 / 525.0), (x1, w1), (x2, w2), (1.0, 1.0 / 21.0)]
    return [((1.0 + x) / 2.0, w / 2.0) for x, w in rule]


_LOBATTO = _lobatto_rule()
# Subintervals that one piece of radial_moment may split into, so that a
# kernel the rule cannot resolve still ends its bisection.
_MAX_INTERVALS = 200


def _lobatto(f: Callable, a: float, b: float) -> float:
    h = b - a
    return h * math.fsum(w * f(a + h * x) for x, w in _LOBATTO)


def _adaptive(f: Callable, points: Sequence[float]) -> float:
    """int f over [points[0], points[-1]] by globally adaptive bisection.

    An interval's value is the rule on its two halves, and its error the
    distance to the rule on the whole.  The interval of largest error is
    bisected until the errors sum to at most 1e-14 of the total, or until
    there are ``_MAX_INTERVALS`` intervals; the total is returned either way.
    """

    def split(a, b, whole):
        m = 0.5 * (a + b)
        left, right = _lobatto(f, a, m), _lobatto(f, m, b)
        return -abs(left + right - whole), a, b, left, right

    heap = [split(a, b, _lobatto(f, a, b)) for a, b in itertools.pairwise(points)]
    heapq.heapify(heap)
    while True:
        total = math.fsum(left + right for *_, left, right in heap)
        if -math.fsum(e for e, *_ in heap) <= 1e-14 * abs(total) or len(heap) >= _MAX_INTERVALS:
            return total
        _, a, b, left, right = heapq.heappop(heap)
        m = 0.5 * (a + b)
        heapq.heappush(heap, split(a, m, left))
        heapq.heappush(heap, split(m, b, right))


def radial_moment(eta: Callable, power: float) -> float:
    """int_0^inf t^power eta(t) dt by adaptive quadrature with a doubling cutoff.

    ``eta`` is called on one scalar t at a time; where it is 0 the integrand
    is 0, and t^power is not formed.  [0, 1] is integrated first, from the
    breakpoints 0, 2^-10, 2^-9, ..., 1/2, 1, so that a kernel narrower than
    the rule's first inner node is still seen.  Then [1, 2], [2, 4], ... are
    added until the last doubling contributes less than 1e-12 of the
    running total.  Each piece is integrated by ``_adaptive`` to about 1e-14
    relative.  A non-finite integrand value, or a total that fails to
    stabilize, raises DivergentIntegralError.
    """

    def integrand(t):
        value = eta(t)
        if value == 0:
            return 0.0
        value = t**power * value
        if not math.isfinite(value):
            raise DivergentIntegralError(
                f"kernel moment of order {power}: t^{power} eta(t) is {value} at t={t:g}"
            )
        return value

    total = _adaptive(integrand, [0.0] + [2.0**k for k in range(-10, 1)])
    lo, hi = 1.0, 2.0
    for _ in range(60):
        piece = _adaptive(integrand, [lo, hi])
        total += piece
        if piece <= 1e-12 * total or (total == 0.0 and piece == 0.0):
            return total
        lo, hi = hi, 2 * hi
    raise DivergentIntegralError(
        f"kernel moment of order {power} did not converge (assumption B2 violated)"
    )


def sphere_moment(p: float, d: int) -> float:
    """int_{S^{d-1}} |e . v|^p dH^{d-1}(v) = 2 omega_{d-1} G((p+1)/2) G((d+1)/2) / G((p+d)/2)."""
    try:
        return (
            2.0
            * omega_ball_volume(d - 1)
            * math.gamma(p / 2 + 0.5)
            * math.gamma(d / 2 + 0.5)
            / math.gamma(p / 2 + d / 2)
        )
    except OverflowError:
        # In 2-D both Gamma factors overflow a float from p = 342 on; their
        # ratio, about (p/2)^((1-d)/2), does not.
        ratio = math.exp(math.lgamma(p / 2 + 0.5) - math.lgamma(p / 2 + d / 2))
        return 2.0 * omega_ball_volume(d - 1) * ratio * math.gamma(d / 2 + 0.5)


def sphere_moment_mc(p: float, d: int, n_samples: int = 10**6, seed: int = 0) -> float:
    """Monte-Carlo estimate of sphere_moment via uniform samples on S^{d-1}."""
    check_seed(seed)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n_samples, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    surface = d * omega_ball_volume(d)
    return surface * float(np.mean(np.abs(v[:, 0]) ** p))


def _moment(eta: Callable, power: float) -> float:
    """radial_moment, rejected unless positive."""
    value = radial_moment(eta, power)
    if not value > 0:
        # _adaptive splits [0, 2^-10] first and samples both halves at the rule's
        # nodes, so a kernel that is 0 from the first inner node on reads as 0.
        first = _LOBATTO[1][0] * 2.0**-11
        raise ValidationError(f"kernel moment of order {power:g} is {value:g}: the kernel is identically zero "
                              f"(assumption B1), or zero from t = {first:.2g} on, the quadrature's first node above 0")
    return value


def theta_eta(p: float, q: float, d: int, eta: Callable) -> float:
    """Gradient-term constant: sphere moment times int t^{p-q+d-1} eta(t) dt.

    Raises DivergentIntegralError where a factor or the product overflows a
    float: in 2-D, for the kernel of support [0, 3], from p = 646 on, where
    the radial moment of order p+1 does.
    """
    check_exponents(p, q)
    try:
        value = sphere_moment(p, d) * _moment(eta, p - q + d - 1)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise DivergentIntegralError(f"the gradient-term constant at p={p:g} overflows a float")
    return value


def sigma_eta(d: int, eta: Callable) -> float:
    """Jump-term constant: 2 omega_{d-1} int t^d eta(t) dt."""
    return 2.0 * omega_ball_volume(d - 1) * _moment(eta, float(d))


def gaussian_eta(sigma: float = 1.0, cutoff_multiplier: float = 3.0) -> Callable:
    """The truncated Gaussian profile matching the graph builder's edge weights, for scalar t."""
    cut = cutoff_multiplier * sigma

    def eta(t: float) -> float:
        return math.exp(-(t**2) / (2.0 * sigma**2)) if t <= cut else 0.0

    return eta


@dataclass(frozen=True)
class SmoothCase:
    """u(x) = amplitude * sin(2 pi frequency x_1) on [0,1]^d, uniform density."""

    frequency: float = 1.0
    amplitude: float = 1.0
    d: int = 2
    # gamma_experiment's default kernel width
    default_sigma: ClassVar[float] = 0.2

    def values(self, x: np.ndarray) -> np.ndarray:
        return self.amplitude * np.sin(2.0 * np.pi * self.frequency * x[..., 0])

    def continuum(self, spec: ZetaSpec, eta: Callable, p: float, q: float) -> float:
        """theta(p, q) zeta'(0) int |grad u|^p by 256-point Gauss-Legendre along x_1; no jump term."""
        x, w = np.polynomial.legendre.leggauss(256)
        x, w = (x + 1.0) / 2.0, w / 2.0
        k = 2.0 * np.pi * self.frequency
        grad_term = float(np.sum(np.abs(self.amplitude * k * np.cos(k * x)) ** p * w))
        return theta_eta(p, q, self.d, eta) * zeta_derivative(spec, 0.0) * grad_term


@dataclass(frozen=True)
class StepCase:
    """u = low + (high-low) 1_{x_1 > location} on [0,1]^d, uniform density."""

    location: float = 0.5
    low: float = 0.0
    high: float = 1.0
    d: int = 2
    # gamma_experiment's default kernel width
    default_sigma: ClassVar[float] = 1.0

    def values(self, x: np.ndarray) -> np.ndarray:
        return np.where(x[..., 0] > self.location, self.high, self.low)

    def continuum(self, spec: ZetaSpec, eta: Callable, p: float, q: float) -> float:
        """sigma Theta H^{d-1}(S_u), with H^{d-1}(S_u) = 1; there is no gradient term, so no p or q."""
        sigma, limit = sigma_eta(self.d, eta), zeta_limit(spec)
        if self.high == self.low:
            return 0.0
        if limit is None:
            raise ValidationError("jump-set cases need a finite saturation limit (bounded zeta)")
        return sigma * limit


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


# Upper bound on the candidate pairs compared in one chunk, besides its last
# window.  On a 2-core x86 box, best of 10 calls each with 2**13 to 2**16:
# the spike counterexample (3-D, k=5, 6.7e6 candidates compared) took 0.147,
# 0.143, 0.145 and 0.181 s, and the gamma-step energy (2-D, n=64,000, 1.0e7
# compared) 0.202, 0.188, 0.197 and 0.232 s.  Smaller chunks cost Python
# overhead, larger ones page faults: after its first call, a step call took
# about 0, 0, 11,500 and 26,000 minor faults, a spike call 960, 490, 4,500
# and 23,600.
_BLOCK_CANDIDATES = 1 << 14


def _cell_side(points: np.ndarray, radius: float) -> float:
    """The side of the cells that bucket the axes across the sweep: just over radius/2.

    The margin covers rounding in the cell index and in d2 <= r2; the scale
    term also keeps every cell index below 2^42.
    """
    scale = float(np.max(np.abs(points)))
    return max(0.5 * radius * (1.0 + 2.0**-40) + scale * 2.0**-40, np.finfo(float).tiny)


def _cell_order(points: np.ndarray, radius: float, axis: int):
    """The permutation into row order for a sweep along ``axis``, and the row cells in that order.

    Every other axis is bucketed into cells of side ``_cell_side``, so a pair
    within the radius is at most two cells apart on each of them.  Points
    that share those cells form a row.  Rows are sorted lexicographically by
    their cells, and each row by its coordinate on ``axis``; for d = 1 the
    whole cloud is one row.
    """
    across = np.delete(points, axis, axis=1)
    lo = across.min(axis=0)
    cells = np.floor((across - lo) / _cell_side(points, radius)).astype(np.int64)
    order = np.lexsort((points[:, axis], *cells.T[::-1]))
    return order, cells[order]


def _reaches(points: np.ndarray, radius: float) -> dict:
    """{forward row offset: half-width of its windows along the sweep axis}.

    Points in rows m >= 2 cells apart on an across axis are more than
    (m - 1) side apart on it, so the pairs within the radius between rows at
    offset o lie within sqrt(r^2 - gap_o^2) along the sweep, where
    gap_o^2 = sum_k (max(|o_k| - 1, 0) side)^2.  Each gap term is shrunk by
    a margin for rounding in the cell index, and r is grown by margins for
    rounding in d2 <= r2 and in the window ends, so an offset with no gap
    gets r plus those margins.
    """
    d = points.shape[1]
    scale = float(np.max(np.abs(points)))
    side, grown, margin = _cell_side(points, radius), radius * (1.0 + 2.0**-40), scale * 2.0**-39
    reaches = {}
    for off in itertools.product(range(-2, 3), repeat=d - 1):
        if off >= (0,) * (d - 1):
            # gap_o^2 / r^2, with r and the gap terms as grown and shrunk
            gap = sum((max((abs(o) - 1) * side - margin, 0.0) / grown) ** 2 for o in off)
            reaches[off] = grown * math.sqrt(max(1.0 - gap, 0.0)) + margin
    return reaches


def _cell_pairs(
    points: np.ndarray, order: np.ndarray, cells: np.ndarray, radius: float, axis: int, values=None, stats=None
):
    """Yield (i_idx, j_idx, d2) chunks covering every unordered pair within radius, d2 their squared distances.

    ``order`` and ``cells`` are what ``_cell_order`` gives for ``points`` and
    the sweep axis ``axis``.  The yielded indices are positions in row order,
    so ``order`` maps them back to rows of ``points``.  Each row is swept
    against itself and every lexicographically forward row at most two cells
    away: point i meets the window [lo_i, hi_i) of a row that lies within
    that row offset's reach along ``axis`` (``_reaches``: the radius, less
    what the cell gap across the sweep already uses up), after i in its own
    row, so each pair appears exactly once.  A chunk holds the windows of
    whole points, fewer than ``_BLOCK_CANDIDATES`` candidate pairs plus one
    window, and a window never exceeds its row.  Squared distances are
    summed one coordinate at a time, in axis order.

    With ``values`` (in row order), each window is trimmed of the runs of
    equal values at its ends that carry u_i: lo moves past the run holding
    it, and hi back to the start of the run holding hi - 1.  A run can cross
    a row boundary, so a trimmed end can pass the window's other end; that
    happens only when one run fills the window, and such a window, like any
    trimmed empty, is dropped.  ``stats`` receives the candidate pairs
    (window lengths, summed) ``compared`` and ``skipped``; their sum is the
    total over the untrimmed windows of each offset's reach.
    """
    n, d = points.shape
    r2 = radius**2
    coords = [points[order, k] for k in range(d)]
    sweep = coords[axis]

    keys, starts = np.unique(cells, axis=0, return_index=True)
    rows = dict(zip(map(tuple, keys.tolist()), itertools.pairwise([*starts.tolist(), n])))
    reaches = _reaches(points, radius)

    if values is not None:
        # first[k], after[k]: the bounds of the run of equal values that holds k
        bounds = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1], [True])))
        lengths = np.diff(bounds)
        first, after = np.repeat(bounds[:-1], lengths), np.repeat(bounds[1:], lengths)
    compared = skipped = 0

    for key, (s0, e0) in rows.items():
        for off, reach in reaches.items():
            row = rows.get(tuple(k + o for k, o in zip(key, off)))
            if row is None:
                continue
            s1, e1 = row
            i = np.arange(s0, e0)
            # in its own row, i's window reaches back to i itself
            lo = i + 1 if s1 == s0 else s1 + np.searchsorted(sweep[s1:e1], sweep[s0:e0] - reach)
            hi = s1 + np.searchsorted(sweep[s1:e1], sweep[s0:e0] + reach, "right")
            live = hi > lo
            i, lo, hi = i[live], lo[live], hi[live]
            if values is not None:
                # trim the runs that carry u_i off both ends of i's window
                ui, untrimmed = values[i], int(np.sum(hi - lo))
                lo, hi = np.where(values[lo] == ui, after[lo], lo), np.where(values[hi - 1] == ui, first[hi - 1], hi)
                live = hi > lo
                i, lo, hi = i[live], lo[live], hi[live]
                skipped += untrimmed - int(np.sum(hi - lo))
            count = hi - lo
            compared += int(np.sum(count))
            # chunk c: the points whose windows start in [c, c + 1) * _BLOCK_CANDIDATES
            start = np.cumsum(count) - count
            cuts = np.flatnonzero(np.diff(start // _BLOCK_CANDIDATES, prepend=-1)).tolist()
            for a, b in zip(cuts, cuts[1:] + [len(i)]):
                sizes = count[a:b]
                ia = np.repeat(i[a:b], sizes)
                # stream position t of point k's window is index t + lo[k] - start[k]
                ib = np.repeat(lo[a:b] - start[a:b], sizes)
                ib += np.arange(start[a], start[b - 1] + sizes[-1])
                # x[ia] as a repeat of x[i], which is cheaper than a gather by ia
                d2 = np.repeat(coords[0][i[a:b]], sizes)
                d2 -= coords[0].take(ib)
                d2 *= d2
                for x in coords[1:]:
                    diff = np.repeat(x[i[a:b]], sizes)
                    diff -= x.take(ib)
                    diff *= diff
                    d2 += diff
                near = np.flatnonzero(d2 <= r2)
                yield ia.take(near), ib.take(near), d2.take(near)
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
    edge list is never materialized.  The pairs come from a sorted sweep along
    one axis: rows of cells of side just over radius/2 on every other axis,
    each sorted along the sweep axis, so a point's candidates in a neighbor
    row are one window, as wide as the radius leaves after the cell gap
    between the two rows.  The sweep axis is the one whose row order has the
    fewest changes of value, ties going to the last axis; it is chosen the
    same way for every zeta and q, and the search stops early once an axis
    has as few changes as the values allow (distinct values - 1).  Each chunk
    holds a bounded number of candidate pairs, so memory stays fixed however
    many pairs there are.  Values are gathered once into row order and read
    there with the kernel's indices.  The kernel weights are formed from the
    squared distances; r itself is taken only when q > 0.  When zeta(0) = 0
    and q = 0, a pair with u_i = u_j adds exactly 0, so each window is trimmed
    of the runs at its ends that carry u_i before any distance is computed.
    Chunk sums are combined with math.fsum; the sweep axis and the trim
    change which terms share a chunk, so they can move the result in the
    last bits only.

    When ``stats`` is given, it receives the sweep ``axis`` and the candidate
    pairs ``compared`` and ``skipped`` (see ``_cell_pairs``).
    """
    check_exponents(p, q)
    cloud = PointCloud(points, values)
    points, values = cloud.points, cloud.labels
    n, d = points.shape
    radius = cutoff_multiplier * sigma * eps
    if not radius > 0:
        raise ValidationError("the cutoff radius cutoff_multiplier * sigma * eps must be positive")
    # Sweep along the axis whose row order changes value least; ties go to the
    # last.  No order has fewer than (distinct values - 1) changes, so the
    # search ends there; the distinct values are counted only when an order
    # shows the most changes there can be, n - 1.
    best = fewest = None
    for axis in reversed(range(d)):
        order, cells = _cell_order(points, radius, axis)
        u = values[order]
        changes = int(np.count_nonzero(u[1:] != u[:-1]))
        if best is None or changes < best[0]:
            best = changes, axis, order, cells, u
        if fewest is None and changes == n - 1:
            fewest = len(np.unique(values)) - 1
        if best[0] == fewest:
            break
    _, axis, order, cells, u = best
    if stats is not None:
        stats["axis"] = axis
    skip_constant = q == 0 and zeta_value(spec, 0.0) == 0.0
    denominator = -2.0 * sigma**2 * eps**2
    pieces = []
    for ia, ib, d2 in _cell_pairs(points, order, cells, radius, axis, u if skip_constant else None, stats):
        r = np.sqrt(d2) if q > 0 else None
        # the kernel weights exp(-d2 / (2 sigma^2 eps^2)), formed over d2
        w = np.exp(np.divide(d2, denominator, out=d2), out=d2)
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
    zeta; it defaults to the case's ``default_sigma``, and ``case.continuum``
    gives the limit for the same truncated kernel, which must not be 0 (a
    flat step, a zero amplitude), as the ratio divides by it.  Each row's
    ``pairs`` holds the sweep axis and candidate-pair counts of its
    ``sampled_energy`` call.  A sigma^2, or an n's squared cutoff radius
    (cutoff_multiplier sigma eps_n)^2, that is 0 or overflows a float raises
    ValidationError.
    """
    check_exponents(p, q)
    if any(n < 1 for n in n_list):
        raise ValidationError("sample sizes must be positive")
    check_seed(seed)
    sigma = case.default_sigma if sigma is None else sigma
    if not 0 < sigma * sigma < math.inf:
        raise ValidationError(f"sigma={sigma:g} puts sigma^2 outside the float range")
    eta = gaussian_eta(sigma, cutoff_multiplier)
    with np.errstate(over="ignore"):  # checked below
        continuum = case.continuum(spec, eta, p, q)
    if continuum == 0:
        raise ValidationError(f"the continuum limit of {case} is 0, so the ratio discrete / continuum is undefined")
    rng = np.random.default_rng(seed)
    rows = []
    for n in n_list:
        eps = 0.7 * n ** (-0.25)
        # The smooth case's continuum energy holds (2 pi)^p, and the discrete
        # energy divides by eps^(p-1-q): both leave the float range for large p.
        if not math.isfinite(continuum) or eps ** (p - 1.0 - q) < np.finfo(float).tiny:
            raise DivergentIntegralError(f"the energies at n={n}, p={p:g} leave the float range")
        radius = cutoff_multiplier * sigma * eps
        if not 0 < radius * radius < math.inf:
            raise ValidationError(
                f"cutoff={cutoff_multiplier:g}, sigma={sigma:g}: the squared cutoff radius (cutoff sigma eps)^2 "
                f"at n={n} leaves the float range"
            )
        x = rng.random((n, case.d))
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
    check_seed(seed)
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
