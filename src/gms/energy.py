"""Discrete energy evaluation in both parameterizations.

The regularizer sums over ordered pairs (i, j); with the symmetric edge list
each stored edge contributes twice.  Terms are summed exactly and rounded
once (``exact_sum``), so results do not depend on the summation order and are
deterministic bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# zeta_value stays importable from here: perfbench/tracer.py hooks gms.energy.zeta_value.
from .core import ValidationError, ZetaSpec, zeta_inplace, zeta_value  # noqa: F401
from .graph import SparseGraph

__all__ = [
    "EnergyBreakdown", "exact_sum", "check_exponents", "pair_terms", "gms_energy", "objective_sec6",
    "objective_sec1",
]


class SingularityError(ValidationError):
    """A zero-distance edge met a q > 0 denominator."""


@dataclass(frozen=True)
class EnergyBreakdown:
    fidelity: float
    regularizer: float
    parameterization: str  # "sec1" or "sec6"

    @property
    def total(self) -> float:
        return self.fidelity + self.regularizer


def exact_sum(x) -> float:
    """Correctly rounded sum of the entries of x: ``math.fsum`` without leaving numpy.

    Each finite term is m * 2**(e - 53) with an integer |m| < 2**53.  The m
    are split into 26-bit halves, and each half is summed per exponent by one
    ``np.bincount``, exactly while there are fewer than 2**26 terms.  The bins
    are combined as one Python integer, which is rounded to float once, so the
    result is bit-identical to ``math.fsum`` wherever that returns a value
    (fsum also raises OverflowError when only a partial sum overflows).
    Non-finite input and larger arrays go to ``math.fsum`` itself.
    """
    x = np.ravel(np.asarray(x, dtype=float))
    if x.size == 0:
        return 0.0
    if x.size >= 2**26 or not np.all(np.isfinite(x)):
        return math.fsum(x.tolist())
    mant, exp = np.frexp(x)
    mant *= 2.0**53  # integers below 2**53 in magnitude, held exactly
    hi = np.floor(mant * 2.0**-26)
    low = int(exp.min())
    bins = (exp - low).astype(np.intp)
    his = np.bincount(bins, weights=hi).tolist()
    los = np.bincount(bins, weights=mant - hi * 2.0**26).tolist()
    total = 0
    for b, (h, lo) in enumerate(zip(his, los)):
        if h or lo:
            total += ((int(h) << 26) + int(lo)) << b
    shift = low - 53
    return float(total << shift) if shift >= 0 else total / (1 << -shift)


def check_exponents(p: float, q: float) -> None:
    """Raise ValidationError unless p is positive and finite and 0 <= q < p."""
    if not 0 < p < math.inf:
        raise ValidationError(f"p must be positive and finite, got {p}")
    if not 0 <= q < p:
        raise ValidationError(f"q must lie in [0, p), got {q}")


def _check_u_f(graph: SparseGraph, u, f) -> tuple[np.ndarray, np.ndarray]:
    u = graph.vertex_array(u, "u")
    if f is None:
        raise ValidationError("labels are required for the fidelity term")
    return u, graph.vertex_array(f, "f")


def _finite_sum(graph: SparseGraph, terms: np.ndarray, what: str, f=None) -> float:
    """``exact_sum`` of the energy's terms; a sum that overflows or is not finite raises ValidationError.

    The message names the graph's eps and sigma, ``what`` was summed and, when
    the labels ``f`` are given, their largest |f|.
    """
    try:
        total = exact_sum(terms)
    except OverflowError:
        total = math.inf
    if math.isfinite(total):
        return total
    labels = "" if f is None else f" (largest |f| = {np.max(np.abs(f)):g})"
    raise ValidationError(
        f"eps={graph.eps:g}, sigma={graph.sigma:g}: the energy's {what} leaves the float range{labels}"
    )


def pair_terms(
    u: np.ndarray, ii, jj, distances, weights, spec: ZetaSpec, eps: float, p: float, q: float,
    labels=None,
) -> np.ndarray:
    """Per-pair terms zeta(|u_i - u_j|^p / (eps^{p-1-q} r^q)) * w of the general energy.

    ``distances`` is read only when q > 0.  The terms are formed in one array,
    in place, with the operations in the order of the formula.  Raises
    SingularityError when q > 0 and some pair has zero distance; the message
    names the pair by ``labels[i]`` and ``labels[j]`` when ``labels`` is given
    (for indices into a permuted ``u``), else by i and j.
    """
    t = u[ii]
    t -= u[jj]
    np.abs(t, out=t)
    t **= p
    t /= eps ** (p - 1.0 - q)
    if q > 0:
        zero = distances == 0
        if np.any(zero):
            k = int(np.argmax(zero))
            i, j = (ii[k], jj[k]) if labels is None else (labels[ii[k]], labels[jj[k]])
            raise SingularityError(
                f"pair ({i}, {j}) has zero distance; "
                "the q > 0 energy is singular there"
            )
        t /= distances**q
    # t >= 0 by construction, so zeta_value's check is not needed here
    zeta_inplace(spec, t)
    t *= weights
    return t


def gms_energy(graph: SparseGraph, u, spec: ZetaSpec, *, p: float = 2.0, q: float = 0.0) -> float:
    """Fidelity-free energy (1/(eps n^2)) sum_{i,j} zeta(|du|^p / (eps^{p-1-q} r^q)) w_ij, eps the graph's."""
    u = graph.vertex_array(u, "u")
    check_exponents(p, q)
    if graph.n_edges == 0:
        return 0.0
    eps = graph.eps
    # a term that overflows, or an infinite one times a zero weight, fails the sum's check
    with np.errstate(over="ignore", invalid="ignore"):
        terms = pair_terms(u, graph.ii, graph.jj, graph.distances, graph.weights, spec, eps, p, q)
    return 2.0 * _finite_sum(graph, terms, "sum over the edges") / (eps * graph.n**2)


def objective_sec6(graph: SparseGraph, u, f, spec: ZetaSpec, lam: float) -> EnergyBreakdown:
    """Algorithmic objective: sum |u_i - f_i|^2 + (1/(lam eps n)) sum zeta(|du|^2/eps) w_ij, eps the graph's.

    This is the value of the half-quadratic objective at the optimal edge
    weights z, since min_z (z t + Psi(z)) = zeta(t).  A fidelity or edge sum
    that overflows or is not finite raises ValidationError naming eps, sigma
    and the labels' largest |f|; zeta saturating at an infinite argument
    leaves the sum finite.
    """
    u, f = _check_u_f(graph, u, f)
    eps = graph.eps
    with np.errstate(over="ignore", invalid="ignore"):
        terms = pair_terms(u, graph.ii, graph.jj, graph.distances, graph.weights, spec, eps, 2.0, 0.0)
        residual = (u - f) ** 2
    return EnergyBreakdown(
        fidelity=_finite_sum(graph, residual, "fidelity sum", f),
        regularizer=2.0 * _finite_sum(graph, terms, "sum over the edges", f) / (lam * eps * graph.n),
        parameterization="sec6",
    )


def objective_sec1(graph: SparseGraph, u, f, spec: ZetaSpec, lam: float) -> EnergyBreakdown:
    """Published-form objective: (lam/n) sum |u_i - f_i|^2 plus the p=2, q=0 regularizer, eps the graph's."""
    u, f = _check_u_f(graph, u, f)
    return EnergyBreakdown(
        fidelity=lam / graph.n * exact_sum((u - f) ** 2),
        regularizer=gms_energy(graph, u, spec),
        parameterization="sec1",
    )
