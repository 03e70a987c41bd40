"""Shared domain types, the concave saturation functions, and model assumption checks."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PointCloud",
    "ZetaSpec",
    "SolverConfig",
    "Solution",
    "zeta_value",
    "zeta_derivative",
    "zeta_limit",
    "validate_assumptions",
    "AssumptionReport",
]


class ValidationError(ValueError):
    """Raised when an input violates a structural invariant."""


@dataclass(frozen=True)
class PointCloud:
    """n points in R^d with optional real-valued labels.

    ``points`` is an (n, d) float array; ``labels`` is either None or a length-n
    float array holding the observed values f_i.
    """

    points: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValidationError("points must be a nonempty (n, d) array")
        if not np.all(np.isfinite(pts)):
            raise ValidationError("point coordinates must be finite")
        object.__setattr__(self, "points", pts)
        if self.labels is not None:
            lab = np.asarray(self.labels, dtype=float)
            if lab.shape != (pts.shape[0],):
                raise ValidationError(
                    f"labels must have length {pts.shape[0]}, got shape {lab.shape}"
                )
            if not np.all(np.isfinite(lab)):
                raise ValidationError("labels must be finite")
            object.__setattr__(self, "labels", lab)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


# Saturation function kinds.  "capped_linear" (min(t, 1)) is used by the
# compactness counterexample experiment; the other three are the solver's menu.
KINDS = ("ms_arctan", "tv_smoothed", "quadratic", "capped_linear")


@dataclass(frozen=True)
class ZetaSpec:
    """A concave nondecreasing saturation function on [0, inf).

    kind:
      - "ms_arctan":   zeta(t) = (2/pi) * arctan(pi t / 2)
      - "tv_smoothed": zeta(t) = sqrt(delta^2 + t)      (requires delta > 0)
      - "quadratic":   zeta(t) = t
      - "capped_linear": zeta(t) = min(t, 1)

    Note: tv_smoothed has zeta(0) = delta != 0; this only shifts energies by a
    constant and is kept as-is.
    """

    kind: str
    delta: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown zeta kind {self.kind!r}; expected one of {KINDS}")
        if self.kind == "tv_smoothed":
            if self.delta is None or not (self.delta > 0):
                raise ValidationError("tv_smoothed requires delta > 0")
        elif self.delta is not None:
            raise ValidationError(f"delta is only meaningful for tv_smoothed, not {self.kind}")


def zeta_value(spec: ZetaSpec, t):
    """Evaluate zeta(t) elementwise for t >= 0."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValidationError("zeta is only defined for t >= 0")
    if spec.kind == "ms_arctan":
        out = (2.0 / np.pi) * np.arctan(np.pi * t / 2.0)
    elif spec.kind == "tv_smoothed":
        out = np.sqrt(spec.delta**2 + t)
    elif spec.kind == "quadratic":
        out = t.copy()
    else:  # capped_linear
        out = np.minimum(t, 1.0)
    return float(out) if out.ndim == 0 else out


def zeta_derivative(spec: ZetaSpec, t):
    """Evaluate zeta'(t) elementwise for t >= 0.

    For capped_linear the derivative is taken to be 1 on [0, 1] and 0 beyond
    (the kink at 1 gets the left value).
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValidationError("zeta' is only defined for t >= 0")
    if spec.kind == "ms_arctan":
        out = 1.0 / (1.0 + (np.pi**2) * t**2 / 4.0)
    elif spec.kind == "tv_smoothed":
        out = 1.0 / (2.0 * np.sqrt(spec.delta**2 + t))
    elif spec.kind == "quadratic":
        out = np.ones_like(t)
    else:
        out = np.where(t <= 1.0, 1.0, 0.0)
    return float(out) if out.ndim == 0 else out


def zeta_limit(spec: ZetaSpec) -> float | None:
    """Limit of zeta(t) as t -> inf, or None if unbounded."""
    if spec.kind in ("ms_arctan", "capped_linear"):
        return 1.0
    return None  # tv_smoothed, quadratic grow without bound


@dataclass(frozen=True)
class SolverConfig:
    """Parameters for graph construction and the IRLS solver."""

    lam: float = 1.0
    eps: float = 0.1
    sigma: float = 1.0
    k_max: int = 8
    cg_tol: float = 1e-8
    irls_tol: float = 1e-6
    irls_max_iter: int = 100
    cutoff_multiplier: float = 3.0

    def __post_init__(self):
        if not (self.lam > 0):
            raise ValidationError("lam must be positive")
        if not (self.eps > 0):
            raise ValidationError("eps must be positive")
        if not (self.sigma > 0):
            raise ValidationError("sigma must be positive")
        if not (self.k_max >= 1):
            raise ValidationError("k_max must be a positive integer")
        if not (self.cg_tol > 0 and self.irls_tol > 0):
            raise ValidationError("tolerances must be positive")
        if self.irls_max_iter < 1:
            raise ValidationError("irls_max_iter must be positive")
        if not (self.cutoff_multiplier > 0):
            raise ValidationError("cutoff_multiplier must be positive")


@dataclass
class Solution:
    """Result of an IRLS run: minimizer, per-iteration energies and stop state."""

    u: np.ndarray
    energy_trace: list[dict] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False


@dataclass
class AssumptionReport:
    """Pass/fail record for the kernel and saturation-function standing assumptions."""

    eta_nonincreasing: bool
    eta_integrable: bool
    zeta_nondecreasing: bool
    zeta_concave: bool
    q_in_range: bool
    details: dict = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return (
            self.eta_nonincreasing
            and self.eta_integrable
            and self.zeta_nondecreasing
            and self.zeta_concave
            and self.q_in_range
        )


def validate_assumptions(
    spec: ZetaSpec,
    eta_grid: np.ndarray,
    eta_values: np.ndarray,
    p: float,
    q: float,
    d: int,
) -> AssumptionReport:
    """Spot-check the standing assumptions on a sampled kernel and a zeta spec.

    The kernel eta is given by its values on a positive grid; integrability of
    (t^d + t^{p-q+d-1}) eta(t) is judged by trapezoid quadrature on the grid
    (finite and with a converging tail).  zeta monotonicity and midpoint
    concavity are checked on a dense sample.
    """
    t = np.asarray(eta_grid, dtype=float)
    v = np.asarray(eta_values, dtype=float)
    if t.ndim != 1 or t.shape != v.shape or np.any(t <= 0):
        raise ValidationError("eta must be sampled on a positive 1-d grid")
    order = np.argsort(t)
    t, v = t[order], v[order]

    eta_noninc = bool(np.all(np.diff(v) <= 1e-12)) and bool(np.any(v > 0))

    integrand = (t**d + t ** (p - q + d - 1)) * v
    total = np.trapezoid(integrand, t)
    # Tail heuristic: the last decade of the grid must contribute a vanishing
    # share, otherwise the quadrature has not converged (divergent tail).
    tail_mask = t >= t[-1] / 10.0
    tail = np.trapezoid(integrand[tail_mask], t[tail_mask])
    eta_integrable = bool(np.isfinite(total) and total > 0 and tail <= 0.5 * total)

    ts = np.linspace(0.0, 100.0, 2001)
    zs = zeta_value(spec, ts)
    nondecreasing = bool(np.all(np.diff(zs) >= -1e-12))
    mid = zeta_value(spec, (ts[:-2] + ts[2:]) / 2.0)
    concave = bool(np.all(mid >= (zs[:-2] + zs[2:]) / 2.0 - 1e-12))

    return AssumptionReport(
        eta_nonincreasing=eta_noninc,
        eta_integrable=eta_integrable,
        zeta_nondecreasing=nondecreasing,
        zeta_concave=concave,
        q_in_range=bool(0 <= q < p),
        details={
            "integral_estimate": float(total),
            "tail_share": float(tail / total) if total > 0 else math.inf,
            "theta": zeta_limit(spec),
            "theta_unbounded": zeta_limit(spec) is None,
        },
    )
