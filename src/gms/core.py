"""Shared domain types, the concave saturation functions, and the block writer, reader and text opener of the file formats."""

from __future__ import annotations

import contextlib
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PointCloud",
    "ZetaSpec",
    "SolverConfig",
    "Solution",
    "check_seed",
    "zeta_value",
    "zeta_inplace",
    "zeta_derivative",
    "zeta_limit",
]


class ValidationError(ValueError):
    """Raised when an input violates a structural invariant."""


def check_seed(seed: int) -> None:
    """Raise ValidationError for a negative seed, which numpy's generators reject with a bare ValueError."""
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")


# Rows that write_rows formats and writes at a time.
_SAVE_BLOCK = 4096


def write_rows(fh, row_format: str, columns) -> None:
    """Write one ``row_format`` line per row of the equal-length ``columns``.

    Rows are formatted one block at a time, by one %-format of the block's
    interleaved Python scalars: whole-array tolist() or one joined string
    would hold every row in memory at once.
    """
    columns = [np.asarray(column) for column in columns]
    n, k = len(columns[0]), len(columns)
    for s in range(0, n, _SAVE_BLOCK):
        m = min(_SAVE_BLOCK, n - s)
        fields = [None] * (k * m)
        for c, column in enumerate(columns):
            fields[c::k] = column[s : s + _SAVE_BLOCK].tolist()
        fh.write(row_format * m % tuple(fields))


@contextlib.contextmanager
def open_text(path, **kwargs):
    """``open(path)`` for reading UTF-8 text.

    A byte that is not UTF-8, read anywhere in the ``with`` block, raises
    ValidationError naming ``path``.
    """
    with open(path, encoding="utf-8", **kwargs) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from None


def read_table(path, columns=None, delimiter=","):
    """The header fields and the rows of a text table: points, values, a graph or edges.

    Returns the first line split on ``delimiter`` (None splits on runs of
    whitespace) and the rows after it as an (m, columns) float array;
    ``columns`` defaults to the number of header fields.  Blank lines are
    skipped.  ``np.loadtxt`` reads a well-formed table; any other is read
    again line by line, and the first line that is not ``columns`` finite
    numbers raises ValidationError naming ``path`` and the line.
    """
    with open_text(path) as fh:
        header = fh.readline().rstrip("\n").split(delimiter)
        columns = len(header) if columns is None else columns
        try:
            with warnings.catch_warnings():
                # A header-only table is a table of 0 rows.
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                rows = np.loadtxt(fh, delimiter=delimiter, comments=None, ndmin=2)
        except ValueError:
            rows = None
        if rows is not None and (rows.size == 0 or rows.shape[1] == columns) and np.all(np.isfinite(rows)):
            return header, rows.reshape(-1, columns)
        fh.seek(0)
        fh.readline()
        rows = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            fields = line.rstrip("\n").split(delimiter)
            try:
                rows.append([float(field) for field in fields])
            except ValueError as exc:
                raise ValidationError(f"{path}: line {lineno}: {exc}") from None
            if len(fields) != columns:
                raise ValidationError(f"{path}: line {lineno}: {len(fields)} fields, expected {columns}")
            if not all(map(math.isfinite, rows[-1])):
                raise ValidationError(f"{path}: line {lineno}: values must be finite")
    return header, np.array(rows).reshape(-1, columns)


def vertex_pairs(path, rows) -> np.ndarray:
    """The first two columns of the table ``rows`` as an (m, 2) int64 array.

    Raises ValidationError naming ``path`` unless they hold integers below
    2**53 in magnitude, where float64 holds every integer; inf and nan fail.
    """
    ends = rows[:, :2]
    if not np.all((np.abs(ends) < 2.0**53) & (ends == np.floor(ends))):
        raise ValidationError(f"{path}: edge endpoints must be integers")
    return ends.astype(np.int64)


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
      - "tv_smoothed": zeta(t) = sqrt(delta^2 + t)      (requires a finite delta > 0 whose square is a positive float)
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
            if self.delta is None or not 0 < self.delta < np.inf:
                raise ValidationError("tv_smoothed requires a finite delta > 0")
            if not 0 < self.delta * self.delta < np.inf:
                raise ValidationError(f"delta={self.delta:g} puts delta^2 outside the float range")
        elif self.delta is not None:
            raise ValidationError(f"delta is only meaningful for tv_smoothed, not {self.kind}")


def zeta_value(spec: ZetaSpec, t):
    """Evaluate zeta(t) elementwise for t >= 0."""
    t = np.array(t, dtype=float)
    if np.any(t < 0):
        raise ValidationError("zeta is only defined for t >= 0")
    out = zeta_inplace(spec, t)
    return float(out) if out.ndim == 0 else out


def zeta_inplace(spec: ZetaSpec, t: np.ndarray) -> np.ndarray:
    """Overwrite the float array t (all t >= 0, unchecked) with zeta(t) and return it."""
    if spec.kind == "ms_arctan":
        t *= np.pi
        t /= 2.0
        np.arctan(t, out=t)
        t *= 2.0 / np.pi
    elif spec.kind == "tv_smoothed":
        t += spec.delta**2
        np.sqrt(t, out=t)
    elif spec.kind == "capped_linear":
        np.minimum(t, 1.0, out=t)
    # quadratic: zeta(t) = t
    return t


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
        for name in ("lam", "eps", "sigma", "cutoff_multiplier", "cg_tol", "irls_tol"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValidationError(f"{name} must be finite and positive")
        if not (self.k_max >= 1):
            raise ValidationError("k_max must be a positive integer")
        if self.irls_max_iter < 1:
            raise ValidationError("irls_max_iter must be positive")


@dataclass
class Solution:
    """Result of an IRLS run: minimizer, per-iteration energies and stop state."""

    u: np.ndarray
    energy_trace: list[dict] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
