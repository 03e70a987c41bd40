"""Sparse geometric graph with Gaussian kernel weights and degree capping.

Edges connect pairs within radius cutoff_multiplier * sigma * eps; each vertex
keeps at most k_max nearest candidates (ties broken by smaller vertex index)
and the kept sets are union-symmetrized.  Weights are
w_ij = eps^{-d} * exp(-r_ij^2 / (2 sigma^2 eps^2)).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .core import PointCloud, SolverConfig, ValidationError, write_rows

__all__ = ["SparseGraph", "build_geometric_graph", "brute_force_graph", "save_graph", "load_graph"]

BRUTE_FORCE_GUARD = 5000

# One row of the edge-list file: "i j weight distance".
_EDGE_ROW = np.dtype([("i", np.int64), ("j", np.int64), ("w", float), ("r", float)])
_EDGE_FORMAT = "%d %d %.17g %.17g\n"


@dataclass(frozen=True)
class SparseGraph:
    """Symmetric weighted graph stored as a sorted (i < j) edge list.

    ``ii``, ``jj`` are int arrays with ii < jj; ``weights`` and ``distances``
    are the per-edge w_ij and r_ij.  Both orientations of an edge share the
    stored values; the diagonal is implicitly zero.
    """

    n: int
    dim: int
    eps: float
    sigma: float
    ii: np.ndarray
    jj: np.ndarray
    weights: np.ndarray
    distances: np.ndarray

    @property
    def n_edges(self) -> int:
        return len(self.ii)

    def degrees(self) -> np.ndarray:
        return np.bincount(self.ii, minlength=self.n) + np.bincount(self.jj, minlength=self.n)

    def validate(self) -> None:
        if np.any(self.ii >= self.jj):
            raise ValidationError("edge list must satisfy i < j (no diagonal)")
        di, dj = np.diff(self.ii), np.diff(self.jj)
        if np.any((di < 0) | ((di == 0) & (dj <= 0))):
            raise ValidationError("edge list must be sorted by (i, j) without duplicates")
        if self.n_edges and (self.ii.min() < 0 or self.jj.max() >= self.n):
            raise ValidationError(f"edge endpoints must be vertex indices in [0, {self.n})")
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.distances))):
            raise ValidationError("weights and distances must be finite")
        if np.any(self.weights <= 0) or np.any(self.distances < 0):
            raise ValidationError("weights must be positive and distances nonnegative")
        expected = self.eps ** (-self.dim) * np.exp(
            -self.distances**2 / (2.0 * self.sigma**2 * self.eps**2)
        )
        if self.n_edges and np.max(np.abs(self.weights - expected) / expected) > 1e-12:
            raise ValidationError("stored weights disagree with the kernel formula")


def _edge_weight(r: np.ndarray, dim: int, eps: float, sigma: float) -> np.ndarray:
    return eps ** (-dim) * np.exp(-np.asarray(r, dtype=float) ** 2 / (2.0 * sigma**2 * eps**2))


def _finalize(cloud: PointCloud, config: SolverConfig, ii: np.ndarray, jj: np.ndarray) -> SparseGraph:
    """Graph on the edges (ii, jj), given sorted by (i, j) with i < j."""
    r = np.linalg.norm(cloud.points[ii] - cloud.points[jj], axis=1)
    return SparseGraph(
        n=cloud.n,
        dim=cloud.dim,
        eps=config.eps,
        sigma=config.sigma,
        ii=ii,
        jj=jj,
        weights=_edge_weight(r, cloud.dim, config.eps, config.sigma),
        distances=r,
    )


def _cap_neighbors(dist: np.ndarray, idx: np.ndarray, k_max: int) -> np.ndarray:
    """Keep the k_max nearest of (dist, idx), ties broken by smaller index."""
    if len(idx) <= k_max:
        return idx
    order = np.lexsort((idx, dist))
    return idx[order[:k_max]]


def _kept_pairs(points: np.ndarray, k_max: int, radius: float, workers: int):
    """The neighbors each vertex keeps under the k_max cap.

    Returns arrays (i, j), one entry per neighbor j kept by vertex i, the
    number of vertices with more than k_max candidates and the number that
    took the index tie-break fallback.  Being a function of its own, its
    query window and tree are freed before the symmetrization allocates.
    """
    n = len(points)
    if n == 1:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), 0, 0
    tree = cKDTree(points)
    # Ask for a few extra neighbors so distance ties at the cap boundary
    # can be broken by index exactly as the brute-force oracle does.
    # cKDTree keeps only neighbors strictly inside its bound, so the bound
    # sits just above the radius and `<= radius` decides, as in the oracle.
    slack = 8
    bound = radius * (1.0 + 1e-9)
    k_query = min(n, k_max + 1 + slack)
    dists, idxs = tree.query(points, k=k_query, distance_upper_bound=bound, workers=workers)
    valid = (dists <= radius) & (idxs != np.arange(n)[:, None])
    # Compact each row's candidates to the front, keeping the distance order.
    order = np.argsort(~valid, axis=1, kind="stable")
    dists = np.take_along_axis(dists, order, axis=1)
    idxs = np.take_along_axis(idxs, order, axis=1)
    count = valid.sum(axis=1)
    over = count > k_max
    capped = int(np.count_nonzero(over))
    tie_rows = np.zeros(0, dtype=np.int64)
    if capped:
        # A distance tie at the cap (the sorted window ensures any tie
        # reaching past its end also shows up here) needs the full
        # candidate list so index tie-breaking matches the oracle.
        over &= dists[:, k_max] == dists[:, k_max - 1]
        tie_rows = np.flatnonzero(over)
    keep = np.arange(k_query) < np.minimum(count, k_max)[:, None]
    keep[tie_rows] = False
    src, dst = [np.nonzero(keep)[0]], [idxs[keep]]
    for i in tie_rows.tolist():
        cand = np.array(tree.query_ball_point(points[i], bound), dtype=np.int64)
        d_i = np.linalg.norm(points[cand] - points[i], axis=1)
        near = (d_i <= radius) & (cand != i)
        kept = _cap_neighbors(d_i[near], cand[near], k_max)
        src.append(np.full(len(kept), i, dtype=np.int64))
        dst.append(kept)
    return np.concatenate(src), np.concatenate(dst), capped, len(tie_rows)


def build_geometric_graph(
    cloud: PointCloud, config: SolverConfig, workers: int = 1, stats: dict | None = None
) -> SparseGraph:
    """KD-tree construction: radius candidates, per-vertex k_max cap, union symmetrization.

    When ``stats`` is given, it receives the vertices with more than k_max
    candidates (``capped_vertices``), the rows that needed the index
    tie-break fallback (``tie_fallbacks``), the edges of length zero
    (``zero_distance_edges``) and the degree histogram (``degree_histogram``,
    entry k counting the vertices of degree k).
    """
    n = cloud.n
    radius = config.cutoff_multiplier * config.sigma * config.eps
    src, dst, capped, ties = _kept_pairs(cloud.points, config.k_max, radius, workers)
    # Union symmetrization: one key per unordered pair, sorted by (i, j).
    keys = np.unique(np.minimum(src, dst) * n + np.maximum(src, dst))
    graph = _finalize(cloud, config, keys // n, keys % n)
    if stats is not None:
        stats["capped_vertices"] = capped
        stats["tie_fallbacks"] = ties
        stats["zero_distance_edges"] = int(np.count_nonzero(graph.distances == 0))
        stats["degree_histogram"] = np.bincount(graph.degrees()).tolist()
    return graph


def brute_force_graph(cloud: PointCloud, config: SolverConfig) -> SparseGraph:
    """O(n^2) reference construction with identical semantics (test oracle)."""
    n = cloud.n
    if n > BRUTE_FORCE_GUARD:
        raise ValidationError(f"brute_force_graph is guarded to n <= {BRUTE_FORCE_GUARD}")
    radius = config.cutoff_multiplier * config.sigma * config.eps
    diff = cloud.points[:, None, :] - cloud.points[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    kept: set[tuple[int, int]] = set()
    for i in range(n):
        cand = np.array([j for j in range(n) if j != i and dist[i, j] <= radius], dtype=np.int64)
        for j in _cap_neighbors(dist[i, cand], cand, config.k_max):
            kept.add((min(i, int(j)), max(i, int(j))))
    edges = np.array(sorted(kept), dtype=np.int64).reshape(-1, 2)
    return _finalize(cloud, config, edges[:, 0], edges[:, 1])


def save_graph(graph: SparseGraph, path) -> None:
    """Write the edge-list text format: header "n d eps sigma", then "i j weight distance"."""
    with open(path, "w") as fh:
        fh.write(f"{graph.n} {graph.dim} {graph.eps:.17g} {graph.sigma:.17g}\n")
        write_rows(fh, _EDGE_FORMAT, (graph.ii, graph.jj, graph.weights, graph.distances))


def load_graph(path) -> SparseGraph:
    """Read the format written by :func:`save_graph`.

    Raises ValidationError for a header that is not "n d eps sigma" with
    integer n, d >= 1 and positive finite eps, sigma; for an edge row that is
    not four fields "i j weight distance" with integer i, j; and for any edge
    list that :meth:`SparseGraph.validate` rejects (i >= j, rows not sorted
    by (i, j) or repeated, indices outside [0, n), non-finite or inconsistent
    weights and distances).
    """
    with open(path) as fh:
        header = fh.readline().split()
        try:
            if len(header) != 4:
                raise ValueError
            n, dim = int(header[0]), int(header[1])
            eps, sigma = float(header[2]), float(header[3])
        except ValueError:
            raise ValidationError(f"{path}: malformed graph header, expected 'n d eps sigma'") from None
        if n < 1 or dim < 1 or not (0 < eps < np.inf and 0 < sigma < np.inf):
            raise ValidationError(f"{path}: graph header needs n, d >= 1 and positive finite eps, sigma")
        try:
            with warnings.catch_warnings():
                # A header-only file is a valid graph without edges.
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                rows = np.loadtxt(fh, dtype=_EDGE_ROW, comments=None, ndmin=1)
        except ValueError as exc:
            raise ValidationError(f"{path}: malformed edge row: {exc}") from None
    graph = SparseGraph(
        n=n, dim=dim, eps=eps, sigma=sigma,
        ii=rows["i"], jj=rows["j"], weights=rows["w"], distances=rows["r"],
    )
    graph.validate()
    return graph
