"""IRLS minimization of the graph Mumford-Shah objective.

Alternates the closed-form edge-weight update z_ij = zeta'(|u_i - u_j|^2 / eps)
with a solve of (I + (2/(lam eps^2 n)) L_zw) u = f, where L_zw is the graph
Laplacian with edge weights z_ij * w_ij.  A plain run's solve starts with
Jacobi-preconditioned conjugate gradients; a system CG does not solve within
CG_BUDGET iterations is factored once by sparse LU and solved directly, and
so is every later system of the run.  An Anderson-accelerated run (below)
factors every system, its first one included.  The factorizations use
SuperLU's supernodal LU (Demmel, Eisenstat, Gilbert, Li & Liu 1999) with
SUPERLU_PANEL_SIZE and SUPERLU_RELAX in place of its defaults.

Each IRLS step is only a majorizer step, so from the second iteration on an
unfactored solve is inexact: Jacobi CG is asked for a relative tolerance of
forcing_tol(cg_tol, d), FORCING_FACTOR times the last relative energy decrease
d, capped at FORCING_CAP and floored at cg_tol (forcing terms after Eisenstat
& Walker 1996).  At n=10k, ms λ=162, seeds 0-4 this cuts the Jacobi CG
iterations of a run from 1,007-1,477 to 275-438 with the same IRLS
iterations and energies within 1.2e-7 relative.  The first solve and every
factored one keep cg_tol.

The sparsity pattern of the system never changes within a run, so
``irls_minimize`` builds it once, in CSC form, and every system is assembled
by placing its values into that pattern.  The first factorization of a run
computes a fill-reducing ordering; the pattern is then rebuilt in that
vertex order, so every later system comes out already permuted and is
factored without recomputing an ordering.

For the tv saturation the sec6 objective is strictly convex, and the IRLS
map u -> solve(A(z(u)), f) is accelerated by safeguarded type-II Anderson
mixing (Walker & Ni 2011) over the last ANDERSON_DEPTH residual differences:
the mixed iterate is taken only where its energy is below the plain IRLS
iterate's, so the energy trace never rises.  The other saturations keep
plain IRLS; a quadratic one has z = 1, so its first solve is the minimizer
and the run stops there.
"""

from __future__ import annotations

import numpy as np

from .core import Solution, SolverConfig, ValidationError, ZetaSpec, zeta_derivative
from .energy import objective_sec6
from .graph import SparseGraph

__all__ = [
    "update_z", "solve_u", "forcing_tol", "irls_minimize", "detect_edges", "system_matrix", "SystemPattern",
    "SolverError",
]

# Jacobi-CG iterations a plain run tries before the system is factored.  At
# n=10k the first factorization of a run, which computes the MMD_AT_PLUS_A
# ordering, costs about 37 ms at SuperLU's default supernode parameters
# (about a quarter less at the ones below) and one CG iteration about
# 0.28 ms, so the budget is the ~130 iterations a factor costs plus slack:
# the ms systems never reach it (52-54 iterations for the first solve of a
# run at λ=162, 6-25 for the later ones at the forcing tolerance; 275-438 a
# run).  The tv systems would pass it (176-704 iterations), so the Anderson
# runs that solve them factor at once.  Later factorizations reuse the
# ordering and cost about 60% of the first.
CG_BUDGET = 150
# SuperLU's supernode parameters (its defaults are 20 and 10).  On the 18 tv
# systems of n=10k, λ=438, seed 0 (15 and 30 interleaved repeats, process
# time, one thread of a shared 2-vCPU Xeon), panel size 1 takes the 17
# reused-ordering factorizations to 0.71-0.77 of the defaults' time and the
# first, MMD, one to 0.72-0.81 (medians of paired ratios), whatever relax in
# {1, 2, 3, 5, 8}; panel sizes 2 and 4 reach 0.76-0.81 and 0.81-0.86.  The
# L+U nonzeros stay 423,904.
SUPERLU_PANEL_SIZE = 1
SUPERLU_RELAX = 5
# Inexact inner solves: from the second IRLS iteration on, Jacobi CG is asked
# for FORCING_FACTOR times the last relative energy decrease, at most
# FORCING_CAP (see forcing_tol).
FORCING_FACTOR = 0.1
FORCING_CAP = 1e-3
# Residual differences mixed by an Anderson step.  At n=10k, tv λ=438, seed 0
# this cuts the IRLS iterations (one factorization each) from 33 to 18.
ANDERSON_DEPTH = 3


class SolverError(RuntimeError):
    """Linear solve failed or the iteration produced non-finite values."""


def forcing_tol(cg_tol: float, decrease: float | None) -> float:
    """Relative tolerance asked of an unfactored inner solve.

    ``decrease`` is the previous IRLS iteration's relative energy decrease,
    None on the first iteration, which gets ``cg_tol``; later ones get
    max(cg_tol, min(FORCING_CAP, FORCING_FACTOR * decrease)).
    """
    if decrease is None:
        return cg_tol
    return max(cg_tol, min(FORCING_CAP, FORCING_FACTOR * decrease))


def update_z(graph: SparseGraph, u, spec: ZetaSpec) -> np.ndarray:
    """Optimal per-edge weights z_ij = zeta'(|u_i - u_j|^2 / eps), eps the graph's.

    An argument that overflows to inf gets zeta'(inf): 1 for the quadratic zeta, 0 for the others.
    """
    u = graph.vertex_array(u, "u")
    du = u[graph.ii] - u[graph.jj]
    with np.errstate(over="ignore"):
        return np.asarray(zeta_derivative(spec, du**2 / graph.eps))


class SystemPattern:
    """CSC sparsity pattern of the system matrix of one graph.

    The values of a system are the vector [-c zw, -c zw, 1 + c deg]: one
    entry per stored edge (i, j), then per mirrored edge (j, i), then per
    diagonal entry, in graph order.  ``order`` lists, for each CSC data slot,
    the entry of that vector it holds, so a system is assembled by one gather.

    With ``perm`` the pattern is that of the relabelled matrix
    B[perm[i], perm[j]] = A[i, j], i.e. vertex i becomes vertex perm[i].
    SuperLU's ``perm_c`` is such a labelling: B factored in its natural
    order has the fill of A factored with ``perm_c``.
    """

    def __init__(self, graph: SparseGraph, perm: np.ndarray | None = None):
        n = graph.n
        rows = np.concatenate([graph.ii, graph.jj, np.arange(n)])
        cols = np.concatenate([graph.jj, graph.ii, np.arange(n)])
        if perm is not None:
            rows, cols = perm[rows], perm[cols]
        index = np.int32 if rows.size < 2**31 else np.int64
        self.perm = perm
        # Edges are unique with i < j, so every key col * n + row is distinct.
        self.order = np.argsort(cols.astype(np.int64) * n + rows)
        self.indices = rows[self.order].astype(index)
        self.indptr = np.zeros(n + 1, dtype=index)
        np.cumsum(np.bincount(cols, minlength=n), out=self.indptr[1:])


def _system_constant(graph: SparseGraph, lam: float) -> float:
    """c = 2/(lam eps^2 n), the factor of the Laplacian in every system, with the graph's eps and n.

    Raises ValidationError naming lambda when c is not finite.
    """
    scale = lam * graph.eps**2 * graph.n
    if not (scale > 0 and 2.0 / scale < np.inf):
        raise ValidationError(f"lambda={lam:g} is too small: the system constant 2/(lambda eps^2 n) is not finite")
    return 2.0 / scale


def system_matrix(graph: SparseGraph, z, lam: float, *, pattern: SystemPattern | None = None):
    """I + (2/(lam eps^2 n)) L_zw as a scipy.sparse CSC matrix, eps the graph's.

    Built on ``pattern`` if given (a new unpermuted one otherwise), so the
    rows and columns come in that pattern's vertex order.
    """
    # Imported here and in solve_u, not at module level, so that a gms start
    # that solves no system does not load scipy.sparse.
    import scipy.sparse as sp

    z = np.asarray(z, dtype=float)
    if z.shape != (graph.n_edges,):
        raise ValidationError("z must have one entry per stored edge")
    if np.any(z < 0):
        raise ValidationError("z must be nonnegative")
    if pattern is None:
        pattern = SystemPattern(graph)
    n = graph.n
    c = _system_constant(graph, lam)
    zw = z * graph.weights
    # Each degree is summed over the edges' i ends, then their j ends, in edge
    # order: a fixed summation order, so reruns are bit-identical.
    deg = np.bincount(
        np.concatenate([graph.ii, graph.jj]), weights=np.concatenate([zw, zw]), minlength=n
    )
    vals = np.concatenate([-c * zw, -c * zw, 1.0 + c * deg])
    return sp.csc_matrix((vals[pattern.order], pattern.indices, pattern.indptr), shape=(n, n))


def solve_u(
    graph: SparseGraph,
    f,
    z,
    lam: float,
    *,
    cg_tol: float = 1e-8,
    x0=None,
    stats: dict | None = None,
    pattern: SystemPattern | None = None,
    cg_rtol: float | None = None,
    factor: bool = False,
) -> np.ndarray:
    """Solve (I + (2/(lam eps^2 n)) L_zw) u = f, eps the graph's.

    A is assembled on ``pattern`` (see :class:`SystemPattern`).  On an
    unpermuted pattern, CG with a Jacobi preconditioner runs first, from
    ``x0``, for up to CG_BUDGET iterations; a system it does not solve to
    ``cg_rtol`` (default ``cg_tol``) is factored by sparse LU with the
    MMD_AT_PLUS_A ordering and solved directly.  With ``factor`` set, A is
    factored at once without trying CG.  A permuted pattern is already
    in a fill-reducing order, which only an earlier factorization produces, so
    A is factored at once in its natural order.  ``f``, ``x0`` and the
    returned u are in graph order.  A relative residual above 10 times the
    tolerance the solve was asked for, ``cg_rtol`` for CG and ``cg_tol`` for a
    factored solve, raises :class:`SolverError`, and so does a factorization
    that SuperLU rejects (an exactly singular factor).

    When ``stats`` is given, the Jacobi CG iterations are stored under
    ``stats["cg_iters"]`` and whether A was factored under ``stats["factored"]``.
    A factored solve adds ``stats["factor_nnz"]``, the nonzeros of L and U,
    and, if it computed an ordering, ``stats["perm_c"]``.
    """
    import scipy.sparse.linalg as spla

    f = graph.vertex_array(f, "f")
    if stats is not None:
        stats["cg_iters"] = 0
        stats["factored"] = False
    if graph.n_edges == 0 or not np.any(np.asarray(z)):
        return f.copy()
    if pattern is None:
        pattern = SystemPattern(graph)
    A = system_matrix(graph, z, lam, pattern=pattern)
    if cg_rtol is None:
        cg_rtol = cg_tol
    count = [0]
    if pattern.perm is None:
        b = f
        if not factor:

            def _tick(_):
                count[0] += 1

            inv_diag = 1.0 / A.diagonal()
            M = spla.LinearOperator(A.shape, matvec=lambda r: inv_diag * r, dtype=float)
            u, info = spla.cg(A, b, x0=x0, rtol=cg_rtol, atol=0.0, maxiter=CG_BUDGET, M=M, callback=_tick)
            factor = info != 0
    else:
        b = np.empty_like(f)
        b[pattern.perm] = f
        factor = True
    if factor:
        ordering = "MMD_AT_PLUS_A" if pattern.perm is None else "NATURAL"
        try:
            lu = spla.splu(
                A, permc_spec=ordering, diag_pivot_thresh=0.0, relax=SUPERLU_RELAX,
                panel_size=SUPERLU_PANEL_SIZE, options={"SymmetricMode": True},
            )
        except RuntimeError as exc:  # an exactly singular factor
            raise SolverError(f"sparse LU factorization failed: {exc}") from None
        u = lu.solve(b)
    if stats is not None:
        stats["cg_iters"] = count[0]
        stats["factored"] = factor
        if factor:
            stats["factor_nnz"] = int(lu.nnz)
            if pattern.perm is None:
                # A copy: ``lu.perm_c`` is a view that would keep the factor alive.
                stats["perm_c"] = lu.perm_c.copy()
    tol = cg_tol if factor else cg_rtol
    residual = np.linalg.norm(A @ u - b) / np.linalg.norm(b)
    if residual > tol * 10:
        raise SolverError(f"solve did not reach tolerance {tol:g} (relative residual {residual:.3e})")
    return u if pattern.perm is None else u[pattern.perm]


def _anderson_step(history: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray | None:
    """Type-II Anderson candidate from the plain iterates and residuals (g_k, r_k), oldest first.

    With dg_j, dr_j the differences of consecutive entries and (g, r) the
    last one, the candidate is g - sum_j gamma_j dg_j, where gamma minimizes
    |r - sum_j gamma_j dr_j| through its normal equations.  The Gram entries
    are elementwise products summed by ``np.sum``, whose order does not
    depend on the thread count (BLAS dot products and gemv may), so reruns
    are bit-identical.  Returns None when the Gram system is singular or
    gamma or the candidate is not finite.
    """
    g, r = history[-1]
    steps = list(zip(history, history[1:]))
    dg = [new[0] - old[0] for old, new in steps]
    dr = [new[1] - old[1] for old, new in steps]
    m = len(dr)
    gram = np.empty((m, m))
    rhs = np.empty(m)
    for a in range(m):
        rhs[a] = np.sum(dr[a] * r)
        for b in range(a, m):
            gram[a, b] = gram[b, a] = np.sum(dr[a] * dr[b])
    try:
        gamma = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(gamma)):
        return None
    u = g.copy()
    for gamma_j, dg_j in zip(gamma.tolist(), dg):
        u -= gamma_j * dg_j
    return u if np.all(np.isfinite(u)) else None


def irls_minimize(
    graph: SparseGraph, f, spec: ZetaSpec, config: SolverConfig, stats: dict | None = None
) -> Solution:
    """Alternating z / u minimization starting from u = f.

    Stops when the relative decrease of the sec6 total energy drops below
    config.irls_tol, or after config.irls_max_iter iterations; a quadratic
    saturation stops after its first, exact, solve.  A run that stops on a
    rise in energy reports ``converged=False``.  From the second
    iteration on, an unfactored solve is asked for :func:`forcing_tol` of the
    last relative decrease; each trace entry records the tolerance its solve
    was asked for as ``cg_tol`` (None at iteration 0).  On tv_smoothed every
    system is factored, and each plain iterate g = solve(A(z(u)), f) is
    replaced by its Anderson mix when that has lower energy (see
    :func:`_anderson_step`); the trace and the stop rule use the iterate kept.

    eps comes from the graph, as in every function on a graph: the
    ``eps``, ``sigma``, ``k_max`` and ``cutoff_multiplier`` of ``config`` are
    there to build the graph, and the solver reads the rest.

    When ``stats`` is given it receives ``irls_iters``, ``cg_iters`` (summed
    over the run), ``factorizations``, ``orderings`` (fill-reducing orderings
    computed, at most one), ``factor_nnz`` (nonzeros of L and U of the last
    factor, 0 if none) and ``accelerated`` (Anderson iterates kept).
    """
    f = graph.vertex_array(f, "f")
    # the first energy divides by lam eps n as well, so lambda is checked first
    _system_constant(graph, config.lam)
    u = f.copy()
    trace: list[dict] = []
    e0 = objective_sec6(graph, u, f, spec, config.lam)
    trace.append({
        "iter": 0, "fidelity": e0.fidelity, "regularizer": e0.regularizer, "total": e0.total,
        "cg_iters": 0, "cg_tol": None,
    })
    prev_total = e0.total
    decrease = None
    converged = False
    pattern = SystemPattern(graph)
    run = {"cg_iters": 0, "factorizations": 0, "orderings": 0, "factor_nnz": 0, "accelerated": 0}
    accelerate = spec.kind == "tv_smoothed"
    history: list[tuple[np.ndarray, np.ndarray]] = []  # the last plain (g, r) pairs
    it = 0
    for it in range(1, config.irls_max_iter + 1):
        z = update_z(graph, u, spec)
        solve: dict = {}
        # Anderson mixes the differences g - u of exact solves, and its tv
        # systems are stiff (at n=10k, λ=438 Jacobi CG needs 176 iterations
        # for the first, more than CG_BUDGET), so an accelerated run factors
        # each system at once.
        cg_rtol = forcing_tol(config.cg_tol, decrease)
        g = solve_u(
            graph, f, z, config.lam,
            cg_tol=config.cg_tol, x0=u, stats=solve, pattern=pattern, cg_rtol=cg_rtol, factor=accelerate,
        )
        run["cg_iters"] += solve["cg_iters"]
        if solve["factored"]:
            run["factorizations"] += 1
            run["factor_nnz"] = solve["factor_nnz"]
        if "perm_c" in solve:
            # The systems of a run grow stiffer as z sharpens (tv at n=10k: 176
            # Jacobi CG iterations for the first, 580-704 from the fifth on), so
            # every later system is assembled in the first factor's order and
            # factored without trying CG first.
            run["orderings"] += 1
            pattern = SystemPattern(graph, perm=solve["perm_c"])
        if not np.all(np.isfinite(g)):
            raise SolverError(f"non-finite iterate at IRLS iteration {it}")
        e = objective_sec6(graph, g, f, spec, config.lam)
        if accelerate:
            history = [*history[-ANDERSON_DEPTH:], (g, g - u)]
        u = g
        mixed = _anderson_step(history) if len(history) > 1 else None
        if mixed is not None:
            e_mixed = objective_sec6(graph, mixed, f, spec, config.lam)
            if e_mixed.total < e.total:
                u, e = mixed, e_mixed
                run["accelerated"] += 1
        trace.append({
            "iter": it,
            "fidelity": e.fidelity,
            "regularizer": e.regularizer,
            "total": e.total,
            "cg_iters": solve["cg_iters"],
            "cg_tol": config.cg_tol if solve["factored"] else cg_rtol,
        })
        decrease = (prev_total - e.total) / max(abs(prev_total), 1e-300)
        if spec.kind == "quadratic" or decrease < config.irls_tol:
            converged = spec.kind == "quadratic" or decrease >= 0
            break
        prev_total = e.total
    if stats is not None:
        stats.update(run, irls_iters=it)
    return Solution(u=u, energy_trace=trace, iterations=it, converged=converged)


def detect_edges(graph: SparseGraph, u, jump_threshold: float) -> list[tuple[int, int]]:
    """Sorted (i, j) list of edges whose endpoint values differ by more than the threshold."""
    if not jump_threshold >= 0:
        raise ValidationError("jump_threshold must be nonnegative")
    u = graph.vertex_array(u, "u")
    if graph.n_edges == 0:
        return []
    mask = np.abs(u[graph.ii] - u[graph.jj]) > jump_threshold
    # the graph keeps its edges sorted by (i, j), so the flagged ones come sorted
    return list(zip(graph.ii[mask].tolist(), graph.jj[mask].tolist()))
