"""IRLS minimization of the graph Mumford-Shah objective.

Alternates the closed-form edge-weight update z_ij = zeta'(|u_i - u_j|^2 / eps)
with a conjugate-gradient solve of (I + (2/(lam eps^2 n)) L_zw) u = f, where
L_zw is the graph Laplacian with edge weights z_ij * w_ij.  CG starts with a
Jacobi preconditioner; a system it does not solve within CG_BUDGET iterations
is factored once and CG continues with the factor as preconditioner.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .core import Solution, SolverConfig, ValidationError, ZetaSpec, zeta_derivative
from .energy import objective_sec6
from .graph import SparseGraph

__all__ = ["update_z", "solve_u", "irls_minimize", "detect_edges", "system_matrix", "SolverError"]

# Jacobi-CG iterations tried before the system is factored.  At n=10k one
# MMD_AT_PLUS_A factorization costs about 37 ms and one CG iteration about
# 0.28 ms, so the budget is the ~130 iterations a factor costs plus slack:
# the ms systems (41-68 iterations) never reach it and the tv systems
# (176-704) pass it.
CG_BUDGET = 150


class SolverError(RuntimeError):
    """Linear solve failed or the iteration produced non-finite values."""


def update_z(graph: SparseGraph, u, spec: ZetaSpec, eps: float) -> np.ndarray:
    """Optimal per-edge weights z_ij = zeta'(|u_i - u_j|^2 / eps)."""
    u = np.asarray(u, dtype=float)
    if u.shape != (graph.n,):
        raise ValidationError(f"u must have length {graph.n}")
    du = u[graph.ii] - u[graph.jj]
    return np.asarray(zeta_derivative(spec, du**2 / eps))


def system_matrix(graph: SparseGraph, z, lam: float, eps: float) -> sp.csr_matrix:
    """I + (2/(lam eps^2 n)) L_zw as a sparse CSR matrix."""
    z = np.asarray(z, dtype=float)
    if z.shape != (graph.n_edges,):
        raise ValidationError("z must have one entry per stored edge")
    if np.any(z < 0):
        raise ValidationError("z must be nonnegative")
    n = graph.n
    c = 2.0 / (lam * eps**2 * n)
    zw = z * graph.weights
    deg = np.zeros(n)
    np.add.at(deg, graph.ii, zw)
    np.add.at(deg, graph.jj, zw)
    rows = np.concatenate([graph.ii, graph.jj, np.arange(n)])
    cols = np.concatenate([graph.jj, graph.ii, np.arange(n)])
    vals = np.concatenate([-c * zw, -c * zw, 1.0 + c * deg])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def solve_u(
    graph: SparseGraph,
    f,
    z,
    lam: float,
    eps: float,
    cg_tol: float = 1e-8,
    cg_max_iter: int = 0,
    x0=None,
    stats: dict | None = None,
    factor: bool = False,
) -> np.ndarray:
    """CG solve of (I + (2/(lam eps^2 n)) L_zw) u = f.

    CG first runs with a Jacobi preconditioner for up to CG_BUDGET
    iterations.  If that does not reach ``cg_tol``, or if ``factor`` is set,
    A is factored by sparse LU and CG continues from the current iterate with
    the factor as preconditioner.  ``cg_max_iter`` (0 means 10 n) caps the
    iterations of both phases together.

    When ``stats`` is given, the CG iterations of both phases are stored under
    ``stats["cg_iters"]`` and whether A was factored under ``stats["factored"]``.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (graph.n,):
        raise ValidationError(f"f must have length {graph.n}")
    if stats is not None:
        stats["cg_iters"] = 0
        stats["factored"] = False
    if graph.n_edges == 0 or not np.any(np.asarray(z)):
        return f.copy()
    A = system_matrix(graph, z, lam, eps)
    maxiter = cg_max_iter if cg_max_iter > 0 else 10 * graph.n
    count = [0]

    def _tick(_):
        count[0] += 1

    u = x0
    if not factor:
        M = sp.diags(1.0 / A.diagonal())
        u, info = spla.cg(
            A, f, x0=u, rtol=cg_tol, atol=0.0, maxiter=min(CG_BUDGET, maxiter), M=M, callback=_tick
        )
        # Once the cap is used up there is nothing left to spend on a factor.
        factor = info != 0 and count[0] < maxiter
    if factor:
        lu = spla.splu(
            A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True}
        )
        M = spla.LinearOperator(A.shape, matvec=lu.solve)
        u, info = spla.cg(
            A, f, x0=u, rtol=cg_tol, atol=0.0, maxiter=maxiter - count[0], M=M, callback=_tick
        )
    if stats is not None:
        stats["cg_iters"] = count[0]
        stats["factored"] = factor
    residual = np.linalg.norm(A @ u - f) / np.linalg.norm(f)
    if info != 0 or residual > cg_tol * 10:
        raise SolverError(
            f"conjugate gradient did not reach tolerance {cg_tol:g} "
            f"within {maxiter} iterations (relative residual {residual:.3e})"
        )
    return u


def irls_minimize(graph: SparseGraph, f, spec: ZetaSpec, config: SolverConfig) -> Solution:
    """Alternating z / u minimization starting from u = f.

    Stops when the relative decrease of the sec6 total energy drops below
    config.irls_tol, or after config.irls_max_iter iterations.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (graph.n,):
        raise ValidationError(f"f must have length {graph.n}")
    u = f.copy()
    trace: list[dict] = []
    e0 = objective_sec6(graph, u, f, spec, config.lam, config.eps)
    trace.append(
        {"iter": 0, "fidelity": e0.fidelity, "regularizer": e0.regularizer, "total": e0.total, "cg_iters": 0}
    )
    prev_total = e0.total
    converged = False
    # The systems of a run grow stiffer as z sharpens (tv at n=10k: 176 Jacobi
    # CG iterations for the first, 580-704 from the fifth on), so once one has
    # needed the factor, the later ones are factored without trying CG first.
    factor = False
    it = 0
    for it in range(1, config.irls_max_iter + 1):
        z = update_z(graph, u, spec, config.eps)
        stats: dict = {}
        u = solve_u(
            graph, f, z, config.lam, config.eps,
            cg_tol=config.cg_tol, cg_max_iter=config.cg_max_iter, x0=u, stats=stats, factor=factor,
        )
        factor = factor or stats["factored"]
        if not np.all(np.isfinite(u)):
            raise SolverError(f"non-finite iterate at IRLS iteration {it}")
        e = objective_sec6(graph, u, f, spec, config.lam, config.eps)
        trace.append({
            "iter": it,
            "fidelity": e.fidelity,
            "regularizer": e.regularizer,
            "total": e.total,
            "cg_iters": stats.get("cg_iters", 0),
        })
        denom = max(abs(prev_total), 1e-300)
        if (prev_total - e.total) / denom < config.irls_tol:
            converged = True
            prev_total = e.total
            break
        prev_total = e.total
    return Solution(u=u, energy_trace=trace, iterations=it, converged=converged)


def detect_edges(graph: SparseGraph, u, jump_threshold: float) -> list[tuple[int, int]]:
    """Sorted (i, j) list of edges whose endpoint values differ by more than the threshold."""
    if jump_threshold < 0:
        raise ValidationError("jump_threshold must be nonnegative")
    u = np.asarray(u, dtype=float)
    if u.shape != (graph.n,):
        raise ValidationError(f"u must have length {graph.n}")
    if graph.n_edges == 0:
        return []
    mask = np.abs(u[graph.ii] - u[graph.jj]) > jump_threshold
    return sorted(zip(graph.ii[mask].tolist(), graph.jj[mask].tolist()))
