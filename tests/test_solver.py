import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from gms.core import PointCloud, SolverConfig, ValidationError, ZetaSpec
from gms.datasets import generate_synthetic
from gms.energy import gms_energy, objective_sec1, objective_sec6
from gms.graph import brute_force_graph, build_geometric_graph
import gms.solver
from gms.solver import (
    CG_BUDGET,
    _anderson_step,
    SolverError,
    SystemPattern,
    detect_edges,
    forcing_tol,
    irls_minimize,
    solve_u,
    system_matrix,
    update_z,
)

from conftest import random_cloud, small_config


def surrogate_value(graph, v, f, z, spec, lam, eps, t_anchor):
    """Half-quadratic objective at fixed z, using the tangent offset at t_anchor.

    Q(v; z) = sum (v - f)^2 + (1/(lam eps n)) sum [z s_v + (zeta(t) - z t)] w
    where s_v is the saturation argument at v and t the anchor's.  Equals the
    true objective at the anchor and dominates it elsewhere by concavity.
    """
    dv = v[graph.ii] - v[graph.jj]
    s = dv**2 / eps
    from gms.core import zeta_value

    offset = zeta_value(spec, t_anchor) - z * t_anchor
    reg = 2.0 * np.sum((z * s + offset) * graph.weights) / (lam * eps * graph.n)
    return float(np.sum((v - f) ** 2) + reg)


class TestUpdateZ:
    def test_constant_u_ms(self, rng, ms_spec):
        g = brute_force_graph(random_cloud(rng, 30), small_config(eps=0.3))
        z = update_z(g, np.full(30, 2.0), ms_spec)
        assert np.all(z == 1.0)

    def test_quadratic_always_one(self, rng, quad_spec):
        g = brute_force_graph(random_cloud(rng, 30), small_config(eps=0.3))
        z = update_z(g, rng.random(30), quad_spec)
        assert np.all(z == 1.0)

    def test_half_value(self, ms_spec):
        # (u_i - u_j)^2 / eps = 2/pi  =>  z = 1/(1 + pi^2 (2/pi)^2 / 4) = 1/2
        eps = 0.5
        du = np.sqrt(2.0 * eps / np.pi)
        pts = np.array([[0.0, 0.0], [0.1, 0.0]])
        g = brute_force_graph(PointCloud(points=pts), small_config(eps=eps))
        z = update_z(g, np.array([0.0, du]), ms_spec)
        assert z[0] == pytest.approx(0.5, rel=1e-14)

    def test_ms_range(self, rng, ms_spec):
        g = brute_force_graph(random_cloud(rng, 50), small_config(eps=0.3))
        z = update_z(g, rng.random(50) * 10, ms_spec)
        assert np.all((z > 0) & (z <= 1))


class TestSystemMatrix:
    def test_symmetric_positive_definite(self, rng):
        n = 60
        g = brute_force_graph(random_cloud(rng, n), small_config(eps=0.3))
        z = rng.random(g.n_edges)
        A = system_matrix(g, z, lam=2.0)
        dense = A.toarray()
        assert np.allclose(dense, dense.T, rtol=1e-10)
        for _ in range(5):
            v = rng.standard_normal(n)
            assert v @ (A @ v) >= v @ v - 1e-10 * (v @ v)

    def test_negative_z_rejected(self, rng):
        g = brute_force_graph(random_cloud(rng, 10), small_config(eps=0.3))
        z = -np.ones(g.n_edges)
        with pytest.raises(ValidationError):
            system_matrix(g, z, 1.0)


def reference_matrix(graph, z, lam, eps):
    """The system matrix assembled from COO triplets, degrees by np.add.at."""
    n = graph.n
    c = 2.0 / (lam * eps**2 * n)
    zw = z * graph.weights
    deg = np.zeros(n)
    np.add.at(deg, graph.ii, zw)
    np.add.at(deg, graph.jj, zw)
    rows = np.concatenate([graph.ii, graph.jj, np.arange(n)])
    cols = np.concatenate([graph.jj, graph.ii, np.arange(n)])
    vals = np.concatenate([-c * zw, -c * zw, 1.0 + c * deg])
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n))


def assert_same_csc(actual, expected):
    expected = expected.tocsc()
    expected.sort_indices()
    assert actual.format == "csc"
    assert np.array_equal(actual.indptr, expected.indptr)
    assert np.array_equal(actual.indices, expected.indices)
    assert actual.data.tobytes() == expected.data.tobytes()


class TestSystemPattern:
    def test_identity_pattern_matches_reference(self, rng):
        g = brute_force_graph(random_cloud(rng, 80), small_config(eps=0.3))
        z = rng.random(g.n_edges)
        assert_same_csc(system_matrix(g, z, 2.0), reference_matrix(g, z, 2.0, 0.3))
        pattern = SystemPattern(g)
        assert pattern.perm is None
        assert_same_csc(system_matrix(g, z, 2.0, pattern=pattern), reference_matrix(g, z, 2.0, 0.3))

    def test_permuted_pattern_is_p_a_pt(self, rng):
        n = 80
        g = brute_force_graph(random_cloud(rng, n), small_config(eps=0.3))
        z = rng.random(g.n_edges)
        perm = rng.permutation(n)
        # P e_i = e_perm[i], so (P A P^T)[perm[i], perm[j]] = A[i, j]
        P = sp.csr_matrix((np.ones(n), (perm, np.arange(n))), shape=(n, n))
        expected = P @ reference_matrix(g, z, 2.0, 0.3).tocsr() @ P.T
        B = system_matrix(g, z, 2.0, pattern=SystemPattern(g, perm=perm))
        assert_same_csc(B, expected)

    def test_factored_solve_through_permuted_pattern(self, rng):
        graph, f, spec, config = stiff_tv_case()
        z = update_z(graph, f, spec)
        direct = spla.spsolve(system_matrix(graph, z, 5.0), f)
        first = {}
        solve_u(graph, f, z, 5.0, stats=first)
        assert first["factored"] and first["perm_c"].base is None  # holds no reference to the factor
        for perm in (first["perm_c"], rng.permutation(graph.n)):
            stats = {}
            u = solve_u(
                graph, f, z, 5.0, cg_tol=1e-10, stats=stats,
                pattern=SystemPattern(graph, perm=perm),
            )
            assert stats["factored"] and stats["cg_iters"] == 0 and "perm_c" not in stats
            assert np.linalg.norm(u - direct) <= 1e-10 * np.linalg.norm(direct)
        assert stats["factor_nnz"] > first["factor_nnz"]  # a random order fills in more


class TestSolveU:
    def test_empty_graph_identity(self, rng):
        g = build_geometric_graph(PointCloud(points=[[0.0, 0.0]]), small_config())
        f = np.array([0.7])
        assert solve_u(g, f, np.zeros(0), 1.0)[0] == 0.7

    def test_zero_z_identity(self, rng):
        n = 40
        g = brute_force_graph(random_cloud(rng, n), small_config(eps=0.3))
        f = rng.random(n)
        assert np.array_equal(solve_u(g, f, np.zeros(g.n_edges), 1.0), f)

    def test_two_node_closed_form(self):
        # single edge: A = [[1+c w z, -c w z], [-c w z, 1+c w z]], c = 2/(lam eps^2 n)
        lam, eps = 1.5, 0.2
        pts = np.array([[0.0, 0.0], [0.1, 0.0]])
        g = brute_force_graph(PointCloud(points=pts), small_config(eps=eps))
        z = np.array([0.8])
        f = np.array([1.0, -2.0])
        c = 2.0 / (lam * eps**2 * 2)
        a = c * g.weights[0] * z[0]
        A = np.array([[1 + a, -a], [-a, 1 + a]])
        expected = np.linalg.solve(A, f)
        u = solve_u(g, f, z, lam, cg_tol=1e-12)
        assert np.allclose(u, expected, atol=1e-10)

    def test_nonconvergence_raises(self, rng):
        n = 40
        g = brute_force_graph(random_cloud(rng, n), small_config(eps=0.3))
        f = rng.random(n)
        stats = {}
        # Jacobi CG's recursive residual meets the tolerance; the true one does not.
        with pytest.raises(SolverError):
            solve_u(g, f, np.ones(g.n_edges), 1000.0, cg_tol=1e-300, stats=stats)
        assert not stats["factored"]
        # The budget runs out, and the factored solve cannot meet it either.
        graph, f, spec, config = stiff_tv_case()
        z = update_z(graph, f, spec)
        with pytest.raises(SolverError):
            solve_u(graph, f, z, 5.0, cg_tol=1e-300, stats=stats)
        assert stats["cg_iters"] == CG_BUDGET and stats["factored"]

    def test_cg_iter_stats(self, rng):
        n = 40
        g = brute_force_graph(random_cloud(rng, n), small_config(eps=0.3))
        stats = {}
        solve_u(g, rng.random(n), np.ones(g.n_edges), 2.0, stats=stats)
        assert stats["cg_iters"] >= 1


def stiff_tv_case():
    """tv denoising case (n=1000, λ=50) whose Jacobi CG outruns CG_BUDGET from the second system on.

    The first system takes 130 iterations; at λ=5 it outruns the budget too.
    """
    case = generate_synthetic(1000, seed=0)
    config = SolverConfig(lam=50.0, eps=0.07, sigma=5.0, k_max=8, irls_tol=1e-5)
    graph = build_geometric_graph(case.cloud, config)
    return graph, case.cloud.labels, ZetaSpec("tv_smoothed", delta=0.001), config


class TestFactoredSolve:
    @pytest.fixture
    def stiff_system(self):
        graph, f, spec, config = stiff_tv_case()
        z = update_z(graph, f, spec)
        return graph, f, z, 5.0

    def test_matches_direct_solve(self, stiff_system):
        graph, f, z, lam = stiff_system
        stats = {}
        u = solve_u(graph, f, z, lam, cg_tol=1e-10, stats=stats)
        assert stats["factored"]
        direct = spla.spsolve(system_matrix(graph, z, lam).tocsc(), f)
        assert np.linalg.norm(u - direct) <= 1e-10 * np.linalg.norm(direct)

    def test_cg_iters_count_jacobi_only(self, stiff_system):
        graph, f, z, lam = stiff_system
        stats = {}
        solve_u(graph, f, z, lam, stats=stats)
        assert stats["factored"] and stats["cg_iters"] == CG_BUDGET
        permuted = {}
        solve_u(graph, f, z, lam, stats=permuted, pattern=SystemPattern(graph, perm=stats["perm_c"]))
        assert permuted["factored"] and permuted["cg_iters"] == 0

    def test_irls_reruns_bit_identical(self):
        graph, f, spec, config = stiff_tv_case()
        stats = {}
        a = irls_minimize(graph, f, spec, config, stats=stats)
        b = irls_minimize(graph, f, spec, config)
        assert a.u.tobytes() == b.u.tobytes()
        assert a.energy_trace == b.energy_trace
        # the accelerated (tv) run factors every system, its first one included
        assert a.iterations > 2 and stats["factorizations"] == stats["irls_iters"] == a.iterations
        assert all(entry["cg_iters"] == 0 and entry["cg_tol"] == config.cg_tol for entry in a.energy_trace[1:])

    def test_tuned_factor_same_fill_and_solution(self, stiff_system):
        graph, f, z, lam = stiff_system
        stats = {}
        u = solve_u(graph, f, z, lam, cg_tol=1e-10, stats=stats, factor=True)
        assert stats["factored"] and stats["cg_iters"] == 0
        A = system_matrix(graph, z, lam)
        default = spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        assert stats["factor_nnz"] == default.nnz
        direct = spla.spsolve(A, f)
        assert np.linalg.norm(u - direct) <= 1e-10 * np.linalg.norm(direct)

    def test_rejected_factorization_is_a_solver_error(self, stiff_system, monkeypatch):
        def singular(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(spla, "splu", singular)
        graph, f, z, lam = stiff_system
        with pytest.raises(SolverError, match="Factor is exactly singular"):
            solve_u(graph, f, z, lam, factor=True)


class TestSystemConstant:
    """A lambda whose system constant 2/(lambda eps^2 n) is not finite is an input error."""

    @pytest.mark.parametrize("lam", [1e-310, 1e-320, 5e-324])
    def test_rejected_before_any_solve(self, rng, lam):
        g = brute_force_graph(random_cloud(rng, 10), small_config(eps=0.3))
        f = rng.random(10)
        with pytest.raises(ValidationError, match="lambda=.* is too small"):
            system_matrix(g, np.ones(g.n_edges), lam)
        with pytest.raises(ValidationError, match="lambda=.* is too small"):
            irls_minimize(g, f, ZetaSpec("ms_arctan"), small_config(lam=lam, eps=0.3))

    def test_smallest_finite_constant_accepted(self, rng):
        g = brute_force_graph(random_cloud(rng, 10), small_config(eps=0.3))
        assert system_matrix(g, np.zeros(g.n_edges), 1e-300).shape == (10, 10)


class TestOneOrderingPerRun:
    def test_one_mmd_ordering_then_natural(self, monkeypatch):
        graph, f, spec, config = stiff_tv_case()
        calls = []
        splu = spla.splu

        def recording_splu(A, permc_spec=None, **kwargs):
            lu = splu(A, permc_spec=permc_spec, **kwargs)
            calls.append((permc_spec, lu.nnz))
            return lu

        monkeypatch.setattr(spla, "splu", recording_splu)
        stats = {}
        sol = irls_minimize(graph, f, spec, config, stats=stats)
        orderings = [spec_ for spec_, _ in calls]
        assert len(calls) >= 2
        assert orderings == ["MMD_AT_PLUS_A"] + ["NATURAL"] * (len(calls) - 1)
        assert len({nnz for _, nnz in calls}) == 1
        assert stats == {
            "irls_iters": sol.iterations,
            "cg_iters": sum(entry["cg_iters"] for entry in sol.energy_trace),
            "factorizations": len(calls),
            "orderings": 1,
            "factor_nnz": calls[-1][1],
            "accelerated": stats["accelerated"],
        }
        assert stats["accelerated"] > 0

        calls.clear()
        irls_minimize(graph, f, spec, config)
        assert [spec_ for spec_, _ in calls].count("MMD_AT_PLUS_A") == 1

    def test_ms_run_never_factors(self, rng, ms_spec):
        n = 60
        g = brute_force_graph(random_cloud(rng, n), small_config(eps=0.3))
        stats = {}
        irls_minimize(g, rng.random(n), ms_spec, small_config(eps=0.3), stats=stats)
        assert stats["factorizations"] == 0 and stats["orderings"] == 0
        assert stats["factor_nnz"] == 0 and stats["cg_iters"] > 0


class TestIrls:
    def test_constant_f_immediate(self, rng, ms_spec):
        n = 30
        g = brute_force_graph(random_cloud(rng, n), small_config(eps=0.3))
        sol = irls_minimize(g, np.full(n, 0.4), ms_spec, small_config(eps=0.3))
        assert sol.converged and sol.iterations == 1
        assert sol.energy_trace[-1]["total"] == pytest.approx(0.0, abs=1e-20)
        assert np.allclose(sol.u, 0.4)

    def test_quadratic_one_step_optimal(self, rng, quad_spec):
        n = 80
        g = brute_force_graph(random_cloud(rng, n), small_config(eps=0.3))
        f = rng.random(n)
        config = small_config(eps=0.3, irls_tol=1e-14, cg_tol=1e-12)
        sol = irls_minimize(g, f, quad_spec, config)
        # z is constant for the quadratic saturation, so iteration 1 already
        # solves the problem and the run stops there
        assert sol.converged and sol.iterations == 1 and len(sol.energy_trace) == 2
        z = np.ones(g.n_edges)
        A = system_matrix(g, z, config.lam).toarray()
        np.testing.assert_allclose(sol.u, np.linalg.solve(A, f), rtol=1e-10, atol=1e-12)

    def test_monotone_descent_and_tangency(self, rng):
        specs = [ZetaSpec("ms_arctan"), ZetaSpec("tv_smoothed", delta=0.01), ZetaSpec("quadratic")]
        for trial in range(12):
            n = int(rng.integers(20, 120))
            g = brute_force_graph(random_cloud(rng, n), small_config(eps=0.3))
            f = rng.random(n) * 2
            spec = specs[trial % 3]
            config = small_config(
                lam=float(rng.uniform(0.5, 20)), eps=0.3, irls_tol=1e-10
            )
            sol = irls_minimize(g, f, spec, config)
            totals = [t["total"] for t in sol.energy_trace]
            for a, b in zip(totals, totals[1:]):
                assert b <= a + 1e-10 * max(abs(a), 1.0)
            # surrogate tangency: frozen-z quadratic equals the objective at
            # the current u and dominates it at random perturbations
            u = sol.u
            t_anchor = (u[g.ii] - u[g.jj]) ** 2 / config.eps
            z = update_z(g, u, spec)
            e_true = objective_sec6(g, u, f, spec, config.lam).total
            q_at_u = surrogate_value(g, u, f, z, spec, config.lam, config.eps, t_anchor)
            assert q_at_u == pytest.approx(e_true, rel=1e-10, abs=1e-12)
            for _ in range(5):
                v = u + rng.standard_normal(n) * 0.3
                q_v = surrogate_value(g, v, f, z, spec, config.lam, config.eps, t_anchor)
                e_v = objective_sec6(g, v, f, spec, config.lam).total
                assert q_v >= e_v - 1e-10 * max(abs(e_v), 1.0)

    def test_maximum_principle(self, rng, ms_spec):
        for _ in range(20):
            n = int(rng.integers(10, 100))
            g = brute_force_graph(random_cloud(rng, n), small_config(eps=0.3))
            f = rng.random(n) * 4 - 2
            sol = irls_minimize(g, f, ms_spec, small_config(eps=0.3, lam=float(rng.uniform(0.5, 50))))
            assert np.all(sol.u >= f.min() - 1e-8)
            assert np.all(sol.u <= f.max() + 1e-8)

    def test_scale_coherence_quadratic(self, rng, quad_spec):
        n = 50
        g = brute_force_graph(random_cloud(rng, n), small_config(eps=0.3))
        f = rng.random(n)
        config = small_config(eps=0.3, cg_tol=1e-12, irls_tol=1e-12)
        u1 = irls_minimize(g, f, quad_spec, config).u
        u3 = irls_minimize(g, 3.0 * f, quad_spec, config).u
        assert np.allclose(u3, 3.0 * u1, atol=1e-8)

    def test_rise_in_energy_stops_unconverged(self, rng, ms_spec, monkeypatch):
        n = 60
        g = brute_force_graph(random_cloud(rng, n), small_config(eps=0.3))
        solve, calls = gms.solver.solve_u, []

        def worse_third_iterate(*args, **kwargs):
            calls.append(None)
            u = solve(*args, **kwargs)
            return u + 1.0 if len(calls) == 3 else u

        monkeypatch.setattr(gms.solver, "solve_u", worse_third_iterate)
        f, config = rng.random(n), small_config(eps=0.3, irls_tol=1e-12)
        sol = irls_minimize(g, f, ms_spec, config)
        totals = [t["total"] for t in sol.energy_trace]
        # the run stops at the worse iterate and returns it
        assert sol.iterations == len(calls) == 3 and totals[3] > totals[2] and not sol.converged
        assert totals[3] == objective_sec6(g, sol.u, f, ms_spec, config.lam).total

    def test_trace_schema(self, rng, ms_spec):
        g = brute_force_graph(random_cloud(rng, 30), small_config(eps=0.3))
        sol = irls_minimize(g, rng.random(30), ms_spec, small_config(eps=0.3))
        for k, entry in enumerate(sol.energy_trace):
            assert set(entry) == {"iter", "fidelity", "regularizer", "total", "cg_iters", "cg_tol"}
            assert entry["iter"] == k
        assert sol.energy_trace[0]["cg_tol"] is None and sol.energy_trace[1]["cg_tol"] == 1e-8


def plain_irls(graph, f, spec, config):
    """IRLS without acceleration, with the solver's stop rule and inner tolerances: (u, trace, factorizations)."""
    u = np.asarray(f, dtype=float).copy()
    pattern = SystemPattern(graph)

    def entry(it, cg_iters, cg_tol):
        e = objective_sec6(graph, u, f, spec, config.lam)
        return {
            "iter": it, "fidelity": e.fidelity, "regularizer": e.regularizer, "total": e.total,
            "cg_iters": cg_iters, "cg_tol": cg_tol,
        }

    trace = [entry(0, 0, None)]
    factorizations = 0
    decrease = None
    for it in range(1, config.irls_max_iter + 1):
        z = update_z(graph, u, spec)
        solve = {}
        cg_rtol = forcing_tol(config.cg_tol, decrease)
        u = solve_u(
            graph, f, z, config.lam, cg_tol=config.cg_tol, x0=u, stats=solve, pattern=pattern,
            cg_rtol=cg_rtol,
        )
        factorizations += solve["factored"]
        if "perm_c" in solve:
            pattern = SystemPattern(graph, perm=solve["perm_c"])
        trace.append(entry(it, solve["cg_iters"], config.cg_tol if solve["factored"] else cg_rtol))
        prev, total = trace[-2]["total"], trace[-1]["total"]
        decrease = (prev - total) / max(abs(prev), 1e-300)
        if decrease < config.irls_tol:
            break
    return u, trace, factorizations


class TestAnderson:
    def test_tv_accelerated_no_worse_than_plain(self, monkeypatch):
        graph, f, spec, config = stiff_tv_case()
        stats = {}
        sol = irls_minimize(graph, f, spec, config, stats=stats)
        # the accelerated run solves every system to cg_tol, and so does its reference
        with monkeypatch.context() as m:
            m.setattr(gms.solver, "FORCING_CAP", 0.0)
            u_plain, trace_plain, factorizations_plain = plain_irls(graph, f, spec, config)
        assert sol.converged and stats["accelerated"] > 0
        assert sol.energy_trace[-1]["total"] <= trace_plain[-1]["total"]
        assert stats["factorizations"] < factorizations_plain
        totals = [entry["total"] for entry in sol.energy_trace]
        assert all(b <= a for a, b in zip(totals, totals[1:]))
        # a strictly convex objective: both runs approach the one minimizer
        assert np.max(np.abs(sol.u - u_plain)) < 1e-2 * np.max(np.abs(f))
        again = irls_minimize(graph, f, spec, config)
        assert again.u.tobytes() == sol.u.tobytes() and again.energy_trace == sol.energy_trace

    @pytest.mark.parametrize("kind", ["ms_arctan", "capped_linear"])
    def test_bounded_saturations_stay_plain(self, kind):
        case = generate_synthetic(600, seed=1)
        config = SolverConfig(lam=50.0, eps=0.07, sigma=5.0, k_max=8, irls_tol=1e-6)
        graph = build_geometric_graph(case.cloud, config)
        f, spec = case.cloud.labels, ZetaSpec(kind)
        stats = {}
        sol = irls_minimize(graph, f, spec, config, stats=stats)
        u_plain, trace_plain, _ = plain_irls(graph, f, spec, config)
        assert stats["accelerated"] == 0 and sol.iterations > 2
        assert sol.u.tobytes() == u_plain.tobytes()
        assert sol.energy_trace == trace_plain

    def test_candidate_dropped_when_singular(self):
        g, r = np.arange(4.0), np.ones(4)
        # equal residuals: the Gram matrix is zero
        assert _anderson_step([(g - 1, r), (g, r)]) is None
        # dr = 2 r, so gamma = 1/2 and the candidate is g - dg / 2
        np.testing.assert_array_equal(_anderson_step([(g - 1, -r), (g, r)]), g - 0.5)


def fixed_tol_run(monkeypatch, graph, f, spec, config):
    """``irls_minimize`` with every solve asked for ``config.cg_tol``: a cap of 0 turns the forcing off."""
    stats = {}
    with monkeypatch.context() as m:
        m.setattr(gms.solver, "FORCING_CAP", 0.0)
        sol = irls_minimize(graph, f, spec, config, stats=stats)
    return sol, stats


class TestForcing:
    def test_rule(self):
        assert forcing_tol(1e-8, None) == 1e-8
        assert forcing_tol(1e-8, 0.5) == gms.solver.FORCING_CAP
        assert forcing_tol(1e-8, 1e-4) == gms.solver.FORCING_FACTOR * 1e-4
        assert forcing_tol(1e-8, 1e-9) == 1e-8
        assert forcing_tol(1e-8, -0.1) == 1e-8

    def test_ms_takes_fewer_cg_iterations(self, monkeypatch):
        case = generate_synthetic(1000, seed=0)
        config = SolverConfig(lam=50.0, eps=0.07, sigma=5.0, k_max=8, irls_tol=1e-6)
        graph = build_geometric_graph(case.cloud, config)
        f, spec = case.cloud.labels, ZetaSpec("ms_arctan")
        stats = {}
        sol = irls_minimize(graph, f, spec, config, stats=stats)
        fixed, fixed_stats = fixed_tol_run(monkeypatch, graph, f, spec, config)
        assert sol.converged and sol.iterations == fixed.iterations > 2
        e, e_fixed = sol.energy_trace[-1]["total"], fixed.energy_trace[-1]["total"]
        assert abs(e - e_fixed) <= 1e-6 * abs(e_fixed)
        assert stats["cg_iters"] < fixed_stats["cg_iters"]
        totals = [entry["total"] for entry in sol.energy_trace]
        assert all(b <= a for a, b in zip(totals, totals[1:]))
        # the trace records the schedule: cg_tol first, then the forcing of each previous decrease
        asked = [entry["cg_tol"] for entry in sol.energy_trace[1:]]
        decreases = [(a - b) / abs(a) for a, b in zip(totals[:-2], totals[1:-1])]
        assert asked == [config.cg_tol] + [forcing_tol(config.cg_tol, d) for d in decreases]
        assert max(asked) == gms.solver.FORCING_CAP
        assert {entry["cg_tol"] for entry in fixed.energy_trace[1:]} == {config.cg_tol}

    @pytest.mark.parametrize("kind", ["tv_smoothed", "quadratic", "ms_factored"])
    def test_exact_runs_unchanged(self, monkeypatch, kind):
        graph, f, spec, config = stiff_tv_case()
        if kind == "quadratic":
            spec = ZetaSpec("quadratic")
        elif kind == "ms_factored":
            # at λ=1 the first system outruns the CG budget, so every solve of the run is factored
            spec, config = ZetaSpec("ms_arctan"), dataclasses.replace(config, lam=1.0)
        sol = irls_minimize(graph, f, spec, config)
        fixed, _ = fixed_tol_run(monkeypatch, graph, f, spec, config)
        assert sol.u.tobytes() == fixed.u.tobytes()
        assert sol.energy_trace == fixed.energy_trace
        assert {entry["cg_tol"] for entry in sol.energy_trace[1:]} == {config.cg_tol}
        if kind == "quadratic":
            assert sol.iterations == 1
        else:
            assert sol.iterations > 2
        if kind == "ms_factored":
            assert [entry["cg_iters"] for entry in sol.energy_trace[1:3]] == [CG_BUDGET, 0]

    def test_factored_check_keeps_cg_tol(self):
        graph, f, spec, config = stiff_tv_case()
        z = update_z(graph, f, spec)
        first = {}
        solve_u(graph, f, z, 5.0, stats=first)
        pattern = SystemPattern(graph, perm=first["perm_c"])
        # a loose CG tolerance does not loosen the factored solve's check
        with pytest.raises(SolverError):
            solve_u(graph, f, z, 5.0, cg_tol=1e-300, cg_rtol=1e-3, pattern=pattern)
        # an unfactored solve is checked against the tolerance it was asked for
        stats = {}
        u = solve_u(graph, f, z, 5.0, cg_rtol=1e-3, stats=stats)
        A = system_matrix(graph, z, 5.0)
        residual = np.linalg.norm(A @ u - f) / np.linalg.norm(f)
        assert not stats["factored"] and 10 * 1e-8 < residual <= 1e-3


class TestTwoClusterToy:
    """Two tight 1-D clusters bridged by a single weak link.

    The bounded saturation keeps the unit jump; the quadratic penalty smooths
    it away.  A brute-force grid search over two-plateau candidates confirms
    the jumpy solution is the better minimizer for the bounded case.
    """

    @staticmethod
    def _instance():
        spacing, gap = 0.02, 0.12
        left = np.arange(10) * spacing
        right = left[-1] + gap + np.arange(10) * spacing
        pts = np.stack([np.concatenate([left, right]), np.zeros(20)], axis=1)
        f = np.concatenate([np.zeros(10), np.ones(10)])
        config = SolverConfig(lam=30.0, eps=0.05, sigma=1.0, k_max=8)
        graph = brute_force_graph(PointCloud(points=pts, labels=f), config)
        return graph, f, config

    def test_ms_keeps_jump_quadratic_smooths(self):
        graph, f, config = self._instance()
        u_ms = irls_minimize(graph, f, ZetaSpec("ms_arctan"), config).u
        u_q = irls_minimize(graph, f, ZetaSpec("quadratic"), config).u
        assert abs(u_ms[9] - u_ms[10]) > 0.9
        assert abs(u_q[9] - u_q[10]) < 0.9

    def test_grid_search_validates_ms_minimizer(self):
        graph, f, config = self._instance()
        spec = ZetaSpec("ms_arctan")
        sol = irls_minimize(graph, f, spec, config)
        e_irls = objective_sec6(graph, sol.u, f, spec, config.lam).total
        best_energy, best_jump = np.inf, None
        grid = np.linspace(-0.2, 1.2, 71)
        for a in grid:
            for b in grid:
                u = np.concatenate([np.full(10, a), np.full(10, b)])
                e = objective_sec6(graph, u, f, spec, config.lam).total
                if e < best_energy:
                    best_energy, best_jump = e, abs(b - a)
        assert best_jump > 0.9  # the best two-plateau candidate is jumpy
        assert e_irls <= best_energy + 1e-9


class TestDetectEdges:
    def test_constant_u_empty(self, rng):
        g = brute_force_graph(random_cloud(rng, 30), small_config(eps=0.3))
        assert detect_edges(g, np.full(30, 1.0), 0.0) == []

    def test_threshold_zero_flags_all_distinct(self, rng):
        n = 30
        g = brute_force_graph(random_cloud(rng, n), small_config(eps=0.3))
        u = rng.random(n)  # almost surely all distinct
        assert len(detect_edges(g, u, 0.0)) == g.n_edges

    def test_sorted_deterministic(self, rng):
        n = 60
        g = brute_force_graph(random_cloud(rng, n), small_config(eps=0.3))
        u = rng.random(n)
        flagged = detect_edges(g, u, 0.2)
        assert flagged == sorted(flagged)
        assert all(abs(u[i] - u[j]) > 0.2 for i, j in flagged)

    def test_negative_threshold_rejected(self, rng):
        g = brute_force_graph(random_cloud(rng, 10), small_config(eps=0.3))
        with pytest.raises(ValidationError):
            detect_edges(g, np.zeros(10), -1.0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda g, v: update_z(g, v, ZetaSpec("ms_arctan")), "u must have length 10"),
        (lambda g, v: solve_u(g, v, np.ones(g.n_edges), 1.0), "f must have length 10"),
        (lambda g, v: irls_minimize(g, v, ZetaSpec("ms_arctan"), small_config(eps=0.3)), "f must have length 10"),
        (lambda g, v: detect_edges(g, v, 0.1), "u must have length 10"),
        (lambda g, v: objective_sec6(g, v, np.zeros(10), ZetaSpec("ms_arctan"), 1.0), "u must have length 10"),
        (lambda g, v: objective_sec6(g, np.zeros(10), v, ZetaSpec("ms_arctan"), 1.0), "f must have length 10"),
    ],
)
def test_vertex_array_length_rejected(rng, call, message):
    g = brute_force_graph(random_cloud(rng, 10), small_config(eps=0.3))
    with pytest.raises(ValidationError, match=f"^{message}$"):
        call(g, np.zeros(9))


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda g, v: update_z(g, v, ZetaSpec("ms_arctan"), 0.3), id="update_z"),
        pytest.param(lambda g, v: system_matrix(g, np.ones(g.n_edges), 1.0, 0.3), id="system_matrix"),
        pytest.param(lambda g, v: solve_u(g, v, np.ones(g.n_edges), 1.0, 0.3), id="solve_u"),
        pytest.param(lambda g, v: gms_energy(g, v, ZetaSpec("ms_arctan"), 0.3), id="gms_energy"),
        pytest.param(lambda g, v: objective_sec6(g, v, v, ZetaSpec("ms_arctan"), 1.0, 0.3), id="objective_sec6"),
        pytest.param(lambda g, v: objective_sec1(g, v, v, ZetaSpec("ms_arctan"), 1.0, 0.3), id="objective_sec1"),
    ],
)
def test_trailing_eps_rejected(rng, call):
    """eps comes from the graph, so a call that still passes it after the required arguments is a TypeError."""
    g = brute_force_graph(random_cloud(rng, 10), small_config(eps=0.3))
    with pytest.raises(TypeError):
        call(g, rng.random(10))
