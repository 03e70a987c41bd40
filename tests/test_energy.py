import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gms.core import PointCloud, ValidationError, ZetaSpec, zeta_value
from gms.energy import SingularityError, exact_sum, gms_energy, objective_sec1, objective_sec6
from gms.graph import SparseGraph, brute_force_graph

from conftest import random_cloud, small_config


def naive_energy(graph, u, spec, eps, p=2.0, q=0.0):
    """Independent double-loop oracle over the dense symmetric weight matrix."""
    w = np.zeros((graph.n, graph.n))
    r = np.zeros((graph.n, graph.n))
    for i, j, wij, rij in zip(graph.ii, graph.jj, graph.weights, graph.distances):
        w[i, j] = w[j, i] = wij
        r[i, j] = r[j, i] = rij
    total = 0.0
    for i in range(graph.n):
        for j in range(graph.n):
            if w[i, j] == 0:
                continue
            arg = eps ** (1 - p + q) * abs(u[i] - u[j]) ** p
            if q > 0:
                arg /= r[i, j] ** q
            total += zeta_value(spec, arg) * w[i, j]
    return total / (eps * graph.n**2)


def two_point_graph(dist=0.1, eps=0.2, sigma=1.0):
    pts = np.array([[0.0, 0.0], [dist, 0.0]])
    return brute_force_graph(PointCloud(points=pts), small_config(eps=eps, sigma=sigma, k_max=4))


class TestGmsEnergy:
    def test_constant_u_zero(self, rng, ms_spec):
        g = brute_force_graph(random_cloud(rng, 40), small_config(eps=0.3))
        assert gms_energy(g, np.full(40, 3.7), ms_spec, 0.3) == 0.0

    def test_two_point_hand_formula(self, quad_spec):
        eps = 0.2
        g = two_point_graph(dist=0.1, eps=eps)
        u = np.array([0.0, 0.5])
        w = g.weights[0]
        expected = (1.0 / (eps * 4)) * 2.0 * (0.25 / eps) * w
        assert gms_energy(g, u, quad_spec, eps) == pytest.approx(expected, rel=1e-14)

    def test_matches_double_loop_oracle(self, rng):
        for spec in [ZetaSpec("ms_arctan"), ZetaSpec("tv_smoothed", delta=0.01), ZetaSpec("quadratic")]:
            for _ in range(5):
                n = int(rng.integers(5, 60))
                g = brute_force_graph(random_cloud(rng, n), small_config(eps=0.3))
                u = rng.random(n)
                fast = gms_energy(g, u, spec, 0.3)
                slow = naive_energy(g, u, spec, 0.3)
                assert fast == pytest.approx(slow, rel=1e-12)

    def test_general_pq_matches_oracle(self, rng, ms_spec):
        n = 30
        g = brute_force_graph(random_cloud(rng, n), small_config(eps=0.3))
        u = rng.random(n)
        for p, q in [(2.0, 0.0), (2.0, 1.0), (3.0, 1.5)]:
            assert gms_energy(g, u, ms_spec, 0.3, p, q) == pytest.approx(
                naive_energy(g, u, ms_spec, 0.3, p, q), rel=1e-12
            )

    def test_shift_invariance(self, rng, ms_spec):
        n = 50
        g = brute_force_graph(random_cloud(rng, n), small_config(eps=0.3))
        u = rng.random(n)
        e0 = gms_energy(g, u, ms_spec, 0.3)
        for c in [-5.0, 0.1, 123.0]:
            assert gms_energy(g, u + c, ms_spec, 0.3) == pytest.approx(e0, rel=1e-12)

    def test_saturation_bound(self, rng, ms_spec):
        n = 50
        g = brute_force_graph(random_cloud(rng, n), small_config(eps=0.3))
        u = rng.random(n) * 100  # huge jumps: zeta near its limit 1
        bound = 2.0 * g.weights.sum() / (0.3 * n**2)
        e = gms_energy(g, u, ms_spec, 0.3)
        assert 0 <= e <= bound

    def test_zero_distance_singularity(self, ms_spec):
        cloud = PointCloud(points=[[0.0, 0.0], [0.0, 0.0]])
        g = brute_force_graph(cloud, small_config(eps=0.2))
        with pytest.raises(SingularityError):
            gms_energy(g, np.array([0.0, 1.0]), ms_spec, 0.2, p=2.0, q=1.0)

    def test_q_ge_p_rejected(self, ms_spec):
        g = two_point_graph()
        with pytest.raises(ValidationError):
            gms_energy(g, np.zeros(2), ms_spec, 0.2, p=2.0, q=2.0)

    def test_wrong_length_rejected(self, ms_spec):
        g = two_point_graph()
        with pytest.raises(ValidationError):
            gms_energy(g, np.zeros(3), ms_spec, 0.2)


class TestObjectiveSec6:
    def test_u_equals_f(self, rng, ms_spec):
        n = 30
        g = brute_force_graph(random_cloud(rng, n), small_config(eps=0.3))
        f = rng.random(n)
        e = objective_sec6(g, f, f, ms_spec, lam=2.0, eps=0.3)
        assert e.fidelity == 0.0
        assert e.total == e.regularizer

    def test_constant_u_and_f_zero_total(self, ms_spec, rng):
        g = brute_force_graph(random_cloud(rng, 20), small_config(eps=0.3))
        u = np.full(20, 0.4)
        e = objective_sec6(g, u, u, ms_spec, lam=1.0, eps=0.3)
        assert e.total == 0.0

    def test_three_point_path_hand_computation(self, ms_spec):
        # hand-built path graph 0-1-2 with explicit weights
        g = SparseGraph(
            n=3, dim=2, eps=1.0, sigma=1.0,
            ii=np.array([0, 1]), jj=np.array([1, 2]),
            weights=np.exp(-np.array([0.2, 0.3]) ** 2 / 2.0),
            distances=np.array([0.2, 0.3]),
        )
        g.validate()
        u = np.array([0.0, 0.5, 1.0])
        f = np.array([0.1, 0.4, 0.9])
        e = objective_sec6(g, u, f, ms_spec, lam=1.0, eps=1.0)
        fid = 0.01 + 0.01 + 0.01
        reg = (2.0 / 3.0) * sum(
            zeta_value(ms_spec, 0.25) * w for w in g.weights
        )
        assert e.fidelity == pytest.approx(fid, rel=1e-12)
        assert e.regularizer == pytest.approx(reg, rel=1e-12)

    def test_missing_labels(self, ms_spec):
        g = two_point_graph()
        with pytest.raises(ValidationError):
            objective_sec6(g, np.zeros(2), None, ms_spec, 1.0, 0.2)


class TestObjectiveSec1:
    def test_u_equals_f_fidelity_zero(self, rng, ms_spec):
        g = brute_force_graph(random_cloud(rng, 20), small_config(eps=0.3))
        f = rng.random(20)
        assert objective_sec1(g, f, f, ms_spec, lam=3.0, eps=0.3).fidelity == 0.0

    def test_lambda_zero_reduces_to_gms_energy(self, rng, ms_spec):
        n = 25
        g = brute_force_graph(random_cloud(rng, n), small_config(eps=0.3))
        u, f = rng.random(n), rng.random(n)
        e = objective_sec1(g, u, f, ms_spec, lam=0.0, eps=0.3)
        assert e.total == pytest.approx(gms_energy(g, u, ms_spec, 0.3), rel=1e-14)

    def test_random_instance_matches_oracle(self, rng, ms_spec):
        n = 10
        g = brute_force_graph(random_cloud(rng, n), small_config(eps=0.3))
        u, f = rng.random(n), rng.random(n)
        lam = 2.5
        e = objective_sec1(g, u, f, ms_spec, lam=lam, eps=0.3)
        expected_fid = lam / n * np.sum((u - f) ** 2)
        assert e.fidelity == pytest.approx(expected_fid, rel=1e-12)
        assert e.regularizer == pytest.approx(naive_energy(g, u, ms_spec, 0.3), rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), c=st.floats(-10, 10, allow_nan=False))
def test_breakdown_total_consistency(seed, c):
    rng = np.random.default_rng(seed)
    n = 15
    g = brute_force_graph(random_cloud(rng, n), small_config(eps=0.3))
    u, f = rng.random(n) + c, rng.random(n)
    for e in (
        objective_sec6(g, u, f, ZetaSpec("ms_arctan"), 1.5, 0.3),
        objective_sec1(g, u, f, ZetaSpec("ms_arctan"), 1.5, 0.3),
    ):
        assert e.total == e.fidelity + e.regularizer
        assert e.total >= 0


def test_determinism_bit_exact(rng, ms_spec):
    n = 200
    g = brute_force_graph(random_cloud(rng, n), small_config(eps=0.3))
    u = rng.random(n)
    vals = {gms_energy(g, u, ms_spec, 0.3) for _ in range(5)}
    assert len(vals) == 1


def _bits(x):
    return np.float64(x).tobytes()


_finite = st.floats(allow_nan=False, allow_infinity=False)
_tiny = st.floats(min_value=-1e-300, max_value=1e-300)  # subnormals included


class TestExactSum:
    """``exact_sum`` is ``math.fsum`` bit for bit wherever fsum returns a value."""

    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(st.one_of(_finite, _tiny), max_size=80),
        st.lists(st.integers(0, 79), max_size=40),
        st.floats(min_value=-60, max_value=60),
    )
    def test_matches_fsum(self, values, negate, log_scale):
        # negated copies of some entries make exact and near-exact cancellation
        values = values + [-values[k] * (1 + 2.0**-52 * (k % 3 - 1)) for k in negate if k < len(values)]
        values = values + [v * 2.0**log_scale for v in values[:10]]
        values = [v for v in values if math.isfinite(v)]  # the scalings above can overflow
        try:
            expected = math.fsum(values)
        except OverflowError:
            assume(False)
        assert _bits(exact_sum(np.array(values))) == _bits(expected)

    def test_edge_cases(self):
        assert _bits(exact_sum(np.array([]))) == _bits(math.fsum([]))
        assert _bits(exact_sum(np.array([-0.0, -0.0]))) == _bits(math.fsum([-0.0, -0.0]))
        sub = 5e-324
        assert exact_sum(np.array([sub, sub, -sub])) == sub
        assert exact_sum(np.array([1e308, 1e308, -1e308])) == 1e308  # fsum overflows in between
        with pytest.raises(OverflowError):
            exact_sum(np.array([1.7e308, 1.7e308]))
        assert exact_sum(np.array([np.inf, 1.0])) == np.inf
        assert math.isnan(exact_sum(np.array([np.nan, 1.0])))
        with pytest.raises(ValueError):
            exact_sum(np.array([np.inf, -np.inf]))

    def test_matches_fsum_on_energy_terms(self, rng):
        g = brute_force_graph(random_cloud(rng, 200), small_config(eps=0.3))
        u, f = rng.random(200), rng.random(200)
        e = objective_sec6(g, u, f, ZetaSpec("ms_arctan"), 2.0, 0.3)
        terms = zeta_value(ZetaSpec("ms_arctan"), (u[g.ii] - u[g.jj]) ** 2 / 0.3) * g.weights
        assert e.fidelity == math.fsum(((u - f) ** 2).tolist())
        assert e.regularizer == 2.0 * math.fsum(terms.tolist()) / (2.0 * 0.3 * 200)
