import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gms import graph as graph_module
from gms.core import PointCloud, ValidationError
from gms.graph import (
    SparseGraph,
    brute_force_graph,
    build_geometric_graph,
    load_graph,
    save_graph,
)

from conftest import random_cloud, small_config


def edge_set(graph):
    return set(zip(graph.ii.tolist(), graph.jj.tolist()))


def assert_graphs_equal(a, b):
    assert edge_set(a) == edge_set(b)
    assert np.allclose(a.weights, b.weights, rtol=1e-12)
    assert np.allclose(a.distances, b.distances, rtol=1e-12)


def assert_graphs_identical(a, b):
    for name in ("ii", "jj", "weights", "distances"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


@st.composite
def builder_cases(draw):
    """Clouds and configs covering the builder's cap, tie and radius edge cases."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", "lattice", "duplicates"]))
    if kind == "lattice":
        # multiples of a binary spacing: distances are exact, so ties at the
        # cap are exact and radius sqrt(m) * spacing puts pairs exactly on it
        spacing = 0.25
        points = rng.integers(0, draw(st.integers(1, 6)), size=(n, d)) * spacing
        radius = draw(st.sampled_from([0.5 * spacing, spacing * np.sqrt(draw(st.integers(1, 12)))]))
    else:
        points = rng.random((n, d))
        if kind == "duplicates":
            points = points[rng.integers(0, max(1, n // 3), size=n)]
        radius = draw(st.floats(0.01, 2.0))
        if draw(st.booleans()):
            # below every nonzero spacing: only coincident points are joined
            gaps = np.linalg.norm(points[:, None] - points[None, :], axis=2)
            if np.any(gaps > 0):
                radius = 0.5 * gaps[gaps > 0].min()
    k_max = draw(st.sampled_from([1, 2, 3, 8, max(1, n - 1), n, n + 1]))
    # cutoff 1 and sigma 1 make the radius exactly eps
    config = small_config(eps=float(radius), sigma=1.0, cutoff_multiplier=1.0, k_max=k_max)
    return PointCloud(points=points), config


class TestExamples:
    def test_single_point_empty(self):
        g = build_geometric_graph(PointCloud(points=[[0.3, 0.4]]), small_config())
        assert g.n_edges == 0 and g.n == 1

    def test_duplicate_points_weight(self):
        # coincident pair: r = 0, so w = eps^{-d} = 0.5^{-2} = 4
        cloud = PointCloud(points=[[0.1, 0.2], [0.1, 0.2]])
        g = build_geometric_graph(cloud, small_config(eps=0.5))
        assert g.n_edges == 1
        assert g.weights[0] == pytest.approx(4.0)
        assert g.distances[0] == 0.0

    def test_three_collinear_points(self):
        pts = np.array([[0.0, 0.0], [0.01, 0.0], [0.02, 0.0]])
        config = small_config(eps=0.0225, sigma=5.0, k_max=8)
        g = build_geometric_graph(PointCloud(points=pts), config)
        assert edge_set(g) == {(0, 1), (0, 2), (1, 2)}
        expected = 0.0225 ** (-2) * np.exp(
            -g.distances**2 / (2 * 5.0**2 * 0.0225**2)
        )
        assert np.allclose(g.weights, expected, rtol=1e-14)
        assert_graphs_equal(g, brute_force_graph(PointCloud(points=pts), config))

    def test_unit_square_complete(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        g = brute_force_graph(PointCloud(points=pts), small_config(eps=10.0, k_max=3))
        assert g.n_edges == 6  # complete graph on 4 vertices


class TestInvariants:
    def test_matches_brute_force_on_random_clouds(self, rng):
        for trial in range(100):
            n = int(rng.integers(2, 120))
            cloud = random_cloud(rng, n)
            config = small_config(
                eps=float(rng.uniform(0.05, 0.4)),
                k_max=int(rng.integers(1, 10)),
            )
            fast = build_geometric_graph(cloud, config)
            slow = brute_force_graph(cloud, config)
            assert_graphs_equal(fast, slow)
            fast.validate()

    def test_clustered_points_with_ties(self, rng):
        # many coincident points force distance ties at the cap boundary
        base = rng.random((10, 2))
        pts = np.repeat(base, 5, axis=0)
        cloud = PointCloud(points=pts)
        config = small_config(eps=0.2, k_max=3)
        assert_graphs_equal(build_geometric_graph(cloud, config), brute_force_graph(cloud, config))

    @settings(max_examples=200, deadline=None)
    @given(builder_cases())
    def test_identical_to_brute_force(self, case):
        cloud, config = case
        assert_graphs_identical(build_geometric_graph(cloud, config), brute_force_graph(cloud, config))

    def test_pairs_at_exactly_the_radius_are_kept(self):
        pts = np.array([[0.0], [1.0], [2.0], [3.5]])
        g = build_geometric_graph(PointCloud(points=pts), small_config(eps=1.0, cutoff_multiplier=1.0))
        assert edge_set(g) == {(0, 1), (1, 2)}

    def test_copies_take_the_tie_fallback(self, rng):
        # the cloud of test_clustered_points_with_ties: every vertex has four
        # copies at distance 0 and keeps three, a tie at the cap on every row
        cloud = PointCloud(points=np.repeat(rng.random((10, 2)), 5, axis=0))
        config = small_config(eps=0.2, k_max=3)
        stats = {}
        g = build_geometric_graph(cloud, config, stats=stats)
        assert stats["capped_vertices"] == 50 and stats["tie_fallbacks"] == 50
        # each cluster of 5 loses the pair of its two largest indices
        assert stats["zero_distance_edges"] == 10 * 9
        assert sum(stats["degree_histogram"]) == 50
        assert_graphs_identical(g, brute_force_graph(cloud, config))

    def test_stats_without_ties(self, rng):
        cloud = random_cloud(rng, 300)
        stats = {}
        g = build_geometric_graph(cloud, small_config(eps=0.02, k_max=4), stats=stats)
        assert stats["tie_fallbacks"] == 0 and stats["zero_distance_edges"] == 0
        assert 0 < stats["capped_vertices"] < 300
        assert stats["degree_histogram"] == np.bincount(g.degrees()).tolist()

    def test_cap_semantics(self, rng):
        # Every edge must be kept by at least one endpoint, and no vertex may
        # keep more than k_max.  (The degree itself is not bounded by 2*k_max:
        # a hub can be among the k nearest of arbitrarily many other vertices.)
        cloud = random_cloud(rng, 300)
        config = small_config(eps=0.5, k_max=4)
        g = build_geometric_graph(cloud, config)
        radius = config.cutoff_multiplier * config.sigma * config.eps
        dist = np.linalg.norm(cloud.points[:, None] - cloud.points[None, :], axis=2)
        kept = []
        for i in range(cloud.n):
            cand = np.array([j for j in range(cloud.n) if j != i and dist[i, j] <= radius])
            order = np.lexsort((cand, dist[i, cand]))
            kept.append(set(cand[order[: config.k_max]].tolist()))
        for i, j in zip(g.ii.tolist(), g.jj.tolist()):
            assert j in kept[i] or i in kept[j]
        # conversely, everything kept appears in the graph
        edges = set(zip(g.ii.tolist(), g.jj.tolist()))
        for i, ki in enumerate(kept):
            assert len(ki) <= config.k_max
            for j in ki:
                assert (min(i, j), max(i, j)) in edges

    def test_cutoff_monotone(self, rng):
        cloud = random_cloud(rng, 150)
        small = build_geometric_graph(cloud, small_config(eps=0.2, k_max=1000, cutoff_multiplier=1.5))
        large = build_geometric_graph(cloud, small_config(eps=0.2, k_max=1000, cutoff_multiplier=3.0))
        assert edge_set(small) <= edge_set(large)

    def test_workers_do_not_change_output(self, rng):
        cloud = random_cloud(rng, 200)
        config = small_config(eps=0.2)
        g1 = build_geometric_graph(cloud, config, workers=1)
        g2 = build_geometric_graph(cloud, config, workers=4)
        assert_graphs_equal(g1, g2)

    def test_brute_force_guard(self):
        cloud = PointCloud(points=np.zeros((5001, 2)))
        with pytest.raises(ValidationError):
            brute_force_graph(cloud, small_config())

    def test_validate_rejects_tampered_weights(self, rng):
        g = build_geometric_graph(random_cloud(rng, 50), small_config(eps=0.3))
        bad = SparseGraph(
            n=g.n, dim=g.dim, eps=g.eps, sigma=g.sigma,
            ii=g.ii, jj=g.jj, weights=g.weights * 1.001, distances=g.distances,
        )
        with pytest.raises(ValidationError):
            bad.validate()

    def test_validate_rejects_diagonal(self):
        bad = SparseGraph(
            n=2, dim=2, eps=0.1, sigma=1.0,
            ii=np.array([1]), jj=np.array([1]),
            weights=np.array([1.0]), distances=np.array([0.0]),
        )
        with pytest.raises(ValidationError):
            bad.validate()


class TestSaveLoad:
    def test_roundtrip(self, rng, tmp_path):
        g = build_geometric_graph(random_cloud(rng, 80), small_config(eps=0.3))
        path = tmp_path / "graph.txt"
        save_graph(g, path)
        loaded = load_graph(path)
        assert loaded.n == g.n and loaded.dim == g.dim
        assert loaded.eps == g.eps and loaded.sigma == g.sigma
        assert_graphs_equal(loaded, g)

    def test_golden_text(self, tmp_path):
        cloud = PointCloud(points=[[0.0, 0.0], [0.1, 0.0], [0.0, 0.2]])
        path = tmp_path / "g3.txt"
        save_graph(build_geometric_graph(cloud, small_config(eps=0.1)), path)
        assert path.read_text() == (
            "3 2 0.10000000000000001 1\n"
            "0 1 60.653065971263331 0.10000000000000001\n"
            "0 2 13.533528323661269 0.20000000000000001\n"
            "1 2 8.2084998623898784 0.22360679774997899\n"
        )

    def test_byte_roundtrip_across_write_blocks(self, rng, tmp_path):
        g = build_geometric_graph(random_cloud(rng, 2000), small_config(eps=0.1))
        assert g.n_edges > 2 * graph_module._SAVE_BLOCK
        first, second = tmp_path / "a.txt", tmp_path / "b.txt"
        save_graph(g, first)
        save_graph(load_graph(first), second)
        assert first.read_bytes() == second.read_bytes()
        assert len(first.read_text().splitlines()) == g.n_edges + 1

    def test_rows_match_shortest_repr_format(self, rng, tmp_path):
        m = graph_module._SAVE_BLOCK + 4
        awkward = [5e-324, 1e300, 0.1, 0.12345678901234567]
        weights = np.concatenate([awkward, rng.random(m - len(awkward))])
        distances = np.concatenate([awkward[::-1], rng.random(m - len(awkward)) * 1e-7])
        g = SparseGraph(
            n=m + 1, dim=2, eps=0.1, sigma=1.0, ii=np.zeros(m, dtype=np.int64),
            jj=np.arange(1, m + 1), weights=weights, distances=distances,
        )
        path = tmp_path / "g.txt"
        save_graph(g, path)
        rows = path.read_text().splitlines()[1:]
        expected = [
            f"{i} {j} {w:.17g} {r:.17g}"
            for i, j, w, r in zip(g.ii.tolist(), g.jj.tolist(), weights.tolist(), distances.tolist())
        ]
        assert rows == expected
        assert rows[0] == "0 1 4.9406564584124654e-324 0.12345678901234566"

    def test_roundtrip_empty(self, tmp_path):
        g = build_geometric_graph(PointCloud(points=[[0.0, 0.0]]), small_config())
        path = tmp_path / "empty.txt"
        save_graph(g, path)
        assert load_graph(path).n_edges == 0

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2\n")
        with pytest.raises(ValidationError):
            load_graph(path)
