"""The benchmark tracer's hooks still name functions gms calls through, and its counters still bind their calls.

``perfbench/tracer.py`` times layers by rebinding gms module attributes, and
skips any attribute it does not find.  A refactor that moves or renames one
of them would drop that span silently; these tests make it fail instead.  A
counter reads its call's arguments or result, so a changed signature or
result would otherwise fail only in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from gms.continuum import sampled_energy
from gms.core import PointCloud, SolverConfig, ZetaSpec
from gms.graph import build_geometric_graph
from gms.solver import irls_minimize

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_resolves():
    missing = {
        (module, attr)
        for module, attr, _ in load_tracer().HOOKS
        if not callable(getattr(importlib.import_module(module), attr, None))
    }
    assert not missing


def test_every_counter_names_a_hooked_span():
    tracer = load_tracer()
    assert set(tracer.COUNTERS) <= {name for *_, name in tracer.HOOKS}


class TestCounters:
    """Each counter, given a real call's arguments and result as the tracer passes them."""

    @staticmethod
    def count(name, original, args, kwargs=None):
        kwargs = kwargs or {}
        result = original(*args, **kwargs)
        span = {}
        load_tracer().COUNTERS[name](span, original, args, kwargs, result)
        return span, result

    @staticmethod
    def cloud():
        rng = np.random.default_rng(0)
        return PointCloud(points=rng.random((60, 2)), labels=rng.random(60))

    def test_graph_edges(self):
        cloud = self.cloud()
        span, graph = self.count("graph.build", build_geometric_graph, (cloud, SolverConfig(eps=0.2)))
        assert graph.n_edges > 0 and span == {"edges": graph.n_edges}

    def test_irls_iterations(self):
        cloud, config = self.cloud(), SolverConfig(lam=5.0, eps=0.2)
        graph = build_geometric_graph(cloud, config)
        args = (graph, cloud.labels, ZetaSpec("ms_arctan"), config)
        stats = {}
        irls_minimize(*args, stats=stats)
        span, _ = self.count("solver.irls", irls_minimize, args)
        assert stats["cg_iters"] > 0 and span == {"irls_iters": stats["irls_iters"], "cg_iters": stats["cg_iters"]}

    def test_pair_input_keeps_points_and_radius(self):
        cloud, spec = self.cloud(), ZetaSpec("ms_arctan")
        points, values = cloud.points, cloud.labels
        calls = [
            ((points, values, spec, 0.2, 2.0, 0.0, 0.5, 2.0), {}, 2.0 * 0.5 * 0.2),
            ((points, values, spec), {"eps": 0.2, "sigma": 0.5, "cutoff_multiplier": 2.0}, 2.0 * 0.5 * 0.2),
            ((points, values, spec, 0.2), {}, 3.0 * 1.0 * 0.2),  # the defaults' radius
        ]
        for args, kwargs, radius in calls:
            span, _ = self.count("continuum.sampled_energy", sampled_energy, args, kwargs)
            kept, kept_radius = span["_pair_input"]
            assert kept is points and kept_radius == radius
