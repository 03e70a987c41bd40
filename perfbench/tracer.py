"""In-process span tracer for the gms benchmark.

The tracer adds no code to ``gms``.  While installed it rebinds the module
attributes through which gms calls its public functions (for example
``gms.solver.system_matrix``, which ``gms.solver.solve_u`` looks up in its
module globals) to wrappers that record one span per call.  Uninstalling puts
the original functions back, so untraced operations run the unmodified code.

A span is a dict with ``id``, ``name`` (``<layer>.<operation>``), ``run``
(the operation it belongs to), ``parent`` (id of the enclosing span or None),
``start`` and ``end`` (``time.perf_counter`` seconds) and any counts taken
from the call's return value.  Spans are kept in memory and written as JSONL
by :meth:`Tracer.write_jsonl`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "datasets", "graph", "solver", "energy", "core", "continuum", "consistency")

# (module, attribute, span name).  A function imported by name into another
# module is rebound where it is looked up, so every call site gets a span.
HOOKS = (
    ("gms.cli", "main", "cli.main"),
    ("gms.cli", "generate_synthetic", "datasets.synth"),
    ("gms.cli", "l1_error", "datasets.l1_error"),
    ("gms.cli", "build_geometric_graph", "graph.build"),
    ("gms.cli", "save_graph", "graph.save"),
    ("gms.cli", "load_graph", "graph.load"),
    ("gms.cli", "irls_minimize", "solver.irls"),
    ("gms.cli", "detect_edges", "solver.detect_edges"),
    ("gms.solver", "update_z", "solver.z_update"),
    ("gms.solver", "solve_u", "solver.solve"),
    ("gms.solver", "system_matrix", "solver.assemble"),
    ("gms.solver", "objective_sec6", "energy.objective"),
    ("gms.cli", "objective_sec6", "energy.objective"),
    ("gms.solver", "zeta_derivative", "core.zeta"),
    ("gms.energy", "zeta_value", "core.zeta"),
    ("gms.continuum", "zeta_value", "core.zeta"),
    ("gms.continuum", "zeta_derivative", "core.zeta"),
    ("gms.cli", "gamma_experiment", "continuum.gamma_experiment"),
    ("gms.continuum", "sampled_energy", "continuum.sampled_energy"),
    ("gms.consistency", "sampled_energy", "continuum.sampled_energy"),
    ("gms.cli", "dyadic_counterexample", "consistency.dyadic_counterexample"),
)


def _count_edges(span, original, args, kwargs, result):
    span["edges"] = result.n_edges


def _count_irls(span, original, args, kwargs, result):
    span["irls_iters"] = result.iterations
    span["cg_iters"] = sum(entry.get("cg_iters", 0) for entry in result.energy_trace)


def _keep_pair_input(span, original, args, kwargs, result):
    # Counting the pairs is as costly as a fraction of the call itself, so
    # only the input is kept here; count_pairs() runs after the operation.
    bound = inspect.signature(original).bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    span["_pair_input"] = (a["points"], a["cutoff_multiplier"] * a["sigma"] * a["eps"])


# Counts are read from return values after the span has closed.
COUNTERS = {
    "graph.build": _count_edges,
    "solver.irls": _count_irls,
    "continuum.sampled_energy": _keep_pair_input,
}


class Tracer:
    """Records spans of gms calls made while installed."""

    def __init__(self):
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._run = None

    def _wrap(self, original, name):
        counter = COUNTERS.get(name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "run": self._run,
                "parent": self._stack[-1] if self._stack else None,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                self._stack.pop()
            if counter is not None:
                counter(span, original, args, kwargs, result)
            return result

        return traced

    def install(self, run) -> None:
        """Rebind every hook; spans recorded until uninstall() belong to ``run``."""
        self._run = run
        self.missing = []
        for module_name, attr, name in HOOKS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []
        self._run = None

    def count_pairs(self) -> None:
        """Count the pairs within the cutoff radius of each sampled_energy call."""
        from scipy.spatial import cKDTree

        for span in self.spans:
            if "_pair_input" in span:
                points, radius = span.pop("_pair_input")
                tree = cKDTree(points)
                # count_neighbors counts ordered pairs, self-pairs included.
                span["pairs"] = (int(tree.count_neighbors(tree, radius)) - len(points)) // 2

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps({k: v for k, v in span.items() if not k.startswith("_")}) + "\n")


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover.

    The traced program is single-threaded, so children of one span never
    overlap and their coverage is the sum of their durations.
    """
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - covered[s["id"]] for s in spans}


def _ratio(num, den):
    return num / den if den else 0.0


def self_time_sum(spans, runs) -> float:
    """Self time of all spans of the operations in ``runs``, per operation.

    Equals the root spans' duration; compared with the measured wall time of
    the traced operations it shows time that no span covers.
    """
    runs = set(runs)
    own = self_times(spans)
    return math.fsum(own[s["id"]] for s in spans if s["run"] in runs) / len(runs)


def summarize(spans, runs) -> dict[str, float]:
    """Per-layer metrics per operation, averaged over the operations in ``runs``.

    ``<layer>.self_s`` (``core.zeta_s`` for core) is the self time of all
    spans of that layer; together they add up to :func:`self_time_sum`.
    """
    runs = set(runs)
    own = self_times(spans)
    inclusive = defaultdict(float)
    self_by_name = defaultdict(float)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    calls = Counter()
    counts = Counter()
    n_spans = 0
    for s in spans:
        if s["run"] not in runs:
            continue
        n_spans += 1
        name = s["name"]
        inclusive[name] += s["end"] - s["start"]
        self_by_name[name] += own[s["id"]]
        layer_self[name.split(".")[0]] += own[s["id"]]
        calls[name] += 1
        for key in ("edges", "irls_iters", "cg_iters", "pairs"):
            counts[key] += s.get(key, 0)
    k = len(runs)
    m = {f"{layer}.self_s": layer_self[layer] / k for layer in LAYERS if layer != "core"}
    m.update({
        "graph.build_s": inclusive["graph.build"] / k,
        "graph.save_s": inclusive["graph.save"] / k,
        "graph.load_s": inclusive["graph.load"] / k,
        "graph.edges": counts["edges"] / k,
        "graph.build_us_per_edge": 1e6 * _ratio(inclusive["graph.build"], counts["edges"]),
        "solver.irls_self_s": self_by_name["solver.irls"] / k,
        "solver.z_update_s": inclusive["solver.z_update"] / k,
        "solver.assemble_s": inclusive["solver.assemble"] / k,
        "solver.solve_self_s": self_by_name["solver.solve"] / k,
        "solver.irls_iters": counts["irls_iters"] / k,
        "solver.cg_iters": counts["cg_iters"] / k,
        "solver.cg_iters_per_irls": _ratio(counts["cg_iters"], counts["irls_iters"]),
        "solver.us_per_cg_iter": 1e6 * _ratio(self_by_name["solver.solve"], counts["cg_iters"]),
        "energy.objective_s": inclusive["energy.objective"] / k,
        "energy.calls": calls["energy.objective"] / k,
        "core.zeta_s": layer_self["core"] / k,
        "continuum.sampled_energy_s": inclusive["continuum.sampled_energy"] / k,
        "continuum.pairs": counts["pairs"] / k,
        "continuum.ns_per_pair": 1e9 * _ratio(inclusive["continuum.sampled_energy"], counts["pairs"]),
        "trace.spans": n_spans / k,
    })
    return m
