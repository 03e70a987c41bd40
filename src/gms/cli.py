"""Command-line entry point.

Subcommands: denoise, edges, synth, gamma, consistency, housing, plot.
``denoise`` and ``housing`` share one run path (graph build, IRLS, the ``u``
file and the energy line) and differ only in how they read their points.
Each subcommand returns its inputs and outputs, and ``main`` writes the JSON
manifest ``<--out>.manifest.json`` from them; all RNG use is seeded and
reductions are ordered, so re-running a manifest reproduces outputs
bit-exactly.  Exit codes: 0 success, 2 validation failure, 3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time

import numpy as np
import scipy

from . import __version__
from .consistency import density_deviation_curve, dyadic_counterexample
from .continuum import SmoothCase, StepCase, gamma_experiment
from .core import PointCloud, SolverConfig, ValidationError, ZetaSpec, check_seed, read_table, vertex_pairs, write_rows
from .datasets import DEFAULT_MAX_LONGITUDE, generate_synthetic, ingest_housing, l1_error
from .energy import objective_sec1, objective_sec6
from .graph import build_geometric_graph, load_graph, save_graph
from .solver import SolverError, detect_edges, irls_minimize

EXIT_VALIDATION = 2
EXIT_SOLVER = 3

ZETA_FLAGS = {"ms": "ms_arctan", "tv": "tv_smoothed", "lap": "quadratic"}
# --delta of denoise, housing and gamma
DEFAULT_DELTA = 0.001


def _zeta_from_flags(args) -> ZetaSpec:
    kind = ZETA_FLAGS[args.zeta]
    if kind == "tv_smoothed":
        return ZetaSpec(kind, delta=args.delta)
    return ZetaSpec(kind)


def _blas(library) -> dict:
    """Name and version of the BLAS that ``library`` (numpy or scipy) was built against."""
    blas = library.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": blas["name"], "version": blas["version"]}


def _write_manifest(args, record: dict, duration: float) -> None:
    """Write ``<--out>.manifest.json``: the resolved flags plus ``record``.

    ``record`` is what the subcommand returned: its ``inputs`` and ``outputs``
    and, for denoise and housing, the ``graph`` and ``solver`` statistics and
    the graph-build ``threads``; for gamma and the spike counterexample, the
    sweep axis and candidate-pair counts of each energy evaluation (``pairs``,
    one entry per n or k).  ``environment`` holds the Python, numpy and scipy
    versions, the name and version of the BLAS each of numpy and scipy was
    built against, and the OPENBLAS_NUM_THREADS and OMP_NUM_THREADS settings
    (None when unset), on which sums over more than 10,000 entries can depend.
    """
    import os

    manifest = {
        "command": args.subcommand,
        "config": {k: v for k, v in vars(args).items() if k != "func"},
        "seed": getattr(args, "seed", None),
        "duration_s": duration,
        "version": __version__,
        "environment": {
            "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
            "numpy_blas": _blas(np), "scipy_blas": _blas(scipy),
            **{name: os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        },
        **record,
    }
    with open(args.out + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def read_cloud_csv(path) -> PointCloud:
    """Read a point/label CSV with header x0,...,x{d-1}[,f]."""
    header, data = read_table(path)
    has_labels = header[-1] == "f"
    d = len(header) - has_labels
    if d < 1 or header[:d] != [f"x{i}" for i in range(d)]:
        raise ValidationError(f"{path}: expected header x0,...,x{{d-1}}[,f], got {','.join(header)!r}")
    return PointCloud(points=data[:, :d], labels=data[:, d] if has_labels else None)


def write_cloud_csv(path, cloud: PointCloud) -> None:
    """Write a point/label CSV with header x0,...,x{d-1}[,f] and \\r\\n line ends."""
    header = [f"x{i}" for i in range(cloud.dim)]
    columns = list(cloud.points.T)
    if cloud.labels is not None:
        header.append("f")
        columns.append(cloud.labels)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        write_rows(fh, ",".join(["%.17g"] * len(columns)) + "\r\n", columns)


def _write_values_csv(path, name, values) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(name + "\n")
        write_rows(fh, "%.17g\n", [values])


def _read_values_csv(path) -> np.ndarray:
    """Read a one-column CSV of finite values after a header line."""
    return read_table(path, columns=1)[1][:, 0]


def _int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise ValidationError(f"{flag} must be comma-separated integers, got {text!r}") from None


def _solver_config(args) -> SolverConfig:
    return SolverConfig(
        lam=args.lam,
        eps=args.eps,
        sigma=args.sigma,
        k_max=args.k,
        cg_tol=args.cg_tol,
        irls_tol=args.irls_tol,
        irls_max_iter=args.irls_max_iter,
        cutoff_multiplier=args.cutoff,
    )


def _minimize(args, cloud: PointCloud, truth=None):
    """The run path of denoise and housing: graph, IRLS, the ``u`` file, the energy line.

    Prints the L1 error against ``truth`` if given, then the final energy in
    the scaling ``--sec1`` selects.  Returns the graph, the solution and the
    manifest record with the graph and solver statistics and the graph-build
    thread count.
    """
    if args.threads < 1:
        raise ValidationError(f"--threads must be a positive integer, got {args.threads}")
    spec = _zeta_from_flags(args)
    config = _solver_config(args)
    graph_stats: dict = {}
    graph = build_geometric_graph(cloud, config, workers=args.threads, stats=graph_stats)
    solver_stats: dict = {}
    solution = irls_minimize(graph, cloud.labels, spec, config, stats=solver_stats)
    _write_values_csv(args.out, "u", solution.u)
    if truth is not None:
        print(f"l1_error {l1_error(solution.u, truth):.6f}")
    objective = objective_sec1 if args.sec1 else objective_sec6
    e = objective(graph, solution.u, cloud.labels, spec, args.lam)
    print(
        f"energy[{e.parameterization}] fidelity={e.fidelity:.9g} "
        f"regularizer={e.regularizer:.9g} total={e.total:.9g}"
    )
    return graph, solution, {"graph": graph_stats, "solver": solver_stats, "threads": args.threads}


def cmd_denoise(args) -> dict:
    cloud = read_cloud_csv(args.input)
    if cloud.labels is None:
        raise ValidationError("--input must carry labels (an 'f' column)")
    truth = _read_values_csv(args.truth) if args.truth else None
    if truth is not None and len(truth) != cloud.n:
        raise ValidationError(f"{args.truth}: {len(truth)} values, expected {cloud.n}")
    graph, solution, record = _minimize(args, cloud, truth)
    outputs = [args.out]
    if args.trace:
        with open(args.trace, "w") as fh:
            for entry in solution.energy_trace:
                fh.write(json.dumps(entry) + "\n")
        outputs.append(args.trace)
    if args.graph_out:
        save_graph(graph, args.graph_out)
        outputs.append(args.graph_out)
    print(
        f"denoise: n={cloud.n} edges={graph.n_edges} iterations={solution.iterations} "
        f"converged={solution.converged}"
    )
    return {"inputs": [args.input], "outputs": outputs, **record}


def cmd_housing(args) -> dict:
    cloud = ingest_housing(args.input, args.max_longitude, normalize=not args.raw_labels)
    print(f"housing: {cloud.n} records ingested")
    graph, solution, record = _minimize(args, cloud)
    points_path = args.out + ".points.csv"
    write_cloud_csv(points_path, cloud)
    print(
        f"housing: edges={graph.n_edges} iterations={solution.iterations} "
        f"converged={solution.converged}"
    )
    return {"inputs": [args.input], "outputs": [args.out, points_path], **record}


def cmd_edges(args) -> dict:
    graph = load_graph(args.graph)
    u = _read_values_csv(args.solution)
    flagged = detect_edges(graph, u, args.jump)
    ii, jj = np.array(flagged, dtype=np.int64).reshape(-1, 2).T
    with open(args.out, "w", newline="") as fh:
        fh.write("i,j,jump\n")
        write_rows(fh, "%d,%d,%.17g\n", (ii, jj, np.abs(u[ii] - u[jj])))
    print(f"edges: {len(flagged)} flagged")
    return {"inputs": [args.graph, args.solution], "outputs": [args.out]}


def cmd_synth(args) -> dict:
    case = generate_synthetic(args.n, args.noise, args.seed)
    write_cloud_csv(args.out, case.cloud)
    truth_path = args.truth_out or (args.out + ".truth.csv")
    _write_values_csv(truth_path, "truth", case.truth)
    print(f"synth: wrote {case.cloud.n} samples")
    return {"inputs": [], "outputs": [args.out, truth_path]}


def cmd_gamma(args) -> dict:
    case = SmoothCase() if args.case == "smooth" else StepCase()
    n_list = _int_list(args.n, "--n")
    for flag, value in (("--sigma", args.sigma), ("--cutoff", args.cutoff)):
        if value is not None and not 0 < value < np.inf:
            raise ValidationError(f"{flag} must be positive and finite, got {value}")
    spec = _zeta_from_flags(args)
    rows = gamma_experiment(
        case, n_list, spec, p=args.p, q=args.q, seed=args.seed,
        sigma=args.sigma, cutoff_multiplier=args.cutoff,
    )
    keys = ("n", "eps", "discrete", "continuum", "ratio", "seed")
    with open(args.out, "w", newline="") as fh:
        fh.write(",".join(keys) + "\n")
        write_rows(fh, "%d,%.17g,%.17g,%.17g,%.17g,%d\n", [[r[key] for r in rows] for key in keys])
    for r in rows:
        print(f"n={r['n']} eps={r['eps']:.4f} ratio={r['ratio']:.4f}")
    pairs = [{"n": r["n"], **r["pairs"]} for r in rows]
    return {"inputs": [], "outputs": [args.out], "pairs": pairs}


def cmd_consistency(args) -> dict:
    n_list = _int_list(args.n, "--n")
    k_list = _int_list(args.k, "--k")
    # the counterexample draws no sample, so its mode alone would not check --seed
    check_seed(args.seed)
    outputs = []
    record = {"inputs": [], "outputs": outputs}
    # both experiments run before either file is written, so a rejected
    # --d or --k leaves no output behind
    binning = args.mode in ("binning", "both")
    rows = density_deviation_curve(n_list, d=args.d, seed=args.seed) if binning else []
    spikes = args.mode in ("counterexample", "both")
    results = [dyadic_counterexample(k, alpha=args.alpha, d=args.counter_d) for k in k_list] if spikes else []
    if binning:
        path = args.out + ".binning.csv"
        keys = ("n", "delta", "sup_deviation", "ell", "eps", "ell_over_eps", "seed")
        with open(path, "w", newline="") as fh:
            fh.write(",".join(keys) + "\n")
            write_rows(fh, "%d,%.17g,%.17g,%.17g,%.17g,%.17g,%d\n", [[r[key] for r in rows] for key in keys])
        outputs.append(path)
        for r in rows:
            print(f"n={r['n']} sup|density-1|={r['sup_deviation']:.4f}")
    if spikes:
        path = args.out + ".counterexample.jsonl"
        record["pairs"] = [{"k": res["k"], **res["pairs"]} for res in results]
        with open(path, "w") as fh:
            for res in results:
                fh.write(
                    json.dumps({"k": res["k"], "d": res["d"], "l1": res["l1"],
                                "energy": res["energy"], "max_u": res["max_u"]})
                    + "\n"
                )
                print(f"k={res['k']} l1={res['l1']:.4f} energy={res['energy']:.4f}")
        outputs.append(path)
    return record


def render_svg(points, values, edges, out_path):
    """Write an 800-pixel square SVG of the points colored by value, with the (m, 2) vertex pairs ``edges`` in red.

    Colors follow a fixed linear ramp from blue (lowest value) to red (highest).
    """
    points = np.asarray(points, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(points) != len(values):
        raise ValidationError("points and values must have equal length")
    if points.ndim != 2 or points.shape[1] < 2:
        raise ValidationError("plot needs points with at least 2 coordinates")
    if not np.all(np.isfinite(values)):
        raise ValidationError("plot values must be finite")
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    bad = np.flatnonzero(np.any((edges < 0) | (edges >= len(points)), axis=1))
    if bad.size:
        i, j = edges[bad[0]].tolist()
        raise ValidationError(f"edge ({i}, {j}) out of range")
    ii, jj = edges.T
    lo = points.min(axis=0)
    span = points.max(axis=0) - lo
    span[span == 0] = 1.0
    size, margin = 800, 20
    scale = (size - 2 * margin) / span.max()
    x = margin + (points[:, 0] - lo[0]) * scale
    y = size - margin - (points[:, 1] - lo[1]) * scale
    vmin, vmax = float(values.min()), float(values.max())
    vspan = vmax - vmin if vmax > vmin else 1.0
    level = np.minimum(np.maximum((values - vmin) / vspan, 0.0), 1.0)
    # np.round, like round, takes halves to the even neighbor
    red = np.round(255 * level).astype(np.int64)
    blue = np.round(255 * (1.0 - level)).astype(np.int64)
    with open(out_path, "w") as fh:
        fh.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
            f'viewBox="0 0 {size} {size}">\n<rect width="{size}" height="{size}" fill="white"/>\n'
        )
        write_rows(
            fh, '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="red" stroke-width="1.5"/>\n',
            (x[ii], y[ii], x[jj], y[jj]),
        )
        write_rows(fh, '<circle cx="%.2f" cy="%.2f" r="2" fill="#%02x40%02x"/>\n', (x, y, red, blue))
        fh.write("</svg>\n")


def cmd_plot(args) -> dict:
    cloud = read_cloud_csv(args.points)
    values = _read_values_csv(args.values) if args.values else cloud.labels
    if values is None:
        raise ValidationError("--values required when the points file has no labels")
    edges = vertex_pairs(args.edges, read_table(args.edges, columns=3)[1]) if args.edges else []
    render_svg(cloud.points, values, edges, args.out)
    print(f"plot: wrote {args.out}")
    return {"inputs": [p for p in (args.points, args.values, args.edges) if p], "outputs": [args.out]}


def _add_solver_flags(p):
    p.add_argument("--zeta", choices=sorted(ZETA_FLAGS), default="ms")
    # the defaults are SolverConfig's (a dataclass field's default is its class attribute)
    p.add_argument("--lambda", dest="lam", type=float, default=SolverConfig.lam)
    p.add_argument("--eps", type=float, default=SolverConfig.eps)
    p.add_argument("--sigma", type=float, default=SolverConfig.sigma)
    p.add_argument("--k", type=int, default=SolverConfig.k_max)
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA, help="tv smoothing offset")
    p.add_argument(
        "--cutoff", type=float, default=SolverConfig.cutoff_multiplier, help="truncation radius / (sigma eps)"
    )
    p.add_argument("--cg-tol", type=float, default=SolverConfig.cg_tol)
    p.add_argument("--irls-tol", type=float, default=SolverConfig.irls_tol)
    p.add_argument("--irls-max-iter", type=int, default=SolverConfig.irls_max_iter)
    p.add_argument("--threads", type=int, default=1, help="graph-build workers")
    p.add_argument(
        "--sec1", action="store_true",
        help="report the final energy in the published-form scaling instead of the solver's",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gms", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("denoise", help="minimize the graph Mumford-Shah objective on labeled points")
    p.add_argument("--input", required=True, help="points CSV with labels")
    p.add_argument("--out", required=True, help="output u CSV")
    p.add_argument("--trace", help="energy trace JSONL")
    p.add_argument("--graph-out", help="save the constructed graph edge list")
    p.add_argument("--truth", help="truth sidecar CSV; prints the L1 error")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("edges", help="flag edges with large jumps in a solution")
    p.add_argument("--solution", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--jump", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_edges)

    p = sub.add_parser("synth", help="generate the synthetic piecewise-planar benchmark")
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--noise", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--truth-out")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("gamma", help="discrete-vs-continuum energy ratio experiment")
    p.add_argument("--case", choices=["smooth", "step"], required=True)
    p.add_argument("--n", default="1000,4000,16000", help="comma-separated sample sizes")
    p.add_argument("--zeta", choices=sorted(ZETA_FLAGS), default="ms")
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--q", type=float, default=0.0)
    p.add_argument("--sigma", type=float, default=None, help="kernel width (case default if omitted)")
    p.add_argument("--cutoff", type=float, default=3.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("consistency", help="binned-measure convergence and the spike counterexample")
    p.add_argument("--mode", choices=["binning", "counterexample", "both"], default="both")
    p.add_argument("--n", default="1000,10000,100000")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--k", default="3,4,5")
    p.add_argument("--alpha", type=float, default=0.7)
    p.add_argument("--counter-d", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output path stem")
    p.set_defaults(func=cmd_consistency)

    p = sub.add_parser("housing", help="denoise price-per-square-foot records")
    p.add_argument("--input", required=True, help="housing CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--max-longitude", type=float, default=DEFAULT_MAX_LONGITUDE)
    p.add_argument("--raw-labels", action="store_true", help="skip max-normalization")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_housing)
    # paper-matched defaults for the housing run
    p.set_defaults(eps=0.04, lam=14.0, sigma=1.0, k=15)

    p = sub.add_parser("plot", help="SVG scatter of values with flagged edges")
    p.add_argument("--points", required=True)
    p.add_argument("--values")
    p.add_argument("--edges")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.time()
    try:
        record = args.func(args)
        _write_manifest(args, record, time.time() - t0)
        return 0
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
