#!/usr/bin/env python3
"""Benchmark of the gms command line, run from the root of a source checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

gms is imported from ./src; nothing is built or installed.  The run

1. fixes the environment the program sees (no GMS_THREADS, one BLAS thread);
2. measures set-up -- importing gms, numpy and scipy and generating the
   inputs from the seed -- in SETUP_REPEATS fresh interpreters (probe.py),
   about half of them before step 3 and the rest after it, and keeps the
   median;
3. calls ``gms.cli.main`` in this process, one operation after another,
   until ``--seconds`` have passed, checking every operation's output;
4. prints a detail line (environment, error rate, quality values, tail
   latency) and, as the last line, the result JSON.

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` it alternates untraced and traced operations and holds the
per-layer metrics; the spans go to .perfbench/trace-<workload>-seed<n>.jsonl.
Workloads are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = ("denoise-ms", "denoise-tv", "gamma-step", "spike-d3")
SETUP_REPEATS = 9
# Largest gap allowed between the traced operations' measured wall time and
# the sum of their spans' self times: the span wrappers' own bookkeeping.
UNSPANNED_TOL_S = 1e-3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "energy_total": "1"}
PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "datasets.self_s": "s",
    "datasets.synth_s": "s",
    "graph.self_s": "s",
    "graph.build_s": "s",
    "graph.save_s": "s",
    "graph.load_s": "s",
    "graph.edges": "count",
    "graph.build_us_per_edge": "us",
    "solver.self_s": "s",
    "solver.irls_self_s": "s",
    "solver.z_update_s": "s",
    "solver.assemble_s": "s",
    "solver.solve_self_s": "s",
    "solver.irls_iters": "count",
    "solver.cg_iters": "count",
    "solver.cg_iters_per_irls": "count",
    "solver.us_per_cg_iter": "us",
    "energy.self_s": "s",
    "energy.objective_s": "s",
    "energy.calls": "count",
    "core.zeta_s": "s",
    "continuum.self_s": "s",
    "continuum.sampled_energy_s": "s",
    "continuum.pairs": "count",
    "continuum.ns_per_pair": "ns",
    "consistency.self_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def fix_environment() -> None:
    """Pin what the program reads from the environment, for this process and its children."""
    os.environ.pop("GMS_THREADS", None)
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))


def environment(seed) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "gms").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {v: os.environ.get(v) for v in (*THREAD_VARS, "GMS_THREADS")},
        # GMS_THREADS is unset and --threads is not passed: the CLI default.
        "gms_threads": 1,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def measure_setup(name, seed, inp, tiny, repeats) -> list[float]:
    """Set-up times of ``repeats`` fresh interpreters.

    Leaves the generated inputs in ``inp``.
    """
    times = []
    for _ in range(repeats):
        cmd = [sys.executable, str(HERE / "probe.py"), name, str(seed), str(inp)]
        proc = subprocess.run(cmd + (["--tiny"] if tiny else []), capture_output=True,
                              text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed (exit {proc.returncode}): {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def run_call(cli, argv):
    """One ``gms.cli.main`` call: (exit code or error text, captured stdout, wall seconds)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash fails the operation; the run goes on
            code = traceback.format_exc(limit=-3)
        wall = perf_counter() - t0
    return code, out.getvalue(), wall


def run_op(cli, workload, seed, inp, out):
    """One operation with fresh output files: (wall seconds, problems, checked values)."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    codes, stdouts, wall = [], [], 0.0
    for argv in workload.calls(seed, inp, out):
        code, text, seconds = run_call(cli, argv)
        codes.append(code)
        stdouts.append(text)
        wall += seconds
        if code != 0:
            break
    try:
        problems, values = workload.check(seed, inp, out, codes, stdouts)
    except (OSError, ValueError, KeyError, StopIteration) as exc:
        problems, values = [f"output unreadable: {exc!r}"], {}
    return wall, problems, values


def tail(samples):
    """Highest percentile with at least ten samples beyond it (None below 11 samples)."""
    s = sorted(samples)
    if len(s) < 11:
        return None
    return {"percentile": 100.0 * (len(s) - 10) / len(s), "value": s[-11]}


class Tally:
    """Outcome of every operation of a run, and problems of the run as a whole."""

    def __init__(self):
        self.attempted = 0
        self.problems = []
        self.run_problems = []
        self.values = {}

    def add(self, problems, values):
        self.attempted += 1
        if problems:
            self.problems.append(problems)
        for key, value in values.items():
            self.values.setdefault(key, []).append(value)

    @property
    def failed(self):
        return len(self.problems)


def untraced_run(cli, workload, seed, inp, out, seconds, tally):
    walls = []
    start = perf_counter()
    while True:
        wall, problems, values = run_op(cli, workload, seed, inp, out)
        walls.append(wall)
        tally.add(problems, values)
        if perf_counter() - start + statistics.fmean(walls) > seconds:
            return walls


def traced_run(cli, workload, seed, inp, out, seconds, tally):
    from tracer import Tracer, self_time_sum, summarize

    tracer = Tracer()
    tracer.install("setup")
    try:
        for argv in workload.inputs(seed, inp):
            code, _, _ = run_call(cli, argv)
            if code != 0:
                raise RuntimeError(f"traced input generation exited {code}")
    finally:
        tracer.uninstall()
    untraced, traced, runs = [], [], []
    start = perf_counter()
    while True:
        wall, problems, values = run_op(cli, workload, seed, inp, out)
        untraced.append(wall)
        tally.add(problems, values)
        run = f"op{len(runs)}"
        tracer.install(run)
        try:
            wall, problems, values = run_op(cli, workload, seed, inp, out)
        finally:
            tracer.uninstall()
        runs.append(run)
        traced.append(wall)
        tally.add(problems, values)
        if perf_counter() - start + statistics.fmean(untraced) + statistics.fmean(traced) > seconds:
            break
    tracer.count_pairs()
    trace_file = OUT / f"trace-{workload.name}-seed{seed}.jsonl"
    tracer.write_jsonl(trace_file)
    metrics = summarize(tracer.spans, runs)
    metrics["datasets.synth_s"] = sum(
        s["end"] - s["start"] for s in tracer.spans
        if s["run"] == "setup" and s["name"] == "datasets.synth"
    )
    metrics["trace.wall_s"] = statistics.fmean(traced)
    metrics["trace.untraced_wall_s"] = statistics.fmean(untraced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    unspanned = metrics["trace.wall_s"] - self_time_sum(tracer.spans, runs)
    if abs(unspanned) > UNSPANNED_TOL_S:
        tally.run_problems.append(
            f"per-layer self times miss the traced wall time by {unspanned:.6f} s per operation")
    return metrics, {"trace_file": str(trace_file.relative_to(ROOT)), "missing_hooks": tracer.missing,
                     "traced_operations": len(runs), "unspanned_s": unspanned}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes: denoise n=500, gamma n=2000, spike k=3")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gms" / "cli.py").is_file():
        print(f"error: no gms source tree at {SRC}", file=sys.stderr)
        return 2
    fix_environment()
    import gms.cli as cli

    import workloads

    workload = workloads.get(args.workload, args.tiny)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    inp, out = work / "inputs", work / "outputs"
    inp.mkdir(parents=True)
    tally = Tally()
    try:
        # setup_s is an end-to-end metric: a traced run needs only the inputs.
        repeats = 1 if args.tiny or args.trace else SETUP_REPEATS
        setup_times = measure_setup(args.workload, args.seed, inp, args.tiny, (repeats + 1) // 2)
        if args.trace:
            metrics, extra = traced_run(cli, workload, args.seed, inp, out, args.seconds, tally)
            units = PER_LAYER_UNITS
        else:
            walls = untraced_run(cli, workload, args.seed, inp, out, args.seconds, tally)
            # The later samples spread set-up over the whole run, not its first seconds.
            setup_times += measure_setup(args.workload, args.seed, inp, args.tiny, repeats // 2)
            metrics = {
                "wall_s": statistics.median(walls),
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                # None only when every operation failed, so the result is not correct.
                "energy_total": statistics.median(tally.values.get("energy_total", [None])),
            }
            extra = {"wall_s": {"median": metrics["wall_s"], "tail": tail(walls), "samples": len(walls),
                                "all": walls}}
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": bool(args.trace),
        "operations": tally.attempted,
        "error_rate": tally.failed / tally.attempted,
        "setup_s": statistics.median(setup_times),
        **extra,
        **{k: statistics.median(v) for k, v in tally.values.items() if k in ("l1_error", "ratio_err")},
        "problems": tally.run_problems + tally.problems[:5],
        "environment": environment(args.seed),
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not (tally.problems or tally.run_problems),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
