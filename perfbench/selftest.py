"""Self-test of the benchmark at tiny sizes; finishes in well under a minute.

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

Checks that the output checker rejects corrupted outputs, that every metric
named in BENCHMARK.json is emitted with its unit for every workload, that
``--seed`` changes the inputs, and that the benchmark fails without a source
tree.  Scratch files go under .perfbench/ in the checkout.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench" / "selftest"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path[:0] = [str(HERE), str(ROOT / "src")]
import workloads  # noqa: E402
from run import UNSPANNED_TOL_S, WORKLOADS  # noqa: E402


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def fresh(name):
    path = SCRATCH / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def test_checker_rejects_corrupted_output():
    import gms.cli

    denoise = workloads.get("denoise-ms", tiny=True)
    inp, out = fresh("inp"), fresh("out")
    for argv in denoise.inputs(3, inp):
        with redirect_stdout(StringIO()):
            assert gms.cli.main(argv) == 0
    codes, stdouts = [], []
    for argv in denoise.calls(3, inp, out):
        buf = StringIO()
        with redirect_stdout(buf):
            codes.append(gms.cli.main(argv))
        stdouts.append(buf.getvalue())
    assert denoise.check(3, inp, out, codes, stdouts)[0] == []
    assert denoise.check(3, inp, out, [0, 2], stdouts)[0]

    u = (out / "u.csv").read_text().splitlines()
    (out / "u.csv").write_text("\n".join(u[:5] + ["nan"] + u[6:]) + "\n")
    assert any("non-finite" in p for p in denoise.check(3, inp, out, codes, stdouts)[0])
    (out / "u.csv").write_text("\n".join(u) + "\n")

    trace = (out / "trace.jsonl").read_text().splitlines()
    last = json.loads(trace[-1])
    last["total"] += 1.0
    (out / "trace.jsonl").write_text("\n".join(trace[:-1] + [json.dumps(last)]) + "\n")
    assert any("rises" in p for p in denoise.check(3, inp, out, codes, stdouts)[0])

    gamma = workloads.get("gamma-step")
    ref = workloads.REFERENCE["gamma-step"]
    for discrete, ok in ((ref["discrete"], True), (ref["discrete"] * (1 + 1e-4), False)):
        (out / "gamma.csv").write_text(
            "n,eps,discrete,continuum,ratio,seed\n"
            f"64000,0.044,{discrete!r},4.8664138205072822,0.975,0\n"
        )
        assert (gamma.check(ref["seed"], inp, out, [0], [""])[0] == []) is ok

    spike = workloads.get("spike-d3")
    energy = workloads.REFERENCE["spike-d3"]["energy"]
    for value, ok in ((energy, True), (energy * 1.001, False)):
        (out / "spike.counterexample.jsonl").write_text(
            json.dumps({"k": 5, "d": 3, "l1": 0.95, "energy": value, "max_u": 43.2}) + "\n"
        )
        assert (spike.check(7, inp, out, [0], [""])[0] == []) is ok


def test_every_metric_emitted_with_its_unit():
    groups = {"0": SPEC["end_to_end"], "1": SPEC["per_layer"]}
    for name in WORKLOADS:
        for trace, spec in groups.items():
            detail, result = result_of(bench("--workload", name, "--seed", "1", "--seconds", "1",
                                             "--trace", trace, "--tiny"))
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0, detail
            assert {m["name"]: m["unit"] for m in spec} == {
                k: v["unit"] for k, v in result["metrics"].items()
            }
            assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            if trace == "1":
                assert abs(detail["unspanned_s"]) <= UNSPANNED_TOL_S, detail
            for key in ("nproc", "cpu_model", "numpy", "scipy", "blas", "gms_threads", "seed"):
                assert key in detail["environment"]


def test_seed_changes_inputs():
    clouds = []
    for seed in ("0", "1"):
        inp = fresh(f"seed{seed}")
        probe = subprocess.run([sys.executable, str(HERE / "probe.py"), "denoise-ms", seed, str(inp),
                                "--tiny"], capture_output=True, text=True, timeout=60,
                               env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        assert probe.returncode == 0, probe.stderr
        clouds.append((inp / "cloud.csv").read_bytes())
    assert clouds[0] != clouds[1]
    energies = [
        result_of(bench("--workload", "gamma-step", "--seed", seed, "--seconds", "1", "--trace", "0",
                        "--tiny"))[1]["metrics"]["energy_total"]["value"]
        for seed in ("0", "1")
    ]
    assert energies[0] != energies[1]


def test_fails_without_source_tree():
    bare = fresh("bare")
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "denoise-ms", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=bare, script=bare / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


if __name__ == "__main__":
    failed = 0
    for test in [v for k, v in sorted(globals().items()) if k.startswith("test_")]:
        try:
            test()
            print(f"PASS {test.__name__}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    sys.exit(1 if failed else 0)
