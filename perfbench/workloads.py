"""Benchmark workloads: the gms CLI calls each one makes and the checks on their outputs.

Every workload is driven through ``gms.cli.main`` with the documented
subcommands.  ``inputs`` lists the calls that generate the inputs from the
seed (set-up, not timed as an operation); ``calls`` lists the calls of one
operation.  ``check`` inspects one operation's exit codes, printed lines and
files and returns the list of problems found (empty when the output is
correct) together with the values it read.

The quality bands and the seed-commit reference values hold for the full-size
workloads only; the tiny sizes used by the smoke self-test check the rest.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

import numpy as np

REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())
# The gamma and spike energies are deterministic sums, so they must repeat to
# rounding.  The denoiser's l1_error moves by a few 1e-4 (relative) when the
# IRLS stopping point shifts by an iteration (irls_tol 1e-5), so a correct
# solver change can move it that far; it is checked to l1_rel_tol.
EXACT_REL_TOL = REFERENCE["exact_rel_tol"]
L1_REL_TOL = REFERENCE["l1_rel_tol"]

# Criterion-1 band for the denoiser's L1 error and criterion-5 band for the
# step-case ratio; criterion 7 bounds the spike's L1 norm.
L1_ERROR_BAND = (0.015, 0.06)
RATIO_BAND = (0.8, 1.2)
SPIKE_L1_BAND = (1 / 8, 8)

_TOTAL = re.compile(r"energy\[sec6\] .*total=(\S+)")


def _off_reference(name, value, ref, rel_tol=EXACT_REL_TOL):
    if abs(value / ref - 1.0) > rel_tol:
        return [f"{name} {value!r} differs from the seed-commit reference {ref!r} by more than {rel_tol:g}"]
    return []


def _read_values(path) -> np.ndarray:
    with open(path) as fh:
        next(fh)  # header
        return np.array([float(line) for line in fh if line.strip()])


class Denoise:
    """``gms denoise`` on the synthetic cloud, then ``gms edges`` on its outputs."""

    def __init__(self, name, zeta, lam, tiny):
        self.name = name
        self.zeta = zeta
        self.lam = lam
        self.n = 500 if tiny else 10_000
        self.full = not tiny

    def inputs(self, seed, inp):
        return [["synth", "--n", str(self.n), "--seed", str(seed), "--out", str(inp / "cloud.csv")]]

    def calls(self, seed, inp, out):
        return [
            [
                "denoise", "--input", str(inp / "cloud.csv"), "--out", str(out / "u.csv"),
                "--truth", str(inp / "cloud.csv.truth.csv"),
                "--zeta", self.zeta, "--lambda", self.lam, "--eps", "0.0225", "--sigma", "5",
                "--k", "8", "--irls-tol", "1e-5",
                "--trace", str(out / "trace.jsonl"), "--graph-out", str(out / "graph.txt"),
            ],
            [
                "edges", "--solution", str(out / "u.csv"), "--graph", str(out / "graph.txt"),
                "--jump", "0.075", "--out", str(out / "edges.csv"),
            ],
        ]

    def check(self, seed, inp, out, codes, stdouts):
        if codes != [0, 0]:
            return [f"exit codes {codes}, expected [0, 0]"], {}
        problems = []
        u = _read_values(out / "u.csv")
        truth = _read_values(inp / "cloud.csv.truth.csv")
        if u.shape != (self.n,):
            return [f"u has {u.size} values, expected {self.n}"], {}
        if not np.all(np.isfinite(u)):
            problems.append("u has non-finite values")
        l1 = float(np.mean(np.abs(u - truth)))
        match = _TOTAL.search(stdouts[0])
        if match is None:
            return problems + ["no sec6 energy line printed"], {}
        total = float(match.group(1))
        if "converged=True" not in stdouts[0]:
            problems.append("denoise did not report converged=True")
        with open(out / "trace.jsonl") as fh:
            totals = [json.loads(line)["total"] for line in fh]
        rises = [i for i in range(1, len(totals)) if totals[i] > totals[i - 1]]
        if rises:
            problems.append(f"energy trace rises at IRLS iterations {rises}")
        if self.full:
            if not (L1_ERROR_BAND[0] <= l1 <= L1_ERROR_BAND[1]):
                problems.append(f"l1_error {l1:.6g} outside {L1_ERROR_BAND}")
            ref = REFERENCE[self.name]
            if seed == ref["seed"]:
                problems += _off_reference("l1_error", l1, ref["l1_error"], L1_REL_TOL)
        return problems, {"energy_total": total, "l1_error": l1}


class GammaStep:
    """``gms gamma`` for the step case: discrete energy of n uniform samples."""

    name = "gamma-step"

    def __init__(self, tiny):
        self.n = 2000 if tiny else 64_000
        self.full = not tiny

    def inputs(self, seed, inp):
        return []

    def calls(self, seed, inp, out):
        return [["gamma", "--case", "step", "--n", str(self.n), "--seed", str(seed),
                 "--out", str(out / "gamma.csv")]]

    def check(self, seed, inp, out, codes, stdouts):
        if codes != [0]:
            return [f"exit code {codes}, expected [0]"], {}
        with open(out / "gamma.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != 1 or int(rows[0]["n"]) != self.n:
            return [f"expected one row for n={self.n}, got {len(rows)}"], {}
        discrete, ratio = float(rows[0]["discrete"]), float(rows[0]["ratio"])
        if not (math.isfinite(discrete) and math.isfinite(ratio)):
            return ["non-finite discrete energy or ratio"], {}
        problems = []
        if self.full:
            if not (RATIO_BAND[0] <= ratio <= RATIO_BAND[1]):
                problems.append(f"ratio {ratio:.6g} outside {RATIO_BAND}")
            ref = REFERENCE[self.name]
            if seed == ref["seed"]:
                problems += _off_reference("discrete", discrete, ref["discrete"])
        return problems, {"energy_total": discrete, "ratio_err": abs(ratio - 1.0)}


class SpikeD3:
    """``gms consistency --mode counterexample`` at one dyadic level in d=3 (seed-free)."""

    name = "spike-d3"

    def __init__(self, tiny):
        self.k = 3 if tiny else 5
        self.full = not tiny

    def inputs(self, seed, inp):
        return []

    def calls(self, seed, inp, out):
        return [["consistency", "--mode", "counterexample", "--k", str(self.k),
                 "--out", str(out / "spike")]]

    def check(self, seed, inp, out, codes, stdouts):
        if codes != [0]:
            return [f"exit code {codes}, expected [0]"], {}
        with open(out / "spike.counterexample.jsonl") as fh:
            rows = [json.loads(line) for line in fh if line.strip()]
        if len(rows) != 1 or rows[0]["k"] != self.k:
            return [f"expected one row for k={self.k}, got {len(rows)}"], {}
        l1, energy = rows[0]["l1"], rows[0]["energy"]
        if not (math.isfinite(l1) and math.isfinite(energy)):
            return ["non-finite l1 or energy"], {}
        problems = []
        if not (SPIKE_L1_BAND[0] <= l1 <= SPIKE_L1_BAND[1]):
            problems.append(f"spike l1 {l1:.6g} outside [1/8, 8]")
        if self.full:
            problems += _off_reference("spike energy", energy, REFERENCE[self.name]["energy"])
        return problems, {"energy_total": energy}


def get(name, tiny=False):
    if name == "denoise-ms":
        return Denoise(name, "ms", "162", tiny)
    if name == "denoise-tv":
        return Denoise(name, "tv", "438", tiny)
    if name == "gamma-step":
        return GammaStep(tiny)
    if name == "spike-d3":
        return SpikeD3(tiny)
    raise KeyError(name)
