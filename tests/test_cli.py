import contextlib
import io
import json
import math
import os
import platform
import re
import shlex
import subprocess
import sys
import tempfile
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gms.cli
from gms.cli import (
    _read_values_csv,
    _write_values_csv,
    build_parser,
    main,
    read_cloud_csv,
    render_svg,
    write_cloud_csv,
)
from gms.continuum import DivergentIntegralError
from gms.core import PointCloud, SolverConfig, ValidationError, ZetaSpec
from gms.datasets import IngestError, generate_synthetic, ingest_housing
from gms.energy import SingularityError
from gms.graph import build_geometric_graph, load_graph, save_graph
from gms.solver import irls_minimize

README = Path(__file__).resolve().parents[1] / "README.md"


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def synth_files(tmp_path):
    out = tmp_path / "cloud.csv"
    assert run("synth", "--n", 400, "--noise", "0.2", "--seed", 7, "--out", out) == 0
    return out, tmp_path / "cloud.csv.truth.csv"


class TestSynth:
    def test_outputs_exist(self, synth_files):
        cloud_path, truth_path = synth_files
        assert cloud_path.exists() and truth_path.exists()
        cloud = read_cloud_csv(cloud_path)
        assert cloud.n == 400 and cloud.labels is not None
        manifest = json.loads((cloud_path.parent / "cloud.csv.manifest.json").read_text())
        assert manifest["command"] == "synth" and manifest["seed"] == 7

    def test_reproducible_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("synth", "--n", 100, "--seed", 3, "--out", a)
        run("synth", "--n", 100, "--seed", 3, "--out", b)
        assert a.read_bytes() == b.read_bytes()


class TestDenoise:
    def test_pipeline(self, synth_files, tmp_path, capsys):
        cloud_path, truth_path = synth_files
        out = tmp_path / "u.csv"
        trace = tmp_path / "trace.jsonl"
        graph_out = tmp_path / "graph.txt"
        code = run(
            "denoise", "--input", cloud_path, "--out", out, "--trace", trace,
            "--graph-out", graph_out, "--truth", truth_path,
            "--zeta", "ms", "--lambda", "50", "--eps", "0.1",
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "l1_error" in captured and "converged=True" in captured
        assert "energy[sec6]" in captured
        u = np.array([float(x) for x in out.read_text().splitlines()[1:]])
        assert len(u) == 400
        entries = [json.loads(line) for line in trace.read_text().splitlines()]
        totals = [e["total"] for e in entries]
        assert all(b <= a + 1e-10 * abs(a) for a, b in zip(totals, totals[1:]))
        assert graph_out.exists()
        # edges subcommand on the produced artifacts
        edge_out = tmp_path / "edges.csv"
        assert run("edges", "--solution", out, "--graph", graph_out, "--jump", "0.075", "--out", edge_out) == 0
        lines = edge_out.read_text().splitlines()
        assert lines[0] == "i,j,jump"
        # huge threshold: nothing flagged
        empty_out = tmp_path / "none.csv"
        run("edges", "--solution", out, "--graph", graph_out, "--jump", "1e9", "--out", empty_out)
        assert empty_out.read_text().splitlines() == ["i,j,jump"]
        # plot the result
        svg = tmp_path / "plot.svg"
        assert run("plot", "--points", cloud_path, "--values", out, "--edges", edge_out, "--out", svg) == 0
        root = ET.fromstring(svg.read_text())
        circles = [e for e in root.iter() if e.tag.endswith("circle")]
        assert len(circles) == 400

    def test_sec1_reporting(self, synth_files, tmp_path, capsys):
        cloud_path, _ = synth_files
        out = tmp_path / "u.csv"
        assert run("denoise", "--input", cloud_path, "--out", out, "--sec1") == 0
        assert "energy[sec1]" in capsys.readouterr().out

    def test_deterministic(self, synth_files, tmp_path):
        cloud_path, _ = synth_files
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("denoise", "--input", cloud_path, "--out", a, "--lambda", "50")
        run("denoise", "--input", cloud_path, "--out", b, "--lambda", "50")
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("zeta", ["ms", "tv"])
    @settings(max_examples=4, deadline=None)
    @example(n=400, seed=7)
    @given(n=st.integers(20, 400), seed=st.integers(0, 2**16))
    def test_outputs_independent_of_thread_count(self, zeta, n, seed):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            cloud = tmp / "cloud.csv"
            assert run("synth", "--n", n, "--seed", seed, "--out", cloud) == 0
            for threads in ("1", "2"):
                out = tmp / threads
                out.mkdir()
                code = run(
                    "denoise", "--input", cloud, "--out", out / "u.csv", "--zeta", zeta, "--lambda", "50",
                    "--trace", out / "trace.jsonl", "--graph-out", out / "graph.txt", "--threads", threads,
                )
                assert code == 0
            for name in ("u.csv", "trace.jsonl", "graph.txt"):
                assert (tmp / "1" / name).read_bytes() == (tmp / "2" / name).read_bytes()

    def test_missing_input_exit_2(self, tmp_path, capsys):
        assert run("denoise", "--input", tmp_path / "nope.csv", "--out", tmp_path / "u.csv") == 2
        assert "error" in capsys.readouterr().err

    def test_bad_header_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        assert run("denoise", "--input", bad, "--out", tmp_path / "u.csv") == 2

    def test_unlabeled_input_exit_2(self, tmp_path):
        path = tmp_path / "pts.csv"
        write_cloud_csv(path, PointCloud(points=np.random.default_rng(0).random((10, 2))))
        assert run("denoise", "--input", path, "--out", tmp_path / "u.csv") == 2

    def test_truth_length_mismatch_exit_2_before_solving(self, synth_files, tmp_path, capsys):
        cloud_path, _ = synth_files
        truth = tmp_path / "truth.csv"
        truth.write_text("truth\n" + "0.5\n" * 100)
        out = tmp_path / "u.csv"
        assert run("denoise", "--input", cloud_path, "--out", out, "--truth", truth) == 2
        assert "100 values, expected 400" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_solver_failure_exit_3(self, synth_files, tmp_path):
        cloud_path, _ = synth_files
        code = run(
            "denoise", "--input", cloud_path, "--out", tmp_path / "u.csv",
            "--lambda", "50", "--cg-tol", "1e-300",
        )
        assert code == 3


class TestGraphManifest:
    def test_denoise_manifest_records_graph_stats(self, synth_files, tmp_path):
        cloud_path, _ = synth_files
        out, graph_out = tmp_path / "u.csv", tmp_path / "g.txt"
        assert run("denoise", "--input", cloud_path, "--out", out, "--graph-out", graph_out) == 0
        stats = json.loads((tmp_path / "u.csv.manifest.json").read_text())["graph"]
        graph = load_graph(graph_out)
        assert set(stats) == {"capped_vertices", "tie_fallbacks", "zero_distance_edges", "degree_histogram"}
        hist = stats["degree_histogram"]
        assert sum(hist) == graph.n
        assert sum(k * count for k, count in enumerate(hist)) == 2 * graph.n_edges
        # radius 0.3 on 400 uniform points: every vertex has more than k=8 candidates
        assert stats["capped_vertices"] == graph.n
        assert stats["tie_fallbacks"] == 0 and stats["zero_distance_edges"] == 0


class TestSolverManifest:
    @pytest.mark.parametrize("zeta", ["ms", "tv"])
    def test_denoise_manifest_records_solver_stats(self, synth_files, tmp_path, capsys, zeta):
        cloud_path, _ = synth_files
        out, trace = tmp_path / "u.csv", tmp_path / "trace.jsonl"
        code = run("denoise", "--input", cloud_path, "--out", out, "--trace", trace, "--zeta", zeta, "--lambda", "50")
        assert code == 0
        stats = json.loads((tmp_path / "u.csv.manifest.json").read_text())["solver"]
        assert set(stats) == {"irls_iters", "cg_iters", "factorizations", "orderings", "factor_nnz", "accelerated"}
        entries = [json.loads(line) for line in trace.read_text().splitlines()]
        assert stats["irls_iters"] == len(entries) - 1
        assert f"iterations={stats['irls_iters']} " in capsys.readouterr().out
        assert stats["cg_iters"] == sum(entry["cg_iters"] for entry in entries)
        if zeta == "ms":
            assert stats["factorizations"] == 0 and stats["orderings"] == 0 and stats["factor_nnz"] == 0
            assert stats["accelerated"] == 0
        else:
            # the tv systems outrun the Jacobi budget: one ordering, then every solve is factored
            assert stats["orderings"] == 1 and stats["factorizations"] >= 1 and stats["factor_nnz"] > 0
            assert stats["accelerated"] > 0

    def test_housing_manifest_records_solver_stats(self, tmp_path):
        csv_path = tmp_path / "houses.csv"
        csv_path.write_text(
            "id,long,lat,price,sqft_living\n"
            "1,-122.3,47.6,500000,2000\n2,-122.301,47.6,400000,1500\n3,-122.31,47.61,450000,1800\n"
        )
        assert run("housing", "--input", csv_path, "--out", tmp_path / "u.csv") == 0
        stats = json.loads((tmp_path / "u.csv.manifest.json").read_text())["solver"]
        assert stats["irls_iters"] >= 1 and stats["orderings"] <= 1


class TestCsvIo:
    def test_values_golden_bytes(self, tmp_path):
        path = tmp_path / "v.csv"
        _write_values_csv(path, "u", np.array([0.1, 1 / 3, -2.0, 1e-300, -0.0, 1.2345678901234567e19, 5e-324]))
        assert path.read_bytes() == (
            b"u\n0.10000000000000001\n0.33333333333333331\n-2\n1e-300\n-0\n"
            b"1.2345678901234567e+19\n4.9406564584124654e-324\n"
        )

    def test_values_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        values = np.concatenate([rng.standard_normal(500) * 10.0 ** rng.integers(-300, 300, 500), [0.0, -0.0]])
        path = tmp_path / "v.csv"
        _write_values_csv(path, "truth", values)
        assert _read_values_csv(path).tobytes() == values.tobytes()

    def test_cloud_round_trip_and_golden_bytes(self, tmp_path):
        rng = np.random.default_rng(4)
        cloud = PointCloud(points=rng.random((300, 3)), labels=rng.standard_normal(300))
        path = tmp_path / "c.csv"
        write_cloud_csv(path, cloud)
        back = read_cloud_csv(path)
        assert back.points.tobytes() == cloud.points.tobytes()
        assert back.labels.tobytes() == cloud.labels.tobytes()
        small = tmp_path / "s.csv"
        write_cloud_csv(small, PointCloud(points=[[0.1, 2.0]], labels=[-0.5]))
        assert small.read_bytes() == b"x0,x1,f\r\n0.10000000000000001,2,-0.5\r\n"
        assert read_cloud_csv(small).labels.tolist() == [-0.5]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("x0,x1\n0.5,1\n\n  \n0.25,2\n")
        cloud = read_cloud_csv(path)
        assert cloud.points.tolist() == [[0.5, 1.0], [0.25, 2.0]] and cloud.labels is None
        values = tmp_path / "v.csv"
        values.write_text("u\n1.5\n\n2.5\n")
        assert _read_values_csv(values).tolist() == [1.5, 2.5]

    def test_header_only_values_file_is_empty(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("u\n")
        assert _read_values_csv(path).shape == (0,)


class TestThreadCount:
    """A malformed ``--threads`` exits with code 2 before any work."""

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_malformed_flag(self, synth_files, tmp_path, capsys, value):
        out = tmp_path / "u.csv"
        assert run("denoise", "--input", synth_files[0], "--out", out, "--threads", value) == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()

    def test_non_integer_flag(self, synth_files, tmp_path):
        out = tmp_path / "u.csv"
        with pytest.raises(SystemExit) as exc:
            run("denoise", "--input", synth_files[0], "--out", out, "--threads", "abc")
        assert exc.value.code == 2
        assert not out.exists()

    def test_negative_flag(self, synth_files, tmp_path, capsys):
        out = tmp_path / "u.csv"
        assert run("denoise", "--input", synth_files[0], "--out", out, "--threads", "-3") == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()

    def test_denoise_manifest_records_threads(self, synth_files, tmp_path):
        out = tmp_path / "u.csv"
        manifest = tmp_path / "u.csv.manifest.json"
        assert run("denoise", "--input", synth_files[0], "--out", out) == 0
        assert json.loads(manifest.read_text())["threads"] == 1
        assert run("denoise", "--input", synth_files[0], "--out", out, "--threads", "2") == 0
        assert json.loads(manifest.read_text())["threads"] == 2


class TestEnvironmentManifest:
    @pytest.mark.parametrize("command", ["synth", "denoise", "edges"])
    def test_manifest_records_versions(self, synth_files, tmp_path, command):
        cloud_path, _ = synth_files
        u, graph = tmp_path / "u.csv", tmp_path / "g.txt"
        assert run("denoise", "--input", cloud_path, "--out", u, "--graph-out", graph) == 0
        assert run("edges", "--solution", u, "--graph", graph, "--jump", "0.1", "--out", tmp_path / "e.csv") == 0
        path = {"synth": cloud_path, "denoise": u, "edges": tmp_path / "e.csv"}[command]
        manifest = json.loads(Path(f"{path}.manifest.json").read_text())
        assert manifest["command"] == command
        blas = {lib.__name__: lib.show_config(mode="dicts")["Build Dependencies"]["blas"] for lib in (np, scipy)}
        assert manifest["environment"] == {
            "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
            **{f"{lib}_blas": {"name": b["name"], "version": b["version"]} for lib, b in blas.items()},
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        }

    def test_manifest_records_blas_thread_settings(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        out = tmp_path / "c.csv"
        assert run("synth", "--n", 5, "--out", out) == 0
        environment = json.loads(Path(f"{out}.manifest.json").read_text())["environment"]
        assert environment["OPENBLAS_NUM_THREADS"] == "1" and environment["OMP_NUM_THREADS"] is None


class TestEdgesTable:
    def test_golden_bytes(self, tmp_path):
        cloud = PointCloud(points=[[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [0.1, 0.1]])
        config = SolverConfig(eps=0.1, sigma=1.0, k_max=3, cutoff_multiplier=1.5)
        save_graph(build_geometric_graph(cloud, config), tmp_path / "g.txt")
        _write_values_csv(tmp_path / "u.csv", "u", [0.0, 1 / 3, -0.7, 2.5e-300])
        out = tmp_path / "e.csv"
        assert run("edges", "--graph", tmp_path / "g.txt", "--solution", tmp_path / "u.csv",
                   "--jump", "0.1", "--out", out) == 0
        assert out.read_bytes() == (
            b"i,j,jump\n0,1,0.33333333333333331\n0,2,0.69999999999999996\n"
            b"1,2,1.0333333333333332\n1,3,0.33333333333333331\n2,3,0.69999999999999996\n"
        )


class TestEdgesValidation:
    def test_length_mismatch_exit_2(self, synth_files, tmp_path):
        cloud_path, _ = synth_files
        out, graph_out = tmp_path / "u.csv", tmp_path / "g.txt"
        run("denoise", "--input", cloud_path, "--out", out, "--graph-out", graph_out)
        short = tmp_path / "short.csv"
        short.write_text("u\n1.0\n2.0\n")
        assert run("edges", "--solution", short, "--graph", graph_out, "--jump", "0.1", "--out", tmp_path / "e.csv") == 2


class TestMalformedInput:
    """Malformed files and flags exit with code 2 and a message, not a traceback."""

    def test_non_numeric_point_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x0,x1,f\n0.1,0.2,1.0\n0.3,oops,2.0\n")
        assert run("denoise", "--input", bad, "--out", tmp_path / "u.csv") == 2
        assert "line 3" in capsys.readouterr().err

    def test_non_numeric_value(self, synth_files, tmp_path, capsys):
        cloud_path, _ = synth_files
        values = tmp_path / "v.csv"
        values.write_text("u\n" + "0.5\n" * 399 + "abc\n")
        assert run("plot", "--points", cloud_path, "--values", values, "--out", tmp_path / "p.svg") == 2
        assert "line 401" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "body, line",
        [("0.1,0.2,1.0\n0.3,0.4\n", "line 3"), ("0.1,0.2,1.0\n0.3,0.4,1.0,\n", "line 3"),
         ("0.1,0.2\n0.3,0.4\n", "line 2"), ("0.1,0.2,1.0\n0.3,0.2,1.0,5\n", "line 3")],
    )
    def test_ragged_point_rows(self, tmp_path, capsys, body, line):
        bad = tmp_path / "bad.csv"
        bad.write_text("x0,x1,f\n" + body)
        assert run("denoise", "--input", bad, "--out", tmp_path / "u.csv") == 2
        assert f"bad.csv: {line}" in capsys.readouterr().err
        assert not (tmp_path / "u.csv").exists()

    @pytest.mark.parametrize("header", ["x0,y,f", "x0,x1,g", "x1,x0,f", "f"])
    @pytest.mark.parametrize("command", ["denoise", "plot"])
    def test_malformed_point_header(self, tmp_path, capsys, header, command):
        # "x0,y,f" once read as labelled 2-D points, "x0,x1,g" as unlabelled 3-D ones
        bad, out = tmp_path / "bad.csv", tmp_path / "out"
        row = ",".join(["0.5"] * len(header.split(",")))
        bad.write_text(f"{header}\n{row}\n{row}\n")
        flag = "--input" if command == "denoise" else "--points"
        assert run(command, flag, bad, "--out", out) == 2
        err = capsys.readouterr().err
        assert f"error: {bad}: expected header x0,...,x{{d-1}}[,f], got '{header}'" in err and "Traceback" not in err
        assert not out.exists()

    def test_header_only_point_file(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x0,x1,f\n")
        assert run("denoise", "--input", bad, "--out", tmp_path / "u.csv") == 2

    def test_non_finite_point(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x0,x1,f\n0.1,0.2,1.0\n0.3,inf,2.0\n")
        assert run("denoise", "--input", bad, "--out", tmp_path / "u.csv") == 2
        assert "finite" in capsys.readouterr().err

    def test_two_column_value_file(self, synth_files, tmp_path, capsys):
        cloud_path, _ = synth_files
        values = tmp_path / "v.csv"
        values.write_text("u\n" + "0.5,1\n" * 400)
        assert run("plot", "--points", cloud_path, "--values", values, "--out", tmp_path / "p.svg") == 2
        assert "v.csv: line 2" in capsys.readouterr().err

    def test_nan_solution_for_edges(self, synth_files, tmp_path):
        cloud_path, _ = synth_files
        out, graph_out = tmp_path / "u.csv", tmp_path / "g.txt"
        assert run("denoise", "--input", cloud_path, "--out", out, "--graph-out", graph_out) == 0
        nan = tmp_path / "nan.csv"
        nan.write_text("u\n" + "nan\n" * 400)
        code = run("edges", "--solution", nan, "--graph", graph_out, "--jump", "0.1", "--out", tmp_path / "e.csv")
        assert code == 2
        assert not (tmp_path / "e.csv").exists()

    def test_malformed_edge_list_for_plot(self, tmp_path, capsys):
        pts = tmp_path / "p.csv"
        write_cloud_csv(pts, PointCloud(points=[[0.0, 0.0], [1.0, 1.0]], labels=[0.0, 1.0]))
        edges = tmp_path / "e.csv"
        for row in ["0;1", "0,1", "0,1,x", "0,1.5,0.2", "0,inf,0.2"]:
            edges.write_text(f"i,j,jump\n0,1,0.5\n{row}\n")
            assert run("plot", "--points", pts, "--edges", edges, "--out", tmp_path / "p.svg") == 2, row
            assert f"error: {edges}: " in capsys.readouterr().err
            assert not (tmp_path / "p.svg").exists()

    def test_malformed_gamma_n(self, tmp_path, capsys):
        assert run("gamma", "--case", "step", "--n", "12x", "--out", tmp_path / "g.csv") == 2
        assert "--n" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--k", "--n"])
    def test_malformed_consistency_lists(self, tmp_path, flag):
        assert run("consistency", flag, "3,x", "--out", tmp_path / "cons") == 2
        assert not (tmp_path / "cons.binning.csv").exists()


class TestUnreadablePath:
    """A directory given as a file, or a file that is not UTF-8, exits 2 without a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["synth", "--n", "10", "--out", "{dir}"],
            ["denoise", "--input", "{dir}", "--out", "{dir}/u.csv"],
            ["denoise", "--input", "{binary}", "--out", "{dir}/u.csv"],
            ["edges", "--graph", "{binary}", "--solution", "{values}", "--jump", "0.1", "--out", "{dir}/e.csv"],
            ["plot", "--points", "{binary}", "--out", "{dir}/p.svg"],
        ],
        ids=["synth-out-dir", "denoise-input-dir", "denoise-input-binary", "edges-graph-binary", "plot-points-binary"],
    )
    def test_exit_2(self, tmp_path, capsys, argv):
        values = _fuzz_files(tmp_path)[2]
        binary = tmp_path / "binary.csv"
        binary.write_bytes(b"x0,x1,f\n\xff\xfe,1,2\n")
        fill = {"dir": tmp_path, "binary": binary, "values": values}
        assert run(*[arg.format(**fill) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["denoise", "--input", "{binary}", "--truth", "{values}", "--out", "{dir}/out.csv"],
            ["denoise", "--input", "{cloud}", "--truth", "{binary}", "--out", "{dir}/out.csv"],
            ["edges", "--graph", "{binary}", "--solution", "{values}", "--jump", "0.1", "--out", "{dir}/out.csv"],
            ["edges", "--graph", "{graph}", "--solution", "{binary}", "--jump", "0.1", "--out", "{dir}/out.csv"],
        ],
        ids=["denoise-input", "denoise-truth", "edges-graph", "edges-solution"],
    )
    def test_non_utf8_error_names_the_file(self, tmp_path, capsys, argv):
        cloud, graph, values = _fuzz_files(tmp_path)
        binary = tmp_path / "binary.csv"
        binary.write_bytes(b"x0,x1,f\n\xff\xfe,1,2\n")
        fill = {"dir": tmp_path, "binary": binary, "cloud": cloud, "graph": graph, "values": values}
        assert run(*[arg.format(**fill) for arg in argv]) == 2
        assert capsys.readouterr().err == f"error: {binary}: not UTF-8 text (invalid start byte)\n"
        assert list(tmp_path.glob("out.csv*")) == []


class TestMalformedGraph:
    """``gms edges`` rejects a malformed graph file with exit code 2."""

    @pytest.fixture
    def edge_inputs(self, tmp_path):
        cloud = PointCloud(points=np.random.default_rng(4).random((60, 2)))
        graph_path = tmp_path / "g.txt"
        save_graph(build_geometric_graph(cloud, SolverConfig(lam=1.0, eps=0.3)), graph_path)
        solution = tmp_path / "u.csv"
        solution.write_text("u\n" + "".join(f"{v}\n" for v in np.linspace(0.0, 1.0, 60)))
        return graph_path, solution

    @staticmethod
    def edges_exit(graph_path, solution, tmp_path):
        out = tmp_path / "e.csv"
        code = run("edges", "--solution", solution, "--graph", graph_path, "--jump", "0.1", "--out", out)
        if code != 0:
            assert not out.exists()
        return code

    @staticmethod
    def edit_row(graph_path, row, edit):
        lines = graph_path.read_text().splitlines()
        fields = lines[row].split()
        lines[row] = " ".join(edit(fields))
        graph_path.write_text("\n".join(lines) + "\n")

    def test_valid_file_passes(self, edge_inputs, tmp_path):
        assert self.edges_exit(*edge_inputs, tmp_path) == 0

    def test_non_finite_weight_and_distance(self, edge_inputs, tmp_path):
        self.edit_row(edge_inputs[0], 2, lambda f: f[:2] + ["nan"])
        assert self.edges_exit(*edge_inputs, tmp_path) == 2

    def test_negative_distance(self, edge_inputs, tmp_path, capsys):
        self.edit_row(edge_inputs[0], 2, lambda f: f[:2] + ["-0.5"])
        assert self.edges_exit(*edge_inputs, tmp_path) == 2
        assert "distances must be finite and nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row, edit",
        [(1, lambda f: ["-1"] + f[1:]), (-1, lambda f: f[:1] + ["60"] + f[2:])],
        ids=["first_i_negative", "last_j_past_n"],
    )
    def test_vertex_index_out_of_range(self, edge_inputs, tmp_path, capsys, row, edit):
        # editing the first row's i or the last row's j keeps the rows sorted
        self.edit_row(edge_inputs[0], row, edit)
        assert self.edges_exit(*edge_inputs, tmp_path) == 2
        assert "[0, 60)" in capsys.readouterr().err

    def test_non_integer_header(self, edge_inputs, tmp_path):
        self.edit_row(edge_inputs[0], 0, lambda f: ["60.5"] + f[1:])
        assert self.edges_exit(*edge_inputs, tmp_path) == 2

    def test_repeated_edge(self, edge_inputs, tmp_path):
        lines = edge_inputs[0].read_text().splitlines()
        edge_inputs[0].write_text("\n".join(lines[:2] + lines[1:]) + "\n")
        assert self.edges_exit(*edge_inputs, tmp_path) == 2

    @pytest.mark.parametrize("n_fields", [2, 5])
    def test_row_field_count(self, edge_inputs, tmp_path, n_fields):
        self.edit_row(edge_inputs[0], 3, lambda f: (f + ["0.5", "0.5"])[:n_fields])
        assert self.edges_exit(*edge_inputs, tmp_path) == 2

    @pytest.mark.parametrize(
        "row, edit", [(4, lambda f: f[:2] + ["abc"] + f[3:]), (3, lambda f: f[:2])], ids=["bad_field", "short_row"]
    )
    def test_error_names_the_file_line(self, edge_inputs, tmp_path, capsys, row, edit):
        self.edit_row(edge_inputs[0], row, edit)
        assert self.edges_exit(*edge_inputs, tmp_path) == 2
        assert f"g.txt: line {row + 1}: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "value, message",
        [("1.5", "edge endpoints must be integers"), ("1e300", "edge endpoints must be integers"),
         ("inf", "line 3: values must be finite")],
    )
    def test_non_integer_endpoint(self, edge_inputs, tmp_path, capsys, value, message):
        self.edit_row(edge_inputs[0], 2, lambda f: f[:1] + [value] + f[2:])
        assert self.edges_exit(*edge_inputs, tmp_path) == 2
        assert f"g.txt: {message}" in capsys.readouterr().err


class TestNonFiniteParameters:
    """A nan or inf parameter exits with code 2 before any output is written."""

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag", ["--lambda", "--eps", "--sigma", "--cutoff", "--cg-tol", "--irls-tol", "--delta"])
    def test_denoise_flag(self, synth_files, tmp_path, flag, value):
        out = tmp_path / "u.csv"
        assert run("denoise", "--input", synth_files[0], "--out", out, "--zeta", "tv", flag, value) == 2
        assert not out.exists() and not (tmp_path / "u.csv.manifest.json").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.5"])
    def test_synth_noise(self, tmp_path, capsys, value):
        out = tmp_path / "c.csv"
        assert run("synth", "--n", 10, "--noise", value, "--out", out) == 2
        assert "noise_std must be nonnegative and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value, code", [("nan", 2), ("inf", 0)])
    def test_edges_jump(self, tmp_path, value, code):
        graph_path, solution = _fuzz_files(tmp_path)[1:]
        out = tmp_path / "e.csv"
        assert run("edges", "--solution", solution, "--graph", graph_path, "--jump", value, "--out", out) == code
        if code:
            assert not out.exists()
        else:
            assert out.read_text() == "i,j,jump\n"


@pytest.fixture(scope="module")
def cloud5(tmp_path_factory):
    """The 5-point synthetic cloud of seed 0."""
    path = tmp_path_factory.mktemp("cloud5") / "c5.csv"
    assert run("synth", "--n", 5, "--seed", 0, "--out", path) == 0
    return path


@pytest.mark.parametrize("error", [IngestError, SingularityError, DivergentIntegralError])
def test_every_input_error_is_a_validation_error(error):
    # main's one exit-2 clause names only ValidationError and OSError
    assert issubclass(error, ValidationError)


class TestOutOfRangeConstants:
    """Finite parameters whose derived constants leave the float range exit 2, naming the parameter, with no output."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["denoise", "--eps", "1e-160"], "eps=1e-160 puts eps^-2 outside the float range"),
            (["denoise", "--eps", "1e200"], "eps=1e+200 puts eps^-2 outside the float range"),
            (["denoise", "--sigma", "1e300"], "sigma=1e+300 puts sigma^2 eps^2 outside the float range"),
            (["denoise", "--zeta", "tv", "--delta", "1e300"], "delta=1e+300 puts delta^2 outside the float range"),
            (["denoise", "--lambda", "1e-310"], "lambda=1e-310 is too small"),
            (["denoise", "--zeta", "lap", "--lambda", "1e-320"], "is too small: the system constant"),
            (["denoise", "--zeta", "tv", "--lambda", "1e-320"], "is too small: the system constant"),
            (["gamma", "--case", "step", "--sigma", "1e300"], "sigma=1e+300 puts sigma^2 outside the float range"),
            (["gamma", "--case", "step", "--sigma", "1e-200"], "sigma=1e-200 puts sigma^2 outside the float range"),
            (["gamma", "--case", "step", "--cutoff", "1e300"], "cutoff=1e+300, sigma=1: the squared cutoff radius"),
            (["gamma", "--case", "smooth", "--zeta", "tv", "--delta", "1e300"], "delta=1e+300 puts delta^2"),
            (["denoise", "--eps", "1e-154", "--sigma", "5e153"],
             "eps=1e-154, sigma=5e+153: the energy's sum over the edges leaves the float range"),
        ],
    )
    def test_exit_2(self, cloud5, tmp_path, capsys, argv, message):
        out = tmp_path / "out.csv"
        inputs = ["--input", cloud5] if argv[0] == "denoise" else ["--n", "50"]
        assert run(*argv, *inputs, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []


# (argv before the drawn flag, output name, the command's float flags);
# denoise reads the 5-point cloud, the others draw their own input
_CONTRACT_COMMANDS = [
    *[(["denoise", "--zeta", zeta], "u.csv", ["--lambda", "--eps", "--sigma", "--delta", "--cutoff", "--cg-tol", "--irls-tol"])
      for zeta in ("ms", "tv", "lap")],
    *[(["gamma", "--case", case, "--zeta", zeta, "--n", "50"], "g.csv", ["--p", "--q", "--sigma", "--cutoff", "--delta"])
      for case in ("smooth", "step") for zeta in ("ms", "tv")],
    (["synth", "--n", "5"], "c.csv", ["--noise"]),
    (["consistency", "--mode", "counterexample", "--k", "3"], "s", ["--alpha"]),
]


# ±10^k over the float range, 0, ±inf and nan; '=' keeps a negative value
# from reading as a flag
_FLAG_VALUES = st.one_of(
    st.builds("{}1e{}".format, st.sampled_from(["", "-"]), st.integers(-320, 308)),
    st.sampled_from(["0", "inf", "-inf", "nan"]),
)


@st.composite
def _contract_examples(draw):
    prefix, out, flags = draw(st.sampled_from(_CONTRACT_COMMANDS))
    return prefix, out, [f"{draw(st.sampled_from(flags))}={draw(_FLAG_VALUES)}"]


@st.composite
def _contract_pair_examples(draw):
    """denoise with two flags that meet in the edge weights or the cutoff radius."""
    zeta = draw(st.sampled_from(["ms", "tv", "lap"]))
    pair = draw(st.sampled_from([("--eps", "--sigma"), ("--sigma", "--cutoff")]))
    return ["denoise", "--zeta", zeta], "u.csv", [f"{flag}={draw(_FLAG_VALUES)}" for flag in pair]


class TestExitCodeContract:
    """Any value of one float flag, or of two denoise flags together: exit 0, 2 or 3, no
    traceback, and no output after a nonzero exit.  A graph that denoise writes, gms edges reads."""

    @settings(max_examples=150, deadline=None)
    @given(example=_contract_examples())
    def test_float_flags(self, cloud5, example):
        self.check(cloud5, *example)

    @settings(max_examples=100, deadline=None)
    @given(example=_contract_pair_examples())
    # weights near 1e308 whose energy sum overflows; weights that underflow to 0
    @example(example=(["denoise", "--zeta", "ms"], "u.csv", ["--eps=1e-154", "--sigma=5e153"]))
    @example(example=(["denoise", "--zeta", "ms"], "u.csv", ["--sigma=1e-150", "--cutoff=1e300"]))
    def test_float_flag_pairs(self, cloud5, example):
        self.check(cloud5, *example)

    @staticmethod
    def check(cloud5, prefix, out, flags):
        denoise = prefix[0] == "denoise"
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True):
            # as on the command line, where a RuntimeWarning is shown, not raised;
            # record=True keeps the shown ones out of pytest's summary
            warnings.simplefilter("default", RuntimeWarning)
            tmp = Path(tmp)
            inputs = ["--input", cloud5, "--graph-out", tmp / "g.txt"] if denoise else []
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = run(*prefix, *inputs, *flags, "--out", tmp / out)
                assert code in (0, 2, 3)
                assert "Traceback" not in err.getvalue()
                if code:
                    assert list(tmp.iterdir()) == []
                elif denoise:
                    edges = ["--solution", tmp / out, "--graph", tmp / "g.txt", "--jump", "0.1"]
                    assert run("edges", *edges, "--out", tmp / "e.csv") == 0, err.getvalue()


class TestNegativeSeed:
    """A negative ``--seed`` exits with code 2, naming it, before any output is written."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["synth", "--n", "10", "--seed", "-1"],
            ["gamma", "--case", "step", "--n", "100", "--seed", "-1"],
            ["consistency", "--mode", "binning", "--n", "100", "--seed", "-3"],
            ["consistency", "--mode", "counterexample", "--k", "3", "--seed", "-3"],
        ],
    )
    def test_exit_2(self, tmp_path, capsys, argv):
        assert run(*argv, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert f"error: seed must be nonnegative, got {argv[-1]}" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []


def _fuzz_files(directory):
    """A valid labeled point CSV, its graph file and a value CSV for that graph (60 points)."""
    rng = np.random.default_rng(4)
    points, labels = rng.random((60, 2)), rng.random(60)
    cloud_path, graph_path, values_path = directory / "cloud.csv", directory / "g.txt", directory / "u.csv"
    cloud_path.write_text("x0,x1,f\n" + "".join(f"{x},{y},{f}\n" for (x, y), f in zip(points.tolist(), labels.tolist())))
    save_graph(build_geometric_graph(PointCloud(points=points), SolverConfig(eps=0.3)), graph_path)
    values_path.write_text("u\n" + "".join(f"{v}\n" for v in labels.tolist()))
    return cloud_path, graph_path, values_path


def _mutate_row(path, row, mutation, field, sep):
    """Apply ``mutation`` to field ``field`` (modulo the field count) of data row ``row``."""
    lines = path.read_text().splitlines()
    row = 1 + row % (len(lines) - 1)
    fields = lines[row].split(sep)
    field %= len(fields)
    if mutation == "drop":
        del fields[field]
    elif mutation == "add":
        fields.insert(field, "0.5")
    else:
        fields[field] = mutation
    lines[row] = sep.join(fields)
    path.write_text("\n".join(lines) + "\n")


class TestMalformedFileFuzz:
    """One mutated row of a valid point, value, graph or edge file: exit 2, no output, no traceback."""

    @pytest.mark.parametrize("kind", ["points", "values", "graph", "edges"])
    def test_valid_files_pass(self, tmp_path, kind):
        assert self.exit_code(tmp_path, kind) == (0, "")

    @pytest.mark.parametrize("kind", ["points", "values", "graph", "edges"])
    @settings(max_examples=30, deadline=None)
    @given(
        mutation=st.sampled_from(["drop", "add", "abc", "nan", "inf", ""]),
        row=st.integers(0, 10**6),
        field=st.integers(0, 4),
    )
    def test_mutated_row_exits_2(self, kind, mutation, row, field):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            code, err = self.exit_code(tmp, kind, (row, mutation, field))
            assert code == 2
            assert err.startswith("error: ") and "Traceback" not in err
            assert not list(tmp.glob("out*"))

    @staticmethod
    def exit_code(tmp, kind, mutation=None):
        """Exit code and stderr of ``denoise`` (points), ``edges`` (values, graph) or ``plot`` (edges) on the fuzz files."""
        cloud_path, graph_path, values_path = _fuzz_files(tmp)
        edges_path = tmp / "e.csv"
        if kind == "edges":
            assert run("edges", "--solution", values_path, "--graph", graph_path, "--jump", "0.1", "--out", edges_path) == 0
        if mutation:
            target = {"points": cloud_path, "values": values_path, "graph": graph_path, "edges": edges_path}[kind]
            _mutate_row(target, *mutation, sep=" " if kind == "graph" else ",")
        if kind == "points":
            argv = ["denoise", "--input", cloud_path, "--out", tmp / "out.csv", "--eps", "0.3"]
        elif kind == "edges":
            argv = ["plot", "--points", cloud_path, "--edges", edges_path, "--out", tmp / "out.svg"]
        else:
            argv = ["edges", "--solution", values_path, "--graph", graph_path, "--jump", "0.1", "--out", tmp / "out.csv"]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(*argv)
        return code, err.getvalue()


class TestGamma:
    def test_smoke(self, tmp_path, capsys):
        out = tmp_path / "gamma.csv"
        assert run("gamma", "--case", "smooth", "--n", "200,400", "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,eps,discrete,continuum,ratio,seed"
        assert len(lines) == 3
        assert "ratio=" in capsys.readouterr().out
        manifest = json.loads((tmp_path / "gamma.csv.manifest.json").read_text())
        assert [entry["n"] for entry in manifest["pairs"]] == [200, 400]
        assert all(entry["compared"] > 0 for entry in manifest["pairs"])
        # the smooth case's values all differ, so the tie goes to the last axis
        assert all(entry["axis"] == 1 for entry in manifest["pairs"])

    def test_step_manifest_records_skipped_pairs(self, tmp_path):
        out = tmp_path / "gamma.csv"
        assert run("gamma", "--case", "step", "--n", "2000", "--out", out) == 0
        (entry,) = json.loads((tmp_path / "gamma.csv.manifest.json").read_text())["pairs"]
        assert entry["n"] == 2000 and entry["skipped"] > entry["compared"] > 0
        # the step along x0 changes value least often along x0
        assert entry["axis"] == 0

    @pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
    @pytest.mark.parametrize("flag", ["--sigma", "--cutoff"])
    def test_bad_kernel_flag_exit_2(self, tmp_path, capsys, flag, value):
        out = tmp_path / "gamma.csv"
        assert run("gamma", "--case", "step", "--n", "500", f"{flag}={value}", "--out", out) == 2
        err = capsys.readouterr().err
        assert not out.exists() and f"{flag} must be positive and finite" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "flag,value",
        [("--p", "nan"), ("--p", "inf"), ("--p", "-1"), ("--p", "0"), ("--q", "nan"), ("--q", "-1"), ("--q", "2")],
    )
    def test_bad_exponent_exit_2(self, tmp_path, capsys, flag, value):
        out = tmp_path / "gamma.csv"
        assert run("gamma", "--case", "step", "--n", "500", f"{flag}={value}", "--out", out) == 2
        err = capsys.readouterr().err
        other = "--q" if flag == "--p" else "--p"
        assert f"error: {flag[2:]} must" in err and f"error: {other[2:]} must" not in err
        assert not out.exists() and "Traceback" not in err

    @pytest.mark.parametrize("p", ["341", "342", "400"])
    def test_step_constant_finite_past_the_cutoff(self, tmp_path, p):
        # The step limit is the jump term alone, so it stays finite however large
        # p is; the discrete energy's eps^(p-1) at n=200 is a normal float up to p = 422.
        out = tmp_path / "gamma.csv"
        assert run("gamma", "--case", "step", "--n", "200", "--p", p, "--out", out) == 0
        header, row = out.read_text().splitlines()
        assert header == "n,eps,discrete,continuum,ratio,seed"
        assert all(math.isfinite(float(v)) for v in row.split(","))

    @pytest.mark.parametrize("p", ["1000"])
    def test_overflowing_constant_exit_2(self, tmp_path, capsys, p):
        # the smooth case's gradient-term constant; the step case has no gradient term
        out = tmp_path / "gamma.csv"
        assert run("gamma", "--case", "smooth", "--sigma", "1", "--n", "500", "--p", p, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"p={p} overflows" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_step_case_needs_no_gradient_constant(self, tmp_path):
        # That constant overflows at p = 700, but the step limit holds only the jump term.
        out = tmp_path / "gamma.csv"
        assert run("gamma", "--case", "step", "--n", "1", "--p", "700", "--out", out) == 0
        header, row = out.read_text().splitlines()
        assert float(row.split(",")[header.split(",").index("continuum")]) > 0

    def test_kernel_below_the_first_quadrature_node_exit_2(self, tmp_path, capsys):
        out = tmp_path / "gamma.csv"
        assert run("gamma", "--case", "smooth", "--n", "200", "--sigma", "0.00001", "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "the quadrature's first node" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("case, p", [("smooth", "400"), ("step", "600")])
    def test_non_finite_energy_exit_2(self, tmp_path, capsys, case, p):
        # Finite constants, but (2 pi)^p in the smooth continuum energy and
        # eps^(p-1) in the discrete one leave the float range.
        out = tmp_path / "gamma.csv"
        assert run("gamma", "--case", case, "--n", "200", "--p", p, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"n=200, p={p} leave the float range" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_divergent_integral_exit_2(self, tmp_path, capsys, monkeypatch):
        def diverge(*args, **kwargs):
            raise DivergentIntegralError("kernel moment did not converge")

        monkeypatch.setattr(gms.cli, "gamma_experiment", diverge)
        assert run("gamma", "--case", "step", "--n", "500", "--out", tmp_path / "gamma.csv") == 2
        assert "did not converge" in capsys.readouterr().err


class TestConsistency:
    def test_binning(self, tmp_path):
        stem = tmp_path / "cons"
        assert run("consistency", "--mode", "binning", "--n", "1000,4000", "--out", stem) == 0
        lines = (tmp_path / "cons.binning.csv").read_text().splitlines()
        assert lines[0] == "n,delta,sup_deviation,ell,eps,ell_over_eps,seed"
        assert len(lines) == 3

    def test_counterexample(self, tmp_path):
        stem = tmp_path / "cons"
        assert run("consistency", "--mode", "counterexample", "--k", "3", "--out", stem) == 0
        rows = [json.loads(l) for l in (tmp_path / "cons.counterexample.jsonl").read_text().splitlines()]
        assert rows[0]["k"] == 3 and 2**-3 <= rows[0]["l1"] <= 2**3
        (entry,) = json.loads((tmp_path / "cons.manifest.json").read_text())["pairs"]
        assert entry["k"] == 3 and entry["compared"] > 0 and entry["skipped"] > 0
        # the ball changes value as often along every axis: the last one is swept
        assert entry["axis"] == 2

    @pytest.mark.parametrize("d", ["30", "64"])
    def test_box_count_guard_exit_2(self, tmp_path, capsys, d):
        # 2^d boxes: numpy would ask for 8 GiB at d=30 and cannot index 2^64
        assert run("consistency", "--mode", "binning", "--n", "2", "--d", d, "--out", tmp_path / "s") == 2
        err = capsys.readouterr().err
        assert f"error: memory guard: n=2 at d={d} needs 2^{d} boxes, more than 1048576" in err
        assert "Traceback" not in err and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "args,flag",
        [
            (["--mode", "binning", "--d=0"], "d"),
            (["--mode", "binning", "--d=-1"], "d"),
            (["--mode", "counterexample", "--k=0"], "k"),
            (["--mode", "counterexample", "--k=-1"], "k"),
            (["--mode", "both", "--k=0"], "k"),
        ],
    )
    def test_nonpositive_dimension_or_level_exit_2(self, tmp_path, capsys, args, flag):
        stem = tmp_path / "cons"
        assert run("consistency", *args, "--n", "1000", "--out", stem) == 2
        err = capsys.readouterr().err
        assert f"error: {flag} must be a positive integer" in err and "Traceback" not in err
        assert not (tmp_path / "cons.binning.csv").exists()
        assert not (tmp_path / "cons.counterexample.jsonl").exists()


class TestHousing:
    def test_small_csv(self, tmp_path, capsys):
        csv_path = _write_houses(tmp_path / "houses.csv")
        out = tmp_path / "u.csv"
        assert run("housing", "--input", csv_path, "--out", out) == 0
        captured = capsys.readouterr().out
        assert "50 records" in captured
        assert len(out.read_text().splitlines()) == 51
        assert (tmp_path / "u.csv.points.csv").exists()

    def test_stdout_repeats(self, tmp_path, capsys):
        csv_path = _write_houses(tmp_path / "houses.csv")
        printed = []
        for _ in range(2):
            assert run("housing", "--input", csv_path, "--out", tmp_path / "u.csv") == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        assert re.fullmatch(r"housing: edges=\d+ iterations=\d+ converged=(True|False)", printed[0].splitlines()[-1])

    def test_manifest_records_defaults(self, tmp_path):
        csv_path = tmp_path / "houses.csv"
        csv_path.write_text(
            "id,long,lat,price,sqft_living\n"
            "1,-122.3,47.6,500000,2000\n2,-122.31,47.61,400000,1500\n"
        )
        out = tmp_path / "u.csv"
        run("housing", "--input", csv_path, "--out", out)
        manifest = json.loads((tmp_path / "u.csv.manifest.json").read_text())
        cfg = manifest["config"]
        assert cfg["eps"] == 0.04 and cfg["lam"] == 14.0 and cfg["k"] == 15

    def test_manifest_records_graph_stats(self, tmp_path):
        csv_path = tmp_path / "houses.csv"
        csv_path.write_text(
            "id,long,lat,price,sqft_living\n"
            "1,-122.3,47.6,500000,2000\n2,-122.3,47.6,400000,1500\n3,-122.31,47.61,450000,1800\n"
        )
        out = tmp_path / "u.csv"
        assert run("housing", "--input", csv_path, "--out", out) == 0
        stats = json.loads((tmp_path / "u.csv.manifest.json").read_text())["graph"]
        # records 1 and 2 share a location
        assert stats["zero_distance_edges"] == 1
        assert sum(stats["degree_histogram"]) == 3

    def test_manifest_records_threads(self, tmp_path):
        csv_path = tmp_path / "houses.csv"
        csv_path.write_text(
            "id,long,lat,price,sqft_living\n"
            "1,-122.3,47.6,500000,2000\n2,-122.301,47.6,400000,1500\n3,-122.31,47.61,450000,1800\n"
        )
        out, manifest = tmp_path / "u.csv", tmp_path / "u.csv.manifest.json"
        assert run("housing", "--input", csv_path, "--out", out) == 0
        assert json.loads(manifest.read_text())["threads"] == 1
        assert run("housing", "--input", csv_path, "--out", out, "--threads", "2") == 0
        assert json.loads(manifest.read_text())["threads"] == 2


class TestPlot:
    def test_single_point(self, tmp_path):
        pts = tmp_path / "p.csv"
        write_cloud_csv(pts, PointCloud(points=[[0.5, 0.5]], labels=[1.0]))
        svg = tmp_path / "p.svg"
        assert run("plot", "--points", pts, "--out", svg) == 0
        root = ET.fromstring(svg.read_text())
        assert len([e for e in root.iter() if e.tag.endswith("circle")]) == 1

    def test_deterministic_bytes(self, tmp_path):
        pts = np.random.default_rng(1).random((20, 2))
        vals = np.random.default_rng(2).random(20)
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        render_svg(pts, vals, [(0, 1), (2, 3)], a)
        render_svg(pts, vals, [(0, 1), (2, 3)], b)
        assert a.read_bytes() == b.read_bytes()

    def test_golden_bytes(self, tmp_path):
        path = tmp_path / "g.svg"
        points = [[0.0, 0.0], [1.0, 0.5], [0.3, 0.9], [0.7, 0.123]]
        render_svg(points, [0.1, 0.7, 1 / 3, -0.2], [(0, 1), (2, 3)], path)
        assert path.read_text() == (
            '<svg xmlns="http://www.w3.org/2000/svg" width="800" height="800" viewBox="0 0 800 800">\n'
            '<rect width="800" height="800" fill="white"/>\n'
            '<line x1="20.00" y1="780.00" x2="780.00" y2="400.00" stroke="red" stroke-width="1.5"/>\n'
            '<line x1="248.00" y1="96.00" x2="552.00" y2="686.52" stroke="red" stroke-width="1.5"/>\n'
            '<circle cx="20.00" cy="780.00" r="2" fill="#5540aa"/>\n'
            '<circle cx="780.00" cy="400.00" r="2" fill="#ff4000"/>\n'
            '<circle cx="248.00" cy="96.00" r="2" fill="#974068"/>\n'
            '<circle cx="552.00" cy="686.52" r="2" fill="#0040ff"/>\n'
            "</svg>\n"
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_value_rejected(self, tmp_path, bad):
        from gms.core import ValidationError

        with pytest.raises(ValidationError, match="values must be finite"):
            render_svg(np.zeros((2, 2)), [0.0, bad], [], tmp_path / "x.svg")
        assert not (tmp_path / "x.svg").exists()

    def test_edge_out_of_range(self, tmp_path):
        from gms.core import ValidationError

        with pytest.raises(ValidationError, match=r"edge \(0, 5\) out of range"):
            render_svg(np.zeros((2, 2)), np.zeros(2), [(1, 0), (0, 5), (-1, 0)], tmp_path / "x.svg")
        assert not (tmp_path / "x.svg").exists()

    def test_one_coordinate_points_exit_2(self, tmp_path, capsys):
        pts = tmp_path / "p.csv"
        write_cloud_csv(pts, PointCloud(points=[[0.0], [1.0]], labels=[0.0, 1.0]))
        assert run("plot", "--points", pts, "--out", tmp_path / "p.svg") == 2
        err = capsys.readouterr().err
        assert "at least 2 coordinates" in err and "Traceback" not in err
        assert not (tmp_path / "p.svg").exists()


def _write_houses(path, n=50):
    """The ``TestHousing.test_small_csv`` records: n houses in a 0.02-degree square."""
    rng = np.random.default_rng(0)
    rows = ["id,long,lat,price,sqft_living\n"]
    for i in range(n):
        lon = -122.4 + 0.02 * rng.random()
        lat = 47.5 + 0.02 * rng.random()
        rows.append(f"{i},{lon:.5f},{lat:.5f},{300000 + 1000 * i},{1500 + 10 * i}\n")
    path.write_text("".join(rows))
    return path


class TestSharedRunPath:
    """denoise and housing run the same solve and report it the same way."""

    def test_housing_sec1_reporting(self, tmp_path, capsys):
        csv_path = _write_houses(tmp_path / "houses.csv")
        assert run("housing", "--input", csv_path, "--out", tmp_path / "u.csv", "--sec1") == 0
        assert "energy[sec1]" in capsys.readouterr().out

    def test_housing_prints_sec6_energy(self, tmp_path, capsys):
        csv_path = _write_houses(tmp_path / "houses.csv")
        assert run("housing", "--input", csv_path, "--out", tmp_path / "u.csv") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "housing: 50 records ingested"
        assert lines[1].startswith("energy[sec6] ")
        assert lines[2].startswith("housing: edges=")


class TestSeed:
    """Only the subcommands that draw random numbers take ``--seed``."""

    @pytest.mark.parametrize("subcommand", ["denoise", "housing"])
    def test_seed_flag_rejected(self, tmp_path, subcommand):
        with pytest.raises(SystemExit) as exc:
            run(subcommand, "--input", tmp_path / "in.csv", "--out", tmp_path / "u.csv", "--seed", 1)
        assert exc.value.code == 2

    def test_denoise_manifest_seed_is_null(self, synth_files, tmp_path):
        assert run("denoise", "--input", synth_files[0], "--out", tmp_path / "u.csv") == 0
        manifest = json.loads((tmp_path / "u.csv.manifest.json").read_text())
        assert manifest["seed"] is None and "seed" not in manifest["config"]
        assert manifest["command"] == "denoise" and manifest["inputs"] == [str(synth_files[0])]

    def test_edges_manifest_seed_is_null(self, synth_files, tmp_path):
        u, graph = tmp_path / "u.csv", tmp_path / "g.txt"
        assert run("denoise", "--input", synth_files[0], "--out", u, "--graph-out", graph) == 0
        assert run("edges", "--solution", u, "--graph", graph, "--jump", "0.075", "--out", tmp_path / "e.csv") == 0
        assert json.loads((tmp_path / "e.csv.manifest.json").read_text())["seed"] is None


class TestMatchesLibrary:
    """The CLI's CSV round trip and defaults leave the in-memory solve unchanged, bit for bit."""

    @pytest.mark.parametrize("zeta,spec", [("ms", ZetaSpec("ms_arctan")), ("tv", ZetaSpec("tv_smoothed", delta=0.001))])
    def test_denoise(self, synth_files, tmp_path, zeta, spec):
        out = tmp_path / "u.csv"
        assert run("denoise", "--input", synth_files[0], "--out", out, "--zeta", zeta, "--lambda", "50") == 0
        cloud = generate_synthetic(400, 0.2, seed=7).cloud
        config = SolverConfig(lam=50.0)
        expected = irls_minimize(build_geometric_graph(cloud, config), cloud.labels, spec, config).u
        np.testing.assert_array_equal(_read_values_csv(out), expected)

    def test_housing(self, tmp_path):
        csv_path = _write_houses(tmp_path / "houses.csv")
        out = tmp_path / "u.csv"
        assert run("housing", "--input", csv_path, "--out", out) == 0
        cloud = ingest_housing(csv_path)
        config = SolverConfig(lam=14.0, eps=0.04, sigma=1.0, k_max=15)
        expected = irls_minimize(build_geometric_graph(cloud, config), cloud.labels, ZetaSpec("ms_arctan"), config).u
        np.testing.assert_array_equal(_read_values_csv(out), expected)


def _readme_cli_lines():
    """Every ``gms ...`` command in the README's ``sh`` blocks, continuations joined."""
    lines = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            line = line.split("#", 1)[0].strip()
            if line.startswith("gms "):
                lines.append(line)
    return lines


# Run in a fresh interpreter: imports gms.cli, then runs each (name, argv) in
# turn and prints, after the import and after each command, its exit code and
# which of WATCHED scipy submodules are loaded.
_IMPORT_SET_SCRIPT = """
import contextlib, io, json, sys
WATCHED = json.loads(sys.argv[1])
loaded = lambda: sorted(m for m in WATCHED if m in sys.modules)
import gms.cli
report = [["import", 0, loaded()]]
for name, argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = gms.cli.main(argv)
    report.append([name, code, loaded()])
print(json.dumps(report))
"""


def test_commands_load_only_the_scipy_they_use(tmp_path):
    # Each scipy submodule is imported by the one function that uses it, so
    # gms.cli, synth, the spike counterexample, edges, plot and gamma load
    # none of them.  denoise, run last, is the control: its solve loads
    # scipy.sparse.linalg.
    cloud, graph, values = _fuzz_files(tmp_path)
    steps = [
        ("synth", ["synth", "--n", "20", "--out", str(tmp_path / "s.csv")]),
        ("consistency", ["consistency", "--mode", "counterexample", "--k", "3", "--out", str(tmp_path / "c")]),
        ("edges", ["edges", "--graph", str(graph), "--solution", str(values), "--jump", "0.1",
                   "--out", str(tmp_path / "e.csv")]),
        ("plot", ["plot", "--points", str(cloud), "--edges", str(tmp_path / "e.csv"), "--out", str(tmp_path / "p.svg")]),
        ("gamma step", ["gamma", "--case", "step", "--n", "500", "--out", str(tmp_path / "gs.csv")]),
        ("gamma smooth", ["gamma", "--case", "smooth", "--n", "200", "--out", str(tmp_path / "gm.csv")]),
        ("denoise", ["denoise", "--input", str(cloud), "--eps", "0.3", "--out", str(tmp_path / "u.csv")]),
    ]
    deferred = ["scipy.sparse", "scipy.spatial", "scipy.special", "scipy.integrate", "scipy.linalg", "scipy.optimize"]
    watched = deferred + ["scipy.sparse.linalg"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_SET_SCRIPT, json.dumps(watched), json.dumps(steps)],
        env=env, capture_output=True, text=True, check=True,
    )
    report = json.loads(result.stdout)
    assert [name for name, _, _ in report] == ["import"] + [name for name, _ in steps]
    assert all(code == 0 for _, code, _ in report)
    assert {name: mods for name, _, mods in report[:-1]} == {name: [] for name, _, _ in report[:-1]}
    assert "scipy.sparse.linalg" in report[-1][2]


def test_readme_has_cli_recipes():
    subcommands = {shlex.split(line)[1] for line in _readme_cli_lines()}
    assert subcommands == {"denoise", "edges", "synth", "gamma", "consistency", "housing", "plot"}


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_line_parses(line):
    assert "$" not in line, "write README recipes as literal lines"
    build_parser().parse_args(shlex.split(line)[1:])
