"""The repository's pytest settings keep a session going past a failing property test."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, max_examples=5)
@given(st.integers())
def test_fails(x):
    assert x != x


def test_runs_after():
    pass
'''


def test_failing_given_test_does_not_stop_the_session(tmp_path):
    # On a failure hypothesis imports libcst, which raises a DeprecationWarning
    # that the settings turn into errors; unfiltered, pytest stops with an
    # INTERNALERROR and the next test never runs.
    (tmp_path / "test_probe.py").write_text(PROBE)
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
               "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py"]
    result = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
