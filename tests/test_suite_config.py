"""The suite's own pytest configuration (pyproject.toml)."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@given(st.integers(0, 10))
@settings(database=None, derandomize=True)
def test_failing_property(n):
    assert n < 0


def test_plain():
    pass
'''


def test_failing_property_fails_only_itself(tmp_path):
    """Under `filterwarnings = ["error"]`, a failing Hypothesis test is
    reported as a failure and the rest of the suite still runs: the
    plugin's failure report must not end the session as an internal error
    (exit 3)."""
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
