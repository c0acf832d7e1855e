"""pyproject.toml: the suite's own pytest configuration and the console script."""

import subprocess
import sys
from pathlib import Path

import pytest

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


def test_console_script_is_the_cli_main():
    """The `gridcast` command that an install puts on PATH calls
    `gridcast.cli.main`, the function every CLI test runs."""
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"gridcast": "gridcast.cli:main"}


def test_numpy_bound_covers_show_config_dicts():
    """The run manifest's machine block calls `np.show_config(mode="dicts")`,
    which numpy added in 1.26, so the install requires at least that."""
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    with PYPROJECT.open("rb") as fh:
        dependencies = tomllib.load(fh)["project"]["dependencies"]
    assert dependencies == ["numpy>=1.26"]
