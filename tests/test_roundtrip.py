"""The CLI round trip on edited CSVs: each row edits the CSV that
`gen-data --buses 3 --length 200` writes, runs its commands through
`cli.main` and checks each one's exit code and stderr. Under pyproject's
`filterwarnings = ["error"]` a numpy warning fails the row, so one case runs
the warning-prone calls in a real process and reads its stderr."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gridcast.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

# each edit maps (1-based line number, data row's cells) to the new cells
EDITS = {
    "huge": lambda nr, cells: cells[:1] + ["1e308"] * (len(cells) - 1),
    "pv": lambda nr, cells: cells[:1] + ["1.06"] + cells[2:],  # a PV bus's |V| set-point
    "subnormal": lambda nr, cells: cells[:1] + ["1e-310" if nr % 2 else "0.0"] + cells[2:],
    "separator": lambda nr, cells: cells[:1] + ["1_0"] + cells[2:] if nr == 5 else cells,
    # t = 0, 1e308, -1e308 on lines 2-4: the second step overflows float64
    "t-overflow": lambda nr, cells: [{3: "1e308", 4: "-1e308"}.get(nr, cells[0])] + cells[1:],
}

TRAIN = "train --data {csv} --model-out {d}/m.gcm --epochs 1"
FORECAST = "forecast --model {d}/m.gcm --data {csv} --at-instance 150"


@pytest.fixture(scope="module")
def grid(tmp_path_factory):
    path = tmp_path_factory.mktemp("grid") / "grid.csv"
    assert main(["gen-data", "--buses", "3", "--length", "200", "--out", str(path)]) == 0
    return path


def edited(grid, edit, out):
    """Write `grid` with EDITS[edit] applied to every data row to `out`."""
    lines = grid.read_text().splitlines()
    rows = [",".join(EDITS[edit](nr, line.split(",")))
            for nr, line in enumerate(lines[1:], start=2)]
    out.write_text("\n".join(lines[:1] + rows) + "\n")
    return out


def argv(command, csv, d):
    return [arg.format(csv=csv, d=d) for arg in command.split()]


@pytest.mark.parametrize("edit, commands, rc, err", [
    ("huge", [TRAIN], 0, ""),
    ("pv", [TRAIN, FORECAST], 0, ""),
    ("subnormal", [TRAIN, FORECAST], 0, ""),
    ("separator", [TRAIN], 1, "line 5: non-numeric cell"),  # float() reads 1_0 as 10
    ("t-overflow", [TRAIN], 1, "line 4: t must increase by a uniform step"),
], ids=["train-on-1e308-cells", "pv-set-point", "subnormal-peak", "digit-separator",
        "t-step-overflows"])
def test_roundtrip(tmp_path, grid, capsys, edit, commands, rc, err):
    """Each command exits `rc`, and its stderr holds `err` and no warning."""
    csv = edited(grid, edit, tmp_path / "edited.csv")
    for command in commands:
        assert main(argv(command, csv, tmp_path)) == rc, command
        stderr = capsys.readouterr().err
        assert err in stderr and "Warning" not in stderr, stderr


SCRIPT = """
import json, sys
from gridcast.cli import main
print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))
"""


def test_real_process_prints_no_warning(tmp_path, grid):
    """A real process keeps Python's default warning filters, so a numpy
    warning reaches its stderr instead of failing the call: the 1e308,
    PV and subnormal trains and forecasts exit 0, a forecast whose
    normalizing overflows exits 1, and stderr holds no warning."""
    calls, expected = [], []
    for edit in ("huge", "pv", "subnormal"):
        d = tmp_path / edit
        d.mkdir()
        csv = edited(grid, edit, d / "edited.csv")
        calls += [argv(TRAIN, csv, d), argv(FORECAST, csv, d)]
        expected += [0, 0]
    calls.append(argv(FORECAST, tmp_path / "huge" / "edited.csv", tmp_path / "pv"))
    expected.append(1)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(calls)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == expected
    assert "the forecast overflows float64" in run.stderr
    assert "Warning" not in run.stderr, run.stderr
