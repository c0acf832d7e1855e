"""The hybrid-vs-baselines comparison, run through `gridcast eval --runs N`."""

import json
import re

from gridcast.cli import main


def test_run_benchmark_prints_every_method_row(tmp_path, capsys):
    data, model = tmp_path / "grid.csv", tmp_path / "model.gcm"
    assert main(["gen-data", "--buses", "3", "--length", "120", "--out", str(data)]) == 0
    assert main(["train", "--data", str(data), "--model-out", str(model), "--epochs", "1"]) == 0
    capsys.readouterr()
    assert main(["eval", "--model", str(model), "--data", str(data), "--runs", "2",
                 "--epochs", "1", "--compare", "persistence,rnn-only"]) == 0
    out = capsys.readouterr().out
    for method in ("hybrid", "rnn-only", "persistence"):
        assert re.search(rf"^{method} +\d", out, re.M), method
    for label in ("", " (rnn-only)"):
        block = out.split(f"aggregate over independent runs{label}:\n")[1]
        agg = json.JSONDecoder().raw_decode(block)[0]
        assert agg["n_runs"] == 2 and agg["n_completed"] == 2, label
