import importlib.util
import re
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_benchmark.py"


def test_run_benchmark_prints_every_method_row(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("run_benchmark", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", ["run_benchmark.py", "--buses", "3", "--length", "120",
                                      "--runs", "2", "--epochs", "1"])
    script.main()
    out = capsys.readouterr().out
    for method in ("hybrid", "rnn-only", "persistence"):
        assert re.search(rf"^{method} +\d", out, re.M), method
    assert "2 independent runs x 1 epochs" in out
