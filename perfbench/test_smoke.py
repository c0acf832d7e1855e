"""Fast smoke test of the benchmark: every workload at toy size, both modes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import dataclasses
import json
from pathlib import Path

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def toy(wl):
    # one-epoch toy training cannot beat persistence, so that check is off here
    return dataclasses.replace(wl, buses=3, length=120, history=min(wl.history, 80),
                               epochs=1, forecast_cmds=1,
                               forecast_calls=-(-run.MIN_FORECAST_SAMPLES // run.SLOTS),
                               beats_persistence=False)


def test_spec_matches_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == \
        [(name, unit) for name, _, _, _, unit in run.per_layer_specs()]
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert m["better"] in ("higher", "lower")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_workload_emits_every_metric(name, trace, tmp_path):
    result = run.run_workload(toy(run.WORKLOADS[name]), seed=3, seconds=0,
                              trace=trace, work=tmp_path)
    assert result["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)), m["name"]
    if trace:
        assert Path(tmp_path / "spans.jsonl").stat().st_size > 0
        assert result["metrics"]["layers.conv1d_forward.b1.calls"]["value"] >= 1
        assert result["metrics"]["forecaster.save_model.mbytes"]["value"] > 0
    else:
        assert result["forecast_samples"] >= run.MIN_FORECAST_SAMPLES
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)
