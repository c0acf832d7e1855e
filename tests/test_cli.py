import json

import numpy as np
import pytest

from gridcast.cli import main
from gridcast.data_pipeline import load_series
from gridcast.forecaster import load_model


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "grid.csv"
    rc = main(["gen-data", "--buses", "3", "--length", "200",
               "--seed", "7", "--out", str(path)])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def model_file(tmp_path_factory, dataset):
    path = tmp_path_factory.mktemp("model") / "model.json"
    rc = main(["train", "--data", str(dataset), "--model-out", str(path),
               "--epochs", "2", "--seed", "1"])
    assert rc == 0
    return path


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------

def test_gen_data_column_count(tmp_path):
    out = tmp_path / "d.csv"
    rc = main(["gen-data", "--buses", "14", "--length", "50", "--seed", "7",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 51
    assert all(len(l.split(",")) == 29 for l in lines)  # t + 2n features
    assert (tmp_path / "d.csv.manifest.json").exists()


def test_gen_data_deterministic_bytes(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        assert main(["gen-data", "--buses", "4", "--length", "40",
                     "--seed", "3", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_data_rejects_tiny_length(tmp_path):
    rc = main(["gen-data", "--length", "1", "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--buses", "not-a-number", "--out", "x.csv"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_writes_model_and_report(model_file):
    model = load_model(model_file)
    assert model.config.lag_r == 10  # default lag
    report = json.loads((model_file.parent / "model.json.report.json").read_text())
    assert len(report["epoch_losses"]) == 2
    assert "wall_clock_s" not in report
    manifest = json.loads((model_file.parent / "model.json.manifest.json").read_text())
    assert manifest["command"] == "train"
    assert "wall_clock_s" in manifest


def test_train_zero_epochs_writes_initialized_model(tmp_path, dataset):
    out = tmp_path / "m.json"
    rc = main(["train", "--data", str(dataset), "--model-out", str(out),
               "--epochs", "0", "--seed", "5"])
    assert rc == 0
    model = load_model(out)
    assert json.loads((tmp_path / "m.json.report.json").read_text())["epoch_losses"] == []
    # biases untouched by training
    assert not model.params["dense2_b"].any()


def test_train_deterministic_bytes(tmp_path, dataset):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        rc = main(["train", "--data", str(dataset), "--model-out", str(out),
                   "--epochs", "2", "--seed", "9"])
        assert rc == 0
        outs.append(out)
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert ((tmp_path / "a.json.report.json").read_bytes()
            == (tmp_path / "b.json.report.json").read_bytes())


def test_train_missing_data_exit_code(tmp_path):
    rc = main(["train", "--data", str(tmp_path / "nope.csv"),
               "--model-out", str(tmp_path / "m.json")])
    assert rc == 1


def test_train_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,vm_1,va_1\n0,1.0\n")
    rc = main(["train", "--data", str(bad), "--model-out", str(tmp_path / "m.json")])
    assert rc == 1


@pytest.mark.parametrize("rows", ["0,1.0,2.0\n1,nan,2.0\n", "0,1.0,2.0\n0,1.0,2.0\n5,1.0,2.0\n"])
def test_train_bad_series_exit_code_names_line(tmp_path, capsys, rows):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,vm_1,va_1\n" + rows)
    rc = main(["train", "--data", str(bad), "--model-out", str(tmp_path / "m.json")])
    assert rc == 1
    assert "line 3" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_train_divergence_exit_code(tmp_path, dataset):
    rc = main(["train", "--data", str(dataset), "--model-out",
               str(tmp_path / "m.json"), "--epochs", "3", "--lr", "1e200"])
    assert rc == 3


def test_train_rnn_only_baseline(tmp_path, dataset):
    out = tmp_path / "rnn.json"
    rc = main(["train", "--data", str(dataset), "--model-out", str(out),
               "--epochs", "1", "--baseline", "rnn-only"])
    assert rc == 0
    assert load_model(out).config.kind == "rnn-only"


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_report_and_trace(tmp_path, dataset, model_file):
    report = tmp_path / "report.txt"
    trace = tmp_path / "trace.csv"
    rc = main(["eval", "--model", str(model_file), "--data", str(dataset),
               "--report-out", str(report), "--trace-out", str(trace),
               "--compare", "persistence"])
    assert rc == 0
    text = report.read_text()
    assert "hybrid" in text and "persistence" in text
    assert "AvgAE |V|" in text and "MaxAE angle" in text and "nRMSE" in text
    assert trace.read_text().splitlines()[0] == "instance,bus,ae_vm,ae_va"


def test_eval_deterministic_report_bytes(tmp_path, dataset, model_file):
    reports = []
    for name in ("r1.txt", "r2.txt"):
        report = tmp_path / name
        rc = main(["eval", "--model", str(model_file), "--data", str(dataset),
                   "--report-out", str(report), "--compare", "persistence"])
        assert rc == 0
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]


def test_eval_multi_run_aggregate(tmp_path, dataset, model_file):
    report = tmp_path / "agg.txt"
    rc = main(["eval", "--model", str(model_file), "--data", str(dataset),
               "--report-out", str(report), "--runs", "2", "--epochs", "1",
               "--seed", "4"])
    assert rc == 0
    text = report.read_text()
    assert "aggregate over independent runs" in text
    agg = json.loads(text.split("aggregate over independent runs:\n")[1])
    assert agg["n_runs"] == 2 and agg["n_completed"] == 2
    assert agg["nrmse_min"] <= agg["nrmse_mean"] <= agg["nrmse_max"]


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_eval_multi_run_all_diverged_exit_code(tmp_path, dataset, model_file):
    rc = main(["eval", "--model", str(model_file), "--data", str(dataset),
               "--report-out", str(tmp_path / "r.txt"), "--runs", "2",
               "--epochs", "3", "--lr", "1e200"])
    assert rc == 3


def test_eval_compare_rnn_only_needs_hybrid_model(tmp_path, dataset):
    rnn = tmp_path / "rnn.json"
    assert main(["train", "--data", str(dataset), "--model-out", str(rnn),
                 "--epochs", "0", "--baseline", "rnn-only"]) == 0
    rc = main(["eval", "--model", str(rnn), "--data", str(dataset),
               "--report-out", str(tmp_path / "r.txt"), "--compare", "rnn-only"])
    assert rc == 2


def test_eval_shape_mismatch_exit_code(tmp_path, model_file):
    other = tmp_path / "other.csv"
    assert main(["gen-data", "--buses", "5", "--length", "60",
                 "--out", str(other)]) == 0
    rc = main(["eval", "--model", str(model_file), "--data", str(other),
               "--report-out", str(tmp_path / "r.txt")])
    assert rc == 1


def test_eval_unknown_compare_entry(tmp_path, dataset, model_file):
    rc = main(["eval", "--model", str(model_file), "--data", str(dataset),
               "--report-out", str(tmp_path / "r.txt"), "--compare", "arima"])
    assert rc == 2


# ---------------------------------------------------------------------------
# forecast
# ---------------------------------------------------------------------------

def test_forecast_round_trip_parse(tmp_path, dataset, model_file):
    out = tmp_path / "fc.csv"
    rc = main(["forecast", "--model", str(model_file), "--data", str(dataset),
               "--at-instance", "50", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("kind,t,vm_1")
    kinds = [l.split(",")[0] for l in lines[1:]]
    assert kinds == ["forecast", "truth", "abs_error"]
    vec = np.array([float(v) for v in lines[1].split(",")[2:]])
    assert vec.shape == (6,) and np.isfinite(vec).all()


def test_forecast_earliest_legal_index(tmp_path, dataset, model_file):
    rc = main(["forecast", "--model", str(model_file), "--data", str(dataset),
               "--at-instance", "10"])
    assert rc == 1  # r = 10, so instance 11 is the first legal one
    rc = main(["forecast", "--model", str(model_file), "--data", str(dataset),
               "--at-instance", "11"])
    assert rc == 0


def test_forecast_persistence_reproduces_last_state(tmp_path, dataset, capsys):
    series = load_series(dataset)
    rc = main(["forecast", "--model", "persistence", "--data", str(dataset),
               "--at-instance", "30"])
    assert rc == 0
    line = [l for l in capsys.readouterr().out.splitlines()
            if l.startswith("forecast,")][0]
    vec = np.array([float(v) for v in line.split(",")[2:]])
    np.testing.assert_array_equal(vec, series.values[28])  # state 29, 1-based


def test_forecast_non_finite_model_exit_code(tmp_path, dataset, model_file):
    doc = json.loads(model_file.read_text())
    doc["params"]["dense3_b"]["data"][0] = "inf"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc = main(["forecast", "--model", str(bad), "--data", str(dataset),
               "--at-instance", "50"])
    assert rc == 1


def test_forecast_out_of_range(tmp_path, dataset, model_file):
    rc = main(["forecast", "--model", str(model_file), "--data", str(dataset),
               "--at-instance", "100000"])
    assert rc == 1


def test_commands_do_not_mutate_inputs(tmp_path, dataset, model_file):
    before = dataset.read_bytes()
    model_before = model_file.read_bytes()
    main(["eval", "--model", str(model_file), "--data", str(dataset),
          "--report-out", str(tmp_path / "r.txt")])
    assert dataset.read_bytes() == before
    assert model_file.read_bytes() == model_before
