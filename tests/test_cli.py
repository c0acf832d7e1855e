import json
import platform
import re
import warnings
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest

from gridcast.cli import main
from gridcast.data_pipeline import load_series, split_windows
from gridcast.evaluation import (comparison_table, evaluate_predictions, export_trace_csv,
                                 persistence_predictions)
from gridcast import training
from gridcast.forecaster import RNN_ONLY, forecast_batch, load_model
from gridcast.training import DivergenceError, Hyperparams, multi_run


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


def test_gen_data_rejects_tiny_length(tmp_path, capsys):
    """SyntheticConfig's length rule, reported like every other flag's."""
    for length in ("1", "11"):
        rc = main(["gen-data", "--length", length, "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert f"error: --length {length}: length must be >= 12" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--buses", "not-a-number", "--out", "x.csv"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["train", "--data", "x.csv", "--model-out", "m", "--freeze-branch", "rnn"],
    ["eval", "--model", "m", "--data", "x.csv", "--runs", "2", "--freeze-branch", "cnn"],
], ids=["train", "eval"])
def test_freeze_branch_is_unknown_flag(argv):
    """Every parameter trains: there is no --freeze-branch option."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, flag", [
    (["train", "--lr", "-1"], "--lr"),
    (["train", "--epochs", "-1"], "--epochs"),
    (["train", "--lag", "1"], "--lag"),
    (["train", "--train-fraction", "1.5"], "--train-fraction"),
    (["train", "--seed", "-1"], "--seed"),
    (["train", "--lr", "nan"], "--lr"),
    (["train", "--lr", "inf"], "--lr"),
    (["eval", "--runs", "2", "--lr", "nan"], "--lr"),
    (["gen-data", "--buses", "0"], "--buses"),
    (["gen-data", "--period", "1"], "--period"),
    (["gen-data", "--seed", "-1"], "--seed"),
    (["gen-data", "--noise", "nan"], "--noise"),
    (["gen-data", "--angle-noise", "inf"], "--angle-noise"),
    (["gen-data", "--coupling", "inf"], "--coupling"),
    (["gen-data", "--buses", "2", "--length", "50", "--coupling", "1e308"], "--coupling"),
    (["gen-data", "--buses", "2", "--length", "50", "--noise", "1e308"], "--noise"),
    (["gen-data", "--buses", "2", "--length", "50", "--angle-noise", "1e308"], "--angle-noise"),
    (["gen-data", "--buses", "1", "--length", "100000000000000000"], "--buses --length"),
    (["gen-data", "--buses", "1", "--length", "100000000000000000000"], "--buses --length"),
], ids=["train-lr", "train-epochs", "train-lag", "train-fraction", "train-seed",
        "train-lr-nan", "train-lr-inf", "eval-lr-nan", "gen-data-buses", "gen-data-period",
        "gen-data-seed", "gen-data-noise-nan", "gen-data-angle-noise-inf",
        "gen-data-coupling-inf", "gen-data-coupling-overflow", "gen-data-noise-overflow",
        "gen-data-angle-noise-overflow", "gen-data-beyond-memory",
        "gen-data-beyond-max-dimension"])
def test_out_of_range_flag_is_usage_error(tmp_path, capsys, argv, flag):
    """An out-of-range value is a usage error (exit 2) that names its flag;
    train and eval report it before reading any file (here none exists),
    and a gen-data overflow or a series too large to allocate names the
    generator flags (each of `flag`'s words)."""
    io = {"train": ["--data", str(tmp_path / "nope.csv"), "--model-out", str(tmp_path / "m")],
          "eval": ["--data", str(tmp_path / "nope.csv"), "--model", str(tmp_path / "m")],
          "gen-data": ["--out", str(tmp_path / "g.csv")]}[argv[0]]
    assert main(argv + io) == 2
    err = capsys.readouterr().err
    for name in flag.split():
        assert (name if argv[0] == "gen-data" else f"error: {name} ") in err
    assert not list(tmp_path.iterdir())


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


@pytest.mark.parametrize("argv, inputs, outputs", [
    (["gen-data", "--buses", "2", "--length", "30", "--out", "{d}/g.csv"], [], ["g.csv"]),
    (["train", "--data", "{data}", "--model-out", "{d}/m.gcm", "--epochs", "0"],
     ["{data}"], ["m.gcm", "m.gcm.report.json"]),
    (["eval", "--model", "{model}", "--data", "{data}", "--report-out", "{d}/r.txt"],
     ["{model}", "{data}"], ["r.txt"]),
    (["eval", "--model", "{model}", "--data", "{data}", "--trace-out", "{d}/e.csv",
      "--report-out", "{d}/r.txt"], ["{model}", "{data}"], ["r.txt", "e.csv"]),
    (["forecast", "--model", "{model}", "--data", "{data}", "--at-instance", "150",
      "--out", "{d}/f.csv"], ["{model}", "{data}"], ["f.csv"]),
    (["forecast", "--model", "persistence", "--data", "{data}", "--at-instance", "150",
      "--out", "{d}/f.csv"], ["{data}"], ["f.csv"]),
    (["forecast", "--model", "{model}", "--data", "{data}", "--at-instance", "150"], [], []),
], ids=["gen-data", "train", "eval-report-out", "eval-both-out", "forecast-out",
        "forecast-persistence-out", "forecast-stdout"])
def test_main_writes_the_run_manifest(tmp_path, dataset, model_file, capsys, argv, inputs,
                                      outputs):
    """main writes one manifest beside the first output flag given (in the
    parser's flag order, not the command line's), naming every file the
    run read (--model unless persistence, then --data) and wrote; forecast
    without --out writes nothing."""
    paths = dict(d=tmp_path, data=dataset, model=model_file)
    argv = [a.format(**paths) for a in argv]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    written = sorted(p.name for p in tmp_path.iterdir())
    if not outputs:
        assert written == [] and stdout.startswith("kind,t,vm_1,")
        return
    assert written == sorted(outputs + [outputs[0] + ".manifest.json"])
    manifest = json.loads((tmp_path / (outputs[0] + ".manifest.json")).read_text())
    assert manifest["command"] == manifest["flags"]["command"] == argv[0]
    assert manifest["inputs"] == [a.format(**paths) for a in inputs]
    assert manifest["outputs"] == [str(tmp_path / name) for name in outputs]
    if argv[0] in ("eval", "forecast"):  # the text is printed once and written once
        assert stdout == (tmp_path / outputs[0]).read_text()


def test_eval_without_an_output_writes_no_manifest(tmp_path, dataset, model_file, capsys):
    """An eval that names no output prints its table and writes nothing, so
    it needs no write access to the model's directory."""
    before = sorted(model_file.parent.iterdir())
    assert main(["eval", "--model", str(model_file), "--data", str(dataset),
                 "--compare", "persistence"]) == 0
    assert capsys.readouterr().out.startswith("Method")
    assert sorted(model_file.parent.iterdir()) == before


def test_train_manifest_records_the_resolved_report_path(tmp_path, dataset):
    model = tmp_path / "m.gcm"
    assert main(["train", "--data", str(dataset), "--model-out", str(model),
                 "--epochs", "0"]) == 0
    manifest = json.loads((tmp_path / "m.gcm.manifest.json").read_text())
    assert manifest["flags"]["report_out"] == str(model) + ".report.json"


def test_manifest_records_the_machine_and_data_artifacts_do_not(tmp_path, dataset,
                                                               monkeypatch):
    """The manifest states what byte-identity depends on; the data
    artifacts beside it stay free of it."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    model = tmp_path / "m.gcm"
    assert main(["train", "--data", str(dataset), "--model-out", str(model),
                 "--epochs", "0"]) == 0
    machine = json.loads((tmp_path / "m.gcm.manifest.json").read_text())["machine"]
    assert machine["python"] == platform.python_version()
    assert machine["numpy"] == np.__version__
    assert set(machine["blas"]) == {"name", "version"}
    assert isinstance(machine["cpus"], int) and machine["cpus"] >= 1
    assert (machine["OPENBLAS_NUM_THREADS"], machine["OMP_NUM_THREADS"]) == ("3", None)
    for artifact in (model, tmp_path / "m.gcm.report.json"):
        assert b"OPENBLAS_NUM_THREADS" not in artifact.read_bytes()


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


def test_train_on_values_beyond_1e154_reports_finite_nrmse(tmp_path):
    """Squares of such values overflow; the normalizer std and the nRMSE
    stay finite, and the model file loads."""
    data, model = tmp_path / "big.csv", tmp_path / "big.gcm"
    assert main(["gen-data", "--buses", "2", "--length", "100", "--noise", "1e200",
                 "--out", str(data)]) == 0
    assert main(["train", "--data", str(data), "--model-out", str(model), "--epochs", "1"]) == 0
    report = json.loads((tmp_path / "big.gcm.report.json").read_text())
    assert np.isfinite(report["test_nrmse"]) and report["test_nrmse"] > 0
    assert np.isfinite(load_model(model).normalizer.std).all()


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


def test_eval_trace_reproduces_the_model_row(tmp_path, dataset, model_file, capsys):
    """The trace holds one row per test instance and bus, and the model
    row's average and maximum |V| and angle errors are those of its rows."""
    trace = tmp_path / "trace.csv"
    capsys.readouterr()
    assert main(["eval", "--model", str(model_file), "--data", str(dataset),
                 "--trace-out", str(trace), "--compare", "persistence"]) == 0
    row = capsys.readouterr().out.splitlines()[2].split()
    n_test = len(split_windows(load_series(dataset), load_model(model_file).config.lag_r,
                               0.8)[1][1])
    cells = np.array([[float(c) for c in line.split(",")[2:]]
                      for line in trace.read_text().splitlines()[1:]])
    assert cells.shape == (n_test * 3, 2)
    ae_vm, ae_va = cells.T
    assert row[0] == "hybrid"
    assert row[1:5] == [f"{v:.6e}" for v in (ae_vm.mean(), ae_vm.max(),
                                              ae_va.mean(), ae_va.max())]


def test_eval_multi_run_trace_is_the_first_run(tmp_path, dataset, model_file):
    """With --runs 2 the trace is that of the first retrained run (seed
    `seed`) of the model's kind, not of the loaded model."""
    trace, expected = tmp_path / "trace.csv", tmp_path / "expected.csv"
    assert main(["eval", "--model", str(model_file), "--data", str(dataset),
                 "--runs", "2", "--epochs", "1", "--trace-out", str(trace)]) == 0
    config = load_model(model_file).config
    data = split_windows(load_series(dataset), config.lag_r, 0.8)
    export_trace_csv(multi_run(data, config, Hyperparams(epochs=1), 2)[0][0], data[1][1],
                     expected)
    assert trace.read_bytes() == expected.read_bytes()


def test_eval_deterministic_report_bytes(tmp_path, dataset, model_file):
    """Reruns write the same report and trace bytes, with and without
    retraining (a two-run eval retrains the hybrid and rnn-only per seed)."""
    for flags in (["--compare", "persistence"],
                  ["--runs", "2", "--epochs", "1", "--compare", "persistence,rnn-only"]):
        outputs = []
        for rerun in ("1", "2"):
            report, trace = tmp_path / f"r{rerun}.txt", tmp_path / f"t{rerun}.csv"
            rc = main(["eval", "--model", str(model_file), "--data", str(dataset),
                       "--report-out", str(report), "--trace-out", str(trace)] + flags)
            assert rc == 0
            outputs.append((report.read_bytes(), trace.read_bytes()))
        assert outputs[0] == outputs[1], flags


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


EVAL_TRAINING_FLAGS = [["--epochs", "0"], ["--batch", "7"], ["--lr", "5"], ["--seed", "9"]]


@pytest.mark.parametrize("flag", EVAL_TRAINING_FLAGS, ids=lambda flag: flag[0])
def test_eval_training_flag_without_retraining_is_usage_error(tmp_path, dataset, model_file,
                                                              capsys, flag):
    report = tmp_path / "r.txt"
    rc = main(["eval", "--model", str(model_file), "--data", str(dataset),
               "--report-out", str(report), "--compare", "persistence"] + flag)
    assert rc == 2
    assert flag[0] in capsys.readouterr().err
    assert not report.exists()


def test_eval_training_flags_accepted_when_retraining(tmp_path, dataset, model_file):
    report = tmp_path / "r.txt"
    flags = [arg for flag in EVAL_TRAINING_FLAGS for arg in flag]
    rc = main(["eval", "--model", str(model_file), "--data", str(dataset),
               "--report-out", str(report), "--runs", "2"] + flags)
    assert rc == 0
    manifest = json.loads((tmp_path / "r.txt.manifest.json").read_text())
    assert manifest["seeds"] == [9, 10]
    assert "aggregate over independent runs" in report.read_text()


@pytest.mark.parametrize("flags, seeds", [
    (["--compare", "persistence"], []),
    (["--compare", "rnn-only", "--epochs", "1", "--seed", "3"], [3]),
], ids=["no-retrain", "rnn-only"])
def test_eval_manifest_lists_only_trained_seeds(tmp_path, dataset, model_file, flags, seeds):
    report = tmp_path / "r.txt"
    assert main(["eval", "--model", str(model_file), "--data", str(dataset),
                 "--report-out", str(report)] + flags) == 0
    assert json.loads((tmp_path / "r.txt.manifest.json").read_text())["seeds"] == seeds


def test_train_and_eval_score_the_same_split(tmp_path, dataset, capsys):
    """train's test nRMSE is the model row's nRMSE cell of eval on the same
    data and --train-fraction."""
    model = tmp_path / "m.gcm"
    assert main(["train", "--data", str(dataset), "--model-out", str(model),
                 "--epochs", "1", "--train-fraction", "0.7"]) == 0
    capsys.readouterr()
    assert main(["eval", "--model", str(model), "--data", str(dataset),
                 "--train-fraction", "0.7", "--compare", "persistence"]) == 0
    row = re.search(r"^hybrid .*$", capsys.readouterr().out, re.M).group(0)
    nrmse = json.loads((tmp_path / "m.gcm.report.json").read_text())["test_nrmse"]
    assert row.split()[5] == f"{nrmse:.6e}"


@pytest.mark.parametrize("command, lag", [("train", "--lag"), ("eval", "the model's lag")],
                         ids=["train", "eval"])
def test_short_split_is_data_error_naming_its_settings(tmp_path, model_file, capsys, command,
                                                       lag):
    """A split with a partition shorter than lag + 1 depends on the data's
    length, so it is a data error (exit 1); its message names
    --train-fraction and the lag."""
    data = tmp_path / "short.csv"
    assert main(["gen-data", "--buses", "3", "--length", "20", "--out", str(data)]) == 0
    io = {"train": ["--model-out", str(tmp_path / "m")], "eval": ["--model", str(model_file)]}
    capsys.readouterr()
    assert main([command, "--data", str(data)] + io[command]) == 1
    err = capsys.readouterr().err
    assert "--train-fraction 0.8" in err and f"{lag} 10" in err


@pytest.mark.parametrize("length, rc", [(50, 1), (51, 0)])
def test_default_train_needs_51_instances(tmp_path, length, rc):
    """floor(0.8 T) >= 11 and T - floor(0.8 T) >= 11 first hold at T = 51."""
    data = tmp_path / "d.csv"
    assert main(["gen-data", "--buses", "1", "--length", str(length), "--out", str(data)]) == 0
    assert main(["train", "--data", str(data), "--model-out", str(tmp_path / "m"),
                 "--epochs", "0"]) == rc


def test_eval_shape_mismatch_exit_code(tmp_path, model_file):
    other = tmp_path / "other.csv"
    assert main(["gen-data", "--buses", "5", "--length", "60",
                 "--out", str(other)]) == 0
    rc = main(["eval", "--model", str(model_file), "--data", str(other),
               "--report-out", str(tmp_path / "r.txt")])
    assert rc == 1


def test_eval_on_all_zero_test_states_exit_code(tmp_path, dataset, model_file, capsys):
    """Every test-window target 0 leaves nRMSE undefined: a data error."""
    lines = dataset.read_text().splitlines()
    n_train = int(0.8 * (len(lines) - 1))
    zeroed = [",".join([row.split(",")[0]] + ["0.0"] * 6) for row in lines[1 + n_train:]]
    data = tmp_path / "zero.csv"
    data.write_text("\n".join(lines[:1 + n_train] + zeroed) + "\n")
    rc = main(["eval", "--model", str(model_file), "--data", str(data)])
    assert rc == 1
    assert "truth norm is zero" in capsys.readouterr().err


def test_eval_unknown_compare_entry(tmp_path, dataset, model_file):
    rc = main(["eval", "--model", str(model_file), "--data", str(dataset),
               "--report-out", str(tmp_path / "r.txt"), "--compare", "arima"])
    assert rc == 2


@pytest.fixture(scope="module")
def rnn_model_file(tmp_path_factory, dataset):
    path = tmp_path_factory.mktemp("rnn") / "rnn.gcm"
    assert main(["train", "--data", str(dataset), "--model-out", str(path),
                 "--epochs", "0", "--baseline", "rnn-only"]) == 0
    return path


@pytest.mark.parametrize("model, flags", [
    (None, ["--compare", "arima", "--epochs", "3"]),
    (None, ["--epochs", "3"]),
    (None, ["--runs", "0"]),
    (None, ["--runs", "2", "--batch", "0"]),
    ("rnn-only", ["--compare", "rnn-only"]),
], ids=["unknown-compare", "flag-without-retraining", "zero-runs", "out-of-range-batch",
        "rnn-only-vs-rnn-only"])
def test_eval_usage_error_precedes_loading(tmp_path, rnn_model_file, model, flags):
    """Flag checks run before any load; checks on the model's kind run
    before the data file is read (here it does not exist)."""
    path = rnn_model_file if model else tmp_path / "nope.m"
    rc = main(["eval", "--model", str(path), "--data", str(tmp_path / "nope.csv")] + flags)
    assert rc == 2


def test_eval_retrained_rows_are_means_over_the_same_seeds(tmp_path, dataset, model_file):
    report = tmp_path / "r.txt"
    rc = main(["eval", "--model", str(model_file), "--data", str(dataset),
               "--report-out", str(report), "--runs", "2", "--epochs", "1", "--seed", "4",
               "--compare", "persistence,rnn-only"])
    assert rc == 0
    config = load_model(model_file).config
    data = split_windows(load_series(dataset), config.lag_r, 0.8)
    x_test, y_test = data[1]
    hp = Hyperparams(epochs=1, seed=4)

    def mean_row(cfg):
        preds, n_diverged = multi_run(data, cfg, hp, 2)
        runs = [evaluate_predictions(p, y_test, 3) for p in preds]
        assert n_diverged == 0 and len(runs) == 2 and runs[0].nrmse != runs[1].nrmse
        return replace(runs[0], **{f.name: float(np.mean([getattr(m, f.name) for m in runs]))
                                   for f in fields(runs[0])})

    persistence = evaluate_predictions(persistence_predictions(x_test), y_test, 3)
    table = comparison_table({"hybrid": mean_row(config), "persistence": persistence,
                              "rnn-only": mean_row(replace(config, kind=RNN_ONLY))})
    assert report.read_text().startswith(table + "\naggregate over independent runs:\n")


def test_eval_scores_a_loaded_rnn_only_model_as_loaded(tmp_path, dataset, rnn_model_file,
                                                       capsys):
    """At --runs 1 the model's row scores the loaded RNN-only model: it is
    not retrained."""
    capsys.readouterr()
    assert main(["eval", "--model", str(rnn_model_file), "--data", str(dataset),
                 "--compare", "persistence"]) == 0
    model = load_model(rnn_model_file)
    x_test, y_test = split_windows(load_series(dataset), model.config.lag_r, 0.8)[1]
    table = comparison_table(
        {"rnn-only": evaluate_predictions(forecast_batch(model, x_test), y_test, 3),
         "persistence": evaluate_predictions(persistence_predictions(x_test), y_test, 3)})
    assert capsys.readouterr().out == table


def test_eval_divergence_in_one_method_counts_only_there(tmp_path, dataset, model_file,
                                                         capsys):
    """A hybrid run that diverges is counted in the hybrid block alone; the
    manifest still lists every seed."""
    fit = training.fit_forecaster

    def hybrid_diverges_at_seed_1(data, config, hp):
        if config.kind != RNN_ONLY and hp.seed == 1:
            raise DivergenceError(0, 0, float("nan"))
        return fit(data, config, hp)

    report = tmp_path / "r.txt"
    with mock.patch.object(training, "fit_forecaster", hybrid_diverges_at_seed_1):
        assert main(["eval", "--model", str(model_file), "--data", str(dataset),
                     "--report-out", str(report), "--runs", "3", "--epochs", "1",
                     "--compare", "rnn-only"]) == 0
    text = report.read_text()
    for label, completed, diverged in (("", 2, 1), (" (rnn-only)", 3, 0)):
        block = text.split(f"aggregate over independent runs{label}:\n")[1]
        agg = json.JSONDecoder().raw_decode(block)[0]
        assert (agg["n_runs"], agg["n_completed"], agg["n_diverged"]) == (3, completed, diverged)
    assert json.loads((tmp_path / "r.txt.manifest.json").read_text())["seeds"] == [0, 1, 2]


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
    raw = model_file.read_bytes()
    end = raw.index(b"\n")
    offset = 0
    for name, shape in json.loads(raw[:end])["arrays"]:
        if name == "dense3_b":
            break
        offset += int(np.prod(shape))
    values = np.frombuffer(raw, dtype="<f8", offset=end + 1).copy()
    values[offset] = np.inf
    bad = tmp_path / "bad.json"
    bad.write_bytes(raw[:end + 1] + values.tobytes())
    rc = main(["forecast", "--model", str(bad), "--data", str(dataset),
               "--at-instance", "50"])
    assert rc == 1


def test_forecast_v1_model_exit_code(tmp_path, dataset, model_file, capsys):
    header = json.loads(model_file.read_bytes().split(b"\n", 1)[0])
    header["format_version"] = "gridcast-model-v1"
    old = tmp_path / "old.json"
    old.write_text(json.dumps(header, indent=1))
    rc = main(["forecast", "--model", str(old), "--data", str(dataset),
               "--at-instance", "50"])
    assert rc == 1
    err = capsys.readouterr().err  # a v1 file's first line is "{": no header to name it
    assert str(old) in err and "re-train" in err


def test_forecast_bus_count_mismatch_exit_code(tmp_path, model_file, capsys):
    other = tmp_path / "other.csv"
    assert main(["gen-data", "--buses", "2", "--length", "60", "--out", str(other)]) == 0
    capsys.readouterr()
    rc = main(["forecast", "--model", str(model_file), "--data", str(other),
               "--at-instance", "50"])
    assert rc == 1
    assert "model expects 3 buses, data has 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["forecast", "--at-instance", "150"], ["eval"]],
                         ids=["forecast", "eval"])
def test_forecast_overflow_is_data_error_without_warning(tmp_path, dataset, model_file,
                                                         capsys, argv):
    """Every cell 1e308 is finite, so the series loads; normalizing it
    overflows, and that is a named error, not a warning and a nan forecast."""
    lines = dataset.read_text().splitlines()
    huge = tmp_path / "huge.csv"
    huge.write_text("\n".join(lines[:1] + [",".join([row.split(",")[0]] + ["1e308"] * 6)
                                            for row in lines[1:]]) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv[:1] + ["--model", str(model_file), "--data", str(huge)] + argv[1:])
    assert rc == 1
    assert caught == []
    err = capsys.readouterr().err
    assert "the forecast overflows float64" in err and "Warning" not in err


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
