"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json

import numpy as np
import numpy.testing as npt
import pytest

from gridcast import forecaster, layers, training
from gridcast.cli import main as cli_main
from gridcast.data_pipeline import (SyntheticConfig, build_windows,
                                    chronological_split, fit_normalizer,
                                    generate_synthetic_series)
from gridcast.evaluation import (comparison_table, evaluate_predictions,
                                 export_trace_csv, normalized_rmse,
                                 persistence_predictions)
from gridcast.forecaster import ModelConfig, init_model
from gridcast.training import Hyperparams, fit_forecaster

from conftest import (batch_loss_and_grads, central_diff, oracle_conv1d_forward,
                      param_count, rel_err)

TINY = dict(n_buses=2, lag_r=3, conv_filters=2, rnn_hidden=4, rnn_layers=3)
FD_STEP = 1e-5
FD_TOL = 1e-4
KINK_MARGIN = 1e-3  # keep finite differences away from ReLU kinks / pool ties


def _pass(msg):
    print(f"PASS {msg}")


# ---------------------------------------------------------------------------
# 1. gradient correctness
# ---------------------------------------------------------------------------

def _probe_check(forward, backward, arrays, probe):
    """Compare analytic grads against central differences for every array."""
    _, cache = forward()
    analytic = backward(cache, probe)
    assert len(analytic) == len(arrays)
    for arr, grad in zip(arrays, analytic):
        def loss():
            return float(np.sum(forward()[0] * probe))

        assert rel_err(grad, central_diff(loss, arr, h=FD_STEP)) <= FD_TOL


def _layer_gradcheck(seed):
    g = np.random.default_rng(seed)
    # conv
    x = g.normal(size=(2, 3, 5))
    w = g.normal(size=(2, 3, 2))
    b = g.normal(size=2)
    probe = g.normal(size=(2, 2, 4))
    _probe_check(lambda: layers.conv1d_forward(x, w, b), layers.conv1d_backward,
                 (w, b), probe)
    # maxpool
    x = g.normal(size=(2, 3, 7))
    probe = g.normal(size=(2, 3, 3))
    _probe_check(lambda: layers.maxpool_forward(x),
                 lambda c, p: (layers.maxpool_backward(c, p),),
                 (x,), probe)
    # dense, both activations
    for act in ("relu", "linear"):
        x = g.normal(size=(3, 4))
        w = g.normal(size=(2, 4))
        b = g.normal(size=2)
        probe = g.normal(size=(3, 2))
        _probe_check(lambda: layers.dense_forward(x, w, b, act),
                     lambda c, p: (lambda pg, dx: (pg[0], pg[1], dx))(
                         *layers.dense_backward(c, p)),
                     (w, b, x), probe)
    # stacked rnn (3 layers)
    x = g.normal(size=(2, 3, 4))
    params = [(g.normal(size=(4, 3)), g.normal(size=(4, 4)) * 0.5, g.normal(size=4)),
              (g.normal(size=(4, 4)), g.normal(size=(4, 4)) * 0.5, g.normal(size=4)),
              (g.normal(size=(4, 4)), g.normal(size=(4, 4)) * 0.5, g.normal(size=4))]
    probe = g.normal(size=(2, 4))
    flat = [a for layer in params for a in layer]
    _probe_check(lambda: layers.stacked_rnn_forward(x, params),
                 lambda c, p: [a for layer in layers.stacked_rnn_backward(c, p)
                               for a in layer],
                 flat, probe)


def _kink_margin(model, x):
    """Smallest |pre-activation| feeding a ReLU anywhere in the model. The
    caches hold only the ReLU outputs, so each pre-activation is recomputed
    from the inputs and states they hold."""
    _, cache = forecaster.model_forward(model, x)
    _, layer_params, hidden, below = cache["rnn"]
    pres = []
    for (wx, wh, b), h in zip(layer_params, hidden):
        for t in range(len(h)):
            recurrent = h[t - 1] @ wh.T if t else 0.0
            pres.append(below[t] @ wx.T + recurrent + b)
        below = h
    if model.config.kind == forecaster.HYBRID:
        p = model.params
        pres.append(oracle_conv1d_forward(cache["conv"][0], p["conv_w"], p["conv_b"])[1])
        flat, w, _, _ = cache["dense1"]
        pres.append(flat @ w.T + p["dense1_b"])
    return min(float(np.min(np.abs(p))) for p in pres)


def _whole_model_instance(seed):
    cfg = ModelConfig(**TINY)
    for attempt in range(50):
        g = np.random.default_rng(seed + attempt * 100003)
        model = init_model(cfg, seed)
        for k in model.params:
            model.params[k] = g.normal(scale=0.5, size=model.params[k].shape)
        x = g.normal(size=(3, 4, 3))
        y = g.normal(size=(3, 4))
        if _kink_margin(model, x) > KINK_MARGIN:
            return model, x, y
    raise AssertionError("could not sample a kink-free instance")


def _whole_model_gradcheck(seed):
    model, x, y = _whole_model_instance(seed)
    _, grads = batch_loss_and_grads(model, x, y)
    for k, p in model.params.items():
        def loss():
            return batch_loss_and_grads(model, x, y)[0]

        assert rel_err(grads[k], central_diff(loss, p, h=FD_STEP)) <= FD_TOL, k


def test_criterion_1_gradient_correctness():
    for seed in range(100):
        _layer_gradcheck(seed)
    for seed in range(100):
        _whole_model_gradcheck(seed)
    _pass("criterion 1: analytic gradients match central finite differences "
          f"(rel err <= {FD_TOL}) for all layer kinds and the whole hybrid "
          "model over 100 seeds each")


# ---------------------------------------------------------------------------
# 2. shape oracle at reference (118-bus) scale
# ---------------------------------------------------------------------------

def test_criterion_2_shape_oracle_reference_scale():
    cfg = ModelConfig(n_buses=118, lag_r=10)
    model = init_model(cfg, 0)
    x = np.random.default_rng(0).normal(size=(1, 236, 10))
    conv, _ = layers.conv1d_forward(x, model.params["conv_w"], model.params["conv_b"])
    assert conv.shape == (1, 118, 9)
    pooled, _ = layers.maxpool_forward(conv)
    assert pooled.shape == (1, 118, 4)
    flat = pooled.reshape(1, -1)
    assert flat.shape == (1, 472)
    d1, _ = layers.dense_forward(flat, model.params["dense1_w"],
                                 model.params["dense1_b"], "relu")
    assert d1.shape == (1, 236)
    d2, _ = layers.dense_forward(d1, model.params["dense2_w"], model.params["dense2_b"])
    assert d2.shape == (1, 118)
    top, _ = layers.stacked_rnn_forward(
        x, [(model.params[f"rnn{l}_wx"], model.params[f"rnn{l}_wh"],
             model.params[f"rnn{l}_b"]) for l in range(3)])
    assert top.shape == (1, 236)
    d3, _ = layers.dense_forward(top, model.params["dense3_w"], model.params["dense3_b"])
    assert d3.shape == (1, 118)
    out, _ = forecaster.model_forward(model, x)
    assert out.shape == (1, 236)
    _pass("criterion 2: internal chain 236x10 -> 118x9 -> 118x4 -> 472 -> 236 "
          "-> 118 (CNN) and 236 -> 118 (RNN) at reference scale")


# ---------------------------------------------------------------------------
# 3. parameter-count oracle
# ---------------------------------------------------------------------------

def test_criterion_3_param_count_oracle():
    assert 118 * (236 * 2 + 1) == 55814
    default = init_model(ModelConfig(n_buses=118), 0)
    assert default.params["conv_w"].size + default.params["conv_b"].size == 55814
    rng = np.random.default_rng(42)
    for _ in range(20):
        cfg = ModelConfig(
            n_buses=int(rng.integers(1, 8)),
            lag_r=int(rng.integers(4, 14)),
            conv_filters=int(rng.integers(1, 10)),
            dense1_width=int(rng.integers(1, 12)),
            rnn_layers=int(rng.integers(1, 5)),
            rnn_hidden=int(rng.integers(1, 12)),
            kind=forecaster.HYBRID if rng.integers(0, 2) else forecaster.RNN_ONLY,
        )
        enumerated = sum(p.size for p in init_model(cfg, 0).params.values())
        assert param_count(cfg) == enumerated
    _pass("criterion 3: param_count equals exhaustive enumeration for 20 "
          "random configs plus the 55,814 default conv total")


# ---------------------------------------------------------------------------
# 4. memorization
# ---------------------------------------------------------------------------

def test_criterion_4_memorization():
    series = generate_synthetic_series(SyntheticConfig(n_buses=3, length=31, seed=1))
    x, y = build_windows(series, 10)
    norm = fit_normalizer(series)
    xn, yn = norm.apply_window(x[:20]), norm.apply(y[:20])
    cfg = ModelConfig(n_buses=3, lag_r=10, conv_filters=8, dense1_width=32,
                      rnn_hidden=16)
    model = init_model(cfg, 7, norm)
    hp = Hyperparams(epochs=4000, batch_size=20, learning_rate=3e-3, seed=7)
    _, report = training.train(model, (xn, yn), hp)
    assert report.final_train_loss <= 1e-5
    _pass(f"criterion 4: 20-sample memorization reaches normalized loss "
          f"{report.final_train_loss:.2e} <= 1e-5 within 4000 epochs (seed 7)")


# ---------------------------------------------------------------------------
# 5. beats persistence
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def shipped_series():
    return generate_synthetic_series(SyntheticConfig(n_buses=14, length=2000, seed=0))


def test_criterion_5_beats_persistence(shipped_series):
    cfg = ModelConfig(n_buses=14, lag_r=10)
    ratios = []
    for seed in range(5):
        _, report, x_test, y_test, _ = fit_forecaster(
            shipped_series, cfg, Hyperparams(epochs=15, seed=seed))
        pers = normalized_rmse(persistence_predictions(x_test), y_test)
        ratios.append(report.test_nrmse / pers)
    mean_ratio = float(np.mean(ratios))
    assert mean_ratio <= 0.9, ratios
    _pass(f"criterion 5: hybrid test nRMSE averages {100 * (1 - mean_ratio):.1f}% "
          "below persistence over 5 seeds (needs >= 10%)")


# ---------------------------------------------------------------------------
# 6. baseline parity harness
# ---------------------------------------------------------------------------

def test_criterion_6_baseline_parity_harness(shipped_series):
    hp = Hyperparams(epochs=5, seed=0)
    hybrid_cfg = ModelConfig(n_buses=14, lag_r=10)
    rnn_cfg = ModelConfig(n_buses=14, lag_r=10, kind=forecaster.RNN_ONLY)
    hmodel, _, x_test, y_test, _ = fit_forecaster(shipped_series, hybrid_cfg, hp)
    rmodel, _, _, _, _ = fit_forecaster(shipped_series, rnn_cfg, hp)
    h_rep, _ = evaluate_predictions(forecaster.forecast_batch(hmodel, x_test), y_test, 14)
    r_rep, _ = evaluate_predictions(forecaster.forecast_batch(rmodel, x_test), y_test, 14)
    p_rep, _ = evaluate_predictions(persistence_predictions(x_test), y_test, 14)
    table = comparison_table({"hybrid": h_rep, "rnn-only": r_rep,
                              "persistence": p_rep})
    lines = table.splitlines()
    assert "AvgAE |V|" in lines[0] and "MaxAE |V|" in lines[0]
    assert "AvgAE angle" in lines[0] and "MaxAE angle" in lines[0]
    assert "nRMSE" in lines[0]
    assert {l.split()[0] for l in lines[2:]} == {"hybrid", "rnn-only", "persistence"}
    direction = ("matches" if h_rep.avg_ae_magnitude <= r_rep.avg_ae_magnitude
                 else "does not match")
    _pass("criterion 6: identical-protocol comparison emits the four-column "
          f"AE table plus nRMSE; hybrid-vs-RNN magnitude direction {direction} "
          f"the expected one on this dataset (hybrid {h_rep.avg_ae_magnitude:.3e} "
          f"vs rnn-only {r_rep.avg_ae_magnitude:.3e}, reported, not asserted)")


# ---------------------------------------------------------------------------
# 7. CLI determinism
# ---------------------------------------------------------------------------

def test_criterion_7_cli_determinism(tmp_path):
    artifacts = []
    for tag in ("a", "b"):
        d = tmp_path / tag
        d.mkdir()
        data = d / "grid.csv"
        model = d / "model.json"
        report = d / "report.txt"
        trace = d / "trace.csv"
        assert cli_main(["gen-data", "--buses", "3", "--length", "120",
                         "--seed", "21", "--out", str(data)]) == 0
        assert cli_main(["train", "--data", str(data), "--model-out", str(model),
                         "--epochs", "2", "--seed", "21"]) == 0
        assert cli_main(["eval", "--model", str(model), "--data", str(data),
                         "--report-out", str(report), "--trace-out", str(trace),
                         "--compare", "persistence"]) == 0
        artifacts.append([p.read_bytes() for p in
                          (data, model, model.parent / "model.json.report.json",
                           report, trace)])
    assert artifacts[0] == artifacts[1]
    _pass("criterion 7: identical CLI invocations produce byte-identical "
          "dataset, model, train report, metrics report and trace files")


# ---------------------------------------------------------------------------
# 8. data-pipeline oracles
# ---------------------------------------------------------------------------

def test_criterion_8_data_pipeline_oracles():
    from gridcast.data_pipeline import StateSeries
    big = StateSeries(1, np.random.default_rng(0).normal(size=(18528, 2)))
    train_part, test_part = chronological_split(big, 0.8)
    assert (len(train_part), len(test_part)) == (14822, 3706)
    rng = np.random.default_rng(1)
    for _ in range(30):
        t = int(rng.integers(3, 200))
        r = int(rng.integers(1, t))
        series = StateSeries(1, rng.normal(size=(t, 2)))
        x, _ = build_windows(series, r)
        assert len(x) == t - r
    series = StateSeries(2, rng.normal(size=(100, 4)) * 10 + 3)
    stats = fit_normalizer(series)
    back = stats.invert(stats.apply(series.values))
    npt.assert_allclose(back, series.values, rtol=1e-12)
    _pass("criterion 8: 18,528 @ 0.8 splits 14,822/3,706; window count is "
          "T-r on 30 random (T, r); normalizer round-trips within 1e-12")


# ---------------------------------------------------------------------------
# 9. metric oracles
# ---------------------------------------------------------------------------

def test_criterion_9_metric_oracles(tmp_path):
    truths = np.random.default_rng(2).normal(size=(6, 8)) + 4.0
    assert normalized_rmse(truths.copy(), truths) == 0.0
    assert normalized_rmse(np.zeros_like(truths), truths) == 1.0
    preds = truths + np.random.default_rng(3).normal(size=(6, 8))
    report, trace = evaluate_predictions(preds, truths, 4)
    path = tmp_path / "trace.csv"
    export_trace_csv(trace, path)
    ae_vm = np.zeros((6, 4))
    ae_va = np.zeros((6, 4))
    for row in path.read_text().splitlines()[1:]:
        i, b, vm, va = row.split(",")
        ae_vm[int(i) - 1, int(b) - 1] = float(vm)
        ae_va[int(i) - 1, int(b) - 1] = float(va)
    assert float(ae_vm.mean()) == report.avg_ae_magnitude
    assert float(ae_vm.max()) == report.max_ae_magnitude
    assert float(ae_va.mean()) == report.avg_ae_angle
    assert float(ae_va.max()) == report.max_ae_angle
    _pass("criterion 9: nRMSE trivial cases are exactly 0/1 and the exported "
          "trace reproduces every report statistic exactly")
