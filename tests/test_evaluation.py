import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridcast.evaluation import (comparison_table, evaluate_predictions, export_trace_csv,
                                 normalized_rmse, persistence_predictions)
from gridcast.data_pipeline import (SyntheticConfig, build_windows,
                                    generate_synthetic_series)
from gridcast.forecaster import ModelConfig, forecast_batch, init_model

from conftest import identity_normalizer


# ---------------------------------------------------------------------------
# nRMSE
# ---------------------------------------------------------------------------

def test_nrmse_perfect_predictions(rng):
    truths = rng.normal(size=(5, 6))
    assert normalized_rmse(truths.copy(), truths) == 0.0


def test_nrmse_all_zero_predictions(rng):
    truths = rng.normal(size=(5, 6))
    assert normalized_rmse(np.zeros_like(truths), truths) == pytest.approx(1.0)


def test_nrmse_hand_norms():
    truth = np.array([5.0, 0.0, 0.0, 0.0])
    pred = truth + np.array([3.0, 4.0, 0.0, 0.0])
    assert normalized_rmse(pred, truth) == pytest.approx(1.0)


def test_nrmse_rejects_empty_and_mismatch():
    with pytest.raises(ValueError):
        normalized_rmse(np.zeros((0, 2)), np.zeros((0, 2)))
    with pytest.raises(ValueError):
        normalized_rmse(np.zeros((2, 2)), np.zeros((2, 3)))


@given(st.floats(0.01, 100), st.integers(0, 10 ** 6))
@settings(max_examples=50)
def test_nrmse_scale_covariant_in_errors(c, seed):
    g = np.random.default_rng(seed)
    truths = g.normal(size=(4, 3)) + 5.0
    errors = g.normal(size=(4, 3))
    base = normalized_rmse(truths + errors, truths)
    scaled = normalized_rmse(truths + c * errors, truths)
    assert scaled == pytest.approx(c * base, rel=1e-9)


MODERATE = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


@given(st.lists(st.tuples(MODERATE, MODERATE), min_size=1, max_size=12),
       st.sampled_from([-600, 0, 600]))
@settings(max_examples=100, deadline=None)
def test_nrmse_bit_identical_under_power_of_two_scaling(pairs, j):
    """Scaling by 2**j is exact, so nRMSE keeps its bits; at j = 600 the
    squares of the raw values would overflow, at j = -600 underflow."""
    preds, truths = np.array(pairs).T
    assume(truths.any())
    got = normalized_rmse(np.ldexp(preds, j), np.ldexp(truths, j))
    want = normalized_rmse(preds, truths)
    assert np.array(got).view(np.uint64) == np.array(want).view(np.uint64)


def test_nrmse_of_subnormal_truths():
    """A subnormal max |truth| gets the finite scale 2**1021, not inf (nan)."""
    with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
        assert normalized_rmse(np.zeros(2), [1e-310, 2e-310]) == 1.0
        assert normalized_rmse([1e-310, 2e-310], [1e-310, 2e-310]) == 0.0


# ---------------------------------------------------------------------------
# absolute-error statistics
# ---------------------------------------------------------------------------

def test_ae_stats_perfect(rng):
    truths = rng.normal(size=(4, 6)) + 2.0
    rep = evaluate_predictions(truths.copy(), truths, 3)
    assert (rep.avg_ae_magnitude, rep.max_ae_magnitude) == (0.0, 0.0)
    assert (rep.avg_ae_angle, rep.max_ae_angle) == (0.0, 0.0)
    assert rep.nrmse == 0.0


def test_ae_stats_uniform_magnitude_error():
    truths = np.ones((3, 4))
    preds = truths.copy()
    preds[:, :2] += 0.01
    rep = evaluate_predictions(preds, truths, 2)
    assert rep.avg_ae_magnitude == pytest.approx(0.01)
    assert rep.max_ae_magnitude == pytest.approx(0.01)
    assert rep.avg_ae_angle == 0.0 and rep.max_ae_angle == 0.0


def test_ae_stats_hand_avg_max():
    truths = np.zeros((2, 2))
    preds = np.array([[0.01, 0.0], [0.03, 0.0]])
    rep = evaluate_predictions(preds, truths + 1.0, 1)
    npt.assert_allclose(rep.avg_ae_magnitude, np.mean([0.99, 0.97]))
    # one magnitude error per instance: {0.01, 0.03}
    rep = evaluate_predictions(np.array([[1.01, 5.0], [1.03, 5.0]]),
                               np.array([[1.0, 5.0], [1.0, 5.0]]), 1)
    assert rep.avg_ae_magnitude == pytest.approx(0.02)
    assert rep.max_ae_magnitude == pytest.approx(0.03)


def test_max_ae_at_least_avg_and_order_invariant(rng):
    preds = rng.normal(size=(6, 8))
    truths = rng.normal(size=(6, 8))
    rep = evaluate_predictions(preds, truths, 4)
    assert rep.max_ae_magnitude >= rep.avg_ae_magnitude
    assert rep.max_ae_angle >= rep.avg_ae_angle
    perm = rng.permutation(6)
    rep2 = evaluate_predictions(preds[perm], truths[perm], 4)
    assert rep2 == rep


def test_ae_stats_rejects_mismatch():
    with pytest.raises(ValueError):
        evaluate_predictions(np.zeros((2, 4)), np.ones((2, 4)), 3)


@pytest.mark.parametrize("shape", [(4,), (2, 4, 3)])
def test_evaluate_predictions_rejects_non_2d_input(shape):
    with pytest.raises(ValueError, match="bad shapes"):
        evaluate_predictions(np.ones(shape), np.ones(shape), 2)


# ---------------------------------------------------------------------------
# persistence baseline
# ---------------------------------------------------------------------------

def test_persistence_returns_last_column(rng):
    window = rng.normal(size=(6, 5))
    npt.assert_array_equal(persistence_predictions(window[None])[0], window[:, -1])


def test_persistence_zero_error_on_constant_series():
    series_row = np.array([1.0, 2.0, 3.0, 4.0])
    windows = np.tile(series_row[None, :, None], (3, 1, 5))
    preds = persistence_predictions(windows)
    truths = np.tile(series_row, (3, 1))
    rep = evaluate_predictions(preds, truths, 2)
    assert rep.nrmse == 0.0


def test_persistence_nonzero_on_default_synthetic():
    series = generate_synthetic_series(SyntheticConfig(n_buses=3, length=150, seed=0))
    x, y = build_windows(series, 10)
    assert normalized_rmse(persistence_predictions(x), y) > 0.0


# ---------------------------------------------------------------------------
# evaluate / trace
# ---------------------------------------------------------------------------

def test_evaluate_shapes_and_determinism(rng):
    cfg = ModelConfig(n_buses=2, lag_r=3, conv_filters=2, rnn_hidden=4)
    model = init_model(cfg, 0, identity_normalizer(cfg.n_features))
    x = rng.normal(size=(7, 4, 3))
    y = rng.normal(size=(7, 4))
    rep1 = evaluate_predictions(forecast_batch(model, x), y, 2)
    rep2 = evaluate_predictions(forecast_batch(model, x), y, 2)
    assert rep1 == rep2


def test_ground_truth_as_predictions_gives_zero_report(rng):
    y = rng.normal(size=(4, 6))
    rep = evaluate_predictions(y.copy(), y, 3)
    assert rep.nrmse == 0.0
    assert rep.max_ae_magnitude == rep.max_ae_angle == 0.0


def test_report_recomputable_from_exported_trace(tmp_path, rng):
    preds = rng.normal(size=(5, 6))
    truths = rng.normal(size=(5, 6))
    rep = evaluate_predictions(preds, truths, 3)
    path = tmp_path / "trace.csv"
    export_trace_csv(preds, truths, path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "instance,bus,ae_vm,ae_va"
    ae_vm = np.zeros((5, 3))
    ae_va = np.zeros((5, 3))
    for row in rows[1:]:
        i, b, vm, va = row.split(",")
        ae_vm[int(i) - 1, int(b) - 1] = float(vm)
        ae_va[int(i) - 1, int(b) - 1] = float(va)
    assert ae_vm.mean() == rep.avg_ae_magnitude
    assert ae_vm.max() == rep.max_ae_magnitude
    assert ae_va.mean() == rep.avg_ae_angle
    assert ae_va.max() == rep.max_ae_angle


@pytest.mark.parametrize("pred_shape, truth_shape", [((5, 10), (10,)), ((5, 5), (5, 5))],
                         ids=["flat-truths", "odd-width"])
def test_trace_rejects_unequal_or_odd_width_shapes(tmp_path, rng, pred_shape, truth_shape):
    """Truths of shape (2n,) would broadcast against (T, 2n) predictions,
    and an odd width would drop its last column: both raise, and no trace
    is written."""
    path = tmp_path / "trace.csv"
    with pytest.raises(ValueError, match="bad shapes"):
        export_trace_csv(rng.normal(size=pred_shape), rng.normal(size=truth_shape), path)
    assert not path.exists()


def test_comparison_table_layout(rng):
    preds = rng.normal(size=(3, 4))
    truths = rng.normal(size=(3, 4))
    rep = evaluate_predictions(preds, truths, 2)
    table = comparison_table({"hybrid": rep, "persistence": rep})
    lines = table.splitlines()
    assert "AvgAE |V|" in lines[0] and "MaxAE angle" in lines[0] and "nRMSE" in lines[0]
    assert lines[2].startswith("hybrid")
    assert lines[3].startswith("persistence")
