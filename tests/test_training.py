from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from gridcast import evaluation, forecaster, training
from gridcast.data_pipeline import SyntheticConfig, generate_synthetic_series
from gridcast.forecaster import ModelConfig, init_model
from gridcast.training import (AdamState, DivergenceError, Hyperparams,
                               adam_step, batch_loss_and_grads,
                               fit_forecaster, joint_loss_and_grad, multi_run,
                               train)

from conftest import central_diff, rel_err

TINY = dict(n_buses=2, lag_r=3, conv_filters=2, rnn_hidden=4)


def tiny_data(n_samples=6, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n_samples, 4, 3)), rng.normal(size=(n_samples, 4))


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def test_mse_trivial_cases():
    target = np.array([[1.0, 2.0, 3.0, 4.0]])
    loss, d = joint_loss_and_grad(target.copy(), target, 2)
    assert loss == 0.0
    npt.assert_array_equal(d, np.zeros_like(target))
    loss, _ = joint_loss_and_grad(target + 0.5, target, 2)
    assert loss == pytest.approx(0.5)  # 0.25 per head
    with pytest.raises(ValueError):
        joint_loss_and_grad(target[:, :2], target, 2)


def test_mse_gradient_matches_finite_differences(rng):
    pred = rng.normal(size=(3, 4))
    target = rng.normal(size=(3, 4))
    _, d = joint_loss_and_grad(pred, target, 2)

    def loss():
        return joint_loss_and_grad(pred, target, 2)[0]

    assert np.max(np.abs(d - central_diff(loss, pred, h=1e-6))) < 1e-8


def test_joint_loss_uniform_error():
    pred = np.full((1, 4), 1.0)
    target = np.zeros((1, 4))
    loss, d = joint_loss_and_grad(pred, target, 2)
    assert loss == pytest.approx(2.0)  # e^2 per head, two heads
    npt.assert_allclose(d, np.full((1, 4), 1.0))


# ---------------------------------------------------------------------------
# adam
# ---------------------------------------------------------------------------

def test_adam_zero_gradient_is_noop():
    params = {"w": np.array([1.0, -2.0])}
    grads = {"w": np.zeros(2)}
    state = AdamState.zeros_like(params)
    hp = Hyperparams()
    new_p, new_s = adam_step(params, grads, state, hp)
    npt.assert_array_equal(new_p["w"], params["w"])
    assert new_s.t == 1


def test_adam_first_step_magnitude():
    # bias-corrected first step: lr * g / (|g| + eps) ~= lr * sign(g)
    g = 0.37
    hp = Hyperparams(learning_rate=1e-3)
    params = {"w": np.array([2.0])}
    state = AdamState.zeros_like(params)
    new_p, _ = adam_step(params, {"w": np.array([g])}, state, hp)
    step = params["w"][0] - new_p["w"][0]
    assert step == pytest.approx(hp.learning_rate * g / (abs(g) + hp.epsilon), rel=1e-9)


def test_adam_deterministic():
    params = {"w": np.array([1.0, 2.0])}
    grads = {"w": np.array([0.5, -0.5])}
    state = AdamState.zeros_like(params)
    hp = Hyperparams()
    a, sa = adam_step(params, grads, state, hp)
    b, sb = adam_step(params, grads, state, hp)
    npt.assert_array_equal(a["w"], b["w"])
    npt.assert_array_equal(sa.m["w"], sb.m["w"])


def test_adam_rejects_shape_mismatch():
    params = {"w": np.zeros(2)}
    state = AdamState.zeros_like(params)
    with pytest.raises(ValueError):
        adam_step(params, {"w": np.zeros(3)}, state, Hyperparams())


def test_hyperparam_validation():
    with pytest.raises(ValueError):
        Hyperparams(beta1=1.0)
    with pytest.raises(ValueError):
        Hyperparams(learning_rate=0.0)
    with pytest.raises(ValueError):
        Hyperparams(freeze_branch="conv")


# ---------------------------------------------------------------------------
# train loop
# ---------------------------------------------------------------------------

def test_zero_epochs_returns_model_unchanged():
    model = init_model(ModelConfig(**TINY), 0)
    trained, report = train(model, tiny_data(), Hyperparams(epochs=0))
    for k in model.params:
        npt.assert_array_equal(trained.params[k], model.params[k])
    assert report.epoch_losses == []


def test_train_deterministic():
    model = init_model(ModelConfig(**TINY), 1)
    hp = Hyperparams(epochs=5, seed=3)
    a, ra = train(model, tiny_data(), hp)
    b, rb = train(model, tiny_data(), hp)
    for k in a.params:
        npt.assert_array_equal(a.params[k], b.params[k])
    assert ra.epoch_losses == rb.epoch_losses


def test_final_train_loss_is_full_batch_loss_of_trained_model():
    x, y = tiny_data()
    trained, report = train(init_model(ModelConfig(**TINY), 1), (x, y),
                            Hyperparams(epochs=3, batch_size=4, seed=2))
    assert report.final_train_loss == batch_loss_and_grads(trained, x, y)[0]


def test_train_does_not_mutate_input_model():
    model = init_model(ModelConfig(**TINY), 1)
    before = {k: p.copy() for k, p in model.params.items()}
    train(model, tiny_data(), Hyperparams(epochs=3))
    for k in before:
        npt.assert_array_equal(model.params[k], before[k])


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_divergence_detection():
    model = init_model(ModelConfig(**TINY), 1)
    hp = Hyperparams(epochs=2, learning_rate=1e3)
    x, y = tiny_data()
    y = y * 1e200  # squared error overflows to inf on the first batch
    with pytest.raises(DivergenceError) as exc:
        train(model, (x, y), hp)
    assert exc.value.epoch == 0


def test_branch_gradient_isolation(rng):
    model = init_model(ModelConfig(**TINY), 4)
    x, y = tiny_data(3, 7)
    pred, cache = forecaster.model_forward(model, x)
    n = 2
    # magnitude-only loss: zero gradient on every RNN-branch parameter
    d = np.zeros_like(pred)
    d[:, :n] = 2.0 * (pred[:, :n] - y[:, :n]) / (len(x) * n)
    grads = forecaster.model_backward(model, cache, d)
    for name in forecaster.rnn_branch_param_names(model.config):
        npt.assert_array_equal(grads[name], np.zeros_like(grads[name]))
    # angle-only loss: zero gradient on every CNN-branch parameter
    d = np.zeros_like(pred)
    d[:, n:] = 2.0 * (pred[:, n:] - y[:, n:]) / (len(x) * n)
    grads = forecaster.model_backward(model, cache, d)
    for name in forecaster.cnn_branch_param_names(model.config):
        npt.assert_array_equal(grads[name], np.zeros_like(grads[name]))


def test_freeze_branch_keeps_parameters_fixed():
    model = init_model(ModelConfig(**TINY), 2)
    hp = Hyperparams(epochs=3, freeze_branch="cnn")
    trained, _ = train(model, tiny_data(), hp)
    for name in forecaster.cnn_branch_param_names(model.config):
        npt.assert_array_equal(trained.params[name], model.params[name])
    assert any(not np.array_equal(trained.params[n], model.params[n])
               for n in forecaster.rnn_branch_param_names(model.config))


def test_whole_model_gradient_matches_finite_differences():
    cfg = ModelConfig(n_buses=2, lag_r=3, conv_filters=2, rnn_hidden=4, rnn_layers=3)
    for seed in range(10):
        g = np.random.default_rng(seed)
        model = init_model(cfg, seed)
        for k in model.params:
            model.params[k] = g.normal(scale=0.5, size=model.params[k].shape)
        x = g.normal(size=(3, 4, 3))
        y = g.normal(size=(3, 4))
        _, grads = batch_loss_and_grads(model, x, y)
        for k, p in model.params.items():
            def loss():
                return batch_loss_and_grads(model, x, y)[0]

            assert rel_err(grads[k], central_diff(loss, p)) < 1e-4, k


def test_memorization_small():
    # overfit capacity on a handful of samples
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 4, 3))
    y = rng.normal(size=(5, 4)) * 0.3
    cfg = ModelConfig(n_buses=2, lag_r=3, conv_filters=4, dense1_width=16, rnn_hidden=8)
    model = init_model(cfg, 0)
    hp = Hyperparams(epochs=800, batch_size=5, learning_rate=3e-3, seed=0)
    trained, report = train(model, (x, y), hp)
    assert report.final_train_loss <= 1e-5


def test_first_epoch_loss_decreases_on_synthetic_default():
    series = generate_synthetic_series(SyntheticConfig(n_buses=4, length=200, seed=0))
    cfg = ModelConfig(n_buses=4, lag_r=10)
    model, report, _, _, _ = fit_forecaster(series, cfg, Hyperparams(epochs=2, seed=0))
    assert report.epoch_losses[1] < report.epoch_losses[0]


# ---------------------------------------------------------------------------
# multi-run protocol
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_series():
    return generate_synthetic_series(SyntheticConfig(n_buses=3, length=120, seed=5))


def test_multi_run_single_equals_run(small_series):
    cfg = ModelConfig(n_buses=3, lag_r=5)
    hp = Hyperparams(epochs=2, seed=1)
    agg, reports, trace = multi_run(small_series, cfg, hp, n_runs=1)
    model, report, x_test, y_test, preds = fit_forecaster(small_series, cfg, hp)
    npt.assert_array_equal(preds, forecaster.forecast_batch(model, x_test))
    assert agg["n_completed"] == 1
    assert agg["nrmse_mean"] == reports[0].nrmse == report.test_nrmse
    assert agg["nrmse_std"] == 0.0
    expected, expected_trace = evaluation.evaluate(model, x_test, y_test)
    assert reports[0] == expected
    npt.assert_array_equal(trace.ae_va, expected_trace.ae_va)


def test_multi_run_aggregate_consistency(small_series):
    cfg = ModelConfig(n_buses=3, lag_r=5)
    hp = Hyperparams(epochs=2, seed=1)
    agg, reports, _ = multi_run(small_series, cfg, hp, n_runs=3)
    assert agg["n_completed"] == 3
    assert agg["nrmse_min"] <= agg["nrmse_mean"] <= agg["nrmse_max"]
    agg2, _, _ = multi_run(small_series, cfg, hp, n_runs=3)
    assert agg == agg2
    # distinct seeds per run: run i is the protocol at seed 1 + i
    for i, got in enumerate(reports):
        model, _, x_test, y_test, _ = fit_forecaster(small_series, cfg, replace(hp, seed=1 + i))
        assert got == evaluation.evaluate(model, x_test, y_test)[0]
    assert len({r.nrmse for r in reports}) == 3

