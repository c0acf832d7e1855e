import copy
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridcast import evaluation, forecaster, training
from gridcast.data_pipeline import (StateSeries, SyntheticConfig, build_windows, fit_normalizer,
                                    generate_synthetic_series, split_windows)
from gridcast.forecaster import ForecastModel, ModelConfig, init_model, param_layout
from gridcast.training import (EPSILON, AdamState, DivergenceError, Hyperparams,
                               adam_step, fit_forecaster, joint_loss_and_grad, train)

from conftest import (batch_loss_and_grads, branch_param_names, central_diff, identity_normalizer,
                      oracle_adam_step, oracle_joint_loss_and_grad, oracle_train, param_count,
                      rel_err, traced_heap_mib)

TINY = dict(n_buses=2, lag_r=3, conv_filters=2, rnn_hidden=4)
TINY_NORM = identity_normalizer(2 * TINY["n_buses"])


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


@given(st.integers(1, 70), st.integers(1, 120), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([1e-3, 1.0, 1e6]))
@settings(max_examples=60, deadline=None)
def test_joint_loss_bit_identical_to_oracle(b, n, seed, scale):
    rng = np.random.default_rng(seed)
    pred, target = rng.normal(scale=scale, size=(2, b, 2 * n))
    loss, d = joint_loss_and_grad(pred, target, n)
    want_loss, want_d = oracle_joint_loss_and_grad(pred, target, n)
    assert np.float64(loss).view(np.uint64) == np.float64(want_loss).view(np.uint64)
    assert np.array_equal(d.view(np.uint64), want_d.view(np.uint64))


# ---------------------------------------------------------------------------
# adam
# ---------------------------------------------------------------------------

def test_adam_zero_gradient_is_noop():
    theta = np.array([1.0, -2.0])
    before = theta.copy()
    state = AdamState(theta.size)
    hp = Hyperparams()
    adam_step(theta, np.zeros(2), state, hp)
    npt.assert_array_equal(theta, before)
    assert state.t == 1


def test_adam_first_step_magnitude():
    # bias-corrected first step: lr * g / (|g| + eps) ~= lr * sign(g)
    g = 0.37
    hp = Hyperparams(learning_rate=1e-3)
    theta = np.array([2.0])
    state = AdamState(theta.size)
    adam_step(theta, np.array([g]), state, hp)
    step = 2.0 - theta[0]
    assert step == pytest.approx(hp.learning_rate * g / (abs(g) + EPSILON), rel=1e-9)


def test_adam_deterministic():
    theta = np.array([1.0, 2.0])
    grads = np.array([0.5, -0.5])
    state = AdamState(theta.size)
    hp = Hyperparams()
    a, sa = theta.copy(), copy.deepcopy(state)
    adam_step(a, grads, sa, hp)
    b, sb = theta.copy(), copy.deepcopy(state)
    adam_step(b, grads, sb, hp)
    npt.assert_array_equal(a, b)
    npt.assert_array_equal(sa.m, sb.m)


FINITE = st.floats(-1e6, 1e6, allow_nan=False)


@given(st.lists(st.tuples(FINITE, FINITE, FINITE, FINITE), min_size=1, max_size=6),
       st.integers(1, 4), st.sampled_from([1, 2, 4, training.ADAM_BLOCK]))
@settings(max_examples=50, deadline=None)
def test_adam_step_bit_identical_to_oracle(rows, steps, block):
    # theta, then one gradient per step (the fourth column is reused); small
    # blocks split the vectors into several sweeps with a ragged last block
    values = np.array(rows).T
    n = len(rows)
    hp = Hyperparams(learning_rate=3e-3)
    theta = values[0].copy()
    params, m, v = {"w": values[0].copy()}, {"w": np.zeros(n)}, {"w": np.zeros(n)}
    with mock.patch.object(training, "ADAM_BLOCK", block):
        state = AdamState(n)
        for t in range(1, steps + 1):
            g = values[1 + (t - 1) % 3]
            adam_step(theta, g, state, hp)
            params, m, v = oracle_adam_step(params, {"w": g}, m, v, t, hp)
            for got, want in ((theta, params["w"]), (state.m, m["w"]), (state.v, v["w"])):
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert state.t == steps


def test_hyperparam_validation():
    with pytest.raises(ValueError):
        Hyperparams(learning_rate=0.0)


# ---------------------------------------------------------------------------
# train loop
# ---------------------------------------------------------------------------

def test_zero_epochs_returns_model_unchanged():
    model = init_model(ModelConfig(**TINY), 0, TINY_NORM)
    trained, report = train(model, tiny_data(), Hyperparams(epochs=0))
    for k in model.params:
        npt.assert_array_equal(trained.params[k], model.params[k])
    assert report.epoch_losses == []


def test_train_deterministic():
    model = init_model(ModelConfig(**TINY), 1, TINY_NORM)
    hp = Hyperparams(epochs=5, seed=3)
    a, ra = train(model, tiny_data(), hp)
    b, rb = train(model, tiny_data(), hp)
    for k in a.params:
        npt.assert_array_equal(a.params[k], b.params[k])
    assert ra.epoch_losses == rb.epoch_losses


def test_final_train_loss_is_full_batch_loss_of_trained_model():
    x, y = tiny_data()
    trained, report = train(init_model(ModelConfig(**TINY), 1, TINY_NORM), (x, y),
                            Hyperparams(epochs=3, batch_size=4, seed=2))
    assert report.final_train_loss == batch_loss_and_grads(trained, x, y)[0]
    # over more windows than one forward chunk, up to the last bits that a
    # different GEMM row count may move
    x, y = tiny_data(n_samples=10)
    with mock.patch.object(forecaster, "FORWARD_CHUNK", 3):
        trained, report = train(init_model(ModelConfig(**TINY), 1, TINY_NORM), (x, y),
                                Hyperparams(epochs=3, batch_size=4, seed=2))
    whole = batch_loss_and_grads(trained, x, y)[0]
    assert abs(report.final_train_loss - whole) <= 1e-12 * whole


def test_train_does_not_mutate_input_model():
    model = init_model(ModelConfig(**TINY), 1, TINY_NORM)
    before = {k: p.copy() for k, p in model.params.items()}
    trained, _ = train(model, tiny_data(), Hyperparams(epochs=3))
    for k in before:
        npt.assert_array_equal(model.params[k], before[k])
        assert not np.shares_memory(trained.params[k], model.params[k])


def test_trained_params_are_views_of_one_flat_vector():
    cfg = ModelConfig(**TINY)
    model = init_model(cfg, 1, identity_normalizer(cfg.n_features))
    trained, _ = train(model, tiny_data(), Hyperparams(epochs=2))
    theta = trained.params["conv_w"].base
    assert theta.ndim == 1 and theta.size == param_count(cfg)
    assert theta.dtype == np.float64 and theta.flags.c_contiguous
    layout = param_layout(cfg)
    assert list(trained.params) == list(layout)
    for name, (span, shape) in layout.items():
        assert trained.params[name].base is theta
        assert trained.params[name].shape == shape
        npt.assert_array_equal(trained.params[name].ravel(), theta[span])


def test_train_rejects_misshapen_parameter():
    model = init_model(ModelConfig(**TINY), 1, TINY_NORM)
    model.params["rnn0_b"] = np.zeros(5)
    with pytest.raises(ValueError, match="rnn0_b"):
        train(model, tiny_data(), Hyperparams(epochs=1))


def test_train_rejects_windows_of_another_lag_before_the_first_batch():
    """The kernels of an RNN-only model run windows of any lag, so the
    window check at train's entry is what rejects them."""
    model = init_model(ModelConfig(**TINY, kind="rnn-only"), 1, TINY_NORM)
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(6, 4, 4)), rng.normal(size=(6, 4))
    with mock.patch.object(forecaster, "model_forward", side_effect=AssertionError), \
            pytest.raises(ValueError, match=r"expected windows of shape \(B, 4, 3\), got"):
        train(model, (x, y), Hyperparams(epochs=1))


@pytest.mark.parametrize("n_x, n_y, match", [
    (6, 7, r"expected targets of shape \(6, 4\), got \(7, 4\)"),
    (6, 5, r"expected targets of shape \(6, 4\), got \(5, 4\)"),
    (0, 0, r"expected windows of shape \(B, 4, 3\), got \(0, 4, 3\)"),
], ids=["y-longer", "y-shorter", "empty"])
def test_train_rejects_mis_sized_targets_or_empty_batch_before_the_first_batch(n_x, n_y, match):
    """y must be (len(x), 2n) and x must hold a window; without the entry
    check a longer y trains a whole epoch before the final loss fails."""
    model = init_model(ModelConfig(**TINY), 1, TINY_NORM)
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(n_x, 4, 3)), rng.normal(size=(n_y, 4))
    with mock.patch.object(forecaster, "model_forward", side_effect=AssertionError), \
            pytest.raises(ValueError, match=match):
        train(model, (x, y), Hyperparams(epochs=1))


@given(kind=st.sampled_from(["hybrid", "rnn-only"]),
       n_samples=st.integers(1, 9), batch_size=st.integers(1, 5),
       epochs=st.integers(1, 3), seed=st.integers(0, 2 ** 16))
@example(kind="hybrid", n_samples=7, batch_size=3, epochs=2, seed=0)
@example(kind="hybrid", n_samples=8, batch_size=5, epochs=2, seed=1)
@example(kind="rnn-only", n_samples=9, batch_size=4, epochs=2, seed=2)
@settings(max_examples=30, deadline=None)
def test_train_bit_identical_to_oracle_loop(kind, n_samples, batch_size, epochs, seed):
    model = init_model(ModelConfig(**TINY, kind=kind), seed, TINY_NORM)
    data = tiny_data(n_samples, seed)
    hp = Hyperparams(epochs=epochs, batch_size=batch_size, seed=seed, learning_rate=1e-2)
    trained, report = train(model, data, hp)
    want, want_losses = oracle_train(model, data, hp)
    assert list(trained.params) == list(want)
    for k, p in want.items():
        assert np.array_equal(trained.params[k].view(np.uint64), p.view(np.uint64)), k
    assert report.epoch_losses == want_losses


def test_train_on_physical_windows_equals_training_on_pre_z_scored_ones():
    """train z-scores windows (in model_forward) and targets with the
    model's normalizer: bit for bit what training the same weights behind an
    identity normalizer on windows of the z-scored series gives."""
    series = generate_synthetic_series(SyntheticConfig(n_buses=2, length=40, seed=3))
    norm = fit_normalizer(series)
    cfg = ModelConfig(**TINY)
    model = init_model(cfg, 5, norm)
    hp = Hyperparams(epochs=3, batch_size=4, seed=5, learning_rate=1e-2)
    trained, report = train(model, build_windows(series, cfg.lag_r), hp)
    plain = ForecastModel(cfg, model.params, identity_normalizer(cfg.n_features))
    z_series = StateSeries(2, norm.apply(series.values))
    want, want_report = train(plain, build_windows(z_series, cfg.lag_r), hp)
    assert trained.normalizer is norm
    for k, p in want.params.items():
        assert np.array_equal(trained.params[k].view(np.uint64), p.view(np.uint64)), k
    assert report.epoch_losses == want_report.epoch_losses
    assert report.final_train_loss == want_report.final_train_loss


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_divergence_detection():
    model = init_model(ModelConfig(**TINY), 1, TINY_NORM)
    hp = Hyperparams(epochs=2, learning_rate=1e3)
    x, y = tiny_data()
    y = y * 1e200  # squared error overflows to inf on the first batch
    with mock.patch.object(forecaster, "model_backward", wraps=forecaster.model_backward) as bwd, \
            mock.patch.object(training, "adam_step", wraps=adam_step) as step:
        with pytest.raises(DivergenceError) as exc:
            train(model, (x, y), hp)
    assert (exc.value.epoch, exc.value.batch) == (0, 0)
    # the non-finite batch is neither back-propagated nor stepped on
    assert bwd.call_count == step.call_count == 0


def test_branch_gradient_isolation(rng):
    model = init_model(ModelConfig(**TINY), 4, TINY_NORM)
    x, y = tiny_data(3, 7)
    pred, cache = forecaster.model_forward(model, x)
    n = 2
    # magnitude-only loss: zero gradient on every RNN-branch parameter
    d = np.zeros_like(pred)
    d[:, :n] = 2.0 * (pred[:, :n] - y[:, :n]) / (len(x) * n)
    grads = forecaster.model_backward(model, cache, d)
    for name in branch_param_names(model.config, "rnn"):
        npt.assert_array_equal(grads[name], np.zeros_like(grads[name]))
    # angle-only loss: zero gradient on every CNN-branch parameter
    d = np.zeros_like(pred)
    d[:, n:] = 2.0 * (pred[:, n:] - y[:, n:]) / (len(x) * n)
    grads = forecaster.model_backward(model, cache, d)
    for name in branch_param_names(model.config, "cnn"):
        npt.assert_array_equal(grads[name], np.zeros_like(grads[name]))


def test_whole_model_gradient_matches_finite_differences():
    cfg = ModelConfig(n_buses=2, lag_r=3, conv_filters=2, rnn_hidden=4, rnn_layers=3)
    for seed in range(10):
        g = np.random.default_rng(seed)
        model = init_model(cfg, seed, identity_normalizer(cfg.n_features))
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
    model = init_model(cfg, 0, identity_normalizer(cfg.n_features))
    hp = Hyperparams(epochs=800, batch_size=5, learning_rate=3e-3, seed=0)
    trained, report = train(model, (x, y), hp)
    assert report.final_train_loss <= 1e-5


def test_first_epoch_loss_decreases_on_synthetic_default():
    series = generate_synthetic_series(SyntheticConfig(n_buses=4, length=200, seed=0))
    cfg = ModelConfig(n_buses=4, lag_r=10)
    _, report, _ = fit_forecaster(split_windows(series, cfg.lag_r, 0.8), cfg,
                                  Hyperparams(epochs=2, seed=0))
    assert report.epoch_losses[1] < report.epoch_losses[0]


def _fit_heap_peak_mib(length):
    """tracemalloc's peak, in MiB, of a 1-epoch 14-bus hybrid fit on the
    default-split windows of a `length`-instance series made beforehand."""
    series = generate_synthetic_series(SyntheticConfig(n_buses=14, length=length, seed=0))
    data = split_windows(series, 10, 0.8)
    return traced_heap_mib(lambda: fit_forecaster(data, ModelConfig(n_buses=14, lag_r=10),
                                                  Hyperparams(epochs=1, seed=0)))[0]


def test_fit_heap_does_not_grow_with_the_series():
    """Windows are views of the states and inference forwards run in
    chunks, so a fit's heap peak is set by a chunk of windows, not by the
    series: a stacked copy of the windows alone is r times the states, and
    a whole-batch forward keeps every layer's cache of every window."""
    peak = _fit_heap_peak_mib(2000)
    assert peak < 8
    assert _fit_heap_peak_mib(4000) - peak < 2


def test_fit_frees_each_buffer_before_the_next_forward():
    """Each buffer of a fit lives only while the work that reads it runs.
    With 118 buses, 118 training windows and one epoch, the P parameters
    dominate the heap. A training forward starts beside theta, g, the Adam
    moments m and v and the caller's initial model (5 P), but no earlier
    batch's caches or gradients; the final-loss forward starts beside theta
    and the initial model (2 P), with g and the moments freed."""
    cfg = ModelConfig(n_buses=118, lag_r=10)
    series = generate_synthetic_series(SyntheticConfig(n_buses=118, length=160, seed=0))
    data = split_windows(series, cfg.lag_r, 0.8)
    _, entries = traced_heap_mib(
        lambda: fit_forecaster(data, cfg, Hyperparams(epochs=1, seed=0)),
        [(forecaster, "model_forward"), (forecaster, "predict")])
    p_mib = param_count(cfg) * 8 / 2 ** 20
    final = [name for name, _ in entries].index("predict")  # train's final-loss forward
    descent = [heap / p_mib for _, heap in entries[:final]]
    assert len(descent) == 4  # ceil(118 / 32) batches
    assert max(descent) <= 6
    assert entries[final][1] / p_mib <= 3


def test_fit_forecaster_predicts_and_scores_with_the_returned_model():
    """The fit's test predictions are the returned model's forecasts of the
    test windows, and its report's test nRMSE scores them."""
    series = generate_synthetic_series(SyntheticConfig(n_buses=3, length=120, seed=5))
    cfg = ModelConfig(n_buses=3, lag_r=5)
    data = split_windows(series, cfg.lag_r, 0.8)
    model, report, preds = fit_forecaster(data, cfg, Hyperparams(epochs=2, seed=1))
    x_test, y_test = data[1]
    npt.assert_array_equal(preds, forecaster.forecast_batch(model, x_test))
    assert report.test_nrmse == evaluation.normalized_rmse(preds, y_test)
