"""Training: joint MSE loss over both heads, Adam, the minibatch loop,
and the multi-seed averaging protocol.

The loss for one sample is mse(magnitude head) + mse(angle head) in
normalized units, unweighted; a batch averages the per-sample losses.
Training is fully deterministic given (data, hyperparameters, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, asdict, replace

import numpy as np

from . import evaluation, forecaster
from .data_pipeline import StateSeries, build_windows, chronological_split, fit_normalizer
from .forecaster import ForecastModel, ModelConfig


class DivergenceError(RuntimeError):
    def __init__(self, epoch, batch, loss):
        super().__init__(f"non-finite loss {loss} at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch


@dataclass
class Hyperparams:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    batch_size: int = 32
    epochs: int = 30
    seed: int = 0
    freeze_branch: str = None  # None | "cnn" | "rnn"

    def __post_init__(self):
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ValueError("betas must lie in (0, 1)")
        if self.learning_rate <= 0 or self.batch_size < 1 or self.epochs < 0:
            raise ValueError("invalid hyperparameters")
        if self.freeze_branch not in (None, "cnn", "rnn"):
            raise ValueError(f"freeze_branch must be cnn/rnn, got {self.freeze_branch!r}")


@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0

    @classmethod
    def zeros_like(cls, params):
        return cls({k: np.zeros_like(p) for k, p in params.items()},
                   {k: np.zeros_like(p) for k, p in params.items()})


@dataclass
class TrainReport:
    epoch_losses: list
    seed: int
    hyperparams: dict
    n_train_samples: int
    final_train_loss: float
    test_nrmse: float = None


def joint_loss_and_grad(pred, target, n_buses):
    """Batch loss: mean over samples of mse(magnitudes) + mse(angles);
    returns (loss, dLoss/dPred). pred and target are (B, 2n)."""
    if pred.shape != target.shape or pred.shape[1:] != (2 * n_buses,):
        raise ValueError(f"shape mismatch {pred.shape} vs {target.shape} for n={n_buses}")
    b = pred.shape[0]
    n = n_buses
    err_vm = pred[:, :n] - target[:, :n]
    err_va = pred[:, n:] - target[:, n:]
    loss = float(np.mean(err_vm ** 2) + np.mean(err_va ** 2))
    d = np.empty_like(pred)
    d[:, :n] = 2.0 * err_vm / (b * n)
    d[:, n:] = 2.0 * err_va / (b * n)
    return loss, d


def adam_step(params, grads, state: AdamState, hp: Hyperparams):
    """One bias-corrected Adam update; pure, returns new (params, state)."""
    t = state.t + 1
    new_p, new_m, new_v = {}, {}, {}
    for k, p in params.items():
        g = grads[k]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != param shape {p.shape} for {k}")
        m = hp.beta1 * state.m[k] + (1 - hp.beta1) * g
        v = hp.beta2 * state.v[k] + (1 - hp.beta2) * g * g
        m_hat = m / (1 - hp.beta1 ** t)
        v_hat = v / (1 - hp.beta2 ** t)
        new_p[k] = p - hp.learning_rate * m_hat / (np.sqrt(v_hat) + hp.epsilon)
        new_m[k] = m
        new_v[k] = v
    return new_p, AdamState(new_m, new_v, t)


def batch_loss_and_grads(model: ForecastModel, x, y):
    """Forward + backward over one normalized batch; returns (loss, grads)."""
    pred, cache = forecaster.model_forward(model, x)
    loss, d_pred = joint_loss_and_grad(pred, y, model.config.n_buses)
    grads = forecaster.model_backward(model, cache, d_pred)
    return loss, grads


def train(model: ForecastModel, windows, hp: Hyperparams):
    """Minibatch Adam training on normalized (X, Y) arrays.

    Returns (trained model, TrainReport). The input model is not mutated.
    """
    x, y = windows
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 1:
        raise ValueError("need at least one training sample")
    frozen = set()
    if hp.freeze_branch == "cnn":
        frozen = set(forecaster.cnn_branch_param_names(model.config))
    elif hp.freeze_branch == "rnn":
        frozen = set(forecaster.rnn_branch_param_names(model.config))

    params = {k: p.copy() for k, p in model.params.items()}
    state = AdamState.zeros_like(params)
    rng = np.random.default_rng(hp.seed)
    n = len(x)
    work = ForecastModel(model.config, params, model.normalizer)
    epoch_losses = []
    for epoch in range(hp.epochs):
        order = rng.permutation(n)
        total = 0.0
        for bi, start in enumerate(range(0, n, hp.batch_size)):
            idx = order[start:start + hp.batch_size]
            loss, grads = batch_loss_and_grads(work, x[idx], y[idx])
            if not np.isfinite(loss):
                raise DivergenceError(epoch, bi, loss)
            for k in frozen:
                grads[k] = np.zeros_like(grads[k])
            params, state = adam_step(params, grads, state, hp)
            work = ForecastModel(model.config, params, model.normalizer)
            total += loss * len(idx)
        epoch_losses.append(total / n)
    final_loss, _ = batch_loss_and_grads(work, x, y)
    report = TrainReport(
        epoch_losses=epoch_losses,
        seed=hp.seed,
        hyperparams=asdict(hp),
        n_train_samples=n,
        final_train_loss=float(final_loss),
    )
    return work, report


def fit_forecaster(series, config: ModelConfig, hp: Hyperparams, train_fraction=0.8):
    """Full pipeline on a raw series: chronological split, normalizer fit on
    the training partition only, windowing inside each partition, training,
    and test evaluation. Returns (model, report, test windows, test targets)."""
    r = config.lag_r
    train_part, test_part = chronological_split(series, train_fraction, min_len=r + 1)
    norm = fit_normalizer(train_part)
    x_train, y_train = build_windows(
        StateSeries(series.n_buses, norm.apply(train_part.values)), r)
    model = forecaster.init_model(config, hp.seed, norm)
    model, report = train(model, (x_train, y_train), hp)
    x_test, y_test = build_windows(test_part, r)
    preds = forecaster.forecast_batch(model, x_test)
    report.test_nrmse = evaluation.normalized_rmse(preds, y_test)
    return model, report, x_test, y_test


def multi_run(series, config: ModelConfig, hp: Hyperparams, n_runs=20, train_fraction=0.8):
    """Independent-runs protocol: n_runs trainings from seeds seed..seed+n-1,
    each evaluated on the test partition.

    Returns (aggregate, reports, trace): the test-nRMSE aggregate, one
    MetricsReport per completed run in seed order, and the ErrorTrace of
    the first completed run. Diverged runs are excluded and counted; when
    every run diverges, the last DivergenceError is raised."""
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    reports, trace, n_diverged = [], None, 0
    for i in range(n_runs):
        try:
            model, _, x_test, y_test = fit_forecaster(
                series, config, replace(hp, seed=hp.seed + i), train_fraction)
        except DivergenceError as exc:
            n_diverged += 1
            last_divergence = exc
            continue
        metrics, run_trace = evaluation.evaluate(model, x_test, y_test)
        reports.append(metrics)
        if trace is None:
            trace = run_trace
    if not reports:
        raise last_divergence
    scores = [m.nrmse for m in reports]
    aggregate = {
        "n_runs": n_runs,
        "n_completed": len(reports),
        "n_diverged": n_diverged,
        "base_seed": hp.seed,
        "nrmse_mean": float(np.mean(scores)),
        "nrmse_std": float(np.std(scores)),
        "nrmse_min": float(np.min(scores)),
        "nrmse_max": float(np.max(scores)),
    }
    return aggregate, reports, trace
