"""Training: joint MSE loss over both heads, Adam, the minibatch loop,
and the multi-seed averaging protocol.

The loss for one sample is mse(magnitude head) + mse(angle head) in
normalized units, unweighted; a batch averages the per-sample losses.
Training is fully deterministic given (data, hyperparameters, seed).

`train` packs the parameters once into one contiguous float64 vector
theta, in `forecaster.param_layout` order; the working model's params are
reshaped views into it. Each batch's gradients are concatenated into one
flat buffer g of the same layout, and `adam_step` updates theta and the
flat Adam moments in place with preallocated scratch, in the same
operation order as the textbook formula with its fixed BETA1, BETA2 and
EPSILON (only the learning rate is a hyperparameter), one cache-sized
block of the vectors at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict, replace

import numpy as np

from . import evaluation, forecaster
from .data_pipeline import StateSeries, build_windows, chronological_split, fit_normalizer
from .forecaster import ForecastModel, ModelConfig


# adam_step sweeps the flat vectors in blocks of this many elements, so a
# block's operands stay in cache across its 14 ufunc passes; at 118 buses
# (558k parameters) a whole-vector sweep per ufunc is bound by memory traffic
ADAM_BLOCK = 32768
BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8  # Adam's textbook constants


class DivergenceError(RuntimeError):
    def __init__(self, epoch, batch, loss):
        super().__init__(f"non-finite loss {loss} at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch


@dataclass
class Hyperparams:
    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 30
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning rate must be finite and > 0, got {self.learning_rate}")
        if self.batch_size < 1 or self.epochs < 0 or self.seed < 0:
            raise ValueError("invalid hyperparameters")


class AdamState:
    """Flat first and second moments of a `size`-element parameter vector,
    zero at the start, and the step count; `adam_step` updates them in
    place."""

    def __init__(self, size):
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0
        self._scratch = np.empty((2, min(size, ADAM_BLOCK)))


@dataclass
class TrainReport:
    epoch_losses: list
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
    d = pred - target
    # each half's squares are a contiguous array, so each mean sums in the
    # same order as over a separately computed half
    loss = float(np.mean(d[:, :n] ** 2) + np.mean(d[:, n:] ** 2))
    d *= 2.0
    d /= b * n
    return loss, d


def adam_step(theta, g, state: AdamState, hp: Hyperparams):
    """One bias-corrected Adam update of the flat vector theta by the flat
    gradient g, in place on theta, state.m and state.v; advances state.t.

    Each ufunc matches one operation of
        m = BETA1 * m + (1 - BETA1) * g
        v = BETA2 * v + (1 - BETA2) * g * g
        theta = theta - lr * (m / (1 - BETA1**t)) / (sqrt(v / (1 - BETA2**t)) + EPSILON)
    in the same order, so the result is bit-identical to that formula. The
    ufuncs are element-wise, so sweeping ADAM_BLOCK elements at a time
    changes no bit."""
    if not theta.ndim == 1 or not theta.shape == g.shape == state.m.shape == state.v.shape:
        raise ValueError(f"adam_step needs equal flat vectors: theta {theta.shape}, gradient "
                         f"{g.shape}, moments {state.m.shape} / {state.v.shape}")
    state.t += 1
    c1, c2 = 1 - BETA1 ** state.t, 1 - BETA2 ** state.t
    for lo in range(0, theta.size, ADAM_BLOCK):
        blk = slice(lo, lo + ADAM_BLOCK)
        p, gb, m, v = theta[blk], g[blk], state.m[blk], state.v[blk]
        a, b = state._scratch[:, :p.size]
        np.multiply(m, BETA1, out=m)
        np.multiply(gb, 1 - BETA1, out=a)
        np.add(m, a, out=m)
        np.multiply(v, BETA2, out=v)
        np.multiply(gb, 1 - BETA2, out=a)
        np.multiply(a, gb, out=a)
        np.add(v, a, out=v)
        np.divide(m, c1, out=a)
        np.multiply(a, hp.learning_rate, out=a)
        np.divide(v, c2, out=b)
        np.sqrt(b, out=b)
        np.add(b, EPSILON, out=b)
        np.divide(a, b, out=a)
        np.subtract(p, a, out=p)


def train(model: ForecastModel, windows, hp: Hyperparams):
    """Minibatch Adam training on normalized (X, Y) arrays.

    Returns (trained model, TrainReport). The input model is not mutated;
    the trained model's params are views into one flat parameter vector.
    """
    x, y = windows
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 1:
        raise ValueError("need at least one training sample")
    cfg = model.config
    layout = forecaster.param_layout(cfg)
    for k, (_, shape) in layout.items():
        if model.params[k].shape != shape:
            raise ValueError(f"parameter {k}: shape {model.params[k].shape} != {shape}")
    theta = np.concatenate([model.params[k].ravel() for k in layout])
    work = ForecastModel(cfg, {k: theta[s].reshape(shape) for k, (s, shape) in layout.items()},
                         model.normalizer)
    g = np.empty_like(theta)
    state = AdamState(theta.size)
    rng = np.random.default_rng(hp.seed)
    n = len(x)
    epoch_losses = []
    for epoch in range(hp.epochs):
        order = rng.permutation(n)
        total = 0.0
        for bi, start in enumerate(range(0, n, hp.batch_size)):
            idx = order[start:start + hp.batch_size]
            pred, cache = forecaster.model_forward(work, x[idx])
            loss, d_pred = joint_loss_and_grad(pred, y[idx], cfg.n_buses)
            if not np.isfinite(loss):
                raise DivergenceError(epoch, bi, loss)
            grads = forecaster.model_backward(work, cache, d_pred)
            np.concatenate([grads[k].ravel() for k in layout], out=g)
            adam_step(theta, g, state, hp)
            total += loss * len(idx)
        epoch_losses.append(total / n)
    pred, _ = forecaster.model_forward(work, x)
    final_loss, _ = joint_loss_and_grad(pred, y, model.config.n_buses)
    return work, TrainReport(epoch_losses, asdict(hp), n, float(final_loss))


def fit_forecaster(series, config: ModelConfig, hp: Hyperparams, train_fraction=0.8):
    """Full pipeline on a raw series: chronological split, normalizer fit on
    the training partition only, windowing inside each partition, training,
    and test evaluation. Returns (model, report, test windows, test targets,
    test predictions), the predictions in physical units."""
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
    return model, report, x_test, y_test, preds


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
            model, _, _, y_test, preds = fit_forecaster(
                series, config, replace(hp, seed=hp.seed + i), train_fraction)
        except DivergenceError as exc:
            n_diverged += 1
            last_divergence = exc
            continue
        metrics, run_trace = evaluation.evaluate_predictions(preds, y_test, config.n_buses)
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
