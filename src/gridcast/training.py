"""Training: joint MSE loss over both heads, Adam, the minibatch loop, and
the fit on one `data_pipeline.split_windows` split, which returns its test
predictions for callers to score (`cli.cmd_eval` fits once per seed).

`train` takes physical-unit windows, as `build_windows` returns them;
`forecaster.model_forward` z-scores them, and `train` its targets. The
loss for one sample is mse(magnitude head) + mse(angle head) in z-score
units, unweighted; a batch averages the per-sample losses. Training is
fully deterministic given (data, hyperparameters, seed).

`train` packs the parameters once into one contiguous float64 vector
theta, in `forecaster.param_layout` order; the working model's params are
reshaped views into it. `adam_step` updates theta and the Adam moments m
and v of the flat gradient g in place, in the textbook formula's operation
order with its fixed BETA1, BETA2 and EPSILON (only the learning rate is a
hyperparameter), one cache-sized block at a time. Each buffer lives while
its work does: in descent a fit holds theta, g, m and v (4.26 MiB each at
118 buses) and one batch's caches and gradients, in the final-loss forward
theta and one `predict` chunk's caches. A 1-epoch 118-bus train on 150
windows peaks at 27.7 MiB of heap in descent and 23.4 MiB in that forward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from . import evaluation, forecaster
from .data_pipeline import build_windows, fit_normalizer
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
    returns (loss, dLoss/dPred). pred and target are (B, 2n) arrays."""
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
    changes no bit. theta, g, m and v are equal flat vectors that `train` allocates."""
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


def _batch_loss(work, layout, x, y, g, epoch, bi):
    """One batch's forward, loss and backward; writes its flat gradient into
    g and returns the loss, raising before the backward if it is not finite."""
    pred, cache = forecaster.model_forward(work, x)
    loss, d_pred = joint_loss_and_grad(pred, y, work.config.n_buses)
    if not np.isfinite(loss):
        raise DivergenceError(epoch, bi, loss)
    grads = forecaster.model_backward(work, cache, d_pred)
    np.concatenate([grads[k].ravel() for k in layout], out=g)
    return loss


def _descend(work, layout, theta, x, y, hp):
    """The minibatch loop of Adam on theta; returns the epoch losses."""
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
            loss = _batch_loss(work, layout, x[idx], y[idx], g, epoch, bi)
            adam_step(theta, g, state, hp)
            total += loss * len(idx)
        epoch_losses.append(total / n)
    return epoch_losses


def train(model: ForecastModel, windows, hp: Hyperparams):
    """Minibatch Adam on physical-unit windows X (N, 2n, r) and targets Y (N, 2n).

    Returns (trained model, TrainReport). The input model is not mutated;
    the trained model's params are views into one flat parameter vector.
    """
    cfg = model.config
    x, y = windows
    x = forecaster._check_window_batch(cfg, x)
    y = np.asarray(y, dtype=float)
    if y.shape != (len(x), cfg.n_features):
        raise ValueError(f"expected targets of shape {(len(x), cfg.n_features)}, got {y.shape}")
    y = model.normalizer.apply(y)
    layout = forecaster.param_layout(cfg)
    for k, (_, shape) in layout.items():
        if model.params[k].shape != shape:
            raise ValueError(f"parameter {k}: shape {model.params[k].shape} != {shape}")
    theta = np.concatenate([model.params[k].ravel() for k in layout])
    work = ForecastModel(cfg, {k: theta[s].reshape(shape) for k, (s, shape) in layout.items()},
                         model.normalizer)
    epoch_losses = _descend(work, layout, theta, x, y, hp)
    final_loss, _ = joint_loss_and_grad(forecaster.predict(work, x), y, cfg.n_buses)
    return work, TrainReport(epoch_losses, asdict(hp), len(x), float(final_loss))


def fit_forecaster(data, config: ModelConfig, hp: Hyperparams):
    """Fit on `split_windows`' (training partition, test windows): the
    normalizer and the windows of the training partition, training, and test
    forecasts. Returns (model, report, test predictions in physical units)."""
    train_part, (x_test, y_test) = data
    model = forecaster.init_model(config, hp.seed, fit_normalizer(train_part))
    model, report = train(model, build_windows(train_part, config.lag_r), hp)
    preds = forecaster.forecast_batch(model, x_test)
    report.test_nrmse = evaluation.normalized_rmse(preds, y_test)
    return model, report, preds

