import numpy as np
import pytest

from gridcast import forecaster
from gridcast.forecaster import ForecastModel, param_layout
from gridcast.layers import ShapeError
from gridcast.training import BETA1, BETA2, EPSILON, joint_loss_and_grad


def param_count(cfg):
    """Number of scalar parameters of a model with config cfg."""
    return sum(int(np.prod(shape)) for _, shape in param_layout(cfg).values())


def branch_param_names(cfg, branch):
    """Names of the parameters of the "cnn" (magnitude) or "rnn" (angle)
    branch; an RNN-only model has no "cnn" parameters."""
    prefixes = {"cnn": ("conv_", "dense1_", "dense2_"), "rnn": ("rnn", "dense3_")}[branch]
    return [n for n in param_layout(cfg) if n.startswith(prefixes)]


def batch_loss_and_grads(model, x, y):
    """Forward + backward over one normalized batch; returns (loss, grads).
    The gradcheck handle: the loss and gradients `train` steps on."""
    pred, cache = forecaster.model_forward(model, x)
    loss, d_pred = joint_loss_and_grad(pred, y, model.config.n_buses)
    grads = forecaster.model_backward(model, cache, d_pred)
    return loss, grads


def central_diff(f, x, h=1e-5):
    """Central finite-difference gradient of scalar f at array x."""
    g = np.zeros_like(x, dtype=float)
    for idx in np.ndindex(x.shape):
        orig = x[idx]
        x[idx] = orig + h
        fp = f()
        x[idx] = orig - h
        fm = f()
        x[idx] = orig
        g[idx] = (fp - fm) / (2.0 * h)
    return g


def rel_err(a, b, floor=1e-4):
    """Elementwise relative error with a small-value floor: entries below
    `floor` are effectively compared absolutely (at floor * tolerance),
    since relative error is ill-conditioned at zero."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = np.maximum(floor, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom))


def relu_margin(pre_arrays, margin=1e-4):
    """True when no ReLU pre-activation sits within `margin` of the kink,
    so finite differences stay on one linear piece."""
    return all(np.min(np.abs(p)) > margin for p in pre_arrays if p.size)


def rnn_cell_step(wx, wh, b, below, prev_hidden):
    """Single-sample recurrent update relu(wx @ below + wh @ prev_hidden + b):
    the independent reference the batched stacked RNN is checked against."""
    wx = np.asarray(wx, dtype=float)
    wh = np.asarray(wh, dtype=float)
    if wh.shape[0] != wh.shape[1]:
        raise ShapeError(f"recurrent weight must be square, got {wh.shape}")
    if wx.shape[0] != wh.shape[0]:
        raise ShapeError(f"input weight rows {wx.shape[0]} != hidden size {wh.shape[0]}")
    below = np.asarray(below, dtype=float)
    prev_hidden = np.asarray(prev_hidden, dtype=float)
    if below.shape != (wx.shape[1],):
        raise ShapeError(f"input length {below.shape} != weight cols {wx.shape[1]}")
    if prev_hidden.shape != (wh.shape[0],):
        raise ShapeError(f"hidden length {prev_hidden.shape} != {wh.shape[0]}")
    return np.maximum(wx @ below + wh @ prev_hidden + b, 0.0)


def _conv_windows(x, kernel):
    # x: (B, C, r) -> (B, C, kernel, r - kernel + 1)
    p = x.shape[2] - kernel + 1
    return np.stack([x[:, :, i:i + kernel] for i in range(p)], axis=-1)


def oracle_conv1d_forward(x, w, b):
    """Reference conv: one einsum over a stacked copy of every window.
    Returns (out, pre)."""
    pre = np.einsum("kcj,bcjp->bkp", w, _conv_windows(x, w.shape[2])) + b[None, :, None]
    return np.maximum(pre, 0.0), pre


def oracle_conv1d_backward(x, w, pre, d_out):
    """Reference conv backward: one einsum over the stacked windows for the
    weight gradient. Returns (dw, db)."""
    d_pre = d_out * (pre > 0.0)
    dw = np.einsum("bkp,bcjp->kcj", d_pre, _conv_windows(x, w.shape[2]))
    return dw, d_pre.sum(axis=(0, 2))


def oracle_maxpool_forward(x):
    """Reference max pool over non-overlapping tiles of 2 columns,
    remainder dropped, by argmax (ties to the first column) and
    take_along_axis. Returns (out, arg)."""
    b_, k_, m = x.shape
    pool = 2
    q = m // pool
    tiles = x[:, :, :q * pool].reshape(b_, k_, q, pool)
    arg = tiles.argmax(axis=3)
    return np.take_along_axis(tiles, arg[..., None], axis=3)[..., 0], arg


def oracle_maxpool_backward(shape, arg, d_out):
    """Reference pool backward: each d_out entry put at its tile's argmax."""
    b_, k_, m = shape
    q, pool = arg.shape[2], 2
    tiles = np.zeros((b_, k_, q, pool))
    np.put_along_axis(tiles, arg[..., None], d_out[..., None], axis=3)
    dx = np.zeros(shape)
    dx[:, :, :q * pool] = tiles.reshape(b_, k_, q * pool)
    return dx


def oracle_stacked_rnn_forward(x, layer_params):
    """Reference stacked RNN: every sample, step and layer through
    rnn_cell_step. Returns (top state (B, H), hidden) where hidden[l][t]
    is layer l's (B, H) state after t columns and hidden[l][0] = 0."""
    b_, _, r = x.shape
    hidden = [[np.zeros((b_, wh.shape[0]))] for _, wh, _ in layer_params]
    for t in range(r):
        below = x[:, :, t]
        for l, (wx, wh, bias) in enumerate(layer_params):
            h = np.stack([rnn_cell_step(wx, wh, bias, below[i], hidden[l][t][i])
                          for i in range(b_)])
            hidden[l].append(h)
            below = h
    return hidden[-1][r], hidden


def oracle_stacked_rnn_backward(x, layer_params, hidden, d_top):
    """Reference BPTT: time outside, layers inside, one step at a time.
    A state is positive exactly where its pre-activation is, so the ReLU
    mask is read off the hidden states. Returns [(dwx, dwh, db)]."""
    n_layers = len(layer_params)
    r = x.shape[2]
    grads = [tuple(np.zeros_like(a) for a in layer) for layer in layer_params]
    # d_h[l] holds the gradient w.r.t. hidden[l][t + 1] while processing step t
    d_h = [np.zeros_like(hidden[l][0]) for l in range(n_layers)]
    d_h[-1] = np.array(d_top, dtype=float, copy=True)
    for t in reversed(range(r)):
        for l in reversed(range(n_layers)):
            wx, wh, _ = layer_params[l]
            d_pre = d_h[l] * (hidden[l][t + 1] > 0.0)
            below = x[:, :, t] if l == 0 else hidden[l - 1][t + 1]
            dwx, dwh, db = grads[l]
            dwx += d_pre.T @ below
            dwh += d_pre.T @ hidden[l][t]
            db += d_pre.sum(axis=0)
            if l > 0:
                d_h[l - 1] += d_pre @ wx
            d_h[l] = d_pre @ wh
    return grads


def oracle_joint_loss_and_grad(pred, target, n):
    """Reference joint loss: each half's error, squares and gradient
    computed separately. Returns (loss, dLoss/dPred)."""
    b = pred.shape[0]
    err_vm = pred[:, :n] - target[:, :n]
    err_va = pred[:, n:] - target[:, n:]
    loss = float(np.mean(err_vm ** 2) + np.mean(err_va ** 2))
    d = np.empty_like(pred)
    d[:, :n] = 2.0 * err_vm / (b * n)
    d[:, n:] = 2.0 * err_va / (b * n)
    return loss, d


def oracle_adam_step(params, grads, m, v, t, hp):
    """Reference Adam on dicts of arrays, one textbook expression per
    moment; pure. Returns (params, m, v) after step t (1-based)."""
    new_p, new_m, new_v = {}, {}, {}
    for k, p in params.items():
        g = grads[k]
        mk = BETA1 * m[k] + (1 - BETA1) * g
        vk = BETA2 * v[k] + (1 - BETA2) * g * g
        m_hat = mk / (1 - BETA1 ** t)
        v_hat = vk / (1 - BETA2 ** t)
        new_p[k] = p - hp.learning_rate * m_hat / (np.sqrt(v_hat) + EPSILON)
        new_m[k] = mk
        new_v[k] = vk
    return new_p, new_m, new_v


def oracle_train(model, windows, hp):
    """Reference minibatch loop: a fresh ForecastModel and fresh per-name
    arrays every step, and oracle_adam_step. Returns (params, epoch_losses)."""
    x, y = (np.asarray(a, dtype=float) for a in windows)
    params = {k: p.copy() for k, p in model.params.items()}
    m = {k: np.zeros_like(p) for k, p in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    rng = np.random.default_rng(hp.seed)
    n, t, epoch_losses = len(x), 0, []
    for _ in range(hp.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, hp.batch_size):
            idx = order[start:start + hp.batch_size]
            work = ForecastModel(model.config, params, model.normalizer)
            loss, grads = batch_loss_and_grads(work, x[idx], y[idx])
            t += 1
            params, m, v = oracle_adam_step(params, grads, m, v, t, hp)
            total += loss * len(idx)
        epoch_losses.append(total / n)
    return params, epoch_losses


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
