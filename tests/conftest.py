import numpy as np
import pytest

from gridcast.layers import ShapeError


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


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
