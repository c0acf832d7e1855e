"""Numeric kernels for the forecaster: forward and backward passes.

All functions operate on float64 numpy arrays and are pure: every forward
returns its output together with a cache object, and the matching backward
consumes that cache plus the upstream gradient. Inputs carry a leading
batch axis.

Conventions pinned here:
  * conv windows are ordered chronologically (earliest column pair first)
  * max pooling is non-overlapping, stride == pool width, trailing
    remainder dropped; ties resolve to the first (earliest) position
  * flatten is map-major: all positions of feature map 0, then map 1, ...
  * ReLU subgradient at exactly 0 is 0
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Raised when an input's dimensions do not match the layer parameters."""


def relu(x):
    return np.maximum(x, 0.0)


def relu_grad(pre, upstream):
    # subgradient at 0 pinned to 0, hence strict inequality
    return upstream * (pre > 0.0)


# ---------------------------------------------------------------------------
# 1D convolution over adjacent column pairs
# ---------------------------------------------------------------------------

def _conv_windows(x, kernel):
    # x: (B, C, r) -> (B, C, kernel, r - kernel + 1)
    p = x.shape[2] - kernel + 1
    return np.stack([x[:, :, i:i + kernel] for i in range(p)], axis=-1)


def conv1d_forward(x, w, b):
    """x: (B, C, r); w: (K, C, kernel); b: (K,) -> out (B, K, r-kernel+1), cache."""
    if x.ndim != 3 or w.ndim != 3:
        raise ShapeError(f"conv1d expects 3-d input and weights, got {x.shape} / {w.shape}")
    kernel = w.shape[2]
    if w.shape[1] != x.shape[1]:
        raise ShapeError(f"filter rows {w.shape[1]} != input rows {x.shape[1]}")
    if x.shape[2] < kernel:
        raise ShapeError(f"sequence length {x.shape[2]} shorter than kernel {kernel}")
    if b.shape != (w.shape[0],):
        raise ShapeError(f"bias shape {b.shape} != ({w.shape[0]},)")
    windows = _conv_windows(x, kernel)
    pre = np.einsum("kcj,bcjp->bkp", w, windows) + b[None, :, None]
    return relu(pre), (x, w, pre)


def conv1d_backward(cache, d_out):
    x, w, pre = cache
    kernel = w.shape[2]
    d_pre = relu_grad(pre, d_out)
    windows = _conv_windows(x, kernel)
    dw = np.einsum("bkp,bcjp->kcj", d_pre, windows)
    db = d_pre.sum(axis=(0, 2))
    dx = np.zeros_like(x)
    for p in range(pre.shape[2]):
        dx[:, :, p:p + kernel] += np.einsum("bk,kcj->bcj", d_pre[:, :, p], w)
    return (dw, db), dx


# ---------------------------------------------------------------------------
# max pooling
# ---------------------------------------------------------------------------

def maxpool_forward(x, pool=2):
    """x: (B, K, m) -> out (B, K, m // pool), cache. Remainder columns dropped."""
    b_, k_, m = x.shape
    if m < pool:
        raise ShapeError(f"cannot pool width {m} with pool size {pool}")
    q = m // pool
    tiles = x[:, :, :q * pool].reshape(b_, k_, q, pool)
    arg = tiles.argmax(axis=3)
    out = np.take_along_axis(tiles, arg[..., None], axis=3)[..., 0]
    return out, (x.shape, pool, arg)


def maxpool_backward(cache, d_out):
    shape, pool, arg = cache
    b_, k_, m = shape
    q = arg.shape[2]
    tiles = np.zeros((b_, k_, q, pool))
    np.put_along_axis(tiles, arg[..., None], d_out[..., None], axis=3)
    dx = np.zeros(shape)
    dx[:, :, :q * pool] = tiles.reshape(b_, k_, q * pool)
    return dx


# ---------------------------------------------------------------------------
# flatten
# ---------------------------------------------------------------------------

def flatten_forward(x):
    """x: (B, K, q) -> (B, K*q) in map-major order."""
    b_, k_, q = x.shape
    return x.reshape(b_, k_ * q), (k_, q)


def flatten_backward(cache, d_out):
    k_, q = cache
    return d_out.reshape(d_out.shape[0], k_, q)


# ---------------------------------------------------------------------------
# dense
# ---------------------------------------------------------------------------

def dense_forward(x, w, b, activation="linear"):
    """x: (B, in); w: (out, in); b: (out,) or None -> (B, out), cache."""
    if activation not in ("linear", "relu"):
        raise ValueError(f"unknown activation {activation!r}")
    if x.shape[1] != w.shape[1]:
        raise ShapeError(f"input width {x.shape[1]} != weight cols {w.shape[1]}")
    if b is not None and b.shape != (w.shape[0],):
        raise ShapeError(f"bias shape {b.shape} != ({w.shape[0]},)")
    pre = x @ w.T
    if b is not None:
        pre = pre + b
    out = relu(pre) if activation == "relu" else pre
    return out, (x, w, pre, activation, b is not None)


def dense_backward(cache, d_out):
    x, w, pre, activation, has_bias = cache
    d_pre = relu_grad(pre, d_out) if activation == "relu" else d_out
    dw = d_pre.T @ x
    db = d_pre.sum(axis=0) if has_bias else None
    dx = d_pre @ w
    return (dw, db), dx


# ---------------------------------------------------------------------------
# stacked recurrent network
# ---------------------------------------------------------------------------

def stacked_rnn_forward(x, layer_params):
    """x: (B, D, r); layer_params: list of (wx, wh, b) bottom to top.

    Initial hidden states are zero. Columns are consumed chronologically
    (column 0 first). Returns the top layer's final hidden state (B, H)
    and the cache needed for backpropagation through time.
    """
    if not layer_params:
        raise ShapeError("at least one recurrent layer is required")
    b_, d, r = x.shape
    in_dim = d
    for i, (wx, wh, bias) in enumerate(layer_params):
        if wh.shape[0] != wh.shape[1] or wx.shape[0] != wh.shape[0]:
            raise ShapeError(f"layer {i}: inconsistent weight shapes {wx.shape} / {wh.shape}")
        if wx.shape[1] != in_dim:
            raise ShapeError(f"layer {i}: expects input dim {wx.shape[1]}, got {in_dim}")
        if bias.shape != (wh.shape[0],):
            raise ShapeError(f"layer {i}: bias shape {bias.shape} != ({wh.shape[0]},)")
        in_dim = wh.shape[0]
    n_layers = len(layer_params)
    # hidden[l][t] is layer l's state after consuming t columns; hidden[l][0] = 0
    hidden = [[np.zeros((b_, wh.shape[0]))] for (wx, wh, bias) in layer_params]
    pres = [[None] * r for _ in range(n_layers)]
    for t in range(r):
        below = x[:, :, t]
        for l, (wx, wh, bias) in enumerate(layer_params):
            pre = below @ wx.T + hidden[l][t] @ wh.T + bias
            h = relu(pre)
            pres[l][t] = pre
            hidden[l].append(h)
            below = h
    return hidden[-1][r], (x, layer_params, pres, hidden)


def stacked_rnn_backward(cache, d_top):
    """Backpropagation through time; d_top is the gradient w.r.t. the final
    top-layer hidden state. Returns ([(dwx, dwh, db) per layer], dx)."""
    x, layer_params, pres, hidden = cache
    n_layers = len(layer_params)
    b_, d, r = x.shape
    grads = [(np.zeros_like(wx), np.zeros_like(wh), np.zeros_like(bias))
             for (wx, wh, bias) in layer_params]
    dx = np.zeros_like(x)
    # d_h[l] holds the gradient w.r.t. hidden[l][t+1] while processing step t
    d_h = [np.zeros_like(hidden[l][0]) for l in range(n_layers)]
    d_h[-1] = np.array(d_top, dtype=float, copy=True)
    for t in reversed(range(r)):
        for l in reversed(range(n_layers)):
            wx, wh, bias = layer_params[l]
            d_pre = relu_grad(pres[l][t], d_h[l])
            below = x[:, :, t] if l == 0 else hidden[l - 1][t + 1]
            dwx, dwh, db = grads[l]
            dwx += d_pre.T @ below
            dwh += d_pre.T @ hidden[l][t]
            db += d_pre.sum(axis=0)
            if l > 0:
                d_h[l - 1] += d_pre @ wx
            else:
                dx[:, :, t] += d_pre @ wx
            d_h[l] = d_pre @ wh
    return grads, dx
