"""Numeric kernels for the forecaster: forward and backward passes.

All functions operate on float64 numpy arrays and are pure: every forward
returns its output together with a cache object, and the matching backward
consumes that cache plus the upstream gradient. Inputs carry a leading
batch axis.

A backward returns its parameter gradients, and dx only where a caller
reads it (dense, maxpool): the conv and RNN inputs are data windows.

The conv and RNN kernels are BLAS GEMMs. Input windows may arrive in any
memory layout (C-ordered, or the time-major one of `build_windows` and
`series.values[a:b].T`); each kernel copies into the layout its GEMMs read.
  * conv, on the (B, r, C) view xt: pre[:, q] = sum_j xt[:, q + j] @ w[:, :, j].T + b,
    one GEMM for all taps and columns, then shifted tap slices summed.
    Backward: dw[..., j] = d_pre^T @ xt[:, j:j + p].
  * stacked RNN, layers outside and time inside on one (r, B, H) buffer
    per layer: a layer's input projection below @ wx.T + b is one GEMM for
    all r steps; only h[t - 1] @ wh.T stays in the step loop, and each
    step's ReLU turns its pre-activation into h[t] in place. Backward
    computes a layer's ReLU mask once over its (r, B, H) states; each step
    then adds the gradient from above in place to the recurrent term
    d_pre[t] @ wh and writes d_h * mask[t - 1] straight into d_pre[t - 1].
    dwx, dwh and, for each layer above the first, d_below = d_pre @ wx
    are one GEMM each over r*B rows.

Conventions pinned here:
  * conv windows are ordered chronologically (earliest column pair first)
  * max pooling takes the max of each non-overlapping column pair, an odd
    last column dropped; a tie resolves to the first (earliest) column
  * every dense layer has a bias
  * ReLU subgradient at exactly 0 is 0: every ReLU kernel (conv, dense,
    RNN) runs np.maximum(pre, 0.0, out=pre) forward, caches only that
    output, and masks d_out * (out > 0.0) backward; out > 0.0 holds
    exactly where pre > 0.0 does, NaN included
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Raised when an input's dimensions do not match the layer parameters."""


# ---------------------------------------------------------------------------
# 1D convolution over adjacent column pairs
# ---------------------------------------------------------------------------

def conv1d_forward(x, w, b):
    """x: (B, C, r); w: (K, C, kernel); b: (K,) -> out (B, K, r-kernel+1), cache."""
    if x.ndim != 3 or w.ndim != 3:
        raise ShapeError(f"conv1d expects 3-d input and weights, got {x.shape} / {w.shape}")
    b_, c, r = x.shape
    k, _, kernel = w.shape
    if w.shape[1] != c:
        raise ShapeError(f"filter rows {w.shape[1]} != input rows {c}")
    if r < kernel:
        raise ShapeError(f"sequence length {r} shorter than kernel {kernel}")
    if b.shape != (k,):
        raise ShapeError(f"bias shape {b.shape} != ({k},)")
    p = r - kernel + 1
    xt = np.ascontiguousarray(x.transpose(0, 2, 1))
    # taps[:, t, j] = w[:, :, j] @ x[:, :, t]; output position q sums taps[:, q + j, j]
    taps = (xt.reshape(b_ * r, c) @ w.transpose(2, 0, 1).reshape(kernel * k, c).T
            ).reshape(b_, r, kernel, k)
    out = (sum(taps[:, j:j + p, j] for j in range(kernel)) + b).transpose(0, 2, 1)
    np.maximum(out, 0.0, out=out)
    return out, (x, w, out)


def conv1d_backward(cache, d_out):
    x, w, out = cache
    b_, c, _ = x.shape
    k, _, kernel = w.shape
    p = out.shape[2]
    d_pre = np.ascontiguousarray((d_out * (out > 0.0)).transpose(0, 2, 1)).reshape(b_ * p, k)
    xt = x.transpose(0, 2, 1)
    dw = np.empty_like(w)
    for j in range(kernel):
        dw[:, :, j] = d_pre.T @ xt[:, j:j + p].reshape(b_ * p, c)
    return dw, d_pre.sum(axis=0)


# ---------------------------------------------------------------------------
# max pooling
# ---------------------------------------------------------------------------

def maxpool_forward(x):
    """x: (B, K, m) -> out (B, K, m // 2), cache. Pairs columns (0, 1),
    (2, 3), ...; an odd last column is dropped."""
    b_, k_, m = x.shape
    if m < 2:
        raise ShapeError(f"cannot pool width {m} in pairs")
    first, last = x[:, :, 0:m - 1:2], x[:, :, 1:m:2]
    second = last > first  # a tie keeps the first column
    return np.where(second, last, first), (x.shape, second)


def maxpool_backward(cache, d_out):
    shape, second = cache
    m = shape[2]
    dx = np.zeros(shape)
    dx[:, :, 0:m - 1:2] = np.where(second, 0.0, d_out)
    dx[:, :, 1:m:2] = np.where(second, d_out, 0.0)
    return dx


# ---------------------------------------------------------------------------
# dense
# ---------------------------------------------------------------------------

def dense_forward(x, w, b, activation="linear"):
    """x: (B, in); w: (out, in); b: (out,) -> (B, out), cache."""
    if activation not in ("linear", "relu"):
        raise ValueError(f"unknown activation {activation!r}")
    if x.shape[1] != w.shape[1]:
        raise ShapeError(f"input width {x.shape[1]} != weight cols {w.shape[1]}")
    if b.shape != (w.shape[0],):
        raise ShapeError(f"bias shape {b.shape} != ({w.shape[0]},)")
    out = x @ w.T + b
    if activation == "relu":
        np.maximum(out, 0.0, out=out)
    return out, (x, w, out, activation)


def dense_backward(cache, d_out):
    x, w, out, activation = cache
    d_pre = d_out * (out > 0.0) if activation == "relu" else d_out
    dw = d_pre.T @ x
    db = d_pre.sum(axis=0)
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
    xs = np.ascontiguousarray(x.transpose(2, 0, 1))
    below = xs
    hidden = []
    for wx, wh, bias in layer_params:
        h = (below.reshape(r * b_, wx.shape[1]) @ wx.T).reshape(r, b_, wx.shape[0])
        h += bias
        # h[t] is the layer's state after consuming columns 0..t; the state
        # before column 0 is zero, so step 0 has no recurrent term
        np.maximum(h[0], 0.0, out=h[0])
        for prev, ht in zip(h, h[1:]):  # ht is h[t], prev h[t - 1]
            ht += prev @ wh.T
            np.maximum(ht, 0.0, out=ht)
        hidden.append(h)
        below = h
    return hidden[-1][-1], (x, layer_params, hidden, xs)


def stacked_rnn_backward(cache, d_top):
    """Backpropagation through time; d_top is the gradient w.r.t. the final
    top-layer hidden state. Returns [(dwx, dwh, db) per layer]."""
    x, layer_params, hidden, xs = cache
    b_, _, r = x.shape
    grads = [None] * len(layer_params)
    # d_states[t]: gradient w.r.t. the current layer's h[t] from the layer above
    d_states = np.zeros_like(hidden[-1])
    d_states[-1] = d_top
    for l in reversed(range(len(layer_params))):
        wx, wh, _ = layer_params[l]
        h = hidden[l]
        live = h > 0.0
        d_pre = np.empty_like(h)
        np.multiply(d_states[r - 1], live[r - 1], out=d_pre[r - 1])
        for t in reversed(range(r - 1)):
            # np.matmul(..., out=) measured slower than a fresh product at large B
            d_h = d_pre[t + 1] @ wh
            d_h += d_states[t]
            np.multiply(d_h, live[t], out=d_pre[t])
        n_out, n_in = wx.shape
        below = xs if l == 0 else hidden[l - 1]
        rows = d_pre.reshape(r * b_, n_out)
        grads[l] = (rows.T @ below.reshape(r * b_, n_in),
                    rows[b_:].T @ h[:-1].reshape((r - 1) * b_, n_out),
                    rows.sum(axis=0))
        if l:
            d_states = (rows @ wx).reshape(r, b_, n_in)
    return grads
