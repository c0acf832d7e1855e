import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridcast.data_pipeline import StateSeries, build_windows
from gridcast.layers import (conv1d_backward, conv1d_forward,
                             dense_backward, dense_forward, maxpool_backward,
                             maxpool_forward, stacked_rnn_backward,
                             stacked_rnn_forward)

from conftest import (central_diff, oracle_conv1d_backward, oracle_conv1d_forward,
                      oracle_maxpool_backward, oracle_maxpool_forward,
                      oracle_stacked_rnn_backward, oracle_stacked_rnn_forward,
                      rel_err, rnn_cell_step)


# ---------------------------------------------------------------------------
# relu, as each ReLU kernel applies it
# ---------------------------------------------------------------------------

def test_relu_sign_boundaries():
    # a one-tap identity filter makes the conv pre-activation the input row
    out, _ = conv1d_forward(np.array([[[-1.0, 0.0, 2.5]]]), np.ones((1, 1, 1)), np.zeros(1))
    npt.assert_array_equal(out, [[[0.0, 0.0, 2.5]]])


def test_relu_fixed_point_and_identity():
    out, _ = dense_forward(np.zeros((1, 5)), np.eye(5), np.zeros(5), relu=True)
    npt.assert_array_equal(out, np.zeros((1, 5)))
    out, _ = dense_forward(np.array([[3.0]]), np.eye(1), np.zeros(1), relu=True)
    npt.assert_array_equal(out, [[3.0]])


@pytest.mark.parametrize("kernel", ["conv", "dense", "rnn"])
def test_relu_subgradient_at_zero_is_zero(rng, kernel):
    """Zero weights and biases put every pre-activation at exactly 0, so no
    gradient passes any ReLU: every gradient a backward returns is 0."""
    if kernel == "conv":
        w = np.zeros((3, 4, 2))
        _, cache = conv1d_forward(rng.normal(size=(2, 4, 5)), w, np.zeros(3))
        dw, db = conv1d_backward(cache, np.ones((2, 3, 4)))
        assert dw.shape == w.shape and db.shape == (3,)
        grads = [dw, db]
    elif kernel == "dense":
        _, cache = dense_forward(rng.normal(size=(2, 3)), np.zeros((2, 3)), np.zeros(2), relu=True)
        (dw, db), dx = dense_backward(cache, np.ones((2, 2)))
        grads = [dw, db, dx]
    else:
        zero = [(np.zeros((3, 4)), np.zeros((3, 3)), np.zeros(3)),
                (np.zeros((3, 3)), np.zeros((3, 3)), np.zeros(3))]
        _, cache = stacked_rnn_forward(rng.normal(size=(2, 4, 5)), zero)
        layer_grads = stacked_rnn_backward(cache, np.ones((2, 3)))
        assert [[g.shape for g in layer] for layer in layer_grads] == [
            [a.shape for a in layer] for layer in zero]
        grads = [g for layer in layer_grads for g in layer]
    for g in grads:
        npt.assert_array_equal(g, np.zeros_like(g))


# ---------------------------------------------------------------------------
# conv1d
# ---------------------------------------------------------------------------

def test_conv_hand_oracle():
    # rows [1,2,3] and [4,5,6], all-ones 2x2 filter, zero bias:
    # window 0: 1+2+4+5=12, window 1: 2+3+5+6=16
    x = np.array([[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]])
    w = np.ones((1, 2, 2))
    b = np.zeros(1)
    out, _ = conv1d_forward(x, w, b)
    npt.assert_array_equal(out, [[[12.0, 16.0]]])


def test_conv_zero_params_zero_output(rng):
    x = rng.normal(size=(2, 6, 5))
    out, _ = conv1d_forward(x, np.zeros((3, 6, 2)), np.zeros(3))
    npt.assert_array_equal(out, np.zeros((2, 3, 4)))


def test_conv_output_shape():
    out, _ = conv1d_forward(np.zeros((1, 236, 10)), np.zeros((118, 236, 2)), np.zeros(118))
    assert out.shape == (1, 118, 9)


def test_conv_matches_sliding_dot_product_oracle(rng):
    # brute-force loop over adjacent column pairs on small instances
    for _ in range(20):
        c = int(rng.integers(1, 5))
        r = int(rng.integers(2, max(3, 24 // (2 * c))))
        x = rng.normal(size=(1, c, r))
        w = rng.normal(size=(1, c, 2))
        b = rng.normal(size=1)
        out, _ = conv1d_forward(x, w, b)
        for p in range(r - 1):
            expected = max(0.0, float(np.sum(w[0] * x[0, :, p:p + 2]) + b[0]))
            assert out[0, 0, p] == pytest.approx(expected, abs=1e-12)


def test_conv_gradients_match_finite_differences(rng):
    for seed in range(20):
        g = np.random.default_rng(seed)
        x = g.normal(size=(2, 3, 5))
        w = g.normal(size=(2, 3, 2))
        b = g.normal(size=2)
        probe = g.normal(size=(2, 2, 4))
        out, cache = conv1d_forward(x, w, b)
        dw, db = conv1d_backward(cache, probe)

        def loss():
            return float(np.sum(conv1d_forward(x, w, b)[0] * probe))

        assert rel_err(dw, central_diff(loss, w)) < 1e-4
        assert rel_err(db, central_diff(loss, b)) < 1e-4


# ---------------------------------------------------------------------------
# maxpool
# ---------------------------------------------------------------------------

def test_maxpool_hand_oracle_drops_remainder():
    x = np.array([[[1.0, 3, 2, 5, 4, 0, 7, 1, 6]]])
    out, _ = maxpool_forward(x)
    npt.assert_array_equal(out, [[[3.0, 5.0, 4.0, 7.0]]])


def test_maxpool_constant_map():
    out, _ = maxpool_forward(np.full((1, 1, 4), 2.5))
    npt.assert_array_equal(out, np.full((1, 1, 2), 2.5))


def test_maxpool_reference_scale_width():
    out, _ = maxpool_forward(np.zeros((1, 118, 9)))
    assert out.shape == (1, 118, 4)


@given(st.lists(st.floats(-100, 100), min_size=2, max_size=12),
       st.floats(0.001, 50))
def test_maxpool_monotone_under_positive_shift(vals, c):
    x = np.array(vals)[None, None, :]
    base, _ = maxpool_forward(x)
    shifted, _ = maxpool_forward(x + c)
    npt.assert_allclose(shifted, base + c, atol=1e-9)


def test_maxpool_backward_routes_to_argmax():
    x = np.array([[[1.0, 3, 2, 5]]])
    out, cache = maxpool_forward(x)
    dx = maxpool_backward(cache, np.array([[[10.0, 20.0]]]))
    npt.assert_array_equal(dx, [[[0.0, 10.0, 0.0, 20.0]]])


def test_maxpool_gradients_match_finite_differences(rng):
    for seed in range(20):
        g = np.random.default_rng(seed)
        x = g.normal(size=(2, 3, 7))
        probe = g.normal(size=(2, 3, 3))
        _, cache = maxpool_forward(x)
        dx = maxpool_backward(cache, probe)

        def loss():
            return float(np.sum(maxpool_forward(x)[0] * probe))

        assert rel_err(dx, central_diff(loss, x)) < 1e-4


@given(st.integers(1, 3), st.integers(1, 3), st.integers(2, 9), st.data())
@settings(max_examples=200, deadline=None)
def test_maxpool_pair_max_matches_argmax_oracle(b, k, m, data):
    """The pair max equals the argmax pool bit for bit, ties (including
    -0.0 against 0.0) going to the first column, and routes each gradient
    to the column the argmax picks."""
    vals = st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0])
    x = np.array(data.draw(st.lists(vals, min_size=b * k * m, max_size=b * k * m))
                 ).reshape(b, k, m)
    d_out = np.arange(1.0, b * k * (m // 2) + 1).reshape(b, k, m // 2)
    out, cache = maxpool_forward(x)
    want, arg = oracle_maxpool_forward(x)
    npt.assert_array_equal(out.view(np.uint64), want.view(np.uint64))
    npt.assert_array_equal(maxpool_backward(cache, d_out),
                           oracle_maxpool_backward(x.shape, arg, d_out))


# ---------------------------------------------------------------------------
# dense
# ---------------------------------------------------------------------------

def test_dense_hand_oracle():
    w = np.array([[1.0, 2.0], [3.0, 4.0]])
    out, _ = dense_forward(np.array([[1.0, 1.0]]), w, np.array([0.0, 1.0]))
    npt.assert_array_equal(out, [[3.0, 8.0]])


def test_dense_identity_map(rng):
    x = rng.normal(size=(3, 4))
    out, _ = dense_forward(x, np.eye(4), np.zeros(4))
    npt.assert_array_equal(out, x)


def test_dense_zero_weight_relu_bias():
    b = np.array([-1.0, 2.0])
    out, _ = dense_forward(np.ones((1, 3)), np.zeros((2, 3)), b, relu=True)
    npt.assert_array_equal(out, [[0.0, 2.0]])


@pytest.mark.parametrize("relu", [False, True], ids=["linear", "relu"])
def test_dense_gradients_match_finite_differences(relu):
    for seed in range(20):
        g = np.random.default_rng(seed)
        x = g.normal(size=(3, 4))
        w = g.normal(size=(2, 4))
        b = g.normal(size=2)
        probe = g.normal(size=(3, 2))
        _, cache = dense_forward(x, w, b, relu=relu)
        (dw, db), dx = dense_backward(cache, probe)

        def loss():
            return float(np.sum(dense_forward(x, w, b, relu=relu)[0] * probe))

        assert rel_err(dw, central_diff(loss, w)) < 1e-4
        assert rel_err(dx, central_diff(loss, x)) < 1e-4
        assert rel_err(db, central_diff(loss, b)) < 1e-4


def test_relu_dense_all_negative_pre_has_zero_input_grad():
    x = np.ones((1, 2))
    w = -np.ones((2, 2))
    _, cache = dense_forward(x, w, np.zeros(2), relu=True)
    (_, _), dx = dense_backward(cache, np.ones((1, 2)))
    npt.assert_array_equal(dx, np.zeros((1, 2)))


def test_zero_upstream_gives_zero_grads(rng):
    x = rng.normal(size=(2, 3))
    w = rng.normal(size=(2, 3))
    _, cache = dense_forward(x, w, rng.normal(size=2), relu=True)
    (dw, db), dx = dense_backward(cache, np.zeros((2, 2)))
    npt.assert_array_equal(dw, np.zeros_like(w))
    npt.assert_array_equal(db, np.zeros(2))
    npt.assert_array_equal(dx, np.zeros_like(x))


# ---------------------------------------------------------------------------
# recurrent stack
# ---------------------------------------------------------------------------

def test_rnn_cell_affine_degenerate():
    b = np.array([-1.0, 0.5])
    out = rnn_cell_step(np.zeros((2, 3)), np.zeros((2, 2)), b, np.zeros(3), np.zeros(2))
    npt.assert_array_equal(out, [0.0, 0.5])
    out = rnn_cell_step(np.zeros((2, 3)), np.zeros((2, 2)), np.zeros(2),
                        np.zeros(3), np.zeros(2))
    npt.assert_array_equal(out, np.zeros(2))


def test_rnn_cell_hand_scalar():
    out = rnn_cell_step(np.array([[1.0]]), np.array([[-1.0]]), np.array([0.0]),
                        np.array([2.0]), np.array([3.0]))
    npt.assert_array_equal(out, [0.0])


def test_rnn_cell_rejects_mismatch():
    with pytest.raises(ValueError, match="input length"):
        rnn_cell_step(np.zeros((2, 3)), np.zeros((2, 2)), np.zeros(2),
                      np.zeros(4), np.zeros(2))
    with pytest.raises(ValueError, match="recurrent weight must be square"):
        rnn_cell_step(np.zeros((2, 3)), np.zeros((3, 2)), np.zeros(2),
                      np.zeros(3), np.zeros(2))


def test_single_layer_stack_matches_unrolled_cell(rng):
    wx = rng.normal(size=(3, 2))
    wh = rng.normal(size=(3, 3))
    b = rng.normal(size=3)
    x = rng.normal(size=(2, 4))  # one sample, D=2, r=4
    out, _ = stacked_rnn_forward(x[None], [(wx, wh, b)])
    h = np.zeros(3)
    for t in range(4):
        h = rnn_cell_step(wx, wh, b, x[:, t], h)
    npt.assert_allclose(out[0], h, rtol=0, atol=1e-12)


def test_all_zero_stack_gives_zero_output(rng):
    x = rng.normal(size=(2, 4, 5))
    zero = [(np.zeros((3, 4)), np.zeros((3, 3)), np.zeros(3)),
            (np.zeros((3, 3)), np.zeros((3, 3)), np.zeros(3))]
    out, _ = stacked_rnn_forward(x, zero)
    npt.assert_array_equal(out, np.zeros((2, 3)))


def test_stacked_rnn_gradients_match_finite_differences():
    for seed in range(20):
        g = np.random.default_rng(seed)
        x = g.normal(size=(2, 3, 4))
        params = [(g.normal(size=(4, 3)), g.normal(size=(4, 4)) * 0.5, g.normal(size=4)),
                  (g.normal(size=(4, 4)), g.normal(size=(4, 4)) * 0.5, g.normal(size=4))]
        probe = g.normal(size=(2, 4))
        _, cache = stacked_rnn_forward(x, params)
        grads = stacked_rnn_backward(cache, probe)

        def loss():
            return float(np.sum(stacked_rnn_forward(x, params)[0] * probe))

        for l in range(2):
            for gi, arr in enumerate(params[l]):
                assert rel_err(grads[l][gi], central_diff(loss, arr)) < 1e-4


def test_stacked_rnn_forward_retains_one_state_buffer_per_layer(rng):
    """What the forward keeps alive is the (r, B, D) copy of the input and
    each layer's (r, B, H) states, no pre-activations beside them: at
    D = H and L = 3 that is L + 1 buffers of r*B*H floats."""
    b, h, r, n_layers = 64, 32, 10, 3
    x = rng.normal(size=(b, h, r))
    params = [(rng.normal(size=(h, h)), rng.normal(size=(h, h)), rng.normal(size=h))
              for _ in range(n_layers)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = stacked_rnn_forward(x, params)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del kept
    # half a buffer of slack for the cache's tuples and lists
    assert retained / (r * b * h * 8) < n_layers + 1.5


def test_layer_determinism(rng):
    x = rng.normal(size=(2, 4, 6))
    w = rng.normal(size=(3, 4, 2))
    b = rng.normal(size=3)
    a1, _ = conv1d_forward(x, w, b)
    a2, _ = conv1d_forward(x.copy(), w.copy(), b.copy())
    npt.assert_array_equal(a1, a2)


# ---------------------------------------------------------------------------
# GEMM kernels against the einsum / per-step oracles, in every input layout
# ---------------------------------------------------------------------------

LAYOUTS = ("c-ordered", "build_windows", "values-slice")


def _windows(layout, g, b, d, r):
    """(b, d, r) windows: C-ordered, the time-major stack of build_windows,
    or the single transposed series slice `values[a:a + r].T` (b = 1)."""
    values = g.normal(size=(b + r, d))
    if layout == "values-slice":
        x = values[1:1 + r].T[None]
    else:
        x = build_windows(StateSeries(d // 2, values), r)[0]
        if layout == "c-ordered":
            x = np.ascontiguousarray(x)
    if layout != "c-ordered" and r > 1 and d > 1:
        assert not x.flags.c_contiguous
    return x


def assert_rel_close(got, want, tol=1e-12):
    """Max abs error within tol of the reference's largest magnitude."""
    assert got.shape == want.shape
    scale = max(float(np.max(np.abs(want))), np.finfo(float).tiny)
    assert float(np.max(np.abs(got - want))) <= tol * scale


@given(st.integers(1, 40), st.sampled_from([2, 3]), st.integers(1, 4), st.integers(0, 4),
       st.integers(1, 5), st.sampled_from(LAYOUTS), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_conv_kernels_match_einsum_oracle(b, kernel, n, extra, k, layout, seed):
    g = np.random.default_rng(seed)
    r = kernel + extra
    x = _windows(layout, g, b, 2 * n, r)
    w = g.normal(size=(k, 2 * n, kernel))
    bias = g.normal(size=k)
    out, cache = conv1d_forward(x, w, bias)
    want_out, want_pre = oracle_conv1d_forward(x, w, bias)
    assert_rel_close(out, want_out)
    d_out = g.normal(size=out.shape)
    dw, db = conv1d_backward(cache, d_out)
    want_dw, want_db = oracle_conv1d_backward(x, w, want_pre, d_out)
    assert_rel_close(dw, want_dw)
    assert_rel_close(db, want_db)


@given(st.integers(1, 40), st.integers(1, 3), st.integers(1, 4), st.integers(1, 9),
       st.integers(1, 6), st.sampled_from(LAYOUTS), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_stacked_rnn_kernels_match_per_step_oracle(b, n_layers, n, hidden, r, layout, seed):
    d = 2 * n
    assume(hidden != d)
    g = np.random.default_rng(seed)
    x = _windows(layout, g, b, d, r)
    params, in_dim = [], d
    for _ in range(n_layers):
        params.append((g.normal(size=(hidden, in_dim)), g.normal(size=(hidden, hidden)) * 0.5,
                       g.normal(size=hidden)))
        in_dim = hidden
    top, cache = stacked_rnn_forward(x, params)
    want_top, want_hidden = oracle_stacked_rnn_forward(x, params)
    assert_rel_close(top, want_top)
    d_top = g.normal(size=top.shape)
    grads = stacked_rnn_backward(cache, d_top)
    want_grads = oracle_stacked_rnn_backward(x, params, want_hidden, d_top)
    assert len(grads) == len(want_grads) == n_layers
    for layer, want_layer in zip(grads, want_grads):
        for got, want in zip(layer, want_layer):
            assert_rel_close(got, want)
