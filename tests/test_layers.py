import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcast import layers
from gridcast.layers import (ShapeError, conv1d_backward, conv1d_forward,
                             dense_backward, dense_forward, flatten_backward,
                             flatten_forward, maxpool_backward,
                             maxpool_forward, relu, stacked_rnn_backward,
                             stacked_rnn_forward)

from conftest import central_diff, rel_err, rnn_cell_step


# ---------------------------------------------------------------------------
# relu
# ---------------------------------------------------------------------------

def test_relu_sign_boundaries():
    npt.assert_array_equal(relu(np.array([-1.0, 0.0, 2.5])), [0.0, 0.0, 2.5])


def test_relu_fixed_point_and_identity():
    npt.assert_array_equal(relu(np.zeros(5)), np.zeros(5))
    npt.assert_array_equal(relu(np.array([3.0])), [3.0])


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


def test_conv_rejects_mismatched_filter():
    with pytest.raises(ShapeError):
        conv1d_forward(np.zeros((1, 4, 5)), np.zeros((2, 6, 2)), np.zeros(2))
    with pytest.raises(ShapeError):
        conv1d_forward(np.zeros((1, 4, 1)), np.zeros((2, 4, 2)), np.zeros(2))


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
        (dw, db), dx = conv1d_backward(cache, probe)

        def loss():
            return float(np.sum(conv1d_forward(x, w, b)[0] * probe))

        assert rel_err(dw, central_diff(loss, w)) < 1e-4
        assert rel_err(db, central_diff(loss, b)) < 1e-4
        assert rel_err(dx, central_diff(loss, x)) < 1e-4


# ---------------------------------------------------------------------------
# maxpool
# ---------------------------------------------------------------------------

def test_maxpool_hand_oracle_drops_remainder():
    x = np.array([[[1.0, 3, 2, 5, 4, 0, 7, 1, 6]]])
    out, _ = maxpool_forward(x, 2)
    npt.assert_array_equal(out, [[[3.0, 5.0, 4.0, 7.0]]])


def test_maxpool_constant_map():
    out, _ = maxpool_forward(np.full((1, 1, 4), 2.5), 2)
    npt.assert_array_equal(out, np.full((1, 1, 2), 2.5))


def test_maxpool_reference_scale_width():
    out, _ = maxpool_forward(np.zeros((1, 118, 9)), 2)
    assert out.shape == (1, 118, 4)


def test_maxpool_rejects_narrow_input():
    with pytest.raises(ShapeError):
        maxpool_forward(np.zeros((1, 2, 1)), 2)


@given(st.lists(st.floats(-100, 100), min_size=2, max_size=12),
       st.floats(0.001, 50))
def test_maxpool_monotone_under_positive_shift(vals, c):
    x = np.array(vals)[None, None, :]
    base, _ = maxpool_forward(x, 2)
    shifted, _ = maxpool_forward(x + c, 2)
    npt.assert_allclose(shifted, base + c, atol=1e-9)


def test_maxpool_backward_routes_to_argmax():
    x = np.array([[[1.0, 3, 2, 5]]])
    out, cache = maxpool_forward(x, 2)
    dx = maxpool_backward(cache, np.array([[[10.0, 20.0]]]))
    npt.assert_array_equal(dx, [[[0.0, 10.0, 0.0, 20.0]]])


def test_maxpool_gradients_match_finite_differences(rng):
    for seed in range(20):
        g = np.random.default_rng(seed)
        x = g.normal(size=(2, 3, 7))
        probe = g.normal(size=(2, 3, 3))
        _, cache = maxpool_forward(x, 2)
        dx = maxpool_backward(cache, probe)

        def loss():
            return float(np.sum(maxpool_forward(x, 2)[0] * probe))

        assert rel_err(dx, central_diff(loss, x)) < 1e-4


# ---------------------------------------------------------------------------
# flatten
# ---------------------------------------------------------------------------

def test_flatten_examples():
    out, _ = flatten_forward(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
    npt.assert_array_equal(out, [[1.0, 2.0, 3.0, 4.0]])
    out, _ = flatten_forward(np.array([[[7.0]]]))
    npt.assert_array_equal(out, [[7.0]])
    out, _ = flatten_forward(np.zeros((1, 118, 4)))
    assert out.shape == (1, 472)


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 10 ** 6))
@settings(max_examples=50)
def test_flatten_is_a_bijection(k, q, seed):
    m = np.random.default_rng(seed).normal(size=(k, q))
    flat, cache = flatten_forward(m[None])
    npt.assert_array_equal(flatten_backward(cache, flat)[0], m)


def test_flatten_backward_is_inverse(rng):
    x = rng.normal(size=(2, 3, 4))
    out, cache = flatten_forward(x)
    npt.assert_array_equal(flatten_backward(cache, out), x)


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
    out, _ = dense_forward(np.ones((1, 3)), np.zeros((2, 3)), b, activation="relu")
    npt.assert_array_equal(out, [[0.0, 2.0]])


def test_dense_rejects_length_mismatch():
    with pytest.raises(ShapeError):
        dense_forward(np.ones((1, 3)), np.zeros((2, 4)), np.zeros(2))


@pytest.mark.parametrize("activation", ["linear", "relu"])
@pytest.mark.parametrize("with_bias", [True, False])
def test_dense_gradients_match_finite_differences(activation, with_bias):
    for seed in range(20):
        g = np.random.default_rng(seed)
        x = g.normal(size=(3, 4))
        w = g.normal(size=(2, 4))
        b = g.normal(size=2) if with_bias else None
        probe = g.normal(size=(3, 2))
        _, cache = dense_forward(x, w, b, activation)
        (dw, db), dx = dense_backward(cache, probe)

        def loss():
            return float(np.sum(dense_forward(x, w, b, activation)[0] * probe))

        assert rel_err(dw, central_diff(loss, w)) < 1e-4
        assert rel_err(dx, central_diff(loss, x)) < 1e-4
        if with_bias:
            assert rel_err(db, central_diff(loss, b)) < 1e-4
        else:
            assert db is None


def test_relu_dense_all_negative_pre_has_zero_input_grad():
    x = np.ones((1, 2))
    w = -np.ones((2, 2))
    _, cache = dense_forward(x, w, np.zeros(2), activation="relu")
    (_, _), dx = dense_backward(cache, np.ones((1, 2)))
    npt.assert_array_equal(dx, np.zeros((1, 2)))


def test_zero_upstream_gives_zero_grads(rng):
    x = rng.normal(size=(2, 3))
    w = rng.normal(size=(2, 3))
    _, cache = dense_forward(x, w, rng.normal(size=2), activation="relu")
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
    with pytest.raises(ShapeError):
        rnn_cell_step(np.zeros((2, 3)), np.zeros((2, 2)), np.zeros(2),
                      np.zeros(4), np.zeros(2))
    with pytest.raises(ShapeError):
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


def test_stack_rejects_dimension_mismatch(rng):
    x = rng.normal(size=(1, 4, 3))
    bad = [(np.zeros((3, 4)), np.zeros((3, 3)), np.zeros(3)),
           (np.zeros((2, 4)), np.zeros((2, 2)), np.zeros(2))]  # expects dim 4, gets 3
    with pytest.raises(ShapeError):
        stacked_rnn_forward(x, bad)


def test_stacked_rnn_gradients_match_finite_differences():
    for seed in range(20):
        g = np.random.default_rng(seed)
        x = g.normal(size=(2, 3, 4))
        params = [(g.normal(size=(4, 3)), g.normal(size=(4, 4)) * 0.5, g.normal(size=4)),
                  (g.normal(size=(4, 4)), g.normal(size=(4, 4)) * 0.5, g.normal(size=4))]
        probe = g.normal(size=(2, 4))
        _, cache = stacked_rnn_forward(x, params)
        grads, dx = stacked_rnn_backward(cache, probe)

        def loss():
            return float(np.sum(stacked_rnn_forward(x, params)[0] * probe))

        assert rel_err(dx, central_diff(loss, x)) < 1e-4
        for l in range(2):
            for gi, arr in enumerate(params[l]):
                assert rel_err(grads[l][gi], central_diff(loss, arr)) < 1e-4


def test_layer_determinism(rng):
    x = rng.normal(size=(2, 4, 6))
    w = rng.normal(size=(3, 4, 2))
    b = rng.normal(size=3)
    a1, _ = conv1d_forward(x, w, b)
    a2, _ = conv1d_forward(x.copy(), w.copy(), b.copy())
    npt.assert_array_equal(a1, a2)
