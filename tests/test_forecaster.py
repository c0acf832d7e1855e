import base64
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridcast import forecaster, layers
from gridcast.data_pipeline import Normalizer
from gridcast.forecaster import (HYBRID, KERNEL, RNN_ONLY, ForecastModel, ModelConfig,
                                 ModelFormatError, forecast_batch, forecast_next,
                                 init_model, load_model, model_backward, model_forward,
                                 param_layout, save_model)

from conftest import branch_param_names, identity_normalizer, param_count, rnn_cell_step

TINY = dict(n_buses=2, lag_r=3, conv_filters=2, rnn_hidden=4)


def tiny_model(seed=0, **overrides):
    cfg = ModelConfig(**{**TINY, **overrides})
    return init_model(cfg, seed, identity_normalizer(cfg.n_features))


def cnn_branch_forward(model: ForecastModel, window):
    """(2n, r) window -> n magnitude predictions (z-scored)."""
    if model.config.kind != HYBRID:
        raise ValueError("model has no convolutional branch")
    out, _ = model_forward(model, np.asarray(window, dtype=float)[None])
    return out[0, :model.config.n_buses]


def rnn_branch_forward(model: ForecastModel, window):
    """(2n, r) window -> the recurrent head's output (z-scored):
    the n angles of a hybrid model, all 2n states of an RNN-only one."""
    out, _ = model_forward(model, np.asarray(window, dtype=float)[None])
    return out[0, model.config.n_buses:] if model.config.kind == HYBRID else out[0]


# ---------------------------------------------------------------------------
# config / parameter accounting
# ---------------------------------------------------------------------------

def test_default_widths_follow_bus_count():
    cfg = ModelConfig(n_buses=118)
    assert cfg.conv_filters == 118
    assert cfg.dense1_width == 236
    assert cfg.rnn_hidden == 236
    assert cfg.rnn_layers == 3
    assert cfg.flat_width == 472  # 118 maps x 4 pooled positions


def test_param_count_default_conv_total():
    cfg = ModelConfig(n_buses=118)
    conv = 118 * (236 * 2 + 1)
    assert conv == 55814
    model = init_model(cfg, 0, identity_normalizer(cfg.n_features))
    assert model.params["conv_w"].size + model.params["conv_b"].size == conv
    dense2 = model.params["dense2_w"].size + model.params["dense2_b"].size
    assert dense2 == 118 * 236 + 118


def test_param_count_hand_tiny():
    cfg = ModelConfig(n_buses=1, lag_r=3, conv_filters=1)
    shapes = {name: shape for name, (_, shape) in param_layout(cfg).items()}
    assert int(np.prod(shapes["conv_w"])) + int(np.prod(shapes["conv_b"])) == 5


def test_param_count_matches_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(20):
        cfg = ModelConfig(
            n_buses=int(rng.integers(1, 6)),
            lag_r=int(rng.integers(4, 12)),
            conv_filters=int(rng.integers(1, 8)),
            dense1_width=int(rng.integers(1, 10)),
            rnn_layers=int(rng.integers(1, 4)),
            rnn_hidden=int(rng.integers(1, 10)),
            kind=HYBRID if rng.integers(0, 2) else RNN_ONLY,
        )
        model = init_model(cfg, int(rng.integers(0, 1000)), identity_normalizer(cfg.n_features))
        assert param_count(cfg) == sum(p.size for p in model.params.values())


@pytest.mark.parametrize("width", ["conv_filters", "dense1_width", "rnn_layers", "rnn_hidden"])
def test_config_rejects_width_below_one(width):
    with pytest.raises(ValueError, match="invalid model config"):
        ModelConfig(n_buses=3, **{width: 0})


def test_config_rejects_invalid():
    with pytest.raises(ValueError):
        ModelConfig(n_buses=0)
    with pytest.raises(ValueError):
        ModelConfig(n_buses=2, lag_r=1)
    with pytest.raises(ValueError):
        ModelConfig(n_buses=2, kind="lstm")


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def test_init_deterministic_per_seed():
    a = tiny_model(5)
    b = tiny_model(5)
    for k in a.params:
        npt.assert_array_equal(a.params[k], b.params[k])
    c = tiny_model(6)
    assert any(not np.array_equal(a.params[k], c.params[k]) for k in a.params)


def test_init_weights_within_documented_bound():
    cfg = ModelConfig(n_buses=3, lag_r=6)
    model = init_model(cfg, 1, identity_normalizer(cfg.n_features))
    for name, (_, shape) in param_layout(cfg).items():
        p = model.params[name]
        if len(shape) == 1:
            npt.assert_array_equal(p, np.zeros(shape))
        elif name == "conv_w":
            bound = np.sqrt(6.0 / (6 * 2 + cfg.conv_filters * 2))
            assert np.abs(p).max() <= bound
        else:
            bound = np.sqrt(6.0 / (shape[0] + shape[1]))
            assert np.abs(p).max() <= bound


@pytest.mark.parametrize("kind", [HYBRID, RNN_ONLY])
@pytest.mark.parametrize("lag", [3, 10])
@pytest.mark.parametrize("widths", [dict(n_buses=1), dict(n_buses=2), dict(n_buses=14),
                                    dict(n_buses=118),
                                    dict(n_buses=2, conv_filters=5, dense1_width=3, rnn_hidden=7)],
                         ids=["n1", "n2", "n14", "n118", "n2-widths"])
def test_init_draws_replay_bit_for_bit(kind, lag, widths):
    """init_model equals, as uint64, its documented draw replayed by hand:
    default_rng(seed) in param_layout order, each weight U(-b, b) with the
    Glorot bound b = sqrt(6 / (fan_in + fan_out)), conv fans 2n * KERNEL in
    and K * KERNEL out, (out, in) for every other weight; zero biases."""
    cfg = ModelConfig(lag_r=lag, kind=kind, **widths)
    model = init_model(cfg, 11, identity_normalizer(cfg.n_features))
    assert list(model.params) == list(param_layout(cfg))
    rng = np.random.default_rng(11)
    for name, (_, shape) in param_layout(cfg).items():
        if len(shape) == 1:
            expected = np.zeros(shape)
        else:
            if name == "conv_w":
                fan_in, fan_out = cfg.n_features * KERNEL, cfg.conv_filters * KERNEL
            else:
                fan_out, fan_in = shape
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            expected = rng.uniform(-bound, bound, shape)
        npt.assert_array_equal(model.params[name].view(np.uint64), expected.view(np.uint64),
                               err_msg=name)


# ---------------------------------------------------------------------------
# branch forwards
# ---------------------------------------------------------------------------

def test_branch_output_widths_reference_scale():
    cfg = ModelConfig(n_buses=118)
    model = init_model(cfg, 0, identity_normalizer(cfg.n_features))
    window = np.zeros((236, 10))
    assert cnn_branch_forward(model, window).shape == (118,)
    assert rnn_branch_forward(model, window).shape == (118,)


def test_zero_network_outputs_biases(rng):
    model = tiny_model()
    for k in model.params:
        model.params[k] = np.zeros_like(model.params[k])
    b2 = np.array([0.5, -1.5])
    b3 = np.array([2.0, 3.0])
    model.params["dense2_b"] = b2
    model.params["dense3_b"] = b3
    window = rng.normal(size=(4, 3))
    npt.assert_array_equal(cnn_branch_forward(model, window), b2)
    npt.assert_array_equal(rnn_branch_forward(model, window), b3)
    npt.assert_array_equal(forecast_next(model, window), np.concatenate([b2, b3]))


def test_cnn_branch_matches_manual_composition(rng):
    model = tiny_model(3)
    p = model.params
    window = rng.normal(size=(4, 3))
    out = cnn_branch_forward(model, window)
    conv, _ = layers.conv1d_forward(window[None], p["conv_w"], p["conv_b"])
    pooled, _ = layers.maxpool_forward(conv)
    d1, _ = layers.dense_forward(pooled.reshape(1, -1), p["dense1_w"], p["dense1_b"], relu=True)
    d2, _ = layers.dense_forward(d1, p["dense2_w"], p["dense2_b"])
    npt.assert_array_equal(out, d2[0])


def test_flatten_is_map_major_forward_and_backward(rng):
    """Column k * q + j of dense1_w reads pooled map k at position j, and its
    gradient flows back to that same position. With q = 2 a position-major
    order would read (and send gradient to) other positions."""
    model = tiny_model(3, lag_r=6)  # 5 conv positions pool to q = 2
    p, n = model.params, model.config.n_buses
    x = rng.normal(size=(2, 4, 6))
    out, cache = model_forward(model, x)
    d_out = rng.normal(size=out.shape)
    grads = model_backward(model, cache, d_out)

    conv, conv_cache = layers.conv1d_forward(x, p["conv_w"], p["conv_b"])
    pooled, pool_cache = layers.maxpool_forward(conv)
    k, q = pooled.shape[1:]
    assert q == 2
    columns = [(f, j) for f in range(k) for j in range(q)]
    flat = np.stack([pooled[:, f, j] for f, j in columns], axis=1)
    d1, d1_cache = layers.dense_forward(flat, p["dense1_w"], p["dense1_b"], relu=True)
    vm, d2_cache = layers.dense_forward(d1, p["dense2_w"], p["dense2_b"])
    npt.assert_allclose(out[:, :n], vm, rtol=0, atol=1e-12)

    _, d_d1 = layers.dense_backward(d2_cache, d_out[:, :n])
    _, d_flat = layers.dense_backward(d1_cache, d_d1)
    d_pooled = np.empty_like(pooled)
    for col, (f, j) in enumerate(columns):
        d_pooled[:, f, j] = d_flat[:, col]
    dcw, dcb = layers.conv1d_backward(
        conv_cache, layers.maxpool_backward(pool_cache, d_pooled))
    npt.assert_allclose(grads["conv_w"], dcw, rtol=0, atol=1e-12)
    npt.assert_allclose(grads["conv_b"], dcb, rtol=0, atol=1e-12)


def test_rnn_branch_matches_unrolled_chain(rng):
    model = tiny_model(4, rnn_layers=1)
    p = model.params
    window = rng.normal(size=(4, 3))
    out = rnn_branch_forward(model, window)
    h = np.zeros(4)
    for t in range(3):
        h = rnn_cell_step(p["rnn0_wx"], p["rnn0_wh"], p["rnn0_b"], window[:, t], h)
    expected = p["dense3_w"] @ h + p["dense3_b"]
    npt.assert_allclose(out, expected, atol=1e-12)


def test_forecast_layout_and_normalization(rng):
    norm = Normalizer(rng.normal(size=4), rng.uniform(0.5, 2.0, 4))
    cfg = ModelConfig(**TINY)
    model = init_model(cfg, 2, norm)
    window = rng.normal(size=(4, 3))
    out = forecast_next(model, window)
    assert out.shape == (4,)
    # the same parameters behind an identity normalizer, fed a window z-scored by hand
    plain = ForecastModel(cfg, model.params, identity_normalizer(cfg.n_features))
    z = (window - norm.mean[:, None]) / norm.std[:, None]
    vm = cnn_branch_forward(plain, z)
    va = rnn_branch_forward(plain, z)
    npt.assert_allclose(out, norm.invert(np.concatenate([vm, va])), atol=1e-12)


@given(st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_forecast_batch_matches_stacked_forecast_next(n, seed):
    # every batch size 1..3n, so B == 2n (a square (B, 2n) prediction
    # batch) is always among them; with chunks of 2 windows, every batch
    # above 2 runs in several forwards, the last one short when B is odd
    rng = np.random.default_rng(seed)
    norm = Normalizer(rng.normal(scale=10.0, size=2 * n), rng.uniform(0.5, 3.0, 2 * n))
    cfg = ModelConfig(n_buses=n, lag_r=3, conv_filters=2, rnn_hidden=4)
    model = init_model(cfg, seed, norm)
    windows = norm.mean[:, None] + norm.std[:, None] * rng.normal(size=(3 * n, 2 * n, 3))
    for chunk in (forecaster.FORWARD_CHUNK, 2):
        with mock.patch.object(forecaster, "FORWARD_CHUNK", chunk):
            for b in range(1, 3 * n + 1):
                batch = forecast_batch(model, windows[:b])
                single = np.stack([forecast_next(model, w) for w in windows[:b]])
                assert np.max(np.abs(batch - single)) <= 1e-12 * np.max(np.abs(single)), (chunk, b)


def test_forecast_rejects_bad_windows(rng):
    model = tiny_model()
    with pytest.raises(ValueError, match=r"expected windows of shape \(B, 4, 3\)"):
        forecast_next(model, rng.normal(size=(4, 5)))
    with pytest.raises(ValueError, match=r"shape \(B, 4, 3\), got \(0, 4, 3\)"):
        forecast_batch(model, np.zeros((0, 4, 3)))  # not numpy's empty-concatenate error
    bad = rng.normal(size=(4, 3))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        forecast_next(model, bad)


def test_branch_independence(rng):
    model = tiny_model(8)
    window = rng.normal(size=(4, 3))
    base = forecast_next(model, window)
    for name in branch_param_names(model.config, "cnn"):
        perturbed = ForecastModel(model.config,
                                  {k: p.copy() for k, p in model.params.items()},
                                  model.normalizer)
        perturbed.params[name] = perturbed.params[name] + 0.37
        out = forecast_next(perturbed, window)
        npt.assert_array_equal(out[2:], base[2:])  # angle half untouched
    for name in branch_param_names(model.config, "rnn"):
        perturbed = ForecastModel(model.config,
                                  {k: p.copy() for k, p in model.params.items()},
                                  model.normalizer)
        perturbed.params[name] = perturbed.params[name] + 0.37
        out = forecast_next(perturbed, window)
        npt.assert_array_equal(out[:2], base[:2])  # magnitude half untouched


def test_rnn_only_model_width(rng):
    model = tiny_model(1, kind=RNN_ONLY)
    window = rng.normal(size=(4, 3))
    assert forecast_next(model, window).shape == (4,)
    with pytest.raises(ValueError):
        cnn_branch_forward(model, window)
    # angle-path architecture identical to the hybrid's RNN branch up to head width
    hybrid = tiny_model(1)
    assert model.params["rnn0_wx"].shape == hybrid.params["rnn0_wx"].shape
    assert model.params["dense3_w"].shape[0] == 2 * hybrid.params["dense3_w"].shape[0]


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_save_load_round_trip_bit_exact(tmp_path, rng):
    norm = Normalizer(rng.normal(size=4), rng.uniform(0.5, 2.0, 4))
    model = init_model(ModelConfig(**TINY), 9, norm)
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert back.config == model.config
    for k in model.params:
        npt.assert_array_equal(back.params[k], model.params[k])
    npt.assert_array_equal(back.normalizer.mean, norm.mean)
    npt.assert_array_equal(back.normalizer.std, norm.std)
    window = rng.normal(size=(4, 3))
    npt.assert_array_equal(forecast_next(back, window), forecast_next(model, window))


def test_load_corrupt_header(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    with pytest.raises(ModelFormatError, match="unreadable model header"):
        load_model(path)


def _split(path):
    """A gridcast-model-v4 file's parsed header and its payload as
    {name: float64 values}, decoded independently of the loader."""
    raw = path.read_bytes()
    end = raw.index(b"\n")
    header = json.loads(raw[:end])
    values = np.frombuffer(raw, dtype="<f8", offset=end + 1)
    arrays, offset = {}, 0
    for name, shape in header["arrays"]:
        size = int(np.prod(shape))
        arrays[name] = values[offset:offset + size].copy()
        offset += size
    return header, arrays


def _header_bytes(header):
    return json.dumps(header).encode("utf-8")


def _payload(arrays):
    return b"".join(np.asarray(v, dtype="<f8").tobytes() for v in arrays.values())


def _write(path, header, arrays):
    path.write_bytes(_header_bytes(header) + b"\n" + _payload(arrays))


def _saved(path):
    save_model(tiny_model(), path)
    return _split(path)


def _b64(values):
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def _as_v2(header, arrays):
    """The same model as a gridcast-model-v2 document: indented JSON holding
    each array as base64 of its little-endian float64 bytes."""
    shapes = dict(header["arrays"])
    return {
        "format_version": "gridcast-model-v2",
        "config": header["config"],
        "normalizer": {"mean": _b64(arrays["normalizer.mean"]),
                       "std": _b64(arrays["normalizer.std"]),
                       "constant_mask": [False] * len(arrays["normalizer.mean"])},
        "params": {name: {"shape": shapes[name], "data": _b64(values)}
                   for name, values in arrays.items() if not name.startswith("normalizer.")},
    }


def _as_v1(doc):
    """A gridcast-model-v2 document in the v1 layout: one float.hex() per value."""
    def hexes(data):
        return [float(v).hex() for v in np.frombuffer(base64.b64decode(data), dtype="<f8")]
    doc["format_version"] = "gridcast-model-v1"
    for key in ("mean", "std"):
        doc["normalizer"][key] = hexes(doc["normalizer"][key])
    for entry in doc["params"].values():
        entry["data"] = hexes(entry["data"])
    return doc


def _as_v3(header):
    """The v3 header of the same model: the v4 one plus constant_mask and the
    kernel, pool and dense1_bias config keys."""
    return {**header, "format_version": "gridcast-model-v3",
            "config": {**header["config"], "kernel": 2, "pool": 2, "dense1_bias": True},
            "constant_mask": [False] * 2 * header["config"]["n_buses"]}


def test_load_version_mismatch(tmp_path):
    v0 = tmp_path / "v0.json"
    v0.write_text('{"format_version": "gridcast-model-v0"}')
    v1, v2, v3 = tmp_path / "v1.json", tmp_path / "v2.json", tmp_path / "v3.gcm"
    v1.write_text(json.dumps(_as_v1(_as_v2(*_saved(v1))), indent=1) + "\n")
    v2.write_text(json.dumps(_as_v2(*_saved(v2)), indent=1) + "\n")
    header, arrays = _saved(v3)
    _write(v3, _as_v3(header), arrays)
    for path, version in ((v0, "v0"), (v3, "v3")):
        with pytest.raises(ModelFormatError,
                           match=rf"unsupported model format 'gridcast-model-{version}'.*re-train"):
            load_model(path)
    for path in (v1, v2):  # only the first line, "{", is read
        with pytest.raises(ModelFormatError, match="unreadable model header.*re-train") as exc:
            load_model(path)
        assert str(path) in str(exc.value)


def test_load_shape_inconsistency(tmp_path):
    path = tmp_path / "model.json"
    header, arrays = _saved(path)
    arrays["conv_b"] = np.append(arrays["conv_b"], 0.0)  # 8 bytes too many
    _write(path, header, arrays)
    with pytest.raises(ModelFormatError, match="bytes after the last listed array"):
        load_model(path)


@pytest.mark.parametrize("name, width", [("mean", 3), ("mean", 5), ("std", 1), ("std", 8)])
def test_load_rejects_wrong_normalizer_length(tmp_path, name, width):
    # tiny model: 4 features; numpy would broadcast a length-1 std silently
    path = tmp_path / "model.json"
    header, arrays = _saved(path)
    key = f"normalizer.{name}"
    header["arrays"] = [[k, [width] if k == key else shape] for k, shape in header["arrays"]]
    arrays[key] = np.ones(width)
    _write(path, header, arrays)
    with pytest.raises(ModelFormatError, match=rf"array normalizer\.{name}: stored"):
        load_model(path)


@pytest.mark.parametrize("width", ["dense1_width", "rnn_hidden"])
def test_load_rejects_width_below_one(tmp_path, width):
    """A header whose config has a zero width is refused, even with every
    array listed and stored in the shape that width gives."""
    path = tmp_path / "model.gcm"
    header, _ = _saved(path)
    header["config"][width] = 0
    cfg = ModelConfig(**TINY)
    setattr(cfg, width, 0)  # past the config check, for the shapes a zero width gives
    arrays = {"normalizer.mean": np.zeros(4), "normalizer.std": np.ones(4),
              **{name: np.zeros(shape) for name, (_, shape) in param_layout(cfg).items()}}
    header["arrays"] = [[name, list(a.shape)] for name, a in arrays.items()]
    _write(path, header, arrays)
    with pytest.raises(ModelFormatError, match="invalid model config"):
        load_model(path)


@pytest.mark.parametrize("section, name, value", [
    ("normalizer", "mean", np.nan),
    ("normalizer", "std", np.inf),
    ("params", "dense3_w", -np.inf),
])
def test_load_rejects_non_finite_values(tmp_path, section, name, value):
    path = tmp_path / "model.json"
    header, arrays = _saved(path)
    name = f"normalizer.{name}" if section == "normalizer" else name
    arrays[name][0] = value
    _write(path, header, arrays)
    with pytest.raises(ModelFormatError, match=rf"{name}: non-finite"):
        load_model(path)


def _transposed_dense3_w(header):
    header["arrays"] = [[k, shape[::-1] if k == "dense3_w" else shape]
                        for k, shape in header["arrays"]]
    return _header_bytes(header)


def _one_array_short(header):
    header["arrays"] = header["arrays"][:-1]
    return _header_bytes(header)


def _first_std_negative(body):
    # the payload opens with normalizer.mean, then normalizer.std: 4 values each
    return body[:32] + np.array([-1.0], dtype="<f8").tobytes() + body[40:]


@pytest.mark.parametrize("corrupt, message", [
    (lambda header, body: _header_bytes(header) + b"\n" + body[:-1],
     "array dense3_b: the payload ends early"),
    (lambda header, body: _header_bytes(header) + b"\n" + body + bytes(8),
     "bytes after the last listed array"),
    (lambda header, body: _header_bytes(header) + body, "unreadable model header"),
    (lambda header, body: _transposed_dense3_w(header) + b"\n" + body,
     "array dense3_w: stored"),
    (lambda header, body: b"[1,2]\n" + body, "is not a model file"),
    (lambda header, body: _header_bytes(header), "no one-line header followed by a newline"),
    (lambda header, body: _one_array_short(header) + b"\n" + body,
     "does not list the 19 arrays"),
    (lambda header, body: _header_bytes(header) + b"\n" + _first_std_negative(body),
     "normalizer std must be positive"),
], ids=["one-byte-short", "eight-bytes-extra", "no-newline-after-header",
        "header-shape-disagrees-with-config", "json-but-not-a-model",
        "header-only-without-newline", "arrays-list-one-short", "std-not-positive"])
def test_load_rejects_corrupt_payload(tmp_path, corrupt, message):
    path = tmp_path / "model.json"
    header, arrays = _saved(path)
    assert header["arrays"][-2] == ["dense3_w", [2, 4]]  # not square, so a transpose shows
    path.write_bytes(corrupt(header, _payload(arrays)))
    with pytest.raises(ModelFormatError, match=message):
        load_model(path)


EDGE_FLOATS = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1]
TINY_VALUES = param_count(ModelConfig(**TINY)) + 4  # every parameter, then the mean


def _filled_model(values):
    model = tiny_model()
    values = np.asarray(values, dtype=float)
    for name, (s, shape) in param_layout(model.config).items():
        model.params[name] = values[s].reshape(shape)
    model.normalizer = Normalizer(values[param_count(model.config):], np.ones(4))
    return model


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=TINY_VALUES, max_size=TINY_VALUES))
@example(list(np.resize(EDGE_FLOATS, TINY_VALUES)))
@settings(max_examples=50, deadline=None)
def test_any_finite_float64_round_trips_bit_exactly(values):
    model = _filled_model(values)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(model, path)
        back = load_model(path)
    pairs = [(model.params[k], back.params[k]) for k in model.params]
    pairs.append((model.normalizer.mean, back.normalizer.mean))
    for want, got in pairs:
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_save_load_save_is_byte_identical(tmp_path, rng):
    norm = Normalizer(rng.normal(size=4), rng.uniform(0.5, 2.0, 4))
    model = _filled_model(np.resize(EDGE_FLOATS, TINY_VALUES))
    model.normalizer = norm
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    save_model(model, first)
    save_model(load_model(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_loaded_arrays_are_writeable_and_own_their_data(tmp_path):
    path = tmp_path / "model.json"
    save_model(tiny_model(), path)
    back = load_model(path)
    arrays = list(back.params.values()) + [back.normalizer.mean, back.normalizer.std]
    for arr in arrays:
        assert arr.dtype == np.float64
        assert arr.flags.writeable and arr.flags.owndata and arr.flags.c_contiguous
    back.params["conv_w"][0, 0, 0] += 1.0


def test_mismatched_config_rejects_wrong_window(tmp_path, rng):
    model = tiny_model()
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    with pytest.raises(ValueError, match=r"expected windows of shape \(B, 4, 3\)"):
        forecast_next(back, rng.normal(size=(6, 3)))
