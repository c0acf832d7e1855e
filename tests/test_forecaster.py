import base64
import json
import tempfile
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridcast import layers
from gridcast.data_pipeline import Normalizer
from gridcast.forecaster import (HYBRID, RNN_ONLY, ForecastModel, ModelConfig,
                                 ModelFormatError, ModelParseError,
                                 ModelShapeError, ModelVersionError,
                                 _param_shapes, cnn_branch_forward,
                                 cnn_branch_param_names, forecast_batch,
                                 forecast_next, init_model, load_model, model_forward,
                                 param_count, rnn_branch_forward,
                                 rnn_branch_param_names, save_model)

from conftest import rnn_cell_step

TINY = dict(n_buses=2, lag_r=3, conv_filters=2, rnn_hidden=4)


def tiny_model(seed=0, **overrides):
    cfg = ModelConfig(**{**TINY, **overrides})
    return init_model(cfg, seed)


# ---------------------------------------------------------------------------
# config / parameter accounting
# ---------------------------------------------------------------------------

def test_default_widths_follow_bus_count():
    cfg = ModelConfig(n_buses=118)
    assert cfg.conv_filters == 118
    assert cfg.dense1_width == 236
    assert cfg.rnn_hidden == 236
    assert cfg.rnn_layers == 3
    assert (cfg.conv_positions, cfg.pooled_positions, cfg.flat_width) == (9, 4, 472)


def test_param_count_default_conv_total():
    cfg = ModelConfig(n_buses=118)
    conv = 118 * (236 * 2 + 1)
    assert conv == 55814
    model = init_model(cfg, 0)
    assert model.params["conv_w"].size + model.params["conv_b"].size == conv
    dense2 = model.params["dense2_w"].size + model.params["dense2_b"].size
    assert dense2 == 118 * 236 + 118


def test_param_count_hand_tiny():
    cfg = ModelConfig(n_buses=1, lag_r=2, conv_filters=1, pool=1)
    shapes = dict(_param_shapes(cfg))
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
            dense1_bias=bool(rng.integers(0, 2)),
            kind=HYBRID if rng.integers(0, 2) else RNN_ONLY,
        )
        model = init_model(cfg, int(rng.integers(0, 1000)))
        assert param_count(cfg) == sum(p.size for p in model.params.values())


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
    model = init_model(cfg, 1)
    for name, shape in _param_shapes(cfg):
        p = model.params[name]
        if len(shape) == 1:
            npt.assert_array_equal(p, np.zeros(shape))
        elif name == "conv_w":
            bound = np.sqrt(6.0 / (6 * 2 + cfg.conv_filters * 2))
            assert np.abs(p).max() <= bound
        else:
            bound = np.sqrt(6.0 / (shape[0] + shape[1]))
            assert np.abs(p).max() <= bound


# ---------------------------------------------------------------------------
# branch forwards
# ---------------------------------------------------------------------------

def test_branch_output_widths_reference_scale():
    cfg = ModelConfig(n_buses=118)
    model = init_model(cfg, 0)
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
    pooled, _ = layers.maxpool_forward(conv, 2)
    flat, _ = layers.flatten_forward(pooled)
    d1, _ = layers.dense_forward(flat, p["dense1_w"], p["dense1_b"], "relu")
    d2, _ = layers.dense_forward(d1, p["dense2_w"], p["dense2_b"])
    npt.assert_array_equal(out, d2[0])


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
    vm = cnn_branch_forward(model, norm.apply_window(window))
    va = rnn_branch_forward(model, norm.apply_window(window))
    npt.assert_allclose(out, norm.invert(np.concatenate([vm, va])), atol=1e-12)


@given(st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_forecast_batch_matches_stacked_forecast_next(n, seed):
    # every batch size 1..3n, so B == 2n (a square (B, 2n) prediction
    # batch) is always among them
    rng = np.random.default_rng(seed)
    norm = Normalizer(rng.normal(scale=10.0, size=2 * n), rng.uniform(0.5, 3.0, 2 * n))
    cfg = ModelConfig(n_buses=n, lag_r=3, conv_filters=2, rnn_hidden=4)
    model = init_model(cfg, seed, norm)
    windows = norm.mean[:, None] + norm.std[:, None] * rng.normal(size=(3 * n, 2 * n, 3))
    for b in range(1, 3 * n + 1):
        batch = forecast_batch(model, windows[:b])
        single = np.stack([forecast_next(model, w) for w in windows[:b]])
        assert np.max(np.abs(batch - single)) <= 1e-12 * np.max(np.abs(single)), b


def test_forecast_rejects_bad_windows(rng):
    model = tiny_model()
    with pytest.raises(layers.ShapeError):
        forecast_next(model, rng.normal(size=(4, 5)))
    bad = rng.normal(size=(4, 3))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        forecast_next(model, bad)


def test_branch_independence(rng):
    model = tiny_model(8)
    window = rng.normal(size=(4, 3))
    base = forecast_next(model, window)
    for name in cnn_branch_param_names(model.config):
        perturbed = ForecastModel(model.config,
                                  {k: p.copy() for k, p in model.params.items()},
                                  model.normalizer)
        perturbed.params[name] = perturbed.params[name] + 0.37
        out = forecast_next(perturbed, window)
        npt.assert_array_equal(out[2:], base[2:])  # angle half untouched
    for name in rnn_branch_param_names(model.config):
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
    norm = Normalizer(rng.normal(size=4), rng.uniform(0.5, 2.0, 4),
                      np.array([False, True, False, False]))
    model = init_model(ModelConfig(**TINY), 9, norm)
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert back.config == model.config
    for k in model.params:
        npt.assert_array_equal(back.params[k], model.params[k])
    npt.assert_array_equal(back.normalizer.mean, norm.mean)
    npt.assert_array_equal(back.normalizer.std, norm.std)
    npt.assert_array_equal(back.normalizer.constant_mask, norm.constant_mask)
    window = rng.normal(size=(4, 3))
    npt.assert_array_equal(forecast_next(back, window), forecast_next(model, window))


def test_load_corrupt_header(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    with pytest.raises(ModelParseError):
        load_model(path)


def _floats(payload):
    """A model file's base64 payload as float64 values, decoded independently
    of the loader."""
    return np.frombuffer(base64.b64decode(payload), dtype="<f8").copy()


def _payload(values):
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def _hexes(payload):
    """A base64 payload in the gridcast-model-v1 layout: one float.hex() per value."""
    return [float(v).hex() for v in _floats(payload)]


def _saved_doc(path):
    save_model(tiny_model(), path)
    return json.loads(path.read_text())


def _as_v1(doc):
    doc["format_version"] = "gridcast-model-v1"
    for key in ("mean", "std"):
        doc["normalizer"][key] = _hexes(doc["normalizer"][key])
    for entry in doc["params"].values():
        entry["data"] = _hexes(entry["data"])
    return doc


def test_load_version_mismatch(tmp_path):
    v0 = tmp_path / "v0.json"
    v0.write_text('{"format_version": "gridcast-model-v0"}')
    v1 = tmp_path / "v1.json"
    v1.write_text(json.dumps(_as_v1(_saved_doc(v1))))
    for path, version in ((v0, "v0"), (v1, "v1")):
        with pytest.raises(ModelVersionError, match=rf"gridcast-model-{version}.*re-train"):
            load_model(path)


def test_load_shape_inconsistency(tmp_path):
    path = tmp_path / "model.json"
    doc = _saved_doc(path)
    entry = doc["params"]["conv_b"]
    entry["data"] = _payload(np.append(_floats(entry["data"]), 0.0))  # 8 bytes too many
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelShapeError):
        load_model(path)


@pytest.mark.parametrize("name, width", [("mean", 3), ("mean", 5), ("std", 1), ("std", 8),
                                         ("constant_mask", 7), ("constant_mask", 1)])
def test_load_rejects_wrong_normalizer_length(tmp_path, name, width):
    # tiny model: 4 features; numpy would broadcast a length-1 std silently
    path = tmp_path / "model.json"
    doc = _saved_doc(path)
    doc["normalizer"][name] = ([False] * width if name == "constant_mask"
                               else _payload(np.ones(width)))
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelShapeError, match=name):
        load_model(path)


@pytest.mark.parametrize("mask, message", [
    (["no", 0, "false", None], r"constant_mask\[0\]: 'no' is not true or false"),
    ([1, 0, 1, 0], r"constant_mask\[0\]: 1 is not true or false"),
    ([True, False, None, False], r"constant_mask\[2\]: None"),
    ("true", "constant_mask: expected a list"),
], ids=["strings-and-null", "integers", "null-entry", "not-a-list"])
def test_load_rejects_non_boolean_constant_mask(tmp_path, mask, message):
    path = tmp_path / "model.json"
    doc = _saved_doc(path)
    doc["normalizer"]["constant_mask"] = mask
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelParseError, match=message):
        load_model(path)


@pytest.mark.parametrize("section, name, value", [
    ("normalizer", "mean", np.nan),
    ("normalizer", "std", np.inf),
    ("params", "dense3_w", -np.inf),
])
def test_load_rejects_non_finite_values(tmp_path, section, name, value):
    path = tmp_path / "model.json"
    doc = _saved_doc(path)
    entry, key = (doc[section], name) if section == "normalizer" else (doc[section][name], "data")
    values = _floats(entry[key])
    values[0] = value
    entry[key] = _payload(values)
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelParseError, match="non-finite"):
        load_model(path)


@pytest.mark.parametrize("corrupt", [
    lambda p: "!" + p[1:],                 # outside the base64 alphabet
    lambda p: p[:-1],                      # broken padding
    lambda p: p[:8] + "\n" + p[8:],        # whitespace is not skipped
    _hexes,                                # a v1 hex list
])
def test_load_rejects_invalid_base64(tmp_path, corrupt):
    path = tmp_path / "model.json"
    doc = _saved_doc(path)
    doc["params"]["conv_b"]["data"] = corrupt(doc["params"]["conv_b"]["data"])
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelParseError):
        load_model(path)


EDGE_FLOATS = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1]
TINY_VALUES = param_count(ModelConfig(**TINY)) + 4  # every parameter, then the mean


def _filled_model(values):
    model = tiny_model()
    values = np.asarray(values, dtype=float)
    offset = 0
    for name, shape in _param_shapes(model.config):
        size = int(np.prod(shape))
        model.params[name] = values[offset:offset + size].reshape(shape)
        offset += size
    model.normalizer = Normalizer(values[offset:], np.ones(4))
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
    norm = Normalizer(rng.normal(size=4), rng.uniform(0.5, 2.0, 4),
                      np.array([True, False, False, True]))
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
    with pytest.raises(layers.ShapeError):
        forecast_next(back, rng.normal(size=(6, 3)))


def test_error_hierarchy():
    assert issubclass(ModelVersionError, ModelFormatError)
    assert issubclass(ModelParseError, ModelFormatError)
    assert issubclass(ModelShapeError, ModelFormatError)
