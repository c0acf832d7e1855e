"""Model assembly: the hybrid two-branch forecaster and the RNN-only
baseline, parameter initialization and accounting, and model persistence.

Architecture (hybrid): both branches read the full 2n x r window of
normalized states. The convolutional branch (conv -> relu -> maxpool ->
flatten -> dense relu -> dense linear) emits the n voltage magnitudes;
the stacked recurrent branch (L recurrent layers -> dense linear) emits
the n phase angles. The RNN-only baseline is the same recurrent stack
followed by a single linear head with 2n outputs.

Model files are self-describing JSON with every float serialized via
float.hex(), so save/load round trips are bit-exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from . import layers
from .data_pipeline import Normalizer, atomic_write

MODEL_FORMAT_VERSION = "gridcast-model-v1"

HYBRID = "hybrid"
RNN_ONLY = "rnn-only"


class ModelFormatError(ValueError):
    """Base class for model-file problems."""


class ModelVersionError(ModelFormatError):
    pass


class ModelParseError(ModelFormatError):
    pass


class ModelShapeError(ModelFormatError):
    pass


@dataclass
class ModelConfig:
    n_buses: int
    lag_r: int = 10
    kind: str = HYBRID
    conv_filters: int = None
    kernel: int = 2
    pool: int = 2
    dense1_width: int = None
    rnn_layers: int = 3
    rnn_hidden: int = None
    dense1_bias: bool = True

    def __post_init__(self):
        if self.conv_filters is None:
            self.conv_filters = self.n_buses
        if self.dense1_width is None:
            self.dense1_width = 2 * self.n_buses
        if self.rnn_hidden is None:
            self.rnn_hidden = 2 * self.n_buses
        if self.n_buses < 1 or self.lag_r < 2 or self.rnn_layers < 1 or self.conv_filters < 1:
            raise ValueError(f"invalid model config: {self}")
        if self.kind not in (HYBRID, RNN_ONLY):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.lag_r - self.kernel + 1 < self.pool:
            raise ValueError(
                f"lag {self.lag_r} too short for kernel {self.kernel} + pool {self.pool}")

    @property
    def n_features(self):
        return 2 * self.n_buses

    @property
    def conv_positions(self):
        return self.lag_r - self.kernel + 1

    @property
    def pooled_positions(self):
        return self.conv_positions // self.pool

    @property
    def flat_width(self):
        return self.conv_filters * self.pooled_positions


def _param_shapes(cfg: ModelConfig):
    """Ordered (name, shape) pairs; this order is the flat serialization
    order and the weight draw order at init."""
    d = cfg.n_features
    shapes = []
    if cfg.kind == HYBRID:
        shapes += [
            ("conv_w", (cfg.conv_filters, d, cfg.kernel)),
            ("conv_b", (cfg.conv_filters,)),
            ("dense1_w", (cfg.dense1_width, cfg.flat_width)),
        ]
        if cfg.dense1_bias:
            shapes.append(("dense1_b", (cfg.dense1_width,)))
        shapes += [
            ("dense2_w", (cfg.n_buses, cfg.dense1_width)),
            ("dense2_b", (cfg.n_buses,)),
        ]
    in_dim = d
    for l in range(cfg.rnn_layers):
        h = cfg.rnn_hidden
        shapes += [
            (f"rnn{l}_wx", (h, in_dim)),
            (f"rnn{l}_wh", (h, h)),
            (f"rnn{l}_b", (h,)),
        ]
        in_dim = h
    head = cfg.n_buses if cfg.kind == HYBRID else d
    shapes += [
        ("dense3_w", (head, cfg.rnn_hidden)),
        ("dense3_b", (head,)),
    ]
    return shapes


def cnn_branch_param_names(cfg: ModelConfig):
    return [n for n, _ in _param_shapes(cfg)
            if n.startswith(("conv_", "dense1_", "dense2_"))]


def rnn_branch_param_names(cfg: ModelConfig):
    return [n for n, _ in _param_shapes(cfg)
            if n.startswith(("rnn", "dense3_"))]


def param_count(cfg: ModelConfig) -> int:
    return sum(int(np.prod(shape)) for _, shape in _param_shapes(cfg))


@dataclass
class ForecastModel:
    config: ModelConfig
    params: dict
    normalizer: Normalizer


def _init_bound(name, shape, cfg):
    if name == "conv_w":
        fan_in = cfg.n_features * cfg.kernel
        fan_out = cfg.conv_filters * cfg.kernel
    else:
        fan_out, fan_in = shape
    return np.sqrt(6.0 / (fan_in + fan_out))


def init_model(cfg: ModelConfig, seed, normalizer=None) -> ForecastModel:
    """Scaled-uniform weights (bound sqrt(6/(fan_in+fan_out))), zero biases;
    deterministic given the seed."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in _param_shapes(cfg):
        if len(shape) == 1:
            params[name] = np.zeros(shape)
        else:
            bound = _init_bound(name, shape, cfg)
            params[name] = rng.uniform(-bound, bound, shape)
    if normalizer is None:
        normalizer = Normalizer.identity(cfg.n_features)
    return ForecastModel(cfg, params, normalizer)


# ---------------------------------------------------------------------------
# forward / backward through the whole model (batched, normalized units)
# ---------------------------------------------------------------------------

def _check_window_batch(cfg, x):
    x = np.asarray(x, dtype=float)
    if x.ndim != 3 or x.shape[1] != cfg.n_features or x.shape[2] != cfg.lag_r:
        raise layers.ShapeError(
            f"expected windows of shape (B, {cfg.n_features}, {cfg.lag_r}), got {x.shape}")
    return x


def _rnn_layer_params(cfg, params):
    return [(params[f"rnn{l}_wx"], params[f"rnn{l}_wh"], params[f"rnn{l}_b"])
            for l in range(cfg.rnn_layers)]


def model_forward(model: ForecastModel, x):
    """x: normalized windows (B, 2n, r) -> predictions (B, 2n), cache.

    Output layout: first n entries magnitudes, last n angles (both kinds).
    """
    cfg, p = model.config, model.params
    x = _check_window_batch(cfg, x)
    cache = {}
    top, cache["rnn"] = layers.stacked_rnn_forward(x, _rnn_layer_params(cfg, p))
    out, cache["dense3"] = layers.dense_forward(top, p["dense3_w"], p["dense3_b"])
    if cfg.kind == HYBRID:
        conv, cache["conv"] = layers.conv1d_forward(x, p["conv_w"], p["conv_b"])
        pooled, cache["pool"] = layers.maxpool_forward(conv, cfg.pool)
        flat, cache["flatten"] = layers.flatten_forward(pooled)
        d1, cache["dense1"] = layers.dense_forward(
            flat, p["dense1_w"], p.get("dense1_b"), activation="relu")
        vm, cache["dense2"] = layers.dense_forward(d1, p["dense2_w"], p["dense2_b"])
        out = np.concatenate([vm, out], axis=1)
    return out, cache


def model_backward(model: ForecastModel, cache, d_out):
    """Gradients of a scalar loss w.r.t. every parameter, given d_out =
    dLoss/dPredictions (B, 2n). Returns a dict shaped like params."""
    cfg = model.config
    n = cfg.n_buses
    grads = {}
    d_head = d_out[:, n:] if cfg.kind == HYBRID else d_out
    (grads["dense3_w"], grads["dense3_b"]), d_top = layers.dense_backward(cache["dense3"], d_head)
    rnn_grads, _ = layers.stacked_rnn_backward(cache["rnn"], d_top)
    if cfg.kind == HYBRID:
        (dw2, db2), d_d1 = layers.dense_backward(cache["dense2"], d_out[:, :n])
        (dw1, db1), d_flat = layers.dense_backward(cache["dense1"], d_d1)
        d_pooled = layers.flatten_backward(cache["flatten"], d_flat)
        d_conv = layers.maxpool_backward(cache["pool"], d_pooled)
        (dcw, dcb), _ = layers.conv1d_backward(cache["conv"], d_conv)
        grads.update(conv_w=dcw, conv_b=dcb, dense1_w=dw1, dense2_w=dw2, dense2_b=db2)
        if cfg.dense1_bias:
            grads["dense1_b"] = db1
    for l, (dwx, dwh, db) in enumerate(rnn_grads):
        grads[f"rnn{l}_wx"] = dwx
        grads[f"rnn{l}_wh"] = dwh
        grads[f"rnn{l}_b"] = db
    return grads


# ---------------------------------------------------------------------------
# branch views and forecasts (normalized units for branches, physical for
# forecasts); every path runs model_forward
# ---------------------------------------------------------------------------

def cnn_branch_forward(model: ForecastModel, window):
    """Normalized (2n, r) window -> n magnitude predictions (normalized)."""
    if model.config.kind != HYBRID:
        raise ValueError("model has no convolutional branch")
    out, _ = model_forward(model, np.asarray(window, dtype=float)[None])
    return out[0, :model.config.n_buses]


def rnn_branch_forward(model: ForecastModel, window):
    """Normalized (2n, r) window -> the recurrent head's output (normalized):
    the n angles of a hybrid model, all 2n states of an RNN-only one."""
    out, _ = model_forward(model, np.asarray(window, dtype=float)[None])
    return out[0, model.config.n_buses:] if model.config.kind == HYBRID else out[0]


def forecast_next(model: ForecastModel, window):
    """Raw (physical-unit) (2n, r) window -> 2n next-state forecast in
    physical units, magnitudes first."""
    window = np.asarray(window, dtype=float)
    cfg = model.config
    if window.shape != (cfg.n_features, cfg.lag_r):
        raise layers.ShapeError(
            f"expected a ({cfg.n_features}, {cfg.lag_r}) window, got {window.shape}")
    return forecast_batch(model, window[None])[0]


def forecast_batch(model: ForecastModel, windows):
    """Raw (B, 2n, r) windows -> (B, 2n) forecasts in physical units."""
    windows = _check_window_batch(model.config, windows)
    if not np.isfinite(windows).all():
        raise ValueError("windows contain non-finite values")
    pred, _ = model_forward(model, model.normalizer.apply_window(windows))
    return model.normalizer.invert(pred)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def _hex_list(arr):
    return [float(v).hex() for v in np.asarray(arr, dtype=float).ravel()]


def _from_hex(data, shape):
    values = np.array([float.fromhex(h) for h in data], dtype=float).reshape(shape)
    if not np.isfinite(values).all():
        raise ValueError("non-finite value")
    return values


def save_model(model: ForecastModel, path):
    cfg = model.config
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "config": asdict(cfg),
        "normalizer": {
            "mean": _hex_list(model.normalizer.mean),
            "std": _hex_list(model.normalizer.std),
            "constant_mask": [bool(b) for b in model.normalizer.constant_mask],
        },
        "params": {
            name: {"shape": list(shape), "data": _hex_list(model.params[name])}
            for name, shape in _param_shapes(cfg)
        },
    }
    # streamed: json.dumps would hold the whole text of a large model in memory
    with atomic_write(path) as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_model(path) -> ForecastModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelParseError(f"unreadable model file {path}: {exc}") from None
    if not isinstance(doc, dict) or "format_version" not in doc:
        raise ModelParseError(f"{path} is not a model file")
    if doc["format_version"] != MODEL_FORMAT_VERSION:
        raise ModelVersionError(
            f"unsupported model format {doc['format_version']!r}, "
            f"expected {MODEL_FORMAT_VERSION!r}")
    try:
        cfg = ModelConfig(**doc["config"])
        norm = Normalizer(
            _from_hex(doc["normalizer"]["mean"], (-1,)),
            _from_hex(doc["normalizer"]["std"], (-1,)),
            np.array(doc["normalizer"]["constant_mask"], dtype=bool),
        )
        params = {}
        for name, shape in _param_shapes(cfg):
            entry = doc["params"][name]
            if tuple(entry["shape"]) != shape:
                raise ModelShapeError(
                    f"parameter {name}: stored shape {entry['shape']} != expected {list(shape)}")
            if len(entry["data"]) != int(np.prod(shape)):
                raise ModelShapeError(
                    f"parameter {name}: {len(entry['data'])} values for shape {list(shape)}")
            params[name] = _from_hex(entry["data"], shape)
    except ModelFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelParseError(f"malformed model file {path}: {exc}") from None
    if norm.mean.shape[0] != cfg.n_features:
        raise ModelShapeError(
            f"normalizer width {norm.mean.shape[0]} != {cfg.n_features} features")
    return ForecastModel(cfg, params, norm)
