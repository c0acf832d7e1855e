"""Model assembly: the hybrid two-branch forecaster and the RNN-only
baseline, parameter initialization and layout, and model persistence.

Architecture (hybrid): both branches read the full 2n x r window of
states, which `model_forward` takes in physical units and z-scores first,
the one place windows are normalized. The convolutional branch (conv ->
relu -> maxpool -> flatten -> dense relu -> dense linear) emits the n
voltage magnitudes; the stacked recurrent branch (L recurrent layers ->
dense linear) emits the n phase angles. The RNN-only baseline is the same
recurrent stack followed by a single linear head with 2n outputs. The CNN
branch is the paper's fixed design: conv kernel KERNEL = 2, max pool POOL
= 2, and every dense layer has a bias.

The flatten is map-major: the pooled (B, K, q) maps become (B, K*q) rows
holding all q positions of feature map 0, then of map 1, ... So column
k*q + j of dense1_w reads map k at pooled position j, in memory and in
model files alike.

Model files (gridcast-model-v4) are a one-line UTF-8 JSON header, one
newline, and a raw payload, after NumPy's .npy layout. The header holds
format_version, config and `arrays`, a list of [name, shape] pairs:
normalizer.mean, normalizer.std, then the parameters in param_layout
order. The payload is the C-ordered little-endian float64 bytes of those
arrays, concatenated in header order with nothing after them, so
save/load round trips are bit-exact. Loading checks the version, that
every listed name and shape is the expected one, that the payload is
exactly 8 bytes per listed element, and that every value is finite. Each
failure is a ModelFormatError whose message names the check. Only the
first line is parsed: older files fail, a v3 file by its version and a
v1/v2 file (indented JSON, first line "{") as unreadable: re-train.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from . import layers
from .data_pipeline import Normalizer, atomic_write

MODEL_FORMAT_VERSION = "gridcast-model-v4"
KERNEL = 2  # conv width: adjacent column pairs
POOL = 2  # max-pool width and stride
# windows per inference forward; at 14 buses chunks of >= 64 keep the whole
# batch's bits, at 118 buses no chunk size does (~1e-15 relative)
FORWARD_CHUNK = 256

HYBRID = "hybrid"
RNN_ONLY = "rnn-only"


class ModelFormatError(ValueError):
    """A model file that cannot be loaded; the message says why."""


@dataclass
class ModelConfig:
    n_buses: int
    lag_r: int = 10
    kind: str = HYBRID
    conv_filters: int = None
    dense1_width: int = None
    rnn_layers: int = 3
    rnn_hidden: int = None

    def __post_init__(self):
        if self.conv_filters is None:
            self.conv_filters = self.n_buses
        if self.dense1_width is None:
            self.dense1_width = 2 * self.n_buses
        if self.rnn_hidden is None:
            self.rnn_hidden = 2 * self.n_buses
        if self.lag_r - KERNEL + 1 < POOL:
            raise ValueError(f"lag {self.lag_r} too short for kernel {KERNEL} + pool {POOL}")
        if min(self.n_buses, self.conv_filters, self.dense1_width, self.rnn_layers,
               self.rnn_hidden) < 1:
            raise ValueError(f"invalid model config: {self}")
        if self.kind not in (HYBRID, RNN_ONLY):
            raise ValueError(f"unknown model kind {self.kind!r}")

    @property
    def n_features(self):
        return 2 * self.n_buses

    @property
    def flat_width(self):
        """K*q: conv_filters maps of q pooled positions each."""
        return self.conv_filters * ((self.lag_r - KERNEL + 1) // POOL)


def param_layout(cfg: ModelConfig):
    """{name: (slice, shape)} in the one parameter order: the weight draw
    order at init, the flat parameter vector (the C-ordered parameters
    concatenated, each at its slice) and the model-file payload order."""
    d, h = cfg.n_features, cfg.rnn_hidden
    shapes = []
    if cfg.kind == HYBRID:
        shapes += [("conv_w", (cfg.conv_filters, d, KERNEL)), ("conv_b", (cfg.conv_filters,)),
                   ("dense1_w", (cfg.dense1_width, cfg.flat_width)),
                   ("dense1_b", (cfg.dense1_width,)),
                   ("dense2_w", (cfg.n_buses, cfg.dense1_width)), ("dense2_b", (cfg.n_buses,))]
    for l in range(cfg.rnn_layers):
        shapes += [(f"rnn{l}_wx", (h, h if l else d)), (f"rnn{l}_wh", (h, h)), (f"rnn{l}_b", (h,))]
    head = cfg.n_buses if cfg.kind == HYBRID else d
    shapes += [("dense3_w", (head, h)), ("dense3_b", (head,))]
    layout, offset = {}, 0
    for name, shape in shapes:
        size = int(np.prod(shape))
        layout[name] = (slice(offset, offset + size), shape)
        offset += size
    return layout


@dataclass
class ForecastModel:
    config: ModelConfig
    params: dict
    normalizer: Normalizer


def init_model(cfg: ModelConfig, seed, normalizer: Normalizer) -> ForecastModel:
    """Zero biases and Glorot-uniform weights, drawn in param_layout order
    from np.random.default_rng(seed): a weight of shape (out, in, *kernel)
    is U(-b, b) with b = sqrt(6 / ((out + in) * kernel size))."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, (_, shape) in param_layout(cfg).items():
        if len(shape) == 1:
            params[name] = np.zeros(shape)
        else:
            bound = np.sqrt(6.0 / ((shape[0] + shape[1]) * math.prod(shape[2:])))
            params[name] = rng.uniform(-bound, bound, shape)
    return ForecastModel(cfg, params, normalizer)


# ---------------------------------------------------------------------------
# forward / backward through the whole model (batched; z-scored predictions)
# ---------------------------------------------------------------------------

def _check_window_batch(cfg, x):
    """x as float64 (B >= 1, 2n, r) windows; checked where windows enter: forecast_batch, train."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 3 or x.shape[0] < 1 or x.shape[1:] != (cfg.n_features, cfg.lag_r):
        raise ValueError(f"expected windows of shape (B, {cfg.n_features}, {cfg.lag_r}), "
                         f"got {x.shape}; B must be >= 1")
    return x


def model_forward(model: ForecastModel, x):
    """x: physical-unit windows (B, 2n, r), z-scored on their (B, r, 2n) view
    -> z-scored predictions (B, 2n), first n magnitudes, last n angles; cache."""
    cfg, p = model.config, model.params
    cache = {}
    x = model.normalizer.apply(np.swapaxes(x, 1, 2)).swapaxes(1, 2)
    rnn = [(p[f"rnn{l}_wx"], p[f"rnn{l}_wh"], p[f"rnn{l}_b"]) for l in range(cfg.rnn_layers)]
    top, cache["rnn"] = layers.stacked_rnn_forward(x, rnn)
    out, cache["dense3"] = layers.dense_forward(top, p["dense3_w"], p["dense3_b"])
    if cfg.kind == HYBRID:
        conv, cache["conv"] = layers.conv1d_forward(x, p["conv_w"], p["conv_b"])
        pooled, cache["pool"] = layers.maxpool_forward(conv)
        d1, cache["dense1"] = layers.dense_forward(  # map-major flatten
            pooled.reshape(len(pooled), -1), p["dense1_w"], p["dense1_b"], relu=True)
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
    rnn_grads = layers.stacked_rnn_backward(cache["rnn"], d_top)
    if cfg.kind == HYBRID:
        (dw2, db2), d_d1 = layers.dense_backward(cache["dense2"], d_out[:, :n])
        (dw1, db1), d_flat = layers.dense_backward(cache["dense1"], d_d1)
        d_conv = layers.maxpool_backward(
            cache["pool"], d_flat.reshape(len(d_flat), cfg.conv_filters, -1))
        dcw, dcb = layers.conv1d_backward(cache["conv"], d_conv)
        grads.update(conv_w=dcw, conv_b=dcb, dense1_w=dw1, dense1_b=db1,
                     dense2_w=dw2, dense2_b=db2)
    for l, (dwx, dwh, db) in enumerate(rnn_grads):
        grads[f"rnn{l}_wx"] = dwx
        grads[f"rnn{l}_wh"] = dwh
        grads[f"rnn{l}_b"] = db
    return grads


def predict(model: ForecastModel, x):
    """model_forward's z-scored predictions (B, 2n) for physical-unit windows
    x (B, 2n, r), run FORWARD_CHUNK windows at a time, so only one chunk's
    z-scored copy and layer caches are alive at once."""
    return np.concatenate([model_forward(model, x[lo:lo + FORWARD_CHUNK])[0]
                           for lo in range(0, len(x), FORWARD_CHUNK)])


# ---------------------------------------------------------------------------
# forecasts (physical units); every path runs model_forward
# ---------------------------------------------------------------------------

def forecast_next(model: ForecastModel, window):
    """Raw (physical-unit) (2n, r) window -> 2n next-state forecast in
    physical units, magnitudes first."""
    return forecast_batch(model, np.asarray(window, dtype=float)[None])[0]


def forecast_batch(model: ForecastModel, windows):
    """Raw (B, 2n, r) windows -> (B, 2n) forecasts in physical units. A
    floating-point overflow on the way is a ValueError, never a warning."""
    windows = _check_window_batch(model.config, windows)
    if not np.isfinite(windows).all():
        raise ValueError("windows contain non-finite values")
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return model.normalizer.invert(predict(model, windows))
    except FloatingPointError as exc:  # an ArithmeticError, not a ValueError
        raise ValueError(f"the forecast overflows float64: {exc}") from None


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def _file_arrays(cfg: ModelConfig):
    """(name, shape) of each array in a model file's payload, in file order:
    the normalizer's mean and std, then the parameters."""
    width = (cfg.n_features,)
    return [("normalizer.mean", width), ("normalizer.std", width)] + [
        (name, shape) for name, (_, shape) in param_layout(cfg).items()]


def save_model(model: ForecastModel, path):
    cfg = model.config
    arrays = {"normalizer.mean": model.normalizer.mean,
              "normalizer.std": model.normalizer.std, **model.params}
    order = [name for name, _ in _file_arrays(cfg)]
    header = {
        "format_version": MODEL_FORMAT_VERSION,
        "config": asdict(cfg),
        "arrays": [[name, list(np.shape(arrays[name]))] for name in order],
    }
    with atomic_write(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        for name in order:
            fh.write(np.ascontiguousarray(arrays[name], dtype="<f8"))


def load_model(path) -> ForecastModel:
    with open(path, "rb") as fh:
        line = fh.readline()
        try:
            header = json.loads(line)
        except ValueError as exc:
            raise ModelFormatError(f"unreadable model header in {path} ({exc}): an older "
                                   "model file needs a re-train") from None
        if not isinstance(header, dict) or "format_version" not in header:
            raise ModelFormatError(f"{path} is not a model file")
        if header["format_version"] != MODEL_FORMAT_VERSION:
            raise ModelFormatError(
                f"unsupported model format {header['format_version']!r}, expected "
                f"{MODEL_FORMAT_VERSION!r}: re-train to write a {MODEL_FORMAT_VERSION} file")
        if not line.endswith(b"\n"):
            raise ModelFormatError(f"{path}: no one-line header followed by a newline")
        try:
            cfg = ModelConfig(**header["config"])
            expected = [[name, list(shape)] for name, shape in _file_arrays(cfg)]
            listed = header["arrays"]
            if not isinstance(listed, list) or len(listed) != len(expected):
                raise ModelFormatError(f"arrays: {listed!r} does not list the "
                                       f"{len(expected)} arrays {[n for n, _ in expected]}")
            for stored, want in zip(listed, expected):
                if stored != want:
                    raise ModelFormatError(
                        f"array {want[0]}: stored {stored!r} != expected {want!r}")
            arrays = {}
            for name, shape in expected:
                # read straight into each array's own buffer: no copy of the payload
                values = np.empty(shape, dtype="<f8")
                if fh.readinto(values) != values.nbytes:
                    raise ModelFormatError(f"array {name}: the payload ends early")
                if not np.isfinite(values).all():
                    raise ModelFormatError(f"array {name}: non-finite value")
                arrays[name] = values.astype(np.float64, copy=False)
            if fh.read(1):
                raise ModelFormatError("payload: bytes after the last listed array")
            norm = Normalizer(arrays.pop("normalizer.mean"), arrays.pop("normalizer.std"))
        except ModelFormatError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelFormatError(f"malformed model file {path}: {exc}") from None
    return ForecastModel(cfg, arrays, norm)
