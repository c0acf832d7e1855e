"""Dataset handling: CSV ingest, chronological split, lag windowing,
per-feature normalization, and a synthetic grid-state generator.

A state series stores, per time instance, n voltage magnitudes (p.u.)
followed by n phase angles (degrees) - a 2n-wide row. The CSV format is:

    t,vm_1,...,vm_n,va_1,...,va_n

one row per instance, decimal numbers, no missing or non-finite cells,
and t increasing by a uniform step.

Layouts are explicit: a batch of states is (..., 2n) and a batch of lag
windows is (..., 2n, r), features along rows and time along the last axis.

Synthetic series model (per bus i, time step t, all randomness seeded):

    vm_i(t) = base + A_i * sin(2*pi*t/period + phi_i) + eps_i(t)
    va_i(t) = off_i + core_i(t) + c * core_{(i-1) mod n}(t) + eps'_i(t)
    core_i(t) = B_i * sin(2*pi*t/period + psi_i)

where A_i, phi_i, off_i, B_i, psi_i are per-bus constants drawn from the
seed, c is the ring-coupling weight, and eps, eps' are Gaussian with the
configured standard deviations. With zero noise the series is exactly
periodic with the configured period.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass, field

import numpy as np


class DataFormatError(ValueError):
    """Raised for malformed dataset files; carries a 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass
class StateSeries:
    """T consecutive system states at uniform time steps.

    values has shape (T, 2n): magnitudes in columns 0..n-1, angles in
    columns n..2n-1.
    """

    n_buses: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[1] != 2 * self.n_buses:
            raise ValueError(
                f"expected (T, {2 * self.n_buses}) values, got {self.values.shape}")
        if not np.isfinite(self.values).all():
            raise ValueError("state series contains non-finite values")

    def __len__(self):
        return self.values.shape[0]

    def slice(self, start, stop):
        return StateSeries(self.n_buses, self.values[start:stop])


@dataclass
class Normalizer:
    """Per-feature z-scoring statistics, fitted on training data only.

    Features with zero variance get std forced to 1 and are flagged in
    constant_mask so reports can mention them.
    """

    mean: np.ndarray
    std: np.ndarray
    constant_mask: np.ndarray = field(default=None)

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.std = np.asarray(self.std, dtype=float)
        if self.constant_mask is None:
            self.constant_mask = np.zeros(self.mean.shape, dtype=bool)
        else:
            self.constant_mask = np.asarray(self.constant_mask, dtype=bool)
        if not (self.std > 0).all():
            raise ValueError("normalizer std must be positive")

    @classmethod
    def identity(cls, n_features):
        return cls(np.zeros(n_features), np.ones(n_features))

    def apply(self, states):
        """z-score states laid out (..., 2n)."""
        return (self._aligned(states) - self.mean) / self.std

    def invert(self, states):
        """Map z-scored states laid out (..., 2n) back to physical units."""
        return self._aligned(states) * self.std + self.mean

    def apply_window(self, windows):
        """z-score windows laid out (..., 2n, r): features along rows, time
        along the last axis. Elementwise ops keep the input's memory order,
        so a C-ordered batch of windows comes back C-ordered."""
        return self.apply(np.swapaxes(windows, -1, -2)).swapaxes(-1, -2)

    def _aligned(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim < 1 or x.shape[-1] != self.mean.shape[0]:
            raise ValueError(f"expected {self.mean.shape[0]} features on the last "
                             f"axis, got shape {x.shape}")
        return x


def fit_normalizer(train: StateSeries) -> Normalizer:
    if len(train) == 0:
        raise ValueError("cannot fit a normalizer on an empty series")
    mean = train.values.mean(axis=0)
    std = train.values.std(axis=0)
    constant = std == 0.0
    std = np.where(constant, 1.0, std)
    return Normalizer(mean, std, constant)


def chronological_split(series: StateSeries, train_fraction=0.8, min_len=2):
    """First floor(T * fraction) instances for training, rest for test.

    min_len guards both partitions; callers pass lag + 1 so every
    partition can produce at least one window.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    t = len(series)
    n_train = int(math.floor(t * train_fraction))
    n_test = t - n_train
    if n_train < min_len or n_test < min_len:
        raise ValueError(
            f"split {n_train}/{n_test} leaves a partition shorter than {min_len}")
    return series.slice(0, n_train), series.slice(n_train, t)


def build_windows(series: StateSeries, r):
    """Eq-style lag windowing: returns (X, Y) with X shape (T-r, 2n, r) and
    Y shape (T-r, 2n). Sample i's window holds states i..i+r-1 column-wise
    in chronological order; its target is state i+r."""
    t = len(series)
    if r < 1:
        raise ValueError(f"lag must be >= 1, got {r}")
    if t <= r:
        raise ValueError(f"series length {t} must exceed lag {r}")
    n_samples = t - r
    v = series.values
    x = np.stack([v[i:i + r].T for i in range(n_samples)], axis=0)
    y = v[r:].copy()
    return x, y


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------

def _expected_header(n):
    cols = ["t"]
    cols += [f"vm_{i + 1}" for i in range(n)]
    cols += [f"va_{i + 1}" for i in range(n)]
    return cols


def load_series(path) -> StateSeries:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DataFormatError("empty file", line=1)
    header = lines[0].split(",")
    if not header or header[0].strip() != "t":
        raise DataFormatError("missing header (first column must be 't')", line=1)
    n_cols = len(header)
    if n_cols < 3 or (n_cols - 1) % 2 != 0:
        raise DataFormatError(
            f"header has {n_cols} columns; expected t plus an even feature count", line=1)
    n = (n_cols - 1) // 2
    if header != _expected_header(n):
        raise DataFormatError(
            f"header does not match t,vm_1..vm_{n},va_1..va_{n}", line=1)
    rows, line_of_row = [], []
    for idx, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        cells = raw.split(",")
        if len(cells) != n_cols:
            raise DataFormatError(
                f"ragged row: {len(cells)} cells, expected {n_cols}", line=idx)
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise DataFormatError(f"non-numeric cell: {exc}", line=idx) from None
        line_of_row.append(idx)
    if not rows:
        raise DataFormatError("no data rows", line=2)
    table = np.array(rows, dtype=float)
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        raise DataFormatError("non-finite cell", line=line_of_row[int(np.argmin(finite))])
    t = table[:, 0]
    steps = np.diff(t)
    # slack for decimal steps such as 0.1, inexact in binary, and for the
    # rounding of large t such as Unix-epoch seconds
    slack = 1e-9 * np.abs(steps[:1]) + 4 * np.spacing(np.abs(t[1:]))
    bad = (steps <= 0) | (np.abs(steps - steps[:1]) > slack)
    if bad.any():
        k = int(np.argmax(bad))
        raise DataFormatError(
            f"t must increase by a uniform step: t={float(t[k + 1])!r} follows "
            f"t={float(t[k])!r}",
            line=line_of_row[k + 1])
    return StateSeries(n, np.ascontiguousarray(table[:, 1:]))


@contextlib.contextmanager
def atomic_write(path):
    """Yield a text file open for writing; on a clean exit it replaces
    `path` in one step, so readers never see a partly written file."""
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        yield fh
    os.replace(tmp, path)


def save_series(series: StateSeries, path):
    """Write the CSV format read by load_series; floats via repr (lossless)."""
    with atomic_write(path) as fh:
        fh.write(",".join(_expected_header(series.n_buses)) + "\n")
        for t, row in enumerate(series.values):
            fh.write(str(t) + "," + ",".join(repr(float(v)) for v in row) + "\n")


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------

@dataclass
class SyntheticConfig:
    n_buses: int
    length: int
    base_magnitude: float = 1.0
    magnitude_amplitude: float = 0.02
    angle_offset_scale: float = 30.0
    angle_amplitude: float = 5.0
    period: int = 96
    noise_std_magnitude: float = 5e-4
    noise_std_angle: float = 0.02
    coupling: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.n_buses < 1:
            raise ValueError("n_buses must be >= 1")
        if self.length < 2:
            raise ValueError("length must be >= 2")
        if self.period < 2:
            raise ValueError("period must be >= 2")
        if self.noise_std_magnitude < 0 or self.noise_std_angle < 0:
            raise ValueError("noise std must be >= 0")


def generate_synthetic_series(cfg: SyntheticConfig) -> StateSeries:
    """Ring-coupled sinusoid-plus-noise grid states; see module docstring
    for the exact closed form. Deterministic per seed."""
    rng = np.random.default_rng(cfg.seed)
    n, t_len = cfg.n_buses, cfg.length
    amp_vm = cfg.magnitude_amplitude * rng.uniform(0.5, 1.0, n)
    phi = rng.uniform(0.0, 2.0 * np.pi, n)
    offset = cfg.angle_offset_scale * rng.uniform(-1.0, 1.0, n)
    amp_va = cfg.angle_amplitude * rng.uniform(0.5, 1.0, n)
    psi = rng.uniform(0.0, 2.0 * np.pi, n)
    noise_vm = rng.standard_normal((t_len, n)) * cfg.noise_std_magnitude
    noise_va = rng.standard_normal((t_len, n)) * cfg.noise_std_angle

    t = np.arange(t_len)[:, None]
    omega = 2.0 * np.pi / cfg.period
    vm = cfg.base_magnitude + amp_vm[None, :] * np.sin(omega * t + phi[None, :]) + noise_vm
    core = amp_va[None, :] * np.sin(omega * t + psi[None, :])
    va = offset[None, :] + core + cfg.coupling * np.roll(core, 1, axis=1) + noise_va
    return StateSeries(n, np.concatenate([vm, va], axis=1))
