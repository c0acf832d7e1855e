"""Dataset handling: CSV ingest, lag windowing, the one chronological split
of a command (`split_windows`: the first floor(T * fraction) instances
train, the rest are windowed for test), per-feature normalization, and a
synthetic grid-state generator.

A state series stores, per time instance, n voltage magnitudes (p.u.)
followed by n phase angles (degrees) - a 2n-wide row. The CSV format is:

    t,vm_1,...,vm_n,va_1,...,va_n

one row per instance, ASCII decimal numbers (no `_` separators), no
missing or non-finite cells, and t increasing by a uniform step (a step
that overflows float64 is not uniform). The first bad line is reported,
a non-finite cell before its own step. A leading UTF-8 byte-order mark
is skipped.

Layouts are explicit: a batch of states is (..., 2n) and a batch of lag
windows is (..., 2n, r), features along rows and time along the last axis.

Synthetic series model (per bus i, time step t, all randomness seeded):

    vm_i(t) = BASE_MAGNITUDE + A_i * sin(2*pi*t/period + phi_i) + eps_i(t)
    va_i(t) = off_i + core_i(t) + c * core_{(i-1) mod n}(t) + eps'_i(t)
    core_i(t) = B_i * sin(2*pi*t/period + psi_i)

where the per-bus constants are drawn from the seed, in this order:
A_i = MAGNITUDE_AMPLITUDE * U(0.5, 1), phi_i = U(0, 2*pi),
off_i = ANGLE_OFFSET_SCALE * U(-1, 1), B_i = ANGLE_AMPLITUDE * U(0.5, 1) and
psi_i = U(0, 2*pi); c is the ring-coupling weight, and eps, eps' are
Gaussian with the configured standard deviations. With zero noise the
series is exactly periodic with the configured period.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass

import numpy as np


class DataFormatError(ValueError):
    """Raised for malformed dataset files; the message names the 1-based line."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")


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
    """Per-feature z-scoring statistics (mean, std), fitted on training
    data only; a constant feature gets its value as mean and std 1, so it
    maps to 0."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.std = np.asarray(self.std, dtype=float)
        if not (self.std > 0).all():
            raise ValueError("normalizer std must be positive")

    def apply(self, states):
        """z-score states laid out (..., 2n)."""
        return (states - self.mean) / self.std

    def invert(self, states):
        """Map z-scored states laid out (..., 2n) back to physical units."""
        return states * self.std + self.mean


def power_of_two_scale(peak):
    """The exact power of two that puts each peak >= 0 in [0.5, 1), at most
    2**1021 (finite, so a subnormal peak scales into [2**-53, 0.5)); a peak of
    0 gets 1. Scaled sums near 1e308 and squares beyond 1e154 stay finite."""
    return np.ldexp(1.0, -np.maximum(np.frexp(peak)[1], -1021))


def fit_normalizer(train: StateSeries) -> Normalizer:
    scale = power_of_two_scale(np.abs(train.values).max(axis=0))
    scaled = train.values * scale
    mean = scaled.mean(axis=0) / scale
    std = scaled.std(axis=0) / scale
    # a constant column's mean can round off its value, z-scoring it to +-1: map it to 0
    constant = (train.values == train.values[0]).all(axis=0)
    return Normalizer(np.where(constant, train.values[0], mean), np.where(constant, 1.0, std))


def check_train_fraction(train_fraction):
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")


def build_windows(series: StateSeries, r):
    """Eq-style lag windowing for T >= r: returns (X, Y) with X shape (T-r, 2n, r) and
    Y shape (T-r, 2n). Sample i's window holds states i..i+r-1 column-wise
    in chronological order; its target is state i+r. X and Y are read-only
    views of series.values, no copies; X is time-major (X[i, :, k] is row i+k)."""
    t = len(series)
    v = series.values
    x = np.lib.stride_tricks.sliding_window_view(v, r, axis=0)[:t - r]
    y = v[r:]
    y.flags.writeable = False
    return x, y


def split_windows(series: StateSeries, r, train_fraction):
    """(first floor(T * fraction) instances, (X, Y) windows of the rest in
    physical units); both partitions must hold at least r + 1 instances."""
    check_train_fraction(train_fraction)
    t = len(series)
    n_train = int(math.floor(t * train_fraction))
    if min(n_train, t - n_train) < r + 1:
        raise ValueError(
            f"split {n_train}/{t - n_train} leaves a partition shorter than {r + 1}")
    return series.slice(0, n_train), build_windows(series.slice(n_train, t), r)


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------

def csv_header(n):
    """Column names of an n-bus series CSV: t, vm_1..vm_n, va_1..va_n."""
    return ["t"] + [f"vm_{i + 1}" for i in range(n)] + [f"va_{i + 1}" for i in range(n)]


def load_series(path) -> StateSeries:
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DataFormatError("empty file", line=1)
    header = lines[0].split(",")
    if header[0].strip() != "t":
        raise DataFormatError("missing header (first column must be 't')", line=1)
    n_cols = len(header)
    if n_cols < 3 or (n_cols - 1) % 2 != 0:
        raise DataFormatError(
            f"header has {n_cols} columns; expected t plus an even feature count", line=1)
    n = (n_cols - 1) // 2
    if header != csv_header(n):
        raise DataFormatError(
            f"header does not match t,vm_1..vm_{n},va_1..va_{n}", line=1)
    table = np.empty((len(lines) - 1, n_cols))  # blank lines leave rows unused
    line_of_row = []
    error = None  # a ragged or non-numeric line stops the scan
    for idx, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        cells = raw.split(",")
        if len(cells) != n_cols:
            error = DataFormatError(f"ragged row: {len(cells)} cells, expected {n_cols}", line=idx)
            break
        try:
            if "_" in raw or not raw.isascii():  # float() also reads 1_0, ١٢ and １２
                cell = next(c for c in cells if "_" in c or not c.isascii())
                raise ValueError(f"not an ASCII decimal number: {cell!r}")
            table[len(line_of_row)] = list(map(float, cells))
        except ValueError as exc:
            error = DataFormatError(f"non-numeric cell: {exc}", line=idx)
            break
        line_of_row.append(idx)
    # one mask of bad rows; its first wins over the line that stopped the scan
    table = table[:len(line_of_row)]
    t, finite = table[:, 0], np.isfinite(table).all(axis=1)
    bad = ~finite
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing step is NaN or inf
        steps = np.diff(t)
        # slack for decimal steps such as 0.1, inexact in binary, and for the rounding of large
        # t such as epoch seconds, its ulp capped at math.ulp's finite 2**971; NaN fails the <=
        slack = 1e-9 * np.abs(steps[:1]) + 4 * np.minimum(np.spacing(np.abs(t[1:])), 2.0 ** 971)
        bad[1:] |= ~((steps > 0) & (np.abs(steps - steps[:1]) <= slack))
    if bad.any():
        k = int(np.argmax(bad))
        raise DataFormatError("non-finite cell" if not finite[k] else
                              f"t must increase by a uniform step: t={float(t[k])!r} follows "
                              f"t={float(t[k - 1])!r}", line=line_of_row[k])
    if error or not line_of_row:
        raise error or DataFormatError("no data rows", line=2)
    return StateSeries(n, np.ascontiguousarray(table[:, 1:]))


@contextlib.contextmanager
def atomic_write(path, mode="w"):
    """Yield a file open for writing, UTF-8 text by default or bytes with
    mode "wb"; on a clean exit it replaces `path` in one step, so readers
    never see a partly written file. On an error the temporary file is
    removed and `path` is left as it was."""
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def save_series(series: StateSeries, path):
    """Write the CSV format read by load_series; floats via repr (lossless)."""
    with atomic_write(path) as fh:
        fh.write(",".join(csv_header(series.n_buses)) + "\n")
        for t, row in enumerate(series.values.tolist()):
            fh.write(str(t) + "," + ",".join(map(repr, row)) + "\n")


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------

# the generator's grid shape (p.u. and degrees); not settings
BASE_MAGNITUDE, MAGNITUDE_AMPLITUDE, ANGLE_OFFSET_SCALE, ANGLE_AMPLITUDE = 1.0, 0.02, 30.0, 5.0


@dataclass
class SyntheticConfig:
    n_buses: int
    length: int
    period: int = 96
    noise_std_magnitude: float = 5e-4
    noise_std_angle: float = 0.02
    coupling: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.n_buses < 1:
            raise ValueError("n_buses must be >= 1")
        if self.length < 12:
            raise ValueError("length must be >= 12 (lag 10 needs r+1 states)")
        if self.period < 2:
            raise ValueError("period must be >= 2")
        if not (0 <= self.noise_std_magnitude < math.inf and 0 <= self.noise_std_angle < math.inf):
            raise ValueError("noise std must be finite and >= 0")
        if not math.isfinite(self.coupling):
            raise ValueError(f"coupling must be finite, got {self.coupling}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def generate_synthetic_series(cfg: SyntheticConfig) -> StateSeries:
    """Ring-coupled sinusoid-plus-noise grid states; see module docstring
    for the exact closed form. Deterministic per seed."""
    rng = np.random.default_rng(cfg.seed)
    n, t_len = cfg.n_buses, cfg.length
    amp_vm = MAGNITUDE_AMPLITUDE * rng.uniform(0.5, 1.0, n)
    phi = rng.uniform(0.0, 2.0 * np.pi, n)
    offset = ANGLE_OFFSET_SCALE * rng.uniform(-1.0, 1.0, n)
    amp_va = ANGLE_AMPLITUDE * rng.uniform(0.5, 1.0, n)
    psi = rng.uniform(0.0, 2.0 * np.pi, n)
    noise_vm = rng.standard_normal((t_len, n)) * cfg.noise_std_magnitude
    noise_va = rng.standard_normal((t_len, n)) * cfg.noise_std_angle

    t = np.arange(t_len)[:, None]
    omega = 2.0 * np.pi / cfg.period
    vm = BASE_MAGNITUDE + amp_vm[None, :] * np.sin(omega * t + phi[None, :]) + noise_vm
    core = amp_va[None, :] * np.sin(omega * t + psi[None, :])
    va = offset[None, :] + core + cfg.coupling * np.roll(core, 1, axis=1) + noise_va
    return StateSeries(n, np.concatenate([vm, va], axis=1))
