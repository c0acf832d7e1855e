"""Metrics and baselines: normalized RMSE, absolute-error statistics split
by magnitude/angle, per-instance error traces, and the persistence
baseline. All metrics are computed in physical units (p.u., degrees).

nRMSE definition used throughout this package:

    nrmse = sqrt(sum_t ||pred_t - truth_t||^2) / sqrt(sum_t ||truth_t||^2)

over all components and all test instances; 0 for perfect predictions,
1 for all-zero predictions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import forecaster
from .data_pipeline import atomic_write


@dataclass
class MetricsReport:
    nrmse: float
    nrmse_magnitude: float
    nrmse_angle: float
    avg_ae_magnitude: float
    max_ae_magnitude: float
    avg_ae_angle: float
    max_ae_angle: float
    n_test_windows: int


@dataclass
class ErrorTrace:
    """Per-instance, per-bus absolute errors; both arrays are (T_test, n)."""

    ae_vm: np.ndarray
    ae_va: np.ndarray

    def at_instance(self, i):
        """Per-bus errors for one test instance (1-based, matching reports)."""
        return self.ae_vm[i - 1], self.ae_va[i - 1]

    def for_bus(self, bus, start, stop):
        """Errors of one bus (1-based) over [start, stop) instances (1-based)."""
        sl = slice(start - 1, stop - 1)
        return self.ae_vm[sl, bus - 1], self.ae_va[sl, bus - 1]


def _as_2d(values):
    a = np.asarray(values, dtype=float)
    if a.ndim == 1:
        a = a[None, :]
    return a


def normalized_rmse(preds, truths):
    preds = _as_2d(preds)
    truths = _as_2d(truths)
    if preds.shape != truths.shape or preds.size == 0:
        raise ValueError(f"bad shapes {preds.shape} vs {truths.shape}")
    num = np.sqrt(np.sum((preds - truths) ** 2))
    den = np.sqrt(np.sum(truths ** 2))
    if den == 0.0:
        raise ValueError("truth norm is zero; nRMSE undefined")
    return float(num / den)


def ae_stats(preds, truths, n_buses) -> MetricsReport:
    preds = _as_2d(preds)
    truths = _as_2d(truths)
    if preds.shape != truths.shape or preds.shape[1] != 2 * n_buses:
        raise ValueError(f"bad shapes {preds.shape} vs {truths.shape} for n={n_buses}")
    ae = np.abs(preds - truths)
    ae_vm = ae[:, :n_buses]
    ae_va = ae[:, n_buses:]
    return MetricsReport(
        nrmse=normalized_rmse(preds, truths),
        nrmse_magnitude=normalized_rmse(preds[:, :n_buses], truths[:, :n_buses]),
        nrmse_angle=normalized_rmse(preds[:, n_buses:], truths[:, n_buses:]),
        avg_ae_magnitude=float(ae_vm.mean()),
        max_ae_magnitude=float(ae_vm.max()),
        avg_ae_angle=float(ae_va.mean()),
        max_ae_angle=float(ae_va.max()),
        n_test_windows=preds.shape[0],
    )


def persistence_predictions(windows):
    """Naive forecast: each (2n, r) window's most recent state (last column)."""
    return np.asarray(windows, dtype=float)[:, :, -1].copy()


def evaluate(model, x_test, y_test):
    """Forecast every test window (physical units) and compute the report
    plus the full error trace."""
    preds = forecaster.forecast_batch(model, x_test)
    return evaluate_predictions(preds, y_test, model.config.n_buses)


def evaluate_predictions(preds, truths, n_buses):
    preds = _as_2d(preds)
    truths = _as_2d(truths)
    report = ae_stats(preds, truths, n_buses)
    ae = np.abs(preds - truths)
    trace = ErrorTrace(ae[:, :n_buses].copy(), ae[:, n_buses:].copy())
    return report, trace


# ---------------------------------------------------------------------------
# text / CSV exports
# ---------------------------------------------------------------------------

def export_trace_csv(trace: ErrorTrace, path):
    """CSV `instance,bus,ae_vm,ae_va`, 1-based indices, row-major by instance."""
    t, n = trace.ae_vm.shape
    with atomic_write(path) as fh:
        fh.write("instance,bus,ae_vm,ae_va\n")
        for i in range(t):
            for b in range(n):
                fh.write(f"{i + 1},{b + 1},{float(trace.ae_vm[i, b])!r},"
                         f"{float(trace.ae_va[i, b])!r}\n")


def export_instance_slice_csv(trace: ErrorTrace, instance, path):
    """Per-bus errors at one test instance (all-buses view)."""
    vm, va = trace.at_instance(instance)
    with atomic_write(path) as fh:
        fh.write("bus,ae_vm,ae_va\n")
        for b in range(len(vm)):
            fh.write(f"{b + 1},{float(vm[b])!r},{float(va[b])!r}\n")


def export_bus_slice_csv(trace: ErrorTrace, bus, start, stop, path):
    """One bus's errors over an instance range (time-trace view)."""
    vm, va = trace.for_bus(bus, start, stop)
    with atomic_write(path) as fh:
        fh.write("instance,ae_vm,ae_va\n")
        for i in range(len(vm)):
            fh.write(f"{start + i},{float(vm[i])!r},{float(va[i])!r}\n")


def comparison_table(reports: dict) -> str:
    """Side-by-side text table: one row per method, absolute-error columns
    split avg/max x magnitude/angle, plus nRMSE columns."""
    header = (f"{'Method':<14} {'AvgAE |V| (p.u.)':>18} {'MaxAE |V| (p.u.)':>18} "
              f"{'AvgAE angle (deg)':>18} {'MaxAE angle (deg)':>18} "
              f"{'nRMSE':>12} {'nRMSE |V|':>12} {'nRMSE angle':>12}")
    lines = [header, "-" * len(header)]
    for name, rep in reports.items():
        lines.append(
            f"{name:<14} {rep.avg_ae_magnitude:>18.6e} {rep.max_ae_magnitude:>18.6e} "
            f"{rep.avg_ae_angle:>18.6e} {rep.max_ae_angle:>18.6e} "
            f"{rep.nrmse:>12.6e} {rep.nrmse_magnitude:>12.6e} {rep.nrmse_angle:>12.6e}")
    return "\n".join(lines) + "\n"
