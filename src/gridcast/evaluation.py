"""Metrics and baselines: normalized RMSE, absolute-error statistics split
by magnitude/angle, the per-instance, per-bus error trace CSV written
straight from predictions and truths, and the persistence baseline. All
metrics are computed in physical units (p.u., degrees).

nRMSE definition used throughout this package:

    nrmse = sqrt(sum_t ||pred_t - truth_t||^2) / sqrt(sum_t ||truth_t||^2)

over all components and all test instances; 0 for perfect predictions,
1 for all-zero predictions. Both sums run over values scaled by
`data_pipeline.power_of_two_scale(max |truth|)`, so no square overflows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_pipeline import atomic_write, power_of_two_scale


@dataclass
class MetricsReport:
    nrmse: float
    nrmse_magnitude: float
    nrmse_angle: float
    avg_ae_magnitude: float
    max_ae_magnitude: float
    avg_ae_angle: float
    max_ae_angle: float


def normalized_rmse(preds, truths):
    preds = np.asarray(preds, dtype=float)
    truths = np.asarray(truths, dtype=float)
    if preds.shape != truths.shape or preds.size == 0:
        raise ValueError(f"bad shapes {preds.shape} vs {truths.shape}")
    scale = power_of_two_scale(np.max(np.abs(truths)))
    num = np.sqrt(np.sum(((preds - truths) * scale) ** 2))
    den = np.sqrt(np.sum((truths * scale) ** 2))
    if den == 0.0:
        raise ValueError("truth norm is zero; nRMSE undefined")
    return float(num / den)


def persistence_predictions(windows):
    """Naive forecast: each (2n, r) window's most recent state (last column)."""
    return np.asarray(windows, dtype=float)[:, :, -1].copy()


def evaluate_predictions(preds, truths, n_buses):
    """(T, 2n) predictions and truths in physical units, magnitudes first
    -> MetricsReport."""
    preds = np.asarray(preds, dtype=float)
    truths = np.asarray(truths, dtype=float)
    if preds.ndim != 2 or preds.shape != truths.shape or preds.shape[1] != 2 * n_buses:
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
    )


# ---------------------------------------------------------------------------
# text / CSV exports
# ---------------------------------------------------------------------------

def export_trace_csv(preds, truths, path):
    """CSV `instance,bus,ae_vm,ae_va` of |preds - truths| for (T, 2n)
    predictions and truths, magnitudes first; 1-based indices, row-major
    by instance."""
    ae = np.abs(np.asarray(preds, dtype=float) - np.asarray(truths, dtype=float))
    n = ae.shape[1] // 2
    with atomic_write(path) as fh:
        fh.write("instance,bus,ae_vm,ae_va\n")
        for i, row in enumerate(ae.tolist(), start=1):
            for b in range(n):
                fh.write(f"{i},{b + 1},{row[b]!r},{row[n + b]!r}\n")


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
