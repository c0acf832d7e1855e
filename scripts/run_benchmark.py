#!/usr/bin/env python3
"""Desk-scale comparison: synthesize a grid-state series, train the hybrid
forecaster and the RNN-only baseline under the identical independent-runs
protocol (`gridcast.training.multi_run`), and print the side-by-side table
of per-run means (absolute-error statistics plus nRMSE) with persistence
as the floor. Timings live in `perfbench/run.py`, not here.

Example:
    python3 scripts/run_benchmark.py --buses 14 --length 2000 --runs 5 --epochs 15
"""

import argparse
from dataclasses import fields, replace

import numpy as np

from gridcast.data_pipeline import (SyntheticConfig, build_windows, chronological_split,
                                    generate_synthetic_series)
from gridcast.evaluation import (comparison_table, evaluate_predictions,
                                 persistence_predictions)
from gridcast.forecaster import RNN_ONLY, ModelConfig
from gridcast.training import Hyperparams, multi_run


def main():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--buses", type=int, default=14)
    p.add_argument("--length", type=int, default=2000)
    p.add_argument("--lag", type=int, default=10)
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--epochs", type=int, default=15)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()

    series = generate_synthetic_series(
        SyntheticConfig(n_buses=args.buses, length=args.length, seed=args.seed))
    hp = Hyperparams(learning_rate=args.lr, batch_size=args.batch,
                     epochs=args.epochs, seed=args.seed)
    hybrid_cfg = ModelConfig(n_buses=args.buses, lag_r=args.lag)
    rows, scores = {}, {}
    for name, cfg in (("hybrid", hybrid_cfg), ("rnn-only", replace(hybrid_cfg, kind=RNN_ONLY))):
        agg, reports, _ = multi_run(series, cfg, hp, n_runs=args.runs)
        rows[name] = replace(reports[0], **{
            f.name: float(np.mean([getattr(m, f.name) for m in reports]))
            for f in fields(reports[0]) if f.name != "n_test_windows"})
        scores[name] = agg
    _, test_part = chronological_split(series, min_len=args.lag + 1)
    x_test, y_test = build_windows(test_part, args.lag)
    rows["persistence"], _ = evaluate_predictions(
        persistence_predictions(x_test), y_test, args.buses)

    print(f"\n{args.buses}-bus synthetic series, T={args.length}, "
          f"{args.runs} independent runs x {args.epochs} epochs\n")
    print(comparison_table(rows))
    for name, agg in scores.items():
        print(f"{name:<8} nRMSE over runs: mean {agg['nrmse_mean']:.4e}  "
              f"std {agg['nrmse_std']:.2e}  ({agg['n_diverged']} diverged)")
    gain = 1 - scores["hybrid"]["nrmse_mean"] / rows["persistence"].nrmse
    print(f"hybrid vs persistence: {100 * gain:.1f}% lower nRMSE")


if __name__ == "__main__":
    main()
