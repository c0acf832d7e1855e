"""Command-line workflow: synthesize data, train, evaluate/compare, forecast.

Exit codes (stable contract): 0 success, 1 I/O or data error, 2 usage
error, 3 numerical divergence. Each `cmd_*` returns its stdout text and
seeds; `main` alone prints the text, maps errors to exit codes and writes the
run manifest from the flags: inputs `--model` (unless `persistence`) and
`--data`, outputs every `--out` and `--*-out` given, and the manifest beside
the first output (none if there is none); two of those flags naming one file
are a usage error, found before the command runs. Only the manifest holds
wall clock and machine facts, so reruns with identical flags write the same
data artifact bytes on the same numpy, BLAS build and BLAS thread count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from dataclasses import asdict, astuple, replace

import numpy as np

from . import evaluation, forecaster, training
from .data_pipeline import (DataFormatError, SyntheticConfig, atomic_write,
                            check_train_fraction, csv_header, generate_synthetic_series,
                            load_series, save_series, split_windows)
from .forecaster import (HYBRID, RNN_ONLY, MODEL_FORMAT_VERSION, ModelConfig, load_model,
                         save_model)
from .training import DivergenceError, Hyperparams

EXIT_OK = 0
EXIT_DATA = 1
EXIT_USAGE = 2
EXIT_DIVERGED = 3

MANIFEST_VERSION = "gridcast-manifest-v1"


class UsageError(ValueError):
    pass


def _checked(flag, value, check):
    """check(value), with a ValueError it raises made a usage error that
    names the flag."""
    try:
        return check(value)
    except ValueError as exc:
        raise UsageError(f"{flag} {value}: {exc}") from None


def _machine():
    """What byte-identity of the data artifacts depends on (see the module doc)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")}, "cpus": cpus,
            **{k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}


def _write_manifest(args, seeds, t0):
    given = vars(args).items()  # in the parser's flag order
    outputs = [v for k, v in given if (k == "out" or k.endswith("_out")) and v]
    if not outputs:  # a run that names no output writes no manifest
        return
    doc = {
        "manifest_version": MANIFEST_VERSION,
        "command": args.command,
        "flags": {k: v for k, v in sorted(given) if k != "func"},
        "seeds": seeds,
        "inputs": [v for k, v in given if k == "data" or (k == "model" and v != "persistence")],
        "outputs": outputs,
        "format_versions": {"model": MODEL_FORMAT_VERSION},
        "machine": _machine(),
        "wall_clock_s": time.perf_counter() - t0,
    }
    with atomic_write(outputs[0] + ".manifest.json") as fh:
        fh.write(json.dumps(doc, indent=1) + "\n")


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------

GEN_DATA = SyntheticConfig(n_buses=14, length=2000)  # the gen-data defaults

# (flag, argparse dest, SyntheticConfig field, help) of each gen-data flag
SYNTHETIC_FLAGS = (("--buses", "buses", "n_buses", None), ("--length", "length", "length", None),
                   ("--period", "period", "period", None),
                   ("--noise", "noise", "noise_std_magnitude", "magnitude noise std (p.u.)"),
                   ("--angle-noise", "angle_noise", "noise_std_angle",
                    "angle noise std (degrees)"),
                   ("--coupling", "coupling", "coupling", None), ("--seed", "seed", "seed", None))


def cmd_gen_data(args):
    cfg = GEN_DATA  # valid; each flag then replaces one field
    for flag, dest, field, _ in SYNTHETIC_FLAGS:
        cfg = _checked(flag, getattr(args, dest), lambda value: replace(cfg, **{field: value}))
    try:
        with np.errstate(over="raise", invalid="raise"):
            series = generate_synthetic_series(cfg)
    except FloatingPointError as exc:  # an ArithmeticError, not a ValueError
        raise UsageError(f"the series overflows float64 ({exc}): lower --noise, "
                         "--angle-noise or --coupling") from None
    except (MemoryError, ValueError):  # numpy: "Maximum allowed dimension exceeded"
        raise UsageError(f"the series of --buses {args.buses} and --length {args.length} "
                         "does not fit in memory: lower either") from None
    save_series(series, args.out)
    text = f"wrote {len(series)} instances x {2 * args.buses} features to {args.out}\n"
    return text, [args.seed]


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

# (flag, argparse dest, Hyperparams field, type) of each training flag
TRAINING_FLAGS = (("--epochs", "epochs", "epochs", int), ("--batch", "batch", "batch_size", int),
                  ("--lr", "lr", "learning_rate", float), ("--seed", "seed", "seed", int))


def _split(series, lag, train_fraction, lag_name):
    """split_windows, with a short partition's error naming the settings."""
    try:
        return split_windows(series, lag, train_fraction)
    except ValueError as exc:
        raise DataFormatError(f"{exc}: the data is too short for --train-fraction "
                              f"{train_fraction} and {lag_name} {lag}") from None


def _hyperparams_from(args):
    """Hyperparams from the training flags, each checked on its own, after
    a check of --train-fraction; a flag left at None (not given to eval)
    keeps the Hyperparams default."""
    _checked("--train-fraction", args.train_fraction, check_train_fraction)
    given = {}
    for flag, dest, field, _ in TRAINING_FLAGS:
        if getattr(args, dest) is not None:
            given[field] = getattr(args, dest)
            _checked(flag, given[field], lambda value: Hyperparams(**{field: value}))
    return Hyperparams(**given)


def cmd_train(args):
    hp = _hyperparams_from(args)
    # the --lag rule does not depend on the bus count, so a one-bus config
    # checks it before the data file is read
    _checked("--lag", args.lag, lambda lag: ModelConfig(n_buses=1, lag_r=lag, kind=args.baseline))
    series = load_series(args.data)
    config = ModelConfig(n_buses=series.n_buses, lag_r=args.lag, kind=args.baseline)
    data = _split(series, args.lag, args.train_fraction, "--lag")
    model, report, _ = training.fit_forecaster(data, config, hp)
    save_model(model, args.model_out)
    args.report_out = args.report_out or args.model_out + ".report.json"  # the manifest's flag
    with atomic_write(args.report_out) as fh:
        fh.write(json.dumps(asdict(report), indent=1) + "\n")
    text = (f"trained {args.baseline} model: final train loss {report.final_train_loss:.6e}, "
            f"test nRMSE {report.test_nrmse:.6e}\n")
    return text, [args.seed]


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _check_buses(model, series):
    if series.n_buses != model.config.n_buses:
        raise DataFormatError(
            f"model expects {model.config.n_buses} buses, data has {series.n_buses}")


def _mean_report(reports):
    """Field-wise mean of MetricsReports of runs on the same test windows."""
    return evaluation.MetricsReport(*(float(np.mean(f)) for f in zip(*map(astuple, reports))))


def cmd_eval(args):
    """One table row per method, the mean of the method's runs on the one
    split: persistence and the loaded model are one run each, a retrained
    method (the model's kind with --runs > 1, rnn-only) one per seed."""
    compare = list(dict.fromkeys(c.strip() for c in (args.compare or "").split(",") if c.strip()))
    for c in compare:
        if c not in ("persistence", RNN_ONLY):
            raise UsageError(f"unknown --compare entry {c!r}")
    if args.runs < 1:
        raise UsageError(f"--runs must be >= 1, got {args.runs}")
    retrains = args.runs > 1 or RNN_ONLY in compare
    if not retrains:
        for flag, dest, _, _ in TRAINING_FLAGS:
            if getattr(args, dest) is not None:
                raise UsageError(f"{flag} only applies when eval retrains "
                                 f"(--runs > 1 or --compare {RNN_ONLY})")
    hp = _hyperparams_from(args)

    model = load_model(args.model)
    kind, n = model.config.kind, model.config.n_buses
    if RNN_ONLY in compare and kind == RNN_ONLY:
        raise UsageError(f"--compare {RNN_ONLY} needs a {HYBRID} model; this one is RNN-only")

    series = load_series(args.data)
    _check_buses(model, series)
    data = _split(series, model.config.lag_r, args.train_fraction, "the model's lag")
    x_test, y_test = data[1]

    seeds, rows, aggregates = range(hp.seed, hp.seed + args.runs), {}, ""
    for method in [kind] + compare:
        if method == "persistence":
            runs = [evaluation.persistence_predictions(x_test)]
        elif args.runs > 1 or method != kind:
            runs = []
            for seed in seeds:
                try:
                    runs.append(training.fit_forecaster(
                        data, replace(model.config, kind=method), replace(hp, seed=seed))[2])
                except DivergenceError as exc:
                    diverged = exc
            if not runs:  # every seed diverged: exit 3 with the last seed's error
                raise diverged
        else:
            runs = [forecaster.forecast_batch(model, x_test)]
        if method == kind:
            trace_preds = runs[0]  # the trace is of the first run of the model's kind
        reports = [evaluation.evaluate_predictions(preds, y_test, n) for preds in runs]
        rows[method] = _mean_report(reports)
        if args.runs > 1 and method != "persistence":
            scores = [rep.nrmse for rep in reports]
            aggregate = {"n_runs": args.runs, "n_completed": len(scores),
                         "n_diverged": args.runs - len(scores), "base_seed": hp.seed,
                         "nrmse_mean": float(np.mean(scores)), "nrmse_std": float(np.std(scores)),
                         "nrmse_min": float(np.min(scores)), "nrmse_max": float(np.max(scores))}
            label = "" if method == kind else f" ({method})"
            aggregates += f"\naggregate over independent runs{label}:\n"
            aggregates += json.dumps(aggregate, indent=1) + "\n"
    body = evaluation.comparison_table(rows) + aggregates
    if args.report_out:
        with atomic_write(args.report_out) as fh:
            fh.write(body)
    if args.trace_out:
        evaluation.export_trace_csv(trace_preds, y_test, args.trace_out)
    return body, list(seeds) if retrains else []


# ---------------------------------------------------------------------------
# forecast
# ---------------------------------------------------------------------------

def cmd_forecast(args):
    series = load_series(args.data)
    model, r = None, 1  # the persistence baseline needs one preceding state
    if args.model != "persistence":
        model = load_model(args.model)
        _check_buses(model, series)
        r = model.config.lag_r

    i = args.at_instance  # 1-based series coordinate of the forecast target
    if i < r + 1 or i > len(series) + 1:
        raise DataFormatError(
            f"instance {i} out of range: need {r} preceding states "
            f"(legal range {r + 1}..{len(series) + 1})")
    window = series.values[i - 1 - r:i - 1].T
    if model is None:
        pred = evaluation.persistence_predictions(window[None])[0]
    else:
        pred = forecaster.forecast_next(model, window)
    rows = [("forecast", pred)]
    if i <= len(series):  # the target is in the series: report its error
        truth = series.values[i - 1]
        rows += [("truth", truth), ("abs_error", np.abs(pred - truth))]
    text = "kind," + ",".join(csv_header(series.n_buses)) + "\n" + "".join(
        f"{kind},{i}," + ",".join(repr(float(v)) for v in values) + "\n" for kind, values in rows)
    if args.out:
        with atomic_write(args.out) as fh:
            fh.write(text)
    return text, []


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def _training_parser(hp):
    """Parent parser of the training flags and --train-fraction. train
    passes Hyperparams() as the defaults; eval passes None, so a training
    flag it was not given stays None."""
    p = argparse.ArgumentParser(add_help=False)
    for flag, _, field, type_ in TRAINING_FLAGS:
        p.add_argument(flag, type=type_, default=None if hp is None else getattr(hp, field))
    p.add_argument("--train-fraction", type=float, default=0.8)
    return p


def build_parser():
    p = argparse.ArgumentParser(
        prog="gridcast",
        description="Hybrid CNN-RNN one-step-ahead grid state forecaster")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="write a synthetic state series CSV")
    for flag, _, field, help_ in SYNTHETIC_FLAGS:
        default = getattr(GEN_DATA, field)
        g.add_argument(flag, type=type(default), default=default, help=help_)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", parents=[_training_parser(Hyperparams())],
                       help="train a forecaster on a dataset CSV")
    t.add_argument("--data", required=True)
    t.add_argument("--lag", type=int, default=ModelConfig.lag_r)
    t.add_argument("--model-out", required=True)
    t.add_argument("--report-out", default=None)
    t.add_argument("--baseline", choices=[HYBRID, RNN_ONLY], default=HYBRID)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", parents=[_training_parser(None)],
                       help="evaluate a model (optionally retrain per run)")
    e.add_argument("--model", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--report-out", default=None)
    e.add_argument("--trace-out", default=None)
    e.add_argument("--runs", type=int, default=1)
    e.add_argument("--compare", default=None,
                   help=f"comma list of baselines: persistence,{RNN_ONLY}")
    e.set_defaults(func=cmd_eval)

    f = sub.add_parser("forecast", help="one-step forecast at a series instance")
    f.add_argument("--model", required=True,
                   help="model file, or 'persistence' for the naive baseline")
    f.add_argument("--data", required=True)
    f.add_argument("--at-instance", type=int, required=True,
                   help="1-based series index of the instance to forecast")
    f.add_argument("--out", default=None)
    f.set_defaults(func=cmd_forecast)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        paths = [os.path.realpath(v) for k, v in vars(args).items() if v and (k in ("data", "out")
                 or k.endswith("_out") or (k == "model" and v != "persistence"))]
        if len(set(paths)) < len(paths):  # a run never writes over a file it reads or writes
            raise UsageError(f"two file flags name {max(paths, key=paths.count)}")
        text, seeds = args.func(args)
        _write_manifest(args, seeds, t0)
        print(text, end="")
        return EXIT_OK
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DivergenceError as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
