"""Command-line workflow: synthesize data, train, evaluate/compare, forecast.

Exit codes (stable contract): 0 success, 1 I/O or data error, 2 usage
error, 3 numerical divergence. Every command writes a JSON run manifest
beside its primary output; the manifest is the only output carrying wall
clock, so repeated runs with identical flags produce byte-identical data
artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, fields, replace

import numpy as np

from . import evaluation, forecaster, training
from .data_pipeline import (DataFormatError, SyntheticConfig, atomic_write,
                            build_windows, check_train_fraction, chronological_split,
                            generate_synthetic_series, load_series, save_series)
from .forecaster import (RNN_ONLY, MODEL_FORMAT_VERSION, ModelConfig, load_model,
                         save_model)
from .training import DivergenceError, Hyperparams

EXIT_OK = 0
EXIT_DATA = 1
EXIT_USAGE = 2
EXIT_DIVERGED = 3

MANIFEST_VERSION = "gridcast-manifest-v1"


class UsageError(ValueError):
    pass


def _write_manifest(primary_out, command, args, seeds, inputs, outputs, t0):
    doc = {
        "manifest_version": MANIFEST_VERSION,
        "command": command,
        "flags": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "seeds": seeds,
        "inputs": inputs,
        "outputs": outputs,
        "format_versions": {"model": MODEL_FORMAT_VERSION},
        "wall_clock_s": time.perf_counter() - t0,
    }
    with atomic_write(str(primary_out) + ".manifest.json") as fh:
        fh.write(json.dumps(doc, indent=1) + "\n")


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------

def cmd_gen_data(args):
    t0 = time.perf_counter()
    if args.length < 12:
        raise UsageError(f"--length must be >= 12 (lag 10 needs r+1 states), got {args.length}")
    try:
        cfg = SyntheticConfig(n_buses=args.buses, length=args.length, period=args.period,
                              noise_std_magnitude=args.noise, noise_std_angle=args.angle_noise,
                              coupling=args.coupling, seed=args.seed)
        # generation reads only flags, so each error it raises is a usage error
        with np.errstate(over="raise", invalid="raise"):
            series = generate_synthetic_series(cfg)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    except FloatingPointError as exc:  # an ArithmeticError, not a ValueError
        raise UsageError(f"the series overflows float64 ({exc}): lower --noise, "
                         "--angle-noise or --coupling") from None
    save_series(series, args.out)
    _write_manifest(args.out, "gen-data", args, [args.seed], [], [args.out], t0)
    print(f"wrote {len(series)} instances x {2 * args.buses} features to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

# (flag, argparse dest, Hyperparams field) of each training flag
TRAINING_FLAGS = (("--epochs", "epochs", "epochs"), ("--batch", "batch", "batch_size"),
                  ("--lr", "lr", "learning_rate"), ("--seed", "seed", "seed"))


def _checked(flag, value, check):
    """check(value), with a ValueError it raises made a usage error that
    names the flag."""
    try:
        return check(value)
    except ValueError as exc:
        raise UsageError(f"{flag} {value}: {exc}") from None


def _hyperparams_from(args):
    """Hyperparams from the training flags, each checked on its own, after
    a check of --train-fraction; a flag left at None (not given to eval)
    keeps the Hyperparams default."""
    _checked("--train-fraction", args.train_fraction, check_train_fraction)
    given = {}
    for flag, dest, field in TRAINING_FLAGS:
        if getattr(args, dest) is not None:
            given[field] = getattr(args, dest)
            _checked(flag, given[field], lambda value: Hyperparams(**{field: value}))
    return Hyperparams(**given)


def cmd_train(args):
    t0 = time.perf_counter()
    hp = _hyperparams_from(args)
    # the --lag rule does not depend on the bus count, so a one-bus config
    # checks it before the data file is read
    _checked("--lag", args.lag, lambda lag: ModelConfig(n_buses=1, lag_r=lag, kind=args.baseline))
    series = load_series(args.data)
    config = ModelConfig(n_buses=series.n_buses, lag_r=args.lag, kind=args.baseline)
    model, report, *_ = training.fit_forecaster(
        series, config, hp, train_fraction=args.train_fraction)
    save_model(model, args.model_out)
    report_path = args.report_out or (args.model_out + ".report.json")
    with atomic_write(report_path) as fh:
        fh.write(json.dumps(asdict(report), indent=1) + "\n")
    _write_manifest(args.model_out, "train", args, [args.seed], [args.data],
                    [args.model_out, report_path], t0)
    print(f"trained {args.baseline} model: final train loss {report.final_train_loss:.6e}, "
          f"test nRMSE {report.test_nrmse:.6e}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _mean_report(reports):
    """Field-wise mean of MetricsReports of runs on the same test windows."""
    return replace(reports[0], **{
        f.name: float(np.mean([getattr(rep, f.name) for rep in reports]))
        for f in fields(reports[0]) if f.name != "n_test_windows"})


def cmd_eval(args):
    """One table row per method. A retrained method (the model's kind with
    --runs > 1, rnn-only) runs from the same seeds; its row is the mean."""
    t0 = time.perf_counter()
    compare = list(dict.fromkeys(c.strip() for c in (args.compare or "").split(",") if c.strip()))
    for c in compare:
        if c not in ("persistence", "rnn-only"):
            raise UsageError(f"unknown --compare entry {c!r}")
    if args.runs < 1:
        raise UsageError(f"--runs must be >= 1, got {args.runs}")
    if args.runs == 1 and "rnn-only" not in compare:
        for flag, dest, _ in TRAINING_FLAGS:
            if getattr(args, dest) is not None:
                raise UsageError(f"{flag} only applies when eval retrains "
                                 "(--runs > 1 or --compare rnn-only)")
    hp = _hyperparams_from(args)

    model = load_model(args.model)
    kind, n = model.config.kind, model.config.n_buses
    if "rnn-only" in compare and kind == RNN_ONLY:
        raise UsageError("--compare rnn-only needs a hybrid model; this one is RNN-only")
    retrain = {}  # method -> ModelConfig it is retrained with
    if args.runs > 1:
        retrain[kind] = model.config
    if "rnn-only" in compare:
        retrain["rnn-only"] = replace(model.config, kind=RNN_ONLY)

    series = load_series(args.data)
    if series.n_buses != n:
        raise DataFormatError(f"model expects {n} buses, data has {series.n_buses}")
    r = model.config.lag_r
    _, test_part = chronological_split(series, args.train_fraction, min_len=r + 1)
    x_test, y_test = build_windows(test_part, r)

    reports, aggregates = {}, {}
    for method in [kind] + compare:
        if method == "persistence":
            preds = evaluation.persistence_predictions(x_test)
            reports[method], _ = evaluation.evaluate_predictions(preds, y_test, n)
        elif method in retrain:
            aggregates[method], runs, run_trace = training.multi_run(
                series, retrain[method], hp, args.runs, args.train_fraction)
            reports[method] = _mean_report(runs)
        else:
            preds = forecaster.forecast_batch(model, x_test)
            reports[method], run_trace = evaluation.evaluate_predictions(preds, y_test, n)
        if method == kind:
            trace = run_trace

    body = evaluation.comparison_table(reports)
    if args.runs > 1:
        for method, aggregate in aggregates.items():
            label = "" if method == kind else f" ({method})"
            body += f"\naggregate over independent runs{label}:\n"
            body += json.dumps(aggregate, indent=1) + "\n"
    outputs = []
    if args.report_out:
        with atomic_write(args.report_out) as fh:
            fh.write(body)
        outputs.append(args.report_out)
    if args.trace_out:
        evaluation.export_trace_csv(trace, args.trace_out)
        outputs.append(args.trace_out)
    primary = args.report_out or args.trace_out or (args.model + ".eval")
    seeds = list(range(hp.seed, hp.seed + args.runs))
    _write_manifest(primary, "eval", args, seeds,
                    [args.model, args.data], outputs, t0)
    print(body, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# forecast
# ---------------------------------------------------------------------------

def cmd_forecast(args):
    t0 = time.perf_counter()
    series = load_series(args.data)
    n = series.n_buses
    model, r = None, 1  # the persistence baseline needs one preceding state
    if args.model != "persistence":
        model = load_model(args.model)
        if model.config.n_buses != n:
            raise DataFormatError(
                f"model expects {model.config.n_buses} buses, data has {n}")
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
    has_truth = i <= len(series)
    cols = [f"vm_{b + 1}" for b in range(n)] + [f"va_{b + 1}" for b in range(n)]
    lines = ["kind,t," + ",".join(cols)]
    lines.append("forecast," + str(i) + "," + ",".join(repr(float(v)) for v in pred))
    if has_truth:
        truth = series.values[i - 1]
        ae = np.abs(pred - truth)
        lines.append("truth," + str(i) + "," + ",".join(repr(float(v)) for v in truth))
        lines.append("abs_error," + str(i) + "," + ",".join(repr(float(v)) for v in ae))
    text = "\n".join(lines) + "\n"
    if args.out:
        with atomic_write(args.out) as fh:
            fh.write(text)
        _write_manifest(args.out, "forecast", args, [], [args.data], [args.out], t0)
    print(text, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def _training_parser(hp):
    """Parent parser of the training flags and --train-fraction. train
    passes Hyperparams() as the defaults; eval passes None, so a training
    flag it was not given stays None."""
    def default(field):
        return None if hp is None else getattr(hp, field)
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--epochs", type=int, default=default("epochs"))
    p.add_argument("--batch", type=int, default=default("batch_size"))
    p.add_argument("--lr", type=float, default=default("learning_rate"))
    p.add_argument("--seed", type=int, default=default("seed"))
    p.add_argument("--train-fraction", type=float, default=0.8)
    return p


def build_parser():
    p = argparse.ArgumentParser(
        prog="gridcast",
        description="Hybrid CNN-RNN one-step-ahead grid state forecaster")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="write a synthetic state series CSV")
    g.add_argument("--buses", type=int, default=14)
    g.add_argument("--length", type=int, default=2000)
    g.add_argument("--period", type=int, default=96)
    g.add_argument("--noise", type=float, default=5e-4,
                   help="magnitude noise std (p.u.)")
    g.add_argument("--angle-noise", type=float, default=2e-2,
                   help="angle noise std (degrees)")
    g.add_argument("--coupling", type=float, default=0.3)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", parents=[_training_parser(Hyperparams())],
                       help="train a forecaster on a dataset CSV")
    t.add_argument("--data", required=True)
    t.add_argument("--lag", type=int, default=10)
    t.add_argument("--model-out", required=True)
    t.add_argument("--report-out", default=None)
    t.add_argument("--baseline", choices=["hybrid", "rnn-only"], default="hybrid")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", parents=[_training_parser(None)],
                       help="evaluate a model (optionally retrain per run)")
    e.add_argument("--model", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--report-out", default=None)
    e.add_argument("--trace-out", default=None)
    e.add_argument("--runs", type=int, default=1)
    e.add_argument("--compare", default=None,
                   help="comma list of baselines: persistence,rnn-only")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
