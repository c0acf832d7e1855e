#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of gridcast, driven through its public
entry points: `gridcast.cli.main([...])` in-process, and
`forecaster.forecast_next` for the online loop.

Run from the repository root:

    python3 perfbench/run.py --workload protocol-14 --seed 1 --seconds 56 --trace 0

Each workload is one user session of the CLI path at one scale, and every
workload reports every end-to-end metric. Set-up writes a synthetic state
series (noise drawn from `--seed`) as CSV; the program sees only the CSV.
Then rounds of

    gridcast train (hybrid), then SLOTS times:
        gridcast train --baseline rnn-only
        ->  gridcast eval --compare persistence --trace-out
        ->  cold `gridcast forecast --at-instance` commands
        ->  a closed loop of forecast_next over successive instances (B=1)

repeat while half a mean round still fits in `--seconds`, and until at least
MIN_FORECAST_SAMPLES forecast latencies are collected. The slots spread each
kind of operation over the round, so that no metric rests on one stretch of
the run. The train commands read the first `history` instances; eval and
forecast read the whole series. Timings are medians over the run's
operations; `setup_s` is the median of SETUP_REPEATS set-ups. Every
operation's output is checked, and a failed check counts the operation as
failed.

With `--trace 1` the same rounds run once untraced and once with every
public function of layers, forecaster, training, data_pipeline, evaluation
and cli wrapped in a span (see tracer.py); per-layer metrics come from the
traced pass. BLAS threading is left at the machine's default and recorded.

The last stdout line is the JSON result; the full result, with the machine
block, is also written under perfbench/.runs/.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gridcast import cli, data_pipeline, forecaster  # noqa: E402

from tracer import BATCH_CLASSES, IO_FUNCTIONS, KERNELS, Tracer  # noqa: E402

RUNS_DIR = Path(__file__).resolve().parent / ".runs"
SETUP_REPEATS = 7
# forecast_next latency p50 is the metric. p90 and p99 (50 and 5 samples
# beyond them at the minimum) are printed and kept in the result file but are
# not metrics: on a shared host the tail of a 0.5-7 ms call follows the host's
# preemptions, and in ten-run sets their spread ran to 0.19 (p90) and 0.9-2.3
# (p99) of their median
MIN_FORECAST_SAMPLES = 500
SLOTS = 3  # per round, see Workload
BATCH = 32
LAG = 10
GRID_SEED = 0  # the `gridcast gen-data` default
TRAIN_FRACTION = 0.8  # train and eval split each series here; the test partition is the rest
MATCH_RTOL = 1e-9


@dataclasses.dataclass(frozen=True)
class Workload:
    why: str
    buses: int
    length: int          # instances in the series eval and forecast read
    history: int         # leading instances the train commands read
    epochs: int
    # per round: one hybrid train, then SLOTS slots; RNN-only trains and evals
    # run in the first slots, one each, and every slot runs the given counts
    # of the short operations, so each median rests on more samples
    rnn_only_trains: int
    evals: int
    forecast_cmds: int   # cold `gridcast forecast` commands per slot
    forecast_calls: int  # forecast_next calls per slot
    beats_persistence: bool = False


WORKLOADS = {
    "protocol-14": Workload(
        why="14-bus session on the paper protocol: 15-epoch hybrid and RNN-only trains in "
            "B=32 batches take most time, so RNN time loop, Adam and per-call overhead dominate",
        buses=14, length=2000, history=2000, epochs=15,
        rnn_only_trains=2, evals=3, forecast_cmds=3, forecast_calls=500,
        beats_persistence=True),
    "ref-118": Workload(
        why="118-bus session: one-epoch trains on a 200-instance prefix (conv GEMMs, 16 MB "
            "model save), then serving a 600-instance series (model load, CSV parse, B=1 forward)",
        buses=118, length=600, history=200, epochs=1,
        rnn_only_trains=3, evals=2, forecast_cmds=1, forecast_calls=40),
}

# name -> (unit, better); the end-to-end metrics every workload reports
END_TO_END = {
    "setup_s": ("s", "lower"),
    "train_windows_per_s": ("windows/s", "higher"),
    "train_rnn_only_windows_per_s": ("windows/s", "higher"),
    "forecast_p50_ms": ("ms", "lower"),
    "forecast_cmd_s": ("s", "lower"),
    "eval_s": ("s", "lower"),
    "test_nrmse": ("ratio", "lower"),
    "test_nrmse_rnn_only": ("ratio", "lower"),
    "nrmse_vs_persistence": ("ratio", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

KERNEL_STATS = (("calls", "count"), ("self_s", "s"), ("gflop", "GFLOP_computed"))
GLUE_STATS = (("calls", "count"), ("self_s", "s"))
IO_STATS = (("calls", "count"), ("self_s", "s"), ("mbytes", "MB"))
GLUE_FUNCTIONS = (
    "layers.dense_forward", "layers.dense_backward",
    "layers.maxpool_forward", "layers.maxpool_backward",
    "forecaster.model_forward", "forecaster.model_backward",
    "forecaster.forecast_next", "forecaster.forecast_batch",
    "training.adam_step", "training.joint_loss_and_grad",
    "training.train", "training.fit_forecaster",
    "data_pipeline.build_windows",
    "data_pipeline.Normalizer.apply", "data_pipeline.Normalizer.invert",
    "evaluation.evaluate_predictions", "evaluation.export_trace_csv",
    "cli.cmd_train", "cli.cmd_eval", "cli.cmd_forecast",
)
def per_layer_specs():
    """(metric name, span name, batch class, stat, unit) for --trace 1."""
    specs = []
    for fn in KERNELS:
        for bc in BATCH_CLASSES:
            specs += [(f"{fn}.{bc}.{st}", fn, bc, st, u) for st, u in KERNEL_STATS]
    specs += [(f"{fn}.{st}", fn, None, st, u) for fn in GLUE_FUNCTIONS for st, u in GLUE_STATS]
    specs += [(f"{fn}.{st}", fn, None, st, u) for fn in IO_FUNCTIONS for st, u in IO_STATS]
    specs += [("trace.untraced_s", None, None, None, "s"),
              ("trace.overhead_s", None, None, None, "s")]
    return specs


# ---------------------------------------------------------------------------
# machine / provenance
# ---------------------------------------------------------------------------

def blas_threads():
    """Effective OpenBLAS thread count of this process, or None if unknown."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def machine_info(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def rel_close(a, b, rtol=MATCH_RTOL):
    """Max abs difference within rtol of the larger vector's max magnitude."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), np.finfo(float).tiny)
    return float(np.max(np.abs(a - b))) <= rtol * scale


def parse_table(text):
    """method -> overall nRMSE from `gridcast eval`'s comparison table."""
    return {row.split()[0]: float(row.split()[5]) for row in text.splitlines()[2:] if row.strip()}


def parse_forecast(path):
    for line in Path(path).read_text().splitlines():
        if line.startswith("forecast,"):
            return np.array([float(c) for c in line.split(",")[2:]])
    raise ValueError(f"no forecast row in {path}")


class Session:
    """Inputs, outputs and tallies of one workload run in one directory."""

    def __init__(self, wl: Workload, seed, work: Path, tracer=None):
        self.wl, self.seed, self.work, self.tracer = wl, seed, work, tracer
        self.stream = str(work / "stream.csv")
        self.history = str(work / "history.csv")
        self.values = None
        self.cursor = 0
        self.attempted = 0
        self.failures = []
        self.samples = {name: [] for name in END_TO_END}
        self.forecast_lat_ms = []

    # -- bookkeeping -------------------------------------------------------

    def _op(self, label):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.run_id = f"{label}#{self.attempted}"

    def fail(self, message):
        self.failures.append(message)
        print(f"check failed: {message}", file=sys.stderr)

    def cli(self, label, argv):
        """Run one `gridcast` command in-process; returns (ok, wall seconds)."""
        self._op(label)
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed operation
            rc = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        if rc != 0:
            self.fail(f"{label}: exit {rc}: {err.getvalue().strip()[:300]}")
        return rc == 0, wall

    # -- set-up ----------------------------------------------------------------

    def setup(self):
        """Write the series CSV and its training prefix; returns seconds.

        The grid (per-bus amplitudes, phases and angle offsets) is the
        generator's seed-GRID_SEED grid for every run; `--seed` draws the
        measurement noise, with the generator's default noise model. nRMSE
        divides by the norm of the true states, which the random angle
        offsets of a freshly drawn 14-bus grid move by tens of percent.
        """
        t0 = time.perf_counter()
        wl = self.wl
        cfg = data_pipeline.SyntheticConfig(n_buses=wl.buses, length=wl.length)
        clean = data_pipeline.generate_synthetic_series(dataclasses.replace(
            cfg, noise_std_magnitude=0.0, noise_std_angle=0.0, seed=GRID_SEED))
        std = np.repeat([cfg.noise_std_magnitude, cfg.noise_std_angle], wl.buses)
        noise = np.random.default_rng(self.seed).standard_normal(clean.values.shape) * std
        series = data_pipeline.StateSeries(wl.buses, clean.values + noise)
        data_pipeline.save_series(series, self.stream)
        data_pipeline.save_series(series.slice(0, wl.history), self.history)
        self.values = series.values
        return time.perf_counter() - t0

    # -- one round ---------------------------------------------------------

    @property
    def first_test_instance(self):
        """1-based target instance of the first window eval scores."""
        return int(np.floor(self.wl.length * TRAIN_FRACTION)) + LAG + 1

    def next_window(self):
        """(1-based target instance, raw window) of the next successive instance,
        cycling over the test partition: the states the model was not fitted on."""
        first = self.first_test_instance
        i = first + self.cursor % (self.wl.length + 1 - first)
        self.cursor += 1
        return i, self.values[i - 1 - LAG:i - 1].T

    def train(self, seed, baseline):
        model = str(self.work / f"{baseline}.json")
        ok, wall = self.cli(f"train-{baseline}", [
            "train", "--data", self.history, "--model-out", model, "--lag", str(LAG),
            "--epochs", str(self.wl.epochs), "--batch", str(BATCH),
            "--train-fraction", str(TRAIN_FRACTION), "--seed", str(seed), "--baseline", baseline])
        if not ok:
            return None
        report = json.loads(Path(model + ".report.json").read_text())
        if not np.isfinite(report["test_nrmse"]):
            self.fail(f"train-{baseline}: non-finite test nRMSE {report['test_nrmse']}")
            return None
        key = "train" if baseline == "hybrid" else "train_rnn_only"
        self.samples[f"{key}_windows_per_s"].append(
            self.wl.epochs * report["n_train_samples"] / wall)
        self.samples["test_nrmse" if baseline == "hybrid" else "test_nrmse_rnn_only"].append(
            report["test_nrmse"])
        return model

    def evaluate(self, model):
        report, trace = str(self.work / "eval.txt"), str(self.work / "trace.csv")
        ok, wall = self.cli("eval", [
            "eval", "--model", model, "--data", self.stream, "--compare", "persistence",
            "--train-fraction", str(TRAIN_FRACTION), "--report-out", report, "--trace-out", trace])
        if not ok:
            return
        self.samples["eval_s"].append(wall)
        nrmse = parse_table(Path(report).read_text())
        ratio = nrmse["hybrid"] / nrmse["persistence"]
        self.samples["nrmse_vs_persistence"].append(ratio)
        if self.wl.beats_persistence and not ratio < 1.0:
            self.fail(f"eval: hybrid/persistence nRMSE {ratio:.4f} is not below 1")
        n_test = self.wl.length + 1 - self.first_test_instance
        with open(trace, encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != n_test * self.wl.buses:
            self.fail(f"eval: trace has {rows} rows, expected {n_test * self.wl.buses}")

    def check_forecast(self, label, pred):
        pred = np.asarray(pred)
        if pred.shape != (2 * self.wl.buses,) or not np.isfinite(pred).all():
            self.fail(f"{label}: forecast shape {pred.shape} or non-finite values")
            return False
        return True

    def forecast_commands(self, model_path, model):
        out = str(self.work / "forecast.csv")
        for _ in range(self.wl.forecast_cmds):
            i, window = self.next_window()
            ok, wall = self.cli("forecast", [
                "forecast", "--model", model_path, "--data", self.stream,
                "--at-instance", str(i), "--out", out])
            if not ok:
                continue
            self.samples["forecast_cmd_s"].append(wall)
            pred = parse_forecast(out)
            if self.check_forecast("forecast", pred) and not np.array_equal(
                    pred, forecaster.forecast_next(model, window)):
                self.fail(f"forecast: command output at instance {i} != forecast_next")

    def forecast_loop(self, model, windows, preds):
        """Closed loop: one caller, next instance only after the last forecast.
        Adds to windows (instance -> window) and preds ((instance, forecast))."""
        for _ in range(self.wl.forecast_calls):
            i, window = self.next_window()
            self._op("forecast_next")
            try:
                t0 = time.perf_counter()
                pred = forecaster.forecast_next(model, window)
                dt = time.perf_counter() - t0
            except Exception as exc:  # a crash is a failed operation
                self.fail(f"forecast_next: {type(exc).__name__}: {exc}")
                continue
            self.forecast_lat_ms.append(1e3 * dt)
            if self.check_forecast("forecast_next", pred):
                windows[i] = window
                preds.append((i, pred))

    def check_batch(self, model, windows, preds):
        """One batch over the distinct windows forecast this round, in instance order."""
        self._op("forecast_batch-check")
        order = sorted(windows)
        batch = forecaster.forecast_batch(model, np.stack([windows[i] for i in order]))
        row = {i: k for k, i in enumerate(order)}
        bad = [i for i, pred in preds if not rel_close(batch[row[i]], pred)]
        if bad:
            self.fail(f"forecast_batch of {len(order)} windows differs from forecast_next "
                      f"at {len(set(bad))} instances, first {min(bad)}")

    def round(self, round_no):
        try:
            self._round(round_no)
        except Exception as exc:  # an unreadable output fails the round, not the run
            self.fail(f"round {round_no}: {type(exc).__name__}: {exc}")

    def _round(self, round_no):
        wl = self.wl
        hybrid = self.train(round_no, "hybrid")
        model = None if hybrid is None else forecaster.load_model(hybrid)
        windows, preds = {}, []
        for k in range(SLOTS):
            if k < wl.rnn_only_trains:
                self.train(round_no * SLOTS + k, "rnn-only")
            if model is None:
                continue
            if k < wl.evals:
                self.evaluate(hybrid)
            self.forecast_commands(hybrid, model)
            self.forecast_loop(model, windows, preds)
        if windows:
            self.check_batch(model, windows, preds)


def fresh_dir(path: Path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def another_round(t0, rounds, seconds):
    """Whether to start another round: at least half a round's mean time is left,
    so whole rounds fill `seconds` on average."""
    if rounds == 0:
        return True
    elapsed = time.perf_counter() - t0
    return elapsed + 0.5 * elapsed / rounds <= seconds


def timed_run(wl, seed, seconds, work):
    """--trace 0: median set-up, then whole rounds that fill the time."""
    s = Session(wl, seed, fresh_dir(work / "timed"))
    setup = [s.setup() for _ in range(SETUP_REPEATS)]
    t0 = time.perf_counter()
    rounds = 0
    while rounds == 0 or len(s.forecast_lat_ms) < MIN_FORECAST_SAMPLES \
            or another_round(t0, rounds, seconds):
        s.round(rounds)
        rounds += 1
    lat = np.array(s.forecast_lat_ms)
    values = {name: statistics.median(v) for name, v in s.samples.items() if v}
    values.update(
        setup_s=statistics.median(setup),
        forecast_p50_ms=float(np.percentile(lat, 50)) if lat.size else None,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    metrics = {name: {"value": values.get(name), "unit": unit}
               for name, (unit, _) in END_TO_END.items()}
    extra = {"rounds": rounds, "measured_s": time.perf_counter() - t0,
             "forecast_samples": int(lat.size),
             **{f"forecast_p{q}_ms": float(np.percentile(lat, q)) if lat.size else None
                for q in (90, 99)},
             "setup_runs_s": setup, "samples": s.samples}
    return s, metrics, extra


def traced_run(wl, seed, seconds, work):
    """--trace 1: the same rounds untraced, then traced; per-layer metrics."""
    plain = Session(wl, seed, fresh_dir(work / "plain"))
    t0 = time.perf_counter()
    plain.setup()
    rounds = 0
    while another_round(t0, rounds, seconds / 2):
        plain.round(rounds)
        rounds += 1
    plain_wall = time.perf_counter() - t0

    tracer = Tracer()
    s = Session(wl, seed, fresh_dir(work / "traced"), tracer)
    with tracer.installed():
        t0 = time.perf_counter()
        s.setup()
        for k in range(rounds):
            s.round(k)
        traced_wall = time.perf_counter() - t0
    s.attempted += plain.attempted
    s.failures = plain.failures + s.failures

    agg = tracer.aggregate()
    metrics = {}
    for metric, span, bclass, stat, unit in per_layer_specs():
        if span is not None:
            entry = agg.get((span, bclass))
            value = entry[stat] if entry else 0
        elif metric == "trace.untraced_s":
            value = traced_wall - tracer.top_level_seconds()
        else:
            value = traced_wall - plain_wall
        metrics[metric] = {"value": value, "unit": unit}
    tracer.write_jsonl(work / "spans.jsonl")
    extra = {"rounds": rounds, "untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
             "spans": len(tracer.spans), "spans_file": str(work / "spans.jsonl")}
    return s, metrics, extra


def run_workload(wl, seed, seconds, trace, work):
    """Returns the result dict; its first four keys are the printed contract."""
    s, metrics, extra = (traced_run if trace else timed_run)(wl, seed, seconds, work)
    failed = len(s.failures)
    return {
        "correct": failed == 0,
        "attempted": s.attempted,
        "failed": failed,
        "metrics": metrics,
        "error_rate": failed / s.attempted,
        "failures": s.failures[:50],
        **extra,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description="gridcast end-to-end / per-layer benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if Path(cli.__file__).resolve().parent != ROOT / "src" / "gridcast":
        print(f"error: gridcast imported from {cli.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    RUNS_DIR.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload]
    result = run_workload(wl, args.seed, args.seconds, args.trace,
                          RUNS_DIR / f"work-{args.workload}")
    result = {"workload": args.workload, "machine": machine_info(args.seed), **result}
    out = RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")

    print(f"machine {json.dumps(result['machine'])}")
    print(f"workload {args.workload}: attempted {result['attempted']}, failed "
          f"{result['failed']}, error_rate {result['error_rate']:.4g}, rounds {result['rounds']}"
          + (f", forecast samples {result['forecast_samples']}, not gated: forecast_p90_ms "
             f"{result['forecast_p90_ms']:.4g}, forecast_p99_ms {result['forecast_p99_ms']:.4g}"
             if result.get("forecast_samples") else ""))
    for name, m in result["metrics"].items():
        print(f"  {name:<44} {m['value']!s:>24} {m['unit']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
