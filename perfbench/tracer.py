"""In-memory span tracing of gridcast's public functions, from outside the package.

`Tracer.installed()` replaces every public function of the traced modules
(and `Normalizer.apply` / `Normalizer.invert`) with a wrapper that records
a span, in every gridcast module namespace that holds a reference to it, and
restores the originals on exit. A span is (id, name, start, end, parent span,
run id); the run id is the benchmark operation that caused it. Self time is a
span's duration minus the time its direct child spans cover.

Four kernels are split by batch class and carry a floating-point operation
count computed from their argument shapes; four I/O functions carry the size
of the file they read or wrote.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

from gridcast import cli, data_pipeline, evaluation, forecaster, layers, training

TRACED_MODULES = (layers, forecaster, training, data_pipeline, evaluation, cli)
TRACED_METHODS = ((data_pipeline.Normalizer, ("apply", "invert")),)


BATCH_CLASSES = ("b1", "b32", "bbig")


def batch_class(b):
    """Batch-size class of a kernel call: b1, b32 (2..32) or bbig (>32)."""
    if b == 1:
        return "b1"
    return "b32" if b <= 32 else "bbig"


def _conv_flop(x, w):
    b, c, r = x.shape
    k, _, kernel = w.shape
    return 2 * b * k * c * kernel * (r - kernel + 1)


def _rnn_flop(x, layer_params):
    b, _, r = x.shape
    return sum(2 * b * r * wh.shape[0] * (wx.shape[1] + wh.shape[0])
               for wx, wh, _ in layer_params)


# name -> (batch size, flop) from the call's arguments. A backward pass does
# two products of the forward's size: weight gradient and input gradient.
KERNELS = {
    "layers.conv1d_forward": lambda a: (a[0].shape[0], _conv_flop(a[0], a[1])),
    "layers.conv1d_backward": lambda a: (a[1].shape[0], 2 * _conv_flop(a[0][0], a[0][1])),
    "layers.stacked_rnn_forward": lambda a: (a[0].shape[0], _rnn_flop(a[0], a[1])),
    "layers.stacked_rnn_backward": lambda a: (a[1].shape[0], 2 * _rnn_flop(a[0][0], a[0][1])),
}

# name -> index of the path argument whose file size is recorded after the call
IO_FUNCTIONS = {
    "forecaster.save_model": 1,
    "forecaster.load_model": 0,
    "data_pipeline.save_series": 1,
    "data_pipeline.load_series": 0,
}


class Tracer:
    def __init__(self):
        # span: [id, name, start, end, parent, run_id, self_s, bclass, flop, bytes]
        self.spans = []
        self._stack = []  # [span id, seconds covered by direct children]
        self.run_id = None

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        kernel = KERNELS.get(name)
        io_arg = IO_FUNCTIONS.get(name)

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else None
            stack.append([sid, 0.0])
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                _, covered = stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                bclass = flop = nbytes = None
                if kernel is not None:
                    b, flop = kernel(args)
                    bclass = batch_class(b)
                elif io_arg is not None:
                    path = args[io_arg] if len(args) > io_arg else kwargs.get("path")
                    with contextlib.suppress(OSError):
                        nbytes = os.path.getsize(path)
                spans[sid] = [sid, name, t0, t1, parent, self.run_id,
                              (t1 - t0) - covered, bclass, flop, nbytes]

        return wrapper

    def _targets(self):
        """(owner, attribute, span name, original) for every traced callable."""
        for mod in TRACED_MODULES:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, fn in inspect.getmembers(mod, inspect.isfunction):
                if not attr.startswith("_") and fn.__module__ == mod.__name__:
                    yield mod, attr, f"{short}.{attr}", fn
        for cls, methods in TRACED_METHODS:
            short = cls.__module__.rsplit(".", 1)[-1]
            for attr in methods:
                yield cls, attr, f"{short}.{cls.__name__}.{attr}", cls.__dict__[attr]

    @contextlib.contextmanager
    def installed(self):
        """Trace every public function while the block runs, then restore."""
        namespaces = [m for name, m in list(sys.modules.items())
                      if name == "gridcast" or name.startswith("gridcast.")]
        patched = []
        for owner, attr, name, fn in self._targets():
            wrapper = self._wrap(name, fn)
            setattr(owner, attr, wrapper)
            patched.append((owner, attr, fn))
            if inspect.ismodule(owner):
                # names imported with `from .x import f` are separate bindings
                for ns in namespaces:
                    for other, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, other, wrapper)
                            patched.append((ns, other, fn))
        try:
            yield self
        finally:
            for owner, attr, fn in reversed(patched):
                setattr(owner, attr, fn)

    def top_level_seconds(self):
        return sum(s[3] - s[2] for s in self.spans if s is not None and s[4] is None)

    def aggregate(self):
        """{(name, bclass or None): {"calls", "self_s", "gflop", "mbytes"}}."""
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "gflop": 0.0, "mbytes": 0.0})
        for s in self.spans:
            if s is None:
                continue
            agg = out[(s[1], s[7])]
            agg["calls"] += 1
            agg["self_s"] += s[6]
            if s[8] is not None:
                agg["gflop"] += s[8] / 1e9
            if s[9] is not None:
                agg["mbytes"] += s[9] / 1e6
        return out

    def write_jsonl(self, path):
        keys = ("id", "name", "start", "end", "parent", "run_id")
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                if s is not None:
                    fh.write(json.dumps(dict(zip(keys, s[:6]))) + "\n")
