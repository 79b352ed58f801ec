"""Outside-in layer tracing for the geodin benchmark.

The tracer wraps geodin's public functions where they are looked up: a name
brought in with ``from .x import y`` is patched in the importing module, so
``cli.train`` and ``train.loss_and_grads`` are wrapped, not ``geodin.train``
(which, as a package attribute, is the ``train`` function, not the module).
Spans live in memory as ``[name, start_ns, end_ns, parent id, op id, attrs]``
and are written out once the run ends.  Nothing under ``src/`` changes, and
the wrappers are installed only around traced ops.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _rows(index=1):
    return lambda args, result: {"rows": len(args[index])}


def _data_rows(args, result):
    return {"rows": len(args[0][0])}  # corrupt((X, y), spec, seed)


def _extractor_work(args, result):
    # Multiply-adds of the dense layers, counted from shapes (bias and ReLU ignored).
    params, X = args
    macs = sum(W.size for W, _ in params.layers)
    return {"rows": len(X), "mflop": 2.0 * len(X) * macs / 1e6}


def _file_bytes(index):
    return lambda args, result: {"bytes": os.path.getsize(args[index])}


# (module, attribute looked up at call time, span name, attrs(args, result) or None)
PATCHES = (
    ("geodin.cli", "main", "cli.main", None),
    ("geodin.cli", "load_run_config", "config.load_run_config", None),
    ("geodin.cli", "train", "train.train", None),
    ("geodin.cli", "make_task", "bench.make_task", None),
    ("geodin.cli", "make_concept_groups", "bench.make_concept_groups", None),
    ("geodin.cli", "sweep", "bench.sweep", lambda args, result: {"cells": len(result.rows)}),
    ("geodin.cli", "corrupt", "bench.corrupt", _data_rows),
    ("geodin.cli", "calibrate", "calibrate.calibrate", None),
    ("geodin.cli", "load_model", "persist.load_model", _file_bytes(0)),
    ("geodin.cli", "save_model", "persist.save_model", _file_bytes(1)),
    ("geodin.cli", "write_report", "persist.write_report", None),
    ("geodin.train", "loss_and_grads", "train.loss_and_grads", None),
    ("geodin.train", "extractor_forward", "train.extractor_forward", _extractor_work),
    ("geodin.train", "extractor_backward", "train.extractor_backward", None),
    ("geodin.train", "head_forward_batch", "head.forward_batch", None),
    ("geodin.train", "head_backward_batch", "head.backward_batch", None),
    ("geodin.train", "softmax_cross_entropy_batch", "head.softmax_ce", None),
    ("geodin.calibrate", "head_forward_batch", "head.forward_batch", None),
    ("geodin.calibrate", "head_backward_batch", "head.backward_batch", None),
    ("geodin.calibrate", "softmax_cross_entropy_batch", "head.softmax_ce", None),
    ("geodin.calibrate", "split_metrics", "calibrate.split_metrics", None),
    ("geodin.calibrate", "extract_features", "calibrate.extract_features", _rows()),
    ("geodin.bench", "score_batch", "scores.score_batch", _rows(0)),
    ("geodin.bench", "auroc", "bench.auroc", None),
    ("geodin.bench", "tnr_at_tpr95", "bench.tnr_at_tpr95", None),
    ("geodin.bench", "corrupt", "bench.corrupt", _data_rows),
    ("geodin.persist", "fnv1a64", "persist.fnv1a64", lambda args, result: {"bytes": len(args[0])}),
)

NAME, START, END, PARENT, OP, ATTRS = range(6)


class Tracer:
    """In-memory span recorder around calls into geodin's modules."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None

    def _wrap(self, name, fn, attrs):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else None, self._op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter_ns()
                stack.pop()
            if attrs is not None:
                span[ATTRS] = attrs(args, result)
            return result

        return traced

    @contextmanager
    def tracing(self, op):
        """Install every wrapper for the duration of one op, then restore."""
        saved = []
        self._op = op
        try:
            for module, attr, name, attrs in PATCHES:
                mod = sys.modules[module]
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self._wrap(name, original, attrs))
            yield
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)
            self._op = None

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, op, attrs) in enumerate(self.spans):
                doc = {"id": sid, "name": name, "start_ns": start, "end_ns": end, "parent": parent, "op": op}
                doc.update(attrs or {})
                fh.write(json.dumps(doc) + "\n")


def self_times_ns(spans) -> list[int]:
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for sid, span in enumerate(spans):
        lo, hi = span[START], span[END]
        covered = 0
        run_start = run_end = None
        for a, b in sorted(children[sid]):
            a, b = max(a, lo), min(b, hi)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out.append(hi - lo - covered)
    return out


class _Totals:
    """Per-name sums over a span list, normalised per op."""

    def __init__(self, spans, n_ops):
        self.n = max(n_ops, 1)
        self.ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.attrs = defaultdict(float)
        for span, own in zip(spans, self_times_ns(spans)):
            name = span[NAME]
            self.ns[name] += span[END] - span[START]
            self.self_ns[name] += own
            self.calls[name] += 1
            parent = span[PARENT]
            if parent is not None:
                self.calls[(name, spans[parent][NAME])] += 1
            for key, value in (span[ATTRS] or {}).items():
                self.attrs[(name, key)] += value

    def ms(self, name):
        return self.ns[name] / 1e6 / self.n

    def self_ms(self, name):
        return self.self_ns[name] / 1e6 / self.n

    def count(self, name, parent=None):
        return self.calls[name if parent is None else (name, parent)] / self.n

    def attr(self, name, key):
        return self.attrs[(name, key)] / self.n


def _ratio(num, den):
    return num / den if den else 0.0


# What each layer metric should move, on which workload (written before measuring).
CLI = "op_p50_ms on all three workloads, slightly"
SGD = "ops_per_s on train_small; nothing on detect_wide"
EXTRACT = "ops_per_s on detect_wide most"
HEAD = "train_small and calibrate_wide; detect_wide unchanged"
SWEEP = "detect_wide only; not train_small"
CALIB = "calibrate_wide only"
PERSIST = "detect_wide and calibrate_wide; barely train_small"

# name -> (unit, value from the per-op totals t and the distinct eval rows, what it should move)
LAYER_METRICS = {
    "cli.main_self_ms": ("ms", lambda t, r: t.self_ms("cli.main"), CLI),
    "config.load_run_config_ms": ("ms", lambda t, r: t.ms("config.load_run_config"), CLI),
    "train.train_self_ms": ("ms", lambda t, r: t.self_ms("train.train"), SGD),
    "train.steps": ("count", lambda t, r: t.count("train.loss_and_grads"), SGD),
    "train.step_us": ("us", lambda t, r: 1e3 * _ratio(t.ms("train.train"), t.count("train.loss_and_grads")), SGD),
    "train.loss_and_grads_self_ms": ("ms", lambda t, r: t.self_ms("train.loss_and_grads"), SGD),
    "train.extractor_backward_ms": ("ms", lambda t, r: t.ms("train.extractor_backward"), SGD),
    "train.extractor_forward_ms": ("ms", lambda t, r: t.ms("train.extractor_forward"), EXTRACT),
    "train.extractor_forward_rows": ("count", lambda t, r: t.attr("train.extractor_forward", "rows"), EXTRACT),
    "train.extractor_forward_mflop": ("MFLOP", lambda t, r: t.attr("train.extractor_forward", "mflop"),
                                      "ops_per_s on detect_wide most (computed from shapes)"),
    "head.forward_batch_ms": ("ms", lambda t, r: t.ms("head.forward_batch"), HEAD),
    "head.forward_batch_calls": ("count", lambda t, r: t.count("head.forward_batch"), HEAD),
    "head.backward_batch_ms": ("ms", lambda t, r: t.ms("head.backward_batch"), HEAD),
    "head.backward_batch_calls": ("count", lambda t, r: t.count("head.backward_batch"), HEAD),
    "head.softmax_ce_ms": ("ms", lambda t, r: t.ms("head.softmax_ce"), HEAD),
    "scores.score_batch_ms": ("ms", lambda t, r: t.ms("scores.score_batch"), SWEEP),
    "scores.score_batch_rows": ("count", lambda t, r: t.attr("scores.score_batch", "rows"), SWEEP),
    "bench.sweep_self_ms": ("ms", lambda t, r: t.self_ms("bench.sweep"), SWEEP),
    "bench.cells": ("count", lambda t, r: t.attr("bench.sweep", "cells"), SWEEP),
    "bench.auroc_ms": ("ms", lambda t, r: t.ms("bench.auroc"), SWEEP),
    "bench.auroc_calls": ("count", lambda t, r: t.count("bench.auroc"), SWEEP),
    "bench.tnr_at_tpr95_ms": ("ms", lambda t, r: t.ms("bench.tnr_at_tpr95"), SWEEP),
    "bench.corrupt_ms": ("ms", lambda t, r: t.ms("bench.corrupt"), SWEEP),
    "bench.corrupt_rows": ("count", lambda t, r: t.attr("bench.corrupt", "rows"), SWEEP),
    "bench.make_task_ms": ("ms", lambda t, r: t.ms("bench.make_task"), SWEEP),
    "bench.make_concept_groups_ms": ("ms", lambda t, r: t.ms("bench.make_concept_groups"), SWEEP),
    "calibrate.calibrate_self_ms": ("ms", lambda t, r: t.self_ms("calibrate.calibrate"), CALIB),
    "calibrate.head_steps": ("count", lambda t, r: t.count("head.backward_batch", "calibrate.calibrate"), CALIB),
    "calibrate.split_metrics_ms": ("ms", lambda t, r: t.ms("calibrate.split_metrics"), CALIB),
    "calibrate.feature_recompute_ratio": (
        "ratio", lambda t, r: _ratio(t.attr("calibrate.extract_features", "rows"), r),
        "calibrate_wide only (rows through extract_features per distinct val+test row; >1 is recompute)"),
    "persist.fnv1a64_ms": ("ms", lambda t, r: t.ms("persist.fnv1a64"), PERSIST),
    "persist.fnv1a64_bytes": ("B", lambda t, r: t.attr("persist.fnv1a64", "bytes"), PERSIST),
    "persist.fnv1a64_ns_per_byte": ("ns/B", lambda t, r: 1e6 * _ratio(t.ms("persist.fnv1a64"),
                                                                     t.attr("persist.fnv1a64", "bytes")),
                                    PERSIST),
    "persist.load_model_ms": ("ms", lambda t, r: t.ms("persist.load_model"), PERSIST),
    "persist.save_model_ms": ("ms", lambda t, r: t.ms("persist.save_model"), PERSIST),
    "persist.checkpoint_bytes": ("B", lambda t, r: t.attr("persist.load_model", "bytes")
                                 + t.attr("persist.save_model", "bytes"),
                                 PERSIST),
    "persist.write_report_ms": ("ms", lambda t, r: t.ms("persist.write_report"), PERSIST),
}

# Measured outside the span tree; listed here so the mapping is in one place.
EXTRA_METRICS = {
    "cli.import_ms": ("ms", "cold_op_ms on all three workloads (fresh `import geodin.cli`)"),
    "trace.overhead_ratio": ("ratio", "none: traced op time over untraced op time"),
}


def layer_metrics(spans, n_ops: int, eval_rows: int) -> dict:
    """Every LAYER_METRICS value, per traced op."""
    totals = _Totals(spans, n_ops)
    return {name: {"value": fn(totals, eval_rows), "unit": unit} for name, (unit, fn, _) in LAYER_METRICS.items()}


def layer_shares(spans) -> dict:
    """Self time of each module's spans as a share of all traced cli.main time."""
    own = self_times_ns(spans)
    total = sum(s[END] - s[START] for s in spans if s[NAME] == "cli.main")
    shares = defaultdict(int)
    for span, ns in zip(spans, own):
        shares[span[NAME].split(".", 1)[0]] += ns
    return {layer: round(_ratio(ns, total), 4) for layer, ns in sorted(shares.items())}


def metric_map() -> dict:
    """Which end-to-end metric each layer metric should move, on which workload."""
    doc = {name: moves for name, (_, _, moves) in LAYER_METRICS.items()}
    doc.update({name: moves for name, (_, moves) in EXTRA_METRICS.items()})
    return doc
