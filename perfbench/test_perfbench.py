"""Tests of the benchmark itself: tiny workloads through the gate, the
self-time arithmetic, and that an altered output is counted as a failed op.

Run from the repository root: ``python -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import signal
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import geodin.cli  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS, Session  # noqa: E402

TINY = (
    "task.k=3",
    "task.d_in=4",
    "task.n_per_class=20",
    "task.concept_n_per_class=10",
    "train.hidden=8",
    "train.feature_dim=4",
    "train.epochs=2",
)


def tiny_session(name, tmp_path, seed=0):
    return Session(replace(WORKLOADS[name], sets=TINY), seed, tmp_path)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_passes_gate(name, tmp_path):
    session = tiny_session(name, tmp_path)
    entry_point = geodin.cli.main
    loop = run.Loop(session)
    loop.warm(0.0, min_ops=3)
    loop.cold_op()  # same seed as the first warm op: a fresh process must match it byte for byte
    assert loop.failures == []
    assert (len(loop.plain), len(loop.cold), loop.attempted) == (3, 1, 4)
    assert sorted(session.digests) == sorted(session.op_seeds)

    tracer = spans.Tracer()
    traced = run.Loop(session, tracer)
    traced.warm(0.0, min_ops=run.MIN_OPS)
    assert traced.failures == [] and len(traced.traced) == len(traced.plain) == run.MIN_OPS // 2
    metrics = spans.layer_metrics(tracer.spans, len(traced.traced), session.eval_rows())
    assert set(metrics) == set(spans.LAYER_METRICS)
    assert metrics["cli.main_self_ms"]["value"] > 0
    assert metrics["persist.fnv1a64_bytes"]["value"] > 0
    busy = {"train_small": "train.steps", "detect_wide": "bench.cells", "calibrate_wide": "calibrate.head_steps"}
    for other, metric in busy.items():
        assert (metrics[metric]["value"] > 0) == (other == name), metric
    assert geodin.cli.main is entry_point  # wrappers are removed after each traced op


def test_speed_scale_arithmetic():
    # Handler time comes off the wall time; a machine at half the reference speed halves the rest.
    summary = {"n": 4, "total_s": 0.1, "mean_s": 2 * speed.NOMINAL_S}
    assert speed.scale(1.1, summary) == pytest.approx(0.5)


def test_sampler_samples_inside_the_block_and_restores_the_timer():
    previous = signal.getsignal(signal.SIGALRM)
    sampler = speed.Sampler()
    with sampler.sampling():
        end = time.perf_counter() + 5 * speed.PERIOD_S
        while time.perf_counter() < end:
            pass
    summary = sampler.summary()
    assert summary["n"] >= 2 and summary["total_s"] > 0 and summary["mean_s"] > 0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    with sampler.sampling():
        pass  # shorter than a period: one pass is timed afterwards instead
    assert sampler.summary()["n"] == 0 and sampler.summary()["mean_s"] > 0


def test_cold_op_reports_its_speed_samples(tmp_path):
    session = tiny_session("train_small", tmp_path)
    elapsed, samples, failure = session.run_cold(session.op_seeds[0], HERE.parent / "src")
    assert failure is None
    assert samples["n"] >= 1 and samples["total_s"] < elapsed


def test_self_time_on_synthetic_span_tree():
    # [name, start, end, parent id, op id, attrs]
    tree = [
        ["root", 0, 100, None, 1, None],
        ["a", 10, 30, 0, 1, None],
        ["b", 20, 50, 0, 1, None],  # overlaps a: the union 10..50 counts once
        ["a.child", 12, 15, 1, 1, None],
        ["late", 90, 120, 0, 1, None],  # clipped to the parent's end
        ["other", 200, 260, None, 2, None],
    ]
    assert spans.self_times_ns(tree) == [100 - 40 - 10, 20 - 3, 30, 3, 30, 60]
    totals = spans._Totals(tree, n_ops=2)
    assert totals.self_ms("root") == pytest.approx(50 / 1e6 / 2)
    assert totals.count("a.child", parent="a") == 0.5
    assert totals.count("a.child", parent="root") == 0


def test_altered_output_counts_as_failed(tmp_path, monkeypatch):
    session = tiny_session("detect_wide", tmp_path)
    real_main = geodin.cli.main
    report = tmp_path / "report.csv"

    def main_then_alter(argv):
        rc = real_main(argv)
        if argv[argv.index("--seed") + 1] == str(session.op_seeds[0]):
            report.write_text(report.read_text().replace("0.", "0.0", 1))
        return rc

    # The first op of each seed sets its reference digests; op_seeds[0] had
    # its reference from an unaltered op before the alteration starts.
    assert session.run(session.op_seeds[0])[1] is None
    monkeypatch.setattr(geodin.cli, "main", main_then_alter)
    loop = run.Loop(session)
    loop.warm(0.0, min_ops=7)
    altered = [3, 6]  # ops whose seed is op_seeds[0]
    assert [f["op"] for f in loop.failures] == altered
    assert all("differ" in f["reason"] for f in loop.failures)
    assert len(loop.plain) == loop.attempted - len(altered) == 5


def test_gate_rejects_out_of_range_auroc(tmp_path):
    session = tiny_session("detect_wide", tmp_path)
    seed = session.op_seeds[1]
    assert session.run(seed)[1] is None
    lines = (tmp_path / "report.csv").read_text().splitlines()
    fields = lines[1].split(",")
    fields[3] = "1.5"
    (tmp_path / "report.csv").write_text("\n".join([lines[0], ",".join(fields), *lines[2:]]) + "\n")
    assert "outside [0, 1]" in session.check(seed, 0)


def test_benchmark_json_lists_every_reported_metric():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"] for m in doc["per_layer"]} == set(spans.LAYER_METRICS) | set(spans.EXTRA_METRICS)
    assert {m["name"] for m in doc["end_to_end"]} == {"ops_per_s", "op_p50_ms", "cold_op_ms", "setup_s", "peak_rss_mb"}
