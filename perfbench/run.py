"""Benchmark of the geodin command line.

One closed-loop client with no other load drives the public entry point
``geodin.cli.main(argv)``: it sends the next command only when the previous
one has returned.  Run from the repository root:

    python3 perfbench/run.py --workload train_small --seed 0 --seconds 10 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics: warm commands per
second and their median latency, the median latency of the same command as a
fresh ``python -m geodin.cli`` process, set-up time (interpreter start to the
first timed op, median of several fresh processes) and the peak RSS of the
workload's process.  ``--seconds`` is the wall time of the warm ops; the cold
ops and the set-ups come on top.  The times are rescaled to a reference
machine speed sampled while they ran (speed.py), so that runs on a shared
host whose speed drifts still agree; the raw wall times are in the record.
With ``--trace 1`` it reports per-layer metrics from spans recorded around
calls into geodin's modules (see spans.py), timed raw.  Every op passes the
correctness gate in workloads.py or counts as failed.

The last line of standard output is the result object; the full record
(environment, latencies, output digests, metric map) is printed before it
and written to ``.perfbench_out/``, with the spans of a traced run.  The
program is imported from ``src/`` of the checkout; nothing is installed.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import NOMINAL_S, PERIOD_S, Sampler, scale

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("train_small", "detect_wide", "calibrate_wide")

MIN_OPS = 4  # timed ops per traced run, even when --seconds is shorter
WORKERS = 3  # fresh processes per untraced run; each is set up, then takes a third of the ops
# Each worker process, and every process it starts, runs on one CPU with one
# BLAS thread.  On a shared host the CPUs' speeds differ from moment to moment
# (by up to 1.6x between the two vCPUs of the VM this was tuned on), so a BLAS
# helper thread on another CPU runs at a speed the reference sampler
# (speed.py), which runs on the main thread, does not see.  Workers take the
# CPUs in turn.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
COLD_OPS = 2  # fresh-process ops per worker, one before each half of its warm ops
IMPORT_RUNS = 3  # fresh `import geodin.cli` samples per traced run
CHILD_TIMEOUT_S = 170


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: the run re-executes this file as the worker processes it measures.
    p.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    return p.parse_args(argv)


# --- measurement, inside the workload's process ------------------------------


class Loop:
    """One closed-loop client: the next op starts when the previous one ends.

    Every op passes the gate before its time counts.  Each op's wall time is
    rescaled to reference machine speed (speed.py); the raw wall times are
    kept too.  Traced, ops alternate untraced/traced, so the two medians give
    the tracing overhead; traced runs time ops raw, since the sampler's
    handler would land in the spans.
    """

    def __init__(self, session, tracer=None):
        self.session, self.tracer = session, tracer
        self.sampler = Sampler() if tracer is None else None
        self.attempted = 0
        self.plain, self.traced, self.cold, self.failures = [], [], [], []
        self.wall = {"plain": [], "traced": [], "cold": []}
        self.op_time = 0.0  # warm ops, at reference speed

    def _next_seed(self) -> int:
        self.attempted += 1
        return self.session.op_seeds[self.attempted % len(self.session.op_seeds)]

    def _run(self, seed, **kwargs):
        """One in-process op; (wall seconds, at reference speed, failure or None)."""
        if self.sampler is None:
            elapsed, failure = self.session.run(seed, **kwargs)
            return elapsed, elapsed, failure
        with self.sampler.sampling():
            elapsed, failure = self.session.run(seed, **kwargs)
        return elapsed, scale(elapsed, self.sampler.summary()), failure

    def _count(self, bucket, elapsed, scaled, failure, seed, **extra) -> float:
        """Record one op; its time at reference speed."""
        if failure:
            self.failures.append({"op": self.attempted, "seed": seed, "reason": failure, **extra})
        else:
            getattr(self, bucket).append(scaled)
            self.wall[bucket].append(elapsed)
        return scaled

    def warm(self, seconds: float, min_ops: int = 1) -> None:
        """In-process ops until `seconds` of wall time is spent in them; the
        last op is skipped if it would end more than half an op past that."""
        spent, n, last = 0.0, 0, 0.0
        while spent + last / 2 < seconds or n < min_ops:
            seed = self._next_seed()
            op = self.attempted
            if self.tracer is not None and op % 2 == 0:
                elapsed, scaled, failure = self._run(seed, around=lambda: self.tracer.tracing(op))
                bucket = "traced"
            else:
                elapsed, scaled, failure = self._run(seed)
                bucket = "plain"
            self.op_time += self._count(bucket, elapsed, scaled, failure, seed)
            spent, n, last = spent + elapsed, n + 1, elapsed

    def cold_op(self) -> None:
        seed = self._next_seed()
        elapsed, speed, failure = self.session.run_cold(seed, SRC)
        self._count("cold", elapsed, scale(elapsed, speed) if speed else elapsed, failure, seed, cold=True)


def import_times(count: int) -> list[float]:
    code = "import time; t = time.perf_counter(); import geodin.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return [
        float(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                             check=True, timeout=CHILD_TIMEOUT_S).stdout)
        for _ in range(count)
    ]


def worker(args) -> int:
    """Set up the workload, say READY, then run its ops and write a record."""
    sampler = Sampler()  # machine speed during set-up, for setup_s
    with sampler.sampling():
        import geodin
        import numpy
        from workloads import WORKLOADS, Session

        if Path(geodin.__file__).resolve().parent != SRC / "geodin":
            raise RuntimeError(f"imported geodin from {geodin.__file__}, not from {SRC}")
        session = Session(WORKLOADS[args.workload], args.seed, args.workdir)
        warm_seconds, warm_failure = session.run(session.op_seeds[0])
    if warm_failure:
        raise RuntimeError(f"warm-up op failed the gate: {warm_failure}")
    print("READY", flush=True)

    record = {"warmup_s": warm_seconds, "op_seeds": session.op_seeds, "setup_speed": sampler.summary(),
              "cpus": sorted(os.sched_getaffinity(0)), "blas_threads": _blas_threads(numpy)}
    if args.trace:
        from spans import Tracer, layer_metrics, layer_shares

        tracer = Tracer()
        loop = Loop(session, tracer)
        loop.warm(args.seconds, min_ops=MIN_OPS)
        record["import_s"] = import_times(IMPORT_RUNS)
        record["layer_metrics"] = layer_metrics(tracer.spans, len(loop.traced), session.eval_rows())
        record["layer_self_share"] = layer_shares(tracer.spans)
        record["spans"] = len(tracer.spans)
        OUT.mkdir(exist_ok=True)
        tracer.write_jsonl(OUT / f"{args.workload}_seed{args.seed}_spans.jsonl")
    else:
        loop = Loop(session)
        for _ in range(COLD_OPS):
            loop.cold_op()
            loop.warm(args.seconds / COLD_OPS)
    record.update(plain_s=loop.plain, traced_s=loop.traced, cold_s=loop.cold, op_time_s=loop.op_time,
                  attempted=loop.attempted, failures=loop.failures, wall_s=loop.wall)
    record["digests"] = {str(seed): d for seed, d in session.digests.items()}
    record["checkpoint_bytes"] = {
        p.name: p.stat().st_size for p in [session.checkpoint, *session.outputs()] if p and p.suffix == ".godn"
    }
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (args.workdir / "record.json").write_text(json.dumps(record), encoding="utf-8")
    return 0


# --- the run: worker processes, pooled samples, the result line --------------------


def _spawn(args, seconds: float, workdir: Path) -> tuple[float, float, dict]:
    """Run one worker process; (seconds from its start until READY, the same
    at reference speed, its record)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace), "--workdir", str(workdir)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=dict(os.environ, **ONE_THREAD))
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "READY" or rc != 0:
        raise RuntimeError(f"worker process for {args.workload} failed (exit code {rc})")
    record = json.loads((workdir / "record.json").read_text(encoding="utf-8"))
    return ready, scale(ready, record["setup_speed"]), record


def _pool(records: list[dict]) -> dict:
    """Concatenate the workers' samples; outputs must agree across workers too."""
    pooled = dict(records[0], workers=len(records))
    for key in ("plain_s", "traced_s", "cold_s"):
        pooled[key] = [x for r in records for x in r[key]]
    pooled["wall_s"] = {key: [x for r in records for x in r["wall_s"][key]] for key in records[0]["wall_s"]}
    pooled["failures"] = [dict(f, worker=k) for k, r in enumerate(records) for f in r["failures"]]
    pooled["attempted"] = sum(r["attempted"] for r in records)
    pooled["op_time_s"] = sum(r["op_time_s"] for r in records)
    pooled["peak_rss_mb"] = max(r["peak_rss_mb"] for r in records)
    for k, r in enumerate(records[1:], start=1):
        for seed, digest in r["digests"].items():
            if records[0]["digests"].get(seed, digest) != digest:
                pooled["failures"].append({"worker": k, "seed": seed, "reason": "outputs differ across processes"})
    return pooled


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def environment(records) -> dict:
    """The run's environment; BLAS threads and CPUs as the worker processes had them."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_vendor = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_vendor = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_vendor,
        "blas_threads": sorted({r["blas_threads"] for r in records}, key=str),
        "blas_threads_env": ONE_THREAD,
        "worker_cpus": [r["cpus"] for r in records],
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def _blas_threads(numpy):
    """Threads OpenBLAS uses in this process."""
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "geodin").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def orchestrate(args) -> int:
    if not (SRC / "geodin" / "cli.py").is_file():
        print(f"perfbench: no geodin sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    # Imported only now: workloads imports geodin from SRC.
    from spans import EXTRA_METRICS, metric_map
    from workloads import WORKLOADS

    # Ops are pooled over several fresh processes, so that no one process's
    # luck (memory layout, the machine's speed while it ran) sets a median.
    n_workers = 1 if args.trace else WORKERS
    workdir = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    cpus = sorted(os.sched_getaffinity(0))
    runs = []
    try:
        for k in range(n_workers):
            os.sched_setaffinity(0, {cpus[k % len(cpus)]})  # the worker inherits this CPU
            runs.append(_spawn(args, args.seconds / n_workers, workdir / f"worker{k}"))
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(workdir, ignore_errors=True)
    setup_wall = [ready for ready, _, _ in runs]
    setup = [scaled for _, scaled, _ in runs]
    rec = _pool([r for _, _, r in runs])

    failed = len(rec["failures"])
    if args.trace:
        metrics = dict(rec["layer_metrics"])
        metrics["cli.import_ms"] = {"value": 1e3 * _median(rec["import_s"]), "unit": EXTRA_METRICS["cli.import_ms"][0]}
        overhead = _median(rec["traced_s"]) / _median(rec["plain_s"]) if rec["plain_s"] else 0.0
        metrics["trace.overhead_ratio"] = {"value": overhead, "unit": EXTRA_METRICS["trace.overhead_ratio"][0]}
    else:
        ok = len(rec["plain_s"])
        metrics = {
            "ops_per_s": {"value": ok / rec["op_time_s"], "unit": "1/s"},
            "op_p50_ms": {"value": 1e3 * _median(rec["plain_s"]), "unit": "ms"},
            "cold_op_ms": {"value": 1e3 * _median(rec["cold_s"]), "unit": "ms"},
            "setup_s": {"value": _median(setup), "unit": "s"},
            "peak_rss_mb": {"value": rec["peak_rss_mb"], "unit": "MB"},
        }
    workload = WORKLOADS[args.workload]
    record = {
        "workload": args.workload,
        "why": workload.why,
        "command": workload.command,
        "sets": list(workload.sets),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, one client, no other load; the harness starts no threads and passes --jobs 1",
        "waiting": "none: no layer has a queue, and each worker runs on one CPU with one BLAS thread",
        "environment": environment([r for _, _, r in runs]),
        "timing": f"untraced times are wall times rescaled to reference machine speed: a reference kernel, "
                  f"sampled every {1e3 * PERIOD_S:g} ms while they ran, takes {1e3 * NOMINAL_S:g} ms at it "
                  f"(speed.py); raw wall times are under wall_s and setup_wall_s; traced times are raw",
        "setup_s": setup,
        "setup_wall_s": setup_wall,
        "samples": {"ops": len(rec.get("plain_s", [])), "traced_ops": len(rec.get("traced_s", [])),
                    "cold_ops": len(rec.get("cold_s", []))},
        "metric_map": metric_map(),
        **rec,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    text = json.dumps(record, indent=1)
    (OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(text + "\n", encoding="utf-8")
    print(text)
    print(json.dumps({"correct": failed == 0, "attempted": rec["attempted"], "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    if args.workdir:
        return worker(args)
    return orchestrate(args)


if __name__ == "__main__":
    sys.exit(main())
