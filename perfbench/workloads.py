"""The benchmark's workloads: the CLI command each op runs, its set-up, and
the correctness gate every op passes before its time counts.

Sizes reach geodin only through ``--set`` / ``--seed`` arguments of the CLI.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import geodin.cli
from geodin.bench import make_task
from geodin.config import load_run_config
from geodin.persist import REPORT_FIELDS, load_model, save_model
from geodin.train import predict

WIDE = ("task.k=32", "train.hidden=256,256", "train.feature_dim=64")
SETUP_EPOCHS = 2
DETECT_ROWS = 26 * 5  # (control + 4 kinds x 5 severities + 5 concept groups) x 5 scores
OP_SEEDS = 3  # op seeds cycle, so every seed repeats and its outputs can be compared
COLD_OP_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # train | detect | calibrate
    sets: tuple  # --set overrides of every op (and of the set-up checkpoint)
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train_small", "train", (),
            "Small-batch SGD on the default config is bound by Python overhead in train and head; "
            "bench, scores and calibrate do no work and persist only writes 51 KB.",
        ),
        Workload(
            "detect_wide", "detect", WIDE,
            "The 130-cell sweep on a 710 KB checkpoint: BLAS-bound extractor forward, FNV-1a on load, "
            "AUROC sorts and score_batch; head and SGD idle, so it is the control for train/head changes.",
        ),
        Workload(
            "calibrate_wide", "calibrate", WIDE,
            "Five-fold calibration of the wide checkpoint: thousands of head-only steps at D=64, k=32, "
            "plus a checkpoint read and write; bench idle and extractor work light.",
        ),
    )
}


def _set_args(sets) -> list[str]:
    return [arg for item in sets for arg in ("--set", item)]


class Session:
    """One workload in one working directory: set-up, ops and their gate."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workload = workload
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        draws = random.Random(seed).sample(range(1_000_000), OP_SEEDS + 1)
        self.op_seeds, checkpoint_seed = draws[:OP_SEEDS], draws[OP_SEEDS]
        self.digests = {}  # op seed -> {output file name: sha256}
        self.checkpoint = None
        self.cfg = load_run_config(None, list(workload.sets))
        if workload.command != "train":
            self.checkpoint = self.workdir / "setup.godn"
            argv = ["train", *_set_args(workload.sets), "--set", f"train.epochs={SETUP_EPOCHS}",
                    "--seed", str(checkpoint_seed), "--out", str(self.checkpoint)]
            with _quiet():
                if geodin.cli.main(argv) != 0:
                    raise RuntimeError(f"set-up training failed: {argv}")
            self.original = load_model(self.checkpoint)
        self._test_argmax_cache = {}

    # --- ops -------------------------------------------------------------

    def argv(self, seed: int) -> list[str]:
        w, out = self.workload, self.workdir
        head = [w.command, *_set_args(w.sets), "--seed", str(seed)]
        if w.command == "train":
            return head + ["--out", str(out / "model.godn")]
        if w.command == "detect":
            return head + ["--checkpoint", str(self.checkpoint), "--out", str(out / "report"), "--jobs", "1"]
        return head + ["--checkpoint", str(self.checkpoint), "--out", str(out / "cal.godn")]

    def outputs(self) -> list[Path]:
        names = {
            "train": ("model.godn", "model.train_log.csv", "model.config.json"),
            "detect": ("report.csv", "report.json"),
            "calibrate": ("cal.godn", "cal.calibration.json"),
        }[self.workload.command]
        return [self.workdir / n for n in names]

    def run(self, seed: int, around=contextlib.nullcontext) -> tuple[float, str | None]:
        """One in-process op through geodin.cli.main; (seconds, failure or None)."""
        self._clear()
        argv = self.argv(seed)
        with _quiet(), around():
            t0 = time.perf_counter()
            try:
                rc = geodin.cli.main(argv)
            except (Exception, SystemExit) as exc:
                rc = f"raised {exc!r}"
            elapsed = time.perf_counter() - t0
        return elapsed, self.check(seed, rc)

    def run_cold(self, seed: int, src: Path) -> tuple[float, dict, str | None]:
        """The same op as a fresh `python -m geodin.cli` process, through
        cold.py; (seconds, the speed samples it took or None, failure or None)."""
        self._clear()
        env = dict(os.environ, PYTHONPATH=str(src))
        samples = self.workdir / "cold_speed.json"
        samples.unlink(missing_ok=True)
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("cold.py")), str(samples), *self.argv(seed)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=COLD_OP_TIMEOUT_S,
        )
        elapsed = time.perf_counter() - t0
        rc = proc.returncode if proc.returncode == 0 else f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"
        speed = json.loads(samples.read_text(encoding="utf-8")) if samples.is_file() else None
        return elapsed, speed, self.check(seed, rc)

    def _clear(self) -> None:
        for path in self.outputs():
            path.unlink(missing_ok=True)

    # --- the gate ----------------------------------------------------------

    def check(self, seed: int, rc) -> str | None:
        """Why the op's outputs fail the gate, or None when they pass."""
        if rc != 0:
            return f"exit code {rc}" if isinstance(rc, int) else str(rc)
        missing = [p.name for p in self.outputs() if not p.is_file()]
        if missing:
            return f"missing outputs {missing}"
        try:
            problem = getattr(self, f"_check_{self.workload.command}")(seed)
        except Exception as exc:  # any error reading an output is a failed op
            return f"{type(exc).__name__}: {exc}"
        if problem:
            return problem
        digest = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in self.outputs()}
        if self.digests.setdefault(seed, digest) != digest:
            return f"outputs for seed {seed} differ from an earlier op with that seed"
        return None

    def _check_train(self, seed):
        path = self.workdir / "model.godn"
        again = self.workdir / "gate_resave.godn"
        save_model(load_model(path), again)
        if again.read_bytes() != path.read_bytes():
            return "re-saving the loaded checkpoint changes its bytes"
        return None

    def _check_detect(self, seed):
        with open(self.workdir / "report.csv", newline="", encoding="utf-8") as fh:
            rows = [r for r in csv.reader(fh) if r]
        if rows[0] != list(REPORT_FIELDS):
            return f"unexpected header {rows[0]}"
        if len(rows) - 1 != DETECT_ROWS:
            return f"{len(rows) - 1} rows, expected {DETECT_ROWS}"
        col = {name: i for i, name in enumerate(REPORT_FIELDS)}
        for r in rows[1:]:
            for name in ("auroc", "tnr_at_tpr95"):
                x = float(r[col[name]])
                if not (math.isfinite(x) and 0.0 <= x <= 1.0):
                    return f"{name}={r[col[name]]} outside [0, 1] in row {r}"
        doc = json.loads((self.workdir / "report.json").read_text(encoding="utf-8"))
        if len(doc["rows"]) != DETECT_ROWS:
            return f"JSON report has {len(doc['rows'])} rows"
        return None

    def _check_calibrate(self, seed):
        doc = json.loads((self.workdir / "cal.calibration.json").read_text(encoding="utf-8"))
        if not doc["nll_after"] <= doc["nll_before"]:
            return f"nll_after {doc['nll_after']} > nll_before {doc['nll_before']}"
        X, expected = self._test_argmax(seed)
        if not np.array_equal(predict(load_model(self.workdir / "cal.godn"), X), expected):
            return "calibration changed an argmax on the test split"
        return None

    def _test_argmax(self, seed):
        """The op seed's test inputs and the uncalibrated model's argmax on them."""
        if seed not in self._test_argmax_cache:
            t = self.cfg.task
            X = make_task(t.k, t.d_in, t.n_per_class, t.noise, seed, val_frac=t.val_frac, test_frac=t.test_frac).test[0]
            self._test_argmax_cache[seed] = (X, predict(self.original, X))
        return self._test_argmax_cache[seed]

    def eval_rows(self) -> int:
        """Distinct val+test rows a calibrate op can need features for."""
        t = self.cfg.task
        return t.k * (round(t.n_per_class * t.val_frac) + round(t.n_per_class * t.test_frac))


@contextlib.contextmanager
def _quiet():
    """Send the CLI's progress lines to /dev/null, as a script would."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        yield
