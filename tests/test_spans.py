"""The benchmark's tracer wraps geodin names where they are looked up (``perfbench/spans.py``).

A refactor that unbinds one of those names breaks every traced benchmark op; this test names it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("spans", Path(__file__).resolve().parents[1] / "perfbench" / "spans.py")
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


NAMES = sorted({(module, attr) for module, attr, *_ in spans.PATCHES})


@pytest.mark.parametrize("module,attr", [pytest.param(m, a, id=f"{m}.{a}") for m, a in NAMES])
def test_patched_name_is_bound_to_a_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr} is not bound"


def test_a_traced_detect_counts_every_scored_row_once_in_the_extractor_and_score_spans(tmp_path):
    """The rows through ``train.extractor_forward`` and ``scores.score_batch`` are the sweep's rows:
    the test split, each covariate copy of it and each concept group, once each."""
    from geodin.cli import main

    sets = [
        "task.k=3", "task.d_in=6", "task.n_per_class=600", "task.val_frac=0.2", "task.test_frac=0.6",
        "task.concept_similarities=0.7,0.9", "task.concept_n_per_class=25",
        "train.epochs=1", "train.hidden=8", "train.feature_dim=4",
        "shifts.kinds=gaussian_noise,smoothing", "shifts.severities=1,4",
    ]
    argv = [arg for item in sets for arg in ("--set", item)]
    checkpoint = tmp_path / "model.godn"
    assert main(["train", *argv, "--out", str(checkpoint)]) == 0
    tracer = spans.Tracer()
    with tracer.tracing(0):
        assert main(["detect", *argv, "--checkpoint", str(checkpoint), "--out", str(tmp_path / "report")]) == 0

    n_test, cells, concept_rows = 3 * 360, 2 * 2, 2 * 2 * 25  # the test split spans two row blocks
    expected = n_test * (1 + cells) + concept_rows
    for name in ("train.extractor_forward", "scores.score_batch"):
        rows = [span[spans.ATTRS]["rows"] for span in tracer.spans if span[spans.NAME] == name]
        assert sum(rows) == expected, (name, rows)
