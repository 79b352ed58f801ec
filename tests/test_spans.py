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
