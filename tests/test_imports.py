"""Every name a ``geodin`` module imports is used in that module.

Two kinds of import are exempt: the package's re-exports, which ``__init__.py``
imports from its submodules, and the names that the benchmark's tracer
(``perfbench/spans.py``) wraps where they are looked up, which a module may
bind only for the tracer.  The second list is read from ``spans.PATCHES``.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

import geodin

SRC = Path(geodin.__file__).resolve().parent

_spec = importlib.util.spec_from_file_location("spans", SRC.parents[1] / "perfbench" / "spans.py")
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


def unused_imports(module: str, source: str) -> list[str]:
    """The names ``source`` binds by an import and never reads, less the exempt ones."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if module == "geodin" and isinstance(node, ast.ImportFrom) and node.level:
            continue  # the package's re-exports
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    traced = {attr for mod, attr, *_ in spans.PATCHES if mod == module}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used | traced]


MODULES = sorted(SRC.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_used(path):
    module = "geodin" if path.stem == "__init__" else f"geodin.{path.stem}"
    assert unused_imports(module, path.read_text(encoding="utf-8")) == []


def test_a_stale_import_is_found_and_a_traced_one_is_exempt():
    source = "from .scores import row_norms, shifted_exp\nfrom .head import softmax_cross_entropy_batch\nrow_norms\n"
    assert unused_imports("geodin.calibrate", source) == ["shifted_exp (line 1)"]
    assert unused_imports("geodin.scores", source) == ["shifted_exp (line 1)", "softmax_cross_entropy_batch (line 2)"]
    assert unused_imports("geodin", "from .bench import sweep\nimport sys\n") == ["sys (line 2)"]
