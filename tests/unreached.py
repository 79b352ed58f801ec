"""List the statements of ``src/geodin`` that no tier-1 test runs.

Run from the repository root:

    python tests/unreached.py

It runs the tier-1 suite in this process under a ``sys.settrace`` line
tracer (standard library only), then prints each statement of
``src/geodin/*.py`` on none of whose lines a line event fired, as
``path:line: source``.  A compound statement (``if``, ``for``, ``def``, ...)
counts by its header, so an untaken branch shows as the statements of its
body.  Test outcomes do not matter here: tracing slows the suite, so a
timing or memory bound may fail under it.  Code that only child processes
run (the CLI's ``__main__`` guard, the suite's subprocess probes) is not
seen.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "geodin"
TIER1 = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]


def statement_lines(source: str) -> dict[int, range]:
    """Each statement's first line and the lines whose line events count for it.

    A simple statement counts by all its lines, a compound one by its header
    (from its first decorator to the line before its body).  Docstrings and
    ``global``/``nonlocal`` compile to no instruction and are left out.
    """
    tree = ast.parse(source)
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {id(n.body[0]) for n in ast.walk(tree) if isinstance(n, owners) and ast.get_docstring(n) is not None}
    spans = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in docstrings:
            continue
        if isinstance(node, (ast.Global, ast.Nonlocal, ast.Try)):
            continue  # a try's header compiles to no instruction; its clauses' statements count
        body = getattr(node, "body", None)
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        spans[node.lineno] = range(first, max(first, last) + 1)
    return spans


def run_traced(args: list[str]) -> dict[str, set[int]]:
    """The lines of each ``src/geodin`` file on which a line event fired while pytest ran ``args``."""
    import pytest  # geodin itself is first imported under the tracer, so its module-level statements count

    hits: dict[str, set[int]] = {}
    prefix = str(SRC) + "/"

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        hits.setdefault(name, set()).add(frame.f_lineno)
        return local

    threading.settrace(global_)
    sys.settrace(global_)
    try:
        pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return hits


def main() -> int:
    os.chdir(ROOT)  # pytest reads its settings (the ``src`` path, warning filters) from the root's pyproject.toml
    hits = run_traced(TIER1)
    missed = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines, ran = source.splitlines(), hits.get(str(path), set())
        for start, span in sorted(statement_lines(source).items()):
            if ran.isdisjoint(span):
                missed.append(f"{path.relative_to(ROOT)}:{start}: {lines[start - 1].strip()}")
    print(f"\n{len(missed)} statement(s) of src/geodin ran in no test:")
    print("\n".join(missed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
