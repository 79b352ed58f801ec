"""No module rebinds a parameter record's view of its flat buffer.

``Model``, ``ExtractorParams`` and ``HeadParams`` make their parts
(``extractor``, ``head``, ``W``, ``alpha_w``, ``alpha_b``, ``beta_w``,
``beta_b``, ``layers``) as views of ``flat`` once, in their ``__init__``.
Anywhere else, ``head.alpha_b = v`` or ``model.head = h`` binds a new object
to the attribute and leaves ``flat``, which training steps and a checkpoint
writes, as it was; a write goes through ``head.alpha_b[...] = v``.  An
augmented assignment (``head.beta_b += v``) writes in place and is allowed.
"""

import ast
from pathlib import Path

import pytest

import geodin

VIEWS = {"W", "alpha_w", "alpha_b", "beta_w", "beta_b", "flat", "layers", "extractor", "head"}
RECORDS = {"ExtractorParams", "HeadParams", "Model"}
SRC, TESTS = Path(geodin.__file__).resolve().parent, Path(__file__).resolve().parent
MODULES = sorted([*SRC.glob("*.py"), *TESTS.glob("*.py")])


def view_rebinds(source: str) -> list[str]:
    """Each plain assignment or ``setattr`` call to a view attribute in ``source``, but in a record's ``__init__``."""
    found = []

    def visit(node, in_init: bool) -> None:
        if in_init:
            return
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for t in ast.walk(target):
                    if isinstance(t, ast.Attribute) and isinstance(t.ctx, ast.Store) and t.attr in VIEWS:
                        found.append(f"{t.attr} (line {t.lineno})")
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "setattr":
            name = node.args[1] if len(node.args) > 1 else None
            if isinstance(name, ast.Constant) and name.value in VIEWS:
                found.append(f"{name.value} (line {node.lineno})")
        for child in ast.iter_child_nodes(node):
            record = isinstance(node, ast.ClassDef) and node.name in RECORDS
            visit(child, record and isinstance(child, ast.FunctionDef) and child.name == "__init__")

    visit(ast.parse(source), False)
    return found


@pytest.mark.parametrize("path", MODULES, ids=[f"{p.parent.name}/{p.stem}" for p in MODULES])
def test_no_view_is_rebound(path):
    assert view_rebinds(path.read_text(encoding="utf-8")) == []


def test_a_rebind_is_found_and_a_write_in_place_is_not():
    source = (
        "head.alpha_b = 1.0\n"
        "head.alpha_b[...] = 1.0\n"
        "head.beta_b += 4.0\n"
        "a, grad.flat = 1, 2\n"
        "setattr(head, 'W', w)\n"
        "model.head = h\n"
        "model.head.flat[...] = h.flat\n"
        "class Model:\n"
        "    def __init__(self, flat):\n"
        "        self.extractor, self.head = flat[:1], flat[1:]\n"
        "class HeadParams:\n"
        "    def __init__(self, flat):\n"
        "        self.flat = flat\n"
        "    def like(self, flat):\n"
        "        self.flat = flat\n"
        "class Other:\n"
        "    def __init__(self, layers):\n"
        "        self.layers = layers\n"
    )
    found = ["alpha_b (line 1)", "flat (line 4)", "W (line 5)", "head (line 6)", "flat (line 15)", "layers (line 18)"]
    assert view_rebinds(source) == found
