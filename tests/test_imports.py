"""Source hygiene: no module of the package binds an import it never uses,
and the package defines nothing that only tests call or read.

There is no linter in the toolchain, and deleting a function easily leaves
its imports behind; these stdlib-`ast` checks catch that, and catch a
function, class or method whose only callers are outside `src/midibert`, a
dataclass field that only code outside it reads, and a module constant that
no module of it reads."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "midibert"


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_detects_an_unused_import():
    source = "import json\nimport os\nfrom pathlib import Path as P\n\nos.getcwd()\n"
    assert unused_imports(source) == ["json", "P"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


# definitions that nothing in src/midibert names, kept on purpose
KEPT = {
    "autodiff.attention_scores": "perfbench wraps it; the fused attention's reference chain",
    "corpus.Store.chunks_of": "perfbench wraps it",
    "tokens.decode_remi": "carries the REMI round-trip invariant",
    "tokens.decode_cp": "carries the CP round-trip invariant",
    "cli._Parser.error": "an argparse hook: argparse calls it",
    "train.EpochRow.seconds": "each epoch's wall time, for ROADMAP item 3's throughput report",
}


def _is_dataclass(decorator: ast.expr) -> bool:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return isinstance(decorator, ast.Name) and decorator.id == "dataclass"


def unreferenced(sources: dict[str, str]) -> list[str]:
    """Top-level functions and classes, and non-dunder methods of top-level
    classes, whose name no module in `sources` reads; then fields of
    top-level dataclasses that no module reads as an attribute; then
    non-dunder names that a module-level assignment binds and that no
    module reads, as a name or an attribute.

    The match is by name alone, so a definition whose name is also an
    attribute or a variable elsewhere counts as referenced and slips
    through: a function passes as numpy's method of its name (the
    test-only `autodiff.mean` passed as `.mean`), a method as any field of
    its name (`SplitManifest.split_of` passed as `TaskData.split_of`), and
    a field as any attribute read of its name."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    named, read, loaded = set(), set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
                if isinstance(node.ctx, ast.Load):
                    loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
                if isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found, fields, constants = [], [], []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                constants += [
                    (f"{module}.{name.id}", name.id)
                    for target in targets
                    for name in ast.walk(target)
                    if isinstance(name, ast.Name) and not name.id.startswith("__")
                ]
            if not isinstance(node, defs):
                continue
            found.append((f"{module}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                found += [
                    (f"{module}.{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, defs) and not item.name.startswith("__")
                ]
                if any(map(_is_dataclass, node.decorator_list)):
                    fields += [
                        (f"{module}.{node.name}.{item.target.id}", item.target.id)
                        for item in node.body
                        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                    ]
    return (
        [qualified for qualified, name in found if name not in named]
        + [qualified for qualified, name in fields if name not in read]
        + [qualified for qualified, name in constants if name not in loaded | read]
    )


def test_detects_an_unreferenced_definition():
    sources = {
        "a": "def used():\n    pass\n\ndef spare():\n    pass\n",
        "b": "from .a import used\n\nclass C:\n    def __init__(self):\n        used()\n\n"
             "    def helper(self):\n        pass\n",
    }
    assert unreferenced(sources) == ["a.spare", "b.C", "b.C.helper"]


def test_detects_an_unread_dataclass_field():
    sources = {
        "a": "from dataclasses import dataclass\n\n@dataclass(frozen=True)\nclass Row:\n"
             "    used: int\n    spare: int\n    written: int = 0\n\n"
             "def total(row: Row) -> int:\n    row.written = 1\n    return row.used\n\n"
             "print(total(Row(1, 2)))\n",
    }
    assert unreferenced(sources) == ["a.Row.spare", "a.Row.written"]


def test_detects_an_unread_module_constant():
    sources = {
        "a": "__all__ = ['f']\nLIMIT = 3\nSPARE = 4\nLOW, HIGH = 1, 2\nNAMES: tuple = ()\n"
             "WRITTEN = 0\n\ndef f():\n    global WRITTEN\n    WRITTEN = LIMIT + LOW\n",
        "b": "from . import a\n\nprint(a.NAMES, a.f())\n",
    }
    assert unreferenced(sources) == ["a.SPARE", "a.HIGH", "a.WRITTEN"]


def test_no_definition_only_tests_reach():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    found = unreferenced(sources)
    assert sorted(set(found) - set(KEPT)) == []
    assert sorted(set(KEPT) - set(found)) == []  # an entry that is used, or gone, goes
