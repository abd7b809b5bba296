"""Source hygiene: no module of the package binds an import it never uses,
and the package defines nothing that only tests call.

There is no linter in the toolchain, and deleting a function easily leaves
its imports behind; these stdlib-`ast` checks catch that, and catch a
function, class or method whose only callers are outside `src/midibert`."""

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
    "autodiff.gradcheck": "test-only; moves to tests/support.py with ROADMAP item 1",
    "autodiff.mul": "test-only; moves to tests/support.py with ROADMAP item 1",
    "smf.strip_velocity": "test-only; moves to tests/support.py with ROADMAP item 1",
    "cli._Parser.error": "an argparse hook: argparse calls it",
}


def unreferenced(sources: dict[str, str]) -> list[str]:
    """Top-level functions and classes, and non-dunder methods of top-level
    classes, whose name no module in `sources` reads.

    The match is by name alone, so a definition whose name is also an
    attribute or a variable elsewhere counts as referenced and slips
    through: `autodiff.mean` and `autodiff.tanh` pass as numpy's `.mean`
    and `np.tanh`, and a method passes as any field of its name (the
    test-only `SplitManifest.split_of` passed as `TaskData.split_of`)."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, defs):
                continue
            found.append((f"{module}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                found += [
                    (f"{module}.{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, defs) and not item.name.startswith("__")
                ]
    return [qualified for qualified, name in found if name not in named]


def test_detects_an_unreferenced_definition():
    sources = {
        "a": "def used():\n    pass\n\ndef spare():\n    pass\n",
        "b": "from .a import used\n\nclass C:\n    def __init__(self):\n        used()\n\n"
             "    def helper(self):\n        pass\n",
    }
    assert unreferenced(sources) == ["a.spare", "b.C", "b.C.helper"]


def test_no_definition_only_tests_reach():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    found = unreferenced(sources)
    assert sorted(set(found) - set(KEPT)) == []
    assert sorted(set(KEPT) - set(found)) == []  # an entry that is used, or gone, goes
