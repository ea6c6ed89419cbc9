"""The library is what the harness runs: every public module-level function of
`orbitlab`, and every public method of a public class, is referred to
somewhere in the package; an export from `__init__` alone does not count.  A
method is referred to only as an attribute, since a local variable of the
same name does not reach it."""

import ast
from pathlib import Path

import pytest

import orbitlab

# `module.function` or `module.Class.method` -> why it may stay unreferenced
# for now (ROADMAP item 7)
KNOWN_UNREFERENCED = {
    "density.extract_p_independent":
        "the paper's step from a dense set to a p-independent dense subsequence; "
        "whether it becomes a checked report entry, a test oracle or goes is open",
    "seminorms.dual_norm_witness":
        "paper API exported only from __init__: the functional attaining p*(f)",
    "operators.conjugate_orbit":
        "paper API exported only from __init__: every A in Σ(X) is an orbit",
    "operators.FiniteRankOperator.matrix_on":
        "named by the perfbench tracer's METHODS until ROADMAP item 1 drops it",
    "transport.TransportState.budget_used":
        "named by the perfbench tracer's METHODS until ROADMAP item 1 drops it",
    "linalg.RowReducer.residual":
        "named by the perfbench tracer's METHODS until ROADMAP item 1",
}


def unreferenced(sources):
    """`module.function` for each public module-level function and
    `module.Class.method` for each public method of a public class of the
    modules (name -> source text) that no module other than `__init__` names:
    a function as a name or an attribute, a method as an attribute."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    trees.pop("__init__", None)
    names, attributes = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                found.append((f"{module}.{node.name}", node.name, names | attributes))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                found += [(f"{module}.{node.name}.{item.name}", item.name, attributes)
                          for item in node.body if isinstance(item, ast.FunctionDef)]
    return sorted(path for path, name, named in found
                  if not name.startswith("_") and name not in named)


def test_every_public_function_is_reached():
    package = Path(orbitlab.__file__).parent
    sources = {path.stem: path.read_text() for path in sorted(package.glob("*.py"))}
    assert unreferenced(sources) == sorted(KNOWN_UNREFERENCED)


@pytest.mark.parametrize("sources, found", [
    ({"a": "def f(): pass"}, ["a.f"]),
    ({"a": "def f(): pass", "b": "from .a import f\nf()"}, []),
    ({"a": "def f(): pass", "b": "from . import a\na.f"}, []),
    ({"a": "def f(): pass", "__init__": "from .a import f"}, ["a.f"]),
    ({"a": "def f(): pass", "__init__": "from .a import g"}, ["a.f"]),
    ({"a": "def _f(): pass\nclass _C:\n    def g(self): pass\nclass C:\n    def _g(self): pass"},
     []),
    ({"a": "def f(): pass", "b": "from .a import f"}, ["a.f"]),
    ({"a": "class C:\n    def g(self): pass"}, ["a.C.g"]),
    ({"a": "class C:\n    def g(self): pass", "b": "from .a import C\nC().g()"}, []),
    ({"a": "class C:\n    def g(self): pass\n    def h(self): self.g()"}, ["a.C.h"]),
    ({"a": "class C:\n    def g(self): pass", "__init__": "from .a import C\nC.g"},
     ["a.C.g"]),
    ({"a": "class C:\n    def g(self): pass", "b": "def _f():\n    g = 1\n    return g"},
     ["a.C.g"]),
])
def test_scan_flags_unreferenced_functions(sources, found):
    assert unreferenced(sources) == found
