"""The library is what the harness runs: every public module-level function of
`orbitlab` is referred to somewhere in the package or exported from it."""

import ast
from pathlib import Path

import pytest

import orbitlab

# `module.function` -> why it may stay unreferenced for now
KNOWN_UNREFERENCED = {
    "density.extract_p_independent":
        "the paper's step from a dense set to a p-independent dense subsequence; "
        "whether it becomes a checked report entry, a test oracle or goes is "
        "still open (ROADMAP item 5)",
}


def unreferenced(sources):
    """`module.function` for each public module-level function of the modules
    (name -> source text) that no module other than `__init__` names, as a
    name or an attribute, and that `__init__` does not import."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    init = trees.pop("__init__", ast.Module(body=[], type_ignores=[]))
    exported = {alias.asname or alias.name for node in ast.walk(init)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    named = exported.copy()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return sorted(f"{module}.{node.name}" for module, tree in trees.items()
                  for node in tree.body
                  if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                  and node.name not in named)


def test_every_public_function_is_reached():
    package = Path(orbitlab.__file__).parent
    sources = {path.stem: path.read_text() for path in sorted(package.glob("*.py"))}
    assert unreferenced(sources) == sorted(KNOWN_UNREFERENCED)


@pytest.mark.parametrize("sources, found", [
    ({"a": "def f(): pass"}, ["a.f"]),
    ({"a": "def f(): pass", "b": "from .a import f\nf()"}, []),
    ({"a": "def f(): pass", "b": "from . import a\na.f"}, []),
    ({"a": "def f(): pass", "__init__": "from .a import f"}, []),
    ({"a": "def f(): pass", "__init__": "from .a import g"}, ["a.f"]),
    ({"a": "def _f(): pass\nclass C:\n    def g(self): pass"}, []),
    ({"a": "def f(): pass", "b": "from .a import f"}, ["a.f"]),
])
def test_scan_flags_unreferenced_functions(sources, found):
    assert unreferenced(sources) == found
