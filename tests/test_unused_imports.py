"""Every name a module of `orbitlab` or of its tests imports is used in that
module; the re-exports of `__init__` are its purpose and are not checked.
No module of `orbitlab` imports `random` or takes an `rng`: every report
check decides on an exact certificate, and none draws a sample."""

import ast
from pathlib import Path

import pytest

import orbitlab


def unused_imports(text):
    """The names the module source `text` binds by `import` or `from ...
    import` and never reads, in import order.  `from __future__` imports are
    directives, not names."""
    tree = ast.parse(text)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_no_module_imports_a_name_it_never_uses():
    package = Path(orbitlab.__file__).parent
    paths = [path for path in sorted(package.glob("*.py")) if path.stem != "__init__"]
    paths += sorted(Path(__file__).parent.glob("*.py"))
    found = {f"{path.parent.name}/{path.name}": unused_imports(path.read_text())
             for path in paths}
    assert {module: names for module, names in found.items() if names} == {}


@pytest.mark.parametrize("text, unused", [
    ("import os", ["os"]),
    ("import os\nos.sep", []),
    ("import os.path\nos.path.sep", []),
    ("import json as j", ["j"]),
    ("from typing import List, Tuple\nx: List[int]", ["Tuple"]),
    ("from . import linalg\nlinalg.row_rank", []),
    ("from .operators import IDENTITY, ZERO\nbase = ZERO", ["IDENTITY"]),
    ("from __future__ import annotations", []),
    ("def f():\n    from .operators import ZERO\n    return 0", ["ZERO"]),
    ("def f(x: 'Sequence'):\n    pass\nfrom typing import Sequence", ["Sequence"]),
])
def test_scan_flags_unused_imports(text, unused):
    assert unused_imports(text) == unused


def random_draws(text):
    """The places where the module source `text` could draw random numbers:
    an import of `random` (by `import` or `from random import`) and a
    parameter named `rng`, as (line, what) pairs."""
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, "random") for alias in node.names
                        if alias.name.partition(".")[0] == "random")
        elif isinstance(node, ast.ImportFrom) and node.module == "random":
            yield node.lineno, "random"
        elif isinstance(node, ast.arg) and node.arg == "rng":
            yield node.lineno, "rng"


def test_no_module_draws_random_numbers():
    package = Path(orbitlab.__file__).parent
    found = [f"{path.name}:{line} {what}" for path in sorted(package.glob("*.py"))
             for line, what in random_draws(path.read_text())]
    assert found == []


@pytest.mark.parametrize("text, found", [
    ("import random", ["random"]),
    ("import random as r", ["random"]),
    ("import os, random", ["random"]),
    ("from random import Random", ["random"]),
    ("def run(scenario, rng, report): pass", ["rng"]),
    ("def f():\n    import random\n    return random.random()", ["random"]),
    ("lambda rng: 0", ["rng"]),
    ("import randomize", []),
    ("from .scalars import parse as random", []),
    ("rng = 1", []),
    ("def run(scenario, report): pass", []),
])
def test_scan_flags_random_draws(text, found):
    assert [what for _, what in random_draws(text)] == found
