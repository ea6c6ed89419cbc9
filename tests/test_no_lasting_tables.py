"""No table outlives the call that fills it: `orbitlab` keeps no cache across
calls.  The benchmark runs every scenario of a corpus in one process, so a
table kept between scenarios would time warm hits that no cold `orbitlab run`
gets, and a report could depend on what ran before it.

The scan refuses the `functools.cache` and `lru_cache` decorators, a binding
of an empty `{}`, `[]`, `set()`, `dict()` or `list()` outside every function
(at module level or in a class body), such a value as a parameter default
(evaluated once, kept by the function) and `global` statements.
`cached_property` keeps its value on one instance and stays allowed."""

import ast
from pathlib import Path

import pytest

import orbitlab

CACHE_DECORATORS = ("cache", "lru_cache")
EMPTY_CALLS = ("set", "dict", "list")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _empty_container(node) -> bool:
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in EMPTY_CALLS and not node.args and not node.keywords)


def _cache_decorator(node, names) -> bool:
    """Whether a decorator is a cache: an attribute `cache` or `lru_cache`
    (`functools.cache`), or a name in `names`, which hold those two and what
    the module imports them as."""
    target = node.func if isinstance(node, ast.Call) else node
    if isinstance(target, ast.Attribute):
        return target.attr in CACHE_DECORATORS
    return isinstance(target, ast.Name) and target.id in names


def _outside_functions(node):
    """The nodes below `node` that no function or lambda body encloses."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, FUNCTIONS):
            yield child
            yield from _outside_functions(child)


def lasting_tables(text):
    """The places where the module source `text` could keep a table across
    calls, as (line, what) pairs in line order."""
    tree = ast.parse(text)
    names = set(CACHE_DECORATORS).union(
        alias.asname for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        and node.module == "functools" for alias in node.names
        if alias.name in CACHE_DECORATORS and alias.asname)
    found = [(node.lineno, ast.unparse(node.value)) for node in _outside_functions(tree)
             if isinstance(node, (ast.Assign, ast.AnnAssign))
             and node.value is not None and _empty_container(node.value)]
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            found.append((node.lineno, f"global {', '.join(node.names)}"))
        if isinstance(node, FUNCTIONS):
            defaults = node.args.defaults + [d for d in node.args.kw_defaults if d is not None]
            found += [(d.lineno, f"default {ast.unparse(d)}") for d in defaults
                      if _empty_container(d)]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found += [(d.lineno, f"@{ast.unparse(d)}") for d in node.decorator_list
                      if _cache_decorator(d, names)]
    return sorted(found)


def test_no_module_keeps_a_table_across_calls():
    package = Path(orbitlab.__file__).parent
    found = [f"{path.name}:{line} {what}" for path in sorted(package.glob("*.py"))
             for line, what in lasting_tables(path.read_text())]
    assert found == []


@pytest.mark.parametrize("text, found", [
    ("import functools\n@functools.cache\ndef f(x): return x", ["@functools.cache"]),
    ("import functools\n@functools.lru_cache(maxsize=None)\ndef f(x): return x",
     ["@functools.lru_cache(maxsize=None)"]),
    ("from functools import lru_cache\nclass A:\n    @lru_cache\n    def f(self): pass",
     ["@lru_cache"]),
    ("from functools import cache\n@cache\ndef f(): pass", ["@cache"]),
    ("from functools import lru_cache as memo\n@memo(None)\ndef f(): pass", ["@memo(None)"]),
    ("import functools as ft\n@ft.cache\ndef f(): pass", ["@ft.cache"]),
    ("from functools import cached_property\nclass A:\n    @cached_property\n"
     "    def x(self): return 1", []),
    ("_TABLE = {}", ["{}"]),
    ("_SEEN: list = []", ["[]"]),
    ("TEXTS = dict()\nPICKS = set()\nROWS = list()", ["dict()", "set()", "list()"]),
    ("A = B = {}", ["{}"]),
    ("try:\n    T = {}\nexcept ImportError:\n    pass", ["{}"]),
    ("class Reader:\n    seen = set()", ["set()"]),
    ("def f(pairs):\n    texts = {}\n    return texts", []),
    ("def f():\n    class Local:\n        rows = []\n    return Local", []),
    ("SIGNS = {1: 2}\nEMPTY = ()\nNONE = frozenset()\nKEYS = dict(a=1)\nN = set([1])", []),
    ("def f():\n    global N\n    N = 1", ["global N"]),
    ("def f(texts={}): return texts", ["default {}"]),
    ("def f(*, rows=[]): return rows", ["default []"]),
    ("g = lambda seen=set(): seen", ["default set()"]),
    ("def f(texts=None, mode='exact'): return texts", []),
])
def test_scan_flags_each_lasting_table(text, found):
    assert [what for _, what in lasting_tables(text)] == found
