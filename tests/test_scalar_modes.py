"""Exact mode, the one scalar mode, stays exact: no float reaches a result,
no module but `scalars` tells scalars apart by type or names the integer
form a vector keeps, only listed functions scale a row afresh, and no
context object is threaded through the layers."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import orbitlab
from orbitlab import DiskSpec, FiniteRankOperator, SeminormSpec, minkowski, serialize
from orbitlab.density import Enumeration, EpsilonNet, common_disk
from orbitlab.hypercyclic import (
    build_shift_operator,
    range_kernel_premise_check,
    transitivity_witness,
)
from orbitlab.scalars import parse
from orbitlab.scenarios import Scenario, parse_eps_schedule, run_scenario
from orbitlab.transport import run_transport, verify_transport
from orbitlab.triangular import interleave_triangularize
from orbitlab.vectors import CoordFunctional, SparseVector, _FiniteMap


def vectors(rows):
    return [serialize.decode_vector(row) for row in rows]


def weights(indices, text="1"):
    return {"kind": "sup", "weights": [[i, text] for i in indices]}


def transport_results():
    a = vectors([[[i, "1"]] for i in range(1, 5)])
    noise = "1/16777216"
    b = vectors([[[2, "1"], [7, noise]], [[1, "1"], [8, noise]],
                 [[4, "1"], [9, noise]], [[3, "1"], [10, noise]]])
    p = serialize.decode_seminorm(weights(range(1, 7)))
    disk = serialize.decode_disk({"weights": [[i, "1/2"] for i in range(1, 13)]})
    schedule = parse_eps_schedule("geometric:1/2", 4)
    state = run_transport(Enumeration(tuple(a)), Enumeration(tuple(b)),
                          p, disk, schedule, 2)
    return [state.operator, state, state.budget_used(), verify_transport(state)]


def triangularize_results():
    basis = vectors([[[1, "1"], [3, "1/2"]], [[1, "2/3"], [2, "1"]],
                     [[2, "1"], [3, "1"]], [[1, "1"], [4, "-3/2"]]])
    funcs = [CoordFunctional.delta(i) for i in range(1, 7)]
    state = interleave_triangularize(basis, funcs, 2)
    return [state, state.coeffs, state.minors, state.v]


def shift_results():
    basis = vectors([[[1, "1"], [2, "1/3"]], [[2, "1/3"], [3, "2/3"]],
                     [[1, "1/3"], [3, "1"], [4, "1/3"]], [[2, "1/3"], [4, "2/3"]]])
    p = serialize.decode_seminorm(weights(range(1, 5)))
    disk = serialize.decode_disk(
        {"weights": [[i, "1/3"] for i in range(1, 5)] + [[5, "1"], [6, "1"]]})
    spec = build_shift_operator(basis, p, disk)
    premise = range_kernel_premise_check(spec.operator.plus_identity(), 6, 4)
    return [spec, premise]


def witness_results():
    op = serialize.decode_operator({"base": "identity", "terms": [
        {"f": [[k + 1, "1"]], "v": [[k, f"1/{2 ** k}"]]} for k in range(1, 6)]})
    x = serialize.decode_vector([[1, "1/2"], [2, "-3"], [3, "5/4"]])
    y = serialize.decode_vector([[1, "-2"], [3, "7/4"]])
    p = serialize.decode_seminorm(weights(range(1, 4)))
    return list(transitivity_witness(op, x, y, parse("1/1000"), 64, p, window=6))


def gauge_results():
    gens = vectors([[[1, "2"]], [[2, "3/2"]], [[3, "1/2"]], [[1, "1"], [3, "-1"]],
                    [[1, "-1/2"], [2, "1"]]])
    disk = DiskSpec.from_generators(gens)
    probes = vectors([[[1, "1"], [2, "-2/3"], [3, "5"]], [[2, "1/7"]]])
    return [disk] + [minkowski(disk, u) for u in probes]


def common_results():
    half = ["-1", "-1/2", "0", "1/2", "1"]
    grid = [[[1, s], [2, t]] for s in half for t in half]
    a = vectors(grid)
    b = [x + SparseVector({1: parse("1/8"), 2: parse("-1/8")}) for x in a]
    targets = vectors([[[1, "1/4"], [2, "-3/4"]], [[1, "1/2"]], [[2, "1"]]])
    # coordinate 3 carries no item, so its disk weight stays at 1
    net = EpsilonNet(window=3, targets=tuple(targets), eps=parse("1/4"))
    return [common_disk(Enumeration(tuple(a)), Enumeration(tuple(b)), net)]


FLOWS = [transport_results, triangularize_results, shift_results, witness_results,
         gauge_results, common_results]


def walk(value, visit):
    """Call visit(kind, scalar) on every scalar reachable from value.

    kind is "entry" for the entries of vectors and functionals, "weight" for
    seminorm and disk weights and "value" for any other scalar; dict keys
    (coordinate indices) are skipped.  Records are named tuples, walked as
    tuples; operators are walked through their terms and enumerations through
    their items.
    """
    if isinstance(value, _FiniteMap):
        for v in value.entries.values():
            visit("entry", v)
    elif isinstance(value, (SeminormSpec, DiskSpec)):
        for v in (value.weights or {}).values():
            visit("weight", v)
        for g in getattr(value, "generators", None) or ():
            walk(g, visit)
    elif isinstance(value, FiniteRankOperator):
        walk(value.terms, visit)
    elif isinstance(value, Enumeration):
        walk(value.items, visit)
    elif isinstance(value, dict):
        for v in value.values():
            walk(v, visit)
    elif isinstance(value, (list, tuple)):
        for v in value:
            walk(v, visit)
    elif isinstance(value, (Fraction, float, int)):
        visit("value", value)


# scalars each flow's results hold in exact mode, so that a change to the
# records or to the walk cannot shrink the two checks below unseen
SCALAR_COUNTS = {"transport_results": 71, "triangularize_results": 62, "shift_results": 66,
                 "witness_results": 7, "gauge_results": 9, "common_results": 142}


@pytest.mark.parametrize("flow", FLOWS, ids=lambda f: f.__name__)
def test_walk_reaches_every_scalar(flow):
    seen = []
    walk(flow(), lambda kind, v: seen.append(kind))
    assert len(seen) == SCALAR_COUNTS[flow.__name__]


@pytest.mark.parametrize("flow", FLOWS, ids=lambda f: f.__name__)
def test_exact_results_hold_no_float(flow):
    floats = []
    walk(flow(), lambda kind, v: floats.append((kind, v)) if type(v) is float else None)
    assert floats == []


@pytest.mark.parametrize("flow", FLOWS, ids=lambda f: f.__name__)
def test_exact_results_store_fractions(flow):
    """Every entry and weight a result keeps is a Fraction: the integer
    kernels scale their rows back, and no int or bool is left behind."""
    stored = []
    walk(flow(), lambda kind, v: stored.append(v) if kind != "value" else None)
    assert stored and all(type(v) is Fraction for v in stored)


def test_exact_zero_residual_and_gauge_print_as_0():
    """A zero residual and a zero gauge print as "0", the text of an exact zero."""
    witness = run_scenario(Scenario.from_dict({
        "name": "exact-witness", "scalar_mode": "exact", "window": 6, "seed": 1,
        "task": "hypercyclic",
        "payload": {
            "mode": "witness",
            "operator": {"base": "identity", "terms": [
                {"f": [[k + 1, "1"]], "v": [[k, "1/2"]]} for k in range(1, 6)]},
            "x": [[1, "1"]], "y": [[2, "1"]],
            "p": weights(range(1, 4)), "eps": "1/1000", "max_n": 64,
        },
    }))
    table = next(t for t in witness.tables if t.name == "witness")
    assert table.rows[0][1] == "0"

    common = run_scenario(Scenario.from_dict({
        "name": "exact-common", "scalar_mode": "exact", "window": 2, "seed": 1,
        "task": "disk",
        "payload": {"common": {
            "a": [[[1, "1"]], [[2, "1"]]], "b": [[[1, "1"]], [[2, "1"], [1, "1/8"]]],
            "targets": [[[1, "1"]]], "eps": "1/4"}},
    }))
    schedule = next(t for t in common.tables if t.name == "residual-schedule")
    assert schedule.rows[0][1:] == ["0", "0"]
    net_a = next(t for t in common.tables if t.name == "net-report-a")
    assert net_a.rows[0][2] == "0"


SCALAR_TYPES = ("float", "Fraction")


def _names(node):
    """The names and attribute names inside an expression."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def mode_reads(tree):
    """Places where code picks the scalar mode itself: reading `.exact` or
    `.tol`, `isinstance(x, float|Fraction)` and `type(x) is float|Fraction`
    (also `is not`, `==`, `!=` and `in`)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("exact", "tol"):
            yield node.lineno, f".{node.attr}"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "isinstance" and len(node.args) == 2
              and _names(node.args[1]) & set(SCALAR_TYPES)):
            yield node.lineno, "isinstance"
        elif isinstance(node, ast.Compare):
            sides = [node.left] + node.comparators
            calls_type = any(isinstance(side, ast.Call) and isinstance(side.func, ast.Name)
                             and side.func.id == "type" for side in sides)
            if calls_type and any(_names(side) & set(SCALAR_TYPES) for side in sides):
                yield node.lineno, "type"


def test_only_scalars_reads_the_mode():
    """No module but `scalars` reads `.exact` or `.tol`, or tells scalars
    apart by their type: each is how a second scalar mode would come back.
    `scalars` itself tests a value against `Fraction` only where text or an
    entry becomes a scalar (`_exact_entry`) and where it is printed."""
    reads = []
    for path in sorted(Path(orbitlab.__file__).parent.glob("*.py")):
        if path.name != "scalars.py":
            reads += [f"{path.name}:{line} {what}"
                      for line, what in mode_reads(ast.parse(path.read_text()))]
    assert reads == []


def slot_names(tree):
    """Places that name the integer form a vector keeps: the attribute
    `._int`, or the string "_int" that `getattr` and `__setattr__` take."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "_int":
            yield node.lineno, "._int"
        elif isinstance(node, ast.Constant) and node.value == "_int":
            yield node.lineno, '"_int"'


def test_only_vectors_and_scalars_name_the_integer_form():
    """`vectors` owns the slot and the plain function `scalars.integer_of`
    fills and reads it; every other module calls that function, so whether
    and when a form is kept is decided in one place."""
    names = []
    for path in sorted(Path(orbitlab.__file__).parent.glob("*.py")):
        if path.name not in ("vectors.py", "scalars.py"):
            names += [f"{path.name}:{line} {what}"
                      for line, what in slot_names(ast.parse(path.read_text()))]
    assert names == []


# the functions outside `scalars` that scale a row with `integer_row` rather
# than read a kept form through `integer_of`: a row handed to the tracer-named
# `residual`, a generator disk's [G | -G] for its gauge tableau and the core
# of the premise and of the witness's nilpotency test
SCALES_AFRESH = {
    "linalg.py": {"RowReducer.residual"},
    "seminorms.py": {"minkowski"},
    "hypercyclic.py": {"_integer_core"},
}


def row_scalings(tree):
    """(line, function) for each place that names `integer_row` other than
    its import, the function being the innermost enclosing definition, as
    `Class.method` inside a class; an import under another name counts."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if isinstance(node, (ast.Module, ast.ClassDef)) else None
                name = f"{scope}.{child.name}" if scope and inner else inner or scope
                yield from visit(child, name)
                continue
            if isinstance(child, ast.alias) and child.name == "integer_row" and child.asname:
                yield child.lineno, f"import as {child.asname}"
            elif (isinstance(child, ast.Name) and child.id == "integer_row"
                  or isinstance(child, ast.Attribute) and child.attr == "integer_row"):
                yield child.lineno, scope or "<module>"
            yield from visit(child, scope)

    return list(visit(tree, ""))


def test_only_the_listed_functions_scale_a_row_afresh():
    """Outside `scalars`, which defines `integer_row` and keeps its result
    on a vector in `integer_of`, only the functions of SCALES_AFRESH call it:
    every other system is built from the forms the vectors keep, so a new
    Fraction-built system fails here."""
    found = {}
    for path in sorted(Path(orbitlab.__file__).parent.glob("*.py")):
        if path.name != "scalars.py":
            names = {what for _, what in row_scalings(ast.parse(path.read_text()))}
            if names:
                found[path.name] = names
    assert found == SCALES_AFRESH


@pytest.mark.parametrize("source, found", [
    ("def f(x):\n    return integer_row(x)", ["f"]),
    ("class A:\n    def m(self, x):\n        return [integer_row(r) for r in x]", ["A.m"]),
    ("def f(x):\n    def g(y):\n        return integer_row(y)\n    return g", ["f"]),
    ("def f(xs):\n    return map(scalars.integer_row, xs)", ["f"]),
    ("rows = integer_row(x)", ["<module>"]),
    ("from .scalars import integer_row as scaled", ["import as scaled"]),
    ("from .scalars import integer_of, integer_row", []),
    ("def f(x):\n    return integer_of(x)", []),
])
def test_row_scaling_scan_flags_each_way_of_naming_it(source, found):
    assert [what for _, what in row_scalings(ast.parse(source))] == found


@pytest.mark.parametrize("source, found", [
    ("x._int", ["._int"]),
    ("getattr(x, '_int', None)", ['"_int"']),
    ("object.__setattr__(x, '_int', form)", ['"_int"']),
    ("ctx.integer_of(x)", []),
    ("x._integer", []),
    ("_int = 1", []),
])
def test_slot_name_scan_flags_each_way_of_naming_it(source, found):
    assert [what for _, what in slot_names(ast.parse(source))] == found


@pytest.mark.parametrize("source, found", [
    ("ctx.exact", [".exact"]),
    ("x = ctx.tol", [".tol"]),
    ("isinstance(x, float)", ["isinstance"]),
    ("isinstance(x, (int, Fraction))", ["isinstance"]),
    ("isinstance(x, fractions.Fraction)", ["isinstance"]),
    ("type(x) is float", ["type"]),
    ("type(x) is not Fraction", ["type"]),
    ("Fraction == type(x)", ["type"]),
    ("type(x) in (float, int)", ["type"]),
    ("isinstance(x, int)", []),
    ("type(x) is int", []),
    ("isinstance(x, CoordFunctional)", []),
    ("float(x) == y", []),
])
def test_mode_read_scan_flags_type_tests(source, found):
    assert [what for _, what in mode_reads(ast.parse(source))] == found


RETIRED = ("ScalarContext", "EXACT", "close")


def context_names(tree):
    """Places that thread a scalar context: a parameter named `ctx`, or a
    name, attribute, definition or import of `ScalarContext`, of its
    instance `EXACT` or of `close`, the tolerance test that became `==`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.arg == "ctx":
            yield node.lineno, "ctx"
        elif isinstance(node, ast.alias):
            yield from ((node.lineno, n) for n in (node.name, node.asname) if n in RETIRED)
        else:
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    else None)
            if name in RETIRED:
                yield node.lineno, name


def test_no_module_threads_a_scalar_context():
    """The scalar layer is plain functions of `scalars`: no function takes a
    `ctx`, and no module names the retired context, its instance or `close`."""
    names = []
    for path in sorted(Path(orbitlab.__file__).parent.glob("*.py")):
        names += [f"{path.name}:{line} {what}"
                  for line, what in context_names(ast.parse(path.read_text()))]
    assert names == []


@pytest.mark.parametrize("source, found", [
    ("def f(x, ctx=None): pass", ["ctx"]),
    ("lambda ctx: 0", ["ctx"]),
    ("from .scalars import EXACT, ScalarContext", ["EXACT", "ScalarContext"]),
    ("from .vectors import combine as close", ["close"]),
    ("scalars.ScalarContext('exact')", ["ScalarContext"]),
    ("x = EXACT", ["EXACT"]),
    ("class ScalarContext: pass", ["ScalarContext"]),
    ("def close(x, y): return x == y", ["close"]),
    ("ok = close(x, y)", ["close"]),
    ("ctx = 1", []),
    ("integer_row(x.entries)", []),
    ("def f(context): pass", []),
])
def test_context_scan_flags_each_way_of_naming_it(source, found):
    assert [what for _, what in context_names(ast.parse(source))] == found


def test_a_scenario_built_directly_in_a_retired_mode_is_refused():
    """`run_scenario` checks the mode through the same `scalars` check the
    decoders use, also for a Scenario built without `from_dict`."""
    scenario = Scenario("float-built", "float", 6, 1, "hypercyclic",
                        {"mode": "demo", "x0": [[1, "1"]], "horizon": 2})
    with pytest.raises(ValueError, match="^unknown scalar mode 'float'$"):
        run_scenario(scenario)
    assert run_scenario(scenario._replace(scalar_mode="exact")).passed
