"""The two scalar modes stay separate: no float reaches an exact-mode result,
every stored float-mode scalar is a float, and float zeros print as "0.0"."""

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
from orbitlab.scalars import EXACT, FLOAT
from orbitlab.scenarios import Scenario, parse_eps_schedule, run_scenario
from orbitlab.transport import run_transport, verify_transport
from orbitlab.triangular import interleave_triangularize
from orbitlab.vectors import CoordFunctional, SparseVector, _FiniteMap


def vectors(rows, ctx):
    return [serialize.decode_vector(row, ctx) for row in rows]


def weights(indices, text="1"):
    return {"kind": "sup", "weights": [[i, text] for i in indices]}


def transport_results(ctx):
    a = vectors([[[i, "1"]] for i in range(1, 5)], ctx)
    noise = "1/16777216"
    b = vectors([[[2, "1"], [7, noise]], [[1, "1"], [8, noise]],
                 [[4, "1"], [9, noise]], [[3, "1"], [10, noise]]], ctx)
    p = serialize.decode_seminorm(weights(range(1, 7)), ctx)
    disk = serialize.decode_disk({"weights": [[i, "1/2"] for i in range(1, 13)]}, ctx)
    schedule = parse_eps_schedule("geometric:1/2", 4, ctx)
    state = run_transport(Enumeration(tuple(a)), Enumeration(tuple(b)),
                          p, disk, schedule, 2, ctx)
    return [state.operator, state, state.budget_used(ctx), verify_transport(state, ctx)]


def triangularize_results(ctx):
    basis = vectors([[[1, "1"], [3, "1/2"]], [[1, "2/3"], [2, "1"]],
                     [[2, "1"], [3, "1"]], [[1, "1"], [4, "-3/2"]]], ctx)
    funcs = [CoordFunctional.delta(i, ctx) for i in range(1, 7)]
    state = interleave_triangularize(basis, funcs, 2, ctx)
    return [state, state.coeffs, state.minors, state.v]


def shift_results(ctx):
    basis = vectors([[[1, "1"], [2, "1/3"]], [[2, "1/3"], [3, "2/3"]],
                     [[1, "1/3"], [3, "1"], [4, "1/3"]], [[2, "1/3"], [4, "2/3"]]], ctx)
    p = serialize.decode_seminorm(weights(range(1, 5)), ctx)
    disk = serialize.decode_disk(
        {"weights": [[i, "1/3"] for i in range(1, 5)] + [[5, "1"], [6, "1"]]}, ctx)
    spec = build_shift_operator(basis, p, disk, ctx)
    premise = range_kernel_premise_check(spec.operator.plus_identity(), 6, 4, ctx)
    return [spec, premise]


def witness_results(ctx):
    op = serialize.decode_operator({"base": "identity", "terms": [
        {"f": [[k + 1, "1"]], "v": [[k, f"1/{2 ** k}"]]} for k in range(1, 6)]}, ctx)
    x = serialize.decode_vector([[1, "1/2"], [2, "-3"], [3, "5/4"]], ctx)
    y = serialize.decode_vector([[1, "-2"], [3, "7/4"]], ctx)
    p = serialize.decode_seminorm(weights(range(1, 4)), ctx)
    return list(transitivity_witness(op, x, y, ctx.parse("1/1000"), 64, p,
                                     window=6, ctx=ctx))


def gauge_results(ctx):
    gens = vectors([[[1, "2"]], [[2, "3/2"]], [[3, "1/2"]], [[1, "1"], [3, "-1"]],
                    [[1, "-1/2"], [2, "1"]]], ctx)
    disk = DiskSpec.from_generators(gens)
    probes = vectors([[[1, "1"], [2, "-2/3"], [3, "5"]], [[2, "1/7"]]], ctx)
    return [disk] + [minkowski(disk, u, ctx) for u in probes]


def common_results(ctx):
    half = ["-1", "-1/2", "0", "1/2", "1"]
    grid = [[[1, s], [2, t]] for s in half for t in half]
    a = vectors(grid, ctx)
    b = [x + SparseVector({1: ctx.parse("1/8"), 2: ctx.parse("-1/8")}) for x in a]
    targets = vectors([[[1, "1/4"], [2, "-3/4"]], [[1, "1/2"]], [[2, "1"]]], ctx)
    # coordinate 3 carries no item, so its disk weight stays at ctx.one
    net = EpsilonNet(window=3, targets=tuple(targets), eps=ctx.parse("1/4"))
    return [common_disk(Enumeration(tuple(a)), Enumeration(tuple(b)), net,
                        ctx=ctx)]


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
    walk(flow(EXACT), lambda kind, v: seen.append(kind))
    assert len(seen) == SCALAR_COUNTS[flow.__name__]


@pytest.mark.parametrize("flow", FLOWS, ids=lambda f: f.__name__)
def test_exact_results_hold_no_float(flow):
    floats = []
    walk(flow(EXACT), lambda kind, v: floats.append((kind, v)) if type(v) is float else None)
    assert floats == []


@pytest.mark.parametrize("flow", FLOWS, ids=lambda f: f.__name__)
def test_float_results_store_floats(flow):
    stored = []
    walk(flow(FLOAT), lambda kind, v: stored.append(v) if kind != "value" else None)
    assert stored and all(type(v) is float for v in stored)


def test_float_zero_residual_and_gauge_print_as_float():
    witness = run_scenario(Scenario.from_dict({
        "name": "float-witness", "scalar_mode": "float", "window": 6, "seed": 1,
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
    assert table.rows[0][1] == "0.0"

    common = run_scenario(Scenario.from_dict({
        "name": "float-common", "scalar_mode": "float", "window": 2, "seed": 1,
        "task": "disk",
        "payload": {"common": {
            "a": [[[1, "1"]], [[2, "1"]]], "b": [[[1, "1"]], [[2, "1"], [1, "1/8"]]],
            "targets": [[[1, "1"]]], "eps": "1/4"}},
    }))
    schedule = next(t for t in common.tables if t.name == "residual-schedule")
    assert schedule.rows[0][1:] == ["0.0", "0.0"]
    net_a = next(t for t in common.tables if t.name == "net-report-a")
    assert net_a.rows[0][2] == "0.0"


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
    """The scalar context hides its mode: no other module reads `.exact` or
    `.tol`, or tells the modes apart by the type of a scalar."""
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
    """`vectors` owns the slot and `ScalarContext.integer_of` fills and reads
    it; every other module asks the accessor, so whether and when a form is
    kept is decided in one place."""
    names = []
    for path in sorted(Path(orbitlab.__file__).parent.glob("*.py")):
        if path.name not in ("vectors.py", "scalars.py"):
            names += [f"{path.name}:{line} {what}"
                      for line, what in slot_names(ast.parse(path.read_text()))]
    assert names == []


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
