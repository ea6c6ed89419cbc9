"""The value types' contract: equal fields give equal objects with equal
hashes, a type is equal only to itself, a disk hashes only in generator form,
the fields of an immutable value type can be neither assigned nor deleted,
and every value type copies and pickles to an equal value.  Reports are the
one mutable type."""

import copy
import pickle
from fractions import Fraction

import pytest

from orbitlab.density import Enumeration
from orbitlab.operators import ZERO, FiniteRankOperator
from orbitlab.reports import CheckResult, Report, Table
from orbitlab.scalars import ScalarContext
from orbitlab.seminorms import DiskSpec, SeminormSpec
from orbitlab.vectors import CoordFunctional, SparseVector


def _term(i):
    return CoordFunctional.delta(i), SparseVector({i + 1: Fraction(1, i + 1)})


def _report(passed=True):
    return Report("s", "transport", "exact", 1, "0" * 64, "0.1.0",
                  checks=[CheckResult("c", passed)], tables=[Table("t", ["n"], [["1"]])],
                  data={"k": "v"})


# per type: a builder of fresh, equal values; a value with one field changed;
# the names of its fields
HASHABLE = {
    "SparseVector": (lambda: SparseVector({1: 1, 3: Fraction(-1, 2)}),
                     SparseVector({1: 1}), ("entries",)),
    "CoordFunctional": (lambda: CoordFunctional({2: Fraction(3, 4)}),
                        CoordFunctional({2: 1}), ("entries",)),
    "ScalarContext": (lambda: ScalarContext("float"), ScalarContext("exact"), ("mode",)),
    "FiniteRankOperator": (lambda: FiniteRankOperator(ZERO, [_term(1), _term(2)]),
                           FiniteRankOperator(terms=[_term(1), _term(2)]), ("base", "terms")),
    "Enumeration": (lambda: Enumeration([SparseVector.basis(1), SparseVector.basis(2)]),
                    Enumeration([SparseVector.basis(2), SparseVector.basis(1)]), ("items",)),
    "DiskSpec-generators": (lambda: DiskSpec(generators=[SparseVector.basis(1)]),
                            DiskSpec(generators=[SparseVector.basis(2)]),
                            ("weights", "generators")),
}
UNHASHABLE = {
    "SeminormSpec": (lambda: SeminormSpec("sup", {1: 1, 2: Fraction(1, 2)}),
                     SeminormSpec("l1", {1: 1, 2: Fraction(1, 2)}), ("kind", "weights")),
    "DiskSpec-weights": (lambda: DiskSpec(weights={1: 1, 2: Fraction(1, 3)}),
                         DiskSpec(weights={1: 1}), ("weights", "generators")),
    "Report": (_report, _report(passed=False), ()),
}
IMMUTABLE = {**HASHABLE, **{k: v for k, v in UNHASHABLE.items() if k != "Report"}}


@pytest.mark.parametrize("name", sorted(HASHABLE))
def test_equal_fields_give_equal_values_and_hashes(name):
    build, other, _ = HASHABLE[name]
    x, y = build(), build()
    assert x is not y and x == y and not x != y
    assert hash(x) == hash(y)
    assert len({x, y, other}) == 2
    assert x != other


@pytest.mark.parametrize("name", sorted(UNHASHABLE))
def test_unhashable_values_are_still_equal_by_fields(name):
    build, other, _ = UNHASHABLE[name]
    x, y = build(), build()
    assert x is not y and x == y and not x != y
    assert x != other
    with pytest.raises(TypeError):
        hash(x)


def test_a_value_equals_only_its_own_type():
    assert SparseVector({1: 1}) != CoordFunctional({1: 1})
    assert not SparseVector({1: 1}) == CoordFunctional({1: 1})
    assert SparseVector({1: 1}) != {1: 1}
    assert Enumeration([SparseVector.basis(1)]) != (SparseVector.basis(1),)
    assert ScalarContext("exact") != "exact"


def test_cached_data_is_kept_past_the_guard_and_outside_equality():
    built, fresh = FiniteRankOperator(ZERO, [_term(1)]), FiniteRankOperator(ZERO, [_term(1)])
    built.apply(SparseVector.basis(1))
    assert "coord_index" in vars(built) and "coord_index" not in vars(fresh)
    assert built == fresh and hash(built) == hash(fresh)
    ctx = ScalarContext("float")
    assert ctx.one == 1.0 and vars(ctx)["one"] is ctx.one


@pytest.mark.parametrize("name", sorted(IMMUTABLE))
def test_immutable_fields_refuse_assignment_and_deletion(name):
    build, other, fields = IMMUTABLE[name]
    x = build()
    for field in fields:
        before = getattr(x, field)
        with pytest.raises(AttributeError):
            setattr(x, field, getattr(other, field))
        with pytest.raises(AttributeError):
            delattr(x, field)
        assert getattr(x, field) is before
    assert x == build()


def test_a_report_is_mutable_and_owns_its_lists():
    report = _report()
    report.checks = [CheckResult("c", False)]
    assert report == _report(passed=False)
    report.tables.append(Table("u", ["m"], []))
    assert report != _report(passed=False)
    empty, other = Report("s", "t", "exact", 0, "h", "v"), Report("s", "t", "exact", 0, "h", "v")
    assert (empty.checks, empty.tables, empty.data) == ([], [], {})
    assert empty.checks is not other.checks and empty.data is not other.data


@pytest.mark.parametrize("name", sorted({**HASHABLE, **UNHASHABLE}))
def test_values_copy_and_pickle_to_equal_values(name):
    build, _, fields = {**HASHABLE, **UNHASHABLE}[name]
    x = build()
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is type(x) and y == x
        if name in IMMUTABLE:
            with pytest.raises(AttributeError):
                setattr(y, fields[0], None)
