"""The value types' contract: equal fields give equal objects with equal
hashes, a type is equal only to itself, a disk hashes only in generator form,
the fields of an immutable value type can be neither assigned nor deleted,
and every value type copies and pickles to an equal value.  Data a value
caches (an operator's index, a disk's scaled gauge, a vector's integer form)
stays outside equality, hashing, copies and pickles.  Reports are the one
mutable type."""

import copy
import pickle
from decimal import Decimal
from fractions import Fraction

import pytest

from orbitlab import simplex
from orbitlab.density import Enumeration
from orbitlab.errors import NotInSpan
from orbitlab.operators import ZERO, FiniteRankOperator
from orbitlab.reports import CheckResult, Report, Table
from orbitlab.scalars import EXACT, ScalarContext
from orbitlab.seminorms import DiskSpec, SeminormSpec, gauge_below, minkowski
from orbitlab.vectors import CoordFunctional, SparseVector


def _term(i):
    return CoordFunctional.delta(i), SparseVector({i + 1: Fraction(1, i + 1)})


def _report(passed=True):
    return Report("s", "transport", "exact", 1, "0" * 64, "0.1.0",
                  checks=[CheckResult("c", passed)], tables=[Table("t", ["n"], [["1"]])],
                  data={"k": "v"})


# per type: a builder of fresh, equal values; a value with one field changed,
# None for the scalar context, whose one mode leaves no other value; the
# names of its fields
HASHABLE = {
    "SparseVector": (lambda: SparseVector({1: 1, 3: Fraction(-1, 2)}),
                     SparseVector({1: 1}), ("entries",)),
    "CoordFunctional": (lambda: CoordFunctional({2: Fraction(3, 4)}),
                        CoordFunctional({2: 1}), ("entries",)),
    "ScalarContext": (lambda: ScalarContext("exact"), None, ("mode",)),
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
    if other is not None:
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
    with pytest.raises(ValueError, match="unknown scalar mode 'float'"):
        ScalarContext("float")


def test_coerce_reads_rationals_exactly():
    """The simplex's entry takes Fractions as they are and ints and text as
    the Fractions they name."""
    third = Fraction(1, 3)
    assert EXACT.coerce(third) is third
    for value, want in ((7, Fraction(7)), ("-2/6", Fraction(-1, 3)), ("0.1", Fraction(1, 10))):
        got = EXACT.coerce(value)
        assert type(got) is Fraction and got == want


@pytest.mark.parametrize("value", [0.5, Decimal("0.5"), 0.5 + 0j, True],
                         ids=["float", "decimal", "complex", "bool"])
def test_coerce_refuses_what_is_not_exact(value):
    """A float (or any number that is not an int or a Fraction) is refused,
    not read as its binary value: the one mode has no lossy scalars.  A bool
    is refused too, as the entry maps refuse it."""
    with pytest.raises(TypeError, match="as an exact scalar"):
        EXACT.coerce(value)


ENTRY_MAPS = {
    "vector": SparseVector,
    "functional": CoordFunctional,
    "seminorm": lambda weights: SeminormSpec("sup", weights),
    "disk": lambda weights: DiskSpec(weights=weights),
}


@pytest.mark.parametrize("value", [0.1, 0.0, True, False], ids=["float", "float-zero", "true", "false"])
@pytest.mark.parametrize("kind", list(ENTRY_MAPS))
def test_entries_and_weights_refuse_floats_and_bools(kind, value):
    """An entry or weight that is not an int or a Fraction is refused, zero
    or not, with its coordinate named: a float would be paired as a float but
    read by the integer kernels as its binary value, and a bool would be
    stored as it is."""
    with pytest.raises(TypeError, match="at coordinate 3 is not an int or a Fraction"):
        ENTRY_MAPS[kind]({1: Fraction(1, 2), 3: value})


@pytest.mark.parametrize("kind", list(ENTRY_MAPS))
def test_int_entries_and_weights_become_fractions(kind):
    built = ENTRY_MAPS[kind]({1: 2, 2: Fraction(1, 3)})
    entries = built.entries if kind in ("vector", "functional") else built.weights
    assert entries == {1: 2, 2: Fraction(1, 3)}
    assert all(type(v) is Fraction for v in entries.values())


def test_cached_data_is_kept_past_the_guard_and_outside_equality():
    built, fresh = FiniteRankOperator(ZERO, [_term(1)]), FiniteRankOperator(ZERO, [_term(1)])
    built.apply(SparseVector.basis(1))
    assert "coord_index" in vars(built) and "coord_index" not in vars(fresh)
    assert built == fresh and hash(built) == hash(fresh)
    gens = [SparseVector({1: Fraction(1, 2)}), SparseVector({1: 1, 2: Fraction(-1, 3)})]
    gauged, fresh = DiskSpec.from_generators(gens), DiskSpec.from_generators(gens)
    assert minkowski(gauged, SparseVector({2: 1})) == 9
    assert gauged._gauge_rows is not None and fresh._gauge_rows is None
    assert gauged == fresh and hash(gauged) == hash(fresh)
    for y in (copy.copy(gauged), copy.deepcopy(gauged), pickle.loads(pickle.dumps(gauged))):
        assert y == gauged and y._gauge_rows is None
    for field in ("weights", "generators", "_gauge_rows", "_gauge_weights"):
        with pytest.raises(AttributeError):
            setattr(gauged, field, None)
    weighted = DiskSpec(weights={1: 2})
    assert minkowski(weighted, SparseVector({1: 1})) == Fraction(1, 2)
    assert weighted._gauge_rows is None
    # a weight disk's integer inverse weights, from its first exact gauge_below
    assert weighted._gauge_weights is None and gauged._gauge_weights is None
    weights = {1: Fraction(2, 3), 2: Fraction(5), 4: 3}
    gauged, fresh = DiskSpec(weights=weights), DiskSpec(weights=weights)
    x, y = SparseVector({1: Fraction(1, 2)}), SparseVector({2: 1, 4: Fraction(-1, 7)})
    assert gauge_below(gauged, x, y, Fraction(1)) and not gauge_below(gauged, x, y, Fraction(1, 2))
    assert gauged._gauge_weights == ({1: 45, 2: 6, 4: 10}, 30) and fresh._gauge_weights is None
    assert gauged == fresh
    with pytest.raises(TypeError):
        hash(gauged)
    for y in (copy.copy(gauged), copy.deepcopy(gauged), pickle.loads(pickle.dumps(gauged))):
        assert y == gauged and y._gauge_weights is None
    with pytest.raises(AttributeError):
        setattr(gauged, "_gauge_weights", None)


def test_a_generator_disk_keeps_its_last_optimal_tableau_outside_equality():
    """Only a generator gauge that is solved keeps a tableau, in
    `_gauge_rows` beside the scaled [G | -G]; later gauges re-solve the same
    tableau, and the disk still equals, hashes, copies and pickles as a
    fresh one, without it."""
    gens = [SparseVector({1: Fraction(1, 2), 2: 1}), SparseVector({1: 1, 2: 2})]
    gauged, fresh = DiskSpec.from_generators(gens), DiskSpec.from_generators(gens)
    assert minkowski(gauged, SparseVector.zero()) == 0 and gauged._gauge_rows is None
    for outside in (SparseVector({3: 1}), SparseVector({1: 1})):
        with pytest.raises(NotInSpan):
            minkowski(gauged, outside)
        assert gauged._gauge_rows[2] is None
    assert minkowski(gauged, SparseVector({1: 1, 2: 2})) == 1
    tab = gauged._gauge_rows[2]
    assert isinstance(tab, simplex._IntTableau)
    assert minkowski(gauged, SparseVector({1: Fraction(-3, 5), 2: Fraction(-6, 5)})) == Fraction(3, 5)
    with pytest.raises(NotInSpan):
        minkowski(gauged, SparseVector({2: 1}))
    assert gauged._gauge_rows[2] is tab and fresh._gauge_rows is None
    assert gauged == fresh and hash(gauged) == hash(fresh)
    for y in (copy.copy(gauged), copy.deepcopy(gauged), pickle.loads(pickle.dumps(gauged))):
        assert y == gauged and y._gauge_rows is None
    with pytest.raises(AttributeError):
        setattr(gauged, "_gauge_rows", None)
    weighted = DiskSpec(weights={1: 2})
    assert minkowski(weighted, SparseVector({1: 1})) == Fraction(1, 2)
    assert weighted._gauge_rows is None


@pytest.mark.parametrize("cls", [SparseVector, CoordFunctional])
def test_a_maps_integer_form_is_kept_past_the_guard_and_outside_equality(cls):
    entries = {1: Fraction(1, 2), 3: Fraction(-2, 3), 4: 5}
    x, fresh = cls(entries), cls(entries)
    assert x._int is None
    assert EXACT.integer_of(x) == ({1: 3, 3: -4, 4: 30}, 6)
    # kept: a later call hands back the same form, and builds none
    assert EXACT.integer_of(x) is x._int and fresh._int is None
    assert x == fresh and hash(x) == hash(fresh)
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert y == x and y._int is None
    for change in (lambda: setattr(x, "_int", None), lambda: delattr(x, "_int")):
        with pytest.raises(AttributeError):
            change()
    assert x._int == ({1: 3, 3: -4, 4: 30}, 6)
    # results of arithmetic start without one
    assert all(y._int is None for y in (-x, x + fresh, x - fresh, x.scale(2), x.restrict([1])))


def test_only_an_exact_kernel_fills_the_integer_form():
    op = FiniteRankOperator(ZERO, [_term(1), _term(2)])
    x = SparseVector({1: Fraction(2, 3), 2: 1})
    assert all(f._int is None and v._int is None for f, v in op.terms)
    image = op.apply(x)
    assert x._int == ({1: 2, 2: 3}, 3) and image._int is None
    assert all(f._int is not None and v._int is not None for f, v in op.terms)
    disk = DiskSpec(weights={1: 1, 2: 1})
    y, z = SparseVector({1: Fraction(1, 5)}), SparseVector({2: Fraction(1, 5)})
    assert y._int is None and z._int is None
    assert gauge_below(disk, y, z, Fraction(1, 2))
    assert y._int == ({1: 1}, 5) and z._int == ({2: 1}, 5)


@pytest.mark.parametrize("name", sorted(IMMUTABLE))
def test_immutable_fields_refuse_assignment_and_deletion(name):
    build, other, fields = IMMUTABLE[name]
    x = build()
    for field in fields:
        before = getattr(x, field)
        value = before if other is None else getattr(other, field)
        with pytest.raises(AttributeError):
            setattr(x, field, value)
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
