"""The gauge LP's exact simplex: `gauge_tableau` and `resolve` on integers
against the Fraction two-phase tableau of `oracles.simplex` and against an
enumeration of the LP's basic solutions."""

import itertools
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from orbitlab import DiskSpec, SparseVector, minkowski, simplex
from orbitlab.errors import NotInSpan
from orbitlab.scalars import ONE
from orbitlab.simplex import Infeasible, gauge_tableau, resolve
from orbitlab.vectors import combine

import oracles


def F(n, d=1):
    return Fraction(n, d)


def test_infeasible_detected():
    """x1 - x2 = 1 and x1 - x2 = 2 have no common solution: the second row
    is left basic in its artificial and reads non-zero.  The tableau stays
    dual feasible for the next b."""
    tab = gauge_tableau([[1, -1], [1, -1]], 2, 1)
    with pytest.raises(Infeasible):
        resolve(tab, [1, 2], 1)
    assert resolve(tab, [-3, -3], 2) == F(3, 2)


def test_degenerate_ties_terminate():
    # many columns producing the same point; Bland must not cycle
    tab = gauge_tableau([[1, 1, 1, 1], [1, 1, 1, 0]], 4, 1)
    assert resolve(tab, [1, 1], 1) == 1


def test_prefers_cheaper_route():
    """Where two combinations reach u, the gauge takes the one of least
    coefficient sum: 2 g_1 reaches (1) at 1/2, and the diagonal (1, 1)
    reaches it at 1 where the unit vectors take 2."""
    line = DiskSpec.from_generators([SparseVector({1: F(1)}), SparseVector({1: F(2)})])
    assert minkowski(line, SparseVector({1: F(1)})) == F(1, 2)
    assert minkowski(line, SparseVector({1: F(-3)})) == F(3, 2)
    plane = DiskSpec.from_generators([SparseVector({1: F(1)}), SparseVector({2: F(1)}),
                                      SparseVector({1: F(1), 2: F(1)})])
    assert minkowski(plane, SparseVector({1: F(1), 2: F(1)})) == 1
    assert minkowski(plane, SparseVector({1: F(2), 2: F(-1)})) == 3
    assert minkowski(plane, SparseVector({1: F(-3), 2: F(-2)})) == 3


def test_a_negative_rhs_is_read_without_a_sign_flip():
    """x1 - x2 = b: the tableau built at b = 0 has x1 basic, so b = -2
    reads a negative rhs, and one dual pivot brings x2 in at value 2.  The
    rows keep their signs as built, and b = 5 pivots x1 back in."""
    tab = gauge_tableau([[1, -1]], 2, 1)
    assert tab.basis == [0] and tab.rows == [[1, -1, 1, 0]]
    assert resolve(tab, [-2], 1) == 2 and tab.basis == [1]
    assert resolve(tab, [5], 3) == F(5, 3) and tab.basis == [0]


def reprice(tab):
    """The reduced-cost row from scratch: den times the unit costs on the
    variables, minus every row whose basic column is a variable."""
    red = [tab.den] * tab.nvars + [0] * (tab.nrows + 1)
    for row, bcol in zip(tab.rows, tab.basis):
        if bcol < tab.nvars:
            red = [r - y for r, y in zip(red, row)]
    return red


class _CheckedIntTableau(simplex._IntTableau):
    """Before every pivot of the integer tableau, its row and column are the
    ones the rule in force picks: a drive-out pivot (an artificial leaves)
    on its row's first non-zero column, a Bland pivot of `gauge_tableau`
    after them, or a pivot of `resolve`.  After it, the carried
    reduced-cost row equals `reprice`, and den is |det| of the basis
    columns of [L A | I], the rows as built (`start`).  Counts the pivots
    of each kind and the negative ones."""

    last = None

    def __init__(self, *args):
        super().__init__(*args)
        self.start = [row[:self.ncols] for row in self.rows]
        self.drive_outs, self.bland, self.dual, self.negative = 0, 0, 0, 0
        _CheckedIntTableau.last = self

    def pivot(self, row, col):
        rows, red, n = self.rows, self.red, self.ncols

        def lowest_basic(candidates):
            return min(candidates, key=self.basis.__getitem__)

        if sys._getframe(1).f_code.co_name == "resolve":
            self.dual += 1
            # Bland in the dual: the lowest basic column among the negative
            # rhs leaves, the smallest red_j / -a_rj enters, lowest j on ties
            assert row == lowest_basic(i for i in range(self.nrows) if rows[i][n] < 0)
            ratios = {j: F(red[j], -rows[row][j]) for j in range(self.nvars) if rows[row][j] < 0}
            assert col == min(ratios, key=lambda j: (ratios[j], j))
        elif self.basis[row] >= self.nvars:
            self.drive_outs += 1
            assert col == next(j for j in range(self.nvars) if rows[row][j])
        else:
            self.bland += 1
            assert col == next(j for j in range(self.nvars) if red[j] < 0)
            assert row == lowest_basic(i for i in range(self.nrows) if rows[i][col] > 0)
        self.negative += self.rows[row][col] < 0
        super().pivot(row, col)
        assert self.red == reprice(self)
        basis = [[F(r[j]) for j in self.basis] for r in self.start]
        assert self.den == abs(oracles.determinant(basis))


def generator_lp(gens, u):
    """The gauge LP built from scratch: unit costs, [G | -G] and u over the
    coordinates of u and of the generators."""
    coords = sorted(set(u.support).union(*(g.support for g in gens)))
    a = [[g.get(i) for g in gens] + [-g.get(i) for g in gens] for i in coords]
    return [ONE] * (2 * len(gens)), a, [u.get(i) for i in coords]


def fraction_gauge(gens, u):
    """The gauge of u by `oracles.simplex` on `generator_lp`; NotInSpan, with
    `minkowski`'s text, for an infeasible LP."""
    try:
        return oracles.simplex(*generator_lp(gens, u))[0]
    except Infeasible:
        raise NotInSpan("u is not a combination of the generators") from None


def scaled_rows(gens):
    """(L, L [G | -G]) over the generators' support in ascending order, L the
    lcm of the generators' denominators, built here from the entries."""
    scale = math.lcm(*(v.denominator for g in gens for v in g.entries.values()))
    coords = sorted(set().union(*(g.support for g in gens)))
    return scale, [[int(scale * g.get(i)) for g in gens] + [int(-scale * g.get(i)) for g in gens]
                   for i in coords]


def random_generators(rng, dim, deficient):
    """Generators on coordinates 1..dim with denominators 1, 2 and 4; a
    deficient family repeats coordinate dim - 1 negated at dim, so its row
    for dim is left basic in its artificial, zero on every column."""
    gens = [SparseVector({i: F(rng.randint(-3, 3), rng.choice((1, 2, 4)))
                          for i in rng.sample(range(1, dim + 1), rng.randint(1, dim))})
            for _ in range(rng.randint(2, dim + 2))]
    if deficient:
        gens = [SparseVector({**{i: v for i, v in g.entries.items() if i != dim},
                              dim: -g.get(dim - 1)}) for g in gens]
    return gens


def duplicated_generators(rng, dim):
    """`random_generators`, free or deficient, with duplicate, negated
    and scaled copies shuffled in, so that reduced costs and ratios tie."""
    base = random_generators(rng, dim, rng.random() < 0.5)
    gens = base + [g.scale(F(rng.choice((1, 1, -1, 2, -3)), rng.choice((1, 1, 2))))
                   for g in rng.sample(base, rng.randint(1, len(base)))]
    rng.shuffle(gens)
    return gens


FAMILIES = {
    "free": lambda rng, dim: random_generators(rng, dim, False),
    "deficient": lambda rng, dim: random_generators(rng, dim, True),
    "duplicated": duplicated_generators,
}


def random_probes(rng, gens, dim):
    """Zero, off the generators' support (coordinate dim + 1), combinations of
    the generators, and free vectors with zeros and denominators 3, 5 and 7,
    mostly zero on the last two coordinates."""
    probes = [SparseVector.zero(), SparseVector({1: F(1), dim + 1: F(-2, 7)})]
    for _ in range(4):
        probes.append(combine([(F(rng.randint(-2, 2), rng.choice((1, 3, 5))), g) for g in gens]))
        top = dim - 1 if rng.random() < 0.75 else dim + 1
        probes.append(SparseVector({i: F(rng.choice((0, 0, -2, -1, 1, 3)),
                                         rng.choice((1, 3, 5, 7))) for i in range(1, top)}))
    return probes


def outcome(run):
    """run()'s value, or the NotInSpan or Infeasible it raised."""
    try:
        return run()
    except (NotInSpan, Infeasible) as exc:
        return exc


def vertex_gauge(gens, u):
    """The gauge of u by enumerating the basic solutions of the gauge LP
    `generator_lp`: every set of rank [G | -G] columns independent over all
    rows, solved exactly; the least coefficient sum among the non-negative
    solutions, or NotInSpan, with `minkowski`'s text, if there is none.
    Independent of any pivoting path."""
    _, a, b = generator_lp(gens, u)
    r, best = oracles.rank(a), None
    for cols in itertools.combinations(range(2 * len(gens)), r):
        sub = [[row[j] for j in cols] for row in a]
        if oracles.rank(sub) < r:
            continue
        x = oracles.solve_any(sub, b)
        if x is not None and all(v >= 0 for v in x) and (best is None or sum(x) < best):
            best = sum(x)
    if best is None:
        raise NotInSpan("u is not a combination of the generators")
    return best


def test_matches_vertex_oracle_on_random_instances():
    """Gauges of `random_probes` on free, deficient and duplicated generator
    disks, all read off each disk's one kept tableau, equal `vertex_gauge`'s
    by type, repr and text."""
    rng = random.Random(29)
    seen = {family: 0 for family in FAMILIES}
    seen.update({"solved": 0, "not in span": 0})
    for _ in range(8):
        for family, make in FAMILIES.items():
            dim = rng.randint(2, 3 if family == "duplicated" else 4)
            gens = make(rng, dim)
            disk = DiskSpec.from_generators(gens)
            for u in random_probes(rng, gens, dim):
                got, want = outcome(lambda: minkowski(disk, u)), outcome(lambda: vertex_gauge(gens, u))
                assert (type(got), repr(got), str(got)) == (type(want), repr(want), str(want))
                seen["not in span" if isinstance(got, NotInSpan) else "solved"] += 1
            seen[family] += 1
    assert min(seen.values()) >= 8, seen


def test_gauge_is_a_norm_on_the_span():
    """On free, deficient and duplicated generator disks, with one kept
    tableau each: every generator has gauge at most 1, a non-zero u in the
    span has a positive gauge, p(t u) = |t| p(u) for t of either sign, and
    p(u + v) <= p(u) + p(v); a u outside the span stays outside for every
    t != 0."""
    rng = random.Random(53)
    seen = {"in span": 0, "not in span": 0, "strict triangle": 0}
    for _ in range(20):
        for make in FAMILIES.values():
            dim = rng.randint(2, 5)
            gens = make(rng, dim)
            disk = DiskSpec.from_generators(gens)
            assert all(minkowski(disk, g) <= 1 for g in gens)
            probes = random_probes(rng, gens, dim)
            spanned = []
            for u in probes:
                t = F(rng.choice((-3, -2, -1, 1, 2, 5)), rng.choice((1, 2, 7)))
                try:
                    p = minkowski(disk, u)
                except NotInSpan:
                    for v in (u.scale(t), u.scale(-1)):
                        with pytest.raises(NotInSpan):
                            minkowski(disk, v)
                    seen["not in span"] += 1
                    continue
                assert (p > 0) == (not u.is_zero())
                assert minkowski(disk, u.scale(t)) == abs(t) * p
                spanned.append((u, p))
                seen["in span"] += 1
            for (u, p), (v, q) in itertools.combinations(spanned, 2):
                s = minkowski(disk, u + v)
                assert s <= p + q
                seen["strict triangle"] += s < p + q
    assert min(seen.values()) >= 20, seen


def test_gauge_tableau_ends_dual_feasible(monkeypatch):
    """`gauge_tableau` of a scaled [G | -G], for free, deficient and
    duplicated generator lists: every variable's reduced cost is >= 0,
    every row still basic in an artificial is zero on every variable, the
    rhs is 0 throughout, and the rows as built are [L A | I | 0].  Full-rank
    lists, whose artificials are all driven out, and rank-deficient ones
    both occur."""
    monkeypatch.setattr(simplex, "_IntTableau", _CheckedIntTableau)
    rng = random.Random(43)
    seen = {"full rank": 0, "artificial left basic": 0}
    for family, make in FAMILIES.items():
        seen[f"{family}: Bland pivots"] = seen[f"{family}: negative pivot"] = 0
        for _ in range(60):
            gens = make(rng, rng.randint(2, 5))
            scale, rows = scaled_rows(gens)
            tab = gauge_tableau(rows, 2 * len(gens), scale)
            assert tab.start == [row + [int(k == i) for k in range(len(rows))]
                                 for i, row in enumerate(rows)]
            assert all(v >= 0 for v in tab.red[:tab.nvars])
            for row, bcol in zip(tab.rows, tab.basis):
                assert row[tab.ncols] == 0
                if bcol >= tab.nvars:
                    assert not any(row[:tab.nvars])
            seen[f"{family}: Bland pivots"] += tab.bland > 0
            seen[f"{family}: negative pivot"] += tab.negative > 0
            left = any(b >= tab.nvars for b in tab.basis)
            seen["artificial left basic" if left else "full rank"] += 1
    assert min(seen.values()) >= 10, seen


def test_carried_costs_match_repricing(monkeypatch):
    """The checked integer tableau on the gauges of free, deficient and
    duplicated generator lists under `random_probes`, which reach
    drive-out, Bland, dual and negative pivots, artificials left basic and
    scaled rows; each gauge is `fraction_gauge`'s by repr or NotInSpan."""
    monkeypatch.setattr(simplex, "_IntTableau", _CheckedIntTableau)
    rng = random.Random(41)
    seen = {"drive-out pivot": 0, "Bland pivot": 0, "dual pivot": 0, "negative pivot": 0,
            "artificial left basic": 0, "scaled": 0, "solved": 0, "not in span": 0}
    for _ in range(40):
        for make in FAMILIES.values():
            dim = rng.randint(2, 5)
            gens = make(rng, dim)
            disk = DiskSpec.from_generators(gens)
            for u in random_probes(rng, gens, dim):
                got, want = outcome(lambda: minkowski(disk, u)), outcome(lambda: fraction_gauge(gens, u))
                assert (type(got), repr(got), str(got)) == (type(want), repr(want), str(want))
                seen["not in span" if isinstance(got, NotInSpan) else "solved"] += 1
            tab = disk._gauge_rows[1]
            for key, n in (("drive-out pivot", tab.drive_outs), ("Bland pivot", tab.bland),
                           ("dual pivot", tab.dual), ("negative pivot", tab.negative)):
                seen[key] += n > 0
            seen["artificial left basic"] += any(b >= tab.nvars for b in tab.basis)
            seen["scaled"] += tab.scale > 1
    assert min(seen.values()) >= 20, seen


def test_a_disk_builds_one_tableau_from_its_scaled_rows(monkeypatch):
    """A generator disk builds no tableau for a zero probe and exactly one at
    its first non-zero gauge, on or off the generators' support, from the
    rows L_G [G | -G] built here over the support; later gauges, with
    denominators outside L_G too, build none, and each gauge is
    `fraction_gauge`'s by repr or NotInSpan text."""
    monkeypatch.setattr(simplex, "_IntTableau", _CheckedIntTableau)
    rng = random.Random(61)
    seen = {"den u outside L_G": 0, "off support first": 0, "solved": 0, "not in span": 0}
    for _ in range(60):
        dim = rng.randint(2, 5)
        gens = random_generators(rng, dim, rng.random() < 0.5)
        scale, rows = scaled_rows(gens)
        disk, built = DiskSpec.from_generators(gens), []
        probes = random_probes(rng, gens, dim)
        if rng.random() < 0.5:
            probes.insert(1, probes.pop(2))
        for u in probes:
            _CheckedIntTableau.last = None
            got, want = outcome(lambda: minkowski(disk, u)), outcome(lambda: fraction_gauge(gens, u))
            assert (type(got), repr(got), str(got)) == (type(want), repr(want), str(want))
            if _CheckedIntTableau.last is not None:
                built.append(_CheckedIntTableau.last)
                seen["off support first"] += not u.entries.keys() <= set().union(
                    *(g.support for g in gens))
            if not u.is_zero():
                assert len(built) == 1
                seen["den u outside L_G"] += any(scale % v.denominator for v in u.entries.values())
                seen["not in span" if isinstance(got, NotInSpan) else "solved"] += 1
        tab = built[0]
        assert disk._gauge_rows[1] is tab and tab.scale == scale
        assert tab.start == [row + [int(k == i) for k in range(len(rows))]
                             for i, row in enumerate(rows)]
    assert min(seen.values()) >= 20, seen


def bench_shaped_disk(rng):
    """Five scaled unit vectors and four three-entry generators on
    coordinates 1..5, as in the benchmark's five-dimensional gauge scenario."""
    gens = [SparseVector({i: F(rng.randint(1, 4), rng.choice((1, 2)))}) for i in range(1, 6)]
    gens += [SparseVector({i: F(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2)))
                           for i in rng.sample(range(1, 6), 3)}) for _ in range(4)]
    return gens


def bench_shaped_probes(rng):
    return [SparseVector({i: F(rng.randint(-6, 6), rng.choice((1, 2, 3)))
                          for i in rng.sample(range(1, 6), rng.randint(1, 5))})
            for _ in range(12)]


def test_exact_generator_gauge_does_no_fraction_arithmetic_in_simplex(monkeypatch):
    """Exact `minkowski` on a generator disk shaped like the benchmark's
    five-dimensional gauge scenario (five scaled unit vectors and four
    three-entry generators, 18 LP columns): no Fraction sum, difference,
    product or quotient is formed in simplex.py, and the gauges equal those
    of the Fraction tableau of `oracles.simplex`, whose arithmetic the same
    spy does see."""
    rng = random.Random(7)
    gens = bench_shaped_disk(rng)
    disk, probes = DiskSpec.from_generators(gens), bench_shaped_probes(rng)

    def gauges_and_callers(gauge):
        callers = set()

        def spy(name):
            original = getattr(Fraction, name)

            def wrapped(x, y):
                code = sys._getframe(1).f_code
                if Path(code.co_filename).name in ("simplex.py", "oracles.py"):
                    callers.add((Path(code.co_filename).name, code.co_name, name))
                return original(x, y)
            return wrapped

        with monkeypatch.context() as m:
            for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                         "__truediv__", "__rtruediv__"):
                m.setattr(Fraction, name, spy(name))
            gauges = [gauge(u) for u in probes]
        return gauges, callers

    sizes = []

    def counted(entries):
        sizes.append(len(entries))
        return integer_row(entries)

    integer_row = oracles.patch_scalars(monkeypatch, "integer_row", counted)
    gauges, callers = gauges_and_callers(lambda u: minkowski(disk, u))
    reference, reference_callers = gauges_and_callers(lambda u: fraction_gauge(gens, u))
    assert callers == set()
    assert {file for file, _, _ in reference_callers} == {"oracles.py"}
    assert [repr(g) for g in gauges] == [repr(g) for g in reference]
    # the generators span coordinates 1..5: [G | -G] is scaled once for all
    # twelve probes, and nothing scales a whole [G | -G | u]
    width = 2 * len(gens)
    assert sizes.count(5 * width) == 1 and 5 * (width + 1) not in sizes


def test_twelve_gauges_on_one_disk_build_one_tableau(monkeypatch):
    """On the benchmark-shaped disk, twelve gauges call `gauge_tableau`
    once, at the first, and every gauge equals `fraction_gauge`'s by repr."""
    rng = random.Random(7)
    gens = bench_shaped_disk(rng)
    probes = bench_shaped_probes(rng)
    expected = [repr(fraction_gauge(gens, u)) for u in probes]
    calls, original = [], simplex.gauge_tableau

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(simplex, "gauge_tableau", counted)
    disk, counts = DiskSpec.from_generators(gens), []
    for u, value in zip(probes, expected):
        assert repr(minkowski(disk, u)) == value
        counts.append(len(calls))
    assert counts == [1] * 12


PIVOT_CAP = 40


class _CappedIntTableau(simplex._IntTableau):
    """Fails a gauge that pivots more than PIVOT_CAP times (`pivots` is reset
    before each gauge, and counts the pivots of the tableau's build too),
    and at every pivot `resolve` makes counts the other columns whose ratio
    red_j / -a_rj ties the entering column's."""

    pivots = dual = ties = 0

    def pivot(self, row, col):
        cls = _CappedIntTableau
        cls.pivots += 1
        assert cls.pivots <= PIVOT_CAP, "a gauge passed the pivot cap"
        if sys._getframe(1).f_code.co_name == "resolve":
            r, red = self.rows[row], self.red
            cls.dual += 1
            cls.ties += sum(r[j] < 0 and red[j] * r[col] == red[col] * r[j]
                            for j in range(self.nvars) if j != col)
        super().pivot(row, col)


def capped_gauge(disk, u):
    """minkowski(disk, u) or its NotInSpan, under the pivot cap."""
    _CappedIntTableau.pivots = 0
    return outcome(lambda: minkowski(disk, u))


def warm_and_cold(rng, gens, probes, seen):
    """Gauges the probes on one disk in their order and then in a shuffled
    one, and each probe on a fresh disk: the three outcomes agree with
    `fraction_gauge` by type, repr and text.  Counts the gauges that start
    from a tableau an earlier gauge left, and those among them that a row
    still basic in an artificial refutes."""
    disk, support = DiskSpec.from_generators(gens), set().union(*(g.support for g in gens))
    order = list(range(len(probes)))
    rng.shuffle(order)
    outcomes = [{}, {}]
    for run, ks in zip(outcomes, (range(len(probes)), order)):
        for k in ks:
            tab = disk._gauge_rows and disk._gauge_rows[1]
            run[k] = capped_gauge(disk, probes[k])
            if tab is not None and not probes[k].is_zero() and probes[k].entries.keys() <= support:
                seen["warm"] += 1
                seen["redundant row refutes"] += (isinstance(run[k], NotInSpan)
                                                  and any(b >= tab.nvars for b in tab.basis))
    for k, u in enumerate(probes):
        want = outcome(lambda: fraction_gauge(gens, u))
        cold = capped_gauge(DiskSpec.from_generators(gens), u)
        for got in (outcomes[0][k], outcomes[1][k], cold):
            assert (type(got), repr(got), str(got)) == (type(want), repr(want), str(want))
        seen["not in span" if isinstance(want, NotInSpan) else "solved"] += 1


def test_warm_gauges_equal_cold_ones_in_any_order(monkeypatch):
    """Full-rank and deficient generator disks and `random_probes` (zero, off
    the support, outside the span, denominators 3, 5 and 7 outside L_G):
    the dual simplex from a kept tableau, in two orders on one disk, and
    from a fresh disk's tableau, gives each probe `fraction_gauge`'s value
    or NotInSpan text, within the pivot cap."""
    monkeypatch.setattr(simplex, "_IntTableau", _CappedIntTableau)
    rng = random.Random(67)
    seen = {"warm": 0, "redundant row refutes": 0, "not in span": 0, "solved": 0}
    _CappedIntTableau.dual = 0
    for deficient in (False, True):
        for _ in range(60):
            dim = rng.randint(2, 5)
            gens = random_generators(rng, dim, deficient)
            warm_and_cold(rng, gens, random_probes(rng, gens, dim), seen)
    seen["dual pivots"] = _CappedIntTableau.dual
    assert min(seen.values()) >= 20, seen


def test_dual_degenerate_disks_terminate_and_equal_cold_gauges(monkeypatch):
    """Generator lists with duplicate, negated and scaled copies, so that
    reduced costs and dual ratios tie: Bland's rule ends every gauge within
    the pivot cap, at `fraction_gauge`'s value."""
    monkeypatch.setattr(simplex, "_IntTableau", _CappedIntTableau)
    rng = random.Random(71)
    seen = {"warm": 0, "redundant row refutes": 0, "not in span": 0, "solved": 0}
    _CappedIntTableau.dual = _CappedIntTableau.ties = 0
    for _ in range(80):
        dim = rng.randint(2, 4)
        gens = duplicated_generators(rng, dim)
        warm_and_cold(rng, gens, random_probes(rng, gens, dim), seen)
    seen["dual pivots"], seen["ratio ties"] = _CappedIntTableau.dual, _CappedIntTableau.ties
    assert min(seen.values()) >= 20, seen
