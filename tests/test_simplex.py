"""Exact LP solver sanity checks against enumerated vertex oracles."""

import itertools
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from orbitlab import DiskSpec, SparseVector, minkowski, simplex
from orbitlab.errors import NotInSpan
from orbitlab.scalars import EXACT, FLOAT, ScalarContext
from orbitlab.simplex import Infeasible, Unbounded, solve_lp
from orbitlab.vectors import combine

import oracles


def F(n, d=1):
    return Fraction(n, d)


def vertex_oracle(c, a, b):
    """Enumerate all basic solutions of A x = b, x >= 0 and take the best.

    Independent of the pivoting path; only valid for small full-rank systems.
    """
    nrows, nvars = len(a), len(c)
    best = None
    for cols in itertools.combinations(range(nvars), min(nrows, nvars)):
        sub = [[a[i][j] for j in cols] for i in range(nrows)]
        if len(cols) != nrows or oracles.determinant(sub) == 0:
            continue
        x_basic = oracles.solve(sub, b)
        if any(v < 0 for v in x_basic):
            continue
        x = [Fraction(0)] * nvars
        for col, val in zip(cols, x_basic):
            x[col] = val
        value = sum(c[j] * x[j] for j in range(nvars))
        if best is None or value < best:
            best = value
    return best


def test_simple_assignment():
    # min x1 + x2  s.t.  x1 + x2 = 1
    res = solve_lp([F(1), F(1)], [[F(1), F(1)]], [F(1)])
    assert res.value == 1


def test_prefers_cheaper_route():
    # two ways to reach b, one twice as expensive
    res = solve_lp([F(1), F(2)], [[F(1), F(1)]], [F(1)])
    assert res.value == 1
    assert res.x == [F(1), F(0)]


def test_negative_rhs_is_normalized():
    res = solve_lp([F(1), F(1)], [[F(1), F(-1)]], [F(-2)])
    assert res.value == 2
    assert res.x == [F(0), F(2)]


def test_infeasible_detected():
    with pytest.raises(Infeasible):
        solve_lp([F(1)], [[F(1)], [F(1)]], [F(1), F(2)])


def test_unbounded_detected():
    # min -x1 with x1 - x2 = 0 lets both grow without bound
    with pytest.raises(Unbounded):
        solve_lp([F(-1), F(0)], [[F(1), F(-1)]], [F(0)])


def test_degenerate_ties_terminate():
    # many columns producing the same point; Bland must not cycle
    a = [[F(1), F(1), F(1), F(1)], [F(1), F(1), F(1), F(0)]]
    res = solve_lp([F(1), F(1), F(1), F(1)], a, [F(1), F(1)])
    assert res.value == 1


def test_matches_vertex_oracle_on_random_instances():
    """Integer a, b and c, then fractional ones (denominators 1 to 3), whose
    common denominator L > 1 scales the integer tableau."""
    for fractional in (False, True):
        rng = random.Random(29)
        q = (lambda n: F(n, rng.randint(1, 3))) if fractional else F
        checked = 0
        while checked < 40:
            nrows = rng.randint(1, 3)
            nvars = rng.randint(nrows, 5)
            a = [[q(rng.randint(-3, 3)) for _ in range(nvars)] for _ in range(nrows)]
            x_feas = [q(rng.randint(0, 3)) for _ in range(nvars)]
            b = [sum(a[i][j] * x_feas[j] for j in range(nvars)) for i in range(nrows)]
            c = [q(rng.randint(0, 4)) for _ in range(nvars)]
            expected = vertex_oracle(c, a, b)
            if expected is None:
                continue
            result = solve_lp(c, a, b)
            assert result.value == expected
            # returned point is feasible
            assert all(v >= 0 for v in result.x)
            for i in range(nrows):
                assert sum(a[i][j] * result.x[j] for j in range(nvars)) == b[i]
            checked += 1


def reprice(tab, costs):
    """Reduced costs from scratch: costs minus every basis row times its cost."""
    red = list(costs)
    for i, bcol in enumerate(tab.basis):
        f = red[bcol]
        if f != 0:
            for j in range(tab.ncols):
                red[j] -= f * tab.rows[i][j]
    return red


class _CheckedTableau(simplex._Tableau):
    """Checks the carried reduced-cost row after every pivot against `reprice`
    for the costs of the latest phase (the drive-out pivots included), within
    the float mode's tolerance; records the basis after every pivot."""

    last = None

    def __init__(self, *args):
        super().__init__(*args)
        self.path = []
        _CheckedTableau.last = self

    def minimize(self, costs, allowed):
        self.costs = list(costs)
        super().minimize(costs, allowed)

    def pivot(self, row, col):
        super().pivot(row, col)
        self.path.append(list(self.basis))
        expected = reprice(self, self.costs)
        assert all(self.ctx.eq(x, y) for x, y in zip(self.red, expected))


class _CheckedIntTableau(simplex._IntTableau):
    """After every pivot of the integer tableau: the carried reduced-cost row
    is den * C - sum of C_B times the basis rows exactly, C the latest
    phase's costs over the lcm of their denominators, and den is |det| of
    the basis columns of [L A | I], L the lcm of the denominators of A and
    b (`problem` holds the a and b being solved).  Records the basis after
    every pivot and counts the degenerate ones and the negative pivots."""

    last = problem = None

    def __init__(self, *args):
        super().__init__(*args)
        self.path, self.degenerate, self.negative = [], 0, 0
        _CheckedIntTableau.last = self

    def minimize(self, costs, allowed):
        m = math.lcm(*(v.denominator for v in costs))
        self.costs = [int(v * m) for v in costs]
        super().minimize(costs, allowed)

    def pivot(self, row, col):
        self.degenerate += self.rows[row][self.ncols] == 0
        self.negative += self.rows[row][col] < 0
        super().pivot(row, col)
        self.path.append(list(self.basis))
        expected = [self.den * v for v in self.costs] + [0]
        for i, bcol in enumerate(self.basis):
            expected = [r - self.costs[bcol] * y for r, y in zip(expected, self.rows[i])]
        assert self.red == expected
        a, b = self.problem
        scale = math.lcm(*(v.denominator for row in a for v in row), *(v.denominator for v in b))
        full = [[F(scale) * v for v in row] + [F(int(i == k)) for k in range(self.nrows)]
                for i, row in enumerate(a)]
        basis = [[row[j] for j in self.basis] for row in full]
        assert self.den == abs(oracles.determinant(basis))


def random_lp(rng, max_rows=4, max_vars=6):
    """Small LP with fractional a, b and c (denominators 1 to 3), negative
    right-hand sides, repeated rows (artificials left basic after phase 1),
    zero right-hand sides (degenerate pivots) and a perturbed right-hand side
    (mostly infeasible)."""
    nrows = rng.randint(1, max_rows)
    nvars = rng.randint(1, max_vars)
    a = [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(nvars)]
         for _ in range(nrows)]
    x_feas = [F(rng.choice([0, 0, 1, 2]), rng.randint(1, 3)) for _ in range(nvars)]
    b = [sum(a[i][j] * x_feas[j] for j in range(nvars)) for i in range(nrows)]
    if nrows > 1 and rng.random() < 0.4:
        k = rng.choice([1, -2, F(1, 3)])
        a[-1], b[-1] = [k * v for v in a[0]], k * b[0]
    if rng.random() < 0.2:
        b[rng.randrange(nrows)] += F(rng.choice([-2, -1, 1, 2]), rng.randint(1, 3))
    c = [F(rng.randint(-1, 4), rng.randint(1, 3)) for _ in range(nvars)]
    return c, a, b


def solve_in(ctx, c, a, b):
    """solve_lp over the scalars of ctx, or the error it raised."""
    _CheckedIntTableau.problem = (a, b)
    try:
        return solve_lp([ctx.coerce(v) for v in c],
                        [[ctx.coerce(v) for v in row] for row in a],
                        [ctx.coerce(v) for v in b], ctx)
    except (Infeasible, Unbounded) as exc:
        return exc


def test_carried_costs_match_repricing_and_float_matches_exact(monkeypatch):
    """Exact mode on the checked integer tableau, float mode on the checked
    float tableau; float reaches the exact outcome."""
    monkeypatch.setattr(simplex, "_IntTableau", _CheckedIntTableau)
    monkeypatch.setattr(simplex, "_Tableau", _CheckedTableau)
    rng = random.Random(41)
    seen = {"negative rhs": 0, "artificial left basic": 0, "degenerate pivot": 0,
            "negative pivot": 0, "scaled": 0, "solved": 0, "pivots": 0}
    for _ in range(300):
        c, a, b = random_lp(rng)
        exact, tab = solve_in(EXACT, c, a, b), _CheckedIntTableau.last
        approx = solve_in(FLOAT, c, a, b)
        seen["negative rhs"] += any(v < 0 for v in b)
        seen["pivots"] += len(tab.path)
        seen["degenerate pivot"] += tab.degenerate > 0
        seen["negative pivot"] += tab.negative > 0
        seen["scaled"] += tab.scale > 1
        if isinstance(exact, Exception):
            assert type(approx) is type(exact)
            continue
        seen["solved"] += 1
        seen["artificial left basic"] += any(k >= len(c) for k in tab.basis)
        assert FLOAT.eq(approx.value, float(exact.value))
    assert min(seen.values()) >= 20, seen


def test_integer_tableau_takes_the_fraction_tableaus_pivots(monkeypatch):
    """Exact solve_lp on integers against the Fraction tableau (what solve_lp
    runs when `integer_row` declines) on LPs up to 6 x 12: the same basis
    after every pivot, the same x and value (by repr), the same exception
    type, and the same Infeasible text, the phase-1 optimum in the caller's
    units."""
    monkeypatch.setattr(simplex, "_IntTableau", _CheckedIntTableau)
    monkeypatch.setattr(simplex, "_Tableau", _CheckedTableau)
    rng = random.Random(53)
    seen = {"solved": 0, "infeasible": 0, "unbounded": 0, "drive-out pivots": 0}
    for _ in range(400):
        c, a, b = random_lp(rng, 6, 12)
        fast, fast_path = solve_in(EXACT, c, a, b), _CheckedIntTableau.last.path
        with monkeypatch.context() as m:
            m.setattr(ScalarContext, "integer_row", lambda self, entries: None)
            slow, slow_path = solve_in(EXACT, c, a, b), _CheckedTableau.last.path
        assert fast_path == slow_path
        if isinstance(slow, Exception):
            assert (type(fast), str(fast)) == (type(slow), str(slow))
            seen["infeasible" if isinstance(slow, Infeasible) else "unbounded"] += 1
            continue
        assert repr(fast) == repr(slow)
        seen["solved"] += 1
        seen["drive-out pivots"] += _CheckedIntTableau.last.negative > 0
    assert min(seen.values()) >= 20, seen


def test_exact_generator_gauge_does_no_fraction_arithmetic_in_simplex(monkeypatch):
    """Exact `minkowski` on a generator disk shaped like the benchmark's
    five-dimensional gauge scenario (five scaled unit vectors and four
    three-entry generators, 18 LP columns): no Fraction sum, difference,
    product or quotient is formed in simplex.py, and the gauges equal the
    Fraction tableau's, whose run the same spy does see.  Each run gauges
    fresh copies of the probes, so that no run reads an integer form that
    another run's `integer_row` gave a probe."""
    rng = random.Random(7)
    gens = [SparseVector({i: F(rng.randint(1, 4), rng.choice((1, 2)))}) for i in range(1, 6)]
    gens += [SparseVector({i: F(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2)))
                           for i in rng.sample(range(1, 6), 3)}) for _ in range(4)]
    disk = DiskSpec.from_generators(gens)
    probes = [SparseVector({i: F(rng.randint(-6, 6), rng.choice((1, 2, 3)))
                            for i in rng.sample(range(1, 6), rng.randint(1, 5))})
              for _ in range(12)]

    def gauges_and_callers(patch):
        callers = set()

        def spy(name):
            original = getattr(Fraction, name)

            def wrapped(x, y):
                code = sys._getframe(1).f_code
                if Path(code.co_filename).name == "simplex.py":
                    callers.add((code.co_name, name))
                return original(x, y)
            return wrapped

        with monkeypatch.context() as m:
            patch(m)
            for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                         "__truediv__", "__rtruediv__"):
                m.setattr(Fraction, name, spy(name))
            gauges = [minkowski(disk, SparseVector(u.entries), EXACT) for u in probes]
        return gauges, callers

    sizes, integer_row = [], ScalarContext.integer_row

    def counted(self, entries):
        sizes.append(len(entries))
        return integer_row(self, entries)

    gauges, callers = gauges_and_callers(
        lambda m: m.setattr(ScalarContext, "integer_row", counted))
    reference, reference_callers = gauges_and_callers(
        lambda m: m.setattr(ScalarContext, "integer_row", lambda self, entries: None))
    assert callers == set()
    assert reference_callers
    assert [repr(g) for g in gauges] == [repr(g) for g in reference]
    # the generators span coordinates 1..5: [G | -G] is scaled once for all
    # twelve probes, and no probe scales a whole [G | -G | u]
    width = 2 * len(gens)
    assert sizes.count(5 * width) == 1 and 5 * (width + 1) not in sizes


class _RecordingIntTableau(simplex._IntTableau):
    """Keeps its rows as built and the basis after every pivot, and counts the
    drive-out pivots, those made outside `minimize`."""

    last = None

    def __init__(self, *args):
        super().__init__(*args)
        self.start = [list(r) for r in self.rows]
        self.path, self.drive_outs, self.minimizing = [], 0, False
        _RecordingIntTableau.last = self

    def minimize(self, costs, allowed):
        self.minimizing = True
        super().minimize(costs, allowed)
        self.minimizing = False

    def pivot(self, row, col):
        self.drive_outs += not self.minimizing
        super().pivot(row, col)
        self.path.append(list(self.basis))


def generator_lp(gens, u, ctx=EXACT):
    """The gauge LP built from scratch: unit costs, [G | -G] and u over the
    coordinates of u and of the generators."""
    coords = sorted(set(u.support).union(*(g.support for g in gens)))
    a = [[g.get(i) for g in gens] + [-g.get(i) for g in gens] for i in coords]
    return [ctx.one] * (2 * len(gens)), a, [u.get(i) for i in coords]


def random_generators(rng, dim, deficient):
    """Generators on coordinates 1..dim with denominators 1, 2 and 4; a
    deficient family repeats coordinate dim - 1 negated at dim, so a probe
    zero on both leaves two artificials whose rows cancel after phase 1."""
    gens = [SparseVector({i: F(rng.randint(-3, 3), rng.choice((1, 2, 4)))
                          for i in rng.sample(range(1, dim + 1), rng.randint(1, dim))})
            for _ in range(rng.randint(2, dim + 2))]
    if deficient:
        gens = [SparseVector({**{i: v for i, v in g.entries.items() if i != dim},
                              dim: -g.get(dim - 1)}) for g in gens]
    return gens


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


def test_scaled_generator_gauge_takes_solve_lps_tableau_and_pivots(monkeypatch):
    """Exact `minkowski` on a fresh copy of a generator disk, whose rows come
    from the disk's scaled [G | -G], against `solve_lp` on the freshly built
    [G | -G | u]: the same integer rows, the same basis after every pivot,
    and the same value or infeasibility.  On one disk shared by all the
    probes, which builds a tableau only until a gauge is solved and then
    re-solves from it, the same gauge by repr or the same NotInSpan text as
    the fresh disk, as `solve_lp` and as the Fraction tableau
    (`integer_row` declining), on a fresh copy of the probe that
    `integer_row` never scaled.  A zero probe and a probe off the
    generators' support build no tableau.  Float gauges equal float
    `solve_lp`'s by repr and leave the float disk unscaled."""
    monkeypatch.setattr(simplex, "_IntTableau", _RecordingIntTableau)
    rng = random.Random(61)
    seen = {"drive-out pivot": 0, "negated row": 0, "den u outside L_G": 0, "zero probe": 0,
            "off support": 0, "not in span": 0, "solved": 0, "warm": 0, "warm not in span": 0}
    for _ in range(150):
        dim = rng.randint(2, 5)
        gens = random_generators(rng, dim, rng.random() < 0.5)
        disk = DiskSpec.from_generators(gens)
        float_disk = DiskSpec.from_generators(
            [SparseVector({i: float(v) for i, v in g.entries.items()}) for g in gens])
        gen_den = math.lcm(*(v.denominator for g in gens for v in g.entries.values()))
        support = set().union(*(g.support for g in gens))
        for u in random_probes(rng, gens, dim):
            kept = disk._gauge_rows is not None and disk._gauge_rows[2] is not None
            _RecordingIntTableau.last = None
            shared, shared_tab = outcome(lambda: minkowski(disk, u)), _RecordingIntTableau.last
            _RecordingIntTableau.last = None
            fast, fast_tab = (outcome(lambda: minkowski(DiskSpec.from_generators(gens), u)),
                              _RecordingIntTableau.last)
            _RecordingIntTableau.last = None
            slow, slow_tab = outcome(lambda: solve_lp(*generator_lp(gens, u)).value), \
                _RecordingIntTableau.last
            with monkeypatch.context() as m:
                m.setattr(ScalarContext, "integer_row", lambda self, entries: None)
                reference = outcome(lambda: minkowski(disk, SparseVector(u.entries)))
            for gauge in (fast, shared):
                assert type(gauge) is type(reference) and repr(gauge) == repr(reference)
                assert str(gauge) == str(reference)
            uf = SparseVector({i: float(v) for i, v in u.entries.items()})
            approx = outcome(lambda: minkowski(float_disk, uf, FLOAT))
            direct = outcome(lambda: solve_lp(*generator_lp(float_disk.generators, uf, FLOAT),
                                              FLOAT).value)
            assert isinstance(approx, NotInSpan) == isinstance(direct, Infeasible)
            if not isinstance(direct, Exception):
                assert repr(approx) == repr(direct)
            if u.is_zero():
                assert fast == 0 and fast_tab is None and shared_tab is None
                seen["zero probe"] += 1
                continue
            if not u.entries.keys() <= support:
                assert isinstance(fast, NotInSpan) and fast_tab is None and shared_tab is None
                assert isinstance(slow, Infeasible)
                seen["off support"] += 1
                continue
            assert fast_tab.start == slow_tab.start and fast_tab.path == slow_tab.path
            assert isinstance(fast, NotInSpan) == isinstance(slow, Infeasible)
            # the shared disk builds a tableau exactly until it keeps one
            assert (shared_tab is None) == kept
            seen["warm"] += kept
            if isinstance(fast, NotInSpan):
                seen["not in span"] += 1
                seen["warm not in span"] += kept
                continue
            assert repr(fast) == repr(slow)
            seen["solved"] += 1
            seen["drive-out pivot"] += fast_tab.drive_outs > 0
            seen["negated row"] += any(v < 0 for v in u.entries.values())
            seen["den u outside L_G"] += any(gen_den % v.denominator for v in u.entries.values())
        assert float_disk._gauge_rows is None
    assert min(seen.values()) >= 20, seen


PIVOT_CAP = 40


class _CappedIntTableau(simplex._IntTableau):
    """Fails a gauge that pivots more than PIVOT_CAP times (`pivots` is reset
    before each gauge), and at every pivot `resolve` makes counts the other
    columns whose ratio red_j / -a_rj ties the entering column's."""

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
    one, and each probe on a fresh disk: the three outcomes agree by type,
    repr and text.  Counts the gauges that start from a kept tableau, and
    those among them that a row still basic in an artificial refutes."""
    disk, support = DiskSpec.from_generators(gens), set().union(*(g.support for g in gens))
    order = list(range(len(probes)))
    rng.shuffle(order)
    outcomes = [{}, {}]
    for run, ks in zip(outcomes, (range(len(probes)), order)):
        for k in ks:
            tab = disk._gauge_rows and disk._gauge_rows[2]
            run[k] = capped_gauge(disk, probes[k])
            if tab is not None and not probes[k].is_zero() and probes[k].entries.keys() <= support:
                seen["warm"] += 1
                seen["redundant row refutes"] += (isinstance(run[k], NotInSpan)
                                                  and any(b >= tab.nvars for b in tab.basis))
    for k, u in enumerate(probes):
        cold = capped_gauge(DiskSpec.from_generators(gens), u)
        for run in outcomes:
            assert (type(run[k]), repr(run[k]), str(run[k])) == (type(cold), repr(cold), str(cold))
        seen["not in span" if isinstance(cold, NotInSpan) else "solved"] += 1


def test_warm_gauges_equal_cold_ones_in_any_order(monkeypatch):
    """Full-rank and deficient generator disks and `random_probes` (zero, off
    the support, outside the span, denominators 3, 5 and 7 outside L_G):
    the dual simplex from a kept tableau, in two orders on one disk, gives
    each probe the value or NotInSpan text of a fresh disk's two-phase
    solve, within the pivot cap."""
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
    reduced costs and dual ratios tie: Bland's rule in the dual ends every
    warm gauge within the pivot cap, at the cold solve's value."""
    monkeypatch.setattr(simplex, "_IntTableau", _CappedIntTableau)
    rng = random.Random(71)
    seen = {"warm": 0, "redundant row refutes": 0, "not in span": 0, "solved": 0}
    _CappedIntTableau.dual = _CappedIntTableau.ties = 0
    for _ in range(80):
        dim = rng.randint(2, 4)
        base = random_generators(rng, dim, rng.random() < 0.5)
        gens = base + [g.scale(F(rng.choice((1, 1, -1, 2, -3)), rng.choice((1, 1, 2))))
                       for g in rng.sample(base, rng.randint(1, len(base)))]
        rng.shuffle(gens)
        warm_and_cold(rng, gens, random_probes(rng, gens, dim), seen)
    seen["dual pivots"], seen["ratio ties"] = _CappedIntTableau.dual, _CappedIntTableau.ties
    assert min(seen.values()) >= 20, seen


def bench_shaped_disk(rng):
    """Five scaled unit vectors and four three-entry generators on
    coordinates 1..5, as in the benchmark's five-dimensional gauge scenario."""
    gens = [SparseVector({i: F(rng.randint(1, 4), rng.choice((1, 2)))}) for i in range(1, 6)]
    gens += [SparseVector({i: F(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2)))
                           for i in rng.sample(range(1, 6), 3)}) for _ in range(4)]
    return gens


def test_only_a_disks_first_gauge_prices_and_minimizes(monkeypatch):
    """On the benchmark-shaped disk, the first of twelve gauges runs the two
    phases; gauges 2 to 12 call neither `minimize` nor `price`, and every
    gauge equals `solve_lp`'s by repr."""
    rng = random.Random(7)
    gens = bench_shaped_disk(rng)
    probes = [SparseVector({i: F(rng.randint(-6, 6), rng.choice((1, 2, 3)))
                            for i in rng.sample(range(1, 6), rng.randint(1, 5))})
              for _ in range(12)]
    expected = [repr(solve_lp(*generator_lp(gens, u)).value) for u in probes]
    calls = []
    for name in ("minimize", "price"):
        original = getattr(simplex._IntTableau, name)

        def wrapped(self, *args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(self, *args, **kwargs)
        monkeypatch.setattr(simplex._IntTableau, name, wrapped)
    disk, counts = DiskSpec.from_generators(gens), []
    for u, value in zip(probes, expected):
        assert repr(minkowski(disk, u)) == value
        counts.append(len(calls))
    assert counts[0] > 0 and counts == [counts[0]] * 12
