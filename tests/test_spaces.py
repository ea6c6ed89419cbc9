"""Vector combination and identity, seminorms, dual norms, Minkowski gauges and
separating functionals."""

import itertools
import random
from fractions import Fraction

import pytest

from orbitlab import (
    CoordFunctional,
    DiskSpec,
    SeminormSpec,
    SparseVector,
    dual_norm,
    dual_norm_witness,
    eval_seminorm,
    minkowski,
)
from orbitlab.density import Enumeration
from orbitlab.errors import NoSeparation, NotInSpan, NotPBounded
from orbitlab.scalars import ONE, ZERO
from orbitlab.seminorms import Separator, first_below
from orbitlab import vectors
from orbitlab.vectors import combine

import oracles


def sv(*entries):
    return SparseVector({i + 1: Fraction(v) for i, v in enumerate(entries) if v != 0})


def cf(*entries):
    return CoordFunctional({i + 1: Fraction(v) for i, v in enumerate(entries) if v != 0})


def brute_force_dual_sup(p, f):
    """Oracle: sup of |f(x)| over the sign vertices of the unit ball of a
    sup-weighted seminorm (the extreme points x_i = +-1/w_i)."""
    support = sorted(f.entries)
    best = Fraction(0)
    for signs in itertools.product((1, -1), repeat=len(support)):
        x = SparseVector({i: Fraction(s, 1) / p.weights[i] for i, s in zip(support, signs)})
        best = max(best, abs(f.pair(x)))
    return best


def rational_grid(bound, denominators):
    values = set()
    for q in denominators:
        for num in range(-bound * q, bound * q + 1):
            values.add(Fraction(num, q))
    return sorted(values)


class TestEvalSeminorm:
    def test_sup_of_absolute_values(self):
        p = SeminormSpec.sup_on([1, 2])
        assert eval_seminorm(p, sv(3, -4)) == 4

    def test_zero_vector(self):
        p = SeminormSpec.sup_on([1, 2])
        assert eval_seminorm(p, SparseVector.zero()) == 0

    def test_kernel_membership_by_support(self):
        p = SeminormSpec.sup_on([1])
        assert eval_seminorm(p, SparseVector.basis(2)) == 0
        assert oracles.kernel_contains(p, SparseVector.basis(2))
        assert not oracles.kernel_contains(p, sv(1, 1))

    def test_l1_kind(self):
        p = oracles.l1_seminorm([1, 2, 3])
        assert eval_seminorm(p, sv(1, -2, 3)) == 6

    def test_weighted(self):
        p = SeminormSpec(kind="sup", weights={1: Fraction(1, 2), 2: Fraction(3)})
        assert eval_seminorm(p, sv(4, 1)) == 3

    def test_triangle_and_homogeneity_random(self):
        rng = random.Random(5)
        p = SeminormSpec.sup_on(range(1, 6))
        q = oracles.l1_seminorm(range(1, 6), weight=Fraction(1, 2))
        for _ in range(1000):
            x = SparseVector({rng.randint(1, 7): Fraction(rng.randint(-9, 9), rng.choice([1, 2, 4]))
                              for _ in range(rng.randint(0, 4))})
            y = SparseVector({rng.randint(1, 7): Fraction(rng.randint(-9, 9), rng.choice([1, 2, 4]))
                              for _ in range(rng.randint(0, 4))})
            lam = Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3]))
            for norm in (p, q):
                assert eval_seminorm(norm, x + y) <= eval_seminorm(norm, x) + eval_seminorm(norm, y)
                assert eval_seminorm(norm, x.scale(lam)) == abs(lam) * eval_seminorm(norm, x)


class TestDualNorm:
    def test_sup_example_against_vertices(self):
        p = SeminormSpec.sup_on([1, 2])
        f = cf(3, -4)
        assert dual_norm(p, f) == 7
        assert brute_force_dual_sup(p, f) == 7

    def test_zero_functional(self):
        p = SeminormSpec.sup_on([1, 2])
        assert dual_norm(p, CoordFunctional.zero()) == 0

    def test_unbounded_on_kernel(self):
        p = SeminormSpec.sup_on([1, 2])
        with pytest.raises(NotPBounded):
            dual_norm(p, CoordFunctional.delta(3))

    def test_l1_kind_is_max(self):
        p = oracles.l1_seminorm([1, 2])
        assert dual_norm(p, cf(3, -4)) == 4

    @pytest.mark.parametrize("kind", ["sup", "l1"])
    def test_dual_norm_is_the_fold_of_its_quotients(self, kind):
        """The sup kind's sum and the l1 kind's max of |f_i| / w_i, folded in
        Fractions, at denominators up to 2^40; the zero functional gives the
        int 0."""
        rng = random.Random(31)
        for _ in range(200):
            weights = {i: Fraction(rng.randint(1, 9), rng.choice([1, 3, 7, 2 ** 40]))
                       for i in range(1, 9)}
            f = CoordFunctional({i: Fraction(rng.randint(-9, 9), rng.choice([1, 2, 7, 2 ** 40]))
                                 for i in rng.sample(range(1, 9), rng.randint(0, 8))})
            fold = sum if kind == "sup" else max
            quotients = [abs(v) / weights[i] for i, v in f.entries.items()]
            got = dual_norm(SeminormSpec(kind, weights), f)
            assert got == (fold(quotients, Fraction(0)) if kind == "sup" else
                           max(quotients, default=Fraction(0)))
            assert type(got) is (Fraction if f.entries else int)

    def test_witness_attains_bound(self):
        rng = random.Random(9)
        for _ in range(100):
            kind = rng.choice(["sup", "l1"])
            weights = {i: Fraction(rng.choice([1, 2]), rng.choice([1, 2]))
                       for i in range(1, 5)}
            p = SeminormSpec(kind=kind, weights=weights)
            f = CoordFunctional({i: Fraction(rng.randint(-5, 5))
                                 for i in range(1, 5) if rng.random() < 0.7})
            c, x = dual_norm_witness(p, f)
            assert eval_seminorm(p, x) <= 1
            assert abs(f.pair(x)) == c
            # certificate side: |f| <= c on random ball elements
            for _ in range(10):
                y = SparseVector({i: Fraction(rng.randint(-8, 8), 8) for i in range(1, 5)})
                py = eval_seminorm(p, y)
                if py != 0:
                    y = y.scale(Fraction(1) / py)
                assert abs(f.pair(y)) <= c


class TestMinkowski:
    def test_weight_form_direct(self):
        d = oracles.l1_disk([1, 2, 3])
        assert minkowski(d, sv(1, -2, 3)) == 6

    def test_weight_form_outside_span(self):
        d = oracles.l1_disk([1, 2])
        with pytest.raises(NotInSpan):
            minkowski(d, SparseVector.basis(3))

    def weight_gauge_cases(self, seed):
        """(weights, u) pairs: small and 2^-40 denominators on both sides,
        u with no entry, one entry and every weighted entry, and u with one or
        two coordinates outside the weights (first in entry order, or later)."""
        rng = random.Random(seed)
        tiny = 2 ** 40
        for _ in range(30):
            coords = rng.sample(range(1, 13), rng.randint(1, 8))
            weights = {i: Fraction(rng.randint(1, 9), rng.choice([1, 2, 7, tiny])) for i in coords}
            picked = rng.sample(coords, rng.randint(0, len(coords)))
            u = {i: Fraction(rng.choice([-5, -1, 2, 3]), rng.choice([1, 3, tiny, 6 * tiny]))
                 for i in picked}
            yield weights, SparseVector(u)
            outside = rng.sample([13, 14, 15], 2)
            yield weights, SparseVector({outside[0]: Fraction(1), **u, outside[1]: Fraction(2)})
            yield weights, SparseVector({**u, outside[1]: Fraction(-1, 3)})

    def test_weight_form_matches_the_plain_loop(self):
        """Same value, type and repr as `total += abs(u_i) / d_i` from a
        Fraction 0, and the same NotInSpan message for the first unweighted
        coordinate."""
        checked = raised = 0
        for seed in range(4):
            for weights, u in self.weight_gauge_cases(seed):
                disk = DiskSpec(weights=weights)
                try:
                    want = oracles.weight_gauge(disk.weights, u)
                except NotInSpan as exc:
                    with pytest.raises(NotInSpan) as got:
                        minkowski(disk, u)
                    assert str(got.value) == str(exc)
                    raised += 1
                    continue
                got = minkowski(disk, u)
                assert (type(got), repr(got)) == (type(want), repr(want))
                checked += 1
        assert checked >= 100 and raised >= 200

    def test_generator_basis(self):
        d = DiskSpec.from_generators([SparseVector.basis(1), SparseVector.basis(2)])
        assert minkowski(d, SparseVector.basis(1)) == 1
        assert minkowski(d, SparseVector.zero()) == 0

    def test_generator_tie_between_representations(self):
        half = Fraction(1, 2)
        d = DiskSpec.from_generators(
            [SparseVector.basis(1), SparseVector.basis(2), sv(half, half)]
        )
        assert minkowski(d, sv(half, half)) == 1

    def test_single_generator_scaling(self):
        d = DiskSpec.from_generators([SparseVector.basis(1)])
        assert minkowski(d, sv(Fraction(3, 2))) == Fraction(3, 2)
        with pytest.raises(NotInSpan):
            minkowski(d, SparseVector.basis(2))

    def test_redundant_generator_prefers_cheap_one(self):
        d = DiskSpec.from_generators([SparseVector.basis(1), sv(Fraction(1, 2))])
        assert minkowski(d, SparseVector.basis(1)) == 1

    def test_generator_form_against_grid_search(self):
        """Brute force over rational coefficient grids on small instances."""
        e1, e2 = SparseVector.basis(1), SparseVector.basis(2)
        instances = [
            ([e1, e2], sv(1, 1)),
            ([e1, sv(1, 1)], sv(0, 1)),
            ([sv(1, 1), sv(1, -1)], sv(1, 0)),
            ([e1, e2, sv(Fraction(1, 2), Fraction(1, 2))], sv(Fraction(1, 2), Fraction(1, 2))),
        ]
        grid = rational_grid(2, range(1, 5))
        for gens, u in instances:
            value = minkowski(DiskSpec.from_generators(gens), u)
            coords = sorted(set(u.support).union(*(g.support for g in gens)))
            best = None
            for combo in itertools.product(grid, repeat=len(gens)):
                total = SparseVector.zero()
                for a, g in zip(combo, gens):
                    total = total + g.scale(a)
                if all(total.get(i) == u.get(i) for i in coords):
                    mass = sum(abs(a) for a in combo)
                    best = mass if best is None else min(best, mass)
            assert best is not None
            assert value <= best
            # value is itself achieved by a feasible point, so the grid can
            # only be off by its resolution
            assert best - value <= Fraction(1, 2)

    @staticmethod
    def bounded_gauge_cases(rng):
        """(disk, x, y) triples over one weighted coordinate set: shared
        coordinates, some with equal entries, coordinates of x or y only, small
        and 2^-40 denominators; some with coordinate 13, which carries no
        weight, on one side or equal on both, and some with a generator-form
        disk."""
        tiny = 2 ** 40
        for _ in range(150):
            coords = rng.sample(range(1, 11), rng.randint(1, 7))
            weights = {i: Fraction(rng.randint(1, 9), rng.choice([1, 2, 7, tiny])) for i in coords}

            def draw():
                return {i: Fraction(rng.choice([-5, -1, 2, 3]), rng.choice([1, 3, tiny]))
                        for i in rng.sample(coords, rng.randint(0, len(coords)))}

            x, y = draw(), draw()
            for i in x.keys() & y.keys():
                if rng.random() < 0.3:
                    y[i] = x[i]
            side = rng.choice([None, None, x, y, "both"])
            if side == "both":
                x[13] = y[13] = Fraction(2)
            elif side is not None:
                side[13] = Fraction(-1, 3)
            disk = DiskSpec(weights=weights)
            if rng.random() < 0.1:
                disk = DiskSpec.from_generators(
                    [SparseVector.basis(i).scale(w) for i, w in weights.items()])
            yield disk, SparseVector(x), SparseVector(y)

    def test_first_below_is_the_full_gauge_compared(self):
        """first_below(disk, [x], y, bound) is 0 exactly when
        minkowski(disk, x - y) < bound, and None otherwise, at bounds that tie
        with the gauge, lie within 2^-30 of it, stop the weighted sum at its
        first term, or lie above or below it; where the full gauge raises
        NotInSpan, first_below raises the same, even at a bound the first
        term already reaches."""
        rng = random.Random(25)
        seen = set()
        for disk, x, y in self.bounded_gauge_cases(rng):
            diff = x - y
            try:
                gauge = minkowski(disk, diff)
            except NotInSpan as exc:
                for bound in (ZERO, ONE):
                    with pytest.raises(NotInSpan) as got:
                        first_below(disk, [x], y, bound)
                    assert str(got.value) == str(exc)
                seen.add("NotInSpan")
                continue
            first = (ZERO if diff.is_zero() or disk.weights is None
                     else next(abs(v) / disk.weights[i] for i, v in diff.entries.items()))
            near, apart = (gauge * (1 + Fraction(2) ** -k) for k in (45, 30))
            for bound in (gauge, near, apart, first, gauge / 2, gauge + 1, ZERO):
                got = first_below(disk, [x], y, bound)
                assert got == (0 if gauge < bound else None), (disk, x, y, bound)
                seen.add((got == 0, disk.weights is None))
        assert seen == {"NotInSpan", (True, False), (False, False), (True, True), (False, True)}


def outcome(call):
    """("value", type, repr) of call(), or ("raise", type, message)."""
    try:
        got = call()
    except (NotInSpan, NotPBounded) as exc:
        return "raise", type(exc), str(exc)
    return "value", type(got), repr(got)


def fraction_dual(p, f):
    """The dual norm as a Fraction fold of |f_i| / w_i (sum or max), the int
    0 for f = 0, NotPBounded at f's least coordinate outside the weights."""
    for i in sorted(f.entries):
        if i not in p.weights:
            raise NotPBounded(i)
    if not f.entries:
        return 0
    quotients = [abs(v) / p.weights[i] for i, v in f.entries.items()]
    return sum(quotients, ZERO) if p.kind == "sup" else max(quotients)


def test_the_weighted_sums_are_the_fraction_sums():
    """The weight-form `minkowski`, `dual_norm` of both kinds and
    `first_below` give the value, type and error text of plain Fraction sums
    (`oracles.weight_gauge`, `fraction_dual`, `oracles.first_below`) on
    seeded maps with negative entries and weights such as 2/3 and 5: the
    zero vector gives ZERO and the zero functional the int 0, a coordinate
    outside the weights raises as before, x = y at bound 0 is refused, and
    a candidate whose entries match y's is refused by y's extra coordinates
    alone."""
    rng = random.Random(43)
    choices = [Fraction(2, 3), Fraction(5), Fraction(1), Fraction(7, 4), Fraction(1, 9)]
    seen = set()
    for _ in range(300):
        coords = rng.sample(range(1, 10), rng.randint(1, 6))
        weights = {i: rng.choice(choices) for i in coords}
        disk = DiskSpec(weights=weights)

        def draw(outside=0.15):
            entries = {i: Fraction(rng.choice([-5, -2, -1, 1, 3]), rng.choice([1, 2, 3, 7]))
                       for i in rng.sample(coords, rng.randint(0, len(coords)))}
            if rng.random() < outside:
                entries[rng.choice([10, 11])] = Fraction(-1, 3)
            return entries

        u = SparseVector(draw())
        want = outcome(lambda: oracles.weight_gauge(disk.weights, u))
        assert outcome(lambda: minkowski(disk, u)) == want
        seen.add(want[0])
        f = CoordFunctional(draw())
        for kind in ("sup", "l1"):
            p = SeminormSpec(kind, weights)
            want = outcome(lambda: fraction_dual(p, f))
            assert outcome(lambda: dual_norm(p, f)) == want
            seen.add((kind, want[0]))

        y = SparseVector(draw())
        # pool: y itself, a copy of y without its extra coordinates, and draws
        pool = [SparseVector(dict(y.entries))] + [SparseVector(draw()) for _ in range(3)]
        extra = rng.choice([i for i in coords if i not in y.entries] or [None])
        if extra is not None:
            wide = SparseVector({**y.entries, extra: Fraction(-9)})
            pool.insert(rng.randint(0, len(pool)), SparseVector(dict(y.entries)))
            y = wide
        for bound in (ZERO, Fraction(1, 3), ONE, Fraction(4)):
            want = outcome(lambda: oracles.first_below(disk, pool, y, bound))
            assert outcome(lambda: first_below(disk, pool, y, bound)) == want
            seen.add(("scan", want[2] == "None"))

    # x = y at bound 0, and a candidate that only y's extra coordinate rejects
    disk = DiskSpec(weights={1: Fraction(2, 3), 2: Fraction(5), 3: 1})
    x = SparseVector({1: Fraction(-1, 2), 2: 3})
    y = SparseVector({1: Fraction(-1, 2), 2: 3, 3: Fraction(1, 7)})
    assert first_below(disk, [x], x, ZERO) is None
    assert first_below(disk, [x], x, Fraction(1, 10 ** 9)) == 0
    assert first_below(disk, [x], y, Fraction(1, 7)) is None
    assert first_below(disk, [x, SparseVector(dict(y.entries))], y, Fraction(1, 7)) == 1
    assert first_below(disk, [x], y, Fraction(1, 7) + Fraction(1, 10 ** 9)) == 0
    assert minkowski(disk, SparseVector.zero()) == ZERO
    assert type(minkowski(disk, SparseVector.zero())) is Fraction
    assert dual_norm(SeminormSpec("sup", disk.weights), CoordFunctional.zero()) == 0
    assert type(dual_norm(SeminormSpec("sup", disk.weights), CoordFunctional.zero())) is int
    assert seen >= {"value", "raise", ("sup", "value"), ("sup", "raise"), ("l1", "value"),
                    ("l1", "raise"), ("scan", True), ("scan", False)}


class TestSeparatingFunctional:
    def test_empty_constraints(self):
        p = SeminormSpec.sup_on([1, 2])
        f = Separator.of(p, []).functional(SparseVector.basis(1))
        assert f.pairs() == ((1, Fraction(1)),)
        assert dual_norm(p, f) == 1

    def test_vanishes_on_constraints(self):
        p = SeminormSpec.sup_on([1, 2])
        f = Separator.of(p, [SparseVector.basis(1)]).functional(SparseVector.basis(2))
        assert f.pair(SparseVector.basis(1)) == 0
        assert f.pair(SparseVector.basis(2)) != 0
        assert dual_norm(p, f) == 1

    def test_no_separation_inside_span(self):
        p = SeminormSpec.sup_on([1, 2])
        with pytest.raises(NoSeparation):
            Separator.of(p, [SparseVector.basis(1)]).functional(SparseVector.basis(1))

    def test_no_separation_for_kernel_vector(self):
        p = SeminormSpec.sup_on([1, 2])
        with pytest.raises(NoSeparation):
            Separator.of(p, []).functional(SparseVector.basis(5))

    def test_identities_hold_on_random_instances(self):
        rng = random.Random(17)
        p = SeminormSpec.sup_on(range(1, 7))
        produced = 0
        while produced < 50:
            constraints = [
                SparseVector({i: Fraction(rng.randint(-3, 3)) for i in range(1, 9)})
                for _ in range(rng.randint(0, 3))
            ]
            u = SparseVector({i: Fraction(rng.randint(-3, 3)) for i in range(1, 9)})
            try:
                f = Separator.of(p, constraints).functional(u)
            except NoSeparation:
                continue
            produced += 1
            assert all(f.pair(l) == 0 for l in constraints)
            assert f.pair(u) != 0
            assert dual_norm(p, f) == 1
            assert set(f.support) <= p.active


def nullspace_pick(p, constraints, u):
    """Oracle: the first dense `oracles.nullspace` vector over the active coordinates
    of the constraints and u that is non-zero on u, rescaled to dual norm one."""
    coords = sorted({i for x in list(constraints) + [u] for i in x.entries if i in p.weights})
    if not coords:
        raise NoSeparation("u projects to zero on the active coordinates")
    rows = [[x.get(i) for i in coords] for x in constraints]
    u_proj = [u.get(i) for i in coords]
    for candidate in oracles.nullspace(rows, cols=len(coords)):
        if sum(c * x for c, x in zip(candidate, u_proj)) != 0:
            f = CoordFunctional({i: c for i, c in zip(coords, candidate) if c != 0})
            return f.scale(1 / dual_norm(p, f))
    raise NoSeparation("u lies in span(constraints) + ker p")


def pick_or_none(pick, *args):
    try:
        return pick(*args)
    except NoSeparation:
        return None


def random_entries(rng, coords, most):
    return {i: Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3]))
            for i in rng.sample(coords, rng.randint(1, min(most, len(coords))))}


def probe_vectors(rng, constraints, window, active):
    """A random u, one in the span, one in ker p, one off every constraint support."""
    coords = list(range(1, window + 1))
    probes = [SparseVector(random_entries(rng, coords, 4))]
    if constraints:
        probes.append(combine((Fraction(rng.randint(-2, 2)), x)
                              for x in rng.sample(constraints, min(2, len(constraints)))))
    probes.append(SparseVector(random_entries(rng, coords[active:], 2)))
    used = set().union(*(x.entries for x in constraints))
    spare = [i for i in range(1, active + 1) if i not in used]
    if spare:
        probes.append(SparseVector(random_entries(rng, spare, 2))
                      + SparseVector(random_entries(rng, coords[active:], 1)))
    return probes


class TestSeparator:
    WINDOW, ACTIVE = 10, 7

    def growing_lists(self, seed, lists=40):
        rng = random.Random(seed)
        coords = list(range(1, self.WINDOW + 1))
        for _ in range(lists):
            constraints = []
            for _ in range(rng.randint(1, self.ACTIVE + 1)):
                if constraints and rng.random() < 0.25:
                    # dependent on the earlier ones modulo ker p
                    x = combine((Fraction(rng.randint(-2, 2)), y)
                                for y in rng.sample(constraints, min(2, len(constraints))))
                    x = x + SparseVector(random_entries(rng, coords[self.ACTIVE:], 1))
                else:
                    x = SparseVector(random_entries(rng, coords, 4))
                constraints.append(x)
            yield rng, constraints

    def test_incremental_pick_equals_nullspace_pick(self):
        p = SeminormSpec.sup_on(range(1, self.ACTIVE + 1))
        picked = refused = 0
        for rng, constraints in self.growing_lists(51):
            sep = Separator(p)
            for n in range(len(constraints) + 1):
                prefix = constraints[:n]
                for u in probe_vectors(rng, prefix, self.WINDOW, self.ACTIVE):
                    want = pick_or_none(nullspace_pick, p, prefix, u)
                    got = pick_or_none(sep.functional, u)
                    once = pick_or_none(Separator.of(p, prefix).functional, u)
                    if want is None:
                        assert got is None and once is None
                        refused += 1
                        continue
                    # same entries in the same (coordinate) order
                    assert list(got.entries.items()) == list(want.entries.items())
                    assert list(once.entries.items()) == list(want.entries.items())
                    picked += 1
                if n < len(constraints):
                    sep.add(constraints[n])
        assert picked > 300 and refused > 100

    def test_weighted_l1_seminorm(self):
        p = SeminormSpec("l1", {i: Fraction(i, 2) for i in range(1, self.ACTIVE + 1)})
        for rng, constraints in self.growing_lists(52, lists=15):
            sep = Separator(p)
            for x in constraints:
                sep.add(x)
            for u in probe_vectors(rng, constraints, self.WINDOW, self.ACTIVE):
                want = pick_or_none(nullspace_pick, p, constraints, u)
                got = pick_or_none(sep.functional, u)
                assert (got is None) == (want is None)
                if want is not None:
                    assert list(got.entries.items()) == list(want.entries.items())


class TestCombine:
    @pytest.mark.parametrize("kind", [SparseVector, CoordFunctional])
    def test_matches_left_fold(self, kind):
        rng = random.Random(23)

        def scalar():
            return Fraction(rng.randint(-4, 4), rng.choice([1, 3, 7]))

        def item():
            return kind({i: scalar() for i in rng.sample(range(1, 9), rng.randint(0, 5))})

        for _ in range(300):
            xs = [item() for _ in range(rng.randint(0, 5))]
            cs = [scalar() for _ in xs]
            if xs and rng.random() < 0.4:
                # a term that cancels an earlier one, so sums pass through zero
                xs.append(xs[0])
                cs.append(-cs[0])
            start = None if kind is SparseVector and rng.random() < 0.3 else item()
            fold = SparseVector.zero() if start is None else start
            for c, x in zip(cs, xs):
                if c > 0:
                    fold = fold + x.scale(c)
                elif c < 0:
                    fold = fold - x.scale(-c)
            out = combine(zip(cs, xs), start)
            assert out == fold
            # same insertion order too
            assert list(out.entries) == list(fold.entries)

    @pytest.mark.parametrize("zero", [0, Fraction(0), 0.0, -0.0])
    def test_zero_coefficients_return_start_itself(self, zero):
        start = sv(1, -2)
        assert combine([(zero, sv(3)), (zero, sv(0, 5))], start) is start
        assert combine([], start) is start
        assert combine([(zero, sv(3))]) == SparseVector.zero()

    def test_mixed_kinds_rejected(self):
        with pytest.raises(TypeError):
            combine([(1, cf(1))], sv(1))


class TestClose:
    @pytest.mark.parametrize("kind", [SparseVector, CoordFunctional])
    def test_equal_maps_build_no_difference(self, kind, monkeypatch):
        """Two maps are close when they are equal, and `==` builds no difference."""
        x = kind({1: Fraction(1, 3), 4: Fraction(-2, 7)})
        y = kind(dict(reversed(list(x.entries.items()))))

        def boom(*_args):
            raise AssertionError("difference built")

        monkeypatch.setattr(vectors._FiniteMap, "__sub__", boom)
        assert x == y and x == x
        assert kind.zero() == kind.zero()

    @pytest.mark.parametrize("kind", [SparseVector, CoordFunctional])
    def test_maps_apart_by_any_amount_are_not_close(self, kind):
        """Closeness is equality: no tolerance makes 1/3 + 2^-60 equal to 1/3,
        or an entry of 2^-200 a zero."""
        x = kind({1: Fraction(1, 3), 4: Fraction(-2, 7)})
        for y in (kind({1: Fraction(1, 3) + Fraction(1, 2 ** 60), 4: Fraction(-2, 7)}),
                  kind({**x.entries, 9: Fraction(1, 2 ** 200)}),
                  kind({1: Fraction(1, 3)}), kind.zero()):
            assert x != y and y != x, y
        assert kind({9: Fraction(1, 2 ** 200)}) != kind.zero()


class TestIdentity:
    def test_equal_vectors_hash_equal(self):
        from_ints = SparseVector({1: 2, 3: -1, 4: 0})
        from_fractions = SparseVector({3: Fraction(-1), 1: Fraction(4, 2)})
        assert from_ints == from_fractions
        assert hash(from_ints) == hash(from_fractions)
        assert len({from_ints, from_fractions}) == 1

    def test_enumeration_rejects_the_duplicate_pair(self):
        with pytest.raises(ValueError, match="pairwise distinct"):
            Enumeration((sv(1), SparseVector({1: 1, 2: 0}), sv(0, 1)))

    def test_vector_and_functional_stay_distinct(self):
        x, f = SparseVector({1: 1, 2: 3}), CoordFunctional({1: 1, 2: 3})
        assert x != f and f != x
        assert len({x, f}) == 2
