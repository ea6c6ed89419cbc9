"""Independent extraction, null-sequence disks, common disks, biorthogonal systems."""

import random
from fractions import Fraction

import pytest

from orbitlab import (
    CoordFunctional,
    DiskSpec,
    SeminormSpec,
    SparseVector,
    dual_norm,
    eval_seminorm,
    linalg,
    minkowski,
)
from orbitlab.density import (
    Enumeration,
    EpsilonNet,
    biorthogonalize,
    common_disk,
    extract_p_independent,
    is_net,
    net_report,
)
from orbitlab.errors import Exhausted, KernelCollision, NotANet, NotInSpan, NotPIndependent
from orbitlab.scalars import EXACT, FLOAT
from orbitlab.scenarios import Scenario, run_scenario

import oracles


def sv(*entries):
    return SparseVector({i + 1: Fraction(v) for i, v in enumerate(entries) if v != 0})


def frac(n, d=1):
    return Fraction(n, d)


class TestExtractPIndependent:
    def test_norm_case_reduces_to_span_avoidance(self):
        p = SeminormSpec.sup_on([1, 2, 3])
        a = Enumeration((sv(1), sv(0, 1), sv(1, 1), sv(0, 0, 1)))
        whole = (SparseVector.zero(), frac(100))
        picks = extract_p_independent(a, p, [whole, whole, whole])
        assert picks.items == (sv(1), sv(0, 1), sv(0, 0, 1))

    def test_skips_projection_dependent_elements(self):
        p = SeminormSpec(kind="sup", weights={1: frac(1), 2: frac(1)})
        a = Enumeration((sv(1), sv(2), sv(1, 1)))
        whole = (SparseVector.zero(), frac(100))
        picks = extract_p_independent(a, p, [whole, whole])
        # 2*e1 projects onto span(e1 projection): skipped
        assert picks.items == (sv(1), sv(1, 1))

    def test_picks_land_in_their_balls(self):
        p = SeminormSpec.sup_on([1, 2])
        a = Enumeration((sv(1), sv(0, 1), sv(4, 4)))
        balls = [(sv(0, 1), frac(1, 2)), (sv(1), frac(1, 2))]
        picks = extract_p_independent(a, p, balls)
        assert picks.items == (sv(0, 1), sv(1))

    def test_exhausted_when_ball_is_empty(self):
        p = SeminormSpec.sup_on([1, 2])
        a = Enumeration((sv(1), sv(0, 1)))
        with pytest.raises(Exhausted):
            extract_p_independent(a, p, [(sv(9, 9), frac(1, 4))])

    def test_trivial_seminorm_rejected(self):
        a = Enumeration((sv(1), sv(0, 1)))
        with pytest.raises(NotPIndependent, match="non-trivial"):
            extract_p_independent(a, SeminormSpec.sup_on([1]), [(sv(1), frac(1))])

    def test_rank_equals_pick_count_at_every_stage(self):
        rng = random.Random(83)
        p = SeminormSpec.sup_on(range(1, 5))
        pool = []
        while len(pool) < 12:
            x = SparseVector({i: frac(rng.randint(-3, 3)) for i in range(1, 7)})
            if not x.is_zero() and all(x != y for y in pool):
                pool.append(x)
        a = Enumeration(tuple(pool))
        whole = (SparseVector.zero(), frac(1000))
        picks = extract_p_independent(a, p, [whole] * 4)
        for stage in range(1, 5):
            proj = [
                [x.get(i) for i in sorted(p.active)] for x in picks.items[:stage]
            ]
            assert oracles.rank(proj) == stage


class TestNullSequenceDisk:
    def test_two_generators_give_l1_norm_on_span(self):
        disk = DiskSpec.from_generators([sv(1), sv(0, 1)])
        assert minkowski(disk, sv(3, -4)) == 7
        assert minkowski(disk, sv(1)) == 1

    def test_single_generator(self):
        disk = DiskSpec.from_generators([sv(1)])
        assert minkowski(disk, sv(frac(5, 2))) == frac(5, 2)
        with pytest.raises(NotInSpan):
            minkowski(disk, sv(0, 1))

    def test_scaled_duplicate_prefers_cheap_representation(self):
        disk = DiskSpec.from_generators([sv(1), sv(frac(1, 2))])
        assert minkowski(disk, sv(1)) == 1

    def test_generators_lie_in_the_disk(self):
        rng = random.Random(89)
        gens = [
            SparseVector({i: frac(rng.randint(-2, 2), rng.choice([1, 2])) for i in range(1, 5)})
            for _ in range(4)
        ]
        gens = [g for g in gens if not g.is_zero()]
        disk = DiskSpec.from_generators(gens)
        for g in gens:
            assert minkowski(disk, g) <= 1

    def test_gauge_is_a_norm_on_span(self):
        rng = random.Random(97)
        gens = [sv(1, 1), sv(0, 2, 1)]
        disk = DiskSpec.from_generators(gens)
        for _ in range(25):
            coeffs = [frac(rng.randint(-3, 3), rng.choice([1, 2])) for _ in gens]
            u = SparseVector.zero()
            for c, g in zip(coeffs, gens):
                u = u + g.scale(c)
            value = minkowski(disk, u)
            assert (value == 0) == u.is_zero()


class TestCommonDisk:
    def test_identical_enumerations(self):
        items = (SparseVector.zero(), sv(1), sv(0, 1))
        a = Enumeration(items)
        b = Enumeration(items)
        net = EpsilonNet(window=2, targets=items, eps=frac(0))
        report = common_disk(a, b, net)
        assert report.eps_a == 0
        assert report.eps_b == 0
        for z in report.combined:
            assert minkowski(report.disk, z) <= 1

    def test_quarter_grids_cover_half_grid_targets(self):
        quarter = frac(1, 4)
        a_items = tuple(
            sv(i * quarter, j * quarter) for i in range(-4, 5) for j in range(-4, 5)
        )
        shift = frac(1, 8)
        b_items = tuple(
            sv(i * quarter + shift, j * quarter + shift)
            for i in range(-4, 5) for j in range(-4, 5)
        )
        targets = tuple(sv(i * frac(1, 2), j * frac(1, 2)) for i in range(-1, 2) for j in range(-1, 2))
        net = EpsilonNet(window=2, targets=targets, eps=frac(1, 8))
        report = common_disk(Enumeration(a_items), Enumeration(b_items), net)
        # disks dominate the window seminorm with the reported constant
        w = net.seminorm()
        rng = random.Random(101)
        for _ in range(50):
            x = SparseVector({i: frac(rng.randint(-8, 8), 4) for i in (1, 2)})
            assert eval_seminorm(w, x) <= report.domination * minkowski(report.disk, x)
        # both enumerations are nets under the new gauge at the reported radius
        for t in targets:
            da = min(minkowski(report.disk, x - t) for x in a_items)
            db = min(minkowski(report.disk, x - t) for x in b_items)
            assert da <= report.eps_a
            assert db <= report.eps_b

    def test_not_a_net_detected(self):
        a = Enumeration((sv(1),))
        b = Enumeration((sv(0, 1),))
        net = EpsilonNet(window=2, targets=(sv(5, 5),), eps=frac(1, 4))
        with pytest.raises(NotANet):
            common_disk(a, b, net)

    def test_each_enumeration_is_scanned_once_per_target(self, monkeypatch):
        """A common-disk scenario scans each (enumeration, target) pair once:
        the net tests, the round-robin rounds, the radii and the net-report
        tables all reuse that scan."""
        import orbitlab.density as density

        scans = {}
        scan = density.nearest_in

        def counted(items, target, norm):
            key = (tuple(items), target)
            scans[key] = scans.get(key, 0) + 1
            return scan(items, target, norm)

        monkeypatch.setattr(density, "nearest_in", counted)
        half = [frac(k, 2) for k in range(-2, 3)]

        def points(dx, dy):
            return [[[1, str(x + dx)], [2, str(y + dy)]] for x in half for y in half]

        targets = [[[1, "1/4"], [2, "-3/4"]], [[1, "1/2"]], [[2, "1"]]]
        report = run_scenario(Scenario.from_dict({
            "name": "common", "scalar_mode": "exact", "window": 2, "seed": 1,
            "task": "disk", "payload": {"common": {
                "a": points(0, 0), "b": points(frac(1, 8), frac(-1, 8)),
                "targets": targets, "eps": "1/4"}},
        }))
        assert report.passed
        assert len(scans) == 2 * len(targets)
        assert set(scans.values()) == {1}
        # the tables still hold one row per target for each enumeration
        for label in ("a", "b"):
            table = next(t for t in report.tables if t.name == f"net-report-{label}")
            assert len(table.rows) == len(targets)

    def test_scans_keep_the_first_among_ties(self):
        # both items are at distance 1/2 from the target; the first one wins
        a = Enumeration((sv(frac(1, 2)), sv(frac(-1, 2))))
        b = Enumeration((sv(frac(-1, 2)), sv(frac(1, 2))))
        net = EpsilonNet(window=1, targets=(SparseVector.zero(),), eps=frac(1, 2))
        report = common_disk(a, b, net)
        assert report.scans == (((0, frac(1, 2)),), ((0, frac(1, 2)),))
        assert report.combined[:2] == (sv(frac(-1, 2)).scale(2), sv(frac(1, 2)).scale(2))
        assert net_report(a.items, net, scans=report.scans[0])[0][1] == a.items[0]

    def test_item_beyond_window_named(self):
        a = Enumeration((SparseVector({1: frac(1), 3: frac(1)}), sv(0, 1)))
        b = Enumeration((sv(1), sv(0, 1)))
        net = EpsilonNet(window=2, targets=(sv(1),), eps=frac(1, 4))
        with pytest.raises(NotInSpan, match="coordinate 3"):
            common_disk(a, b, net)


class TestNetHelpers:
    def test_is_net_and_report(self):
        net = EpsilonNet(window=2, targets=(sv(1), sv(0, 1)), eps=frac(1, 2))
        assert is_net([sv(1), sv(0, frac(3, 4))], net)
        assert not is_net([sv(5)], net)
        rows = net_report([sv(1)], net)
        assert rows[0][2] == 0
        assert rows[1][2] > frac(1, 2)


class TestBiorthogonalize:
    def test_standard_basis(self):
        p = SeminormSpec.sup_on([1, 2])
        fs = biorthogonalize([sv(1), sv(0, 1)], p)
        assert fs[0] == CoordFunctional.delta(1)
        assert fs[1] == CoordFunctional.delta(2)

    def test_overlapping_pair(self):
        p = SeminormSpec.sup_on([1, 2])
        fs = biorthogonalize([sv(1), sv(1, 1)], p)
        assert fs[0] == CoordFunctional({1: frac(1), 2: frac(-1)})
        assert fs[1] == CoordFunctional.delta(2)

    def test_dependent_input_rejected(self):
        p = SeminormSpec.sup_on([1, 2])
        with pytest.raises(KernelCollision):
            biorthogonalize([sv(1), sv(1)], p)

    def test_kernel_collision_rejected(self):
        p = SeminormSpec.sup_on([1, 2])
        with pytest.raises(KernelCollision):
            biorthogonalize([sv(1), sv(0, 0, 1)], p)

    def test_full_biorthogonality_on_random_families(self):
        rng = random.Random(103)
        p = SeminormSpec.sup_on(range(1, 15))
        kernel_basis = [SparseVector.basis(i) for i in range(15, 18)]
        for _ in range(50):
            size = rng.randint(1, 12)
            us = []
            reducer = linalg.RowReducer()
            while len(us) < size:
                x = SparseVector({i: frac(rng.randint(-4, 4), rng.choice([1, 2]))
                                  for i in rng.sample(range(1, 15), rng.randint(1, 5))})
                proj = {i: v for i, v in x.entries.items() if i in p.weights}
                if proj and reducer.try_add(proj):
                    us.append(x)
            fs = biorthogonalize(us, p)
            for n, f in enumerate(fs):
                assert dual_norm(p, f) > 0
                for m, u in enumerate(us):
                    assert f.pair(u) == frac(int(n == m))
                for z in kernel_basis:
                    assert f.pair(z) == 0


class TestDualByInverse:
    """`biorthogonalize` reads a square, invertible active block's dual system
    off one inverse; the separator path, run by making the inverse decline,
    is its oracle."""

    @staticmethod
    def separator_path(monkeypatch, us, p, ctx):
        import orbitlab.density as density

        with monkeypatch.context() as m:
            m.setattr(density, "_dual_by_inverse", lambda projections, ctx: None)
            return density.biorthogonalize(us, p, ctx)

    @staticmethod
    def spy_separators(monkeypatch):
        from orbitlab.seminorms import Separator

        calls = []
        of = Separator.of.__func__

        def counted(cls, p, constraints, ctx=EXACT):
            calls.append(len(constraints))
            return of(cls, p, constraints, ctx)

        monkeypatch.setattr(Separator, "of", classmethod(counted))
        return calls

    @staticmethod
    def chain(rng, n, ctx=EXACT):
        """n vectors whose projections on n scattered active coordinates form
        a unit triangular block under a random order, plus random entries on
        the block and kernel junk: square and invertible."""
        active = sorted(rng.sample(range(1, 3 * n + 1), n))
        order = rng.sample(active, n)
        us = []
        for k, lead in enumerate(order):
            entries = {lead: ctx.one}
            for c in rng.sample(order[:k], min(k, 3)):
                entries[c] = ctx.coerce(frac(rng.randint(-3, 3), rng.choice([1, 2, 4])))
            if rng.random() < 0.5:
                entries[3 * n + rng.randint(1, 4)] = ctx.coerce(frac(rng.randint(1, 3), 2))
            us.append(SparseVector(entries))
        rng.shuffle(us)
        return us, SeminormSpec.sup_on(active, ctx.one)

    def test_square_chains_match_the_separator_path(self, monkeypatch):
        rng = random.Random(211)
        for _ in range(60):
            us, p = self.chain(rng, rng.randint(1, 9))
            expected = self.separator_path(monkeypatch, us, p, EXACT)
            calls = self.spy_separators(monkeypatch)
            fs = biorthogonalize(us, p)
            monkeypatch.undo()
            assert calls == []
            assert fs == expected
            for f, g in zip(fs, expected):
                assert list(f.entries) == list(g.entries)
                assert all(type(v) is Fraction for v in f.entries.values())

    def test_non_square_and_singular_blocks_fall_back(self, monkeypatch):
        rng = random.Random(223)
        wide = square_singular = 0
        for _ in range(60):
            n = rng.randint(2, 6)
            p = SeminormSpec.sup_on(range(1, n + 3))
            us = [SparseVector({i: frac(rng.randint(-2, 2), rng.choice([1, 2]))
                                for i in rng.sample(range(1, n + 5), rng.randint(1, 3))})
                  for _ in range(n)]
            if rng.random() < 0.3:  # a repeated projection makes the block singular
                us[-1] = us[0] + SparseVector.basis(n + 4)
            try:
                expected = self.separator_path(monkeypatch, us, p, EXACT)
            except KernelCollision as exc:
                expected = str(exc)
            calls = self.spy_separators(monkeypatch)
            try:
                fs = biorthogonalize(us, p)
            except KernelCollision as exc:
                fs = str(exc)
            monkeypatch.undo()
            assert fs == expected
            coords = set().union(*({i for i in u.entries if i in p.weights} for u in us))
            if len(coords) != n:
                wide += 1
                assert calls  # the separator path ran
            elif not linalg.independent(({i: v for i, v in u.entries.items()
                                          if i in p.weights} for u in us)):
                square_singular += 1
                assert calls and isinstance(fs, str)
        assert wide >= 10 and square_singular >= 5

    def test_float_mode_keeps_the_separator_path(self, monkeypatch):
        import orbitlab.density as density

        rng = random.Random(227)
        for _ in range(30):
            us, p = self.chain(rng, rng.randint(1, 9), FLOAT)
            expected = self.separator_path(monkeypatch, us, p, FLOAT)
            inverse = []
            monkeypatch.setattr(density, "_dual_by_inverse",
                                lambda *args: inverse.append(args))
            fs = biorthogonalize(us, p, FLOAT)
            monkeypatch.undo()
            assert inverse == []
            assert [[(i, v.hex()) for i, v in f.entries.items()] for f in fs] == \
                [[(i, v.hex()) for i, v in f.entries.items()] for f in expected]
