"""Independent extraction, null-sequence disks, common disks, biorthogonal systems."""

import random
from fractions import Fraction

import pytest

from orbitlab import (
    CoordFunctional,
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
    null_sequence_disk,
)
from orbitlab.errors import Exhausted, KernelCollision, NotANet, NotInSpan, NotPIndependent

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
        disk = null_sequence_disk([sv(1), sv(0, 1)])
        assert minkowski(disk, sv(3, -4)) == 7
        assert minkowski(disk, sv(1)) == 1

    def test_single_generator(self):
        disk = null_sequence_disk([sv(1)])
        assert minkowski(disk, sv(frac(5, 2))) == frac(5, 2)
        with pytest.raises(NotInSpan):
            minkowski(disk, sv(0, 1))

    def test_scaled_duplicate_prefers_cheap_representation(self):
        disk = null_sequence_disk([sv(1), sv(frac(1, 2))])
        assert minkowski(disk, sv(1)) == 1

    def test_generators_lie_in_the_disk(self):
        rng = random.Random(89)
        gens = [
            SparseVector({i: frac(rng.randint(-2, 2), rng.choice([1, 2])) for i in range(1, 5)})
            for _ in range(4)
        ]
        gens = [g for g in gens if not g.is_zero()]
        disk = null_sequence_disk(gens)
        for g in gens:
            assert minkowski(disk, g) <= 1

    def test_gauge_is_a_norm_on_span(self):
        rng = random.Random(97)
        gens = [sv(1, 1), sv(0, 2, 1)]
        disk = null_sequence_disk(gens)
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
        a = Enumeration(items, role="A")
        b = Enumeration(items, role="B")
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
        report = common_disk(Enumeration(a_items, "A"), Enumeration(b_items, "B"), net)
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
