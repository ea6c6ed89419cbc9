"""Shift chains, premise dimensions, transitivity witnesses, orbit refutation."""

import random
from fractions import Fraction

import pytest

from orbitlab import (
    CoordFunctional,
    DiskSpec,
    FiniteRankOperator,
    SeminormSpec,
    SparseVector,
    eval_seminorm,
    invert,
    minkowski,
    neumann_certificate,
    orbit,
)
from orbitlab.density import Enumeration
from orbitlab.errors import (
    KernelCollision,
    NotNested,
    NotNilpotent,
    NotPIndependent,
    WitnessNotFound,
)
from orbitlab.hypercyclic import (
    build_nonorbit_set,
    build_shift_operator,
    range_kernel_premise_check,
    omega_shift_demo,
    refute_orbit,
    transitivity_witness,
)
from orbitlab.operators import BASE_IDENTITY, BASE_ZERO

import oracles


def sv(*entries):
    return SparseVector({i + 1: Fraction(v) for i, v in enumerate(entries) if v != 0})


def frac(n, d=1):
    return Fraction(n, d)


def standard_shift(window):
    """Chain on the standard basis: full-window sup seminorm, l1 disk."""
    us = [SparseVector.basis(i) for i in range(1, window + 1)]
    p = SeminormSpec.sup_on(range(1, window + 1))
    disk = oracles.l1_disk(range(1, window + 1))
    return build_shift_operator(us, p, disk), p, disk


class TestBuildShiftOperator:
    def test_standard_basis_weights(self):
        spec, _, _ = standard_shift(6)
        s = spec.operator
        assert s.apply(SparseVector.basis(1)).is_zero()
        for k in range(2, 7):
            assert s.apply(SparseVector.basis(k)) == SparseVector.basis(k - 1).scale(
                frac(1, 2 ** (k - 1))
            )

    def test_chain_nilpotency(self):
        spec, _, _ = standard_shift(6)
        s = spec.operator
        for n in range(1, 7):
            x = SparseVector.basis(n)
            for _ in range(n):
                x = s.apply(x)
            assert x.is_zero()

    def test_skew_basis_weights_from_derived_duals(self):
        p = SeminormSpec.sup_on([1, 2])
        disk = oracles.l1_disk([1, 2])
        us = [sv(1), sv(1, 1)]
        spec = build_shift_operator(us, p, disk)
        # dual system is (delta1 - delta2, delta2); p*(delta2) = 1, p_D(u1) = 1
        assert spec.fs[0] == CoordFunctional({1: frac(1), 2: frac(-1)})
        assert spec.weights == (frac(1, 2),)
        assert spec.operator.apply(us[1]) == us[0].scale(frac(1, 2))

    @pytest.mark.parametrize("form", ["weights", "generators"])
    def test_weights_spend_two_to_the_minus_n_of_the_budget(self, form):
        """w_n = 2^-n / (p_D(u_n) p*(f_{n+1})), so the certificate of S gives
        term n the product 2^-n exactly and c = 1 - 2^-(k-1) for k vectors."""
        rng = random.Random(41)
        for _ in range(12):
            window = rng.randint(1, 6)
            us = [SparseVector({k: frac(rng.choice([1, 2, 3])),
                                **{i: frac(rng.randint(-4, 4), rng.choice([1, 3, 5]))
                                   for i in rng.sample(range(1, k), min(k - 1, 2))}})
                  for k in range(1, window + 1)]
            p = SeminormSpec.sup_on(range(1, window + 1))
            if form == "weights":
                disk = DiskSpec(weights={i: frac(rng.randint(1, 7), rng.choice([2, 3, 8]))
                                         for i in range(1, window + 1)})
            else:
                disk = DiskSpec.from_generators(
                    [SparseVector.basis(i).scale(frac(rng.randint(1, 5), rng.choice([1, 4])))
                     for i in range(1, window + 1)]
                    + [SparseVector({i: frac(rng.randint(-3, 3), 2) for i in range(1, window + 1)})])
            budget = neumann_certificate(build_shift_operator(us, p, disk).operator, p, disk)
            assert [df * pv for df, pv in budget.per_term] == [
                frac(1, 2 ** n) for n in range(1, window)]
            assert budget.c == 1 - frac(1, 2 ** (window - 1))

    def test_kernel_collision_propagates(self):
        p = SeminormSpec.sup_on([1, 2])
        disk = oracles.l1_disk([1, 2, 3])
        with pytest.raises(KernelCollision):
            build_shift_operator([sv(1), sv(0, 0, 1)], p, disk)

    def test_continuity_bound_on_random_vectors(self):
        spec, p, disk = standard_shift(8)
        rng = random.Random(7)
        for _ in range(500):
            x = SparseVector({i: frac(rng.randint(-9, 9), rng.choice([1, 2, 4]))
                              for i in rng.sample(range(1, 9), rng.randint(0, 6))})
            assert minkowski(disk, spec.operator.apply(x)) <= eval_seminorm(p, x)

    def test_exact_continuity_loop_does_no_fraction_arithmetic_in_apply_or_gauge(
            self, monkeypatch):
        """The continuity bound p_D(S x) <= p(x) sampled on 100 seeded
        vectors: `FiniteRankOperator.apply` and the weight-form `minkowski`
        sum on integers, so no Fraction is added, multiplied or divided while
        either of them runs; `eval_seminorm` still does Fraction arithmetic."""
        import os
        import sys

        import orbitlab.operators as operators
        import orbitlab.seminorms as seminorms

        rng = random.Random(17)
        window = 9
        us = [SparseVector({k: frac(1), **{i: frac(rng.randint(-4, 4), rng.choice([1, 3, 5]))
                                           for i in rng.sample(range(1, k), min(k - 1, 3))}})
              for k in range(1, window + 1)]
        p = SeminormSpec.sup_on(range(1, window + 1))
        disk = DiskSpec(weights={i: frac(rng.randint(1, 7), rng.choice([2, 3, 8]))
                                 for i in range(1, window + 1)})
        s = build_shift_operator(us, p, disk).operator
        xs = [SparseVector({i: frac(rng.randint(-8, 8), rng.choice([1, 2, 4]))
                            for i in rng.sample(range(1, window + 1), rng.randint(0, 5))})
              for _ in range(100)]

        here = os.path.normcase(operators.__file__)
        gauge = (os.path.normcase(seminorms.__file__), "minkowski")
        inside, elsewhere = [], []

        def spied(name, op):
            def wrapper(a, b):
                frame = sys._getframe(1)
                while frame is not None:
                    code = frame.f_code
                    where = os.path.normcase(code.co_filename)
                    if where == here or (where, code.co_name) == gauge:
                        inside.append((name, code.co_name))
                        break
                    frame = frame.f_back
                else:
                    elsewhere.append(name)
                return op(a, b)
            return wrapper

        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                     "__truediv__", "__rtruediv__"):
            monkeypatch.setattr(Fraction, name, spied(name, getattr(Fraction, name)))
        bounded = [minkowski(disk, s.apply(x)) <= eval_seminorm(p, x) for x in xs]
        monkeypatch.undo()
        assert all(bounded)
        assert inside == []
        assert elsewhere  # the spy sees the seminorm's own Fraction products

    def test_maps_prefix_span_onto_smaller_span(self):
        spec, _, _ = standard_shift(6)
        indices = list(range(1, 7))
        mat = oracles.dense_matrix(spec.operator, indices)
        assert oracles.rank(mat) == 5

    def test_fixes_kernel_of_p(self):
        window = 6
        us = [SparseVector.basis(i) for i in range(1, 5)]
        p = SeminormSpec.sup_on(range(1, 5))
        disk = oracles.l1_disk(range(1, window + 1))
        spec = build_shift_operator(us, p, disk)
        t = spec.operator.plus_identity()
        for i in (5, 6):
            e = SparseVector.basis(i)
            assert t.apply(e) == e


class TestRangeKernelPremise:
    def test_full_chain_with_headroom_spans_window(self):
        # chain on 12 coordinates probed on the lower 6: the headroom stands
        # in for the surjectivity of the untruncated chain
        spec, _, _ = standard_shift(12)
        t = spec.operator.plus_identity()
        report = range_kernel_premise_check(t, window=6, depth=6)
        assert report.window_meet_dim == 6
        assert oracles.dense_span(report)

    def test_zero_part_fails_premise(self):
        report = range_kernel_premise_check(FiniteRankOperator.identity(), window=4, depth=3)
        assert report.span_dim == 0
        assert not oracles.dense_span(report)

    def test_single_jordan_block_depth_one(self):
        # S e_3 = e_2, S e_2 = e_1 on a 3-window: range(S) ∩ ker(S) = span(e_1)
        terms = ((CoordFunctional.delta(3), SparseVector.basis(2)),
                 (CoordFunctional.delta(2), SparseVector.basis(1)))
        s = FiniteRankOperator(BASE_ZERO, terms)
        report = range_kernel_premise_check(s, window=3, depth=1)
        assert report.rows[0].dim_intersection == 1

    def test_dimensions_follow_chain_structure(self):
        spec, _, _ = standard_shift(5)
        report = range_kernel_premise_check(spec.operator.plus_identity(), window=5, depth=5)
        for row in report.rows:
            assert row.dim_range == max(0, 5 - row.n)
            assert row.dim_kernel == min(5, row.n)
            assert row.dim_intersection == min(row.dim_range, row.dim_kernel)


class TestPremiseOracle:
    def random_operator(self, rng, top, k=None):
        def entries():
            return {i: frac(rng.randint(-3, 3), rng.choice([1, 2, 3]))
                    for i in rng.sample(range(1, top + 1), rng.randint(1, min(3, top)))}
        terms = tuple((CoordFunctional(entries()), SparseVector(entries()))
                      for _ in range(rng.randint(0, 4) if k is None else k))
        return FiniteRankOperator(rng.choice([BASE_ZERO, BASE_IDENTITY]), terms)

    def test_matches_dense_oracle_on_random_operators(self):
        rng = random.Random(301)
        nilpotent = above = 0
        for _ in range(120):
            top = rng.randint(3, 8)
            window = rng.randint(2, top)
            depth = rng.randint(1, 4)
            t = self.random_operator(rng, top)
            report = range_kernel_premise_check(t, window, depth)
            rows, span_dim, window_meet = oracles.dense_premise(t, window, depth)
            assert [(r.n, r.dim_range, r.dim_kernel, r.dim_intersection)
                    for r in report.rows] == rows
            assert report.span_dim == span_dim
            assert report.window_meet_dim == window_meet
            assert report.window_dim == window
            s = t.linear_part()
            nilpotent += oracles.dense_nilpotent(s, top)
            above += any(i > window for f, v in s.terms for i in f.support + v.support)
        # the sample covers nilpotent and non-nilpotent parts, and supports
        # reaching above the window
        assert 0 < nilpotent < 120
        assert above > 0

    def test_shift_with_headroom_matches_dense_oracle(self):
        spec, _, _ = standard_shift(9)
        t = spec.operator.plus_identity()
        report = range_kernel_premise_check(t, window=5, depth=4)
        rows, span_dim, window_meet = oracles.dense_premise(t, 5, 4)
        assert [(r.n, r.dim_range, r.dim_kernel, r.dim_intersection)
                for r in report.rows] == rows
        assert (report.span_dim, report.window_meet_dim) == (span_dim, window_meet)

    @staticmethod
    def spy_paths(monkeypatch):
        """Count the premise checks by the map they feed the one powers and
        nullspace loop: the k x k core G (shift 1) or the ambient S (shift 0)."""
        import orbitlab.hypercyclic as hypercyclic

        taken = {"core": 0, "ambient": 0}
        run = hypercyclic._meets

        def counted(advance, size, depth, shift):
            taken["core" if shift else "ambient"] += 1
            return run(advance, size, depth, shift)
        monkeypatch.setattr(hypercyclic, "_meets", counted)
        return taken

    def check(self, t, window, depth):
        report = range_kernel_premise_check(t, window, depth)
        rows, span_dim, window_meet = oracles.dense_premise(t, window, depth)
        assert [(r.n, r.dim_range, r.dim_kernel, r.dim_intersection)
                for r in report.rows] == rows
        assert (report.span_dim, report.window_meet_dim) == (span_dim, window_meet)

    @staticmethod
    def chain_shift(rng, window):
        """A build-shift chain shaped like the benchmark's: u_k = e_k plus
        earlier coordinates plus kernel junk above the active rows."""
        n_us = window - 2
        us = []
        for k in range(1, n_us + 1):
            entries = {k: frac(1), rng.randint(n_us + 1, window): frac(rng.randint(1, 3), 2)}
            for j in rng.sample(range(1, k), min(k - 1, 2)):
                entries[j] = frac(rng.randint(-2, 2), rng.choice([1, 2, 4]))
            us.append(SparseVector(entries))
        p = SeminormSpec.sup_on(range(1, n_us + 1))
        disk = DiskSpec(weights={i: frac(rng.randint(1, 3)) for i in range(1, window + 1)})
        return build_shift_operator(us, p, disk).operator

    def independent_operator(self, rng, top):
        """k terms with independent v's and independent f's."""
        k = rng.randint(1, top)
        while True:
            t = self.random_operator(rng, top, k)
            if (oracles.rank([[v.get(i) for i in range(1, top + 1)] for _, v in t.terms]) == k
                    and oracles.rank([[f.get(i) for i in range(1, top + 1)]
                                      for f, _ in t.terms]) == k):
                return t

    def dependent_operator(self, rng, top):
        """Random terms plus one whose v (or f) is a multiple of an earlier one's."""
        t = self.random_operator(rng, top, rng.randint(1, 3))
        f, v = rng.choice(t.terms)
        c = frac(rng.choice([-2, -1, 1, 3]), rng.choice([1, 2]))
        g, w = self.random_operator(rng, top, 1).terms[0]
        extra = (g, v.scale(c)) if rng.random() < 0.5 else (f.scale(c), w)
        return FiniteRankOperator(t.base, t.terms + (extra,))

    def test_the_weighted_ladder_takes_the_core_path(self, monkeypatch):
        """I + sum_k e_{k+1}* (.) e_k / 2 has independent f's and v's, so its
        premise runs on the k x k core, with the dense oracle's ranks."""
        taken = self.spy_paths(monkeypatch)
        terms = tuple((CoordFunctional({k + 1: frac(1)}), SparseVector({k: frac(1, 2)}))
                      for k in range(1, 6))
        t = FiniteRankOperator(BASE_IDENTITY, terms)
        report = range_kernel_premise_check(t, 6, 3)
        assert taken == {"core": 1, "ambient": 0}
        assert [r.dim_range for r in report.rows] == [5, 4, 3]
        self.check(t, 6, 3)

    def test_core_and_ambient_paths_match_dense_oracle(self, monkeypatch):
        rng = random.Random(307)
        taken = self.spy_paths(monkeypatch)
        for _ in range(25):
            window = rng.randint(4, 9)
            s = self.chain_shift(rng, window)
            self.check(rng.choice([s, s.plus_identity()]), window, rng.randint(1, 6))
        for i in range(90):
            top = rng.randint(2, 7)
            t = [self.independent_operator, self.random_operator,
                 self.dependent_operator][i % 3](rng, top)
            self.check(t, rng.randint(1, top), rng.randint(1, 4))
        assert taken["core"] >= 20 and taken["ambient"] >= 20

    def test_dependent_terms_and_trivial_operators_take_the_ambient_path(self, monkeypatch):
        taken = self.spy_paths(monkeypatch)
        e = SparseVector.basis
        d = CoordFunctional.delta
        operators = [
            FiniteRankOperator.identity(),
            FiniteRankOperator.zero(),
            # dependent v's: v_1 = v_2
            FiniteRankOperator(BASE_ZERO, ((d(2), e(1)), (d(3), e(1)))),
            # dependent f's: f_2 = 2 f_1
            FiniteRankOperator(BASE_ZERO, ((d(3), e(1)), (d(3).scale(frac(2)), e(2)))),
            # a zero v
            FiniteRankOperator(BASE_IDENTITY, ((d(2), SparseVector.zero()), (d(3), e(2)))),
        ]
        for t in operators:
            self.check(t, 3, 3)
        assert taken == {"core": 0, "ambient": len(operators)}


@pytest.mark.parametrize("seed", [1, 2])
def test_corpus_build_shift_premise_spans_match_the_dense_oracle(seed):
    """Each build-shift of the shiftgauge corpus reports the premise span the
    dense oracle gives for the S it reports: 3 at window 9 and 4 at window 11."""
    from orbitlab import serialize
    from orbitlab.scenarios import Scenario, run_scenario

    spans = {}
    for data in oracles.benchmark_workloads().generate("shiftgauge", seed):
        if data["payload"].get("mode") != "build-shift":
            continue
        report = run_scenario(Scenario.from_dict(data))
        s = serialize.decode_operator(report.data["operator"])
        depth = min(len(data["payload"]["basis"]), 6)
        _, _, window_meet = oracles.dense_premise(s, data["window"], depth)
        assert report.data["premise_span_dim"] == window_meet, data["name"]
        spans[data["name"]] = window_meet
    assert spans == {"sg-04-shift-w9": 3, "sg-05-shift-w9": 3, "sg-06-shift-w9": 3,
                     "sg-09-shift-w11": 4, "sg-10-shift-w11": 4, "sg-11-shift-w11": 4}


@pytest.mark.parametrize("seed", [1, 2])
def test_corpus_shift_lab_takes_the_fast_paths(monkeypatch, seed):
    """Every build-shift of the shiftgauge corpus reads its dual system off
    one inverse (no `Separator.of` under `biorthogonalize`) and its premise
    off the integer k x k core (no `FiniteRankOperator.apply` under
    `range_kernel_premise_check`, and every power `_meets` builds holds
    ints); every witness steps its orbit as integer columns, so no `apply`
    call runs under the search, and the report replays T^n z through one
    `operators.orbit` of n + 1 elements.  The premise and the witness each
    read one factor pair d·S = W·F (`_factors`) off the kept forms and
    scale no row afresh: under either, `scalars.integer_row` runs only
    where `integer_of` fills a vector's kept form."""
    import sys

    import orbitlab.density as density
    import orbitlab.hypercyclic as hypercyclic
    import orbitlab.scalars as scalars
    import orbitlab.scenarios as scenarios
    from orbitlab.scenarios import Scenario, run_scenario
    from orbitlab.seminorms import Separator

    def under(code):
        frame = sys._getframe(2)
        while frame is not None:
            if frame.f_code is code:
                return True
            frame = frame.f_back
        return False

    seen, witness, replays, kinds, cores, factors = [], [], [], set(), [], []
    of, apply, meets = Separator.of.__func__, FiniteRankOperator.apply, hypercyclic._meets
    replay, factor = scenarios.orbit, hypercyclic._factors
    shift_lab = (hypercyclic.range_kernel_premise_check.__code__,
                 hypercyclic.transitivity_witness.__code__)

    def spied_of(cls, *args, **kwargs):
        if under(density.biorthogonalize.__code__):
            seen.append("Separator.of")
        return of(cls, *args, **kwargs)

    def spied_apply(self, *args, **kwargs):
        if under(hypercyclic.range_kernel_premise_check.__code__):
            seen.append("apply")
        if under(hypercyclic.transitivity_witness.__code__):
            witness.append("apply")
        return apply(self, *args, **kwargs)

    def spied_orbit(t, x0, horizon):
        replays.append(horizon)
        return replay(t, x0, horizon)

    def spied_factors(t):
        factors.append(t)
        return factor(t)

    def spied_integer_row(entries):
        if (sys._getframe(1).f_code is not scalars.integer_of.__code__
                and any(map(under, shift_lab))):
            seen.append("integer_row")
        return integer_row(entries)

    def spied_meets(advance, size, depth, shift):
        def typed(col):
            out = advance(col)
            kinds.update(type(x) for x in out.values())
            return out
        cores.append(shift)
        return meets(typed if shift else advance, size, depth, shift)

    monkeypatch.setattr(Separator, "of", classmethod(spied_of))
    monkeypatch.setattr(FiniteRankOperator, "apply", spied_apply)
    monkeypatch.setattr(hypercyclic, "_meets", spied_meets)
    monkeypatch.setattr(scenarios, "orbit", spied_orbit)
    monkeypatch.setattr(hypercyclic, "_factors", spied_factors)
    integer_row = oracles.patch_scalars(monkeypatch, "integer_row", spied_integer_row)
    corpus = oracles.benchmark_workloads().generate("shiftgauge", seed)
    shifts = [data for data in corpus if data["payload"].get("mode") == "build-shift"]
    witnesses = [data for data in corpus if data["payload"].get("mode") == "witness"]
    assert (len(shifts), len(witnesses)) == (6, 2)
    for data in shifts + witnesses:
        factors.clear()
        replays.clear()
        report = run_scenario(Scenario.from_dict(data))
        assert report.passed
        assert seen == [] and len(factors) == 1, data["name"]
        if data in witnesses:
            n = int(next(t for t in report.tables if t.name == "witness").rows[0][0])
            assert n > 0 and replays == [n + 1], data["name"]
    assert cores == [1] * len(shifts) and kinds == {int}
    assert witness == []


class TestWitnessNilpotency:
    """The witness's nilpotency verdict, on the integer core F·P·V, equals
    that of the dense cut matrix P·S·P."""

    @staticmethod
    def verdict(t, window):
        """Whether the witness search accepts the chain part of t: with x = y
        it stops at n = 0 right after the test."""
        x = SparseVector.basis(1)
        try:
            transitivity_witness(t, x, x, Fraction(1), 0, SeminormSpec.sup_on([1]), window)
        except NotNilpotent:
            return False
        return True

    @staticmethod
    def entries(rng, coords):
        return {i: frac(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3, 4]))
                for i in rng.sample(coords, rng.randint(1, min(3, len(coords))))}

    def random_terms(self, rng, window, top):
        """Terms on 1..top; some v's are zero."""
        return [(CoordFunctional(self.entries(rng, range(1, top + 1))),
                 SparseVector(self.entries(rng, range(1, top + 1))
                              if rng.random() < 0.8 else {}))
                for _ in range(rng.randint(0, 4))]

    def cut_triangular_terms(self, rng, window, top):
        """Terms whose cut is strictly triangular, so P·S·P is nilpotent,
        plus parts above the window that may make S itself cycle there."""
        terms = []
        for _ in range(rng.randint(1, 5)):
            m = rng.randint(2, window)
            f = self.entries(rng, range(m, top + 1))
            v = self.entries(rng, range(1, m))
            if top > window and rng.random() < 0.6:
                v[rng.randint(window + 1, top)] = frac(rng.randint(1, 3))
                f[rng.randint(window + 1, top)] = frac(rng.randint(1, 3))
            terms.append((CoordFunctional(f), SparseVector(v)))
        return terms

    def chain_terms(self, rng, window, top):
        """`TestWitnessWindowCut.chain` on this window, its terms shuffled:
        a term leaves the window and one reads it back; half the time its
        last term also feeds the window's top, which breaks nilpotency."""
        cut = TestWitnessWindowCut()
        cut.window = window
        terms = cut.chain()
        if rng.random() < 0.5:
            terms.append((CoordFunctional.delta(1), SparseVector.basis(window)))
        rng.shuffle(terms)
        return terms

    def test_exact_verdicts_match_the_cut_dense_oracle(self):
        rng = random.Random(311)
        e, d = SparseVector.basis, CoordFunctional.delta
        fixed = [
            (FiniteRankOperator.identity(), 3),
            (FiniteRankOperator.zero(), 3),
            (FiniteRankOperator(BASE_IDENTITY, ((d(2), e(1)),)), 2),
            (FiniteRankOperator(BASE_ZERO, ((d(1), e(1)),)), 2),
            # zero v's, and a zero v next to a cycle
            (FiniteRankOperator(BASE_ZERO, ((d(1), SparseVector.zero()),
                                            (d(2), SparseVector.zero()))), 2),
            (FiniteRankOperator(BASE_IDENTITY, ((d(1), SparseVector.zero()), (d(2), e(1)),
                                           (d(1), e(2)))), 2),
            # a cycle through a coordinate above the window: nilpotent only after the cut
            (FiniteRankOperator(BASE_ZERO, ((d(1), e(4)), (d(4), e(1)))), 3),
        ]
        cases = list(fixed)
        families = [self.random_terms, self.cut_triangular_terms, self.chain_terms]
        for i in range(150):
            window = rng.randint(2, 6)
            top = window + rng.randint(0, 3)
            terms = families[i % 3](rng, window, top)
            base = rng.choice([BASE_ZERO, BASE_IDENTITY])
            cases.append((FiniteRankOperator(base, tuple(terms)), window))
        tally = {"yes": 0, "no": 0, "only cut": 0}
        for t, window in cases:
            s = t.linear_part()
            expected = oracles.dense_nilpotent(s, window)
            assert self.verdict(t, window) == expected, t
            top = max([window] + [i for f, v in s.terms for i in f.support + v.support])
            tally["yes" if expected else "no"] += 1
            tally["only cut"] += expected and not oracles.dense_nilpotent(s, top)
        assert min(tally.values()) >= 15, tally


class TestFactors:
    """The one integer factor pair d·S = W·F that the shift lab powers,
    against dense Fraction oracles: W·F·X is the integer form of d·xd·S x,
    (F·W)^m has the rank of the dense core G^m, and the witness's gate on
    the window cut F·P·W gives the dense verdict on P·S·P."""

    @staticmethod
    def operator(rng, window, top):
        """Up to 4 terms on 1..top, each f over its own denominator, so that
        A = diag(a_j) is seldom scalar; about one v in six is zero.  Half the
        operators are strictly triangular on the window, their f's and some
        of their v's also reaching above it."""
        triangular = rng.random() < 0.5
        terms = []
        for _ in range(rng.randint(1, 4)):
            den, m = rng.choice([1, 2, 3, 4, 6]), rng.randint(2, window)
            fco = range(m if triangular else 1, top + 1)
            vco = range(1, (m if triangular else top + 1))
            f = {i: frac(rng.choice([-3, -2, -1, 1, 2, 3]), den)
                 for i in rng.sample(fco, rng.randint(1, min(3, len(fco))))}
            v = {i: frac(rng.choice([-2, -1, 1, 3]), rng.choice([1, 2, 5]))
                 for i in rng.sample(vco, rng.randint(1, min(3, len(vco))))}
            if triangular and top > window and rng.random() < 0.4:
                v[rng.randint(window + 1, top)] = frac(rng.randint(1, 3))
            terms.append((CoordFunctional(f), SparseVector({} if rng.random() < 1 / 6 else v)))
        return FiniteRankOperator(rng.choice([BASE_ZERO, BASE_IDENTITY]), tuple(terms))

    def test_factor_identity_core_ranks_and_gate_match_dense_oracles(self):
        from orbitlab.hypercyclic import _factors, _mul
        from orbitlab.scalars import integer_of

        rng = random.Random(313)
        e, d = SparseVector.basis, CoordFunctional.delta
        cases = [(FiniteRankOperator.identity(), 3), (FiniteRankOperator.zero(), 3),
                 (FiniteRankOperator(BASE_IDENTITY, ((d(2).scale(frac(1, 3)), SparseVector.zero()),
                                                     (d(3).scale(frac(1, 2)), e(2)))), 3)]
        for _ in range(150):
            window = rng.randint(2, 5)
            cases.append((self.operator(rng, window, window + rng.randint(0, 3)), window))
        tally = dict.fromkeys(["identity", "zero", "A not scalar", "zero v", "above",
                               "nilpotent", "not nilpotent"], 0)
        for t, window in cases:
            s, k = t.linear_part(), len(t.terms)
            top = max([window] + [i for f, v in s.terms for i in f.support + v.support])
            dd, fcols, wcols = _factors(t)
            for _ in range(3):
                x = oracles.random_window_vector(rng, top)
                xrow, xd = integer_of(x)
                image = {i: c * dd * xd for i, c in oracles.apply_terms(s, x).entries.items()}
                assert all(Fraction(c).denominator == 1 for c in image.values())
                assert _mul(wcols, _mul(fcols, xrow)) == image, t
            core = {l: _mul(fcols, col) for l, col in wcols.items()}
            cols = [{l: 1} for l in range(1, k + 1)]
            g, g_power = oracles.dense_gram(t.terms), oracles.identity_matrix(k)
            for _ in range(k + 1 if k else 0):
                cols = [_mul(core, c) for c in cols]
                g_power = oracles.mat_mul(g_power, g)
                dense = [[Fraction(c.get(i, 0)) for c in cols] for i in range(1, k + 1)]
                assert oracles.rank(dense) == oracles.rank(g_power), t
            nilpotent = oracles.dense_nilpotent(s, window)
            assert TestWitnessNilpotency.verdict(t, window) == nilpotent, t
            tally["identity" if t.base == BASE_IDENTITY else "zero"] += 1
            tally["A not scalar"] += len({integer_of(f)[1] for f, _ in t.terms}) > 1
            tally["zero v"] += any(not v.entries for _, v in t.terms)
            tally["above"] += top > window
            tally["nilpotent" if nilpotent else "not nilpotent"] += 1
        assert min(tally.values()) >= 20, tally


class TestWitnessWindowCut:
    window = 6

    def chain(self):
        """Weighted shift on 1..window plus a term that leaves the window
        (e_2 also feeds e_7) and one that reads it back (e_7 feeds e_1)."""
        w = self.window
        terms = [(CoordFunctional.delta(k + 1), SparseVector.basis(k).scale(frac(1, 2 ** k)))
                 for k in range(1, w)]
        terms.append((CoordFunctional.delta(2), SparseVector.basis(w + 1)))
        terms.append((CoordFunctional.delta(w + 1), SparseVector.basis(1).scale(frac(3))))
        return terms

    def test_term_beyond_window_matches_dense_oracle(self):
        """The search follows T's own orbit through e_7 and back, so its
        answer is the dense oracle's over every coordinate the orbit reaches,
        and T^n z meets y; the window-cut operator's answer differs."""
        w = self.window
        t = FiniteRankOperator(BASE_IDENTITY, tuple(self.chain()))
        p = SeminormSpec.sup_on([1, 2, 3])
        x = SparseVector({1: frac(1), 2: frac(-1, 2), w + 1: frac(5)})
        y = sv(2, 1, -1)
        n, z = transitivity_witness(t, x, y, frac(1, 1000), 32, p, window=w)
        assert (n, z) == oracles.dense_witness(t, x, y, frac(1, 1000), 32, p, w)
        assert eval_seminorm(p, orbit(t, z, n + 1)[n] - y) == 0
        cut = FiniteRankOperator(BASE_IDENTITY, tuple((f, v.restrict(range(1, w + 1)))
                                                      for f, v in self.chain()))
        assert oracles.dense_witness(cut, x, y, frac(1, 1000), 32, p, w) != (n, z)

    def test_found_witnesses_pass_their_replay(self):
        """On seeded chains whose terms leave the window and read it back,
        every report that passes `witness-found` passes
        `residuals-below-eps`: the search decides on the orbit the report
        replays."""
        from orbitlab.scenarios import Scenario, run_scenario
        from orbitlab.serialize import encode_operator, encode_pairs

        rng = random.Random(4623)

        def point(coords):
            return SparseVector({i: frac(rng.randint(-6, 6), rng.choice([1, 2, 3]))
                                 for i in rng.sample(coords, rng.randint(1, len(coords)))})

        tally = {"found": 0, "not found": 0}
        for case in range(60):
            self.window = w = rng.randint(3, 6)
            top = w + rng.randint(1, 3)
            terms = self.chain()
            for _ in range(rng.randint(0, 3)):
                a, b = rng.randint(1, w), rng.randint(w + 1, top)
                c = frac(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2]))
                leave = (CoordFunctional.delta(a), SparseVector.basis(b).scale(c))
                back = (CoordFunctional.delta(b), SparseVector.basis(a).scale(c))
                terms.append(rng.choice([leave, back]))
            active = sorted(rng.sample(range(1, w + 1), rng.randint(1, w - 1)))
            p = SeminormSpec(rng.choice(["sup", "l1"]), {i: frac(1) for i in active})
            report = run_scenario(Scenario.from_dict({
                "name": f"wit-cut-{case}", "scalar_mode": "exact", "window": w, "seed": case,
                "task": "hypercyclic", "payload": {
                    "mode": "witness",
                    "operator": encode_operator(FiniteRankOperator(BASE_IDENTITY, tuple(terms))),
                    "x": encode_pairs(point(range(1, top + 1))),
                    "y": encode_pairs(point(range(1, w + 1))),
                    "p": oracles.encode_seminorm(p), "eps": "1/1000", "max_n": 12}}))
            checks = {c.name: c for c in report.checks}
            if checks["witness-found"].passed:
                assert checks["residuals-below-eps"].passed, (case, checks["residuals-below-eps"])
                tally["found"] += 1
            else:
                tally["not found"] += 1
        assert min(tally.values()) >= 10, tally

    def test_fixed_direction_beyond_window_is_cut_away(self):
        """S e_7 = e_7, so S is not nilpotent, but the gate reads only the
        chain on the window; x = e_1 never reaches e_7, and the search
        returns the dense oracle's answer."""
        w = self.window
        fixed = (CoordFunctional.delta(w + 1), SparseVector.basis(w + 1))
        t = FiniteRankOperator(BASE_IDENTITY, tuple(self.chain()[:w - 1]) + (fixed,))
        assert not oracles.dense_nilpotent(t.linear_part(), w + 1)
        p = SeminormSpec.sup_on([1, 2, 3])
        n, z = transitivity_witness(t, sv(1), sv(-1, 2), frac(1, 1000), 32, p, window=w)
        assert (n, z) == oracles.dense_witness(t, sv(1), sv(-1, 2), frac(1, 1000), 32, p, w)


class TestTransitivityWitness:
    def build(self, window, active):
        us = [SparseVector.basis(i) for i in range(1, window + 1)]
        p_build = SeminormSpec.sup_on(range(1, window + 1))
        disk = oracles.l1_disk(range(1, window + 1))
        spec = build_shift_operator(us, p_build, disk)
        t = spec.operator.plus_identity()
        p_wit = SeminormSpec.sup_on(range(1, active + 1))
        return t, p_wit

    def test_equal_points_need_zero_steps(self):
        t, p = self.build(8, 4)
        x = sv(1, 2)
        n, z = transitivity_witness(t, x, x, frac(1, 1000), 16, p, window=8)
        assert n == 0
        assert z == x

    def test_scaling_example_on_eight_window(self):
        t, p = self.build(8, 4)
        n, z = transitivity_witness(t, sv(1), sv(2), frac(1, 1000), 64, p, window=8)
        assert n > 0
        assert eval_seminorm(p, z - sv(1)) < frac(1, 1000)
        image = z
        for _ in range(n):
            image = t.apply(image)
        assert eval_seminorm(p, image - sv(2)) < frac(1, 1000)

    def test_not_found_with_zero_budget(self):
        t, p = self.build(8, 4)
        with pytest.raises(WitnessNotFound) as err:
            transitivity_witness(t, sv(1), sv(2), frac(1, 1000), 0, p, window=8)
        assert err.value.best_n == 0
        assert err.value.best_residual == 1

    def test_witness_found_for_random_pairs(self):
        t, p = self.build(10, 5)
        rng = random.Random(11)
        for _ in range(10):
            x = SparseVector({i: frac(rng.randint(-8, 8), rng.choice([1, 2, 4]))
                              for i in range(1, 6)})
            y = SparseVector({i: frac(rng.randint(-8, 8), rng.choice([1, 2, 4]))
                              for i in range(1, 6)})
            n, z = transitivity_witness(t, x, y, frac(1, 1000), 64, p, window=10)
            assert eval_seminorm(p, z - x) < frac(1, 1000)
            image = z
            for _ in range(n):
                image = t.apply(image)
            assert eval_seminorm(p, image - y) < frac(1, 1000)

    def test_rejects_non_nilpotent_part(self):
        t = FiniteRankOperator(
            BASE_IDENTITY, ((CoordFunctional.delta(1), SparseVector.basis(1)),)
        )
        with pytest.raises(NotNilpotent):
            transitivity_witness(t, sv(1), sv(2), frac(1, 10), 4,
                                 SeminormSpec.sup_on([1]), window=2)


class TestWitnessResidual:
    """One residual, p(T^n z - y), decides each n, whether or not the active
    rows can be met, so no search reports WitnessNotFound with a residual
    below eps."""

    window = 3
    # T = I + δ_2 ⊗ e_1: T e_2 = e_1 + e_2, and e_1 and e_3 stay fixed
    t = FiniteRankOperator(BASE_IDENTITY, ((CoordFunctional.delta(2), SparseVector.basis(1)),))

    def test_no_free_column_and_an_exact_image(self):
        """Every window coordinate is active, so no column is free; T x = y,
        so n = 1 with z = x."""
        x = SparseVector.basis(2)
        assert transitivity_witness(self.t, x, sv(1, 1), frac(1, 1000), 8,
                                    SeminormSpec.sup_on([1, 2, 3]), self.window) == (1, x)

    def test_unmet_rows_within_eps(self):
        """The free coordinate 3 never reaches the active rows, so they
        cannot be met, yet z = x leaves p(T x - y) = 1/10000 < eps."""
        x, y = SparseVector.basis(2), sv(frac(10001, 10000), 1)
        assert transitivity_witness(self.t, x, y, frac(1, 1000), 8,
                                    SeminormSpec.sup_on([1, 2]), self.window) == (1, x)

    def test_random_nilpotent_chains_match_the_dense_oracle(self):
        """On seeded chains whose cut is nilpotent, many with terms above
        the window, the search returns the (n, z) of the dense oracle over
        every coordinate T's orbit reaches, and WitnessNotFound, raised only
        where the oracle finds nothing, carries a best residual of at least
        eps.  Half the targets are a cut image of x moved by less than eps
        on an active row, which the free columns often cannot absorb."""
        rng = random.Random(4519)
        chains = TestWitnessNilpotency()

        def entries(coords):
            return {i: frac(rng.randint(-4, 4), rng.choice([1, 2, 3])) for i in coords}

        tally = {"n = 0": 0, "n > 0": 0, "z = x, n > 0": 0, "not found": 0}
        for _ in range(160):
            window = rng.randint(2, 5)
            top = window + rng.randint(0, 2)
            indices = range(1, window + 1)
            t = FiniteRankOperator(rng.choice([BASE_IDENTITY, BASE_ZERO]),
                                   tuple(chains.cut_triangular_terms(rng, window, top)))
            active = rng.sample(indices, rng.randint(1, window))
            p = SeminormSpec(rng.choice(["sup", "l1"]),
                             {i: frac(rng.randint(1, 3), rng.choice([1, 2])) for i in active})
            x = SparseVector(entries(rng.sample(range(1, top + 1), rng.randint(1, top))))
            eps = frac(1, rng.choice([10, 100, 1000]))
            if rng.random() < 0.5:
                y = x.restrict(indices)
                for _ in range(rng.randint(0, 3)):
                    y = t.apply(y).restrict(indices)
                y = y + SparseVector({rng.choice(active): eps / rng.choice([-3, 2, 5])})
            else:
                y = SparseVector(entries(rng.sample(indices, rng.randint(0, window))))
            max_n = rng.randint(0, 5)
            expected = oracles.dense_witness(t, x, y, eps, max_n, p, window)
            try:
                n, z = transitivity_witness(t, x, y, eps, max_n, p, window)
            except WitnessNotFound as err:
                assert expected is None and err.best_residual >= eps
                tally["not found"] += 1
                continue
            assert (n, z) == expected
            tally["n = 0" if n == 0 else "z = x, n > 0" if z == x else "n > 0"] += 1
        assert min(tally.values()) >= 15, tally


class TestOmegaShiftDemo:
    def test_basis_vector_walks_down(self):
        steps = omega_shift_demo(4, SparseVector.basis(2), 4)
        assert steps == [SparseVector.basis(2), SparseVector.basis(1),
                         SparseVector.zero(), SparseVector.zero()]

    def test_triple(self):
        steps = omega_shift_demo(4, sv(1, 2, 3), 3)
        assert steps == [sv(1, 2, 3), sv(2, 3), sv(3)]

    def test_horizon_one(self):
        x = sv(5, 5)
        assert omega_shift_demo(4, x, 1) == [x]

    def test_window_truncates(self):
        x = SparseVector({1: frac(1), 9: frac(2)})
        steps = omega_shift_demo(4, x, 1)
        assert steps == [sv(1)]

    def test_matches_the_dict_shift(self):
        """The orbit of the shift operator is the reference's entry moves, with
        the same scalar types: entries beyond the window cut, zeros absent, and
        horizons past the window down to the zero vector."""
        rng = random.Random(23)
        for _ in range(30):
            window = rng.randint(2, 8)
            coords = rng.sample(range(1, window + 4), rng.randint(0, window + 3))
            x0 = SparseVector({i: Fraction(rng.randint(-4, 4), rng.choice([1, 3, 8]))
                               for i in coords})
            for horizon in range(1, window + 3):
                got = omega_shift_demo(window, x0, horizon)
                want = oracles.shift_demo(window, x0, horizon)
                assert [[(i, type(c), c) for i, c in v.pairs()] for v in got] == \
                    [[(i, type(c), c) for i, c in v.pairs()] for v in want]


def nested_family(levels, first=1):
    """Strictly nested sup seminorms; the first active set has `first` indices."""
    return [SeminormSpec.sup_on(range(1, first + n)) for n in range(1, levels + 1)]


class TestBuildNonOrbitSet:
    def test_ladder_is_successive_basis_vectors(self):
        family = nested_family(5)
        b = Enumeration((sv(1),))
        ns = build_nonorbit_set(family, b)
        assert ns.c == tuple(SparseVector.basis(i) for i in range(2, 6))

    def test_empty_net_part(self):
        family = nested_family(4)
        ns = build_nonorbit_set(family, Enumeration(()))
        assert len(ns.items) == 3

    def test_constant_family_rejected(self):
        p = SeminormSpec.sup_on([1, 2])
        with pytest.raises(NotNested):
            build_nonorbit_set([p, p], Enumeration((sv(1),)))

    def test_combined_independence_verified(self):
        family = nested_family(5, first=2)
        b = Enumeration((sv(1), sv(1, 1)))
        ns = build_nonorbit_set(family, b)
        matrix = [
            [x.get(i) for i in range(1, 8)] for x in ns.items
        ]
        assert oracles.rank(matrix) == len(ns.items)

    def test_net_part_must_be_p1_independent(self):
        family = nested_family(4)
        with pytest.raises(NotPIndependent):
            build_nonorbit_set(family, Enumeration((sv(1), sv(2))))


def operator_mapping(pairs, window):
    """Finite-rank operator sending given independent vectors to given images
    and the complement of their span to zero."""
    rows = [[s.get(i) for i in range(1, window + 1)] for s, _ in pairs]
    terms = []
    for col, (_, image) in enumerate(pairs):
        rhs = [Fraction(int(c == col)) for c in range(len(pairs))]
        dual = oracles.solve_any(rows, rhs)
        assert dual is not None
        f = CoordFunctional({i + 1: v for i, v in enumerate(dual) if v != 0})
        terms.append((f, image))
    return FiniteRankOperator(BASE_ZERO, tuple(terms))


class TestRefuteOrbit:
    def test_identity_orbit_cannot_cover(self):
        family = nested_family(4)
        b = Enumeration((sv(1),))
        ns = build_nonorbit_set(family, b)
        report = refute_orbit(FiniteRankOperator.identity(), sv(1), ns, horizon=6)
        assert report.first_exit is None
        assert not report.covers_a
        assert report.distinct_orbit == 1
        assert report.m_set == []

    def test_omega_shift_exits_the_set(self):
        family = nested_family(6)
        ns = build_nonorbit_set(family, Enumeration(()))
        # shift orbit from e_5 walks down the ladder and then hits zero
        shift_terms = tuple(
            (CoordFunctional.delta(k + 1), SparseVector.basis(k)) for k in range(1, 6)
        )
        shift = FiniteRankOperator(BASE_ZERO, shift_terms)
        report = refute_orbit(shift, SparseVector.basis(5), ns, horizon=6)
        assert report.first_exit is not None

    def test_toy_operator_m_set_matches_hand_computation(self):
        # orbit by hand: b1 -> x1 -> b2 -> x2 -> escape, so M = {1} and the
        # exit happens at step 4
        family = nested_family(4, first=2)
        b1, b2 = sv(1), sv(1, 1)
        ns = build_nonorbit_set(family, Enumeration((b1, b2)))
        x1, x2 = ns.c[0], ns.c[1]  # e_3, e_4
        escape = sv(7)
        toy = operator_mapping(
            [(b1, x1), (x1, b2), (b2, x2), (x2, escape)], window=5
        )
        report = refute_orbit(toy, b1, ns, horizon=5)
        assert report.in_a == [True, True, True, True, False]
        assert report.first_exit == 4
        assert report.m_set == [1]
        assert report.p1_partial_sum == 1

    def test_ladder_spacing_series_counts(self):
        family = nested_family(4, first=2)
        b_items = (sv(1), sv(1, 1))
        ns = build_nonorbit_set(family, Enumeration(b_items))
        cycle = operator_mapping(
            [(ns.c[0], b_items[0]), (b_items[0], ns.c[1]), (ns.c[1], b_items[1])],
            window=5,
        )
        report = refute_orbit(cycle, ns.c[0], ns, horizon=4)
        # orbit: x1, b1, x2, b2 : M = {0, 2}
        assert report.m_set == [0, 2]
        assert report.p1_partial_sum == 2
        assert report.orbit_p1_rank >= 2


class TestCaseOneAssembly:
    """Transporting an orbit prefix and conjugating keeps the tracked span
    plus kernel decomposition, exactly."""

    def test_conjugate_maps_span_plus_kernel(self):
        from orbitlab.density import Enumeration
        from orbitlab.transport import run_transport

        window, active, stages = 16, 8, 2
        built = 2 * stages
        p = SeminormSpec.sup_on(range(1, active + 1))
        disk = oracles.l1_disk(range(1, window + 1))
        us = [SparseVector.basis(i) for i in range(1, 7)]
        t = build_shift_operator(us, p, disk).operator.plus_identity()

        # orbit prefix of length 2k + 1 so every matched element has a
        # tracked successor
        x0 = SparseVector.basis(6)
        prefix = orbit(t, x0, built + 1)
        from orbitlab import p_independent
        assert p_independent(p, prefix)

        rng = random.Random(211)
        noise = frac(1, 2 ** 40)
        pi = list(range(built))
        for i in range(0, built - 1, 2):
            pi[i], pi[i + 1] = pi[i + 1], pi[i]
        a_items = tuple(prefix[:built])
        # perturbations live outside the active set so the separating data
        # stays well conditioned
        b_items = tuple(
            a_items[pi[i]] + SparseVector({rng.randint(active + 1, window): noise})
            for i in range(built)
        )
        a_enum, b_enum = Enumeration(a_items), Enumeration(b_items)
        schedule = [frac(1, 2 ** (j + 2)) for j in range(built)]
        j_op = run_transport(a_enum, b_enum, p, disk, schedule, stages).operator

        j_inv = invert(j_op)
        conj = j_op.compose(t).compose(j_inv)

        # matched orbit elements land back inside the image set under one step
        images = [j_op.apply(x) for x in prefix]
        for pos in range(built - 1):
            assert conj.apply(images[pos]) == images[pos + 1]

        # kernel part is fixed and the decomposition is preserved exactly
        z = SparseVector({active + 3: frac(7), window: frac(-2, 3)})
        assert conj.apply(z) == z
        y = images[0].scale(frac(2)) + images[1].scale(frac(-1, 2))
        combined = y + z
        expected = (
            conj.apply(images[0]).scale(frac(2))
            + conj.apply(images[1]).scale(frac(-1, 2))
            + z
        )
        assert conj.apply(combined) == expected
