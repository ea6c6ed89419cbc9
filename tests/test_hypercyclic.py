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
    NonOrbitSet,
    build_nonorbit_set,
    build_shift_operator,
    range_kernel_premise_check,
    omega_shift_demo,
    refute_orbit,
    transitivity_witness,
)
from orbitlab.operators import IDENTITY, ZERO
from orbitlab.scalars import EXACT, FLOAT

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
        """The build-shift continuity check, p_D(S x) <= p(x) on 100 seeded
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
        mat = spec.operator.matrix_on(indices)
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
        s = FiniteRankOperator(ZERO, terms)
        report = range_kernel_premise_check(s, window=3, depth=1)
        assert report.rows[0].dim_intersection == 1

    def test_dimensions_follow_chain_structure(self):
        spec, _, _ = standard_shift(5)
        report = range_kernel_premise_check(spec.operator.plus_identity(), window=5, depth=5)
        for row in report.rows:
            assert row.dim_range == max(0, 5 - row.n)
            assert row.dim_kernel == min(5, row.n)
            assert row.dim_intersection == min(row.dim_range, row.dim_kernel)


def dense_premise(t, window, depth):
    """Premise check on dense window matrices: powers by mat_mul, ranks and
    nullspaces by rref, window meet by a joint rank with the window basis."""
    s = t.linear_part() if t.base == IDENTITY else t
    top = max([window] + [i for f, v in s.terms for i in f.support + v.support])
    s_mat = s.matrix_on(range(1, top + 1))
    power = oracles.identity_matrix(top)
    rows, union = [], []
    for n in range(1, depth + 1):
        power = oracles.mat_mul(power, s_mat)
        double = oracles.mat_mul(power, power)
        meet = [oracles.mat_vec(power, y) for y in oracles.nullspace(double, cols=top)]
        rows.append((n, oracles.rank(power), len(oracles.nullspace(power, cols=top)),
                     oracles.rank(meet)))
        union += meet
    span_dim = oracles.rank(union)
    window_rows = [[frac(int(j == i)) for j in range(top)] for i in range(window)]
    return rows, span_dim, span_dim + window - oracles.rank(union + window_rows)


def dense_nilpotent(s, top):
    power = s.matrix_on(range(1, top + 1))
    for _ in range(top):
        power = oracles.mat_mul(power, s.matrix_on(range(1, top + 1)))
    return all(v == 0 for row in power for v in row)


class TestPremiseOracle:
    def random_operator(self, rng, top, k=None):
        def entries():
            return {i: frac(rng.randint(-3, 3), rng.choice([1, 2, 3]))
                    for i in rng.sample(range(1, top + 1), rng.randint(1, min(3, top)))}
        terms = tuple((CoordFunctional(entries()), SparseVector(entries()))
                      for _ in range(rng.randint(0, 4) if k is None else k))
        return FiniteRankOperator(rng.choice([ZERO, IDENTITY]), terms)

    def test_matches_dense_oracle_on_random_operators(self):
        rng = random.Random(301)
        nilpotent = above = 0
        for _ in range(120):
            top = rng.randint(3, 8)
            window = rng.randint(2, top)
            depth = rng.randint(1, 4)
            t = self.random_operator(rng, top)
            report = range_kernel_premise_check(t, window, depth)
            rows, span_dim, window_meet = dense_premise(t, window, depth)
            assert [(r.n, r.dim_range, r.dim_kernel, r.dim_intersection)
                    for r in report.rows] == rows
            assert report.span_dim == span_dim
            assert report.window_meet_dim == window_meet
            assert report.window_dim == window
            s = t.linear_part()
            nilpotent += dense_nilpotent(s, top)
            above += any(i > window for f, v in s.terms for i in f.support + v.support)
        # the sample covers nilpotent and non-nilpotent parts, and supports
        # reaching above the window
        assert 0 < nilpotent < 120
        assert above > 0

    def test_shift_with_headroom_matches_dense_oracle(self):
        spec, _, _ = standard_shift(9)
        t = spec.operator.plus_identity()
        report = range_kernel_premise_check(t, window=5, depth=4)
        rows, span_dim, window_meet = dense_premise(t, 5, 4)
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

        def counted(advance, identity, depth, shift, ctx):
            taken["core" if shift else "ambient"] += 1
            return run(advance, identity, depth, shift, ctx)
        monkeypatch.setattr(hypercyclic, "_meets", counted)
        return taken

    def check(self, t, window, depth):
        report = range_kernel_premise_check(t, window, depth)
        rows, span_dim, window_meet = dense_premise(t, window, depth)
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
            FiniteRankOperator(ZERO, ((d(2), e(1)), (d(3), e(1)))),
            # dependent f's: f_2 = 2 f_1
            FiniteRankOperator(ZERO, ((d(3), e(1)), (d(3).scale(frac(2)), e(2)))),
            # a zero v
            FiniteRankOperator(IDENTITY, ((d(2), SparseVector.zero()), (d(3), e(2)))),
        ]
        for t in operators:
            self.check(t, 3, 3)
        assert taken == {"core": 0, "ambient": len(operators)}

    def test_float_mode_keeps_the_ambient_path(self, monkeypatch):
        taken = self.spy_paths(monkeypatch)
        terms = tuple((CoordFunctional({k + 1: 1.0}), SparseVector({k: 0.5}))
                      for k in range(1, 6))
        report = range_kernel_premise_check(FiniteRankOperator(IDENTITY, terms), 6, 3, FLOAT)
        assert taken == {"core": 0, "ambient": 1}
        assert [r.dim_range for r in report.rows] == [5, 4, 3]


@pytest.mark.parametrize("seed", [1, 2])
def test_corpus_shift_lab_takes_the_fast_paths(monkeypatch, seed):
    """Every exact build-shift of the shiftgauge corpus reads its dual system
    off one inverse (no `Separator.of` under `biorthogonalize`) and its
    premise off the integer k x k core (no `FiniteRankOperator.apply` under
    `range_kernel_premise_check`, and every power `_meets` builds holds
    ints); every exact witness decides nilpotency on its core, so it makes no
    `apply` call before its search loop's first seminorm.  The same spies see
    the slow paths in float mode: the dual system by separation, the premise
    and the witness's column loop through `apply`."""
    import sys

    import orbitlab.density as density
    import orbitlab.hypercyclic as hypercyclic
    from orbitlab.scenarios import Scenario, run_scenario
    from orbitlab.seminorms import Separator

    def under(code):
        frame = sys._getframe(2)
        while frame is not None:
            if frame.f_code is code:
                return True
            frame = frame.f_back
        return False

    seen, witness, kinds, cores = [], [], set(), []
    of, apply, meets = Separator.of.__func__, FiniteRankOperator.apply, hypercyclic._meets
    seminorm = hypercyclic.eval_seminorm

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

    def spied_seminorm(*args):
        witness.append("seminorm")
        return seminorm(*args)

    def spied_meets(advance, identity, depth, shift, ctx):
        def typed(col):
            out = advance(col)
            kinds.update(type(x) for x in out.values())
            return out
        cores.append(shift)
        if shift:
            kinds.update(type(x) for col in identity for x in col.values())
            return meets(typed, identity, depth, shift, ctx)
        return meets(advance, identity, depth, shift, ctx)

    monkeypatch.setattr(Separator, "of", classmethod(spied_of))
    monkeypatch.setattr(FiniteRankOperator, "apply", spied_apply)
    monkeypatch.setattr(hypercyclic, "_meets", spied_meets)
    monkeypatch.setattr(hypercyclic, "eval_seminorm", spied_seminorm)
    corpus = oracles.benchmark_workloads().generate("shiftgauge", seed)
    shifts = [data for data in corpus if data["payload"].get("mode") == "build-shift"]
    witnesses = [data for data in corpus if data["payload"].get("mode") == "witness"]
    assert (len(shifts), len(witnesses)) == (6, 2)
    for data in shifts:
        report = run_scenario(Scenario.from_dict(dict(data, scalar_mode="exact")))
        assert report.passed
        assert seen == [], data["name"]
    assert cores == [1] * len(shifts) and kinds == {int}
    for data in witnesses:
        witness.clear()
        report = run_scenario(Scenario.from_dict(dict(data, scalar_mode="exact")))
        assert report.passed
        assert witness[0] == "seminorm" and "apply" in witness, data["name"]
    run_scenario(Scenario.from_dict(dict(shifts[0], scalar_mode="float")))
    assert {"Separator.of", "apply"} <= set(seen)
    witness.clear()
    run_scenario(Scenario.from_dict(dict(witnesses[0], scalar_mode="float")))
    loop = witness.index("seminorm")
    assert loop >= witnesses[0]["window"] and set(witness[:loop]) == {"apply"}


class TestWitnessNilpotency:
    """The witness's nilpotency verdict, on the integer core F·P·V in exact
    mode and on the window columns in float mode, equals that of the dense
    cut matrix P·S·P."""

    @staticmethod
    def verdict(t, window, ctx):
        """Whether the witness search accepts the chain part of t: with x = y
        it stops at n = 0 right after the test."""
        x = SparseVector.basis(1, ctx)
        try:
            transitivity_witness(t, x, x, ctx.one, 0, SeminormSpec.sup_on([1], ctx.one),
                                 window, ctx)
        except NotNilpotent:
            return False
        return True

    @staticmethod
    def floated(t):
        return FiniteRankOperator(t.base, tuple(
            (CoordFunctional({i: float(c) for i, c in f.entries.items()}),
             SparseVector({i: float(c) for i, c in v.entries.items()})) for f, v in t.terms))

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

    def test_exact_and_float_verdicts_match_the_cut_dense_oracle(self):
        rng = random.Random(311)
        e, d = SparseVector.basis, CoordFunctional.delta
        fixed = [
            (FiniteRankOperator.identity(), 3),
            (FiniteRankOperator.zero(), 3),
            (FiniteRankOperator(IDENTITY, ((d(2), e(1)),)), 2),
            (FiniteRankOperator(ZERO, ((d(1), e(1)),)), 2),
            # zero v's, and a zero v next to a cycle
            (FiniteRankOperator(ZERO, ((d(1), SparseVector.zero()), (d(2), SparseVector.zero()))), 2),
            (FiniteRankOperator(IDENTITY, ((d(1), SparseVector.zero()), (d(2), e(1)),
                                           (d(1), e(2)))), 2),
            # a cycle through a coordinate above the window: nilpotent only after the cut
            (FiniteRankOperator(ZERO, ((d(1), e(4)), (d(4), e(1)))), 3),
        ]
        cases = list(fixed)
        families = [self.random_terms, self.cut_triangular_terms, self.chain_terms]
        for i in range(150):
            window = rng.randint(2, 6)
            top = window + rng.randint(0, 3)
            terms = families[i % 3](rng, window, top)
            cases.append((FiniteRankOperator(rng.choice([ZERO, IDENTITY]), tuple(terms)), window))
        tally = {"yes": 0, "no": 0, "only cut": 0}
        for t, window in cases:
            s = t.linear_part()
            expected = dense_nilpotent(s, window)
            assert self.verdict(t, window, EXACT) == expected, t
            assert self.verdict(self.floated(t), window, FLOAT) == expected, t
            top = max([window] + [i for f, v in s.terms for i in f.support + v.support])
            tally["yes" if expected else "no"] += 1
            tally["only cut"] += expected and not dense_nilpotent(s, top)
        assert min(tally.values()) >= 15, tally


def dense_witness(t, x, y, eps, max_n, p, window):
    """Witness search on powers of the dense window matrix of T."""
    indices = list(range(1, window + 1))
    active = [i for i in indices if i in p.weights]
    free = [i for i in indices if i not in p.weights]
    t_mat = t.matrix_on(indices)
    power = oracles.identity_matrix(window)
    x_col = [x.get(i) for i in indices]
    for n in range(1, max_n + 1):
        power = oracles.mat_mul(power, t_mat)
        tnx = oracles.mat_vec(power, x_col)
        sol = oracles.solve_any([[power[i - 1][j - 1] for j in free] for i in active],
                                [y.get(i) - tnx[i - 1] for i in active])
        if sol is None:
            continue
        z = x + SparseVector(dict(zip(free, sol)))
        image = SparseVector(dict(zip(indices, oracles.mat_vec(power, [z.get(i) for i in indices]))))
        if eval_seminorm(p, z - x) < eps and eval_seminorm(p, image - y) < eps:
            return n, z
    return None


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
        t = FiniteRankOperator(IDENTITY, tuple(self.chain()))
        p = SeminormSpec.sup_on([1, 2, 3])
        x = SparseVector({1: frac(1), 2: frac(-1, 2), self.window + 1: frac(5)})
        y = sv(2, 1, -1)
        n, z = transitivity_witness(t, x, y, frac(1, 1000), 32, p, window=self.window)
        assert (n, z) == dense_witness(t, x, y, frac(1, 1000), 32, p, self.window)
        # the answer is that of the cut operator: the full powers of T differ
        assert dense_witness(t, x, y, frac(1, 1000), 32, p, self.window + 1) != (n, z)

    def test_fixed_direction_beyond_window_is_cut_away(self):
        w = self.window
        fixed = (CoordFunctional.delta(w + 1), SparseVector.basis(w + 1))
        t = FiniteRankOperator(IDENTITY, tuple(self.chain()[:w - 1]) + (fixed,))
        assert not dense_nilpotent(t.linear_part(), w + 1)
        p = SeminormSpec.sup_on([1, 2, 3])
        n, z = transitivity_witness(t, sv(1), sv(-1, 2), frac(1, 1000), 32, p, window=w)
        assert (n, z) == dense_witness(t, sv(1), sv(-1, 2), frac(1, 1000), 32, p, w)


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
            IDENTITY, ((CoordFunctional.delta(1), SparseVector.basis(1)),)
        )
        with pytest.raises(NotNilpotent):
            transitivity_witness(t, sv(1), sv(2), frac(1, 10), 4,
                                 SeminormSpec.sup_on([1]), window=2)


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

    @pytest.mark.parametrize("ctx", [EXACT, FLOAT], ids=["exact", "float"])
    def test_matches_the_dict_shift(self, ctx):
        """The orbit of the shift operator is the reference's entry moves, with
        the same scalar types: entries beyond the window cut, zeros absent, and
        horizons past the window down to the zero vector."""
        rng = random.Random(23)
        for _ in range(30):
            window = rng.randint(2, 8)
            coords = rng.sample(range(1, window + 4), rng.randint(0, window + 3))
            x0 = SparseVector({i: ctx.coerce(Fraction(rng.randint(-4, 4), rng.choice([1, 3, 8])))
                               for i in coords})
            for horizon in range(1, window + 3):
                got = omega_shift_demo(window, x0, horizon, ctx)
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
    return FiniteRankOperator(ZERO, tuple(terms))


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
        shift = FiniteRankOperator(ZERO, shift_terms)
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
