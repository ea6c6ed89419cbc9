"""Interleaved triangularization and the shuffled-basis operator."""

import random
from fractions import Fraction

import pytest

from orbitlab import CoordFunctional, SparseVector, linalg
from orbitlab.errors import Exhausted, LinearlyDependent
from orbitlab.triangular import (
    TriangularizeState,
    build_omega_operator,
    greedy_extend_functional,
    greedy_extend_vector,
    interleave_triangularize,
    map_between_spans,
    omega_forward_solve,
    shuffled_matrix,
)

import oracles


def sv(*entries):
    return SparseVector({i + 1: Fraction(v) for i, v in enumerate(entries) if v != 0})


def deltas(n):
    return [CoordFunctional.delta(i) for i in range(1, n + 1)]


def pairing(funcs, vectors):
    return [[f.pair(x) for x in vectors] for f in funcs]


class TestGreedyExtendVector:
    def test_base_case_scans_for_nonzero(self):
        x, det = greedy_extend_vector(
            [CoordFunctional.delta(1)], [], [SparseVector.basis(2), SparseVector.basis(1)]
        )
        assert x == SparseVector.basis(1)
        assert det == 1

    def test_extends_to_invertible_two_by_two(self):
        funcs = deltas(2)
        x, det = greedy_extend_vector(
            funcs, [SparseVector.basis(1)], [sv(1, 1), sv(2, 0)]
        )
        assert x == sv(1, 1)
        assert det == 1
        assert oracles.determinant(pairing(funcs, [SparseVector.basis(1), x])) == det

    def test_exhausted_when_all_in_kernel(self):
        with pytest.raises(Exhausted):
            greedy_extend_vector(
                deltas(2), [SparseVector.basis(1)], [SparseVector.basis(1), sv(3)]
            )

    def test_forced_side_too_short(self):
        with pytest.raises(Exhausted, match="need 2 items on the forced side"):
            greedy_extend_vector(deltas(1), [SparseVector.basis(1)], [sv(0, 1)])

    def test_singular_leading_minor_rejected(self):
        # the full 2x2 minor is invertible, its leading 1x1 minor is not
        with pytest.raises(LinearlyDependent):
            greedy_extend_vector(
                deltas(3), [SparseVector.basis(2), SparseVector.basis(1)],
                [SparseVector.basis(3)],
            )

    def test_determinant_recurrence_matches_direct_eval(self):
        rng = random.Random(51)
        for _ in range(25):
            n = rng.randint(1, 4)
            funcs = [
                CoordFunctional({i: Fraction(rng.randint(-3, 3)) for i in range(1, n + 3)})
                for _ in range(n + 1)
            ]
            chosen = []
            ok = True
            for m in range(n):
                cands = [
                    SparseVector({i: Fraction(rng.randint(-3, 3)) for i in range(1, n + 3)})
                    for _ in range(6)
                ]
                try:
                    x, det = greedy_extend_vector(funcs[: m + 1], chosen, cands)
                except Exhausted:
                    ok = False
                    break
                chosen.append(x)
                assert oracles.determinant(pairing(funcs[: m + 1], chosen)) == det
            if not ok:
                continue


class TestGreedyExtendFunctional:
    def test_base_case(self):
        f, det = greedy_extend_functional(
            [SparseVector.basis(2)], [], [CoordFunctional.delta(1), CoordFunctional.delta(2)]
        )
        assert f == CoordFunctional.delta(2)
        assert det == 1

    def test_two_by_two(self):
        f, det = greedy_extend_functional(
            [SparseVector.basis(1), sv(1, 1)],
            [CoordFunctional.delta(1)],
            [CoordFunctional.delta(1), CoordFunctional.delta(2)],
        )
        assert f == CoordFunctional.delta(2)
        assert det == 1

    def test_exhausted(self):
        with pytest.raises(Exhausted):
            greedy_extend_functional(
                [SparseVector.basis(1), SparseVector.basis(2)],
                [CoordFunctional.delta(1)],
                [CoordFunctional.delta(1), CoordFunctional.delta(3)],
            )

    def test_singular_leading_minor_rejected(self):
        with pytest.raises(LinearlyDependent):
            greedy_extend_functional(
                [SparseVector.basis(1), SparseVector.basis(2), SparseVector.basis(3)],
                [CoordFunctional.delta(2), CoordFunctional.delta(1)],
                [CoordFunctional.delta(3)],
            )


def check_state_invariants(state: TriangularizeState):
    """Replays every posted invariant from raw data."""
    n = state.built
    assert len(set(state.alpha)) == n
    assert len(set(state.beta)) == n
    # leading minors all invertible, matching the incremental determinants
    fs, us = state.chosen_funcs(), state.chosen_basis()
    for m in range(1, n + 1):
        direct = oracles.determinant(pairing(fs[:m], us[:m]))
        assert direct != 0
        assert direct == state.minors[m - 1]
    # greedy minimality: odd picks force alpha and scan the basis, even picks
    # force beta and scan the functionals; every unused index below a scanned
    # pick gives a singular leading minor, the pick itself a non-zero one
    for m in range(1, n + 1):
        scanned = state.beta if m % 2 else state.alpha
        for i in range(1, scanned[m - 1] + 1):
            if i in scanned[: m - 1]:
                continue
            if m % 2:
                minor = pairing(fs[:m], us[: m - 1] + [state.basis[i - 1]])
            else:
                minor = pairing(fs[: m - 1] + [state.funcs[i - 1]], us[:m])
            assert (oracles.determinant(minor) != 0) == (i == scanned[m - 1])
    # coverage at every stage: {1..m} inside both prefixes of length 2m
    for m in range(1, n // 2 + 1):
        assert set(range(1, m + 1)) <= set(state.alpha[: 2 * m])
        assert set(range(1, m + 1)) <= set(state.beta[: 2 * m])
    # biorthogonal triangularity of the combined vectors
    for m, v in enumerate(state.v, start=1):
        assert state.coeffs[m - 1][m - 1] != 0
        for j in range(1, n + 1):
            expected = Fraction(int(j == m))
            if j <= m:
                assert fs[j - 1].pair(v) == expected
    # span property: u_beta(n) in span(v_1..v_n) \ span(v_1..v_{n-1})
    for m in range(1, n + 1):
        reducer = linalg.RowReducer()
        for v in state.v[: m - 1]:
            reducer.try_add(dict(v.entries))
        assert reducer.try_add(dict(us[m - 1].entries))  # not in the smaller span
        reducer2 = linalg.RowReducer()
        for v in state.v[:m]:
            reducer2.try_add(dict(v.entries))
        assert not reducer2.try_add(dict(us[m - 1].entries))  # inside the larger


class TestInterleave:
    def test_already_biorthogonal_basis(self):
        basis = [SparseVector.basis(i) for i in range(1, 9)]
        state = interleave_triangularize(basis, deltas(10), stages=3)
        assert state.alpha == (1, 2, 3, 4, 5, 6)
        assert state.beta == (1, 2, 3, 4, 5, 6)
        for m, v in enumerate(state.v, start=1):
            assert v == SparseVector.basis(m)
        check_state_invariants(state)

    def test_swapped_basis_single_stage(self):
        state = interleave_triangularize(
            [SparseVector.basis(2), SparseVector.basis(1)], deltas(4), stages=1
        )
        # alpha_1 = 1 is forced; the scan finds u_1 = e_2 useless for delta_1,
        # so beta_1 = 2 picks e_1; then beta_2 = 1 and the functional scan runs.
        assert state.alpha[0] == 1
        assert state.beta == (2, 1)
        check_state_invariants(state)

    def test_mixing_basis_two_stages(self):
        basis = [sv(1), sv(1, 1), sv(0, 0, 1), sv(1, 1, 1, 1)]
        state = interleave_triangularize(basis, deltas(6), stages=2)
        check_state_invariants(state)

    def test_window_margin_enforced(self):
        basis = [SparseVector.basis(i) for i in range(1, 3)]
        with pytest.raises(Exhausted):
            interleave_triangularize(basis, deltas(4), stages=2)

    def test_dependent_basis_rejected(self):
        basis = [sv(1), sv(2)]
        with pytest.raises(LinearlyDependent):
            interleave_triangularize(basis, deltas(4), stages=1)

    def test_random_rational_bases(self):
        rng = random.Random(61)
        for _ in range(5):
            n = 8
            basis = random_invertible_basis(rng, n)
            state = interleave_triangularize(basis, deltas(n + 2), stages=3)
            check_state_invariants(state)


def random_invertible_basis(rng, n):
    while True:
        rows = [
            [Fraction(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(n)]
            for _ in range(n)
        ]
        if oracles.determinant(rows) != 0:
            return [
                SparseVector({j + 1: v for j, v in enumerate(row) if v != 0})
                for row in rows
            ]


class TestOmegaOperator:
    def test_identity_case(self):
        basis = [SparseVector.basis(i) for i in range(1, 7)]
        state = interleave_triangularize(basis, deltas(8), stages=2)
        op = build_omega_operator(state)
        for m in range(1, 5):
            assert op.apply(SparseVector.basis(state.alpha[m - 1])) == state.v[m - 1]
        assert shuffled_matrix(state) == oracles.identity_matrix(4)

    def test_elementary_below_diagonal_entry(self):
        # basis (e1+e2, e2, e3, e4) keeps alpha = id and produces the matrix
        # with a single below-diagonal 1
        basis = [sv(1, 1), sv(0, 1), sv(0, 0, 1), sv(0, 0, 0, 1)]
        state = interleave_triangularize(basis, deltas(6), stages=2)
        assert state.alpha == (1, 2, 3, 4)
        assert state.v[0] == sv(1, 1)
        assert state.v[1] == sv(0, 1)
        m = shuffled_matrix(state)
        assert m[1][0] == 1
        assert all(m[j][j] == 1 for j in range(4))
        assert all(m[j][t] == 0 for j in range(4) for t in range(j + 1, 4))

    def test_unit_lower_triangular_in_shuffled_basis(self):
        rng = random.Random(67)
        basis = random_invertible_basis(rng, 8)
        state = interleave_triangularize(basis, deltas(10), stages=4)
        m = shuffled_matrix(state)
        for j in range(8):
            assert m[j][j] == 1
            for t in range(j + 1, 8):
                assert m[j][t] == 0

    def test_forward_solve_reconstructs_span_vectors(self):
        rng = random.Random(71)
        basis = random_invertible_basis(rng, 8)
        state = interleave_triangularize(basis, deltas(10), stages=4)
        for _ in range(20):
            coeffs = [Fraction(rng.randint(-4, 4), rng.choice([1, 2])) for _ in state.v]
            y = SparseVector.zero()
            for c, v in zip(coeffs, state.v):
                y = y + v.scale(c)
            assert omega_forward_solve(state, y) == coeffs

    def test_maps_shuffled_prefix_onto_v_span(self):
        rng = random.Random(73)
        basis = random_invertible_basis(rng, 6)
        state = interleave_triangularize(basis, deltas(8), stages=3)
        op = build_omega_operator(state)
        for n in range(1, 7):
            reducer = linalg.RowReducer()
            for v in state.v[:n]:
                reducer.try_add(dict(v.entries))
            for j in range(n):
                image = op.apply(SparseVector.basis(state.alpha[j]))
                assert not reducer.try_add(dict(image.entries))

    def test_requires_coordinate_functionals(self):
        basis = [SparseVector.basis(1), SparseVector.basis(2)]
        funcs = [CoordFunctional({1: Fraction(2)}), CoordFunctional.delta(2),
                 CoordFunctional.delta(3), CoordFunctional.delta(4)]
        state = interleave_triangularize(basis, funcs, stages=1)
        with pytest.raises(ValueError):
            build_omega_operator(state)

    def test_compose_maps_one_span_to_other(self):
        rng = random.Random(79)
        basis_a = random_invertible_basis(rng, 6)
        basis_b = random_invertible_basis(rng, 6)
        sa = interleave_triangularize(basis_a, deltas(8), stages=3)
        sb = interleave_triangularize(basis_b, deltas(8), stages=3)
        x = sa.v[0] + sa.v[2].scale(Fraction(1, 2))
        y = map_between_spans(sa, sb, x)
        assert y == sb.v[0] + sb.v[2].scale(Fraction(1, 2))
