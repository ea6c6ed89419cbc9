"""Acceptance criteria, one test per criterion, each at its stated tolerance.

Every expected value is produced by an independent oracle (sign-vertex
enumeration, coefficient-grid search, fraction-free elimination, replayed
orbits) or asserted as an exact identity.  Timed criteria measure wall time.
"""

import itertools
import random
import time
from fractions import Fraction

from orbitlab import (
    CoordFunctional,
    DiskSpec,
    FiniteRankOperator,
    SeminormSpec,
    SparseVector,
    conjugate_orbit,
    dual_norm,
    eval_seminorm,
    invert,
    linalg,
    minkowski,
    neumann_certificate,
    orbit,
)
from orbitlab.density import Enumeration, biorthogonalize
from orbitlab.hypercyclic import (
    build_nonorbit_set,
    build_shift_operator,
    refute_orbit,
    transitivity_witness,
)
from orbitlab.operators import IDENTITY, ZERO
from orbitlab.transport import run_transport, verify_transport
from orbitlab.triangular import (
    build_omega_operator,
    interleave_triangularize,
    shuffled_matrix,
)

import oracles


def frac(n, d=1):
    return Fraction(n, d)


def report(line):
    print(line)


# --- shared builders ---------------------------------------------------------

def twin_instance(rng, window, stages, extras=0):
    """Two p-independent enumerations pairable inside geometric epsilon slots."""
    size = 2 * stages + extras
    active = window // 2
    assert size <= active
    noise = frac(1, 2 ** (2 * stages + 16))

    def junk():
        return SparseVector({
            i: frac(rng.randint(-4, 4), rng.choice([1, 2, 4]))
            for i in rng.sample(range(active + 1, window + 1), rng.randint(0, 2))
        })

    a_items = [SparseVector.basis(i) + junk() for i in range(1, size + 1)]
    pi = list(range(size))
    for i in range(0, size - 1, 2):
        pi[i], pi[i + 1] = pi[i + 1], pi[i]
    # perturbations sit outside the active set: twins then project exactly
    # onto their originals and the separating scans stay well conditioned
    b_items = [
        a_items[pi[i]] + SparseVector(
            {rng.randint(active + 1, window): noise * rng.randint(-2, 2)}
        )
        for i in range(size)
    ]
    return (
        Enumeration(tuple(a_items)),
        Enumeration(tuple(b_items)),
        SeminormSpec.sup_on(range(1, active + 1)),
        oracles.l1_disk(range(1, window + 1)),
    )


def geometric_schedule(count):
    return [frac(1, 2 ** (j + 2)) for j in range(count)]


def random_unit_functional(rng, p):
    while True:
        f = CoordFunctional({
            i: frac(rng.randint(-3, 3))
            for i in rng.sample(sorted(p.active), rng.randint(1, 3))
        })
        if not f.is_zero():
            return f.scale(frac(1) / dual_norm(p, f))


def random_certified_operator(rng, p, disk, window):
    terms = []
    for j in range(rng.randint(1, 4)):
        f = random_unit_functional(rng, p)
        v = SparseVector({
            i: frac(rng.randint(-5, 5), 8)
            for i in rng.sample(range(1, window + 1), rng.randint(1, 3))
        })
        mass = minkowski(disk, v)
        if mass != 0:
            v = v.scale(frac(1, 2 ** (j + 2)) / mass / 2)
        terms.append((f, v))
    return FiniteRankOperator(ZERO, tuple(terms))


# --- criteria ----------------------------------------------------------------

def test_criterion_01_transport_soundness():
    """20 randomized transport scenarios replay all invariants exactly, < 10 s."""
    rng = random.Random(2024)
    start = time.monotonic()
    for run in range(20):
        window = rng.randint(12, 24)
        stages = min(5, window // 4)
        room = window // 2 - 2 * stages
        a, b, p, disk = twin_instance(rng, window, stages,
                                      extras=rng.randint(0, min(1, room)))
        state = run_transport(a, b, p, disk, geometric_schedule(2 * stages), stages)
        j = state.operator
        verification = verify_transport(state)
        assert verification.passed, [c.name for c in oracles.failures(verification)]
        for i in range(window // 2 + 1, window + 1):
            e = SparseVector.basis(i)
            assert j.apply(e) == e
        assert state.budget_used() < 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"transport batch took {elapsed:.2f} s"
    report(f"ACCEPTANCE 01 transport-soundness: PASS ({elapsed:.2f} s)")


def test_criterion_02_inversion_round_trip():
    """200 certified operators invert exactly on the window basis."""
    rng = random.Random(2025)
    window = 10
    p = SeminormSpec.sup_on(range(1, 6))
    disk = oracles.l1_disk(range(1, window + 1))
    for _ in range(200):
        t = random_certified_operator(rng, p, disk, window)
        budget = neumann_certificate(t, p, disk)
        assert budget.c < 1
        j = t.plus_identity()
        j_inv = invert(j)
        for i in range(1, window + 1):
            e = SparseVector.basis(i)
            assert j_inv.apply(j.apply(e)) == e
            assert j.apply(j_inv.apply(e)) == e
    report("ACCEPTANCE 02 inversion-round-trip: PASS")


def leading_minors_all_nonzero(matrix):
    """Oracle: fraction-free elimination without row exchange succeeds iff
    every leading principal minor is invertible."""
    n = len(matrix)
    m = [list(row) for row in matrix]
    prev = Fraction(1)
    for k in range(n - 1):
        if m[k][k] == 0:
            return False
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
        prev = m[k][k]
    return m[n - 1][n - 1] != 0


def test_criterion_03_triangularization():
    """30 random rational bases, window 24, stages 10: minors, identities,
    unit lower triangular shuffled matrices."""
    rng = random.Random(2026)
    window = 24
    stages = 10
    funcs = [CoordFunctional.delta(i) for i in range(1, window + 1)]
    for run in range(30):
        while True:
            rows = [
                [frac(rng.randint(-3, 3), rng.choice([1, 2, 3])) for _ in range(window)]
                for _ in range(window)
            ]
            if oracles.determinant(rows) != 0:
                break
        basis = [
            SparseVector({j + 1: v for j, v in enumerate(row) if v != 0})
            for row in rows
        ]
        state = interleave_triangularize(basis, funcs, stages)
        built = state.built
        assert built == 2 * stages

        # oracle: one fraction-free elimination pass over the pairing matrix
        pairing = oracles.pairing_matrix(state)
        assert leading_minors_all_nonzero(pairing)
        assert all(d != 0 for d in state.minors)

        fs = state.chosen_funcs()
        for m, v in enumerate(state.v, start=1):
            assert state.coeffs[m - 1][m - 1] != 0
            for j in range(1, m + 1):
                assert fs[j - 1].pair(v) == frac(int(j == m))

        build_omega_operator(state)
        matrix = shuffled_matrix(state)
        for j in range(built):
            assert matrix[j][j] == 1
            for t in range(j + 1, built):
                assert matrix[j][t] == 0
    report("ACCEPTANCE 03 triangularization: PASS")


def test_criterion_04_dual_norm_oracle():
    """Dual norms match sign-vertex enumeration on every tested functional
    with support in {1..6} and weights from {1, 1/2, 2}."""
    weight_values = [frac(1), frac(1, 2), frac(2)]
    coeff_cycle = [frac(3), frac(-2), frac(1, 2), frac(-5, 3), frac(1), frac(-1, 4)]
    checked = 0
    for size in range(0, 7):
        for support in itertools.combinations(range(1, 7), size):
            weights = {i: weight_values[(i + size) % 3] for i in range(1, 7)}
            f = CoordFunctional({i: coeff_cycle[(i + size) % 6] for i in support})
            p_sup = SeminormSpec(kind="sup", weights=weights)
            # oracle: evaluate on every vertex x_i = +-1/w_i of the unit ball
            best = frac(0)
            for signs in itertools.product((1, -1), repeat=size):
                x = SparseVector({i: s / weights[i] for i, s in zip(support, signs)})
                best = max(best, abs(f.pair(x)))
            assert dual_norm(p_sup, f) == best
            # l1 kind: ball vertices are the single-coordinate spikes
            p_l1 = SeminormSpec(kind="l1", weights=weights)
            spike_best = max(
                (abs(f.pair(SparseVector({i: 1 / weights[i]}))) for i in support),
                default=frac(0),
            )
            assert dual_norm(p_l1, f) == spike_best
            checked += 1
    assert checked == 64
    report(f"ACCEPTANCE 04 dual-norm-oracle: PASS ({checked} functionals)")


def rational_grid(bound):
    """All p/q with q <= 8 and |p/q| <= bound."""
    values = set()
    for q in range(1, 9):
        for p in range(-bound * q, bound * q + 1):
            values.add(frac(p, q))
    return sorted(values)


def grid_oracle(gens, u, bound):
    """Minimal l1 mass over representations whose free coefficients lie on
    the rational grid; pinned coefficients are solved exactly.

    Returns (best, slack): the LP value must sit within [best - slack, best].
    """
    coords = sorted(set(u.support).union(*(g.support for g in gens)))
    a = [[g.get(i) for g in gens] for i in coords]
    red, pivots = oracles.rref(a)
    free_cols = [c for c in range(len(gens)) if c not in pivots]
    u_col = [u.get(i) for i in coords]
    red_aug, pivots_aug = oracles.rref([row + [b] for row, b in zip(a, u_col)])
    assert len(gens) not in pivots_aug, "instance must be feasible"

    # pinned = base - M . free  (read off the reduced system)
    base = {pc: red_aug[r][len(gens)] for r, pc in enumerate(pivots_aug)}
    sensitivity = {
        fc: {pc: red_aug[r][fc] for r, pc in enumerate(pivots_aug)}
        for fc in free_cols
    }
    grid = rational_grid(bound)
    best = None
    for combo in itertools.product(grid, repeat=len(free_cols)):
        coeffs = [frac(0)] * len(gens)
        for fc, t in zip(free_cols, combo):
            coeffs[fc] = t
        for pc in pivots_aug:
            coeffs[pc] = base[pc] - sum(
                sensitivity[fc][pc] * t for fc, t in zip(free_cols, combo)
            )
        mass = sum(abs(c) for c in coeffs)
        if best is None or mass < best:
            best = mass
    slack = sum(
        frac(1, 16) * (1 + sum(abs(v) for v in sensitivity[fc].values()))
        for fc in free_cols
    )
    return best, slack


def test_criterion_05_minkowski_grid_oracle():
    """Generator-form gauges agree with the coefficient-grid search within
    grid resolution on 50 instances."""
    rng = random.Random(2027)
    done = 0
    while done < 50:
        dim = rng.randint(2, 4)
        n_gens = rng.randint(2, 4)
        free_target = 1 if done % 5 else 2
        gens = []
        for _ in range(n_gens):
            g = SparseVector({
                i: frac(rng.randint(-2, 2), rng.choice([1, 2]))
                for i in range(1, dim + 1)
            })
            gens.append(g)
        if any(g.is_zero() for g in gens):
            continue
        rank = oracles.rank([[g.get(i) for g in gens] for i in range(1, dim + 1)])
        if n_gens - rank != free_target:
            continue
        # the grid bound grows with the known mass; keep two-free instances lean
        top = 2 if free_target == 1 else 1
        known = [frac(rng.randint(-top, top)) for _ in gens]
        u = SparseVector.zero()
        for c, g in zip(known, gens):
            u = u + g.scale(c)
        bound = int(sum(abs(c) for c in known)) + 1
        value = minkowski(DiskSpec.from_generators(gens), u)
        best, slack = grid_oracle(gens, u, bound)
        assert value <= best
        assert best - value <= slack
        done += 1
    report("ACCEPTANCE 05 minkowski-grid-oracle: PASS (50 instances)")


def test_criterion_06_biorthogonality():
    """50 random independent families of size <= 12: exact dual systems
    vanishing on the kernel."""
    rng = random.Random(2028)
    p = SeminormSpec.sup_on(range(1, 15))
    kernel_basis = [SparseVector.basis(i) for i in range(15, 19)]
    for _ in range(50):
        size = rng.randint(1, 12)
        us = []
        reducer = linalg.RowReducer()
        while len(us) < size:
            x = SparseVector({
                i: frac(rng.randint(-4, 4), rng.choice([1, 2]))
                for i in rng.sample(range(1, 15), rng.randint(1, 5))
            })
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
    report("ACCEPTANCE 06 biorthogonality: PASS (50 families)")


def test_criterion_07_shift_chain():
    """Standard-basis chain: exact weights, nilpotent chain, continuity bound
    on 500 random vectors."""
    window = 8
    us = [SparseVector.basis(i) for i in range(1, window + 1)]
    p = SeminormSpec.sup_on(range(1, window + 1))
    disk = oracles.l1_disk(range(1, window + 1))
    spec = build_shift_operator(us, p, disk)
    s = spec.operator
    assert s.apply(SparseVector.basis(1)).is_zero()
    for k in range(2, window + 1):
        assert s.apply(SparseVector.basis(k)) == \
            SparseVector.basis(k - 1).scale(frac(1, 2 ** (k - 1)))
    for n in range(1, window + 1):
        x = SparseVector.basis(n)
        for _ in range(n):
            x = s.apply(x)
        assert x.is_zero()
    rng = random.Random(2029)
    for _ in range(500):
        x = SparseVector({
            i: frac(rng.randint(-9, 9), rng.choice([1, 2, 4]))
            for i in rng.sample(range(1, window + 1), rng.randint(0, window))
        })
        assert minkowski(disk, s.apply(x)) <= eval_seminorm(p, x)
    report("ACCEPTANCE 07 shift-chain: PASS")


def test_criterion_08_transitivity_witnesses():
    """10 witnesses on a 10-window with residuals < 1/1000 within n <= 64,
    total < 5 s."""
    window = 10
    active = 5
    us = [SparseVector.basis(i) for i in range(1, window + 1)]
    spec = build_shift_operator(
        us,
        SeminormSpec.sup_on(range(1, window + 1)),
        oracles.l1_disk(range(1, window + 1)),
    )
    t = spec.operator.plus_identity()
    p = SeminormSpec.sup_on(range(1, active + 1))
    eps = frac(1, 1000)
    rng = random.Random(2030)
    start = time.monotonic()
    for _ in range(10):
        x = SparseVector({i: frac(rng.randint(-8, 8), rng.choice([1, 2, 4]))
                          for i in range(1, active + 1)})
        y = SparseVector({i: frac(rng.randint(-8, 8), rng.choice([1, 2, 4]))
                          for i in range(1, active + 1)})
        n, z = transitivity_witness(t, x, y, eps, 64, p, window=window)
        assert n <= 64
        assert eval_seminorm(p, z - x) < eps
        image = z
        for _ in range(n):
            image = t.apply(image)
        assert eval_seminorm(p, image - y) < eps
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"witness batch took {elapsed:.2f} s"
    report(f"ACCEPTANCE 08 transitivity-witnesses: PASS ({elapsed:.2f} s)")


def test_criterion_09_conjugation_identity():
    """20 random triples: conjugate orbits equal mapped orbits, horizon 50."""
    rng = random.Random(2031)
    window = 6
    for _ in range(20):
        t0_terms = tuple(
            (
                CoordFunctional.delta(rng.randint(1, window)),
                SparseVector({rng.randint(1, window): frac(rng.randint(-2, 2) or 1)}),
            )
            for _ in range(rng.randint(1, 3))
        )
        t0 = FiniteRankOperator(rng.choice([IDENTITY, ZERO]), t0_terms)
        j = FiniteRankOperator(
            IDENTITY,
            (
                (
                    CoordFunctional.delta(rng.randint(1, window)),
                    SparseVector({rng.randint(1, window): frac(1, rng.choice([4, 8]))}),
                ),
            ),
        )
        x0 = SparseVector({i: frac(rng.randint(-2, 2)) for i in range(1, window + 1)})
        left = conjugate_orbit(t0, x0, j, 50)
        right = [j.apply(x) for x in orbit(t0, x0, 50)]
        assert left == right
    report("ACCEPTANCE 09 conjugation-identity: PASS")


def operator_mapping(pairs, window):
    rows = [[s.get(i) for i in range(1, window + 1)] for s, _ in pairs]
    terms = []
    for col, (_, image) in enumerate(pairs):
        rhs = [frac(int(c == col)) for c in range(len(pairs))]
        dual = oracles.solve_any(rows, rhs)
        assert dual is not None
        f = CoordFunctional({i + 1: v for i, v in enumerate(dual) if v != 0})
        terms.append((f, image))
    return FiniteRankOperator(ZERO, tuple(terms))


def test_criterion_10_nonorbit_instrumentation():
    """Exactly independent A; 10 candidate operators instrumented; two seeded
    toys match hand-computed M sets and exit steps."""
    first = 2
    levels = 5
    family = [SeminormSpec.sup_on(range(1, first + n)) for n in range(1, levels + 1)]
    b_items = (
        SparseVector.basis(1),
        SparseVector.basis(1) + SparseVector.basis(2),
    )
    ns = build_nonorbit_set(family, Enumeration(b_items))
    window = max(p_k_active for p_k in family for p_k_active in p_k.active)
    matrix = [[x.get(i) for i in range(1, window + 1)] for x in ns.items]
    assert oracles.rank(matrix) == len(ns.items)

    # hand oracle 1: b1 -> x1 -> b2 -> x2 -> escape gives M = {1}, exit 4
    b1, b2 = b_items
    x1, x2 = ns.c[0], ns.c[1]
    toy1 = operator_mapping(
        [(b1, x1), (x1, b2), (b2, x2), (x2, SparseVector.basis(1).scale(7))],
        window,
    )
    rep1 = refute_orbit(toy1, b1, ns, horizon=5)
    assert rep1.in_a == [True, True, True, True, False]
    assert rep1.first_exit == 4
    assert rep1.m_set == [1]
    assert rep1.p1_partial_sum == 1

    # hand oracle 2: x1 -> b1 -> x2 -> b2 gives M = {0, 2}, no exit
    toy2 = operator_mapping([(x1, b1), (b1, x2), (x2, b2)], window)
    rep2 = refute_orbit(toy2, x1, ns, horizon=4)
    assert rep2.first_exit is None
    assert rep2.m_set == [0, 2]
    assert rep2.p1_partial_sum == 2

    # 10 random candidates: reported membership flags replay exactly
    rng = random.Random(2032)
    diverged = 0
    for _ in range(10):
        terms = tuple(
            (
                CoordFunctional.delta(rng.randint(1, window)),
                SparseVector({rng.randint(1, window): frac(rng.randint(-2, 2) or 1)}),
            )
            for _ in range(rng.randint(1, 3))
        )
        candidate = FiniteRankOperator(rng.choice([IDENTITY, ZERO]), terms)
        x0 = rng.choice(ns.items)
        rep = refute_orbit(candidate, x0, ns, horizon=8)
        replay = orbit(candidate, x0, 8)
        assert rep.in_a == [p in ns for p in replay]
        assert rep.m_set == [
            n for n in range(7) if replay[n] in ns.c and replay[n + 1] in ns.b.items
        ]
        if rep.first_exit is not None or not rep.covers_a:
            diverged += 1
    assert diverged == 10
    report("ACCEPTANCE 10 nonorbit-instrumentation: PASS")
