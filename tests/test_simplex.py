"""Exact LP solver sanity checks against enumerated vertex oracles."""

import itertools
import random
from fractions import Fraction

import pytest

from orbitlab import simplex
from orbitlab.scalars import EXACT, FLOAT
from orbitlab.simplex import Infeasible, Unbounded, solve_lp

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
    rng = random.Random(29)
    checked = 0
    while checked < 40:
        nrows = rng.randint(1, 3)
        nvars = rng.randint(nrows, 5)
        a = [[F(rng.randint(-3, 3)) for _ in range(nvars)] for _ in range(nrows)]
        x_feas = [F(rng.randint(0, 3)) for _ in range(nvars)]
        b = [sum(a[i][j] * x_feas[j] for j in range(nvars)) for i in range(nrows)]
        c = [F(rng.randint(0, 4)) for _ in range(nvars)]
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
    for the costs of the latest phase (the drive-out pivots included); exact
    equality in exact mode, the mode's tolerance in float mode."""

    last = None

    def __init__(self, *args):
        super().__init__(*args)
        self.pivots = self.degenerate = 0
        _CheckedTableau.last = self

    def minimize(self, costs, allowed):
        self.costs = list(costs)
        super().minimize(costs, allowed)

    def pivot(self, row, col):
        self.degenerate += self.ctx.is_zero(self.rows[row][self.ncols])
        super().pivot(row, col)
        self.pivots += 1
        expected = reprice(self, self.costs)
        assert all(self.ctx.eq(x, y) for x, y in zip(self.red, expected))


def random_lp(rng):
    """Small LP with negative right-hand sides, repeated rows (artificials left
    basic after phase 1) and zero right-hand sides (degenerate pivots)."""
    nrows = rng.randint(1, 4)
    nvars = rng.randint(1, 6)
    a = [[F(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(nvars)]
         for _ in range(nrows)]
    x_feas = [F(rng.choice([0, 0, 1, 2])) for _ in range(nvars)]
    b = [sum(a[i][j] * x_feas[j] for j in range(nvars)) for i in range(nrows)]
    if nrows > 1 and rng.random() < 0.4:
        k = rng.choice([1, -2])
        a[-1], b[-1] = [k * v for v in a[0]], k * b[0]
    c = [F(rng.randint(-1, 4)) for _ in range(nvars)]
    return c, a, b


def solve_in(ctx, c, a, b):
    """solve_lp over the scalars of ctx, or the type of the error it raised."""
    try:
        return solve_lp([ctx.coerce(v) for v in c],
                        [[ctx.coerce(v) for v in row] for row in a],
                        [ctx.coerce(v) for v in b], ctx)
    except (Infeasible, Unbounded) as exc:
        return type(exc)


def test_carried_costs_match_repricing_and_float_matches_exact(monkeypatch):
    monkeypatch.setattr(simplex, "_Tableau", _CheckedTableau)
    rng = random.Random(41)
    seen = {"negative rhs": 0, "artificial left basic": 0, "degenerate pivot": 0,
            "solved": 0, "pivots": 0}
    for _ in range(300):
        c, a, b = random_lp(rng)
        exact, tab = solve_in(EXACT, c, a, b), _CheckedTableau.last
        approx = solve_in(FLOAT, c, a, b)
        seen["negative rhs"] += any(v < 0 for v in b)
        seen["pivots"] += tab.pivots
        seen["degenerate pivot"] += tab.degenerate > 0
        if isinstance(exact, type):
            assert approx is exact
            continue
        seen["solved"] += 1
        seen["artificial left basic"] += any(k >= len(c) for k in tab.basis)
        assert FLOAT.eq(approx.value, float(exact.value))
    assert min(seen.values()) >= 20, seen
