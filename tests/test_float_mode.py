"""Float scalar mode: same flows, comparisons up to the context tolerance."""

import json
import random
from fractions import Fraction

import pytest

from orbitlab import (
    CoordFunctional,
    DiskSpec,
    FiniteRankOperator,
    SeminormSpec,
    SparseVector,
    dual_norm,
    eval_seminorm,
    invert,
    minkowski,
)
from orbitlab.cli import main
from orbitlab.density import Enumeration
from orbitlab.errors import SingularOperator
from orbitlab.operators import IDENTITY, ZERO
from orbitlab.scalars import FLOAT, FLOAT_TOL
from orbitlab.scenarios import Scenario, run_scenario
from orbitlab.seminorms import Separator
from orbitlab.transport import TransportState, run_transport, verify_transport
from orbitlab.triangular import interleave_triangularize

import oracles


def fsv(*entries):
    return SparseVector({i + 1: float(v) for i, v in enumerate(entries) if v != 0})


def test_seminorm_and_dual_in_float_mode():
    p = SeminormSpec.sup_on([1, 2], 1.0)
    assert eval_seminorm(p, fsv(3, -4)) == 4.0
    f = CoordFunctional({1: 3.0, 2: -4.0})
    assert dual_norm(p, f) == 7.0


def test_generator_gauge_in_float_mode():
    disk = DiskSpec.from_generators([fsv(1), fsv(0, 1)])
    value = minkowski(disk, fsv(0.5, 0.5), FLOAT)
    assert abs(value - 1.0) < 1e-9


def test_float_inversion_and_tolerance_singularity():
    j = FiniteRankOperator(
        IDENTITY,
        ((CoordFunctional({1: 1.0}), fsv(0.5)),),
    )
    j_inv = invert(j, FLOAT)
    image = j_inv.apply(j.apply(fsv(1), FLOAT), FLOAT)
    assert abs(image.get(1) - 1.0) < 1e-9

    nearly_singular = FiniteRankOperator(
        IDENTITY,
        ((CoordFunctional({1: 1.0}), fsv(-1.0 + 1e-14)),),
    )
    with pytest.raises(SingularOperator):
        invert(nearly_singular, FLOAT)


def test_separating_functional_float():
    p = SeminormSpec.sup_on([1, 2], 1.0)
    f = Separator.of(p, [fsv(1)], FLOAT).functional(fsv(0, 1))
    assert abs(f.pair(fsv(1))) <= FLOAT_TOL
    assert abs(dual_norm(p, f) - 1.0) < 1e-9


def test_float_transport_scenario_runs():
    window, stages = 12, 2
    active = window // 2
    size = 2 * stages
    a_items = [[[i, "1"]] for i in range(1, size + 1)]
    pi = [1, 0, 3, 2]
    b_items = []
    for i in range(size):
        pairs = [[pi[i] + 1, "1"], [active + 1 + i, "0.00000001"]]
        b_items.append(sorted(pairs))
    scenario = Scenario.from_dict({
        "name": "float-twin",
        "scalar_mode": "float",
        "window": window,
        "seed": 7,
        "task": "transport",
        "payload": {
            "a": a_items,
            "b": b_items,
            "p": {"kind": "sup", "weights": [[i, "1"] for i in range(1, active + 1)]},
            "disk": {"weights": [[i, "1"] for i in range(1, window + 1)]},
            "stages": stages,
            "eps_schedule": "geometric:1/2",
        },
    })
    report = run_scenario(scenario)
    assert report.passed, [c.name for c in report.checks if not c.passed]
    assert report.scalar_mode == "float"


def test_float_invertible_check_runs_the_round_trip(monkeypatch):
    window, stages = 12, 2
    active = window // 2
    a_items = [SparseVector.basis(i, FLOAT) for i in range(1, 2 * stages + 1)]
    pi = [1, 0, 3, 2]
    b_items = [a_items[pi[i]] + fsv(*[0] * (active + i), 1e-8) for i in range(2 * stages)]
    state = run_transport(
        Enumeration(tuple(a_items)), Enumeration(tuple(b_items)),
        SeminormSpec.sup_on(range(1, active + 1), 1.0),
        oracles.l1_disk(range(1, window + 1), 1.0),
        [2.0 ** -(j + 2) for j in range(2 * stages)], stages, FLOAT,
    )
    assert verify_transport(state, FLOAT).passed
    monkeypatch.setattr("orbitlab.transport.invert",
                        lambda j, ctx: FiniteRankOperator(IDENTITY, ()))
    checks = {c.name: c.passed for c in verify_transport(state, FLOAT).checks}
    assert checks["invertible"] is False


def test_float_triangularize_matches_exact():
    rng = random.Random(4)
    n = 8
    while True:
        rows = [[Fraction(rng.choice([0, 0, 0, 1, -1, 2]), rng.choice([1, 3])) for _ in range(n)]
                for _ in range(n)]
        if oracles.determinant(rows) != 0:
            break
    basis = [SparseVector({j + 1: v for j, v in enumerate(row) if v != 0}) for row in rows]
    want = interleave_triangularize(
        basis, [CoordFunctional.delta(i) for i in range(1, n + 3)], stages=4)
    got = interleave_triangularize(
        [SparseVector({i: float(v) for i, v in u.entries.items()}) for u in basis],
        [CoordFunctional.delta(i, FLOAT) for i in range(1, n + 3)], 4, FLOAT)
    # the scans skip some indices, so the pick order is not the identity
    assert want.alpha != tuple(range(1, n + 1)) and want.beta != tuple(range(1, n + 1))
    assert (got.alpha, got.beta) == (want.alpha, want.beta)
    assert all(FLOAT.eq(g, float(w)) for g, w in zip(got.minors, want.minors))
    for got_row, want_row in zip(got.coeffs, want.coeffs):
        assert len(got_row) == len(want_row)
        assert all(FLOAT.eq(g, float(w)) for g, w in zip(got_row, want_row))


def test_float_build_shift_with_thirds(tmp_path):
    # float rounding of thirds leaves S u_1 a few ulps away from zero
    path = tmp_path / "shift.json"
    path.write_text(json.dumps({
        "name": "shift-thirds",
        "scalar_mode": "float",
        "window": 6,
        "seed": 5,
        "task": "hypercyclic",
        "payload": {
            "mode": "build-shift",
            "basis": [[[1, "1"], [2, "1/3"]], [[2, "1/3"], [3, "2/3"]],
                      [[1, "1/3"], [3, "1"], [4, "1/3"]], [[2, "1/3"], [4, "2/3"]]],
            "p": {"kind": "sup", "weights": [[i, "1"] for i in range(1, 5)]},
            "disk": {"weights": [[i, "1/3"] for i in range(1, 5)] + [[5, "1"], [6, "1"]]},
        },
    }))
    out_dir = tmp_path / "out"
    assert main(["run", "--scenario", str(path), "--out", str(out_dir)]) == 0
    report = json.loads((out_dir / "shift.json").read_text())
    checks = {c["name"]: c["passed"] for c in report["checks"]}
    assert checks["chain-identities"] is True


_benchmark_workloads = oracles.benchmark_workloads


@pytest.mark.xfail(strict=True, reason="float ranks use an absolute tolerance: the "
                   "w11 build-shift premise spans print 5 or 6 in float, 4 in exact")
def test_float_premise_span_matches_exact_on_the_corpus():
    spans = {}
    for seed in (1, 2):
        for data in _benchmark_workloads().generate("shiftgauge", seed):
            if data["name"] in ("sg-09-shift-w11", "sg-10-shift-w11", "sg-11-shift-w11"):
                for mode in ("exact", "float"):
                    report = run_scenario(Scenario.from_dict(dict(data, scalar_mode=mode)))
                    spans[seed, data["name"], mode] = report.data["premise_span_dim"]
    assert len(spans) == 12
    assert {key[:2]: spans[key] for key in spans if key[2] == "float"} == \
        {key[:2]: spans[key] for key in spans if key[2] == "exact"}


def _float_state(terms):
    a = Enumeration((fsv(1),))
    b = Enumeration((fsv(1),))
    p = SeminormSpec.sup_on([1, 2], 1.0)
    disk = oracles.l1_disk(range(1, 5), 1.0)
    return TransportState(a, b, p, disk, (0.5, 0.25),
                          terms=FiniteRankOperator(ZERO, tuple(terms)))


def _check(report, name):
    return next(c for c in report.checks if c.name == name)


def test_float_matching_residual_within_tolerance_passes():
    """exact-matching passes when every entry of J a(n_j) - b(m_j) is zero
    within FLOAT_TOL and fails beyond it; the report carries the residuals."""
    a_items = [SparseVector.basis(i, FLOAT) for i in range(1, 5)]
    b_items = [a_items[k] + fsv(*[0] * (6 + i), 1e-8) for i, k in enumerate([1, 0, 3, 2])]
    state = run_transport(
        Enumeration(tuple(a_items)), Enumeration(tuple(b_items)),
        SeminormSpec.sup_on(range(1, 7), 1.0), oracles.l1_disk(range(1, 13), 1.0),
        [2.0 ** -(j + 2) for j in range(4)], 2, FLOAT,
    )
    m = state.m_idx[0]
    for shift, passed in ((2.0 ** -50, True), (2.0 ** -20, False)):
        b = Enumeration(tuple(x + fsv(shift) if k == m else x
                              for k, x in enumerate(b_items, start=1)))
        report = verify_transport(state._replace(b=b), FLOAT)
        assert _check(report, "exact-matching").passed is passed
        assert report.residuals == [state.operator.apply(state.a.vector(n), FLOAT) - b.vector(k)
                                    for n, k in zip(state.n_idx, state.m_idx)]
        assert report.residuals[0].get(1) != 0


def test_float_budget_within_tolerance_of_one_fails():
    # c = 1 - 2^-45 is 1 within the float tolerance, so invertibility is not certified
    state = _float_state([(CoordFunctional({1: 1.0}), fsv(0, 1.0 - 2.0 ** -45))])
    report = verify_transport(state, FLOAT)
    assert report.budget == 1.0 - 2.0 ** -45
    assert not _check(report, "budget-below-one").passed


def test_context_comparisons():
    tol = FLOAT_TOL
    assert FLOAT.is_zero(tol / 2)
    assert not FLOAT.is_zero(2 * tol)
    assert FLOAT.eq(1.0, 1.0 + tol / 8)
    assert FLOAT.lt(0.0, 1.0)
    assert not FLOAT.lt(1.0, 1.0 + tol / 2)
