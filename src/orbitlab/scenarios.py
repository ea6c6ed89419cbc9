"""Scenario files: schema validation, dispatch to the modules, report assembly.

A scenario pins name, scalar mode, window, seed and one task payload, and a
key that no runner reads is refused rather than skipped.  Runs are
deterministic: the seed drives every randomized spot-check and is recorded
in the report, and reports carry no clocks, so re-running a stored scenario
reproduces its bytes in exact mode.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, List, Optional, Tuple

from . import __version__, serialize
from .density import Enumeration, EpsilonNet, common_disk, net_report
from .errors import NotInSpan, StageFailure, WitnessNotFound, WorkbenchError
from .hypercyclic import (
    build_nonorbit_set,
    build_shift_operator,
    range_kernel_premise_check,
    omega_shift_demo,
    refute_orbit,
    transitivity_witness,
)
from .operators import orbit
from .reports import CheckResult, Report, Table, scenario_hash
from .scalars import EXACT, ScalarContext, Scalar
from .seminorms import DiskSpec, SeminormSpec, eval_seminorm, minkowski
from .transport import run_transport, verify_transport
from .triangular import (
    build_omega_operator,
    interleave_triangularize,
    shuffled_matrix,
)
from .vectors import CoordFunctional, SparseVector, close

TASKS = ("transport", "triangularize", "disk", "hypercyclic", "refute")

# the keys a scenario file must have, which are also the ones its hash covers
FIELDS = ("name", "scalar_mode", "window", "seed", "task", "payload")


class ScenarioError(WorkbenchError):
    """Schema violation; the message names the offending field path."""


@dataclass
class Scenario:
    name: str
    scalar_mode: str
    window: int
    seed: int
    task: str
    payload: Dict[str, Any]
    expected: Optional[Dict[str, Any]] = None

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Scenario":
        if not isinstance(data, dict):
            raise ScenarioError("scenario: must be an object")
        for key in FIELDS:
            if key not in data:
                raise ScenarioError(f"{key}: missing")
        _known(data, FIELDS + ("expected",), "", "a scenario")
        if data["scalar_mode"] not in ("exact", "float"):
            raise ScenarioError("scalar_mode: must be 'exact' or 'float'")
        if data["task"] not in TASKS:
            raise ScenarioError(f"task: unknown task {data['task']!r}")
        window = data["window"]
        if not isinstance(window, int) or window < 2:
            raise ScenarioError("window: must be an integer >= 2")
        if not isinstance(data["payload"], dict):
            raise ScenarioError("payload: must be an object")
        return cls(
            name=str(data["name"]),
            scalar_mode=data["scalar_mode"],
            window=window,
            seed=_integer("seed", data["seed"]),
            task=data["task"],
            payload=data["payload"],
            expected=data.get("expected"),
        )


def _known(node: Dict[str, Any], keys: Tuple[str, ...], where: str, reader: str) -> None:
    """Refuse a key of the object at `where` outside `keys`: nothing reads it,
    so a misspelt optional field would run its default and pass."""
    if not isinstance(node, dict):
        raise ScenarioError(f"{where}: must be an object")
    for key in node:
        if key not in keys:
            raise ScenarioError(f"{where}{'.' if where else ''}{key}: unknown field; "
                                f"{reader} reads {', '.join(keys)}")


def _need(payload: Dict[str, Any], key: str, where: str = "payload"):
    if not isinstance(payload, dict):
        raise ScenarioError(f"{where}: must be an object")
    if key not in payload:
        raise ScenarioError(f"{where}.{key}: missing")
    return payload[key]


def _field(where: str, decode, *args):
    """decode(*args); malformed data raises a ScenarioError naming `where`."""
    try:
        return decode(*args)
    except KeyError as exc:
        raise ScenarioError(f"{where}: missing {exc}") from None
    except (ValueError, TypeError) as exc:
        raise ScenarioError(f"{where}: {exc}") from None


def _integer(where: str, value) -> int:
    """value if it is a JSON integer; a float such as 1.9, a string such as
    "1" and a bool are refused, not truncated or converted."""
    if type(value) is not int:
        raise ScenarioError(f"{where}: must be an integer, got {value!r}")
    return value


def _count(payload: Dict[str, Any], key: str) -> int:
    """payload[key] as an integer of at least 1: a smaller count runs nothing,
    and its report would pass every check while claiming nothing."""
    where = f"payload.{key}"
    n = _integer(where, _need(payload, key))
    if n < 1:
        raise ScenarioError(f"{where}: must be at least 1, got {n}")
    return n


def _vectors(data, ctx: ScalarContext, where: str) -> List[SparseVector]:
    if not isinstance(data, list):
        raise ScenarioError(f"{where}: must be a list of vectors")
    return [_field(f"{where}[{k}]", serialize.decode_vector, v, ctx)
            for k, v in enumerate(data)]


def _enumeration(data, ctx: ScalarContext, where: str) -> Enumeration:
    return _field(where, Enumeration, tuple(_vectors(data, ctx, where)))


def _seminorm(payload: Dict[str, Any], ctx: ScalarContext) -> SeminormSpec:
    """payload.p, refused without weights: that seminorm is zero, so it
    bounds nothing and every vector lies in its kernel."""
    p = _field("payload.p", serialize.decode_seminorm, _need(payload, "p"), ctx)
    if not p.weights:
        raise ScenarioError("payload.p: a seminorm needs at least one weight")
    return p


def _positive(where: str, text, ctx: ScalarContext) -> Scalar:
    """The scalar of `text`, refused unless positive: an eps bounds a strict
    inequality, so with eps <= 0 a run could never pass."""
    value = _field(where, ctx.parse, text)
    if not value > 0:
        raise ScenarioError(f"{where}: must be positive, got {ctx.format(value)}")
    return value


def parse_eps_schedule(spec, count: int, ctx: ScalarContext = EXACT) -> List[Scalar]:
    """An explicit list of positive scalars or "geometric:r" with slots r^(j+1)."""
    if isinstance(spec, str):
        kind, _, arg = spec.partition(":")
        if kind != "geometric" or not arg:
            raise ScenarioError(f"eps_schedule: unknown form {spec!r}")
        r = _field("eps_schedule", ctx.parse, arg)
        if not 0 < r < 1:
            raise ScenarioError("eps_schedule: ratio must lie in (0, 1)")
        return [r ** (j + 1) for j in range(1, count + 1)]
    if not isinstance(spec, list):
        raise ScenarioError("eps_schedule: must be a list of scalars or 'geometric:r'")
    return [_positive(f"eps_schedule[{k}]", v, ctx) for k, v in enumerate(spec)]


def run_scenario(scenario: Scenario) -> Report:
    ctx = ScalarContext(mode=scenario.scalar_mode)
    rng = random.Random(scenario.seed)
    report = Report(
        scenario=scenario.name,
        task=scenario.task,
        scalar_mode=scenario.scalar_mode,
        seed=scenario.seed,
        scenario_hash=scenario_hash({key: getattr(scenario, key) for key in FIELDS}),
        version=__version__,
    )
    runner = _RUNNERS[scenario.task]
    runner(scenario, ctx, rng, report)
    if scenario.expected is not None:
        match = scenario.expected == report.to_dict()
        report.checks.append(CheckResult(
            "regression-match", match,
            "stored expected report reproduced" if match else "report drifted",
        ))
    return report


def _random_window_vector(rng, window: int, ctx: ScalarContext) -> SparseVector:
    entries = {}
    for i in rng.sample(range(1, window + 1), rng.randint(0, min(window, 5))):
        num = rng.randint(-8, 8)
        den = rng.choice([1, 2, 4])
        entries[i] = ctx.coerce(Fraction(num, den))
    return SparseVector(entries)


def _run_transport_task(scenario: Scenario, ctx, rng, report: Report):
    payload = scenario.payload
    _known(payload, ("a", "b", "p", "disk", "stages", "eps_schedule"), "payload", "transport")
    a = _enumeration(_need(payload, "a"), ctx, "payload.a")
    b = _enumeration(_need(payload, "b"), ctx, "payload.b")
    p = _seminorm(payload, ctx)
    disk = _field("payload.disk", serialize.decode_disk, _need(payload, "disk"), ctx)
    stages = _count(payload, "stages")
    schedule = parse_eps_schedule(
        payload.get("eps_schedule", "geometric:1/2"), 2 * stages, ctx
    )

    try:
        state = run_transport(a, b, p, disk, schedule, stages, ctx)
    except StageFailure as exc:
        report.checks.append(CheckResult("transport-run", False,
                                         f"aborted at stage {exc.stage}: {exc.__cause__}"))
        report.data["aborted_stage"] = exc.stage
        return
    report.checks.append(CheckResult("transport-run", True, f"{stages} stages"))
    verification = verify_transport(state, ctx)
    j = state.operator
    report.checks.extend(verification.checks)

    rows = [[str(jj), str(n), str(m), serialize.format_vector(residual)]
            for jj, (n, m, residual) in enumerate(
                zip(state.n_idx, state.m_idx, verification.residuals), start=1)]
    report.tables.append(Table("matched-pairs", ["j", "n_j", "m_j", "residual"], rows))
    report.data["budget"] = ctx.format(verification.budget)
    report.data["operator"] = serialize.encode_operator(j)
    report.data["state"] = {
        "stage": state.stage,
        "n_idx": list(state.n_idx),
        "m_idx": list(state.m_idx),
        "epsilons": [ctx.format(e) for e in state.epsilons],
    }

    # seeded spot-check: J fixes random vectors supported outside active(p)
    kernel_coords = [i for i in range(1, scenario.window + 1) if i not in p.active]
    fixed = True
    if kernel_coords:
        for _ in range(20):
            x = SparseVector(
                {i: ctx.coerce(rng.randint(-9, 9))
                 for i in rng.sample(kernel_coords, min(3, len(kernel_coords)))}
            )
            if not close(j.apply(x, ctx), x, ctx):
                fixed = False
    report.checks.append(CheckResult(
        "kernel-fixing-spot-check", fixed,
        "20 seeded kernel vectors" if kernel_coords
        else "no window coordinate lies outside active(p)"))


def _run_triangularize_task(scenario: Scenario, ctx, rng, report: Report):
    payload = scenario.payload
    _known(payload, ("basis", "stages"), "payload", "triangularize")
    basis = _vectors(_need(payload, "basis"), ctx, "payload.basis")
    stages = _count(payload, "stages")
    funcs = [CoordFunctional.delta(i, ctx) for i in range(1, scenario.window + 1)]
    state = interleave_triangularize(basis, funcs, stages, ctx)

    built = state.built
    report.checks.append(CheckResult("minors-invertible",
                                     all(not ctx.is_zero(d) for d in state.minors),
                                     f"{built} leading minors"))
    # the funcs are coordinate functionals, so f_alpha(j)(v_m) = matrix[j - 1][m - 1]
    matrix = shuffled_matrix(state)
    tri_ok = all(matrix[j][m] == (1 if j == m else 0)
                 for m in range(built) for j in range(m + 1))
    report.checks.append(CheckResult("biorthogonal-triangular", tri_ok,
                                     "f_alpha(j)(v_m) identities"))
    op = build_omega_operator(state)
    unit_lower = all(
        matrix[j][j] == 1 and all(ctx.is_zero(matrix[j][t]) for t in range(j + 1, built))
        for j in range(built)
    )
    report.checks.append(CheckResult("unit-lower-triangular", unit_lower,
                                     "matrix in the shuffled basis"))

    report.tables.append(Table(
        "prefixes", ["m", "alpha_m", "beta_m", "minor_det"],
        [[str(m + 1), str(a), str(bb), ctx.format(d)]
         for m, (a, bb, d) in enumerate(zip(state.alpha, state.beta, state.minors))],
    ))
    report.tables.append(Table(
        "combined-vectors", ["m", "v_m"],
        [[str(m + 1), serialize.format_vector(v)] for m, v in enumerate(state.v)],
    ))
    report.data["operator"] = serialize.encode_operator(op)
    report.data["coeffs"] = [[ctx.format(c) for c in row] for row in state.coeffs]


def _run_disk_task(scenario: Scenario, ctx, rng, report: Report):
    payload = scenario.payload
    if "generators" in payload:
        _known(payload, ("generators", "probes"), "payload", "a generator disk")
        gens = _vectors(payload["generators"], ctx, "payload.generators")
        if not gens:
            raise ScenarioError("payload.generators: a disk needs at least one generator")
        disk = DiskSpec.from_generators(gens)
        inside = True
        rows = []
        for i, g in enumerate(gens, start=1):
            gauge = minkowski(disk, g, ctx)
            rows.append([str(i), serialize.format_vector(g), ctx.format(gauge)])
            if not gauge <= 1:
                inside = False
        report.checks.append(CheckResult("generators-inside-disk", inside,
                                         "p_K(x_j) <= 1 for every generator"))
        report.tables.append(Table("generator-gauges", ["j", "generator", "p_K"], rows))
        probe_rows = []
        for v in _vectors(payload.get("probes", []), ctx, "payload.probes"):
            try:
                value = ctx.format(minkowski(disk, v, ctx))
            except NotInSpan:
                value = "NOT_IN_SPAN"
            probe_rows.append([serialize.format_vector(v), value])
        if probe_rows:
            report.tables.append(Table("probes", ["vector", "p_K"], probe_rows))
    elif "common" in payload:
        _known(payload, ("common",), "payload", "a common disk")
        spec = payload["common"]
        _known(spec, ("a", "b", "targets", "eps"), "payload.common", "a common disk")
        a = _enumeration(_need(spec, "a", "payload.common"), ctx, "payload.common.a")
        b = _enumeration(_need(spec, "b", "payload.common"), ctx, "payload.common.b")
        targets = tuple(_vectors(_need(spec, "targets", "payload.common"), ctx,
                                 "payload.common.targets"))
        if not targets:
            raise ScenarioError("payload.common.targets: a net needs at least one target")
        eps = _field("payload.common.eps", ctx.parse, _need(spec, "eps", "payload.common"))
        if eps < 0:
            # 0 stays valid: the net test is dist <= eps
            raise ScenarioError(f"payload.common.eps: must be at least 0, got {ctx.format(eps)}")
        net = EpsilonNet(window=scenario.window, targets=targets, eps=eps)
        result = common_disk(a, b, net, ctx=ctx)
        report.checks.append(CheckResult("combined-elements-inside-disk",
                                         all(minkowski(result.disk, z, ctx) <= 1
                                             for z in result.combined),
                                         f"{len(result.combined)} elements"))
        report.data["eps_a"] = ctx.format(result.eps_a)
        report.data["eps_b"] = ctx.format(result.eps_b)
        report.data["domination"] = ctx.format(result.domination)
        report.tables.append(Table(
            "residual-schedule", ["m", "dist_a", "dist_b"],
            [[str(m), ctx.format(da), ctx.format(db)]
             for m, da, db in result.schedule],
        ))
        for label, items, scans in zip("ab", (a.items, b.items), result.scans):
            rows = [
                [serialize.format_vector(t), serialize.format_vector(nearest),
                 ctx.format(dist)]
                for t, nearest, dist in net_report(items, net, scans)
            ]
            report.tables.append(Table(
                f"net-report-{label}", ["target", "nearest", "distance"], rows,
            ))
        report.tables.append(Table(
            "disk-weights", ["i", "d_i"],
            [[str(i), ctx.format(w)] for i, w in sorted(result.disk.weights.items())],
        ))
    else:
        raise ScenarioError("payload: disk task needs 'generators' or 'common'")


def _run_hypercyclic_task(scenario: Scenario, ctx, rng, report: Report):
    payload = scenario.payload
    kind = _need(payload, "mode")
    if kind == "build-shift":
        _known(payload, ("mode", "basis", "p", "disk"), "payload", "build-shift")
        basis = _vectors(_need(payload, "basis"), ctx, "payload.basis")
        if not basis:
            raise ScenarioError("payload.basis: build-shift needs at least one vector")
        p = _seminorm(payload, ctx)
        disk = _field("payload.disk", serialize.decode_disk, _need(payload, "disk"), ctx)
        spec = build_shift_operator(basis, p, disk, ctx)
        s = spec.operator
        chain_ok = close(s.apply(spec.us[0], ctx), SparseVector.zero(), ctx) and all(
            close(s.apply(spec.us[k], ctx), spec.us[k - 1].scale(spec.weights[k - 1]), ctx)
            for k in range(1, len(spec.us))
        )
        report.checks.append(CheckResult("chain-identities", chain_ok,
                                         "S u_1 = 0 and S u_k = w_{k-1} u_{k-1}"))
        bound_ok = True
        for _ in range(100):
            x = _random_window_vector(rng, scenario.window, ctx)
            if not minkowski(disk, s.apply(x, ctx), ctx) <= eval_seminorm(p, x):
                bound_ok = False
        report.checks.append(CheckResult("continuity-bound", bound_ok,
                                         "p_D(S x) <= p(x) on 100 seeded vectors"))
        report.tables.append(Table(
            "weights", ["n", "w_n"],
            [[str(n + 1), ctx.format(w)] for n, w in enumerate(spec.weights)],
        ))
        report.data["operator"] = serialize.encode_operator(s)
        premise = range_kernel_premise_check(s, scenario.window, min(len(basis), 6), ctx)
        report.data["premise_span_dim"] = premise.window_meet_dim
    elif kind == "witness":
        _known(payload, ("mode", "operator", "x", "y", "p", "eps", "max_n"), "payload",
               "witness")
        op = _field("payload.operator", serialize.decode_operator,
                    _need(payload, "operator"), ctx)
        x = _field("payload.x", serialize.decode_vector, _need(payload, "x"), ctx)
        y = _field("payload.y", serialize.decode_vector, _need(payload, "y"), ctx)
        p = _seminorm(payload, ctx)
        eps = _positive("payload.eps", _need(payload, "eps"), ctx)
        max_n = _count(payload, "max_n")
        try:
            n, z = transitivity_witness(op, x, y, eps, max_n, p,
                                        window=scenario.window, ctx=ctx)
        except WitnessNotFound as exc:
            report.checks.append(CheckResult("witness-found", False, str(exc)))
            report.data["best_n"] = exc.best_n
            report.data["best_residual"] = ctx.format(exc.best_residual)
            return
        image = orbit(op, z, n + 1, ctx)[n]
        res_x = eval_seminorm(p, z - x)
        res_y = eval_seminorm(p, image - y)
        report.checks.append(CheckResult("witness-found", True, f"n = {n}"))
        report.checks.append(CheckResult("residuals-below-eps",
                                         res_x < eps and res_y < eps,
                                         f"{ctx.format(res_x)}, {ctx.format(res_y)}"))
        report.tables.append(Table(
            "witness", ["n", "residual_x", "residual_y"],
            [[str(n), ctx.format(res_x), ctx.format(res_y)]],
        ))
        report.data["z"] = serialize.encode_pairs(z)
    elif kind == "demo":
        _known(payload, ("mode", "x0", "horizon"), "payload", "demo")
        x0 = _field("payload.x0", serialize.decode_vector, _need(payload, "x0"), ctx)
        horizon = _count(payload, "horizon")
        steps = omega_shift_demo(scenario.window, x0, horizon, ctx)
        report.checks.append(CheckResult("demo-run", True, f"{horizon} steps"))
        report.tables.append(Table(
            "orbit", ["n", "T^n x0"],
            [[str(i), serialize.format_vector(x)] for i, x in enumerate(steps)],
        ))
    else:
        raise ScenarioError(f"payload.mode: unknown hypercyclic mode {kind!r}")


def _run_refute_task(scenario: Scenario, ctx, rng, report: Report):
    payload = scenario.payload
    _known(payload, ("family_levels", "first_active", "b", "operator", "x", "horizon"),
           "payload", "refute")
    levels = _count(payload, "family_levels")
    first = _count(payload, "first_active") if "first_active" in payload else 1
    family = [
        SeminormSpec.sup_on(range(1, first + n), ctx.one)
        for n in range(1, levels + 1)
    ]
    b = _enumeration(payload.get("b", []), ctx, "payload.b")
    ns = build_nonorbit_set(family, b, ctx)
    op = _field("payload.operator", serialize.decode_operator,
                _need(payload, "operator"), ctx)
    x = _field("payload.x", serialize.decode_vector, _need(payload, "x"), ctx)
    horizon = _count(payload, "horizon")
    result = refute_orbit(op, x, ns, horizon, ctx)

    # divergence findings are facts about the candidate, not check failures
    report.checks.append(CheckResult("refute-instrumented", True,
                                     f"horizon {horizon}, |A| = {len(ns.items)}"))
    report.tables.append(Table(
        "membership", ["n", "in_A"],
        [[str(i), str(int(ok))] for i, ok in enumerate(result.in_a)],
    ))
    report.tables.append(Table(
        "m-set", ["n"], [[str(n)] for n in result.m_set],
    ))
    report.data["diverges"] = result.diverges
    report.data["covers_a"] = result.covers_a
    report.data["m_count"] = result.m_count
    report.data["p1_partial_sum"] = ctx.format(result.p1_partial_sum)
    report.data["series_sums"] = {
        str(k): ctx.format(v) for k, v in sorted(result.series_sums.items())
    }
    report.data["first_exit"] = result.first_exit
    report.data["orbit_p1_rank"] = result.orbit_p1_rank


_RUNNERS = {
    "transport": _run_transport_task,
    "triangularize": _run_triangularize_task,
    "disk": _run_disk_task,
    "hypercyclic": _run_hypercyclic_task,
    "refute": _run_refute_task,
}
