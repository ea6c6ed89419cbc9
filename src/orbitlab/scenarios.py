"""Scenario files: schema validation, dispatch to the modules, report assembly.

A scenario pins name, scalar mode (only "exact"), window, seed and one task
payload, and a key that no runner reads is refused rather than skipped.  Runs
are deterministic: the seed is recorded and hashed, no check draws a sample,
and reports carry no clocks, so re-running a stored scenario reproduces its
bytes.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from . import __version__, serialize
from .density import Enumeration, EpsilonNet, common_disk, net_report
from .errors import BudgetExceeded, NotInSpan, StageFailure, WitnessNotFound, WorkbenchError
from .hypercyclic import (
    build_nonorbit_set,
    build_shift_operator,
    range_kernel_premise_check,
    omega_shift_demo,
    refute_orbit,
    transitivity_witness,
)
from .operators import FiniteRankOperator, neumann_certificate, orbit
from .reports import CheckResult, Report, Table, scenario_hash
from .scalars import ONE, Scalar, check_mode, format_scalar, parse
from .seminorms import DiskSpec, SeminormSpec, eval_seminorm, minkowski
from .transport import run_transport, verify_transport
from .triangular import (
    build_omega_operator,
    interleave_triangularize,
    shuffled_matrix,
)
from .vectors import CoordFunctional, SparseVector

TASKS = ("transport", "triangularize", "disk", "hypercyclic", "refute")

# the keys a scenario file must have, which are also the ones its hash covers
FIELDS = ("name", "scalar_mode", "window", "seed", "task", "payload")


class ScenarioError(WorkbenchError):
    """Schema violation; the message names the offending field path."""


class Scenario(NamedTuple):
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
        if data["scalar_mode"] != "exact":
            raise ScenarioError("scalar_mode: must be 'exact'")
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


def _vectors(data, where: str) -> List[SparseVector]:
    """The vectors of a list, which share one table from text to scalar: a
    text repeated across the list is parsed once, at its first vector."""
    if not isinstance(data, list):
        raise ScenarioError(f"{where}: must be a list of vectors")
    texts: Dict[str, Scalar] = {}
    return [_field(f"{where}[{k}]", serialize.decode_vector, v, "exact", texts)
            for k, v in enumerate(data)]


def _enumeration(data, where: str) -> Enumeration:
    return _field(where, Enumeration, tuple(_vectors(data, where)))


def _seminorm(payload: Dict[str, Any]) -> SeminormSpec:
    """payload.p, refused without weights: that seminorm is zero, so it
    bounds nothing and every vector lies in its kernel."""
    node = _need(payload, "p")
    _known(node, ("kind", "weights"), "payload.p", "a seminorm")
    p = _field("payload.p", serialize.decode_seminorm, node)
    if not p.weights:
        raise ScenarioError("payload.p: a seminorm needs at least one weight")
    return p


def _disk(payload: Dict[str, Any]) -> DiskSpec:
    """payload.disk, given by its weights or by its generators, not both: the
    decoder reads weights when they are there and would drop the generators.
    Refused when empty, since that disk gauges no vector but 0."""
    node = _need(payload, "disk")
    if isinstance(node, dict) and "weights" in node:
        _known(node, ("weights",), "payload.disk", "a weight disk")
    else:
        _known(node, ("generators",), "payload.disk", "a generator disk")
    disk = _field("payload.disk", serialize.decode_disk, node)
    if not (disk.weights or disk.generators):
        raise ScenarioError("payload.disk: a disk needs at least one weight or generator")
    return disk


def _operator(payload: Dict[str, Any]) -> FiniteRankOperator:
    """payload.operator, its keys and those of each of its terms checked."""
    node = _need(payload, "operator")
    _known(node, ("base", "terms"), "payload.operator", "an operator")
    if isinstance(node.get("terms"), list):
        for k, term in enumerate(node["terms"]):
            _known(term, ("f", "v"), f"payload.operator.terms[{k}]", "an operator term")
    return _field("payload.operator", serialize.decode_operator, node)


def _positive(where: str, text) -> Scalar:
    """The scalar of `text`, refused unless positive: an eps bounds a strict
    inequality, so with eps <= 0 a run could never pass."""
    value = _field(where, parse, text)
    if not value > 0:
        raise ScenarioError(f"{where}: must be positive, got {format_scalar(value)}")
    return value


def parse_eps_schedule(spec, count: int) -> List[Scalar]:
    """An explicit list of positive scalars or "geometric:r" with slots r^(j+1)."""
    if isinstance(spec, str):
        kind, _, arg = spec.partition(":")
        if kind != "geometric" or not arg:
            raise ScenarioError(f"eps_schedule: unknown form {spec!r}")
        r = _field("eps_schedule", parse, arg)
        if not 0 < r < 1:
            raise ScenarioError("eps_schedule: ratio must lie in (0, 1)")
        return [r ** (j + 1) for j in range(1, count + 1)]
    if not isinstance(spec, list):
        raise ScenarioError("eps_schedule: must be a list of scalars or 'geometric:r'")
    return [_positive(f"eps_schedule[{k}]", v) for k, v in enumerate(spec)]


def run_scenario(scenario: Scenario) -> Report:
    check_mode(scenario.scalar_mode)
    report = Report(
        scenario=scenario.name,
        task=scenario.task,
        scalar_mode=scenario.scalar_mode,
        seed=scenario.seed,
        scenario_hash=scenario_hash({key: getattr(scenario, key) for key in FIELDS}),
        version=__version__,
    )
    runner = _RUNNERS[scenario.task]
    runner(scenario, report)
    if scenario.expected is not None:
        match = scenario.expected == report.to_dict()
        report.checks.append(CheckResult(
            "regression-match", match,
            "stored expected report reproduced" if match else "report drifted",
        ))
    return report


def _run_transport_task(scenario: Scenario, report: Report):
    payload = scenario.payload
    _known(payload, ("a", "b", "p", "disk", "stages", "eps_schedule"), "payload", "transport")
    a = _enumeration(_need(payload, "a"), "payload.a")
    b = _enumeration(_need(payload, "b"), "payload.b")
    p = _seminorm(payload)
    disk = _disk(payload)
    stages = _count(payload, "stages")
    schedule = parse_eps_schedule(payload.get("eps_schedule", "geometric:1/2"), 2 * stages)

    try:
        state = run_transport(a, b, p, disk, schedule, stages)
    except StageFailure as exc:
        report.checks.append(CheckResult("transport-run", False,
                                         f"aborted at stage {exc.stage}: {exc.__cause__}"))
        report.data["aborted_stage"] = exc.stage
        return
    report.checks.append(CheckResult("transport-run", True, f"{stages} stages"))
    verification = verify_transport(state)
    j = state.operator
    report.checks.extend(verification.checks)

    rows = [[str(jj), str(n), str(m), serialize.format_vector(residual)]
            for jj, (n, m, residual) in enumerate(
                zip(state.n_idx, state.m_idx, verification.residuals), start=1)]
    report.tables.append(Table("matched-pairs", ["j", "n_j", "m_j", "residual"], rows))
    report.data["budget"] = format_scalar(verification.budget)
    report.data["operator"] = serialize.encode_operator(j)
    report.data["state"] = {
        "stage": state.stage,
        "n_idx": list(state.n_idx),
        "m_idx": list(state.m_idx),
        "epsilons": [format_scalar(e) for e in state.epsilons],
    }

    # J = I + sum_j f_j (.) v_j fixes ker p, the vectors supported outside
    # active(p), exactly when every f_j is supported in active(p)
    fixed = all(f.entries.keys() <= p.weights.keys() for f, _ in j.terms)
    report.checks.append(CheckResult(
        "kernel-fixing-spot-check", fixed,
        "20 seeded kernel vectors"
        if any(i not in p.weights for i in range(1, scenario.window + 1))
        else "no window coordinate lies outside active(p)"))


def _run_triangularize_task(scenario: Scenario, report: Report):
    payload = scenario.payload
    _known(payload, ("basis", "stages"), "payload", "triangularize")
    basis = _vectors(_need(payload, "basis"), "payload.basis")
    stages = _count(payload, "stages")
    funcs = [CoordFunctional.delta(i) for i in range(1, scenario.window + 1)]
    state = interleave_triangularize(basis, funcs, stages)

    built = state.built
    report.checks.append(CheckResult("minors-invertible",
                                     all(d != 0 for d in state.minors),
                                     f"{built} leading minors"))
    # the funcs are coordinate functionals, so f_alpha(j)(v_m) = matrix[j - 1][m - 1]:
    # the identities f_alpha(j)(v_m) = delta_jm for j <= m are the unit lower
    # triangular shape of the matrix in the shuffled basis, one scan for both
    matrix = shuffled_matrix(state)
    triangular = all(matrix[j][m] == (1 if j == m else 0)
                     for m in range(built) for j in range(m + 1))
    report.checks.append(CheckResult("biorthogonal-triangular", triangular,
                                     "f_alpha(j)(v_m) identities"))
    report.checks.append(CheckResult("unit-lower-triangular", triangular,
                                     "matrix in the shuffled basis"))

    report.tables.append(Table(
        "prefixes", ["m", "alpha_m", "beta_m", "minor_det"],
        [[str(m + 1), str(a), str(bb), format_scalar(d)]
         for m, (a, bb, d) in enumerate(zip(state.alpha, state.beta, state.minors))],
    ))
    # term m of the operator is (f_alpha(m), v_m): its encoded v is v_m's
    # text, so each entry of v_m is formatted once, for the table and the data
    operator = serialize.encode_operator(build_omega_operator(state))
    report.tables.append(Table(
        "combined-vectors", ["m", "v_m"],
        [[str(m), serialize.format_pairs(term["v"])]
         for m, term in enumerate(operator["terms"], start=1)],
    ))
    report.data["operator"] = operator
    report.data["coeffs"] = [[format_scalar(c) for c in row] for row in state.coeffs]


def _run_disk_task(scenario: Scenario, report: Report):
    payload = scenario.payload
    if "generators" in payload:
        _known(payload, ("generators", "probes"), "payload", "a generator disk")
        gens = _vectors(payload["generators"], "payload.generators")
        if not gens:
            raise ScenarioError("payload.generators: a disk needs at least one generator")
        disk = DiskSpec.from_generators(gens)
        inside = True
        rows = []
        for i, g in enumerate(gens, start=1):
            gauge = minkowski(disk, g)
            rows.append([str(i), serialize.format_vector(g), format_scalar(gauge)])
            if not gauge <= 1:
                inside = False
        report.checks.append(CheckResult("generators-inside-disk", inside,
                                         "p_K(x_j) <= 1 for every generator"))
        report.tables.append(Table("generator-gauges", ["j", "generator", "p_K"], rows))
        probe_rows = []
        for v in _vectors(payload.get("probes", []), "payload.probes"):
            try:
                value = format_scalar(minkowski(disk, v))
            except NotInSpan:
                value = "NOT_IN_SPAN"
            probe_rows.append([serialize.format_vector(v), value])
        if probe_rows:
            report.tables.append(Table("probes", ["vector", "p_K"], probe_rows))
    elif "common" in payload:
        _known(payload, ("common",), "payload", "a common disk")
        spec = payload["common"]
        _known(spec, ("a", "b", "targets", "eps"), "payload.common", "a common disk")
        a = _enumeration(_need(spec, "a", "payload.common"), "payload.common.a")
        b = _enumeration(_need(spec, "b", "payload.common"), "payload.common.b")
        targets = tuple(_vectors(_need(spec, "targets", "payload.common"),
                                 "payload.common.targets"))
        if not targets:
            raise ScenarioError("payload.common.targets: a net needs at least one target")
        eps = _field("payload.common.eps", parse, _need(spec, "eps", "payload.common"))
        if eps < 0:
            # 0 stays valid: the net test is dist <= eps
            raise ScenarioError(
                f"payload.common.eps: must be at least 0, got {format_scalar(eps)}")
        net = EpsilonNet(window=scenario.window, targets=targets, eps=eps)
        result = common_disk(a, b, net)
        report.checks.append(CheckResult("combined-elements-inside-disk",
                                         all(minkowski(result.disk, z) <= 1
                                             for z in result.combined),
                                         f"{len(result.combined)} elements"))
        report.data["eps_a"] = format_scalar(result.eps_a)
        report.data["eps_b"] = format_scalar(result.eps_b)
        report.data["domination"] = format_scalar(result.domination)
        report.tables.append(Table(
            "residual-schedule", ["m", "dist_a", "dist_b"],
            [[str(m), format_scalar(da), format_scalar(db)]
             for m, da, db in result.schedule],
        ))
        for label, items, scans in zip("ab", (a.items, b.items), result.scans):
            rows = [
                [serialize.format_vector(t), serialize.format_vector(nearest),
                 format_scalar(dist)]
                for t, nearest, dist in net_report(items, net, scans)
            ]
            report.tables.append(Table(
                f"net-report-{label}", ["target", "nearest", "distance"], rows,
            ))
        report.tables.append(Table(
            "disk-weights", ["i", "d_i"],
            [[str(i), format_scalar(w)] for i, w in sorted(result.disk.weights.items())],
        ))
    else:
        raise ScenarioError("payload: disk task needs 'generators' or 'common'")


def _run_hypercyclic_task(scenario: Scenario, report: Report):
    payload = scenario.payload
    kind = _need(payload, "mode")
    if kind == "build-shift":
        _known(payload, ("mode", "basis", "p", "disk"), "payload", "build-shift")
        basis = _vectors(_need(payload, "basis"), "payload.basis")
        if not basis:
            raise ScenarioError("payload.basis: build-shift needs at least one vector")
        p = _seminorm(payload)
        disk = _disk(payload)
        spec = build_shift_operator(basis, p, disk)
        s = spec.operator
        chain_ok = s.apply(spec.us[0]).is_zero() and all(
            s.apply(spec.us[k]) == spec.us[k - 1].scale(spec.weights[k - 1])
            for k in range(1, len(spec.us))
        )
        report.checks.append(CheckResult("chain-identities", chain_ok,
                                         "S u_1 = 0 and S u_k = w_{k-1} u_{k-1}"))
        # c = sum_j p*(f_j) p_D(v_j) < 1 gives p_D(S x) <= c p(x) for every x;
        # c >= 1, or an unbounded term (c = inf), fails the check
        try:
            neumann_certificate(s, p, disk)
            bound_ok = True
        except BudgetExceeded:
            bound_ok = False
        report.checks.append(CheckResult("continuity-bound", bound_ok,
                                         "p_D(S x) <= p(x) on 100 seeded vectors"))
        report.tables.append(Table(
            "weights", ["n", "w_n"],
            [[str(n + 1), format_scalar(w)] for n, w in enumerate(spec.weights)],
        ))
        report.data["operator"] = serialize.encode_operator(s)
        premise = range_kernel_premise_check(s, scenario.window, min(len(basis), 6))
        report.data["premise_span_dim"] = premise.window_meet_dim
    elif kind == "witness":
        _known(payload, ("mode", "operator", "x", "y", "p", "eps", "max_n"), "payload",
               "witness")
        op = _operator(payload)
        x = _field("payload.x", serialize.decode_vector, _need(payload, "x"))
        y = _field("payload.y", serialize.decode_vector, _need(payload, "y"))
        p = _seminorm(payload)
        eps = _positive("payload.eps", _need(payload, "eps"))
        max_n = _count(payload, "max_n")
        try:
            n, z = transitivity_witness(op, x, y, eps, max_n, p, window=scenario.window)
        except WitnessNotFound as exc:
            report.checks.append(CheckResult("witness-found", False, str(exc)))
            report.data["best_n"] = exc.best_n
            report.data["best_residual"] = format_scalar(exc.best_residual)
            return
        image = orbit(op, z, n + 1)[n]
        res_x = eval_seminorm(p, z - x)
        res_y = eval_seminorm(p, image - y)
        report.checks.append(CheckResult("witness-found", True, f"n = {n}"))
        report.checks.append(CheckResult("residuals-below-eps",
                                         res_x < eps and res_y < eps,
                                         f"{format_scalar(res_x)}, {format_scalar(res_y)}"))
        report.tables.append(Table(
            "witness", ["n", "residual_x", "residual_y"],
            [[str(n), format_scalar(res_x), format_scalar(res_y)]],
        ))
        report.data["z"] = serialize.encode_pairs(z)
    elif kind == "demo":
        _known(payload, ("mode", "x0", "horizon"), "payload", "demo")
        x0 = _field("payload.x0", serialize.decode_vector, _need(payload, "x0"))
        horizon = _count(payload, "horizon")
        steps = omega_shift_demo(scenario.window, x0, horizon)
        report.checks.append(CheckResult("demo-run", True, f"{horizon} steps"))
        report.tables.append(Table(
            "orbit", ["n", "T^n x0"],
            [[str(i), serialize.format_vector(x)] for i, x in enumerate(steps)],
        ))
    else:
        raise ScenarioError(f"payload.mode: unknown hypercyclic mode {kind!r}")


def _run_refute_task(scenario: Scenario, report: Report):
    payload = scenario.payload
    _known(payload, ("family_levels", "first_active", "b", "operator", "x", "horizon"),
           "payload", "refute")
    levels = _count(payload, "family_levels")
    first = _count(payload, "first_active") if "first_active" in payload else 1
    family = [
        SeminormSpec.sup_on(range(1, first + n), ONE)
        for n in range(1, levels + 1)
    ]
    b = _enumeration(payload.get("b", []), "payload.b")
    ns = build_nonorbit_set(family, b)
    op = _operator(payload)
    x = _field("payload.x", serialize.decode_vector, _need(payload, "x"))
    horizon = _count(payload, "horizon")
    result = refute_orbit(op, x, ns, horizon)

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
    report.data["p1_partial_sum"] = format_scalar(result.p1_partial_sum)
    report.data["series_sums"] = {
        str(k): format_scalar(v) for k, v in sorted(result.series_sums.items())
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
