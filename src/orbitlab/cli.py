"""Command line entry: scenario runner plus direct per-task subcommands.

`orbitlab run` executes scenario files in turn, optionally against a stored
expected report (`--jobs` is accepted and ignored); the other subcommands
assemble a scenario from flags and files for one-off runs.  Exit code 0 means every check in every
report passed, 1 that a check failed and 2 that an input was unusable; an
unusable scenario in a batch is reported and the others still run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from .errors import WorkbenchError
from .reports import Report, emit_report
from .scenarios import Scenario, ScenarioError, run_scenario

OUT_ENV = "ORBITLAB_OUT"

# errors that make an input unusable (exit 2) rather than failed (exit 1)
UNUSABLE = (WorkbenchError, OSError)


def _load_json(path: str):
    """The JSON value of a file; ScenarioError, led by the path, if it cannot be read as JSON."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc.strerror or exc}") from None
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, nested too deep
        raise ScenarioError(f"{path}: {exc}") from None


def _emit(report: Report, fmt: str, out_dir: Optional[str], label: str) -> bytes:
    blob = emit_report(report, fmt)
    if out_dir:
        ext = {"json": "json", "csv": "csv", "text": "txt"}[fmt]
        target = Path(out_dir) / f"{label}.{ext}"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(blob)
    else:
        sys.stdout.write(blob.decode("utf-8"))
    return blob


def _run_one(path: str):
    """The report of one scenario file, or the `path: reason` text of the
    error that made it unusable."""
    try:
        data = _load_json(path)
    except ScenarioError as exc:
        return str(exc)
    try:
        return run_scenario(Scenario.from_dict(data))
    except UNUSABLE as exc:
        return f"{path}: {exc}"


def _cmd_run(args) -> int:
    if args.check and len(args.scenario) > 1:
        raise ScenarioError(f"--check holds one report; got {len(args.scenario)} --scenario files")
    out_dir = args.out or os.environ.get(OUT_ENV)
    expected = Path(args.check).read_bytes() if args.check else None
    unusable, failed, written = [], [], {}
    for path, outcome in zip(args.scenario, map(_run_one, args.scenario)):
        stem = Path(path).stem
        if out_dir and stem in written and not isinstance(outcome, str):
            outcome = f"{path}: report {stem!r} already written for {written[stem]}"
        if isinstance(outcome, str):
            sys.stderr.write(f"error: {outcome}\n")
            unusable.append(path)
            continue
        written[stem] = path
        _emit(outcome, args.format, out_dir, stem)
        if expected is not None and expected != emit_report(outcome, "json"):
            sys.stderr.write(f"{path}: report differs from {args.check}\n")
            failed.append(path)
        elif not outcome.passed:
            failed.append(path)
    for path in failed:
        sys.stderr.write(f"FAIL {path}\n")
    return 2 if unusable else 1 if failed else 0


def _finish(args, task: str, payload: dict) -> int:
    """Run the scenario of a direct subcommand, validated as a scenario file
    is, and emit its report.  --name names the report files, so it must be a
    plain file name: one with a path separator, or . or .., could leave --out."""
    if args.name in ("", ".", "..") or any(sep in args.name for sep in (os.sep, os.altsep) if sep):
        raise ScenarioError(f"--name: must be a plain file name, got {args.name!r}")
    scenario = Scenario.from_dict({
        "name": args.name,
        "scalar_mode": "exact",
        "window": args.window,
        "seed": args.seed,
        "task": task,
        "payload": payload,
    })
    report = run_scenario(scenario)
    out_dir = args.out or os.environ.get(OUT_ENV)
    _emit(report, args.format, out_dir, scenario.name)
    if out_dir and args.format == "json":
        # companion CSV for the tabular sections
        _emit(report, "csv", out_dir, scenario.name)
    return 0 if report.passed else 1


def _cmd_transport(args) -> int:
    payload = {
        "a": _load_json(args.a),
        "b": _load_json(args.b),
        "p": _load_json(args.p),
        "disk": _load_json(args.disk),
        "stages": args.stages,
        "eps_schedule": args.eps_schedule,
    }
    return _finish(args, "transport", payload)


def _cmd_triangularize(args) -> int:
    payload = {"basis": _load_json(args.basis), "stages": args.stages}
    return _finish(args, "triangularize", payload)


def _refuse_unread(args, command: str, flags) -> None:
    """Refuse a flag the chosen mode does not read: its file would go unopened,
    or its value unused, and the run would pass without it.  Such flags
    default to None, and a mode that reads one fills in its own default."""
    given = [f"--{flag.replace('_', '-')}" for flag in flags if getattr(args, flag) is not None]
    if given:
        raise ScenarioError(f"{command} does not read {', '.join(given)}")


def _cmd_disks(args) -> int:
    if args.from_null_seq:
        _refuse_unread(args, "disks --from-null-seq", ("common", "targets", "eps"))
        payload = {"generators": _load_json(args.from_null_seq)}
        if args.probes:
            payload["probes"] = _load_json(args.probes)
    elif args.common:
        _refuse_unread(args, "disks --common", ("probes",))
        a_path, b_path = args.common
        if not args.targets:
            raise ScenarioError("--common needs --targets FILE")
        payload = {
            "common": {
                "a": _load_json(a_path),
                "b": _load_json(b_path),
                "targets": _load_json(args.targets),
                "eps": "1/4" if args.eps is None else args.eps,
            }
        }
    else:
        raise ScenarioError("disks needs --from-null-seq or --common")
    return _finish(args, "disk", payload)


def _cmd_hypercyclic(args) -> int:
    def load(flag: str):
        """The JSON file of a --flag the mode needs; every one is optional to argparse."""
        path = getattr(args, flag)
        if path is None:
            raise ScenarioError(f"hypercyclic {args.mode} needs --{flag} FILE")
        return _load_json(path)

    reads = {  # payload key: the flag of its file, in the order the files are opened
        "build-shift": {"basis": "basis", "p": "p", "disk": "disk"},
        "witness": {"operator": "op", "x": "x", "y": "y", "p": "p"},
        "demo": {"x0": "x"},
    }[args.mode]
    values = {  # payload key and flag: its default
        "build-shift": {},
        "witness": {"eps": "1/1000", "max_n": 64},
        "demo": {"horizon": 8},
    }[args.mode]
    _refuse_unread(args, f"hypercyclic {args.mode}", [
        flag for flag in ("basis", "p", "disk", "op", "x", "y", "eps", "max_n", "horizon")
        if flag not in reads.values() and flag not in values])
    payload = {"mode": args.mode, **{key: load(flag) for key, flag in reads.items()}}
    payload.update({key: default if getattr(args, key) is None else getattr(args, key)
                    for key, default in values.items()})
    return _finish(args, "hypercyclic", payload)


def _cmd_refute(args) -> int:
    payload = {
        "family_levels": args.levels,
        "first_active": args.first_active,
        "b": _load_json(args.b) if args.b else [],
        "operator": _load_json(args.op),
        "x": _load_json(args.x),
        "horizon": args.horizon,
    }
    return _finish(args, "refute", payload)


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--name", default="adhoc")
    parser.add_argument("--window", type=int, default=12)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", default="json", choices=["json", "csv", "text"])
    parser.add_argument("--out", default=None,
                        help=f"output directory (default: ${OUT_ENV} or stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitlab",
        description="finite-stage operator transport and shift workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run scenario files")
    run_p.add_argument("--scenario", action="append", required=True)
    run_p.add_argument("--format", default="json", choices=["json", "csv", "text"])
    run_p.add_argument("--jobs", type=int, default=1, help="accepted; scenarios run in turn")
    run_p.add_argument("--check", default=None,
                       help="compare the JSON report of the one --scenario against a stored file")
    run_p.add_argument("--out", default=None)
    run_p.set_defaults(func=_cmd_run)

    tr = sub.add_parser("transport", help="back-and-forth matching of two enumerations")
    tr.add_argument("--a", required=True)
    tr.add_argument("--b", required=True)
    tr.add_argument("--p", required=True)
    tr.add_argument("--disk", required=True)
    tr.add_argument("--stages", type=int, required=True)
    tr.add_argument("--eps-schedule", default="geometric:1/2")
    _add_common(tr)
    tr.set_defaults(func=_cmd_transport)

    tg = sub.add_parser("triangularize", help="interleaved minor-preserving prefixes")
    tg.add_argument("--basis", required=True)
    tg.add_argument("--stages", type=int, required=True)
    _add_common(tg)
    tg.set_defaults(func=_cmd_triangularize)

    dk = sub.add_parser("disks", help="disk gauges from null sequences or common nets")
    dk.add_argument("--from-null-seq", default=None)
    dk.add_argument("--probes", default=None)
    dk.add_argument("--common", nargs=2, metavar=("A", "B"), default=None)
    dk.add_argument("--targets", default=None)
    dk.add_argument("--eps", default=None, help="--common only (default: 1/4)")
    _add_common(dk)
    dk.set_defaults(func=_cmd_disks)

    hc = sub.add_parser("hypercyclic", help="shift assembly, witnesses, demos")
    hc.add_argument("mode", choices=["build-shift", "witness", "demo"])
    hc.add_argument("--basis", default=None)
    hc.add_argument("--p", default=None)
    hc.add_argument("--disk", default=None)
    hc.add_argument("--op", default=None)
    hc.add_argument("--x", default=None)
    hc.add_argument("--y", default=None)
    hc.add_argument("--eps", default=None, help="witness only (default: 1/1000)")
    hc.add_argument("--max-n", type=int, default=None, help="witness only (default: 64)")
    hc.add_argument("--horizon", type=int, default=None, help="demo only (default: 8)")
    _add_common(hc)
    hc.set_defaults(func=_cmd_hypercyclic)

    rf = sub.add_parser("refute", help="orbit-versus-set instrumentation")
    rf.add_argument("--op", required=True)
    rf.add_argument("--x", required=True)
    rf.add_argument("--b", default=None)
    rf.add_argument("--levels", type=int, required=True)
    rf.add_argument("--first-active", type=int, default=1)
    rf.add_argument("--horizon", type=int, default=8)
    _add_common(rf)
    rf.set_defaults(func=_cmd_refute)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UNUSABLE as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
