"""Report containers and the three emitters (json, csv, text).

Reports are deterministic by construction: no timestamps, canonical scalar
text, sorted JSON keys.  Identical scenario plus seed therefore means
identical bytes in exact mode, which is what the regression checker diffs.

The JSON emitter writes the bytes of `json.dumps(..., sort_keys=True,
indent=2)` with one recursive function, `_write_json`, as an indent sends
`json.dumps` to its pure-Python encoder.  It knows only what a report holds
(dicts with str keys, lists, str, int, bool, None) and raises TypeError on
any other type; float-mode scalars arrive as text.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Any, Dict, List, Optional

from .scalars import Scalar
from .vectors import SparseVector


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass
class VerificationReport:
    """A replayed set of invariant checks; failures are entries, not errors.

    `budget` is the Neumann budget a transport replay sums for its
    budget-below-one check, and `residuals` the J a(n_j) - b(m_j) of its
    exact-matching check, one per matched pair in order, for the report's data.
    """

    checks: List[CheckResult] = field(default_factory=list)
    budget: Optional[Scalar] = None
    residuals: List[SparseVector] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass
class Table:
    """A named tabular section; cells are canonical scalar/index strings."""

    name: str
    columns: List[str]
    rows: List[List[str]]

    def to_dict(self) -> dict:
        return {"name": self.name, "columns": self.columns, "rows": self.rows}


@dataclass
class Report:
    """One scenario's outcome: checks, tables, and free-form data."""

    scenario: str
    task: str
    scalar_mode: str
    seed: int
    scenario_hash: str
    version: str
    checks: List[CheckResult] = field(default_factory=list)
    tables: List[Table] = field(default_factory=list)
    data: Dict[str, Any] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "task": self.task,
            "scalar_mode": self.scalar_mode,
            "seed": self.seed,
            "scenario_hash": self.scenario_hash,
            "version": self.version,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
            "tables": [t.to_dict() for t in self.tables],
            "data": self.data,
        }


def scenario_hash(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _write_json(value, indent: str, out: List[str]) -> None:
    """Append to `out` the text `json.dumps(value, sort_keys=True, indent=2)`
    gives `value` at the depth whose line break and indent is `indent`."""
    kind = type(value)
    if kind is str:
        out.append(encode_basestring_ascii(value))
    elif kind is list:
        inner = indent + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            sep = "," + inner
            _write_json(item, inner, out)
        out.append(indent + "]" if value else "[]")
    elif kind is dict:
        inner = indent + "  "
        sep = "{" + inner
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + encode_basestring_ascii(key) + ": ")
            sep = "," + inner
            _write_json(value[key], inner, out)
        out.append(indent + "}" if value else "{}")
    elif value is None or kind is bool:
        out.append("null" if value is None else "true" if value else "false")
    elif kind is int:
        out.append(repr(value))
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def emit_json(report: Report) -> bytes:
    out: List[str] = []
    _write_json(report.to_dict(), "\n", out)
    out.append("\n")
    return "".join(out).encode("utf-8")


def emit_csv(report: Report) -> bytes:
    """Tables as sections: a `# table: NAME` marker, a header row, data rows."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for table in report.tables:
        out.write(f"# table: {table.name}\n")
        writer.writerow(table.columns)
        for row in table.rows:
            writer.writerow(row)
        out.write("\n")
    return out.getvalue().encode("utf-8")


def emit_text(report: Report) -> bytes:
    lines = [
        f"scenario: {report.scenario}",
        f"task: {report.task}",
        f"scalar mode: {report.scalar_mode}   seed: {report.seed}",
        f"scenario hash: {report.scenario_hash}",
        f"version: {report.version}",
        "",
    ]
    for check in report.checks:
        mark = "PASS" if check.passed else "FAIL"
        lines.append(f"[{mark}] {check.name}" + (f": {check.detail}" if check.detail else ""))
    for table in report.tables:
        lines.append("")
        lines.append(f"-- {table.name} --")
        lines.append(" | ".join(table.columns))
        for row in table.rows:
            lines.append(" | ".join(row))
    lines.append("")
    lines.append("result: " + ("PASS" if report.passed else "FAIL"))
    return ("\n".join(lines) + "\n").encode("utf-8")


EMITTERS = {"json": emit_json, "csv": emit_csv, "text": emit_text}


def emit_report(report: Report, fmt: str) -> bytes:
    try:
        emitter = EMITTERS[fmt]
    except KeyError:
        raise ValueError(f"unknown report format {fmt!r}") from None
    return emitter(report)
