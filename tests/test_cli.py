"""Scenario runner: schema errors, determinism, regression check, CLI flows."""

import copy
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from orbitlab import CoordFunctional, DiskSpec, FiniteRankOperator, SparseVector, serialize
from orbitlab.cli import main
from orbitlab.errors import WorkbenchError
from orbitlab.hypercyclic import build_shift_operator
from orbitlab.operators import BASE_ZERO
from orbitlab.reports import emit_report
from orbitlab.scenarios import Scenario, ScenarioError, parse_eps_schedule, run_scenario
from orbitlab.transport import run_transport
from orbitlab.triangular import interleave_triangularize

import oracles


def sv(*entries):
    return SparseVector({i + 1: Fraction(v) for i, v in enumerate(entries) if v != 0})


def encode(vectors):
    return [serialize.encode_pairs(v) for v in vectors]


def transport_scenario(stages=2, seed=3, name="twin-transport"):
    window = 12
    active = window // 2
    size = 2 * stages
    a_items = [SparseVector.basis(i) for i in range(1, size + 1)]
    pi = list(range(size))
    for i in range(0, size - 1, 2):
        pi[i], pi[i + 1] = pi[i + 1], pi[i]
    noise = Fraction(1, 2 ** 24)
    b_items = [a_items[pi[i]] + SparseVector({active + 1 + i: noise}) for i in range(size)]
    return {
        "name": name,
        "scalar_mode": "exact",
        "window": window,
        "seed": seed,
        "task": "transport",
        "payload": {
            "a": encode(a_items),
            "b": encode(b_items),
            "p": {"kind": "sup", "weights": [[i, "1"] for i in range(1, active + 1)]},
            "disk": {"weights": [[i, "1"] for i in range(1, window + 1)]},
            "stages": stages,
            "eps_schedule": "geometric:1/2",
        },
    }


def triangularize_scenario():
    basis = [sv(1), sv(1, 1), sv(0, 1, 1), sv(1, 0, 0, 1)]
    return {
        "name": "tri-demo",
        "scalar_mode": "exact",
        "window": 6,
        "seed": 1,
        "task": "triangularize",
        "payload": {"basis": encode(basis), "stages": 2},
    }


# each subcommand with every file flag it needs, "F" standing for a file
SUBCOMMAND_ARGV = [
    ["transport", "--a", "F", "--b", "F", "--p", "F", "--disk", "F", "--stages", "1"],
    ["triangularize", "--basis", "F", "--stages", "1"],
    ["disks", "--from-null-seq", "F"],
    ["hypercyclic", "build-shift", "--basis", "F", "--p", "F", "--disk", "F"],
    ["hypercyclic", "witness", "--op", "F", "--x", "F", "--y", "F", "--p", "F"],
    ["hypercyclic", "demo", "--x", "F"],
    ["refute", "--op", "F", "--x", "F", "--levels", "1"],
]
SUBCOMMAND_IDS = ["transport", "triangularize", "disks", "build-shift", "witness", "demo",
                  "refute"]


class TestSchema:
    def test_missing_field_named(self):
        with pytest.raises(ScenarioError, match="task: missing"):
            Scenario.from_dict({"name": "x", "scalar_mode": "exact", "window": 4,
                                "seed": 0, "payload": {}})

    def test_unknown_task(self):
        with pytest.raises(ScenarioError, match="unknown task"):
            Scenario.from_dict({"name": "x", "scalar_mode": "exact", "window": 4,
                                "seed": 0, "task": "nope", "payload": {}})

    def test_missing_payload_field_named_with_path(self):
        scenario = Scenario.from_dict({
            "name": "x", "scalar_mode": "exact", "window": 4, "seed": 0,
            "task": "transport", "payload": {},
        })
        with pytest.raises(ScenarioError, match="payload.a: missing"):
            run_scenario(scenario)

    @pytest.mark.parametrize("mode", ["float", "Exact", "exact ", "", None, ["exact"]],
                             ids=["float", "capitalized", "padded", "empty", "null", "list"])
    def test_only_the_exact_mode_is_usable(self, tmp_path, capsys, mode):
        """"exact" is the one scalar mode, spelled as such: anything else in
        `scalar_mode` makes the scenario unusable (exit 2, no report)."""
        path = tmp_path / "mode.json"
        path.write_text(json.dumps(dict(transport_scenario(), scalar_mode=mode)))
        out_dir = tmp_path / "out"
        assert main(["run", "--scenario", str(path), "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err == f"error: {path}: scalar_mode: must be 'exact'\n"
        assert not out_dir.exists() or list(out_dir.iterdir()) == []

    def test_eps_schedule_forms(self):
        geo = parse_eps_schedule("geometric:1/2", 3)
        assert geo == [Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)]
        explicit = parse_eps_schedule(["1/3", "1/9"], 2)
        assert explicit == [Fraction(1, 3), Fraction(1, 9)]
        with pytest.raises(ScenarioError):
            parse_eps_schedule("linear:1", 2)


class TestDeterminism:
    def test_identical_bytes_across_runs(self):
        scenario = Scenario.from_dict(transport_scenario())
        first = emit_report(run_scenario(scenario), "json")
        second = emit_report(run_scenario(scenario), "json")
        assert first == second

    def test_report_embeds_hash_and_version(self):
        scenario = Scenario.from_dict(transport_scenario())
        report = run_scenario(scenario)
        assert len(report.scenario_hash) == 64
        assert report.version
        assert report.seed == 3

    def test_hash_tracks_payload(self):
        r1 = run_scenario(Scenario.from_dict(transport_scenario(seed=3)))
        r2 = run_scenario(Scenario.from_dict(transport_scenario(seed=4)))
        assert r1.scenario_hash != r2.scenario_hash


class TestRegression:
    def test_stored_expected_report_matches(self):
        base = transport_scenario()
        stored = run_scenario(Scenario.from_dict(base)).to_dict()
        base["expected"] = stored
        report = run_scenario(Scenario.from_dict(base))
        names = {c.name: c.passed for c in report.checks}
        assert names["regression-match"]

    def test_drift_detected(self):
        base = transport_scenario()
        stored = run_scenario(Scenario.from_dict(base)).to_dict()
        stored["data"]["budget"] = "1/2"
        base["expected"] = stored
        report = run_scenario(Scenario.from_dict(base))
        names = {c.name: c.passed for c in report.checks}
        assert not names["regression-match"]


class TestEmission:
    def test_csv_round_trip_is_lossless(self):
        report = run_scenario(Scenario.from_dict(transport_scenario()))
        blob = emit_report(report, "csv")
        tables = oracles.parse_csv_tables(blob)
        assert [t.to_dict() for t in tables] == [t.to_dict() for t in report.tables]

    def test_text_contains_verdict(self):
        report = run_scenario(Scenario.from_dict(triangularize_scenario()))
        text = emit_report(report, "text").decode()
        assert "result: PASS" in text

    def test_empty_report_sections_are_valid(self):
        from orbitlab.reports import Report
        empty = Report(scenario="s", task="t", scalar_mode="exact", seed=0,
                       scenario_hash="0" * 64, version="0")
        assert emit_report(empty, "csv") == b""
        assert json.loads(emit_report(empty, "json"))["checks"] == []
        assert b"result: PASS" in emit_report(empty, "text")


class TestTasks:
    def test_zero_stage_transport_is_rejected(self):
        # the library still runs zero stages (the identity); a scenario that
        # asks for none would pass every check while matching nothing
        scenario_dict = transport_scenario(stages=2)
        scenario_dict["payload"]["stages"] = 0
        with pytest.raises(ScenarioError, match=r"^payload\.stages: must be at least 1, got 0$"):
            run_scenario(Scenario.from_dict(scenario_dict))

    def test_triangularize_scenario_passes(self):
        report = run_scenario(Scenario.from_dict(triangularize_scenario()))
        assert report.passed

    def test_disk_generator_scenario(self):
        scenario = Scenario.from_dict({
            "name": "disk-demo", "scalar_mode": "exact", "window": 4, "seed": 0,
            "task": "disk",
            "payload": {
                "generators": encode([sv(1), sv(0, 1)]),
                "probes": encode([sv(3, -4), sv(0, 0, 1)]),
            },
        })
        report = run_scenario(scenario)
        assert report.passed
        probes = next(t for t in report.tables if t.name == "probes")
        assert probes.rows[0][1] == "7"
        assert probes.rows[1][1] == "NOT_IN_SPAN"

    def test_run_a_disk_whose_generators_are_all_zero(self, tmp_path):
        """Generators that are all zero give a gauge tableau with no rows: each
        generator gauges 0, a zero probe 0 and a non-zero probe NOT_IN_SPAN,
        and the run passes."""
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({
            "name": "zero", "scalar_mode": "exact", "window": 2, "seed": 0, "task": "disk",
            "payload": {"generators": [[], [[1, "0"]]], "probes": [[[1, "1"]], []]},
        }))
        out_dir = tmp_path / "out"
        assert main(["run", "--scenario", str(path), "--format", "json",
                     "--out", str(out_dir)]) == 0
        report = json.loads((out_dir / "zero.json").read_text())
        tables = {t["name"]: t["rows"] for t in report["tables"]}
        assert report["passed"] is True
        assert [row[2] for row in tables["generator-gauges"]] == ["0", "0"]
        assert [row[1] for row in tables["probes"]] == ["NOT_IN_SPAN", "0"]

    def test_disk_common_scenario(self):
        grid = [sv(Fraction(i, 2), Fraction(j, 2)) for i in range(-2, 3) for j in range(-2, 3)]
        targets = [sv(0, 0), sv(1, 1), sv(-1, Fraction(1, 2))]
        scenario = Scenario.from_dict({
            "name": "common-demo", "scalar_mode": "exact", "window": 2, "seed": 0,
            "task": "disk",
            "payload": {
                "common": {
                    "a": encode(grid),
                    "b": encode([g + sv(Fraction(1, 4)) for g in grid]),
                    "targets": encode(targets),
                    "eps": "1/4",
                },
            },
        })
        report = run_scenario(scenario)
        assert report.passed
        assert "domination" in report.data

    def test_hypercyclic_witness_scenario(self):
        from orbitlab.seminorms import SeminormSpec
        window = 8
        us = [SparseVector.basis(i) for i in range(1, window + 1)]
        spec = build_shift_operator(
            us, SeminormSpec.sup_on(range(1, window + 1)),
            oracles.l1_disk(range(1, window + 1)),
        )
        scenario = Scenario.from_dict({
            "name": "witness-demo", "scalar_mode": "exact", "window": window, "seed": 0,
            "task": "hypercyclic",
            "payload": {
                "mode": "witness",
                "operator": serialize.encode_operator(spec.operator.plus_identity()),
                "x": serialize.encode_pairs(sv(1)),
                "y": serialize.encode_pairs(sv(2)),
                "p": {"kind": "sup", "weights": [[i, "1"] for i in range(1, 5)]},
                "eps": "1/1000",
                "max_n": 64,
            },
        })
        report = run_scenario(scenario)
        assert report.passed
        witness = next(t for t in report.tables if t.name == "witness")
        assert witness.columns == ["n", "residual_x", "residual_y"]

    def test_refute_scenario(self):
        shift_terms = [
            {"f": serialize.encode_pairs(SparseVector({k + 1: Fraction(1)})),
             "v": serialize.encode_pairs(SparseVector.basis(k))}
            for k in range(1, 5)
        ]
        scenario = Scenario.from_dict({
            "name": "refute-demo", "scalar_mode": "exact", "window": 5, "seed": 0,
            "task": "refute",
            "payload": {
                "family_levels": 4,
                "first_active": 1,
                "b": [],
                "operator": {"base": "zero", "terms": shift_terms},
                "x": serialize.encode_pairs(SparseVector.basis(4)),
                "horizon": 5,
            },
        })
        report = run_scenario(scenario)
        # the shift orbit leaves the ladder; that is the reported fact
        assert report.data["first_exit"] is not None


class TestCli:
    def test_run_subcommand_writes_report(self, tmp_path):
        path = tmp_path / "twin.json"
        path.write_text(json.dumps(transport_scenario()))
        out_dir = tmp_path / "out"
        code = main(["run", "--scenario", str(path), "--format", "json",
                     "--out", str(out_dir)])
        assert code == 0
        report = json.loads((out_dir / "twin.json").read_text())
        assert report["passed"] is True
        assert report["task"] == "transport"

    def test_run_check_against_stored(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(transport_scenario()))
        out_dir = tmp_path / "out"
        assert main(["run", "--scenario", str(path), "--out", str(out_dir)]) == 0
        stored = tmp_path / "expected.json"
        stored.write_bytes((out_dir / "s.json").read_bytes())
        assert main(["run", "--scenario", str(path), "--check", str(stored),
                     "--out", str(out_dir)]) == 0
        stored.write_bytes(stored.read_bytes().replace(b'"budget"', b'"budget_x"', 1))
        assert main(["run", "--scenario", str(path), "--check", str(stored),
                     "--out", str(out_dir)]) == 1

    def test_run_check_refuses_several_scenarios(self, tmp_path, capsys):
        """One stored report cannot be the expected report of two scenarios."""
        paths = []
        for i in range(2):
            path = tmp_path / f"s{i}.json"
            path.write_text(json.dumps(transport_scenario(seed=i, name=f"s{i}")))
            paths.append(str(path))
        out_dir = tmp_path / "out"
        assert main(["run", "--scenario", paths[0], "--out", str(out_dir)]) == 0
        capsys.readouterr()
        stored = out_dir / "s0.json"
        code = main(["run", "--scenario", paths[0], "--scenario", paths[1],
                     "--check", str(stored), "--out", str(tmp_path / "again")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: --check holds one report; got 2 --scenario files\n")
        assert not (tmp_path / "again").exists()

    def test_disks_common_subcommand(self, tmp_path):
        files = {}
        for key, vectors in (("a", [sv(1), sv(0, 1)]), ("b", [sv(0, 1), sv(1)]),
                             ("targets", [sv(1)])):
            files[key] = tmp_path / f"{key}.json"
            files[key].write_text(json.dumps(encode(vectors)))
        out_dir = tmp_path / "out"
        code = main(["disks", "--common", str(files["a"]), str(files["b"]),
                     "--targets", str(files["targets"]), "--window", "2",
                     "--name", "common", "--out", str(out_dir)])
        assert code == 0
        report = json.loads((out_dir / "common.json").read_text())
        assert report["task"] == "disk" and report["passed"] is True
        assert "domination" in report["data"]
        assert (out_dir / "common.csv").exists()

    def test_disks_from_null_seq_with_probes(self, tmp_path):
        files = {}
        for key, vectors in (("generators", [sv(1), sv(0, 1)]),
                             ("probes", [sv(3, -4), sv(0, 0, 1)])):
            files[key] = tmp_path / f"{key}.json"
            files[key].write_text(json.dumps(encode(vectors)))
        out_dir = tmp_path / "out"
        code = main(["disks", "--from-null-seq", str(files["generators"]),
                     "--probes", str(files["probes"]), "--window", "4",
                     "--name", "gauge", "--out", str(out_dir)])
        assert code == 0
        report = json.loads((out_dir / "gauge.json").read_text())
        probes = next(t for t in report["tables"] if t["name"] == "probes")
        assert [row[1] for row in probes["rows"]] == ["7", "NOT_IN_SPAN"]

    @pytest.mark.parametrize("argv, message", [
        (["--common", "F", "F"], "--common needs --targets FILE"),
        (["--targets", "F"], "disks needs --from-null-seq or --common"),
    ], ids=["common-without-targets", "no-source"])
    def test_disks_usage_errors(self, tmp_path, capsys, argv, message):
        path = tmp_path / "empty.json"
        path.write_text("[]")
        argv = ["disks"] + [str(path) if arg == "F" else arg for arg in argv]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_transport_with_every_window_coordinate_active(self, tmp_path):
        """With p active on the whole window the kernel spot check's detail
        says so."""
        scenario = transport_scenario(stages=1)
        scenario["window"] = 4
        scenario["payload"].update({
            "a": encode([sv(1), sv(0, 1)]),
            "b": encode([sv(0, 1), sv(1)]),
            "p": {"kind": "sup", "weights": [[i, str(i)] for i in range(1, 5)]},
            "disk": {"weights": [[i, "1"] for i in range(1, 5)]},
        })
        code, _ = _run_file(tmp_path, scenario)
        assert code == 0
        report = json.loads((tmp_path / "out" / "scenario.json").read_text())
        check = next(c for c in report["checks"] if c["name"] == "kernel-fixing-spot-check")
        assert check == {"name": "kernel-fixing-spot-check", "passed": True,
                         "detail": "no window coordinate lies outside active(p)"}

    def test_run_parallel_jobs(self, tmp_path):
        paths = []
        for i in range(3):
            p = tmp_path / f"s{i}.json"
            p.write_text(json.dumps(transport_scenario(seed=i, name=f"s{i}")))
            paths.append(str(p))
        args = ["run", "--jobs", "3", "--out", str(tmp_path / "out")]
        for p in paths:
            args += ["--scenario", p]
        assert main(args) == 0

    def test_malformed_scenario_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x"}))
        assert main(["run", "--scenario", str(path)]) == 2
        assert "missing" in capsys.readouterr().err

    def test_common_disk_beyond_window_exit_code(self, tmp_path, capsys):
        path = tmp_path / "common.json"
        path.write_text(json.dumps({
            "name": "common-beyond", "scalar_mode": "exact", "window": 2, "seed": 0,
            "task": "disk",
            "payload": {"common": {"a": [[[1, "1"], [3, "1"]], [[2, "1"]]],
                                   "b": [[[1, "1"]], [[2, "1"]]],
                                   "targets": [[[1, "1"]]], "eps": "1/4"}},
        }))
        assert main(["run", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "coordinate 3" in err
        assert "Traceback" not in err

    def test_hypercyclic_refute_mode_removed(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["hypercyclic", "refute", "--op", str(tmp_path / "op.json"),
                  "--x", str(tmp_path / "x.json")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", SUBCOMMAND_ARGV, ids=SUBCOMMAND_IDS)
    def test_scalar_mode_flag_removed(self, tmp_path, capsys, argv):
        """Subcommands run in the one scalar mode, so --scalar-mode is no flag
        of any of them."""
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--scalar-mode", "float"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --scalar-mode float" in capsys.readouterr().err

    def test_triangularize_subcommand(self, tmp_path, capsys):
        basis_file = tmp_path / "basis.json"
        basis_file.write_text(json.dumps(encode([sv(1), sv(1, 1)])))
        code = main(["triangularize", "--basis", str(basis_file), "--stages", "1",
                     "--window", "4", "--format", "text"])
        assert code == 0
        assert "result: PASS" in capsys.readouterr().out

    def test_run_a_witness_with_no_free_column(self, tmp_path, capsys):
        """Every window coordinate is active, so no column is free, and
        T = I + δ_2 ⊗ e_1 maps x = e_2 onto y = e_1 + e_2: the witness is
        n = 1 with z = x, both residuals 0."""
        path = tmp_path / "witness.json"
        path.write_text(json.dumps({
            "name": "unfree-witness", "scalar_mode": "exact", "window": 3, "seed": 0,
            "task": "hypercyclic",
            "payload": {
                "mode": "witness",
                "operator": {"base": "identity", "terms": [
                    {"f": serialize.encode_pairs(sv(0, 1)), "v": serialize.encode_pairs(sv(1))}]},
                "x": serialize.encode_pairs(sv(0, 1)),
                "y": serialize.encode_pairs(sv(1, 1)),
                "p": {"kind": "sup", "weights": [[i, "1"] for i in range(1, 4)]},
                "eps": "1/1000",
                "max_n": 8,
            },
        }))
        assert main(["run", "--scenario", str(path), "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "-- witness --\nn | residual_x | residual_y\n1 | 0 | 0\n" in out
        assert "result: PASS" in out

    @pytest.mark.parametrize("argv", SUBCOMMAND_ARGV, ids=SUBCOMMAND_IDS)
    def test_subcommand_validates_the_window(self, tmp_path, capsys, argv):
        path = tmp_path / "empty.json"
        path.write_text("[]")
        argv = [str(path) if arg == "F" else arg for arg in argv]
        assert main(argv + ["--window", "1"]) == 2
        err = capsys.readouterr().err
        assert "error: window: must be an integer >= 2" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, flag", [
        (["build-shift", "--p", "F", "--disk", "F"], "--basis"),
        (["build-shift", "--basis", "F", "--disk", "F"], "--p"),
        (["witness", "--x", "F", "--y", "F", "--p", "F"], "--op"),
        (["witness", "--op", "F", "--y", "F", "--p", "F"], "--x"),
        (["demo"], "--x"),
    ], ids=["build-shift-basis", "build-shift-p", "witness-op", "witness-x", "demo-x"])
    def test_hypercyclic_missing_file_flag_exits_2(self, tmp_path, capsys, argv, flag):
        path = tmp_path / "empty.json"
        path.write_text("[]")
        argv = ["hypercyclic"] + [str(path) if arg == "F" else arg for arg in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: hypercyclic {argv[1]} needs {flag} FILE\n"

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ORBITLAB_OUT", str(tmp_path / "envout"))
        basis_file = tmp_path / "basis.json"
        basis_file.write_text(json.dumps(encode([sv(1), sv(1, 1)])))
        assert main(["triangularize", "--basis", str(basis_file), "--stages", "1",
                     "--window", "4", "--name", "envrun"]) == 0
        assert (tmp_path / "envout" / "envrun.json").exists()


def build_shift_scenario():
    return {
        "name": "shift-demo",
        "scalar_mode": "exact",
        "window": 6,
        "seed": 5,
        "task": "hypercyclic",
        "payload": {
            "mode": "build-shift",
            "basis": encode([SparseVector.basis(i) for i in range(1, 5)]),
            "p": {"kind": "sup", "weights": [[i, "1"] for i in range(1, 5)]},
            "disk": {"weights": [[i, "1"] for i in range(1, 7)]},
        },
    }


def demo_scenario():
    return {
        "name": "walk",
        "scalar_mode": "exact",
        "window": 5,
        "seed": 0,
        "task": "hypercyclic",
        "payload": {"mode": "demo", "x0": serialize.encode_pairs(sv(1, 2, 3)),
                    "horizon": 4},
    }


def refute_scenario():
    shift_terms = [
        {"f": serialize.encode_pairs(SparseVector({k + 1: Fraction(1)})),
         "v": serialize.encode_pairs(SparseVector.basis(k))}
        for k in range(1, 5)
    ]
    return {
        "name": "ladder-walk",
        "scalar_mode": "exact",
        "window": 5,
        "seed": 9,
        "task": "refute",
        "payload": {
            "family_levels": 4,
            "first_active": 1,
            "b": [],
            "operator": {"base": "zero", "terms": shift_terms},
            "x": serialize.encode_pairs(SparseVector.basis(4)),
            "horizon": 5,
        },
    }


def disk_scenario():
    return {
        "name": "gauge-probe",
        "scalar_mode": "exact",
        "window": 4,
        "seed": 2,
        "task": "disk",
        "payload": {"generators": encode([sv(1), sv(0, 1), sv(1, 1)])},
    }


def common_scenario():
    return {
        "name": "common-twins",
        "scalar_mode": "exact",
        "window": 2,
        "seed": 2,
        "task": "disk",
        "payload": {"common": {
            "a": encode([sv(1), sv(0, 1)]),
            "b": encode([sv(0, 1), sv(1)]),
            "targets": encode([sv(1)]),
            "eps": "1/4",
        }},
    }


class TestDeterminismAcrossTasks:
    @pytest.mark.parametrize("builder", [
        transport_scenario, triangularize_scenario, build_shift_scenario,
        demo_scenario, refute_scenario, disk_scenario,
    ])
    def test_all_emitters_are_stable(self, builder):
        scenario = Scenario.from_dict(builder())
        first = run_scenario(scenario)
        second = run_scenario(scenario)
        for fmt in ("json", "csv", "text"):
            assert emit_report(first, fmt) == emit_report(second, fmt)


class TestMoreTasks:
    def test_build_shift_scenario_passes(self):
        report = run_scenario(Scenario.from_dict(build_shift_scenario()))
        assert report.passed
        weights = next(t for t in report.tables if t.name == "weights")
        assert weights.rows[0] == ["1", "1/2"]
        assert report.data["premise_span_dim"] >= 0

    def test_build_shift_with_thirds_meets_its_chain_identities(self, tmp_path):
        """Thirds in the chain and the disk: S u_1 = 0 and S u_k = w_{k-1} u_{k-1}
        hold exactly, with no rounding left over."""
        scenario = dict(build_shift_scenario(), name="shift-thirds")
        scenario["payload"].update(
            basis=[[[1, "1"], [2, "1/3"]], [[2, "1/3"], [3, "2/3"]],
                   [[1, "1/3"], [3, "1"], [4, "1/3"]], [[2, "1/3"], [4, "2/3"]]],
            disk={"weights": [[i, "1/3"] for i in range(1, 5)] + [[5, "1"], [6, "1"]]})
        code, _ = _run_file(tmp_path, scenario)
        report = json.loads((tmp_path / "out" / "scenario.json").read_text())
        checks = {c["name"]: c["passed"] for c in report["checks"]}
        assert checks["chain-identities"] is True
        assert code == 0 and report["passed"] is True

    def test_decimal_text_is_read_exactly(self):
        """"0.00000001" is the rational 1/10^8: twins moved by it are matched
        exactly, and the report writes the budget as a fraction."""
        scenario = transport_scenario()
        for pairs in scenario["payload"]["b"]:
            pairs[-1][1] = "0.00000001"
        report = run_scenario(Scenario.from_dict(scenario))
        assert report.passed, [c.name for c in report.checks if not c.passed]
        rows = [serialize.decode_vector(b) for b in scenario["payload"]["b"]]
        assert {v for b in rows for v in b.entries.values()} == {1, Fraction(1, 10 ** 8)}
        assert report.data["budget"] == "1/25000000"  # 4 * 10^-8
        assert report.scalar_mode == "exact"

    def test_demo_scenario_orbit_table(self):
        report = run_scenario(Scenario.from_dict(demo_scenario()))
        table = next(t for t in report.tables if t.name == "orbit")
        assert table.rows[0] == ["0", "1:1 2:2 3:3"]
        assert table.rows[1] == ["1", "1:2 2:3"]
        assert table.rows[3] == ["3", "0"]


def _corrupt(payload, field, value):
    """Replace one entry of a transport payload, addressed by a path of keys."""
    *parents, last = field
    for key in parents:
        payload = payload[key]
    if value is None:
        del payload[last]
    else:
        payload[last] = value


class TestBoundaryErrors:
    @pytest.mark.parametrize("field, value, named", [
        (("a", 1, 0, 1), "abc", "payload.a[1]"),
        (("b", 0, 1, 1), "1/0", "payload.b[0]"),
        (("a", 2, 0, 0), 0, "payload.a[2]"),
        (("p", "kind"), None, "payload.p"),
        (("eps_schedule",), ["1/4", "nan", "1/16", "1/32"], "eps_schedule[1]"),
        (("b", 0, 1, 1), "inf", "payload.b[0]"),
    ], ids=["abc", "zero-denominator", "index-0", "missing-kind", "nan-eps", "inf-entry"])
    def test_bad_input_exits_2_naming_the_field(self, tmp_path, capsys, field, value, named):
        scenario = transport_scenario()
        _corrupt(scenario["payload"], field, value)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(scenario))
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err
        assert "Traceback" not in err


class TestBatch:
    def _paths(self, tmp_path, scenarios):
        paths = []
        for i, scenario in enumerate(scenarios):
            path = tmp_path / f"s{i}.json"
            path.write_text(json.dumps(scenario))
            paths.append(str(path))
        return paths

    def test_unusable_scenario_does_not_stop_the_batch(self, tmp_path, capsys):
        bad = transport_scenario(name="bad")
        bad["payload"]["p"]["weights"][0][1] = "abc"
        paths = self._paths(tmp_path, [transport_scenario(name="first"), bad,
                                       transport_scenario(name="last")])
        out_dir = tmp_path / "out"
        args = ["run", "--jobs", "1", "--out", str(out_dir)]
        for path in paths:
            args += ["--scenario", path]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"error: {paths[1]}: payload.p" in err
        assert sorted(p.name for p in out_dir.iterdir()) == ["s0.json", "s2.json"]

    def test_float_scenario_exits_2_and_the_batch_runs_on(self, tmp_path, capsys):
        """The one scalar mode is "exact": a float scenario is unusable, and the
        good scenario beside it writes the report it writes alone."""
        good = transport_scenario(name="good")
        floated = dict(transport_scenario(name="floated"), scalar_mode="float")
        paths = self._paths(tmp_path, [floated, good])
        out_dir = tmp_path / "out"
        assert main(["run", "--out", str(out_dir), "--scenario", paths[0],
                     "--scenario", paths[1]]) == 2
        assert capsys.readouterr().err == f"error: {paths[0]}: scalar_mode: must be 'exact'\n"
        assert [p.name for p in out_dir.iterdir()] == ["s1.json"]
        alone = emit_report(run_scenario(Scenario.from_dict(good)), "json")
        assert (out_dir / "s1.json").read_bytes() == alone

    def test_construction_precondition_does_not_stop_the_batch(self, tmp_path, capsys):
        empty = build_shift_scenario()
        empty["payload"]["basis"] = []
        refute = refute_scenario()
        refute["payload"]["family_levels"] = 0
        paths = self._paths(tmp_path, [empty, demo_scenario(), refute,
                                       build_shift_scenario()])
        out_dir = tmp_path / "out"
        args = ["run", "--jobs", "2", "--out", str(out_dir)]
        for path in paths:
            args += ["--scenario", path]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"error: {paths[0]}: payload.basis" in err
        assert f"error: {paths[2]}: payload.family_levels" in err
        assert sorted(p.name for p in out_dir.iterdir()) == ["s1.json", "s3.json"]

    def test_malformed_nested_payloads_do_not_stop_the_batch(self, tmp_path, capsys):
        empty = common_scenario()
        empty["payload"]["common"]["b"] = []
        null = common_scenario()
        null["payload"]["common"] = None
        index = transport_scenario(name="index")
        index["payload"]["disk"]["weights"][0][0] = 0
        paths = self._paths(tmp_path, [empty, null, disk_scenario(), index])
        out_dir = tmp_path / "out"
        args = ["run", "--jobs", "2", "--out", str(out_dir)]
        for path in paths:
            args += ["--scenario", path]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err == (f"error: {paths[0]}: second enumeration misses a target beyond eps\n"
                       f"error: {paths[1]}: payload.common: must be an object\n"
                       f"error: {paths[3]}: payload.disk: coordinate indices are positive, "
                       "got 0\n")
        assert [p.name for p in out_dir.iterdir()] == ["s2.json"]

    def test_parallel_stdout_keeps_input_order(self, tmp_path, capsys, monkeypatch):
        import time

        import orbitlab.cli as cli

        def slow_first(scenario):
            if scenario.name == "walk-0":
                time.sleep(0.3)
            return run_scenario(scenario)

        monkeypatch.setattr(cli, "run_scenario", slow_first)
        scenarios = []
        for i in range(3):
            scenario = demo_scenario()
            scenario["name"] = f"walk-{i}"
            scenarios.append(scenario)
        args = ["run", "--jobs", "3", "--format", "text"]
        for path in self._paths(tmp_path, scenarios):
            args += ["--scenario", path]
        assert main(args) == 0
        names = [line.split(": ", 1)[1] for line in capsys.readouterr().out.splitlines()
                 if line.startswith("scenario: ")]
        assert names == ["walk-0", "walk-1", "walk-2"]


def witness_scenario():
    scenario = refute_scenario()
    return {
        "name": "shift-witness",
        "scalar_mode": "exact",
        "window": 5,
        "seed": 4,
        "task": "hypercyclic",
        "payload": {
            "mode": "witness",
            "operator": scenario["payload"]["operator"],
            "x": serialize.encode_pairs(sv(1)),
            "y": serialize.encode_pairs(sv(0, 1)),
            "p": {"kind": "sup", "weights": [[i, "1"] for i in range(1, 4)]},
            "eps": "1/10",
            "max_n": 4,
        },
    }


def _run_file(tmp_path, scenario):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
    return code, path


class TestUnusableInputExits2:
    """Preconditions of the constructions end in `error:` and exit 2."""

    @pytest.mark.parametrize("schedule, named", [
        (["1/8", "1/16", "1/32"], "epsilon schedule has 3 slots; 2 stages need 4"),
        (["1/2", "1/4", "1/8", "1/8"], "epsilon schedule sum = 1 >= 1"),
        (["0", "1/4", "1/8", "1/16"], "eps_schedule[0]: must be positive, got 0"),
        (["1/4", "-1/2", "1/8", "1/16"], "eps_schedule[1]: must be positive, got -1/2"),
        ("geometric:0", "eps_schedule: ratio must lie in (0, 1)"),
        ("geometric:1", "eps_schedule: ratio must lie in (0, 1)"),
        ("geometric:3/2", "eps_schedule: ratio must lie in (0, 1)"),
        ("geometric:-1/2", "eps_schedule: ratio must lie in (0, 1)"),
        (["1e-4300", "1/4", "1/8", "1/16"],
         "eps_schedule[0]: '1e-4300' is beyond the 4300-digit limit of a scalar"),
    ], ids=["schedule-too-short", "schedule-sum-one", "schedule-zero-slot",
            "schedule-negative-slot", "ratio-zero", "ratio-one", "ratio-above-one",
            "ratio-negative", "slot-beyond-the-digit-limit"])
    def test_transport_schedule(self, tmp_path, capsys, schedule, named):
        scenario = transport_scenario(stages=2)
        scenario["payload"]["eps_schedule"] = schedule
        code, path = _run_file(tmp_path, scenario)
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}: {named}\n"

    @pytest.mark.parametrize("eps", ["0", "-1/10"])
    def test_witness_non_positive_eps(self, tmp_path, capsys, eps):
        """The residuals must lie strictly below eps, which no eps <= 0 allows."""
        scenario = witness_scenario()
        scenario["payload"]["eps"] = eps
        code, path = _run_file(tmp_path, scenario)
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {path}: payload.eps: must be positive, got {eps}\n")

    def test_triangularize_dependent_basis(self, tmp_path, capsys):
        scenario = triangularize_scenario()
        scenario["payload"]["basis"] = encode([sv(1), sv(1, 1), sv(0, 1, 1), sv(1, 2, 1)])
        code, path = _run_file(tmp_path, scenario)
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {path}: basis vectors are not linearly independent\n")

    @pytest.mark.parametrize("builder, field", [
        (transport_scenario, "stages"),
        (triangularize_scenario, "stages"),
        (witness_scenario, "max_n"),
        (demo_scenario, "horizon"),
        (refute_scenario, "horizon"),
        (refute_scenario, "family_levels"),
        (refute_scenario, "first_active"),
        (transport_scenario, None),
    ], ids=["transport-stages", "triangularize-stages", "witness-max_n", "demo-horizon",
            "refute-horizon", "refute-family_levels", "refute-first_active", "seed"])
    def test_non_integer_count(self, tmp_path, capsys, builder, field):
        scenario = builder()
        if field is None:
            scenario["seed"] = "two"
            named = "seed"
        else:
            scenario["payload"][field] = "two"
            named = f"payload.{field}"
        code, path = _run_file(tmp_path, scenario)
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: {named}: ")

    @pytest.mark.parametrize("value", [1.9, 2.0, "1", True], ids=["float", "integral-float",
                                                               "numeric-string", "bool"])
    @pytest.mark.parametrize("builder, field", [
        (transport_scenario, "stages"),
        (triangularize_scenario, "stages"),
        (witness_scenario, "max_n"),
        (demo_scenario, "horizon"),
        (refute_scenario, "horizon"),
        (refute_scenario, "family_levels"),
        (refute_scenario, "first_active"),
        (triangularize_scenario, None),
    ], ids=["transport-stages", "triangularize-stages", "witness-max_n", "demo-horizon",
            "refute-horizon", "refute-family_levels", "refute-first_active", "seed"])
    def test_count_must_be_a_json_integer(self, tmp_path, capsys, builder, field, value):
        """1.9 would run one stage and "1" or true would pass as 1; each is refused."""
        scenario = builder()
        if field is None:
            scenario["seed"] = value
            named = "seed"
        else:
            scenario["payload"][field] = value
            named = f"payload.{field}"
        code, path = _run_file(tmp_path, scenario)
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {path}: {named}: must be an integer, got {value!r}\n")
        assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("builder, field", [
        (transport_scenario, ("a",)),
        (transport_scenario, ("b",)),
        (common_scenario, ("common", "a")),
        (common_scenario, ("common", "b")),
        (refute_scenario, ("b",)),
    ], ids=["transport-a", "transport-b", "common-a", "common-b", "refute-b"])
    def test_repeated_enumeration_item(self, tmp_path, capsys, builder, field):
        scenario = builder()
        _corrupt(scenario["payload"], field, encode([sv(1), sv(0, 1), sv(1)]))
        code, path = _run_file(tmp_path, scenario)
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {path}: payload.{'.'.join(field)}: "
            "enumeration items must be pairwise distinct\n")

    def test_witness_operator_not_nilpotent(self, tmp_path, capsys):
        scenario = witness_scenario()
        scenario["payload"]["operator"] = {"base": "zero", "terms": [
            {"f": serialize.encode_pairs(sv(1)), "v": serialize.encode_pairs(sv(1))},
        ]}
        code, path = _run_file(tmp_path, scenario)
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {path}: witness search needs a nilpotent chain part on the window\n")

    def test_build_shift_empty_basis(self, tmp_path, capsys):
        scenario = build_shift_scenario()
        scenario["payload"]["basis"] = []
        code, path = _run_file(tmp_path, scenario)
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {path}: payload.basis: build-shift needs at least one vector\n")

    @pytest.mark.parametrize("builder, field, value", [
        (transport_scenario, "stages", -3),
        (triangularize_scenario, "stages", -2),
        (witness_scenario, "max_n", 0),
        (demo_scenario, "horizon", 0),
        (refute_scenario, "horizon", -1),
        (refute_scenario, "first_active", 0),
        (refute_scenario, "first_active", -3),
    ], ids=["transport-stages", "triangularize-stages", "witness-max_n", "demo-horizon",
            "refute-horizon", "refute-first_active-zero", "refute-first_active-negative"])
    def test_vacuous_count(self, tmp_path, capsys, builder, field, value):
        """A count below 1 runs nothing; its report would pass while claiming nothing."""
        scenario = builder()
        scenario["payload"][field] = value
        code, path = _run_file(tmp_path, scenario)
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {path}: payload.{field}: must be at least 1, got {value}\n")
        assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())

    def test_disk_without_generators(self, tmp_path, capsys):
        scenario = disk_scenario()
        scenario["payload"]["generators"] = []
        code, path = _run_file(tmp_path, scenario)
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {path}: payload.generators: a disk needs at least one generator\n")

    @pytest.mark.parametrize("levels", [0, -2])
    def test_refute_without_family_levels(self, tmp_path, capsys, levels):
        scenario = refute_scenario()
        scenario["payload"]["family_levels"] = levels
        code, path = _run_file(tmp_path, scenario)
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {path}: payload.family_levels: must be at least 1, got {levels}\n")

    @pytest.mark.parametrize("side, which", [("a", "first"), ("b", "second")])
    def test_common_empty_enumeration(self, tmp_path, capsys, side, which):
        scenario = common_scenario()
        scenario["payload"]["common"][side] = []
        code, path = _run_file(tmp_path, scenario)
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {path}: {which} enumeration misses a target beyond eps\n")

    @pytest.mark.parametrize("value", [None, "abc"])
    def test_common_not_an_object(self, tmp_path, capsys, value):
        scenario = common_scenario()
        scenario["payload"]["common"] = value
        code, path = _run_file(tmp_path, scenario)
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}: payload.common: must be an object\n"

    @pytest.mark.parametrize("field, value, named", [
        ("targets", [], "payload.common.targets: a net needs at least one target"),
        ("eps", "-1/4", "payload.common.eps: must be at least 0, got -1/4"),
    ], ids=["no-targets", "negative-eps"])
    def test_common_unusable_net(self, tmp_path, capsys, field, value, named):
        """No target makes every enumeration a net; no enumeration is within eps < 0."""
        scenario = common_scenario()
        scenario["payload"]["common"][field] = value
        code, path = _run_file(tmp_path, scenario)
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}: {named}\n"

    def test_common_zero_eps_is_valid(self, tmp_path, capsys):
        """The net test is dist <= eps, so eps = 0 asks for the targets themselves."""
        scenario = common_scenario()
        scenario["payload"]["common"]["eps"] = "0"
        code, _ = _run_file(tmp_path, scenario)
        assert code == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("builder", [transport_scenario, build_shift_scenario,
                                         witness_scenario],
                             ids=["transport", "build-shift", "witness"])
    def test_seminorm_without_weights(self, tmp_path, capsys, builder):
        """A seminorm with no weights is zero: it bounds nothing."""
        scenario = builder()
        scenario["payload"]["p"]["weights"] = []
        code, path = _run_file(tmp_path, scenario)
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {path}: payload.p: a seminorm needs at least one weight\n")

    @pytest.mark.parametrize("builder", [transport_scenario, build_shift_scenario],
                             ids=["transport", "build-shift"])
    @pytest.mark.parametrize("disk", [{"weights": []}, {"generators": []}],
                             ids=["weights", "generators"])
    def test_empty_disk(self, tmp_path, capsys, builder, disk):
        """An empty disk gauges no vector but 0; the run would fail naming no field."""
        scenario = builder()
        scenario["payload"]["disk"] = disk
        code, path = _run_file(tmp_path, scenario)
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {path}: payload.disk: a disk needs at least one weight or generator\n")

    @pytest.mark.parametrize("field, index", [("p", -3), ("disk", 0)])
    def test_weight_at_non_positive_coordinate(self, tmp_path, capsys, field, index):
        scenario = transport_scenario()
        scenario["payload"][field]["weights"][0][0] = index
        code, path = _run_file(tmp_path, scenario)
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {path}: payload.{field}: coordinate indices are positive, got {index}\n")

    @pytest.mark.parametrize("index", [1.9, "2", True, None],
                             ids=["float", "string", "bool", "repeated"])
    @pytest.mark.parametrize("builder, field, named", [
        (transport_scenario, ("a", 0), "payload.a[0]"),
        (witness_scenario, ("operator", "terms", 0, "f"), "payload.operator"),
        (transport_scenario, ("p", "weights"), "payload.p"),
        (transport_scenario, ("disk", "weights"), "payload.disk"),
    ], ids=["transport-a", "witness-term-f", "seminorm-weights", "disk-weights"])
    def test_coordinate_index_is_a_json_integer_given_once(self, tmp_path, capsys, builder,
                                                          field, named, index):
        """An index is neither truncated (1.9), converted ("2", true) nor
        overwritten by a later pair; None appends a pair at the first index."""
        scenario = builder()
        pairs = scenario["payload"]
        for key in field:
            pairs = pairs[key]
        first = pairs[0][0]
        pairs.append([first if index is None else index, "1/2"])
        code, path = _run_file(tmp_path, scenario)
        assert code == 2
        problem = (f"coordinate index {first} given twice" if index is None
                   else f"coordinate index must be an integer, got {index!r}")
        assert capsys.readouterr().err == f"error: {path}: {named}: {problem}\n"

    @pytest.mark.parametrize("builder, field, value, named", [
        (transport_scenario, ("eps_shedule",), ["1/1000000000"] * 4,
         "payload.eps_shedule: unknown field; transport reads a, b, p, disk, stages, "
         "eps_schedule"),
        (triangularize_scenario, ("stagez",), 3,
         "payload.stagez: unknown field; triangularize reads basis, stages"),
        (disk_scenario, ("common",), "abc",
         "payload.common: unknown field; a generator disk reads generators, probes"),
        (common_scenario, ("probes",), [],
         "payload.probes: unknown field; a common disk reads common"),
        (common_scenario, ("common", "epsilon"), "1/8",
         "payload.common.epsilon: unknown field; a common disk reads a, b, targets, eps"),
        (build_shift_scenario, ("depth",), 2,
         "payload.depth: unknown field; build-shift reads mode, basis, p, disk"),
        (witness_scenario, ("horizon",), 4,
         "payload.horizon: unknown field; witness reads mode, operator, x, y, p, eps, max_n"),
        (demo_scenario, ("x",), [],
         "payload.x: unknown field; demo reads mode, x0, horizon"),
        (refute_scenario, ("levels",), 2,
         "payload.levels: unknown field; refute reads family_levels, first_active, b, "
         "operator, x, horizon"),
        (transport_scenario, ("expectd",), {},
         "expectd: unknown field; a scenario reads name, scalar_mode, window, seed, task, "
         "payload, expected"),
        (transport_scenario, ("disk", "generators"), [[[1, "1"]]],
         "payload.disk.generators: unknown field; a weight disk reads weights"),
        (build_shift_scenario, ("disk", "generators"), [[[1, "1"]]],
         "payload.disk.generators: unknown field; a weight disk reads weights"),
        (transport_scenario, ("disk",), {"weight": [[1, "1"]], "generators": [[[1, "1"]]]},
         "payload.disk.weight: unknown field; a generator disk reads generators"),
        (transport_scenario, ("p", "wieghts"), [[1, "1"]],
         "payload.p.wieghts: unknown field; a seminorm reads kind, weights"),
        (witness_scenario, ("p", "knd"), "l1",
         "payload.p.knd: unknown field; a seminorm reads kind, weights"),
        (witness_scenario, ("operator", "bse"), "identity",
         "payload.operator.bse: unknown field; an operator reads base, terms"),
        (refute_scenario, ("operator", "terms", 1, "g"), [[1, "1"]],
         "payload.operator.terms[1].g: unknown field; an operator term reads f, v"),
    ], ids=["transport-typo", "triangularize-typo", "generators-beside-common",
            "probes-of-a-common-disk", "common-typo", "build-shift", "witness", "demo",
            "refute", "top-level-typo", "generators-beside-disk-weights",
            "build-shift-generators-beside-disk-weights", "disk-weight-typo",
            "seminorm-typo", "witness-seminorm-typo", "operator-typo", "operator-term-typo"])
    def test_field_no_task_reads(self, tmp_path, capsys, builder, field, value, named):
        """A misspelt optional field would run its default and pass; a field
        beside the one the task reads would be skipped unchecked.  That holds
        inside the payload's seminorm, disk and operator too: a disk with
        weights would drop its generators, and one whose `weights` is
        misspelt would run as a generator disk."""
        scenario = builder()
        node = scenario if field == ("expectd",) else scenario["payload"]
        for key in field[:-1]:
            node = node[key]
        node[field[-1]] = value
        code, path = _run_file(tmp_path, scenario)
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}: {named}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["", ".", "..", "../escaped", "sub/name"])
    def test_name_is_a_plain_file_name(self, tmp_path, capsys, name):
        """--name names the report files, which must stay inside --out."""
        basis = tmp_path / "basis.json"
        basis.write_text(json.dumps(triangularize_scenario()["payload"]["basis"]))
        out = tmp_path / "t" / "out"
        code = main(["triangularize", "--basis", str(basis), "--stages", "1",
                     "--window", "4", "--name", name, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: --name: must be a plain file name, got {name!r}\n")
        assert [p.name for p in tmp_path.rglob("*")] == ["basis.json"]

    @pytest.mark.parametrize("argv, named", [
        (["disks", "--common", "A", "B", "--targets", "T", "--probes", "PROBES"],
         "disks --common does not read --probes"),
        (["disks", "--from-null-seq", "G", "--common", "A", "B"],
         "disks --from-null-seq does not read --common"),
        (["hypercyclic", "demo", "--x", "X", "--basis", "MISSING", "--op", "MISSING"],
         "hypercyclic demo does not read --basis, --op"),
        (["hypercyclic", "build-shift", "--basis", "BASIS", "--p", "SHIFT_P", "--disk", "DISK",
          "--op", "OP"], "hypercyclic build-shift does not read --op"),
        (["hypercyclic", "witness", "--op", "OP", "--x", "X", "--y", "Y", "--p", "WITNESS_P",
          "--basis", "BASIS"], "hypercyclic witness does not read --basis"),
        (["hypercyclic", "demo", "--x", "X", "--max-n", "5", "--eps", "7"],
         "hypercyclic demo does not read --eps, --max-n"),
        (["disks", "--from-null-seq", "G", "--eps", "1/8"],
         "disks --from-null-seq does not read --eps"),
        (["hypercyclic", "build-shift", "--basis", "BASIS", "--p", "SHIFT_P", "--disk", "DISK",
          "--horizon", "3"], "hypercyclic build-shift does not read --horizon"),
        (["hypercyclic", "witness", "--op", "OP", "--x", "X", "--y", "Y", "--p", "WITNESS_P",
          "--horizon", "8"], "hypercyclic witness does not read --horizon"),
    ], ids=["probes-of-common", "common-beside-null-seq", "demo-basis-op", "build-shift-op",
            "witness-basis", "demo-eps-max-n", "null-seq-eps", "build-shift-horizon",
            "witness-horizon"])
    def test_file_flag_the_mode_does_not_read(self, tmp_path, capsys, argv, named):
        """The subcommand twin of an unread payload field: the file would go
        unopened, or the value unused, and the run would pass without it."""
        shift = build_shift_scenario()["payload"]
        witness = witness_scenario()["payload"]
        common = common_scenario()["payload"]["common"]
        values = {
            "A": common["a"], "B": common["b"], "T": common["targets"],
            "G": disk_scenario()["payload"]["generators"], "PROBES": encode([sv(3, -4)]),
            "BASIS": shift["basis"], "SHIFT_P": shift["p"], "DISK": shift["disk"],
            "OP": witness["operator"], "X": witness["x"], "Y": witness["y"],
            "WITNESS_P": witness["p"],
        }
        files = {key: tmp_path / f"{key}.json" for key in [*values, "MISSING"]}
        for key, value in values.items():
            files[key].write_text(json.dumps(value))
        argv = [str(files.get(arg, arg)) for arg in argv]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {named}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, defaults", [
        (["hypercyclic", "witness", "--op", "OP", "--x", "X", "--y", "Y", "--p", "WITNESS_P"],
         ["--eps", "1/1000", "--max-n", "64"]),
        (["hypercyclic", "demo", "--x", "X"], ["--horizon", "8"]),
        (["disks", "--common", "A", "B", "--targets", "T"], ["--eps", "1/4"]),
    ], ids=["witness", "demo", "common"])
    def test_omitted_value_flag_is_its_default(self, tmp_path, capsys, argv, defaults):
        """A value flag defaults to None so that an unread one can be refused;
        the mode that reads it fills in the default, with the same bytes."""
        witness = witness_scenario()["payload"]
        common = common_scenario()["payload"]["common"]
        values = {"OP": witness["operator"], "X": witness["x"], "Y": witness["y"],
                  "WITNESS_P": witness["p"], "A": common["a"], "B": common["b"],
                  "T": common["targets"]}
        for key, value in values.items():
            (tmp_path / f"{key}.json").write_text(json.dumps(value))
        argv = [str(tmp_path / f"{arg}.json") if arg in values else arg for arg in argv]
        outputs = []
        for extra in ([], defaults):
            assert main(argv + extra + ["--window", "6"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] and outputs[0].startswith("{")

    @pytest.mark.parametrize("make", ["not-utf8", "directory", "too-deep"])
    def test_unreadable_scenario_file_does_not_stop_the_batch(self, tmp_path, capsys, make):
        bad = tmp_path / "bad.json"
        if make == "directory":
            bad.mkdir()
        elif make == "too-deep":
            bad.write_text('{"name": ' + "[" * 100_000 + "]" * 100_000 + "}")
        else:
            bad.write_bytes(b'{"name": "\xff"}')
        good = tmp_path / "good.json"
        good.write_text(json.dumps(demo_scenario()))
        out_dir = tmp_path / "out"
        code = main(["run", "--scenario", str(bad), "--scenario", str(good),
                     "--out", str(out_dir)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert [p.name for p in out_dir.iterdir()] == ["good.json"]

    @pytest.mark.parametrize("make", ["not-utf8", "directory"])
    def test_unreadable_file_of_a_subcommand(self, tmp_path, capsys, make):
        bad = tmp_path / "basis.json"
        if make == "directory":
            bad.mkdir()
        else:
            bad.write_bytes(b"[\xff]")
        assert main(["triangularize", "--basis", str(bad), "--stages", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_reports_sharing_a_stem(self, tmp_path, capsys):
        """The later of two scenario files with one stem would overwrite the
        first's report under --out: it is unusable, and the first is kept."""
        first, second = tmp_path / "a" / "s.json", tmp_path / "b" / "s.json"
        bad = tmp_path / "bad.json"
        for path, scenario in ((first, demo_scenario()), (second, disk_scenario()),
                               (bad, {"name": "x"})):
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(scenario))
        out_dir = tmp_path / "out"
        args = ["run", "--out", str(out_dir)]
        for path in (first, bad, second):
            args += ["--scenario", str(path)]
        assert main(args) == 2
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(": ")[:2] for line in lines] == [
            ["error", str(bad)], ["error", str(second)]]
        assert str(first) in lines[1]
        assert [p.name for p in out_dir.iterdir()] == ["s.json"]
        expected = emit_report(run_scenario(Scenario.from_dict(demo_scenario())), "json")
        assert (out_dir / "s.json").read_bytes() == expected


BUILDERS = [transport_scenario, triangularize_scenario, build_shift_scenario, demo_scenario,
            refute_scenario, disk_scenario, common_scenario, witness_scenario]
CORRUPTIONS = ["<delete>", None, "abc", -3, 0, [], {}, "<duplicate>"]


def _fields(node, path=()):
    """Every path of keys and list positions below node, parents first."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _fields(child, path + (key,))


def _corrupted(scenario, rng):
    """(path, corruption, copy) for every field and every applicable corruption:
    the field deleted, replaced, or with a random list item repeated.  The
    empty path replaces the whole scenario."""
    for value in CORRUPTIONS[1:-1]:
        yield (), value, copy.deepcopy(value)
    for path in _fields(scenario):
        for value in CORRUPTIONS:
            bad = copy.deepcopy(scenario)
            *parents, last = path
            node = bad
            for key in parents:
                node = node[key]
            if value == "<delete>":
                del node[last]
            elif value == "<duplicate>":
                if not isinstance(node[last], list) or not node[last]:
                    continue
                node[last].append(copy.deepcopy(rng.choice(node[last])))
            else:
                node[last] = copy.deepcopy(value)
            yield path, value, bad


class TestCorruptionFuzz:
    """Corrupting any one field of a scenario gives a report or a WorkbenchError."""

    @pytest.mark.parametrize("builder", BUILDERS, ids=lambda b: b.__name__)
    def test_one_corrupted_field(self, builder):
        scenario = builder()
        for path, value, bad in _corrupted(scenario, random.Random(7)):
            try:
                run_scenario(Scenario.from_dict(bad))
            except WorkbenchError:
                pass
            except Exception as exc:
                pytest.fail(f"{path} <- {value!r}: {type(exc).__name__}: {exc}")

    @pytest.mark.parametrize("builder", BUILDERS, ids=lambda b: b.__name__)
    def test_a_float_scenario_is_refused_before_its_payload(self, builder):
        """A scenario in float mode is refused for its mode, whatever else is
        wrong with it once every top-level field is present: no corruption of
        its name, window, seed, task or payload gets its task started."""
        scenario = dict(builder(), scalar_mode="float")
        refused = 0
        for path, value, bad in _corrupted(scenario, random.Random(7)):
            if path[:1] == ("scalar_mode",) or not (
                    isinstance(bad, dict) and all(key in bad for key in scenario)):
                continue
            with pytest.raises(ScenarioError) as exc:
                Scenario.from_dict(bad)
            assert str(exc.value) == "scalar_mode: must be 'exact'", (path, value)
            refused += 1
        assert refused > 20
        assert run_scenario(Scenario.from_dict(builder())).scalar_mode == "exact"

    def test_batch_of_corrupted_scenarios(self, tmp_path, capsys):
        rng = random.Random(11)
        candidates = [bad for builder in BUILDERS
                      for _, _, bad in _corrupted(builder(), rng)]
        rng.shuffle(candidates)
        batch = []
        for bad in candidates:
            try:
                run_scenario(Scenario.from_dict(bad))
            except WorkbenchError:
                batch.append(bad)
                if len(batch) == 6:
                    break
        batch[2:2] = [demo_scenario(), disk_scenario()]
        paths = TestBatch()._paths(tmp_path, batch)
        out_dir = tmp_path / "out"
        args = ["run", "--jobs", "2", "--out", str(out_dir)]
        for path in paths:
            args += ["--scenario", path]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [line.split(": ")[:2] for line in err.splitlines()] == [
            ["error", path] for path in paths[:2] + paths[4:]]
        assert sorted(p.name for p in out_dir.iterdir()) == ["s2.json", "s3.json"]


def noisy_transport_scenario(name="noisy-transport"):
    """The twins of `transport_scenario` with noise 1/2, far above the first
    eps slot 1/4: no forward step of stage 1 finds a pool element."""
    scenario = transport_scenario(name=name)
    for pairs in scenario["payload"]["b"]:
        pairs[-1][1] = "1/2"
    return scenario


class TestAbortedTransport:
    """A transport that aborts reports `transport-run` failed, the stage it
    reached and no matched pairs, and the run exits 1."""

    def _aborted(self, tmp_path, capsys, scenario):
        code, path = _run_file(tmp_path, scenario)
        assert code == 1
        assert capsys.readouterr().err == f"FAIL {path}\n"
        report = json.loads((tmp_path / "out" / "scenario.json").read_text())
        assert report["passed"] is False
        assert [c["name"] for c in report["checks"]] == ["transport-run"]
        assert "matched-pairs" not in {t["name"] for t in report["tables"]}
        return report["checks"][0]["detail"], report["data"]

    def test_no_pool_element_within_the_slot(self, tmp_path, capsys):
        detail, data = self._aborted(tmp_path, capsys, noisy_transport_scenario())
        assert detail.startswith("aborted at stage 1: no pool element within")
        assert data == {"aborted_stage": 1}

    def test_stages_beyond_the_prefix(self, tmp_path, capsys):
        scenario = transport_scenario(stages=2)
        scenario["payload"]["stages"] = 3
        detail, data = self._aborted(tmp_path, capsys, scenario)
        assert detail == "aborted at stage 3: enumeration prefix exhausted at stage 3"
        assert data == {"aborted_stage": 3}


def _fresh_env():
    """The environment of a new interpreter that imports orbitlab from this checkout."""
    return dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))


class TestFreshProcess:
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_run_as_the_benchmark_runs_it(self, tmp_path, jobs):
        """`python -m orbitlab.cli run --jobs N --out DIR` in a new interpreter
        writes the reports that `emit_report` gives in process, for both values
        of N the benchmark passes."""
        scenarios = [transport_scenario(name="passing"), noisy_transport_scenario("aborting")]
        args = [sys.executable, "-m", "orbitlab.cli", "run", "--jobs", jobs,
                "--out", str(tmp_path / "out")]
        for scenario in scenarios:
            path = tmp_path / f"{scenario['name']}.json"
            path.write_text(json.dumps(scenario))
            args += ["--scenario", str(path)]
        done = subprocess.run(args, env=_fresh_env(), capture_output=True, text=True, timeout=120)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert done.stderr == f"FAIL {tmp_path / 'aborting.json'}\n"
        for scenario in scenarios:
            written = (tmp_path / "out" / f"{scenario['name']}.json").read_bytes()
            assert written == emit_report(run_scenario(Scenario.from_dict(scenario)), "json")

    def test_importing_the_cli_generates_no_code(self):
        """A new interpreter's `import orbitlab.cli` adds to `sys.modules`
        neither `dataclasses` and the modules it pulls in, whose records exec
        generated methods at every start, nor a thread pool and its logging,
        which `run --jobs` does not use."""
        code = ("import sys; before = set(sys.modules); import orbitlab.cli; "
                "print(*sorted(set(sys.modules) - before))")
        done = subprocess.run([sys.executable, "-c", code], env=_fresh_env(),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        added = set(done.stdout.split())
        assert "orbitlab.cli" in added
        assert added & {"dataclasses", "inspect", "ast", "concurrent.futures", "logging"} == set()


class TestEachCheckCanFail:
    """Each report check fails, with its detail, on a tampered construction,
    and the scenario then exits 1."""

    def _failed(self, tmp_path, capsys, scenario, name):
        code, path = _run_file(tmp_path, scenario)
        assert code == 1
        assert capsys.readouterr().err == f"FAIL {path}\n"
        report = json.loads((tmp_path / "out" / "scenario.json").read_text())
        check = next(c for c in report["checks"] if c["name"] == name)
        assert check["passed"] is False
        return check["detail"], {c["name"] for c in report["checks"] if not c["passed"]}

    def _tampered_transport(self, monkeypatch, tamper):
        """run_transport as the scenario calls it, its state passed through tamper."""
        monkeypatch.setattr("orbitlab.scenarios.run_transport",
                            lambda *args: tamper(run_transport(*args)))

    def test_kernel_fixing_spot_check(self, tmp_path, capsys, monkeypatch):
        # T gains a term that moves vectors supported outside active(p) = 1..6
        kernel_f = CoordFunctional({i: Fraction(1) for i in range(7, 13)})
        self._tampered_transport(monkeypatch, lambda state: state._replace(
            terms=state.terms.with_term(kernel_f, sv(1))))
        detail, _ = self._failed(tmp_path, capsys, transport_scenario(),
                                 "kernel-fixing-spot-check")
        assert detail == "20 seeded kernel vectors"

    def test_min_rule_replay(self, tmp_path, capsys, monkeypatch):
        # pairs 1 and 2 swapped: every pair still matches, but stage 1 no
        # longer starts at the minimal unused index
        def swap(state):
            n, m = list(state.n_idx), list(state.m_idx)
            n[:2], m[:2] = n[1::-1], m[1::-1]
            return state._replace(n_idx=tuple(n), m_idx=tuple(m))

        self._tampered_transport(monkeypatch, swap)
        detail, failed = self._failed(tmp_path, capsys, transport_scenario(),
                                      "min-rule-replay")
        assert detail == "forced indices match the minimal-unused rule"
        assert failed == {"min-rule-replay"}

    def test_invertible_reports_a_singular_operator(self, tmp_path, capsys, monkeypatch):
        # J = I - e_1* (.) e_1 annihilates e_1, so the Gram solve raises
        singular = FiniteRankOperator(BASE_ZERO, ((CoordFunctional.delta(1), -sv(1)),))
        self._tampered_transport(
            monkeypatch, lambda state: state._replace(terms=singular))
        detail, _ = self._failed(tmp_path, capsys, transport_scenario(), "invertible")
        assert detail == "1x1 matrix is not invertible"

    def test_generators_inside_disk(self, tmp_path, capsys, monkeypatch):
        # a disk spanned by the halved generators gauges each generator at 2
        monkeypatch.setattr(DiskSpec, "from_generators", classmethod(
            lambda cls, xs: cls(generators=tuple(x.scale(Fraction(1, 2)) for x in xs))))
        detail, _ = self._failed(tmp_path, capsys, disk_scenario(), "generators-inside-disk")
        assert detail == "p_K(x_j) <= 1 for every generator"

    @pytest.mark.parametrize("m, j", [(1, 1), (2, 2), (2, 1), (4, 2)],
                             ids=["diagonal-1", "diagonal-2", "above-1-2", "above-2-4"])
    def test_triangular_checks(self, tmp_path, capsys, monkeypatch, m, j):
        # v_m gains 1 at coordinate alpha(j), j <= m: f_alpha(j)(v_m) leaves
        # delta_jm, and so does entry (j, m) of the shuffled matrix
        def tampered(*args):
            state = interleave_triangularize(*args)
            v = list(state.v)
            v[m - 1] += SparseVector({state.alpha[j - 1]: Fraction(1)})
            return state._replace(v=tuple(v))

        monkeypatch.setattr("orbitlab.scenarios.interleave_triangularize", tampered)
        detail, failed = self._failed(tmp_path, capsys, triangularize_scenario(),
                                      "biorthogonal-triangular")
        assert detail == "f_alpha(j)(v_m) identities"
        assert failed == {"biorthogonal-triangular", "unit-lower-triangular"}

    def test_continuity_bound(self, tmp_path, capsys, monkeypatch):
        # the shift's updates scaled by 2^10 push c far beyond 1, so the
        # Neumann certificate fails, and with it the check
        def inflated(*args):
            spec = build_shift_operator(*args)
            terms = tuple((f, v.scale(2 ** 10)) for f, v in spec.operator.terms)
            return spec._replace(operator=FiniteRankOperator(BASE_ZERO, terms))

        monkeypatch.setattr("orbitlab.scenarios.build_shift_operator", inflated)
        detail, _ = self._failed(tmp_path, capsys, build_shift_scenario(), "continuity-bound")
        assert detail == "p_D(S x) <= p(x) on 100 seeded vectors"


# each subcommand form as (scenario builder, where its payload keys live, argv):
# ("file", key) stands for a JSON file holding payload[key], ("value", key)
# for payload[key] as text
SUBCOMMAND_FORMS = [
    (transport_scenario, lambda payload: payload,
     ["transport", "--a", ("file", "a"), "--b", ("file", "b"), "--p", ("file", "p"),
      "--disk", ("file", "disk"), "--stages", ("value", "stages"),
      "--eps-schedule", ("value", "eps_schedule")]),
    (triangularize_scenario, lambda payload: payload,
     ["triangularize", "--basis", ("file", "basis"), "--stages", ("value", "stages")]),
    (disk_scenario, lambda payload: payload,
     ["disks", "--from-null-seq", ("file", "generators")]),
    (common_scenario, lambda payload: payload["common"],
     ["disks", "--common", ("file", "a"), ("file", "b"), "--targets", ("file", "targets"),
      "--eps", ("value", "eps")]),
    (build_shift_scenario, lambda payload: payload,
     ["hypercyclic", "build-shift", "--basis", ("file", "basis"), "--p", ("file", "p"),
      "--disk", ("file", "disk")]),
    (witness_scenario, lambda payload: payload,
     ["hypercyclic", "witness", "--op", ("file", "operator"), "--x", ("file", "x"),
      "--y", ("file", "y"), "--p", ("file", "p"), "--eps", ("value", "eps"),
      "--max-n", ("value", "max_n")]),
    (demo_scenario, lambda payload: payload,
     ["hypercyclic", "demo", "--x", ("file", "x0"), "--horizon", ("value", "horizon")]),
    (refute_scenario, lambda payload: payload,
     ["refute", "--op", ("file", "operator"), "--x", ("file", "x"),
      "--levels", ("value", "family_levels"), "--first-active", ("value", "first_active"),
      "--horizon", ("value", "horizon")]),
]


@pytest.mark.parametrize("builder, root, form", SUBCOMMAND_FORMS,
                         ids=["transport", "triangularize", "disks-from-null-seq",
                              "disks-common", "build-shift", "witness", "demo", "refute"])
def test_subcommand_writes_the_report_of_its_scenario(tmp_path, builder, root, form):
    """A subcommand builds the scenario a file would hold, in the exact mode:
    its report is, byte for byte, the one `run` writes for that file."""
    scenario = builder()
    payload = root(scenario["payload"])
    argv = []
    for item in form:
        if isinstance(item, tuple):
            kind, key = item
            if kind == "file":
                path = tmp_path / f"{key}.json"
                path.write_text(json.dumps(payload[key]))
                item = str(path)
            else:
                item = str(payload[key])
        argv.append(item)
    name = scenario["name"]
    code = main(argv + ["--name", name, "--window", str(scenario["window"]),
                        "--seed", str(scenario["seed"]), "--out", str(tmp_path / "direct")])
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(scenario))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "run")]) == code
    direct = (tmp_path / "direct" / f"{name}.json").read_bytes()
    assert direct == (tmp_path / "run" / f"{name}.json").read_bytes()
    assert json.loads(direct)["scalar_mode"] == "exact"
