"""The JSON emitter writes the bytes of `json.dumps(sort_keys=True, indent=2)`
without running the pure-Python encoder."""

import json
import random
from fractions import Fraction

import pytest

from orbitlab.reports import CheckResult, Report, Table, emit_report

TEXTS = ["", "plain", 'quote " backslash \\ slash /', "tab\t newline\n cr\r formfeed\f",
         "\x00\x01\x1f\x7f", "é ü ß", "∑ ≤ ∞", "😀 𝔽", "  ", "\ud800 lone", "10", "2"]


def random_text(rng):
    """One of TEXTS followed by up to three characters drawn from the control,
    ASCII, BMP and astral ranges (no surrogates: TEXTS holds the lone one)."""
    ranges = [(0, 0x20), (0x20, 0x80), (0x80, 0xD800), (0xE000, 0x10000), (0x10000, 0x110000)]
    return rng.choice(TEXTS) + "".join(chr(rng.randrange(*rng.choice(ranges)))
                                       for _ in range(rng.randrange(4)))


def random_value(rng, depth):
    """A nested value of the types a report holds: dicts with str keys,
    lists, str, int (large and negative among them), bool and None."""
    kind = rng.randrange(9 if depth > 0 else 5)
    if kind == 0:
        return random_text(rng)
    if kind == 1:
        return rng.choice([0, -1, 7, 2 ** 64, -(3 ** 90), rng.randrange(-10 ** 30, 10 ** 30)])
    if kind == 2:
        return rng.choice([True, False])
    if kind == 3:
        return None
    if kind == 4:
        return rng.choice([[], {}, [[]], {"": {}}, [{}, []]])
    if kind in (5, 6):
        return [random_value(rng, depth - 1) for _ in range(rng.randrange(5))]
    keys = ["10", "2", "1", "a", "B", "", "é", "😀"] + [random_text(rng) for _ in range(3)]
    return {rng.choice(keys): random_value(rng, depth - 1) for _ in range(rng.randrange(6))}


def report_holding(data):
    return Report(scenario="s", task="t", scalar_mode="exact", seed=1,
                  scenario_hash="0" * 64, version="v", data=data)


def test_json_bytes_match_json_dumps_on_random_values():
    rng = random.Random(20120502)
    for _ in range(400):
        report = report_holding(random_value(rng, 4))
        report.checks = [CheckResult(random_text(rng), rng.choice([True, False]), random_text(rng))
                         for _ in range(rng.randrange(3))]
        report.tables = [Table(random_text(rng), [random_text(rng)],
                               [[random_text(rng)] for _ in range(rng.randrange(3))])
                         for _ in range(rng.randrange(3))]
        want = json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
        assert emit_report(report, "json") == want.encode("utf-8")


def test_keys_sort_as_text():
    text = emit_report(report_holding({"2": 2, "10": 1, "1": {"b": [], "a": {}}}), "json").decode()
    assert text.index('"1"') < text.index('"10"') < text.index('"2"')
    assert text.index('"a": {}') < text.index('"b": []')


@pytest.mark.parametrize("data", [0.5, Fraction(1, 2), {1, 2}, {1: "one"}, [{"a": [1.0]}]],
                         ids=["float", "fraction", "set", "int-key", "nested-float"])
def test_a_type_no_report_holds_raises(data):
    """Float-mode scalars reach a report as text; anything else is refused."""
    with pytest.raises(TypeError):
        emit_report(report_holding(data), "json")


def test_json_emitter_skips_the_pure_python_encoder(monkeypatch):
    """With an indent, json.dumps runs `json.encoder._make_iterencode`; the
    emitter must not reach it."""
    calls = []
    real = json.encoder._make_iterencode

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(json.encoder, "_make_iterencode", spy)
    report = report_holding({"operator": {"terms": [{"f": [[1, "1/2"]]}]}})
    report.tables = [Table("t", ["n"], [["1"]])]
    emit_report(report, "json")
    assert calls == []
    # the spy does see the pure-Python encoder whenever that encoder runs
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    json.dumps(report.to_dict(), sort_keys=True, indent=2)
    assert calls


def test_json_emitter_writes_str_and_int_leaves_in_place(monkeypatch):
    """`_write_json` recurses only into a dict, a list, a bool or None: a
    str or int item of a list or dict is written where it stands, so a
    report of `[i, "p/q"]` pairs makes one call per pair, not three."""
    from orbitlab import reports

    kinds, real = [], reports._write_json

    def spy(value, indent, out):
        kinds.append(type(value))
        return real(value, indent, out)

    monkeypatch.setattr(reports, "_write_json", spy)
    report = report_holding({"v": [[i, f"{i}/7"] for i in range(50)], "n": 3, "s": "x",
                             "b": [True, None, 10 ** 40, "é"]})
    report.tables = [Table("t", ["n"], [["1"]])]
    want = json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
    assert emit_report(report, "json") == want.encode("utf-8")
    assert str not in kinds and int not in kinds
    # the 50 pairs, "v", "b", the checks, the tables and the table's columns,
    # rows and row
    assert kinds.count(list) == 50 + 7
