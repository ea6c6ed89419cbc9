"""Canonical text formats round-trip, every decoder takes the scalar mode
name that the benchmark's set-up probe hands it, and a decode parses each
distinct text once."""

import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from orbitlab import CoordFunctional, DiskSpec, FiniteRankOperator, SeminormSpec, SparseVector
from orbitlab.operators import BASE_ZERO
from orbitlab.scalars import MAX_DIGITS, format_scalar, parse
from orbitlab.scenarios import Scenario, ScenarioError, run_scenario
from orbitlab import serialize

import oracles


def test_scalar_text_forms():
    assert format_scalar(Fraction(3, 2)) == "3/2"
    assert format_scalar(Fraction(-3, 2)) == "-3/2"
    assert format_scalar(Fraction(4, 2)) == "2"
    # the Neumann budget of an unbounded term is the float infinity
    assert format_scalar(float("inf")) == "inf"


def test_scalar_parse_round_trip():
    for value in [Fraction(0), Fraction(7, 3), Fraction(-1, 8), Fraction(12)]:
        assert parse(format_scalar(value)) == value


def test_scalar_parse_rejects_bad_text():
    for text in ("abc", "1/0", "", "1/", "nan", "inf", "-inf"):
        with pytest.raises(ValueError):
            parse(text)
    assert parse(" 2/4 ") == Fraction(1, 2)


NEAR_MISSES = [
    "3/-4", "+3", "-0", " 3 / 4 ", "1_000", "０", "²", "/3", "3/", "1/0", "1e3", "nan", "--1",
    "3/4", "-3/4", "007/014", "0/5", "-0/7", "\t-12\n", "", "-", "/", "3//4", "3/4/5", "-/3",
    "1/-0", "+3/4", "3/+4", "1.5", ".5", "5.", "-1e-3", "inf", "-inf", "3 /4", "3/ 4",
    "٣/4", "3/٤", "3\u00a0/4", "0x10", "1" * 5000, "1" + "0" * 400, "1/1" + "0" * 400,
    "1e4299", "1.5e4299", "-1e-4299", "1e4301", "1e-4300", "0e9999", "2E+5000", "1e1000000",
    "0." + "0" * 4299 + "1", "1/1" + "0" * 4300, "1e" + "9" * 4301, "1/2e5000", "1e 5000",
    "1e4_301", "1e+-5000", "x1e5000", "1.e5000",
]


def _beyond_the_digit_limit(text):
    """Whether `Fraction(text)` reads the text, but with an exponent beyond
    MAX_DIGITS or a numerator or denominator of more than MAX_DIGITS digits."""
    try:
        value = oracles.parse_scalar(text)
    except ValueError:
        return False
    exponent = re.search(r"e([-+]?[\d_]+)$", text.strip(), re.IGNORECASE)
    return (exponent is not None and abs(int(exponent.group(1))) > MAX_DIGITS
            or max(abs(value.numerator), value.denominator) >= 10 ** MAX_DIGITS)


def _parse_outcome(parse, text):
    """(type, value) of the parsed text, or the text of its ValueError."""
    try:
        value = parse(text)
    except ValueError as exc:
        return "ValueError", str(exc)
    return type(value).__name__, value


def test_scalar_parse_matches_the_fraction_parse():
    """The plain-rational fast path gives the value, type or error text that
    `Fraction(text)` gives, on near misses and on seeded random strings,
    within the digit limit; beyond it the parse refuses the text."""
    rng = random.Random(20120502)
    texts = NEAR_MISSES + ["".join(rng.choice("0123456789-/+ _.e") for _ in range(rng.randrange(9)))
                           for _ in range(4000)]
    beyond = [text for text in texts if _beyond_the_digit_limit(text)]
    within = [text for text in texts if text not in beyond]
    outcomes = [(_parse_outcome(parse, text), _parse_outcome(oracles.parse_scalar, text))
                for text in within]
    assert [text for text, (got, want) in zip(within, outcomes) if got != want] == []
    parsed = sum(got[0] != "ValueError" for got, _ in outcomes)
    assert 500 < parsed < len(within) - 500  # both sides of the rule are exercised
    assert len(beyond) >= 8
    assert [_parse_outcome(parse, text) for text in beyond] == [
        ("ValueError", f"{text.strip()!r} is beyond the {MAX_DIGITS}-digit limit of a scalar")
        for text in beyond]


def test_vector_pairs_round_trip():
    x = SparseVector({4: Fraction(-1), 1: Fraction(3, 2)})
    pairs = serialize.encode_pairs(x)
    assert pairs == [[1, "3/2"], [4, "-1"]]
    assert serialize.decode_vector(pairs) == x


def test_vector_text_round_trip():
    x = SparseVector({2: Fraction(5, 7), 9: Fraction(-2)})
    assert oracles.parse_vector(serialize.format_vector(x)) == x
    assert serialize.format_vector(SparseVector.zero()) == "0"
    assert oracles.parse_vector("0").is_zero()


def test_seminorm_round_trip():
    p = SeminormSpec(kind="l1", weights={1: Fraction(1, 2), 5: Fraction(3)})
    data = oracles.encode_seminorm(p)
    assert serialize.decode_seminorm(data) == p


def test_disk_round_trips():
    d1 = oracles.l1_disk([1, 2, 3])
    assert serialize.decode_disk(oracles.encode_disk(d1)) == d1
    d2 = DiskSpec.from_generators([SparseVector.basis(1), SparseVector({2: Fraction(1, 2)})])
    assert serialize.decode_disk(oracles.encode_disk(d2)) == d2


def test_operator_round_trip():
    t = FiniteRankOperator(
        BASE_ZERO,
        (
            (CoordFunctional.delta(2), SparseVector.basis(1).scale(Fraction(1, 2))),
            (CoordFunctional({1: Fraction(-1), 3: Fraction(2)}), SparseVector.basis(3)),
        ),
    )
    data = serialize.encode_operator(t)
    assert serialize.decode_operator(data) == t


DECODINGS = [
    (serialize.decode_vector, [[1, "1/2"]], SparseVector({1: Fraction(1, 2)})),
    (serialize.decode_vector, [[1, "1/2"], [3, "1/2"], [4, 2]],
     SparseVector({1: Fraction(1, 2), 3: Fraction(1, 2), 4: Fraction(2)})),
    (serialize.decode_functional, [[1, "1/2"]], CoordFunctional({1: Fraction(1, 2)})),
    (serialize.decode_seminorm, {"kind": "sup", "weights": [[1, "1/2"]]},
     SeminormSpec("sup", {1: Fraction(1, 2)})),
    (serialize.decode_disk, {"weights": [[1, "1/2"]]}, DiskSpec(weights={1: Fraction(1, 2)})),
    (serialize.decode_operator, {"base": "zero", "terms": [{"f": [[2, "1"]], "v": [[1, "1/2"]]}]},
     FiniteRankOperator(BASE_ZERO,
                        ((CoordFunctional.delta(2), SparseVector({1: Fraction(1, 2)})),))),
]
DECODER_IDS = ["vector", "vector-repeated-text", "functional", "seminorm", "disk", "operator"]


@pytest.mark.parametrize("decode, data, value", DECODINGS, ids=DECODER_IDS)
def test_every_decoder_takes_the_mode_name(decode, data, value):
    """perfbench/setup_probe.py hands the decoders `Scenario.scalar_mode`."""
    assert decode(data, "exact") == decode(data) == value


@pytest.mark.parametrize("decode, data, value", DECODINGS, ids=DECODER_IDS)
def test_every_decoder_refuses_a_retired_mode_name(decode, data, value):
    """A mode name reaches `scalars.check_mode`, which knows "exact" alone: a
    decoder handed "float" refuses it instead of decoding in exact mode."""
    with pytest.raises(ValueError, match="^unknown scalar mode 'float'$"):
        decode(data, "float")


ROOT = Path(__file__).resolve().parents[1]


def test_the_setup_probe_decodes_every_workload(tmp_path):
    """perfbench/setup_probe.py, the process the benchmark's `setup_s` times,
    decodes the seed-1 scenarios of every workload and exits 0."""
    workloads = oracles.benchmark_workloads()
    paths = []
    for workload in ("triangularize", "transport", "shiftgauge"):
        for k, data in enumerate(workloads.generate(workload, 1)):
            path = tmp_path / f"{workload}-{k:02d}.json"
            path.write_text(json.dumps(data))
            paths.append(str(path))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), *paths],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


TRIANGULARIZE = {"name": "t", "scalar_mode": "exact", "window": 8, "seed": 1,
                 "task": "triangularize"}


@pytest.mark.parametrize("values", [
    '[1, 1.0, "1", "1", 1]',
    '["1", 1, 1.0, true]',
    '[true, "1", 1]',
    '[1, true, "1"]',
    '[1.0, "1", false, "1"]',
], ids=["no-bool", "true-last", "true-first", "true-between", "false"])
def test_the_text_table_keys_on_text_alone(values):
    """JSON's 1, 1.0 and true compare and hash alike, so a table keyed on
    them would hand true the scalar of 1: each non-text value still goes
    through `parse` on its own, and a bool is refused wherever it stands,
    in one map or in the vectors of one list, which share a table."""
    pairs = [[i, v] for i, v in enumerate(json.loads(values), start=1)]
    basis = Scenario.from_dict(dict(TRIANGULARIZE, payload={"basis": [[pair] for pair in pairs],
                                                             "stages": 1}))
    bad = next(((k, v) for k, (_, v) in enumerate(pairs) if type(v) is bool), None)
    if bad is None:
        assert serialize.decode_pairs(pairs) == {i: Fraction(1) for i, _ in pairs}
        assert run_scenario(basis).passed
    else:
        k, v = bad
        with pytest.raises(ValueError, match=f"^{str(v)!r} is not a finite scalar$"):
            serialize.decode_pairs(pairs)
        with pytest.raises(ScenarioError,
                           match=rf"^payload\.basis\[{k}\]: {str(v)!r} is not a finite scalar$"):
            run_scenario(basis)


@pytest.mark.parametrize("payload, named", [
    ({"basis": [[[1, "1"]], [[2, "1/0"]], [[3, "1/0"]]], "stages": 1},
     "payload.basis[1]: '1/0' is not a finite scalar"),
    ({"basis": [[[1, "x"], [2, "x"]], [[2, "x"]]], "stages": 1},
     "payload.basis[0]: 'x' is not a finite scalar"),
    ({"basis": [[[1, "1"]], [[1, "1e4301"]], [[2, "1e4301"]]], "stages": 1},
     f"payload.basis[1]: '1e4301' is beyond the {MAX_DIGITS}-digit limit of a scalar"),
    ({"basis": [[[1, "1"]], [[1, "nan"]], [[1, "nan"]]], "stages": 1},
     "payload.basis[1]: 'nan' is not a finite scalar"),
], ids=["zero-denominator", "same-vector", "digit-limit", "nan"])
def test_a_malformed_text_fails_at_its_first_vector(payload, named):
    """A text that does not parse enters no table, so each vector that holds
    it parses it afresh and the first one names the path."""
    with pytest.raises(ScenarioError) as caught:
        run_scenario(Scenario.from_dict(dict(TRIANGULARIZE, payload=payload)))
    assert str(caught.value) == named


def test_a_text_repeated_across_decodes_gives_equal_entries():
    """Vectors that share a table, and an operator's terms, read a repeated
    text as the scalar a fresh decode gives."""
    vectors = [[[1, "3/2"], [2, "-1/3"]], [[2, "3/2"], [5, "-1/3"]], [[1, "0.5"], [4, "1/2"]]]
    texts = {}
    shared = [serialize.decode_vector(v, "exact", texts) for v in vectors]
    assert shared == [serialize.decode_vector(v) for v in vectors]
    assert shared[0].get(1) == shared[1].get(2) == Fraction(3, 2)
    assert shared[2].get(1) == shared[2].get(4) == Fraction(1, 2)
    assert texts == {"3/2": Fraction(3, 2), "-1/3": Fraction(-1, 3), "0.5": Fraction(1, 2),
                     "1/2": Fraction(1, 2)}
    operator = {"base": "zero", "terms": [{"f": v, "v": w} for v, w in zip(vectors, vectors[1:])]}
    assert serialize.decode_operator(operator) == FiniteRankOperator(BASE_ZERO, tuple(
        (CoordFunctional(serialize.decode_pairs(v)), serialize.decode_vector(w))
        for v, w in zip(vectors, vectors[1:])))


PARSE_CALLS = {1: 140, 2: 139}  # 1697 and 1680 when every text was parsed afresh
FORMAT_CALLS = {1: 2023, 2: 2024}  # 3014 and 3016 when each v_m was formatted twice


@pytest.mark.parametrize("seed", sorted(PARSE_CALLS))
def test_a_corpus_pass_parses_and_formats_each_scalar_once(monkeypatch, seed):
    """Over one triangularize corpus pass, no scenario parses a text twice,
    `parse` makes PARSE_CALLS calls and `format_scalar` FORMAT_CALLS: each
    v_m entry is formatted once, for its table row and the operator in the
    data.  Counts only; no time is measured."""
    parsed, formatted = [], []

    def parsing(text):
        parsed[-1].append(text)
        return real_parse(text)

    def formatting(x):
        formatted.append(x)
        return real_format(x)

    real_parse = oracles.patch_scalars(monkeypatch, "parse", parsing)
    real_format = oracles.patch_scalars(monkeypatch, "format_scalar", formatting)
    for data in oracles.benchmark_workloads().generate("triangularize", seed):
        parsed.append([])
        report = run_scenario(Scenario.from_dict(data))
        assert report.passed, data["name"]
    assert [texts for texts in parsed if len(set(texts)) < len(texts)] == []
    assert sum(map(len, parsed)) == PARSE_CALLS[seed]
    assert len(formatted) == FORMAT_CALLS[seed]
