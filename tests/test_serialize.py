"""Canonical text formats round-trip in both scalar modes."""

import random
import re
from fractions import Fraction

import pytest

from orbitlab import CoordFunctional, DiskSpec, FiniteRankOperator, SeminormSpec, SparseVector
from orbitlab.operators import ZERO
from orbitlab.scalars import EXACT, FLOAT, MAX_DIGITS, format_scalar
from orbitlab import serialize

import oracles


def test_scalar_text_forms():
    assert format_scalar(Fraction(3, 2)) == "3/2"
    assert format_scalar(Fraction(-3, 2)) == "-3/2"
    assert format_scalar(Fraction(4, 2)) == "2"
    assert format_scalar(0.25) == "0.25"


def test_scalar_parse_round_trip():
    for value in [Fraction(0), Fraction(7, 3), Fraction(-1, 8), Fraction(12)]:
        assert EXACT.parse(format_scalar(value)) == value
    for value in [0.1, -2.5, 2.0 ** -40]:
        assert FLOAT.parse(format_scalar(value)) == value


def test_scalar_parse_rejects_bad_text():
    for ctx in (EXACT, FLOAT):
        for text in ("abc", "1/0", "", "1/"):
            with pytest.raises(ValueError):
                ctx.parse(text)
    for text in ("nan", "inf", "-inf", "1e400"):
        with pytest.raises(ValueError):
            FLOAT.parse(text)
    assert FLOAT.parse("1/4") == 0.25 and EXACT.parse(" 2/4 ") == Fraction(1, 2)


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


@pytest.mark.parametrize("ctx", [EXACT, FLOAT], ids=["exact", "float"])
def test_scalar_parse_matches_the_fraction_parse(ctx):
    """The plain-rational fast path gives the value, type or error text that
    `Fraction(text)` gives, on near misses and on seeded random strings,
    within the digit limit; beyond it the parse refuses the text."""
    rng = random.Random(20120502)
    texts = NEAR_MISSES + ["".join(rng.choice("0123456789-/+ _.e") for _ in range(rng.randrange(9)))
                           for _ in range(4000)]
    beyond = [text for text in texts if _beyond_the_digit_limit(text)]
    within = [text for text in texts if text not in beyond]
    outcomes = [(_parse_outcome(ctx.parse, text), _parse_outcome(
        lambda t: oracles.parse_scalar(t, ctx), text)) for text in within]
    assert [text for text, (got, want) in zip(within, outcomes) if got != want] == []
    parsed = sum(got[0] != "ValueError" for got, _ in outcomes)
    assert 500 < parsed < len(within) - 500  # both sides of the rule are exercised
    assert len(beyond) >= 8
    assert [_parse_outcome(ctx.parse, text) for text in beyond] == [
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
        ZERO,
        (
            (CoordFunctional.delta(2), SparseVector.basis(1).scale(Fraction(1, 2))),
            (CoordFunctional({1: Fraction(-1), 3: Fraction(2)}), SparseVector.basis(3)),
        ),
    )
    data = serialize.encode_operator(t)
    assert serialize.decode_operator(data) == t


def test_float_mode_round_trip():
    x = SparseVector({1: 0.5, 3: -1.25})
    pairs = serialize.encode_pairs(x)
    assert serialize.decode_vector(pairs, FLOAT) == x
