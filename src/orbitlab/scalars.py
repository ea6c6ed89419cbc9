"""The scalars: exact rationals.

A whole scenario runs on one `ScalarContext`: it fixes the scalar type where
text becomes scalars (`parse`), supplies `zero` and `one`, scales rows to
integers for the fraction-free kernels (`integer_row`, kept on a vector by
`integer_of`) and sums the quotients of a disk gauge on integers
(`abs_ratio_sum`).  Every value is a `Fraction` (an empty sum may be the int
0), so comparisons are the plain `==` and `<`.  The one mode is "exact";
reports still record it as their `scalar_mode`.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, Mapping, Tuple

Scalar = Fraction

# CPython's int reads and writes at most this many digits of text by default,
# so `parse` refuses a value that `format_scalar` could not write back
MAX_DIGITS = 4300
_DIGITS_CEILING = 10 ** MAX_DIGITS


def _immutable(self, name, *value):
    """`__setattr__` and `__delattr__` of the value types: `__init__` sets each field once."""
    raise AttributeError(f"cannot assign to or delete field {name!r} of {type(self).__name__}")


def _exact_entry(value, idx: int, what: str = "entry") -> Scalar:
    """A map's int entry as its Fraction, a Fraction as itself; TypeError else."""
    if type(value) is Fraction:
        return value
    if type(value) is not int:
        raise TypeError(f"{what} at coordinate {idx} is not an int or a Fraction: {value!r}")
    return Fraction(value)


class ScalarContext:
    """The scalar type, its constants and its text form."""

    __setattr__ = __delattr__ = _immutable

    zero = Fraction(0)
    one = Fraction(1)

    def __init__(self, mode: str = "exact"):
        if mode != "exact":
            raise ValueError(f"unknown scalar mode {mode!r}")
        object.__setattr__(self, "mode", mode)

    def __eq__(self, other):
        return self.mode == other.mode if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash((self.mode,))

    def coerce(self, value) -> Scalar:
        """The value as a scalar: text as the Fraction it names, else by the
        rule of `_exact_entry`, so a float (lossy by intent) or a bool is refused."""
        try:
            return Fraction(value) if isinstance(value, str) else _exact_entry(value, 0)
        except TypeError:
            raise TypeError(f"cannot use {value!r} as an exact scalar") from None

    def parse(self, text) -> Scalar:
        """Scalar from its text form ("3/2", "-1", "0.25"); ValueError on
        malformed text, a zero denominator, nan or an infinity.

        The plain form `format_scalar` writes (an optional "-", ASCII digits,
        optionally "/" and ASCII digits) is built from its two integers; every
        other form (decimals, exponents, "+", spaces, underscores, non-ASCII
        digits) goes through `Fraction(text)`, with the same values and errors,
        except that it refuses an exponent beyond MAX_DIGITS before building
        its power of ten, and a value with more than MAX_DIGITS digits in its
        numerator or denominator."""
        text = str(text).strip()
        num, slash, den = text.partition("/")
        try:
            if text.isascii() and num.removeprefix("-").isdecimal() and (
                    den.isdecimal() or not slash):
                return Fraction(int(num), int(den)) if slash else Fraction(int(num))
            head, e, exp = text.lower().partition("e")
            if e and abs(int(exp)) > MAX_DIGITS:
                # check the form alone, its exponent's digits zeroed, so that
                # malformed text is refused as such and 10 ** exp is not built
                Fraction(head + e + "".join("0" if c.isdecimal() else c for c in exp))
            else:
                value = Fraction(text)
                if max(abs(value.numerator), value.denominator) < _DIGITS_CEILING:
                    return value
        except (ValueError, ZeroDivisionError, OverflowError):
            raise ValueError(f"{text!r} is not a finite scalar") from None
        raise ValueError(f"{text!r} is beyond the {MAX_DIGITS}-digit limit of a scalar")

    def format(self, x: Scalar) -> str:
        """Canonical text of x (an int, an empty sum, prints as one)."""
        return format_scalar(x)

    def integer_row(self, entries: Mapping[int, Scalar]) -> Tuple[Dict[int, int], int]:
        """(row, den): den the lcm of the denominators of the entries and row
        the non-zero entries times den, all integers, in the order of
        `entries`."""
        ratios = [(i, v.as_integer_ratio()) for i, v in entries.items()]
        den = lcm(*[d for _, (_, d) in ratios])
        return {i: n * (den // d) for i, (n, d) in ratios if n}, den

    def integer_of(self, x) -> Tuple[Dict[int, int], int]:
        """`integer_row(x.entries)` for a vector or functional x, kept in its
        slot `_int` from the first call and read only."""
        if x._int is None:
            object.__setattr__(x, "_int", self.integer_row(x.entries))
        return x._int

    def abs_ratio_sum(self, pairs: Iterable[Tuple[Scalar, Scalar]]) -> Scalar:
        """The sum of |a| / d over the (a, d) pairs, zero when there are none.

        The numerators are summed over one common denominator, the lcm of
        the quotients' denominators, into a single Fraction; a and d are
        Fractions, d > 0.
        """
        nums, dens = [], []
        for a, d in pairs:
            a_num, a_den = a.as_integer_ratio()
            d_num, d_den = d.as_integer_ratio()
            nums.append(abs(a_num) * d_den)
            dens.append(a_den * d_num)
        if not nums:
            return self.zero
        den = lcm(*dens)
        return Fraction(sum(n * (den // d) for n, d in zip(nums, dens)), den)


EXACT = ScalarContext()


def format_scalar(x: Scalar) -> str:
    """Canonical text: rationals as p/q in lowest terms, ints as themselves,
    anything else (the infinity of an unbounded gauge) as its float repr."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, int):
        return str(x)
    return repr(float(x))
