"""Scalar modes: exact rationals (default) or binary floats with a tolerance.

A whole scenario runs in one mode, carried by one `ScalarContext`: it fixes
the scalar type where text becomes scalars (`parse`), supplies `zero` and
`one`, compares, weighs pivots for elimination (`pivot_weight`), says
whether rows may be eliminated on integers (`integer_row`, kept on a vector
by `integer_of`) and whether a value may come from a smaller, equivalent
system (`route_free`), sums the quotients of a disk gauge on integers in
exact mode (`abs_ratio_sum`) and folds the products of a float substitution
(`sub_products`).  Value types never learn the mode.  Exact mode is the
basis of every acceptance check; float mode exists for larger experiments.
In float mode `is_zero` is absolute (|x| <= FLOAT_TOL = 2^-40) while `eq`
and `lt` are relative (|a - b| <= FLOAT_TOL * max(1, |a|, |b|)).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

Scalar = Union[Fraction, float]

FLOAT_TOL = 2.0 ** -40

# CPython's int reads and writes at most this many digits of text by default,
# so `parse` refuses a value that `format_scalar` could not write back
MAX_DIGITS = 4300
_DIGITS_CEILING = 10 ** MAX_DIGITS


def _immutable(self, name, *value):
    """`__setattr__` and `__delattr__` of the value types: `__init__` sets each field once."""
    raise AttributeError(f"cannot assign to or delete field {name!r} of {type(self).__name__}")


class ScalarContext:
    """The scalar type, its constants, its text form and its comparisons."""

    __setattr__ = __delattr__ = _immutable

    def __init__(self, mode: str = "exact"):
        if mode not in ("exact", "float"):
            raise ValueError(f"unknown scalar mode {mode!r}")
        object.__setattr__(self, "mode", mode)

    def __eq__(self, other):
        return self.mode == other.mode if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash((self.mode,))

    @cached_property
    def exact(self) -> bool:
        return self.mode == "exact"

    @cached_property
    def zero(self) -> Scalar:
        return Fraction(0) if self.exact else 0.0

    @cached_property
    def one(self) -> Scalar:
        return Fraction(1) if self.exact else 1.0

    def coerce(self, value) -> Scalar:
        """The value as a scalar of this mode; exact mode refuses floats (lossy by intent)."""
        if not self.exact:
            return float(value)
        if isinstance(value, Fraction):
            return value
        if isinstance(value, (int, str)):
            return Fraction(value)
        raise TypeError(f"cannot use {value!r} as an exact scalar")

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
                value = Fraction(int(num), int(den)) if slash else Fraction(int(num))
                return value if self.exact else float(value)
            head, e, exp = text.lower().partition("e")
            if e and abs(int(exp)) > MAX_DIGITS:
                # check the form alone, its exponent's digits zeroed, so that
                # malformed text is refused as such and 10 ** exp is not built
                Fraction(head + e + "".join("0" if c.isdecimal() else c for c in exp))
            else:
                value = Fraction(text)
                if max(abs(value.numerator), value.denominator) < _DIGITS_CEILING:
                    return value if self.exact else float(value)
        except (ValueError, ZeroDivisionError, OverflowError):
            raise ValueError(f"{text!r} is not a finite scalar") from None
        raise ValueError(f"{text!r} is beyond the {MAX_DIGITS}-digit limit of a scalar")

    def format(self, x: Scalar) -> str:
        """Canonical text of x; an int (an empty sum) prints in this mode's form."""
        return format_scalar(x if self.exact else float(x))

    def is_zero(self, x: Scalar) -> bool:
        if self.exact:
            return x == 0
        return abs(x) <= FLOAT_TOL

    def pivot_weight(self, x: Scalar) -> Scalar:
        """How good a pivot x is: 0 for a zero, 1 for any other x in exact
        mode (the first non-zero serves), |x| in float mode (the largest is
        the most stable)."""
        if self.is_zero(x):
            return 0
        return 1 if self.exact else abs(x)

    @property
    def route_free(self) -> bool:
        """Whether a value is the same by every route that computes it
        algebraically: True in exact mode, so a unique solution or a rank may
        come from a smaller, equivalent system, and a verdict from a
        certificate that implies it; False in float mode, whose values round
        along the eliminations actually run."""
        return self.exact

    def integer_row(self, entries: Mapping[int, Scalar]) -> Optional[Tuple[Dict[int, int], int]]:
        """In exact mode (row, den): den the lcm of the denominators of the
        entries and row the non-zero entries times den, all integers, in the
        order of `entries`; None in float mode, whose rows keep their
        tolerance."""
        if not self.exact:
            return None
        ratios = [(i, v.as_integer_ratio()) for i, v in entries.items()]
        den = lcm(*[d for _, (_, d) in ratios])
        return {i: n * (den // d) for i, (n, d) in ratios if n}, den

    def integer_of(self, x) -> Optional[Tuple[Dict[int, int], int]]:
        """`integer_row(x.entries)` for a vector or functional x, kept in its
        slot `_int` from the first call and read only; None in float mode."""
        if not self.exact:
            return None
        if x._int is None:
            object.__setattr__(x, "_int", self.integer_row(x.entries))
        return x._int

    def sub_products(self, b: Scalar, pairs: Iterable[Tuple[Scalar, Scalar]]) -> Scalar:
        """b - sum of t * x over the (t, x) pairs, folded as
        `b - sum(t * x ...)`: the substitution step of a float
        `linalg.Bordered`.  An exact factor runs on integers and never calls
        it."""
        return b - sum(t * x for t, x in pairs)

    def abs_ratio_sum(self, pairs: Iterable[Tuple[Scalar, Scalar]]) -> Scalar:
        """The sum of |a| / d over the (a, d) pairs, zero when there are none.

        Float mode folds `total += abs(a) / d` from zero.  Exact mode sums the
        numerators over one common denominator, the lcm of the quotients'
        denominators, and builds a single Fraction; a and d are Fractions,
        d > 0.
        """
        if not self.exact:
            total = self.zero
            for a, d in pairs:
                total += abs(a) / d
            return total
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

    def eq(self, a: Scalar, b: Scalar) -> bool:
        if self.exact:
            return a == b
        return abs(a - b) <= FLOAT_TOL * max(1.0, abs(a), abs(b))

    def lt(self, a: Scalar, b: Scalar) -> bool:
        """Strictly less, up to tolerance in float mode."""
        if self.exact:
            return a < b
        return a < b and not self.eq(a, b)


EXACT = ScalarContext()
FLOAT = ScalarContext(mode="float")


def format_scalar(x: Scalar) -> str:
    """Canonical text: rationals as p/q in lowest terms, floats as repr."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, int):
        return str(x)
    return repr(float(x))
