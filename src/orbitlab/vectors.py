"""Finite-support coordinate families: sparse vectors and coordinate functionals.

Both kinds store a finite map from positive coordinate index to a nonzero
scalar.  Zeros are never stored, ints become Fractions, other non-Fractions
are refused; equality is entry-wise, and hashing agrees with it, so
vectors serve as set members and dict keys.  The pairing f(x) = sum_i f_i *
x_i is always a finite sum, and an empty one is the int 0.  Finite linear
combinations go through `combine`; it, `restrict`, `__neg__` and
`FiniteRankOperator.apply` build from clean entries and skip `_clean`
(`scale`, `__add__` and `__sub__` can make zeros, so keep it).  A map keeps
its integer form in the slot `_int`, outside equality, hashing, copies and
pickles, filled and read only by `scalars.integer_of`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Tuple

from .scalars import ONE, Scalar, _exact_entry, _immutable


def _clean(entries: Mapping[int, Scalar]) -> Dict[int, Scalar]:
    out: Dict[int, Scalar] = {}
    for idx, val in entries.items():
        idx = int(idx)
        if idx < 1:
            raise ValueError(f"coordinate indices are positive, got {idx}")
        val = _exact_entry(val, idx)
        if val:
            out[idx] = val
    return out


def _dot(a: Mapping[int, Scalar], b: Mapping[int, Scalar]) -> Scalar:
    """sum_i a_i * b_i over the coordinates two maps share, looping over the
    smaller one; the int 0 when none is shared.  `CoordFunctional.pair` sums
    with it, and so does `FiniteRankOperator.apply` on integer rows."""
    if len(b) < len(a):
        a, b = b, a
    total = 0
    for i, v in a.items():
        w = b.get(i)
        if w is not None:
            total += v * w
    return total


class _FiniteMap:
    __slots__ = ("entries", "_int")
    __setattr__ = __delattr__ = _immutable

    def __init__(self, entries: Optional[Mapping[int, Scalar]] = None):
        _set_entries(self, _clean(entries or {}))
        _set_int(self, None)

    def __eq__(self, other):
        return self.entries == other.entries if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(frozenset(self.entries.items()))

    def __reduce__(self):
        return type(self), (self.entries,)

    @classmethod
    def zero(cls):
        return cls({})

    @property
    def support(self) -> Tuple[int, ...]:
        return tuple(sorted(self.entries))

    def get(self, index: int) -> Scalar:
        return self.entries.get(index, 0)

    def is_zero(self) -> bool:
        return not self.entries

    def pairs(self) -> Tuple[Tuple[int, Scalar], ...]:
        return tuple(sorted(self.entries.items()))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        merged = dict(self.entries)
        for idx, val in other.entries.items():
            merged[idx] = merged.get(idx, 0) + val
        return type(self)(merged)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        merged = dict(self.entries)
        for idx, val in other.entries.items():
            merged[idx] = merged.get(idx, 0) - val
        return type(self)(merged)

    def __neg__(self):
        return _built(type(self), {i: -v for i, v in self.entries.items()})

    def scale(self, factor: Scalar):
        if factor == 0:
            return type(self)({})
        return type(self)({i: v * factor for i, v in self.entries.items()})

    def restrict(self, indices) -> "_FiniteMap":
        keep = set(indices)
        return _built(type(self), {i: v for i, v in self.entries.items() if i in keep})

    def __repr__(self):
        body = ", ".join(f"{i}: {v}" for i, v in sorted(self.entries.items()))
        return f"{type(self).__name__}({{{body}}})"


_set_entries, _set_int = _FiniteMap.entries.__set__, _FiniteMap._int.__set__  # past the guard


def _built(kind, entries: Dict[int, Scalar]):
    """A map of the kind on entries clean already (int keys > 0, no zero, no int)."""
    x = object.__new__(kind)
    _set_entries(x, entries)
    _set_int(x, None)
    return x


class SparseVector(_FiniteMap):
    """An element of the coordinate space at finite stage."""

    __slots__ = ()

    @classmethod
    def basis(cls, index: int) -> "SparseVector":
        return cls({index: ONE})


class CoordFunctional(_FiniteMap):
    """Finite-support functional acting by the bilinear pairing."""

    __slots__ = ()

    @classmethod
    def delta(cls, index: int) -> "CoordFunctional":
        return cls({index: ONE})

    def pair(self, x: SparseVector) -> Scalar:
        return _dot(self.entries, x.entries)

    def __call__(self, x: SparseVector) -> Scalar:
        return self.pair(x)


def combine(terms: Iterable[Tuple[Scalar, _FiniteMap]], start: Optional[_FiniteMap] = None):
    """start + sum of c * x over the (c, x) pairs, zero coefficients skipped.

    Each coordinate is summed in term order from start's entry, so the result
    equals the fold start + x_1.scale(c_1) + ..., entry order included.  With
    no non-zero coefficient the result is start itself (a zero SparseVector
    for no start).
    """
    acc = kind = None
    for c, x in terms:
        if not c:
            continue
        if acc is None:
            kind = type(x) if start is None else type(start)
            acc = {} if start is None else dict(start.entries)
        if type(x) is not kind:
            raise TypeError(f"cannot combine {kind.__name__} with {type(x).__name__}")
        for i, v in x.entries.items():
            s = acc.get(i, 0) + v * c
            if s:
                acc[i] = s
            else:
                acc.pop(i, None)
    if acc is None:
        return SparseVector.zero() if start is None else start
    return _built(kind, acc)
