"""Finite-support coordinate families: sparse vectors and coordinate functionals.

Both kinds store a finite map from positive coordinate index to a nonzero
scalar.  Explicit zeros are never stored, ints are stored as Fractions, and
any other scalar is stored as given; equality is entry-wise.  The pairing
f(x) = sum_i f_i * x_i is always a finite sum, and an empty one is the int 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Tuple

from .scalars import EXACT, Scalar, ScalarContext


def _clean(entries: Mapping[int, Scalar]) -> Dict[int, Scalar]:
    out: Dict[int, Scalar] = {}
    for idx, val in entries.items():
        idx = int(idx)
        if idx < 1:
            raise ValueError(f"coordinate indices are positive, got {idx}")
        if val != 0:
            out[idx] = Fraction(val) if type(val) is int else val
    return out


@dataclass(frozen=True)
class _FiniteMap:
    entries: Mapping[int, Scalar] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "entries", _clean(self.entries))

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[int, Scalar]]):
        return cls(dict(pairs))

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
        return type(self)({i: -v for i, v in self.entries.items()})

    def scale(self, factor: Scalar):
        if factor == 0:
            return type(self)({})
        return type(self)({i: v * factor for i, v in self.entries.items()})

    def restrict(self, indices) -> "_FiniteMap":
        keep = set(indices)
        return type(self)({i: v for i, v in self.entries.items() if i in keep})

    def __repr__(self):
        body = ", ".join(f"{i}: {v}" for i, v in sorted(self.entries.items()))
        return f"{type(self).__name__}({{{body}}})"


class SparseVector(_FiniteMap):
    """An element of the coordinate space at finite stage."""

    @classmethod
    def basis(cls, index: int, ctx: ScalarContext = EXACT) -> "SparseVector":
        return cls({index: ctx.one})


class CoordFunctional(_FiniteMap):
    """Finite-support functional acting by the bilinear pairing."""

    @classmethod
    def delta(cls, index: int, ctx: ScalarContext = EXACT) -> "CoordFunctional":
        return cls({index: ctx.one})

    def pair(self, x: SparseVector) -> Scalar:
        small, large = self.entries, x.entries
        if len(large) < len(small):
            small, large = large, small
        total = 0
        for idx, val in small.items():
            other = large.get(idx)
            if other is not None:
                total += val * other
        return total

    def __call__(self, x: SparseVector) -> Scalar:
        return self.pair(x)


def close(x: _FiniteMap, y: _FiniteMap, ctx: ScalarContext) -> bool:
    """Every entry of x - y is ctx.is_zero: x == y in exact mode, entry-wise
    within the tolerance in float mode."""
    return all(ctx.is_zero(v) for v in (x - y).entries.values())
