"""Canonical JSON-friendly encodings for the workbench value types.

Scalars travel as text ("3/2" for rationals in lowest terms); vectors and
functionals as sorted index/value pair lists.  Decoders read scalars through
`scalars.parse`; vectors, functionals and operators are encoded as they are
decoded, while seminorms and disks, which only arrive in scenarios, are
decoded only.  Each decoder still takes a scalar mode name, which only
`decode_pairs` reads, through `scalars.check_mode`: the set-up probe of
`perfbench` hands them `Scenario.scalar_mode`.
"""

from __future__ import annotations

from typing import Any, List, Mapping

from .operators import FiniteRankOperator
from .scalars import check_mode, format_scalar, parse
from .seminorms import DiskSpec, SeminormSpec
from .vectors import CoordFunctional, SparseVector


def encode_pairs(value) -> List[List[Any]]:
    return [[i, format_scalar(v)] for i, v in value.pairs()]


def decode_pairs(pairs, mode: str = "exact") -> dict:
    """{i: value} of [i, value] pairs.  Each index is a JSON integer given
    once: a float such as 1.9, a string such as "1", a bool or a repeated
    index raises ValueError, not truncated, converted or overwritten, and so
    does a mode other than "exact"."""
    check_mode(mode)
    out = {}
    for i, v in pairs:
        if type(i) is not int:
            raise ValueError(f"coordinate index must be an integer, got {i!r}")
        if i in out:
            raise ValueError(f"coordinate index {i} given twice")
        out[i] = parse(v)
    return out


def decode_vector(pairs, mode: str = "exact") -> SparseVector:
    return SparseVector(decode_pairs(pairs, mode))


def decode_functional(pairs, mode: str = "exact") -> CoordFunctional:
    return CoordFunctional(decode_pairs(pairs, mode))


def decode_seminorm(data: Mapping, mode: str = "exact") -> SeminormSpec:
    return SeminormSpec(data["kind"], decode_pairs(data["weights"], mode))


def decode_disk(data: Mapping, mode: str = "exact") -> DiskSpec:
    if "weights" in data:
        return DiskSpec(weights=decode_pairs(data["weights"], mode))
    return DiskSpec(generators=tuple(decode_vector(g, mode) for g in data["generators"]))


def encode_operator(t: FiniteRankOperator) -> dict:
    return {
        "base": t.base,
        "terms": [
            {"f": encode_pairs(f), "v": encode_pairs(v)} for f, v in t.terms
        ],
    }


def decode_operator(data: Mapping, mode: str = "exact") -> FiniteRankOperator:
    terms = tuple(
        (decode_functional(term["f"], mode), decode_vector(term["v"], mode))
        for term in data["terms"]
    )
    return FiniteRankOperator(data["base"], terms)


def format_vector(value) -> str:
    """Compact text form, e.g. "1:3/2 4:-1"; empty support prints "0"."""
    if value.is_zero():
        return "0"
    return " ".join(f"{i}:{format_scalar(v)}" for i, v in value.pairs())
