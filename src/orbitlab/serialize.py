"""Canonical JSON-friendly encodings for the workbench value types.

Scalars travel as text ("3/2" for rationals in lowest terms); vectors and
functionals as sorted index/value pair lists.  Decoders read scalars through
`scalars.parse`, each distinct text once per decode call: the call keeps one
table from text to scalar for the map `decode_pairs` reads, or for all the
maps of a disk's generators, an operator's terms or a caller's vector list,
and drops it when it returns.  The table is keyed on str values alone (JSON's
`1`, `1.0` and `true` compare and hash alike, and each goes through `parse`
on its own) and holds only texts that parsed, so a malformed text fails
where it first occurs.  Vectors, functionals and operators are encoded as
they are decoded, while seminorms and disks, which only arrive in scenarios,
are decoded only; `format_pairs` writes the compact text of encoded pairs,
so a caller that holds them formats no entry twice.  Each decoder still
takes a scalar mode name, which only `decode_pairs` reads, through
`scalars.check_mode`: the set-up probe of `perfbench` hands them
`Scenario.scalar_mode`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from .operators import FiniteRankOperator
from .scalars import Scalar, check_mode, format_scalar, parse
from .seminorms import DiskSpec, SeminormSpec
from .vectors import CoordFunctional, SparseVector


def encode_pairs(value) -> List[List[Any]]:
    return [[i, format_scalar(v)] for i, v in value.pairs()]


def decode_pairs(pairs, mode: str = "exact",
                 texts: Optional[Dict[str, Scalar]] = None) -> dict:
    """{i: value} of [i, value] pairs.  Each index is a JSON integer given
    once: a float such as 1.9, a string such as "1", a bool or a repeated
    index raises ValueError, not truncated, converted or overwritten, and so
    does a mode other than "exact".  `texts` is the caller's table from text
    to scalar, shared by the maps of one decode call; without one, the call
    keeps its own."""
    check_mode(mode)
    if texts is None:
        texts = {}
    out = {}
    for i, v in pairs:
        if type(i) is not int:
            raise ValueError(f"coordinate index must be an integer, got {i!r}")
        if i in out:
            raise ValueError(f"coordinate index {i} given twice")
        if type(v) is str:
            value = texts.get(v)
            if value is None:
                value = texts[v] = parse(v)
        else:
            value = parse(v)
        out[i] = value
    return out


def decode_vector(pairs, mode: str = "exact",
                  texts: Optional[Dict[str, Scalar]] = None) -> SparseVector:
    return SparseVector(decode_pairs(pairs, mode, texts))


def decode_functional(pairs, mode: str = "exact",
                      texts: Optional[Dict[str, Scalar]] = None) -> CoordFunctional:
    return CoordFunctional(decode_pairs(pairs, mode, texts))


def decode_seminorm(data: Mapping, mode: str = "exact") -> SeminormSpec:
    return SeminormSpec(data["kind"], decode_pairs(data["weights"], mode))


def decode_disk(data: Mapping, mode: str = "exact") -> DiskSpec:
    if "weights" in data:
        return DiskSpec(weights=decode_pairs(data["weights"], mode))
    texts: Dict[str, Scalar] = {}
    return DiskSpec(generators=tuple(decode_vector(g, mode, texts)
                                     for g in data["generators"]))


def encode_operator(t: FiniteRankOperator) -> dict:
    return {
        "base": t.base,
        "terms": [
            {"f": encode_pairs(f), "v": encode_pairs(v)} for f, v in t.terms
        ],
    }


def decode_operator(data: Mapping, mode: str = "exact") -> FiniteRankOperator:
    texts: Dict[str, Scalar] = {}
    terms = tuple(
        (decode_functional(term["f"], mode, texts), decode_vector(term["v"], mode, texts))
        for term in data["terms"]
    )
    return FiniteRankOperator(data["base"], terms)


def format_pairs(pairs) -> str:
    """Compact text of encoded [i, text] pairs, e.g. "1:3/2 4:-1"; no pairs
    print "0"."""
    return " ".join(f"{i}:{text}" for i, text in pairs) or "0"


def format_vector(value) -> str:
    """The compact text of a vector's encoded pairs (`format_pairs`)."""
    return format_pairs(encode_pairs(value))
