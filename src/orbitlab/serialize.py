"""Canonical JSON-friendly encodings for the workbench value types.

Scalars travel as text ("3/2" for rationals in lowest terms); vectors and
functionals as sorted index/value pair lists.  Decoders read scalars through
`ctx.parse`, and each takes the context or its mode name; vectors,
functionals and operators are encoded as they are decoded, while seminorms
and disks, which only arrive in scenarios, are decoded only.
"""

from __future__ import annotations

from typing import Any, List, Mapping

from .operators import FiniteRankOperator
from .scalars import EXACT, ScalarContext, format_scalar
from .seminorms import DiskSpec, SeminormSpec
from .vectors import CoordFunctional, SparseVector


def _context(ctx) -> ScalarContext:
    """ctx itself, or the context of a mode name: perfbench/setup_probe.py
    still hands the decoders `Scenario.scalar_mode`."""
    return ScalarContext(ctx) if isinstance(ctx, str) else ctx


def encode_pairs(value) -> List[List[Any]]:
    return [[i, format_scalar(v)] for i, v in value.pairs()]


def decode_pairs(pairs, ctx: ScalarContext = EXACT) -> dict:
    """{i: value} of [i, value] pairs.  Each index is a JSON integer given
    once: a float such as 1.9, a string such as "1", a bool or a repeated
    index raises ValueError, not truncated, converted or overwritten."""
    out = {}
    for i, v in pairs:
        if type(i) is not int:
            raise ValueError(f"coordinate index must be an integer, got {i!r}")
        if i in out:
            raise ValueError(f"coordinate index {i} given twice")
        out[i] = ctx.parse(v)
    return out


def decode_vector(pairs, ctx: ScalarContext = EXACT) -> SparseVector:
    return SparseVector(decode_pairs(pairs, _context(ctx)))


def decode_functional(pairs, ctx: ScalarContext = EXACT) -> CoordFunctional:
    return CoordFunctional(decode_pairs(pairs, _context(ctx)))


def decode_seminorm(data: Mapping, ctx: ScalarContext = EXACT) -> SeminormSpec:
    return SeminormSpec(data["kind"], decode_pairs(data["weights"], _context(ctx)))


def decode_disk(data: Mapping, ctx: ScalarContext = EXACT) -> DiskSpec:
    ctx = _context(ctx)
    if "weights" in data:
        return DiskSpec(weights=decode_pairs(data["weights"], ctx))
    return DiskSpec(generators=tuple(decode_vector(g, ctx) for g in data["generators"]))


def encode_operator(t: FiniteRankOperator) -> dict:
    return {
        "base": t.base,
        "terms": [
            {"f": encode_pairs(f), "v": encode_pairs(v)} for f, v in t.terms
        ],
    }


def decode_operator(data: Mapping, ctx: ScalarContext = EXACT) -> FiniteRankOperator:
    ctx = _context(ctx)
    terms = tuple(
        (decode_functional(term["f"], ctx), decode_vector(term["v"], ctx))
        for term in data["terms"]
    )
    return FiniteRankOperator(data["base"], terms)


def format_vector(value) -> str:
    """Compact text form, e.g. "1:3/2 4:-1"; empty support prints "0"."""
    if value.is_zero():
        return "0"
    return " ".join(f"{i}:{format_scalar(v)}" for i, v in value.pairs())
