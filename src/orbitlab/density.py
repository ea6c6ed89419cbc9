"""Greedy independent extraction, disks from null sequences, common disks and
biorthogonal systems.

Topological density is replaced throughout by the eps-net surrogate: a set
is "dense" for a scenario when every listed target has an element within eps
in the designated window seminorm.  Operations that the abstract theory
states topologically report the achieved net radius instead of promising
one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from . import linalg
from .errors import Exhausted, KernelCollision, NoSeparation, NotANet, NotInSpan, NotPIndependent
from .scalars import EXACT, Scalar, ScalarContext
from .seminorms import (
    DiskSpec,
    SeminormSpec,
    eval_seminorm,
    minkowski,
    separating_functional,
)
from .vectors import CoordFunctional, SparseVector


@dataclass(frozen=True)
class Enumeration:
    """Ordered finite prefix of a countable set, items pairwise distinct."""

    items: Tuple[SparseVector, ...]
    role: str = "A"

    def __post_init__(self):
        items = tuple(self.items)
        if len(set(items)) < len(items):
            raise ValueError("enumeration items must be pairwise distinct")
        object.__setattr__(self, "items", items)

    def __len__(self):
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def vector(self, index: int) -> SparseVector:
        """1-based access, matching the index bookkeeping of the drivers."""
        return self.items[index - 1]


@dataclass(frozen=True)
class EpsilonNet:
    """Density surrogate: targets plus the radius a net must achieve."""

    window: int
    targets: Tuple[SparseVector, ...]
    eps: Scalar
    norm: Optional[SeminormSpec] = None

    def seminorm(self, ctx: ScalarContext = EXACT) -> SeminormSpec:
        if self.norm is not None:
            return self.norm
        return SeminormSpec.sup_on(range(1, self.window + 1), ctx.one)


def nearest_in(items: Sequence[SparseVector], target: SparseVector,
               norm: SeminormSpec) -> Tuple[int, Scalar]:
    """Index and distance of the closest item (first among ties)."""
    best_pos, best = -1, None
    for pos, x in enumerate(items):
        d = eval_seminorm(norm, x - target)
        if best is None or d < best:
            best_pos, best = pos, d
    return best_pos, best


def is_net(items: Sequence[SparseVector], net: EpsilonNet,
           ctx: ScalarContext = EXACT) -> bool:
    norm = net.seminorm(ctx)
    return all(
        items and nearest_in(items, t, norm)[1] <= net.eps for t in net.targets
    )


def net_report(items: Sequence[SparseVector], net: EpsilonNet,
               ctx: ScalarContext = EXACT):
    """Rows (target, nearest item, distance) for the CSV emitters."""
    norm = net.seminorm(ctx)
    rows = []
    for t in net.targets:
        pos, dist = nearest_in(items, t, norm)
        rows.append((t, items[pos] if pos >= 0 else None, dist))
    return rows


def extract_p_independent(a: Enumeration, p: SeminormSpec,
                          opens: Sequence[Tuple[SparseVector, Scalar]],
                          window_norm: Optional[SeminormSpec] = None,
                          ctx: ScalarContext = EXACT) -> Enumeration:
    """Greedy subsequence with the n-th pick inside the n-th open ball and all
    active-coordinate projections independent at every stage."""
    if len(p.active) < 2:
        raise NotPIndependent("seminorm must be non-trivial on the window")
    if window_norm is None:
        top = max(
            [max(x.support, default=1) for x in a.items]
            + [max(c.support, default=1) for c, _ in opens]
            + [max(p.active)]
        )
        window_norm = SeminormSpec.sup_on(range(1, top + 1), ctx.one)
    reducer = linalg.RowReducer(ctx)
    picks: List[SparseVector] = []
    for n, (center, radius) in enumerate(opens, start=1):
        found = None
        for x in a.items:
            if x in picks:
                continue
            if not eval_seminorm(window_norm, x - center) < radius:
                continue
            proj = {i: v for i, v in x.entries.items() if i in p.weights}
            if reducer.try_add(proj):
                found = x
                break
        if found is None:
            raise Exhausted(f"ball {n} contains no admissible element of the prefix")
        picks.append(found)
    return Enumeration(tuple(picks), role=a.role)


def null_sequence_disk(xs: Sequence[SparseVector]) -> DiskSpec:
    """Generator-form disk spanned by a (finite stage of a) null sequence."""
    return DiskSpec.from_generators(tuple(xs))


@dataclass(frozen=True)
class CommonDiskReport:
    disk: DiskSpec
    eps_a: Scalar
    eps_b: Scalar
    domination: Scalar
    schedule: Tuple[Tuple[int, Scalar, Scalar], ...]
    combined: Tuple[SparseVector, ...]


def _round_robin(targets: Sequence[SparseVector], count: int):
    return [targets[m % len(targets)] for m in range(count)]


def common_disk(a: Enumeration, b: Enumeration, net: EpsilonNet,
                rounds: int = 2, ctx: ScalarContext = EXACT) -> CommonDiskReport:
    """One weight-form disk under which both enumerations remain nets.

    Builds the combined null list: geometrically rescaled approximation
    residuals 2^m (f(m) - nearest_A), 2^m (f(m) - nearest_B) for a
    round-robin pass over the targets, plus damped copies of the members
    themselves.  Weights make every combined element lie in the disk; the
    achieved net radii and the domination constant are measured and
    reported, not promised.  NotInSpan when a combined element has a
    coordinate beyond the net window, where the disk has no weight.
    """
    norm = net.seminorm(ctx)
    if not is_net(a.items, net, ctx):
        raise NotANet("first enumeration misses a target beyond eps")
    if not is_net(b.items, net, ctx):
        raise NotANet("second enumeration misses a target beyond eps")

    count = rounds * len(net.targets)
    schedule: List[Tuple[int, Scalar, Scalar]] = []
    combined: List[SparseVector] = []
    for m, f_m in enumerate(_round_robin(net.targets, count), start=1):
        pos_a, dist_a = nearest_in(a.items, f_m, norm)
        pos_b, dist_b = nearest_in(b.items, f_m, norm)
        schedule.append((m, dist_a, dist_b))
        for items, pos in ((a.items, pos_a), (b.items, pos_b)):
            resid = f_m - items[pos]
            if not resid.is_zero():
                combined.append(resid.scale(2 ** m))
    for m, x in enumerate(list(a.items) + list(b.items), start=1):
        if x.is_zero():
            continue
        gamma = ctx.one / 2 ** m / (1 + eval_seminorm(norm, x))
        combined.append(x.scale(gamma))

    # Weight-form disk making every combined element have gauge <= 1.
    window = range(1, net.window + 1)
    weights = {i: ctx.one for i in window}
    for z in combined:
        size = len(z.entries)
        for i, val in z.entries.items():
            if i not in weights:
                raise NotInSpan(f"coordinate {i} lies beyond the net window 1..{net.window}")
            weights[i] = max(weights[i], size * abs(val))
    disk = DiskSpec(weights=weights)

    def net_radius(items):
        return max(
            (minkowski(disk, items[nearest_in(items, t, norm)[0]] - t, ctx)
             for t in net.targets),
            default=ctx.zero,
        )

    return CommonDiskReport(
        disk=disk,
        eps_a=net_radius(a.items),
        eps_b=net_radius(b.items),
        domination=max(weights.values()),
        schedule=tuple(schedule),
        combined=tuple(combined),
    )


def biorthogonalize(us: Sequence[SparseVector], p: SeminormSpec,
                    ctx: ScalarContext = EXACT) -> List[CoordFunctional]:
    """Dual system f_n(u_m) = delta_{n,m} with supports in the active window.

    Each functional is a separating solve against the other vectors, then a
    rescale; KernelCollision when span(us) meets ker p, which is also the
    only way a solve can fail.
    """
    us = list(us)
    fs: List[CoordFunctional] = []
    for n, u in enumerate(us):
        others = us[:n] + us[n + 1:]
        try:
            f = separating_functional(p, others, u, ctx)
        except NoSeparation as exc:
            raise KernelCollision(
                f"vector {n + 1} is not independent of the rest modulo ker p"
            ) from exc
        fs.append(f.scale(1 / f.pair(u)))
    return fs
