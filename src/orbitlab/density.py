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
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .errors import Exhausted, KernelCollision, NoSeparation, NotANet, NotInSpan, NotPIndependent
from .scalars import EXACT, Scalar, ScalarContext
from .seminorms import (
    DiskSpec,
    SeminormSpec,
    eval_seminorm,
    minkowski,
    project_active,
    separating_functional,
)
from .vectors import CoordFunctional, SparseVector


@dataclass(frozen=True)
class Enumeration:
    """Ordered finite prefix of a countable set, items pairwise distinct."""

    items: Tuple[SparseVector, ...]

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

    def seminorm(self, ctx: ScalarContext = EXACT) -> SeminormSpec:
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


Scans = Tuple[Tuple[int, Scalar], ...]


def _scan(items: Sequence[SparseVector], net: EpsilonNet, norm: SeminormSpec) -> Scans:
    """`nearest_in` of the items for each target of the net, in target order."""
    return tuple(nearest_in(items, t, norm) for t in net.targets)


def is_net(items: Sequence[SparseVector], net: EpsilonNet,
           ctx: ScalarContext = EXACT, scans: Optional[Scans] = None) -> bool:
    """Every target has an item within eps; `scans`, the items' `nearest_in`
    for each target when already made, saves the scans."""
    if scans is None:
        scans = _scan(items, net, net.seminorm(ctx))
    return all(items and dist <= net.eps for _, dist in scans)


def net_report(items: Sequence[SparseVector], net: EpsilonNet,
               ctx: ScalarContext = EXACT, scans: Optional[Scans] = None):
    """Rows (target, nearest item, distance) for the CSV emitters; `scans`,
    the items' `nearest_in` for each target when already made, saves the
    scans."""
    if scans is None:
        scans = _scan(items, net, net.seminorm(ctx))
    return [(t, items[pos] if pos >= 0 else None, dist)
            for t, (pos, dist) in zip(net.targets, scans)]


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
    echelon = linalg.Echelon(ctx)
    picks: List[SparseVector] = []
    for n, (center, radius) in enumerate(opens, start=1):
        found = None
        for x in a.items:
            if x in picks:
                continue
            if not eval_seminorm(window_norm, x - center) < radius:
                continue
            proj = {i: v for i, v in x.entries.items() if i in p.weights}
            if echelon.try_add(proj):
                found = x
                break
        if found is None:
            raise Exhausted(f"ball {n} contains no admissible element of the prefix")
        picks.append(found)
    return Enumeration(tuple(picks))


@dataclass(frozen=True)
class CommonDiskReport:
    """The disk, the achieved radii and domination, the residual schedule and
    the combined null list; `scans` holds each enumeration's nearest item and
    distance per target (a's, then b's), for `net_report`."""

    disk: DiskSpec
    eps_a: Scalar
    eps_b: Scalar
    domination: Scalar
    schedule: Tuple[Tuple[int, Scalar, Scalar], ...]
    combined: Tuple[SparseVector, ...]
    scans: Tuple[Scans, Scans]


def common_disk(a: Enumeration, b: Enumeration, net: EpsilonNet,
                ctx: ScalarContext = EXACT) -> CommonDiskReport:
    """One weight-form disk under which both enumerations remain nets.

    Builds the combined null list: geometrically rescaled approximation
    residuals 2^m (f(m) - nearest_A), 2^m (f(m) - nearest_B) for two
    round-robin passes over the targets, plus damped copies of the members
    themselves.  Weights make every combined element lie in the disk; the
    achieved net radii and the domination constant are measured and
    reported, not promised.  Each enumeration is scanned for its nearest
    item once per target, and the net test, the rounds and the radii reuse
    the scan.  NotInSpan when a combined element has a coordinate beyond
    the net window, where the disk has no weight.
    """
    norm = net.seminorm(ctx)
    scans = []
    for enum, which in ((a, "first"), (b, "second")):
        scans.append(_scan(enum.items, net, norm))
        if not is_net(enum.items, net, ctx, scans[-1]):
            raise NotANet(f"{which} enumeration misses a target beyond eps")
    scan_a, scan_b = scans

    schedule: List[Tuple[int, Scalar, Scalar]] = []
    combined: List[SparseVector] = []
    for m in range(1, 2 * len(net.targets) + 1):
        t = (m - 1) % len(net.targets)
        f_m = net.targets[t]
        (pos_a, dist_a), (pos_b, dist_b) = scan_a[t], scan_b[t]
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

    def net_radius(items, scan):
        return max(
            (minkowski(disk, items[pos] - t, ctx) for t, (pos, _) in zip(net.targets, scan)),
            default=ctx.zero,
        )

    return CommonDiskReport(
        disk=disk,
        eps_a=net_radius(a.items, scan_a),
        eps_b=net_radius(b.items, scan_b),
        domination=max(weights.values()),
        schedule=tuple(schedule),
        combined=tuple(combined),
        scans=(scan_a, scan_b),
    )


def biorthogonalize(us: Sequence[SparseVector], p: SeminormSpec,
                    ctx: ScalarContext = EXACT) -> List[CoordFunctional]:
    """Dual system f_n(u_m) = delta_{n,m} with supports in the active window.

    When the active projections of the n vectors touch exactly n coordinates
    and are independent, the system is unique: with U the square block of
    those projections, one row per vector, f_n is row n of (U^T)^{-1}, read
    off one `linalg.RowReducer.of` of the rows of [U^T | I].  Where a value
    may depend on its route (`ctx.route_free` is False: float mode) and
    wherever the block is not square or is singular, each functional is a
    separating solve against the other vectors, then a rescale;
    KernelCollision when span(us) meets ker p, which is also the only way a
    solve can fail.
    """
    us = list(us)
    if ctx.route_free:
        fs = _dual_by_inverse(project_active(p, us), ctx)
        if fs is not None:
            return fs
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


def _dual_by_inverse(projections: List[Dict[int, Scalar]],
                     ctx: ScalarContext) -> Optional[List[CoordFunctional]]:
    """The rows of (U^T)^{-1} as functionals on the coordinates of U, for U
    the block of the projections; None unless the block is square and
    invertible."""
    n = len(projections)
    coords = sorted(set().union(*projections))
    if len(coords) != n:
        return None
    # row r: the projections at coordinate coords[r], then row r of I at n + r
    red = linalg.RowReducer.of(
        [{m: x[c] for m, x in enumerate(projections) if c in x} | {n + r: ctx.one}
         for r, c in enumerate(coords)], ctx)
    if any(m not in red.rows for m in range(n)):
        return None
    return [CoordFunctional({coords[c - n]: v for c, v in sorted(red.rows[m].items()) if c >= n})
            for m in range(n)]
