"""Mediant subdivision of the unit interval and horoball footprints.

The ideal triangles of the standard tessellation that lie under the
geodesic from 0 to 1 are generated level by level by mediant insertion:
level 1 is the single triangle (0, 1/2, 1), and level m+1 places one
triangle under every gap of the level-m vertex row.  Level m holds
2^(m-1) triangles and the gaps of row m are at most 1/(m+1), so only
boundedly many triangles can reach into a horizontal strip {y > 1/l}.

The same subdivision drives a developing map (``cusps.develop_strip``):
unrolling a cusp of degree d into its width-d strip puts one ideal
triangle under each integer interval of the top row, and crossing a
side replaces an interval endpoint by the mediant.  Tracking which
surface triangle each developed copy comes from yields the triangle
indices met by a cusp's depth-l horoball.  The levels come from one
list of gaps with integer (numerator, denominator) ends; only
``enumerate_level`` builds Fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cusps import develop_strip, exact_l
from .ribbon import FaceDecomposition, RibbonGraph

__all__ = [
    "FareyTriangle",
    "enumerate_level",
    "count_intersecting",
    "n_bound",
    "m_bound",
    "develop_horoball",
    "classify_segments",
]

# the deepest subdivision level a horoball descent will reach
LEVEL_CAP = 30
# the deepest level ``enumerate_level`` lists; level m holds 2^(m-1) triangles
LISTING_CAP = 16


@dataclass(frozen=True)
class FareyTriangle:
    """Ideal triangle (left, apex, right) of the subdivision."""

    left: Fraction
    apex: Fraction
    right: Fraction


def _gaps(m: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Gaps of the vertex row after m - 1 rounds of mediant insertion.

    Each end is a (numerator, denominator) pair.  The ends a/b < c/d of
    every gap satisfy bc - ad = 1, so each mediant is already reduced.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if m > LISTING_CAP:
        raise ValueError(f"m={m} exceeds cap {LISTING_CAP}")
    gaps = [((0, 1), (1, 1))]
    for _ in range(m - 1):
        nxt = []
        for p, r in gaps:
            mid = (p[0] + r[0], p[1] + r[1])
            nxt += [(p, mid), (mid, r)]
        gaps = nxt
    return gaps


def enumerate_level(m: int) -> list[FareyTriangle]:
    """The 2^(m-1) triangles of level m, for 1 <= m <= ``LISTING_CAP``."""
    return [
        FareyTriangle(Fraction(a, b), Fraction(a + c, b + d), Fraction(c, d))
        for (a, b), (c, d) in _gaps(m)
    ]


def _capped_l(l) -> Fraction:
    """``l`` as an exact positive Fraction whose strip {y > 1/l} reaches
    no level deeper than ``LEVEL_CAP``.

    Row m-1 has gaps of at most 1/m, so only levels with 2m < l reach
    the strip.  The cap bounds the time of ``count_intersecting`` and of
    the horoball descents, which grow like l log l, and the size of
    ``n_bound``'s 2^(l/2) integer.
    """
    lq = exact_l(l)
    deepest = math.ceil(lq / 2) - 1  # levels with 2m >= l cannot reach the strip
    if deepest > LEVEL_CAP:
        raise ValueError(f"needed level {deepest} exceeds cap {LEVEL_CAP}")
    return lq


def count_intersecting(l) -> int:
    """Number of subdivision triangles meeting the open strip {y > 1/l}.

    The triangle under a gap a/b < c/d has width 1/(bd), so it meets the
    strip iff l > 2bd.  The gaps below it have denominator pairs
    (b, b+d) and (b+d, d), with larger products, so a descent from the
    level-1 pair (1, 1) stops at the first gap that misses.  The depth
    of ``l`` must stay within ``LEVEL_CAP``.
    """
    lq = _capped_l(l)
    count = 0
    stack = [(1, 1)]
    while stack:
        b, d = stack.pop()
        if lq > 2 * b * d:
            count += 1
            stack += [(b, b + d), (b + d, d)]
    return count


def n_bound(l) -> int:
    """Closed-form bound 2^(floor(l/2)+1) - 1 on ``count_intersecting``,
    for an ``l`` within ``LEVEL_CAP``."""
    return 2 ** (math.floor(_capped_l(l) / 2) + 1) - 1


def m_bound(l) -> int:
    """Segment-count bound 3 * l * n_bound(l), rounded up for non-integral l."""
    return math.ceil(3 * exact_l(l) * n_bound(l))


def develop_horoball(fd: FaceDecomposition, j: int, l) -> list[int]:
    """Surface triangle of each developed triangle of cusp j's strip that
    meets the horoball {y > d_j/l}.

    First the top row, the triangle of each corner dart of the face cycle
    in walk order; then, in ``cusps.develop_strip`` order, the triangle of
    each entry dart whose apex height 1/(2 p_den r_den) exceeds d_j/l.
    Heights fall with depth and p_den r_den >= depth, so every developed
    triangle has 2 d_j depth < l.  For d_j > l the horoball stays above
    the canonical loop and the development is empty.  As for
    ``count_intersecting``, the depth of ``l`` must stay within
    ``LEVEL_CAP``, so any l above 62 raises ``ValueError``.
    """
    lq = _capped_l(l)
    d_j = fd.degrees[j]
    if d_j > lq:
        return []
    below = develop_strip(fd, j, lambda p, r: 2 * d_j * p[1] * r[1] < lq)
    return [c // 3 for c in fd.face(j)] + [a // 3 for a, _, _ in below]


def classify_segments(
    g: RibbonGraph,
    fd: FaceDecomposition,
    i1: frozenset[int],
    l,
) -> frozenset[int]:
    """The darts of large cusps in horoball contact (the set s2).

    A dart of a cusp in ``i1``, the large cusps of
    ``cusps.partition_cusps``, is in s2 when its triangle lies in the
    footprint (the surface triangles of ``develop_horoball``) of some
    cusp of degree <= l; ``g`` is not read.  Triangle granularity
    makes this a conservative overcount of actual trapezium contact, but
    each small cusp still contributes at most 3 * d_j * n_bound(l) <=
    m_bound(l) darts, so |s2| <= m_bound(l) * lht.  Exactly, cusp j's
    development holds d_j * (1 + count_intersecting(l / d_j)) triangles:
    its top row, and below each of its d_j columns the Farey triangles
    that reach into {y > d_j/l}.  Any l above 62 raises ``ValueError``
    before a cusp is developed, since its depth exceeds ``LEVEL_CAP``.
    """
    lq = _capped_l(l)
    hot: set[int] = set()
    for j, d in enumerate(fd.degrees):
        if d <= lq:
            hot.update(develop_horoball(fd, j, lq))
    return frozenset(
        d for t in hot for d in (3 * t, 3 * t + 1, 3 * t + 2) if fd.label[d] - 1 in i1
    )
