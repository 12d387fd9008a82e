"""Cusps of the glued-triangle surface: their areas, the set of large
cusps, the large-cusp (embedded horoball) test and the strip walker.

All quantities live in the complete hyperbolic metric of the punctured
surface built from ideal triangles, where everything has an exact upper
half-plane formula: a horizontal segment of Euclidean width w at height
a has length w/a, the vertical segment from height a to b has length
log(b/a), and the unit-width strip between heights a and b has area
1/a - 1/b.  In the width-d strip of a degree-d cusp the canonical
horocycle loop sits at height 1, so the cusp neighbourhood above it has
area exactly d, and the part of a unit column between it and the
length-l horocycle (height d/l, for d > l) has area 1 - l/d.  A collar
of radius r pairs with the horocycle length 2*pi / log((e^r + 1) / e^(r-1)),
which increases to 2*pi.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from typing import Callable, Iterator

from .ribbon import FaceDecomposition, rotation

__all__ = [
    "surface_area",
    "SMALL_TRIANGLE_AREA",
    "partition_cusps",
    "has_large_cusps",
    "develop_strip",
]


def surface_area(n: int) -> float:
    """Total area of the surface glued from 2n ideal triangles."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return 2.0 * math.pi * n


# Area of the central region of an ideal triangle bounded by its three
# unit horocycle segments: pi minus three unit corner strips.
SMALL_TRIANGLE_AREA = math.pi - 3.0


def exact_l(l) -> Fraction:
    """A horocycle length or strip depth ``l`` as an exact Fraction (ints
    and floats convert exactly); ValueError unless finite and positive."""
    if l != l or l in (math.inf, -math.inf):  # exact for any int; only NaN != NaN
        raise ValueError(f"l must be finite, got {l}")
    lq = Fraction(l)
    if lq <= 0:
        raise ValueError(f"l must be positive, got {l}")
    return lq


def degree_threshold(n: int) -> float:
    """The large-cusp degree cutoff n / (log n)^2; needs n >= 3."""
    if n < 3:
        raise ValueError(f"n must be >= 3 so that log n > 1, got {n}")
    return n / math.log(n) ** 2


def partition_cusps(fd: FaceDecomposition, n: int) -> frozenset[int]:
    """The large cusps I1: the faces of degree strictly above
    ``degree_threshold(n)``.  Every other cusp is small."""
    threshold = degree_threshold(n)
    return frozenset(i for i, d in enumerate(fd.degrees) if d > threshold)


def has_large_cusps(fd: FaceDecomposition, l) -> bool:
    """Whether the length-``l`` horoballs of all cusps are embedded and
    pairwise disjoint (horoballs closed, so tangency counts as contact).

    Gluing at side midpoints lifts to the Farey tessellation, whose
    canonical horoballs are the Ford circles.  In the width-d_j strip of
    cusp j the length-l horoball of cusp k at a lift p/q has diameter
    l / (d_k q^2), so it misses {y >= d_j/l} iff d_j * d_k * q^2 > l^2.
    The q = 1 lifts are the other corners of the top-row triangles: the
    triangle of corner c over [t, t+1] has rotation(c) at t + 1, and the
    next corner c' has rotation^2(c') = matching[c] there too, one face
    step before rotation(c).  So each integer lift is read once, as
    rotation(c).  Lifts with q >= 2 are the mediant corners of
    ``develop_strip``, whose denominators grow with depth, so the
    descent stops once d_j * q^2 > l^2.  The test is symmetric in j and
    k (q is fixed by the distance between their canonical horoballs) and
    a failing pair has a cusp of degree <= l, so only the strips of those
    cusps are developed; with none, this agrees with the sufficient test
    ``fd.min_degree > l`` (a cusp of degree d > l keeps its depth-l
    horoball inside the region above its canonical loop; the converse is
    false).
    Exact for rational ``l`` (ints and floats are converted exactly).
    """
    lq = exact_l(l)
    l2 = lq * lq
    small = [j for j, d in enumerate(fd.degrees) if d <= lq]
    degrees, label = fd.degrees, fd.label

    def degree_of(a: int) -> int:
        return degrees[label[a] - 1]

    for j in small:
        d_j = degrees[j]
        for c in fd.face(j):
            # the integer lift t+1 of the triangle of corner c over [t, t+1]
            if d_j * degree_of(rotation(c)) <= l2:
                return False
        for a, p, r in develop_strip(fd, j, lambda p, r: d_j * (p[1] + r[1]) ** 2 <= l2):
            q = p[1] + r[1]
            if d_j * degree_of(rotation(rotation(a))) * q * q <= l2:
                return False
    return True


def develop_strip(
    fd: FaceDecomposition, j: int, enter: Callable[[tuple, tuple], bool]
) -> Iterator[tuple[int, tuple, tuple]]:
    """Breadth-first development of cusp j's strip below its top row.

    The width-d strip of a degree-d cusp has one top-row triangle over
    each [t, t+1]: corner dart c = fd.face(j)[t] at the cusp, rotation(c)
    at t+1 and rotation(rotation(c)) at t, so the right side of column t
    and the left side of column t+1 are one edge (the orientation-
    preserving convention).  Crossing its bottom side enters dart
    matching[rotation(c)] over (t, t+1).  A triangle entered through dart
    a over (p, r) has corners a at p, rotation(a) at r and
    rotation(rotation(a)) at the mediant m; its children (m, r) and
    (p, m) are entered through matching[rotation(a)] and
    matching[rotation(rotation(a))].

    Yields (a, p, r), each triangle before its children, with p and r
    as (numerator, denominator) pairs.  A triangle is entered only when
    ``enter(p, r)`` holds, so ``enter`` must fail for large denominators.
    """
    matching = fd.matching
    queue: deque[tuple[int, tuple, tuple]] = deque()
    for t, c in enumerate(fd.face(j)):
        p, r = (t, 1), (t + 1, 1)
        if enter(p, r):
            queue.append((matching[rotation(c)], p, r))
    while queue:
        a, p, r = item = queue.popleft()
        yield item
        m = (p[0] + r[0], p[1] + r[1])
        if enter(m, r):
            queue.append((matching[rotation(a)], m, r))
        if enter(p, m):
            queue.append((matching[rotation(rotation(a))], p, m))

