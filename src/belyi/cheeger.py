"""Explicit two-sided division of the surface and the resulting
Cheeger-constant upper bound.

Every large cusp (degree above n / (log n)^2) is split by a cut curve
drawn in its strip: two vertical segments from the canonical loop up to
height Y plus a horocyclic arc of Euclidean width k = floor(d/2) at
that height.  Side 1 of each split is labelled A, side 2 and every
small cusp B, and each triangle takes the majority label of its three
darts.  The boundary of the division is then the cut curves plus the
minority-dart horocycle segments -- at most one per triangle -- so its
total length is exactly measurable, as are the two areas.  The
quotient length / min(area) is a certified upper bound for the Cheeger
constant of the glued-triangle metric.

Predicted value: the cuts make the share p of A darts close to 1/2,
and a triangle's three darts are nearly independent, so a share
3p(1-p) ~ 3/4 of the 2n triangles is mixed.  The boundary is then about
2n * 3/4 + eta (eta the total cut-curve length) and the smaller area
about pi n, so h_upper ~ 3/(2 pi) + eta/(pi n), with 3/(2 pi) ~ 0.4775.

The paper's closed-form bounds (epsilon, c > 0, horoball length l,
M = farey.m_bound(l)): balance factor lambda = (1 - 2cM log^3 n / n)
(1 - l log^2 n / n) / (2(1+epsilon)^2), boundary length <= 2n + 3c log^2 n,
smaller area >= lambda (6 - c/log n) n, quotient -> (2/3)(1+epsilon)^2,
probability floor 1 - 2/c.  At epsilon = 0.05, c = 10, l = 4, lambda is
-57.07, -11.11, -1.55, +0.134, +0.406 at n = 1e4 ... 1e8, so the area
bound is vacuous at any sampled size and is not computed here.  Its
degree mass sum_{i1} d_i >= (6 - c/log n) n needs lht <= c log n, and
then follows from the floor 6n - lht n/log^2 n of ``invariant_failures``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress

from .cusps import (
    SMALL_TRIANGLE_AREA,
    degree_threshold,
    has_large_cusps,
    partition_cusps,
    surface_area,
)
from .ribbon import FaceDecomposition, RibbonGraph

__all__ = [
    "EmptyI1",
    "CuspCut",
    "Division",
    "build_cusp_cut",
    "cheeger_upper_bound",
    "in_f_star",
    "invariant_failures",
]


class EmptyI1(RuntimeError):
    """No cusp exceeds the degree threshold; no cut is fabricated."""


@dataclass(frozen=True)
class CuspCut:
    """Cut curve of one large cusp and the two side areas it creates.

    The curve has length 2*log(y) + k/y: two verticals from the
    canonical loop (height 1) to height y plus a width-k horocyclic arc
    at height y.  Side 1 is the k-wide box below the arc; side 2 is the
    rest of the cusp region, so the two areas sum to the degree
    exactly.
    """

    face_id: int
    k: int
    y: float
    eta_length: float
    side1_area: float
    side2_area: float


@dataclass(frozen=True)
class Division:
    """A two-label division of the whole surface.

    ``cuts`` are the cut curves of the large cusps, in sorted cusp
    order, one per cusp, so the set ``i1`` of large cusps is read off
    them.  Side 1 of each cut is A; side 2 and every small cusp (those
    outside ``i1``) are B; each triangle takes the majority label of its
    three darts.  ``minority`` is a 6n-byte mask, 1 at each minority
    dart and 0 elsewhere (left out of ``repr``); the full boundary is
    those unit segments plus the cut curves.  Its length and ``h_upper``
    are read off these parts and both areas on each call.
    """

    cuts: tuple[CuspCut, ...]
    minority: bytes = field(repr=False)
    area_a: float
    area_b: float

    @property
    def i1(self) -> frozenset[int]:
        return frozenset(c.face_id for c in self.cuts)

    @property
    def num_i1(self) -> int:
        return len(self.cuts)

    @property
    def boundary_length(self) -> float:
        return float(self.minority.count(1)) + math.fsum(c.eta_length for c in self.cuts)

    @property
    def h_upper(self) -> float:
        return self.boundary_length / min(self.area_a, self.area_b)

    @property
    def boundary_segments(self) -> frozenset[int]:
        """The minority darts as a set, built from ``minority`` on each call."""
        return frozenset(compress(range(len(self.minority)), self.minority))


def build_cusp_cut(face_id: int, d: int, n: int) -> CuspCut:
    """Cut curve for the large cusp ``face_id`` of degree ``d``, split at
    k = floor(d/2) segments.

    The cut height is y = n * d, giving a curve of length
    2*log(y) + k/y <= 2*log(n*d) + 1: two verticals of length log(y)
    and a width-k horocyclic arc at height y.  Side 1, the k-wide box
    between heights 1 and y, has area k * (1 - 1/y).  The curve stays
    above the canonical loop: ``degree_threshold`` needs n >= 3, and
    n / (log n)^2 > 1.84 there, so a large cusp has d >= 2 and y >= 6.
    """
    threshold = degree_threshold(n)
    if d <= threshold:
        raise ValueError(f"cusp {face_id} has degree {d} <= threshold {threshold}")
    y = float(n * d)
    k = d // 2
    eta_length = 2.0 * math.log(y) + k / y
    side1 = k * (1.0 - 1.0 / y)
    side2 = d - side1  # equals (d-k)*(1 - 1/y) + d/y; this form conserves exactly
    return CuspCut(face_id, k, y, eta_length, side1, side2)


def cheeger_upper_bound(g: RibbonGraph, fd: FaceDecomposition, n: int) -> Division:
    """Find the large cusps, cut them, label every triangle and measure
    both areas, off which the boundary length and ``h_upper`` are read.

    Darts in the first k walk positions of a large-cusp face (the face
    cycle is anchored at its minimal dart) border side 1 and carry A;
    all other darts carry B.  A triangle takes the majority label of
    its three darts, so it has either no minority dart or exactly one,
    and those minority darts are the unit boundary segments.  The
    division is an explicit separating set, so ``h_upper`` is a true
    upper bound for the Cheeger constant of the surface.

    Both areas are positive: n / (log n)^2 > 1.84 for every n >= 3, so a
    large cusp has degree d >= 2, its cut has k >= 1 and y >= 6, side 1
    has area k(1 - 1/y) > 0 and side 2 at least d - k >= 1.
    """
    if n != g.n:
        raise ValueError(f"n={n} does not match the graph's n={g.n}")
    if not fd.connected:
        raise ValueError("the graph is disconnected")
    i1 = partition_cusps(fd, n)
    if not i1:
        raise EmptyI1("no cusp exceeds the degree threshold")
    cuts = tuple(build_cusp_cut(i, fd.degrees[i], n) for i in sorted(i1))

    side_a = bytearray(g.num_darts)  # 1 where the dart borders a side-1 arc
    for cut in cuts:
        first = fd.starts[cut.face_id]
        for d in fd.walk[first : first + cut.k]:
            side_a[d] = 1

    # byte v of slice r is dart 3v + r of triangle v; the bitwise majority
    # of the three slices, read back as bytes, is 1 where triangle v is A
    s0, s1, s2 = (int.from_bytes(side_a[r::3], "little") for r in range(3))
    majority = (s0 & s1) | (s1 & s2) | (s0 & s2)
    num_v = g.num_vertices
    # a dart is a minority dart where its side differs from its triangle's majority
    minority = bytearray(g.num_darts)
    for r, side in enumerate((s0, s1, s2)):
        minority[r::3] = (side ^ majority).to_bytes(num_v, "little")

    num_a_triangles = majority.bit_count()
    area_a = math.fsum(c.side1_area for c in cuts) + SMALL_TRIANGLE_AREA * num_a_triangles
    small_cusp_mass = fd.sum_degrees - sum(fd.degrees[i] for i in i1)  # an exact int
    area_b = (
        math.fsum(c.side2_area for c in cuts)
        + small_cusp_mass
        + SMALL_TRIANGLE_AREA * (num_v - num_a_triangles)
    )
    return Division(
        cuts=cuts,
        minority=bytes(minority),
        area_a=area_a,
        area_b=area_b,
    )


def in_f_star(fd: FaceDecomposition, epsilon_l: float, c: float, n: int) -> bool:
    """Membership in the good family F*: the length-``epsilon_l``
    horoballs of all cusps are embedded and pairwise disjoint (decided
    exactly by ``has_large_cusps``) and the face count is at most
    c * log n.

    The large-cusp property holds asymptotically almost surely
    (Brooks-Makover); the paper's probability floor 1 - 2/c for F*
    (module docstring) rests on it.
    """
    if not c > 0:  # also rejects NaN
        raise ValueError(f"c must be positive, got {c}")
    if c == math.inf:
        raise ValueError(f"c must be finite, got {c}")
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    # has_large_cusps first, so that it rejects epsilon_l <= 0 on every call
    return has_large_cusps(fd, epsilon_l) and fd.lht <= c * math.log(n)


def invariant_failures(
    g: RibbonGraph, fd: FaceDecomposition, division: Division | None
) -> list[str]:
    """Every identity a sample must satisfy, one message per failure.

    The graph's identities always; with ``division`` also its areas,
    large-cusp mass floor, boundary darts and length, and area imbalance.  A non-empty result means a bug.
    """
    n = g.n
    failures: list[str] = []
    if fd.sum_degrees != 6 * n:
        failures.append(f"degree sum {fd.sum_degrees} != 6n")
    if fd.connected and 2 - 2 * fd.genus != fd.lht - n:
        failures.append(f"Euler identity fails: genus={fd.genus}, lht={fd.lht}")
    area = 2 * n * SMALL_TRIANGLE_AREA + fd.sum_degrees
    if not math.isclose(area, surface_area(n), abs_tol=1e-9):
        failures.append("triangle + cusp area != total area")
    if division is None:
        return failures

    if not math.isclose(division.area_a + division.area_b, surface_area(n), abs_tol=1e-9):
        failures.append("division areas do not conserve total area")
    mass_i1 = sum(fd.degrees[i] for i in division.i1)
    # large cusps hold all degree mass except at most lht small cusps of
    # at most n / (log n)^2 each
    if mass_i1 < 6 * n - fd.lht * degree_threshold(n) - 1e-9:
        failures.append("large-cusp degree mass below its floor")
    # two boundary darts of triangle v (darts 3v..3v+2) set byte v in two of
    # the residue slices; at most one per triangle caps the darts at 2n
    a, b, c = (int.from_bytes(division.minority[r::3], "little") for r in range(3))
    if a & b or b & c or a & c:
        failures.append("a triangle contributes more than one boundary dart")
    eta_total = math.fsum(c.eta_length for c in division.cuts)
    if division.boundary_length > 2 * n + eta_total + 1e-9:
        failures.append("boundary length exceeds 2n plus the cut curves")
    # area_b - area_a = sum_cuts (side2 - side1) + (degree mass outside i1)
    # + (pi - 3)(#B - #A) with |#B - #A| <= 2n, so the triangle inequality
    # bounds the imbalance by the sum of the three terms' absolute values.
    # A cut's sides differ by (d - 2k) + 2k/y, which is not bounded by 1.
    sides = math.fsum(abs(c.side2_area - c.side1_area) for c in division.cuts)
    allowance = 2 * n * SMALL_TRIANGLE_AREA + sides + (fd.sum_degrees - mass_i1)
    if abs(division.area_a - division.area_b) > allowance + 1e-9:
        failures.append("area imbalance beyond allowance")
    return failures
