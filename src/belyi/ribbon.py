"""Oriented cubic graphs encoded as dart permutation systems.

A graph of size parameter ``n`` has ``2n`` vertices and ``6n`` darts;
dart ``d`` belongs to vertex ``d // 3``.  The vertex rotation is the
same for every graph: at vertex ``v`` the darts ``(3v, 3v+1, 3v+2)``
form a 3-cycle.  A graph is therefore determined by its edge pairing
alone -- a fixed-point-free involution on the darts -- and sampling a
uniform random pairing realises the configuration-model measure on
oriented cubic graphs.

Faces are the orbits of ``rotation o pairing``, i.e. the left-hand-turn
closed walks.  When one ideal hyperbolic triangle is glued per vertex
(sides matched at midpoints, orientation preserved) the faces are the
cusps of the resulting surface, and the face degree is the number of
unit horocycle segments on the cusp's canonical horocycle loop.  Since
every triangle carries three segments, degrees always sum to ``6n``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Sequence

__all__ = [
    "BrokenInvariant",
    "RibbonGraph",
    "FaceDecomposition",
    "rotation",
    "derive_seed",
    "from_matching",
    "sample",
    "faces",
]


class BrokenInvariant(RuntimeError):
    """A face trace contradicts the Euler characteristic of a cubic graph."""


def rotation(dart: int) -> int:
    """Cyclic successor of ``dart`` at its vertex: (3v, 3v+1, 3v+2)."""
    r = dart % 3
    return dart - r + (r + 1) % 3


def derive_seed(*parts: object) -> int:
    """Stable 64-bit sub-seed from a tuple of ints/strings.

    Uses a keyed hash of the decimal representations, so derived seed
    streams are reproducible across processes and platforms.
    """
    text = "/".join(str(p) for p in parts)
    digest = hashlib.blake2b(text.encode("ascii"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@dataclass(frozen=True)
class RibbonGraph:
    """An oriented cubic graph: size parameter plus edge involution.

    ``matching[d]`` is the dart glued to dart ``d``.  The rotation is
    implicit (the fixed 3-cycles per vertex), so two graphs are equal
    exactly when their matchings are.

    The constructor trusts its arguments: ``n >= 1`` and ``matching`` a
    fixed-point-free involution on ``[0, 6n)``.  Outside input enters
    through ``from_matching`` or ``from_json_dict``, which validate it;
    ``sample`` builds valid graphs by construction.
    """

    n: int
    matching: tuple[int, ...]

    @property
    def num_darts(self) -> int:
        return 6 * self.n

    @property
    def num_vertices(self) -> int:
        return 2 * self.n

    def pairs(self) -> list[tuple[int, int]]:
        """The matching as a sorted list of (low, high) dart pairs."""
        return [(d, self.matching[d]) for d in range(self.num_darts) if d < self.matching[d]]

    def to_json_dict(self) -> dict:
        return {"n": self.n, "matching": [[a, b] for a, b in self.pairs()]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "RibbonGraph":
        """Validated graph from ``{"n": int, "matching": [[a, b], ...]}``."""
        if not isinstance(data, dict) or not isinstance(data.get("matching"), list):
            raise ValueError("a graph is an object with an integer n and a list of dart pairs")
        return from_matching(data.get("n"), data["matching"])


@dataclass(frozen=True)
class FaceDecomposition:
    """Left-hand-turn faces of a ribbon graph.

    ``faces`` are the orbits of the face permutation, each listed in
    walk order starting from its smallest dart and holding the int
    objects of ``matching``, not copies; ``degrees`` are the orbit
    lengths.  ``genus`` is defined only for connected graphs.
    ``label[d]`` is the 1-based face of dart ``d`` and ``matching`` is
    the traced graph's matching (the same object, not a copy), so later
    layers need not rebuild either; both are left out of ``==``,
    ``hash`` and ``repr``.
    """

    faces: tuple[tuple[int, ...], ...]
    degrees: tuple[int, ...]
    lht: int
    genus: int | None
    connected: bool
    label: list[int] = field(repr=False, compare=False)
    matching: tuple[int, ...] = field(repr=False, compare=False)

    @property
    def min_degree(self) -> int:
        return min(self.degrees)

    @property
    def max_degree(self) -> int:
        return max(self.degrees)

    @property
    def sum_degrees(self) -> int:
        return sum(self.degrees)


def from_matching(n: int, matching: Sequence[Sequence[int]]) -> RibbonGraph:
    """Build a validated graph from a list (any sized sequence) of dart pairs.

    ``n`` and the darts must be ``int`` (not ``bool``), each entry a pair,
    and the pairs must cover [0, 6n) exactly once with no self-pairs.  A
    ``matching`` of other than 3n pairs is rejected before the 6n-entry
    partner list is allocated; 3n pairs of distinct in-range darts then
    cover all 6n darts.
    """
    if type(n) is not int:
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if len(matching) != 3 * n:
        raise ValueError(f"matching has {len(matching)} pairs, expected 3n = {3 * n}")
    total = 6 * n
    alpha = [-1] * total
    for pair in matching:
        try:
            a, b = pair
        except (TypeError, ValueError):
            raise ValueError(f"matching entry {pair!r} is not a pair of darts") from None
        if type(a) is not int or type(b) is not int:
            raise ValueError(f"matching entry {pair!r} has a dart that is not an integer")
        if a == b:
            raise ValueError(f"dart {a} is paired with itself")
        if not 0 <= a < total:
            raise ValueError(f"dart {a} is outside [0, 6n)")
        if alpha[a] != -1:
            raise ValueError(f"dart {a} appears in more than one pair")
        if not 0 <= b < total:
            raise ValueError(f"dart {b} is outside [0, 6n)")
        if alpha[b] != -1:
            raise ValueError(f"dart {b} appears in more than one pair")
        alpha[a] = b
        alpha[b] = a
    return RibbonGraph(n, tuple(alpha))


def sample(n: int, seed: int) -> RibbonGraph:
    """Uniform random graph: a uniform perfect matching on the 6n darts.

    Deterministic function of (n, seed); every matching is equally
    likely, including those with loops and multiple edges.

    Contract: the darts ``0 .. 6n-1`` are shuffled exactly as
    ``random.Random(seed).shuffle`` shuffles them, call for call, and
    neighbours are paired: positions (0, 1), (2, 3), ... are the edges.
    The shuffle's loop is written out to save a Python call per dart:
    position ``i``, from the last down to 1, draws ``getrandbits(k)``
    with ``k = (i + 1).bit_length()`` until the draw is at most ``i``,
    as ``Random._randbelow_with_getrandbits`` does, and swaps.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    total = 6 * n
    getrandbits = random.Random(seed).getrandbits
    darts = list(range(total))
    top = total - 1
    while top:
        k = (top + 1).bit_length()
        low = 1 << (k - 1)  # positions low - 1 .. top all draw k bits
        for i in range(top, low - 2, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            darts[i], darts[j] = darts[j], darts[i]
        top = low - 2
    alpha = [0] * total
    it = iter(darts)
    for a, b in zip(it, it):  # neighbours
        alpha[a] = b
        alpha[b] = a
    # alpha now holds every dart's int; the iterator keeps the list alive,
    # so both names must go for the list to be freed before the tuple
    del darts, it
    return RibbonGraph(n, tuple(alpha))


def _face_components(label: list[int], lht: int) -> int:
    """Number of classes of the faces ``1 .. lht`` once the faces at each
    vertex, the labels of darts ``3v, 3v + 1, 3v + 2``, are united."""
    parent = list(range(lht + 1))
    components = lht
    it = iter(label)
    for x, y, z in set(zip(it, it, it)):  # the faces at each vertex, once per distinct triple
        for a, b in ((x, y), (y, z)):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            while parent[b] != b:
                parent[b] = parent[parent[b]]
                b = parent[b]
            if a != b:
                parent[a] = b
                components -= 1
    return components


def faces(g: RibbonGraph) -> FaceDecomposition:
    """Trace the left-hand-turn faces of a graph.

    Orbits of the face permutation partition the darts; the face count,
    degrees, connectivity and (when connected) the genus follow from
    the orbit structure via the Euler characteristic.  Each step labels
    one untraced dart and the trace stops once all 6n are labelled, so
    the degrees sum to 6n even for a tuple in [0, 6n) that is not an
    involution; only the parity and genus checks below can refuse one.

    Rotation and matching generate the same group as rotation and the
    face permutation, so the graph is connected exactly when its faces
    are connected through the three darts of each vertex.  Each vertex
    contributes the triple of its darts' face labels, read from
    ``label`` at C speed into a set; a union-find over the ``lht`` faces
    (``_face_components``) then unites the faces of each distinct triple.

    Each cycle entry is the int object ``g.matching`` already holds for
    that dart (``m[m[d]]``, which is ``d``), so the 6n entries share the
    matching's ints instead of allocating 6n new ones.
    """
    total = g.num_darts
    m = g.matching
    step = (1, 1, -2)  # rotation(e) - e, indexed by e % 3
    label = [0] * total  # 1-based face index of each dart; 0 = not yet traced
    orbits: list[tuple[int, ...]] = []
    traced = start = 0
    while traced < total:
        start = label.index(0, start)  # smallest untraced dart, at C speed
        k = len(orbits) + 1
        cycle = []
        append = cycle.append
        d = start
        while not label[d]:
            label[d] = k
            e = m[d]
            append(m[e])  # d itself, as the int the matching already holds
            d = e + step[e % 3]
        traced += len(cycle)
        orbits.append(tuple(cycle))
    degrees = tuple(len(c) for c in orbits)
    lht = len(orbits)
    connected = _face_components(label, lht) == 1
    genus: int | None = None
    if connected:
        # chi = V - E + F = -n + lht for a cubic graph on 2n vertices
        if (g.n - lht) % 2:
            raise BrokenInvariant(f"n - lht = {g.n - lht} is odd for a connected graph")
        genus = 1 + (g.n - lht) // 2
        if genus < 0:
            raise BrokenInvariant(f"genus {genus} < 0 (n = {g.n}, lht = {lht})")
    return FaceDecomposition(tuple(orbits), degrees, lht, genus, connected, label, m)
