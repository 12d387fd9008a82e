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
import json
import random
import re
from array import array
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Iterable, Iterator, Sequence, TextIO

__all__ = [
    "BrokenInvariant",
    "GraphDecoder",
    "RibbonGraph",
    "FaceDecomposition",
    "rotation",
    "derive_seed",
    "from_matching",
    "sample",
    "faces",
]


MAX_N = (2**32 - 1) // 6  # the largest n whose 6n darts fit an array("I")

# From this n on, sample shuffles its darts in an array("I") instead of a
# list (its docstring says why): the measured crossover.  Array time over
# list time, alternating calls in one process (2 CPUs, Python 3.11):
# sample 1.70x at n = 3e3, 1.53x at 1e4, 1.15-1.17x at 3e4, 1.03-1.04x at
# 4e4, 1.00-1.02x at 4.5e4, 0.96-0.99x at 5e4, 0.94-0.95x at 6e4 and 0.74x
# at 1e5; run_trial 1.04x at 4.5e4, 1.00x at 5e4 and 0.89x at 1e5.
_ARRAY_SHUFFLE_MIN_N = 50_000

# GraphDecoder hands json.loads the matching of a graph file this many
# characters at a time (each slice ends at the next pair boundary), so no
# pair list outlives its slice.  Slices of 256K characters lost to one
# json.load in 25 of 25 rounds.
_SLICE_CHARS = 1 << 15
_WRITE_PAIRS = 8192  # RibbonGraph.write_json writes this many pairs at a time


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
    exactly when their matchings are.  ``sample`` and ``from_matching``
    store the matching as an ``array("I")``, 4 bytes a dart with no int
    object behind each entry; ``matching`` is left out of ``hash``.

    The constructor trusts its arguments: ``n >= 1`` and ``matching`` a
    fixed-point-free involution on ``[0, 6n)``, as any sequence of ints.
    A graph built from a tuple is not ``==`` the same graph built by
    ``sample`` or ``from_matching``, since an array never equals a
    tuple.  Outside input enters through ``from_matching`` or
    ``from_json_dict``, which validate it; ``sample`` builds valid graphs
    by construction.
    """

    n: int
    matching: Sequence[int] = field(hash=False)

    @property
    def num_darts(self) -> int:
        return 6 * self.n

    @property
    def num_vertices(self) -> int:
        return 2 * self.n

    def pairs(self) -> Iterator[tuple[int, int]]:
        """The (low, high) dart pairs, in increasing order of the low dart, one at a time."""
        return ((d, e) for d, e in enumerate(self.matching) if d < e)

    def write_json(self, fh: TextIO) -> None:
        """Write ``json.dumps({"matching": [[a, b], ...], "n": n}, sort_keys=True,
        separators=(", ", ": "))`` and a newline to ``fh``, ``_WRITE_PAIRS`` pairs at a time."""
        items = map("[%d, %d]".__mod__, self.pairs())
        fh.write('{"matching": [' + ", ".join(islice(items, _WRITE_PAIRS)))
        while batch := ", ".join(islice(items, _WRITE_PAIRS)):
            fh.write(", " + batch)
        fh.write(f'], "n": {self.n}}}\n')

    @classmethod
    def from_json_dict(cls, data: dict) -> "RibbonGraph":
        """Validated graph from ``{"n": int, "matching": [[a, b], ...]}``.

        ``matching`` is a list, or the slices of text that ``GraphDecoder``
        leaves in its place, parsed here as ``from_matching`` validates
        their pairs.
        """
        matching = data.get("matching") if isinstance(data, dict) else None
        if not isinstance(matching, (list, _PairSlices)):
            raise ValueError("a graph is an object with an integer n and a list of dart pairs")
        return from_matching(data.get("n"), matching)


@dataclass(frozen=True)
class FaceDecomposition:
    """Left-hand-turn faces of a ribbon graph.

    The faces are the orbits of the face permutation, each in walk order
    starting from its smallest dart.  ``walk`` is an ``array("I")`` of
    all 6n darts, face after face, and face ``j`` is
    ``walk[starts[j]:starts[j + 1]]`` (``face(j)``); ``starts`` ends
    with 6n.  ``degrees`` are the orbit lengths.  They follow from
    ``starts`` but are stored: the cusp loops index and enumerate them,
    and deriving them would rebuild a tuple on each read or need a
    cache.  ``genus`` is set exactly when the graph is connected, so the
    face count ``lht`` and ``connected`` are read off ``degrees`` and
    ``genus``.  ``label[d]`` is the 1-based face of dart ``d`` and
    ``matching`` is the traced graph's matching (the same object, not a
    copy), so later layers need not rebuild either; both are left out of
    ``==``, ``hash`` and ``repr``, and ``walk`` out of ``hash``.
    """

    walk: Sequence[int] = field(hash=False)
    starts: tuple[int, ...]
    degrees: tuple[int, ...]
    genus: int | None
    label: list[int] = field(repr=False, compare=False)
    matching: Sequence[int] = field(repr=False, compare=False)

    def face(self, j: int) -> Sequence[int]:
        """The darts of face ``j`` in walk order, as a slice of ``walk``."""
        return self.walk[self.starts[j] : self.starts[j + 1]]

    @property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        """Every face as a tuple, rebuilt from ``walk`` on each call."""
        return tuple(tuple(self.face(j)) for j in range(self.lht))

    @property
    def lht(self) -> int:
        return len(self.degrees)

    @property
    def connected(self) -> bool:
        return self.genus is not None

    @property
    def min_degree(self) -> int:
        return min(self.degrees)

    @property
    def max_degree(self) -> int:
        return max(self.degrees)

    @property
    def sum_degrees(self) -> int:
        return sum(self.degrees)


def _check_n(n: int) -> None:
    """Reject an ``n`` that is not an ``int`` (``bool`` included) or lies
    outside ``[1, MAX_N]``, before anything is allocated."""
    if type(n) is not int:
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > MAX_N:
        raise ValueError(f"n must be <= {MAX_N}, so that 6n darts fit uint32, got {n}")


def from_matching(n: int, matching: Sequence[Sequence[int]]) -> RibbonGraph:
    """Build a validated graph from a list (any sized iterable) of dart pairs.

    ``n`` and the darts must be ``int`` (not ``bool``), each entry a pair,
    and the pairs must cover [0, 6n) exactly once with no self-pairs.  A
    ``matching`` of other than 3n pairs is rejected before the 6n-entry
    partner array is allocated; 3n pairs of distinct in-range darts then
    cover all 6n darts.  The partner array starts filled with the
    out-of-range sentinel 6n, which marks a dart not yet paired; an ``n``
    above ``MAX_N`` is refused first.
    """
    _check_n(n)
    if len(matching) != 3 * n:
        raise ValueError(f"matching has {len(matching)} pairs, expected 3n = {3 * n}")
    total = 6 * n
    alpha = array("I", [total]) * total
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
        if alpha[a] != total:
            raise ValueError(f"dart {a} appears in more than one pair")
        if not 0 <= b < total:
            raise ValueError(f"dart {b} is outside [0, 6n)")
        if alpha[b] != total:
            raise ValueError(f"dart {b} appears in more than one pair")
        alpha[a] = b
        alpha[b] = a
    return RibbonGraph(n, alpha)


_WS = r"[ \t\n\r]*"  # JSON's whitespace; \s also matches characters json refuses
_MATCHING_OPEN = re.compile(rf'"matching"{_WS}:{_WS}\[')
_MATCHING_CLOSE = re.compile(rf"\]{_WS}\]")
_PAIR_BOUNDARY = re.compile(rf"\]{_WS},{_WS}\[")
_MARK = object()  # what the framing decoder makes of the NaN put in the matching's place
_FRAMING = json.JSONDecoder(parse_constant=lambda name: _MARK if name == "NaN" else float(name))


class _PairSlices:
    """The pairs of a ``matching`` array, parsed from its text a slice at a time.

    ``text[start:stop]`` is the array without its brackets.  ``len`` is
    its count of ``[``, one per pair of ints, so ``from_matching`` refuses
    a wrong pair count before anything is parsed.  Each slice ends at a
    ``]`` followed by ``,`` and ``[``, and is parsed by ``json.loads`` on
    its own.  A slice cut inside a string or a nested array does not
    parse, and an array holding either is no matching; when every slice
    parses, the slices are the array's items, cut between two of them.
    So iteration yields the array's pairs or raises ``ValueError``.
    """

    def __init__(self, text: str, start: int, stop: int):
        self._text, self._start, self._stop = text, start, stop

    def __len__(self) -> int:
        return self._text.count("[", self._start, self._stop)

    def __iter__(self) -> Iterator:
        return chain.from_iterable(map(json.loads, self._slices()))

    def _slices(self) -> Iterator[str]:
        text, start, stop = self._text, self._start, self._stop
        while True:
            cut = _PAIR_BOUNDARY.search(text, start + _SLICE_CHARS, stop)
            if cut is None:
                yield "[" + text[start:stop] + "]"
                return
            yield "[" + text[start : cut.start() + 1] + "]"
            start = cut.end() - 1


class GraphDecoder(json.JSONDecoder):
    """JSON decoder for graph files that leaves the ``matching`` array as
    text, to be parsed a slice at a time while ``from_json_dict``
    validates its pairs.

    ``json.load`` builds a list and two ints for each pair, about 85
    bytes a dart, against the 4 of the matching they become.  Here the
    first ``"matching": [`` and the first ``]]`` after it bound the
    array.  The document is decoded with that array replaced by the
    token ``NaN``, which the framing decoder turns into a marker; in a
    text with no ``NaN`` of its own, nothing else can decode to it (a
    placeholder string could, spelled with escapes).  If the marker is
    then the top-level ``matching``, the array's slices take its place.
    Any other document, a ``NaN`` in the text, or a framing that does not
    decode is decoded by ``json`` as a whole, with json's own data and
    errors.
    """

    def decode(self, s):
        opening = _MATCHING_OPEN.search(s)
        closing = opening and _MATCHING_CLOSE.search(s, opening.end())
        if closing and "NaN" not in s:
            start, stop = opening.end(), closing.end() - 1
            try:
                data = _FRAMING.decode(s[: start - 1] + "NaN" + s[stop + 1 :])
            except ValueError:
                data = None
            if isinstance(data, dict) and data.get("matching") is _MARK:
                data["matching"] = _PairSlices(s, start, stop)
                return data
        return super().decode(s)


def sample(n: int, seed: int) -> RibbonGraph:
    """Uniform random graph: a uniform perfect matching on the 6n darts.

    Deterministic function of (n, seed); every matching is equally
    likely, including those with loops and multiple edges.

    Contract: the darts ``0 .. 6n-1`` are shuffled exactly as
    ``random.Random(seed).shuffle`` shuffles them, call for call, and
    neighbours are paired: positions (0, 1), (2, 3), ... are the edges.
    ``Random`` seeds from ``abs(seed)``, so ``-s`` and ``s`` give the
    same graph.
    The shuffle's loop is written out to save a Python call per dart:
    position ``i``, from the last down to 1, draws ``getrandbits(k)``
    with ``k = (i + 1).bit_length()`` until the draw is at most ``i``,
    as ``Random._randbelow_with_getrandbits`` does, and swaps.

    The darts are shuffled in a list below ``_ARRAY_SHUFFLE_MIN_N`` and
    in an ``array("I")`` from it on; the loop is the same for both.  A
    list and its 6n int objects take 40 bytes a dart: while they fit
    the cache, its swaps, which only move pointers, are the fastest.
    Past that, the swaps wait on memory, and the array's 4 bytes a dart
    win although each read builds an int; the array also cuts the peak
    from 44 to 8 bytes a dart, matching included.  The pairs are written into
    an ``array("I")``, so the shuffle buffer is freed when this
    returns.  An ``n`` that is not an ``int``, or above ``MAX_N``, whose
    darts would not fit, is refused before the buffer is built.
    """
    _check_n(n)
    total = 6 * n
    getrandbits = random.Random(seed).getrandbits
    darts = array("I", range(total)) if n >= _ARRAY_SHUFFLE_MIN_N else list(range(total))
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
    alpha = array("I", [0]) * total
    it = iter(darts)
    for a, b in zip(it, it):  # neighbours
        alpha[a] = b
        alpha[b] = a
    return RibbonGraph(n, alpha)


def _face_components(label: list[int], lht: int, firsts: Iterable[int]) -> int:
    """Number of classes of the faces ``1 .. lht`` once the faces at each
    vertex, the labels of darts ``3v, 3v + 1, 3v + 2``, are united.

    The vertices of the darts in ``firsts`` go first; the set of distinct
    triples over every vertex is built and scanned only while more than
    one class is left, so the count is exact for any ``firsts``.
    """
    parent = list(range(lht + 1))
    components = lht

    def triples():
        for d in firsts:
            v = d - d % 3
            yield label[v], label[v + 1], label[v + 2]
        it = iter(label)
        yield from set(zip(it, it, it))  # every vertex, once per distinct triple

    for x, y, z in triples():
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
        if components == 1:  # before the next triple, which may build the set
            break
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
    are connected through the three darts of each vertex.  A union-find
    over the ``lht`` faces (``_face_components``) unites the faces at the
    vertex of each face's smallest dart, and only if that leaves more
    than one class, the faces of each distinct triple of face labels
    over all vertices, read from ``label`` at C speed into a set.

    The darts go straight into one ``array("I")`` walk, 4 bytes each,
    with no per-face list or tuple, so a dart's int lives only while it
    is the walk's current dart.  ``label`` stays a list: an array's
    ``index(0, start)`` would build an int for every entry it compares.
    """
    total = g.num_darts
    m = g.matching
    step = (1, 1, -2)  # rotation(e) - e, indexed by e % 3
    label = [0] * total  # 1-based face index of each dart; 0 = not yet traced
    walk = array("I")
    append = walk.append
    starts = []
    start = 0
    while len(walk) < total:
        start = label.index(0, start)  # smallest untraced dart, at C speed
        starts.append(len(walk))
        k = len(starts)
        d = start
        while not label[d]:
            label[d] = k
            append(d)
            e = m[d]
            d = e + step[e % 3]
    starts.append(total)
    degrees = tuple(b - a for a, b in zip(starts, starts[1:]))
    lht = len(degrees)
    genus: int | None = None
    # each face's smallest dart is its first in the walk
    if _face_components(label, lht, (walk[i] for i in starts[:-1])) == 1:
        # chi = V - E + F = -n + lht for a cubic graph on 2n vertices
        if (g.n - lht) % 2:
            raise BrokenInvariant(f"n - lht = {g.n - lht} is odd for a connected graph")
        genus = 1 + (g.n - lht) // 2
        if genus < 0:
            raise BrokenInvariant(f"genus {genus} < 0 (n = {g.n}, lht = {lht})")
    return FaceDecomposition(walk, tuple(starts), degrees, genus, label, m)
