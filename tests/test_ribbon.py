from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from belyi import ribbon
from belyi.ribbon import (
    BrokenInvariant,
    GraphDecoder,
    RibbonGraph,
    derive_seed,
    faces,
    from_matching,
    rotation,
    sample,
)

NOT_A_GRAPH = "a graph is an object with an integer n and a list of dart pairs"
NOT_AN_INT = "matching entry {!r} has a dart that is not an integer"
NOT_A_PAIR = "matching entry {!r} is not a pair of darts"
THETA_TORUS = [(0, 3), (1, 4), (2, 5)]  # parallel cyclic orders at the two vertices
THETA_SPHERE = [(0, 3), (1, 5), (2, 4)]  # opposite cyclic orders


def all_matchings(elements: list[int]):
    """Every perfect matching of an even-sized list, by brute recursion."""
    if not elements:
        yield []
        return
    first = elements[0]
    for i in range(1, len(elements)):
        partner = elements[i]
        rest = elements[1:i] + elements[i + 1 :]
        for rest_match in all_matchings(rest):
            yield [(first, partner)] + rest_match


def naive_face_orbits(n: int, pairs: list[tuple[int, int]]) -> list[tuple[int, ...]]:
    """Independent orbit tracer: explicit permutation dicts, no shared code."""
    total = 6 * n
    alpha = {}
    for a, b in pairs:
        alpha[a] = b
        alpha[b] = a
    sigma = {d: 3 * (d // 3) + (d % 3 + 1) % 3 for d in range(total)}
    phi = {d: sigma[alpha[d]] for d in range(total)}
    orbits = []
    remaining = set(range(total))
    while remaining:
        start = min(remaining)
        cyc = [start]
        d = phi[start]
        while d != start:
            cyc.append(d)
            d = phi[d]
        remaining -= set(cyc)
        orbits.append(tuple(cyc))
    return orbits


def pairing_counts(v: int) -> tuple[int, int]:
    """(all, connected) pairings of the 3v darts of v cubic vertices, v even.

    There are M(v) = (3v - 1)!! pairings.  Counted by the size k of vertex
    0's component, which is even, the connected ones number
    C(v) = M(v) - sum over even 2 <= k < v of binom(v - 1, k - 1) C(k) M(v - k).
    """

    def pairings(w: int) -> int:
        return math.prod(range(3 * w - 1, 0, -2))

    connected: dict[int, int] = {}
    for w in range(2, v + 1, 2):
        connected[w] = pairings(w) - sum(
            math.comb(w - 1, k - 1) * connected[k] * pairings(w - k) for k in range(2, w, 2)
        )
    return pairings(v), connected[v]


# (n, pairs, from_matching's message): each breaks one rule of the graph format
MALFORMED = [
    (1, [(0, 3), (True, 4), (2, 5)], NOT_AN_INT.format((True, 4))),
    (1, [(False, 3), (1, 4), (2, 5)], NOT_AN_INT.format((False, 3))),
    (1, [(0, 3), (1.0, 4), (2, 5)], NOT_AN_INT.format((1.0, 4))),
    (1, [(0, 3), ("1", 4), (2, 5)], NOT_AN_INT.format(("1", 4))),
    (1, [(0, 3), (1, None), (2, 5)], NOT_AN_INT.format((1, None))),
    (4.5, THETA_TORUS, "n must be an integer, got 4.5"),
    (1.0, THETA_TORUS, "n must be an integer, got 1.0"),
    (True, THETA_TORUS, "n must be an integer, got True"),
    ("1", THETA_TORUS, "n must be an integer, got '1'"),
    (1, [(0, 3), (1, 4, 2), (5,)], NOT_A_PAIR.format((1, 4, 2))),
    (1, [(0, 3), (1,), (2, 5)], NOT_A_PAIR.format((1,))),
    (1, [(0, 3), 1, (2, 5)], NOT_A_PAIR.format(1)),
]
MALFORMED_IDS = [
    "bool-dart", "false-dart", "float-dart", "string-dart", "null-dart",
    "float-n", "integral-float-n", "bool-n", "string-n",
    "triple", "singleton", "bare-int",
]

GOLDEN_N, GOLDEN_SEED = 100_000, 2024
GOLDEN_MATCHING_SHA256 = "68f3d36dc2b56b5be69f269162fda916f2d9d7cc760ffa9f66e65529c0ab3d8a"
GOLDEN_FACES_SHA256 = "91343c84187b899f532e25a2fa6a797e78499984c45cc0f762655c63b8687a33"


def sha256_of(obj) -> str:
    return hashlib.sha256(str(obj).encode()).hexdigest()


class TestGoldenFingerprints:
    """The seed stream and the face trace at n = 1e5 are frozen."""

    def test_sample_and_faces(self):
        g = sample(GOLDEN_N, GOLDEN_SEED)
        assert sha256_of(tuple(g.matching)) == GOLDEN_MATCHING_SHA256
        fd = faces(g)
        assert sha256_of(fd.faces) == GOLDEN_FACES_SHA256
        assert (fd.lht, fd.genus, fd.connected) == (12, 49995, True)


def naive_connected(n: int, pairs: list[tuple[int, int]]) -> bool:
    """Independent connectivity oracle: BFS over the vertices along the edges."""
    neighbours: dict[int, set[int]] = {v: set() for v in range(2 * n)}
    for a, b in pairs:
        neighbours[a // 3].add(b // 3)
        neighbours[b // 3].add(a // 3)
    reached = {0}
    frontier = [0]
    while frontier:
        for w in neighbours[frontier.pop()] - reached:
            reached.add(w)
            frontier.append(w)
    return len(reached) == 2 * n


class TestDartConventions:
    def test_vertex_blocks(self):
        assert [d // 3 for d in range(6)] == [0, 0, 0, 1, 1, 1]

    def test_rotation_is_three_cycles(self):
        for v in range(4):
            base = 3 * v
            assert rotation(base) == base + 1
            assert rotation(base + 1) == base + 2
            assert rotation(base + 2) == base


class TestFromMatching:
    def test_theta_graph_valid(self):
        g = from_matching(1, THETA_TORUS)
        assert g.n == 1
        assert g.num_vertices == 2 and len(g.pairs()) == 3 and g.num_darts == 6
        assert g.pairs() == THETA_TORUS

    def test_n_below_one(self):
        with pytest.raises(ValueError, match=r"^n must be >= 1, got 0$"):
            from_matching(0, [])

    def test_self_paired_dart(self):
        with pytest.raises(ValueError, match=r"^dart 0 is paired with itself$"):
            from_matching(1, [(0, 0), (1, 4), (2, 5)])

    def test_wrong_dart_count_missing(self):
        with pytest.raises(ValueError, match=r"^matching has 5 pairs, expected 3n = 6$"):
            from_matching(2, [(0, 3), (1, 4), (2, 5), (6, 9), (7, 10)])

    def test_wrong_dart_count_before_allocation(self):
        # a sized matching of the wrong length is rejected before the
        # 6n-entry partner array (here 17 GB) is allocated
        message = f"matching has 0 pairs, expected 3n = {3 * ribbon.MAX_N}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            from_matching(ribbon.MAX_N, [])

    def test_darts_beyond_uint32_rejected_first(self):
        # 6n darts must fit the partner array's uint32 entries; this is
        # checked before the pair count
        message = f"n must be <= 715827882, so that 6n darts fit uint32, got {2**30}"
        assert ribbon.MAX_N == 715_827_882 and 6 * (ribbon.MAX_N + 1) > 2**32 - 1
        with pytest.raises(ValueError, match=f"^{message}$"):
            from_matching(2**30, [])

    def test_wrong_dart_count_unsized(self):
        # the pair count is checked on every input, so an iterator is refused
        with pytest.raises(TypeError):
            from_matching(1, iter([(0, 3), (1, 4), (2, 5)]))

    def test_wrong_dart_count_out_of_range(self):
        with pytest.raises(ValueError, match=r"^dart 6 is outside \[0, 6n\)$"):
            from_matching(1, [(0, 3), (1, 4), (2, 6)])

    def test_duplicate_dart(self):
        with pytest.raises(ValueError, match=r"^dart 0 appears in more than one pair$"):
            from_matching(1, [(0, 3), (0, 4), (2, 5)])

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ([(0, 3), (0, 99), (2, 5)], "dart 0 appears in more than one pair"),
            ([(0, 3), (99, 0), (2, 5)], "dart 99 is outside [0, 6n)"),
            ([(-1, 3), (1, 4), (2, 5)], "dart -1 is outside [0, 6n)"),
            ([(0, 3), (1, -1), (2, 5)], "dart -1 is outside [0, 6n)"),
        ],
        ids=["repeat-then-outside", "outside-then-repeat", "negative-first", "negative-second"],
    )
    def test_first_fault_within_a_pair(self, pairs, message):
        # each pair's darts are checked in order, range before repetition,
        # and a negative dart never indexes the partner list from the end
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            from_matching(1, pairs)

    @pytest.mark.parametrize("n, pairs, message", MALFORMED, ids=MALFORMED_IDS)
    def test_malformed_rejected(self, n, pairs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            from_matching(n, pairs)

    @pytest.mark.parametrize(
        "data, message",
        [
            ([1, THETA_TORUS], NOT_A_GRAPH),
            ({"n": 1, "matching": 5}, NOT_A_GRAPH),
            ({"n": 4}, NOT_A_GRAPH),
            ({"matching": []}, "n must be an integer, got None"),
        ],
        ids=["data0", "data1", "data2", "data3"],
    )
    def test_json_not_a_graph_object(self, data, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RibbonGraph.from_json_dict(data)

    def test_json_round_trip(self):
        g = sample(4, 99)
        assert from_matching(4, g.to_json_dict()["matching"]) == g


def read_graph(text: str) -> RibbonGraph:
    return RibbonGraph.from_json_dict(json.loads(text, cls=GraphDecoder))


class TestGraphDecoder:
    """Graph files read through ``GraphDecoder``, whose matching is parsed
    a slice at a time, give what ``from_matching`` gives on json's pairs."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        n=st.integers(1, 12),
        seed=st.integers(0, 2**32),
        n_first=st.booleans(),
        layout=st.sampled_from(
            [{}, {"indent": 2}, {"indent": "\t"}, {"separators": (",", ":")},
             {"indent": 1, "separators": (" ,", " : ")}]
        ),
        before=st.sampled_from([{}, {"label": "]]"}, {"header": {"matching": [[0, 1]]}}]),
        after=st.sampled_from([{}, {"tail": [[1, 2], [3, 4]]}, {"extra": {"matching": "x"}}]),
        slice_chars=st.sampled_from([1, 5, 12, ribbon._SLICE_CHARS]),
    )
    def test_reads_what_json_reads(self, n, seed, n_first, layout, before, after, slice_chars):
        pairs = sample(n, seed).pairs()
        members = {"n": n, "matching": pairs} if n_first else {"matching": pairs, "n": n}
        text = json.dumps({**before, **members, **after}, **layout)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ribbon, "_SLICE_CHARS", slice_chars)
            data = json.loads(text, cls=GraphDecoder)
            # the matching stays text unless a nested "matching" comes first
            assert isinstance(data["matching"], list) == ("header" in before)
            assert RibbonGraph.from_json_dict(data) == from_matching(n, pairs)

    @pytest.mark.parametrize("n, pairs, message", MALFORMED, ids=MALFORMED_IDS)
    def test_malformed_rejected(self, monkeypatch, n, pairs, message):
        monkeypatch.setattr(ribbon, "_SLICE_CHARS", 3)  # one pair a slice
        with pytest.raises(ValueError):
            read_graph(json.dumps({"matching": pairs, "n": n}))

    @pytest.mark.parametrize("space", ["\u00a0", "\x0b"], ids=["nbsp", "vtab"])
    def test_space_json_refuses_is_refused_at_a_cut(self, monkeypatch, space):
        # Python's \s matches both, but JSON's whitespace is " \t\n\r" only
        monkeypatch.setattr(ribbon, "_SLICE_CHARS", 3)
        with pytest.raises(ValueError):
            read_graph('{"matching": [[0, 3],' + space + '[1, 4], [2, 5]], "n": 1}')

    def test_later_nan_matching_is_decoded_by_json(self):
        # json keeps the last "matching", a float; were the NaN read as the
        # framing's marker, the first array would be taken as the graph
        text = '{"matching": [[0, 3], [1, 4], [2, 5]], "n": 1, "matching": NaN}'
        with pytest.raises(ValueError, match=f"^{NOT_A_GRAPH}$"):
            read_graph(text)

    @pytest.mark.parametrize("slice_chars", [3, ribbon._SLICE_CHARS])
    def test_string_dart_holding_the_closing_brackets(self, monkeypatch, slice_chars):
        # "]]" ends the matching's text early; the framing does not decode
        monkeypatch.setattr(ribbon, "_SLICE_CHARS", slice_chars)
        with pytest.raises(ValueError, match=re.escape(NOT_AN_INT.format(["]]", 4]))):
            read_graph('{"matching": [[0, 3], ["]]", 4], [2, 5]], "n": 1}')


def shuffled_matching(n: int, seed: int) -> tuple[int, ...]:
    """The matching that pairs neighbours of ``random.Random(seed).shuffle``
    applied to the darts ``0 .. 6n-1``: ``sample``'s seed contract."""
    darts = list(range(6 * n))
    random.Random(seed).shuffle(darts)
    alpha = [0] * (6 * n)
    for a, b in zip(darts[0::2], darts[1::2]):
        alpha[a] = b
        alpha[b] = a
    return tuple(alpha)


class TestSample:
    @pytest.mark.parametrize(
        "array_min_n, bound", [(10_001, 45), (10_000, 9)], ids=["list", "array"]
    )
    def test_peak_memory_per_dart(self, peak_bytes, monkeypatch, array_min_n, bound):
        # below _ARRAY_SHUFFLE_MIN_N: the shuffled list (8 bytes a dart), one
        # int per dart (32) and the matching's array (4); from it on, the
        # shuffled array (4) and the matching's (4).  Either bound fails if
        # a temporary bytes builds an array (4) or the buffer is paired
        # through half-size slices (8 for the list, 4 for the array).  The
        # threshold is put just above or at n = 1e4, where tracemalloc runs
        # through the array's shuffle in a quarter of its time at 5e4;
        # test_reproduces_random_shuffle_on_both_buffers covers the real one
        n = 10_000
        monkeypatch.setattr(ribbon, "_ARRAY_SHUFFLE_MIN_N", array_min_n)
        peak, g = peak_bytes(sample, n, derive_seed(67, "memory"))
        assert g.num_darts == 6 * n
        assert peak <= bound * g.num_darts, peak / g.num_darts

    def test_retained_memory_per_dart(self, retained_bytes):
        # the matching's array, 4 bytes a dart; the shuffled list and its
        # ints are freed on return, and a tuple would keep them (40)
        kept, g = retained_bytes(sample, 10_000, derive_seed(67, "memory"))
        assert kept <= 5 * g.num_darts, kept / g.num_darts

    def test_deterministic(self):
        assert sample(1, 42) == sample(1, 42)
        assert sample(100, 7) == sample(100, 7)

    def test_closure_under_validation(self):
        g = sample(100, 7)
        assert from_matching(100, g.pairs()) == g

    def test_uniform_over_the_15_matchings(self):
        # brute-force enumeration is the oracle for the sample space
        space = {tuple(sorted(tuple(sorted(p)) for p in m)) for m in all_matchings(list(range(6)))}
        assert len(space) == 15
        trials = 100_000
        counts: dict[tuple, int] = {m: 0 for m in space}
        for seed in range(trials):
            g = sample(1, seed)
            counts[tuple(g.pairs())] += 1
        expected = trials / 15
        stat = sum((c - expected) ** 2 / expected for c in counts.values())
        # 99.9% critical value of chi-square with 14 degrees of freedom
        assert stat < chi2.ppf(0.999, df=14)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            sample(0, 1)

    @pytest.mark.parametrize("n", [True, 1000.0], ids=["bool-n", "integral-float-n"])
    def test_n_not_an_int_rejected(self, n):
        with pytest.raises(ValueError, match=f"^n must be an integer, got {n!r}$"):
            sample(n, 0)

    def test_darts_beyond_uint32_rejected_before_allocation(self):
        # the shuffled array alone would take 26 GB
        message = f"n must be <= 715827882, so that 6n darts fit uint32, got {2**30}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            sample(2**30, 0)

    @pytest.mark.parametrize("seed", [0, 1, -5, 2**63 - 1, 10**30, -(2**63 - 1)])
    def test_reproduces_random_shuffle(self, seed):
        # the reference is computed at run time, so a change to
        # Random.shuffle in a future CPython fails here instead of
        # silently changing graphs; 6n = 4092, 4098, 8190, ... sit just
        # below or above a power of two, where the draw width changes
        for n in [*range(1, 201), 682, 683, 1365, 2731, 5461, 10923]:
            assert tuple(sample(n, seed).matching) == shuffled_matching(n, seed), n

    def test_negative_seed_aliases_its_absolute_value(self):
        # random.Random seeds from |seed|, and the seed contract keeps that
        assert sample(50, -5) == sample(50, 5)

    @pytest.mark.parametrize("seed", [1, 2**63 - 1])
    @pytest.mark.parametrize(
        "n", [ribbon._ARRAY_SHUFFLE_MIN_N - 1, ribbon._ARRAY_SHUFFLE_MIN_N], ids=["list", "array"]
    )
    def test_reproduces_random_shuffle_on_both_buffers(self, n, seed):
        # the last n shuffled in a list and the first shuffled in an array
        assert tuple(sample(n, seed).matching) == shuffled_matching(n, seed)


class TestFaces:
    def test_sphere_orientation(self):
        fd = faces(from_matching(1, THETA_SPHERE))
        assert fd.lht == 3
        assert fd.genus == 0
        assert sorted(fd.degrees) == [2, 2, 2]
        assert fd.connected

    def test_torus_orientation(self):
        fd = faces(from_matching(1, THETA_TORUS))
        assert fd.lht == 1
        assert fd.genus == 1
        assert fd.degrees == (6,)
        assert fd.connected

    def test_degree_sum_and_partition_of_darts(self):
        for seed in range(20):
            g = sample(25, seed)
            fd = faces(g)
            assert fd.sum_degrees == 6 * g.n
            seen = sorted(d for cycle in fd.faces for d in cycle)
            assert seen == list(range(g.num_darts))

    def test_euler_identity_on_connected_samples(self):
        for seed in range(40):
            g = sample(12, seed)
            fd = faces(g)
            if fd.connected:
                assert fd.genus is not None
                assert 2 - 2 * fd.genus == 2 * g.n - 3 * g.n + fd.lht
                assert fd.genus >= 0
            else:
                assert fd.genus is None

    def test_kept_label_and_matching(self):
        for n in (1, 3, 25):
            for seed in range(10):
                g = sample(n, derive_seed(53, n, seed))
                fd = faces(g)
                assert fd.matching is g.matching
                assert len(fd.label) == g.num_darts
                for i, cycle in enumerate(fd.faces):
                    assert all(fd.label[d] - 1 == i for d in cycle)
                # one face step takes matching[d] to rotation(d)
                assert all(
                    fd.label[rotation(d)] == fd.label[g.matching[d]]
                    for d in range(g.num_darts)
                )

    def test_kept_fields_outside_equality_and_repr(self):
        fd = faces(sample(10, 1))
        bare = dataclasses.replace(fd, label=(), matching=())
        assert bare == fd
        assert hash(bare) == hash(fd)
        assert repr(bare) == repr(fd)
        assert "label" not in repr(fd) and "matching" not in repr(fd)

    def test_retained_memory_per_dart(self, retained_bytes):
        # the label list (8 bytes a dart) and the walk's array (4); per-face
        # tuples of the darts would add 8
        g = sample(10_000, derive_seed(67, "memory"))
        kept, fd = retained_bytes(faces, g)
        assert fd.sum_degrees == g.num_darts
        assert kept <= 13 * g.num_darts, kept / g.num_darts

    def test_peak_memory_per_dart(self, peak_bytes):
        # what is retained, plus the walk array's growth; a list of the face
        # being traced, next to its tuple, would add up to 9 bytes a dart
        g = sample(10_000, derive_seed(67, "memory"))
        peak, fd = peak_bytes(faces, g)
        assert fd.sum_degrees == g.num_darts
        assert peak <= 13 * g.num_darts, peak / g.num_darts

    def test_connectivity_peak_memory_per_dart(self, peak_bytes):
        # the union-find reads label through one iterator into a set of the
        # distinct vertex triples, at most lht**3 of them, which a sampled
        # graph keeps small; slices of label would add 16/3 bytes a dart
        g = sample(10_000, derive_seed(67, "memory"))
        fd = faces(g)
        peak, components = peak_bytes(ribbon._face_components, fd.label, fd.lht, ())
        assert components == 1 and fd.connected
        assert peak <= 2 * g.num_darts, peak / g.num_darts

    def test_components_from_face_starts_as_from_every_vertex(self):
        # the smallest darts' vertices settle most draws; the full scan of
        # the vertex triples must then give the same count either way
        counts = []
        for n in (3, 4, 5, 6, 8, 10, 20, 50, 100, 300, 1000, 2000):
            for seed in range(10):
                fd = faces(sample(n, derive_seed(73, n, seed)))
                firsts = [fd.walk[s] for s in fd.starts[:-1]]
                count = ribbon._face_components(fd.label, fd.lht, firsts)
                assert count == ribbon._face_components(fd.label, fd.lht, ()), (n, seed)
                assert (count == 1) is fd.connected
                counts.append(count)
        assert min(counts) == 1 and max(counts) > 1

    def test_cycles_anchored_at_minimal_dart(self):
        fd = faces(sample(10, 3))
        for cycle in fd.faces:
            assert cycle[0] == min(cycle)

    @pytest.mark.parametrize("n", [1, 2])
    def test_orbit_oracle_exhaustive(self, n):
        matchings = disconnected = 0
        for m in all_matchings(list(range(6 * n))):
            pairs = [tuple(sorted(p)) for p in m]
            fd = faces(from_matching(n, pairs))
            oracle = naive_face_orbits(n, pairs)
            assert sorted(fd.faces) == sorted(oracle)
            assert fd.connected == naive_connected(n, pairs)
            matchings += 1
            disconnected += not fd.connected
        # every n = 1 graph is connected; at n = 2, 675 of the 10,395
        # matchings are two disjoint theta graphs
        total, connected = pairing_counts(2 * n)
        assert (matchings, disconnected) == (total, total - connected)
        assert disconnected == {1: 0, 2: 675}[n]

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_disconnected_share_matches_exact_law(self, n):
        # 4,000 draws on their own seed stream, within 5 binomial standard
        # errors of 1 - C(2n)/M(2n); the tolerance was fixed before the test
        # was first run
        total, connected = pairing_counts(2 * n)
        p = 1 - connected / total
        draws = 4000
        disconnected = sum(
            not faces(sample(n, derive_seed(79, "disconnected", n, t))).connected
            for t in range(draws)
        )
        z = (disconnected / draws - p) / math.sqrt(p * (1 - p) / draws)
        assert abs(z) <= 5, (n, p, disconnected, z)

    def test_orbit_oracle_sampled(self):
        outcomes = set()
        for n in (3, 5):
            for seed in range(10):
                g = sample(n, seed)
                fd = faces(g)
                assert sorted(fd.faces) == sorted(naive_face_orbits(n, g.pairs()))
                assert fd.connected == naive_connected(n, g.pairs())
                outcomes.add(fd.connected)
        assert outcomes == {True, False}

    @pytest.mark.parametrize(
        "sizes", [(10, 40), (150, 25), (30, 300, 60)], ids=["sizes0", "sizes1", "sizes2"]
    )
    def test_connectivity_oracle_on_disjoint_unions(self, sizes):
        # each later graph's darts are shifted past the earlier ones, so the
        # union has one component per part at least and lht adds up
        union, parts, offset = [], [], 0
        for i, n in enumerate(sizes):
            pairs = sample(n, derive_seed(71, i, n)).pairs()
            fd = faces(from_matching(n, pairs))
            assert fd.connected == naive_connected(n, pairs)
            parts.append(fd)
            union += [(a + offset, b + offset) for a, b in pairs]
            offset += 6 * n
        fd = faces(from_matching(sum(sizes), union))
        assert fd.connected is naive_connected(sum(sizes), union) is False
        firsts = [fd.walk[s] for s in fd.starts[:-1]]
        count = ribbon._face_components(fd.label, fd.lht, firsts)
        assert count == ribbon._face_components(fd.label, fd.lht, ()) >= len(sizes)
        assert fd.genus is None
        assert fd.lht == sum(part.lht for part in parts)

    @pytest.mark.parametrize(
        "matching",
        [(0, 0, 3, 0, 0, 0), (2, 0, 3, 0, 0, 0)],
        ids=["matching0", "matching1"],
    )
    def test_broken_invariant_raises(self, matching):
        # not involutions, which the constructor trusts; the trace yields a
        # connected graph with odd n - lht, or with negative genus
        with pytest.raises(BrokenInvariant):
            faces(RibbonGraph(1, matching))

    @settings(derandomize=True, deadline=None, max_examples=500)
    @given(
        matching=st.integers(1, 4).flatmap(
            lambda n: st.lists(st.integers(0, 6 * n - 1), min_size=6 * n, max_size=6 * n)
        )
    )
    def test_any_tuple_labels_every_dart_once(self, matching):
        # the constructor trusts any tuple in [0, 6n); the trace either
        # refuses it or labels each dart once, so the degrees sum to 6n
        g = RibbonGraph(len(matching) // 6, tuple(matching))
        try:
            fd = faces(g)
        except BrokenInvariant:
            return
        assert sum(fd.degrees) == g.num_darts
        assert 0 not in fd.label

    def test_always_connected_at_n1(self):
        for m in all_matchings(list(range(6))):
            assert faces(from_matching(1, m)).connected

    def test_relabeling_invariance(self):
        rng = random.Random(2024)
        for seed in range(15):
            n = rng.choice([3, 5, 8])
            g = sample(n, seed)
            fd = faces(g)
            # rotation-preserving dart bijection: permute vertices, spin corners
            perm = list(range(2 * n))
            rng.shuffle(perm)
            spin = [rng.randrange(3) for _ in range(2 * n)]
            psi = [3 * perm[d // 3] + (d % 3 + spin[d // 3]) % 3 for d in range(6 * n)]
            conj = [0] * (6 * n)
            for d in range(6 * n):
                conj[psi[d]] = psi[g.matching[d]]
            fd2 = faces(from_matching(n, [(d, conj[d]) for d in range(6 * n) if d < conj[d]]))
            assert fd2.lht == fd.lht
            assert fd2.connected == fd.connected
            assert fd2.genus == fd.genus
            assert sorted(fd2.degrees) == sorted(fd.degrees)


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        seen = {derive_seed(0, n, t) for n in range(10) for t in range(10)}
        assert len(seen) == 100
