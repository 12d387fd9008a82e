from __future__ import annotations

import math
from fractions import Fraction

import pytest

from belyi.cheeger import in_f_star
from belyi.cusps import develop_strip, exact_l, has_large_cusps, partition_cusps
from belyi.farey import (
    FareyTriangle,
    classify_segments,
    count_intersecting,
    develop_horoball,
    enumerate_level,
    m_bound,
    n_bound,
)
from belyi.ribbon import derive_seed, faces, from_matching, rotation, sample

F = Fraction

THETA_TORUS = [(0, 3), (1, 4), (2, 5)]
THETA_SPHERE = [(0, 3), (1, 5), (2, 4)]


def intersects_strip(t: FareyTriangle, l) -> bool:
    """Oracle for ``count_intersecting``: whether the triangle reaches into
    the open strip {y > 1/l}.

    Reduces to the apex height of the outer semicircle; exact when l is
    rational (ints and floats are converted exactly).
    """
    return (t.right - t.left) * exact_l(l) > 2


class TestEnumerateLevel:
    def test_level_one(self):
        assert enumerate_level(1) == [FareyTriangle(F(0), F(1, 2), F(1))]

    def test_level_two(self):
        assert enumerate_level(2) == [
            FareyTriangle(F(0), F(1, 3), F(1, 2)),
            FareyTriangle(F(1, 2), F(2, 3), F(1)),
        ]

    def test_sizes_and_cumulative_count(self):
        total = 0
        for m in range(1, 13):
            level = enumerate_level(m)
            assert len(level) == 2 ** (m - 1)
            total += len(level)
        assert total == 2**12 - 1

    def test_gap_bound_exhaustive(self):
        # each level-(m+1) triangle spans one gap of row m
        for m in range(1, 13):
            assert max(t.right - t.left for t in enumerate_level(m + 1)) <= F(1, m + 1)

    def test_gap_tight_at_two(self):
        assert max(t.right - t.left for t in enumerate_level(3)) == F(1, 3)

    def test_new_denominators_grow(self):
        seen = {F(0), F(1)}
        for m in range(1, 13):
            for t in enumerate_level(m):
                assert t.apex not in seen
                seen.add(t.apex)
                assert t.apex.denominator >= m + 1

    def test_fractions_in_lowest_terms_and_interior(self):
        for m in range(1, 10):
            for t in enumerate_level(m):
                assert math.gcd(t.apex.numerator, t.apex.denominator) == 1
                assert F(0) < t.apex < F(1)

    def test_level_cap(self):
        with pytest.raises(ValueError, match=r"^m=17 exceeds cap 16$"):
            enumerate_level(17)

    def test_invalid_level(self):
        with pytest.raises(ValueError, match=r"^m must be >= 1, got 0$"):
            enumerate_level(0)


class TestIntersectsStrip:
    def test_examples(self):
        top = FareyTriangle(F(0), F(1, 2), F(1))
        assert intersects_strip(top, 4) is True  # apex height 1/2 > 1/4
        assert intersects_strip(top, 1.5) is False  # 1/2 < 2/3
        assert intersects_strip(top, 10**9) is True

    def test_boundary_is_strict(self):
        top = FareyTriangle(F(0), F(1, 2), F(1))
        assert intersects_strip(top, 2) is False  # apex height exactly 1/2


class TestCounts:
    def test_n_bound_values(self):
        assert n_bound(4) == 7
        assert n_bound(10) == 63
        assert n_bound(1) == 1
        assert n_bound(2.5) == 3

    def test_m_bound_values(self):
        assert m_bound(4) == 84
        assert m_bound(2) == 18
        assert m_bound(2.5) == math.ceil(3 * 2.5 * 3)

    def test_m_bound_monotone_over_integers(self):
        vals = [m_bound(l) for l in range(1, 41)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_count_against_enumeration_oracle(self):
        for l in (1, 2, 3, 4, 5, 6, 8):
            depth = math.floor(l / 2) + 1
            oracle = sum(
                1
                for m in range(1, depth + 1)
                for t in enumerate_level(m)
                if intersects_strip(t, l)
            )
            assert count_intersecting(l) == oracle

    def test_count_matches_coprime_pairs(self):
        # each coprime pair (b, d) is the denominator pair of exactly one
        # Stern-Brocot gap in [0, 1], whose triangle has width 1/(bd)
        def closed_form(l):
            top = math.ceil(l)
            return sum(
                1
                for b in range(1, top)
                for d in range(1, top)
                if math.gcd(b, d) == 1 and 2 * b * d < l
            )

        for l in [*range(1, 63), F(5, 2), 7.25, F(21, 4)]:
            assert count_intersecting(l) == closed_form(l), l
        assert count_intersecting(38) == 47
        assert count_intersecting(62) == 89

    def test_count_at_most_bound_scan(self):
        for l in range(1, 31):
            assert count_intersecting(l) <= n_bound(l)

    def test_count_example_l4(self):
        assert count_intersecting(4) == 1  # only the level-1 triangle reaches y > 1/4

    def test_level_cap_for_enormous_l(self):
        with pytest.raises(ValueError, match=r"^needed level 49 exceeds cap 30$"):
            count_intersecting(100)

    def test_bounds_check_the_level_cap_first(self):
        # the same check as count_intersecting, before 2^(floor(l/2)+1) is built
        for fn in (count_intersecting, n_bound, m_bound):
            with pytest.raises(ValueError, match=r"^needed level 499999999999 exceeds cap 30$"):
                fn(1e12)
            with pytest.raises(ValueError, match=r"^needed level 31 exceeds cap 30$"):
                fn(63)
        assert n_bound(62) == 2**32 - 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            count_intersecting(0)
        with pytest.raises(ValueError):
            n_bound(0)
        with pytest.raises(ValueError):
            m_bound(-1)


class TestLengthCheck:
    def test_one_message_for_nonpositive_l(self):
        g = from_matching(1, THETA_TORUS)
        fd = faces(g)
        top = FareyTriangle(F(0), F(1, 2), F(1))
        i1 = frozenset({0})
        calls = [
            lambda l: has_large_cusps(fd, l),
            lambda l: intersects_strip(top, l),
            lambda l: count_intersecting(l),
            lambda l: develop_horoball(fd, 0, l),
            lambda l: classify_segments(g, fd, i1, l),
            n_bound,
            m_bound,
            lambda l: in_f_star(fd, l, 10, 100),
        ]
        for call in calls:
            for l, wording in [(0, "positive"), (-1.5, "positive"), (math.inf, "finite"),
                               (math.nan, "finite")]:
                with pytest.raises(ValueError, match=rf"^l must be {wording}, got {l}$"):
                    call(l)


class TestHoroballFootprint:
    def test_large_cusp_empty(self):
        g = from_matching(1, THETA_TORUS)
        fd = faces(g)
        assert fd.degrees == (6,)
        assert develop_horoball(fd, 0, 4) == []

    def test_torus_at_depth_six(self):
        g = from_matching(1, THETA_TORUS)
        fd = faces(g)
        # d = l = 6: horoball reaches exactly the canonical loop; top row only
        dev = develop_horoball(fd, 0, 6)
        assert dev == [c // 3 for c in fd.faces[0]]
        assert set(dev) == {0, 1}

    def test_sphere_top_row_only_at_l4(self):
        g = from_matching(1, THETA_SPHERE)
        fd = faces(g)
        for j in range(3):
            dev = develop_horoball(fd, j, 4)
            assert len(dev) == 2  # second row apex height 1/2 is not > 2/4
            assert set(dev) == {0, 1}

    def test_sphere_development_at_l6(self):
        g = from_matching(1, THETA_SPHERE)
        fd = faces(g)
        assert fd.degrees[0] == 2
        # top row over [0, 1] and [1, 2], then the row below it
        assert develop_horoball(fd, 0, 6) == [0, 1, 1, 0]
        below = develop_strip(fd, 0, lambda p, r: 2 * 2 * p[1] * r[1] < 6)
        by_vertices = {(p, r): a for a, p, r in below}
        # crossing below the top row lands on the other triangle each time
        assert {v: a // 3 for v, a in by_vertices.items()} == {
            ((0, 1), (1, 1)): 1,
            ((1, 1), (2, 1)): 0,
        }
        # each entry dart is the partner of the crossed top-row side
        for t, c in enumerate(fd.faces[0]):
            assert g.matching[rotation(c)] == by_vertices[(t, 1), (t + 1, 1)]

    def test_developed_vertices_stay_in_strip(self):
        g = sample(50, 4)
        fd = faces(g)
        for j, d in enumerate(fd.degrees):
            if d <= 6:
                enter = lambda p, r, d=d: 2 * d * p[1] * r[1] < 6
                for _, p, r in develop_strip(fd, j, enter):
                    left, apex, right = F(*p), F(p[0] + r[0], p[1] + r[1]), F(*r)
                    assert F(0) <= left < apex < right <= F(d)

    def test_footprint_size_bound_on_sample(self):
        # n = 50, seed 4 has degree-2 faces
        g = sample(50, 4)
        fd = faces(g)
        small = [j for j, d in enumerate(fd.degrees) if d == 2]
        assert small
        assert 2 * n_bound(4) == 14
        for j in small:
            fp = set(develop_horoball(fd, j, 4))
            assert len(fp) <= 14

    def test_footprint_size_bound_many_samples(self):
        for s in range(10):
            g = sample(30, derive_seed(11, s))
            fd = faces(g)
            for j, d in enumerate(fd.degrees):
                if d <= 5:
                    fp = set(develop_horoball(fd, j, 5))
                    assert len(fp) <= d * n_bound(5)

    def test_entry_edge_belongs_to_entered_triangle(self):
        for s in range(5):
            g = sample(40, derive_seed(17, s))
            fd = faces(g)
            for j, d in enumerate(fd.degrees):
                if d <= 8:
                    dev = develop_horoball(fd, j, 8)
                    enter = lambda p, r, d=d: 2 * d * p[1] * r[1] < 8
                    # below the top row, each entry is the entry dart's triangle
                    assert dev[d:] == [a // 3 for a, _, _ in develop_strip(fd, j, enter)]
                    assert all(0 <= t < g.num_vertices for t in dev)

    def test_predicted_size(self):
        # the top row, then below each of the d_j columns the Farey
        # triangles reaching into {y > d_j/l}
        cusps = 0
        for s in range(30):
            fd = faces(sample(60, derive_seed(5, s)))
            for l in (2, 3, F(5, 2), 4, 6, 8, 12, 20, 37.5):
                for j, d_j in enumerate(fd.degrees):
                    dev = develop_horoball(fd, j, l)
                    if d_j > l:
                        assert dev == []
                    else:
                        assert len(dev) == d_j * (1 + count_intersecting(F(l) / d_j))
                        cusps += 1
        assert cusps == 766

    @pytest.mark.parametrize("l", [6, 20, 37.5])
    def test_depth_below_l_over_2d(self, l):
        # every triangle under develop_horoball's predicate has 2 d_j depth < l
        lq = F(l)
        for s in range(3):
            fd = faces(sample(200, derive_seed(23, s)))
            for j, d_j in enumerate(fd.degrees):
                if d_j > lq:
                    continue
                enter = lambda p, r, d_j=d_j: 2 * d_j * p[1] * r[1] < lq
                # breadth first: a triangle is yielded before its children
                depth = {}
                for _, p, r in develop_strip(fd, j, enter):
                    k = depth.get((p, r), 1)
                    assert 2 * d_j * k < lq
                    m = (p[0] + r[0], p[1] + r[1])
                    depth[m, r] = depth[p, m] = k + 1


def develop_strips(g, fd, l):
    """Develop every cusp strip down to mediant denominator l.

    Uses the side convention of ``cusps.develop_strip``: a triangle entered
    through dart a over (p, r) has corners a at p, rotation(a) at r and
    rotation^2(a) at the mediant.  Returns the binding lifts (j, x, k):
    cusp k at x in cusp j's strip with a length-l horoball meeting
    {y >= d_j/l}; and the (j, entry dart, vertices) of every developed
    triangle.  Only lifts with q <= l can bind (d_j * d_k >= 1), and
    denominators grow down the development, so the depth is finite.
    """
    lq = F(l)
    face_of = {dart: i for i, cycle in enumerate(fd.faces) for dart in cycle}
    m = g.matching
    binding = set()
    entered = set()
    for j, cycle in enumerate(fd.faces):
        d_j = len(cycle)
        cusp_at = {}

        def place(x, dart):
            k = face_of[dart]
            # every lift is placed once from each triangle with a corner there
            assert cusp_at.setdefault(x % d_j, k) == k, f"corner clash at {x}"
            # Ford circle at x = p/q has diameter 1/q^2; the length-l
            # horoball of cusp k is that canonical one scaled by l/d_k
            if lq / (fd.degrees[k] * x.denominator**2) >= d_j / lq:
                binding.add((j, x % d_j, k))

        stack = []
        for t, corner in enumerate(cycle):
            place(F(t), rotation(rotation(corner)))
            place(F(t + 1), rotation(corner))
            stack.append((m[rotation(corner)], F(t), F(t + 1)))
        while stack:
            a, p, r = stack.pop()
            mid = F(p.numerator + r.numerator, p.denominator + r.denominator)
            entered.add((j, a, (p, mid, r)))
            place(p, a)
            place(r, rotation(a))
            place(mid, rotation(rotation(a)))
            if mid.denominator + 1 <= lq:
                stack.append((m[rotation(a)], mid, r))
                stack.append((m[rotation(rotation(a))], p, mid))
    return binding, entered


class TestLargeCuspsAgainstDevelopment:
    def test_matches_strip_development(self):
        deep_only = 0
        for i, l in enumerate((F(5, 2), 3, 4, 6)):
            for k in range(80):
                g = sample(1 + k % 8, derive_seed(29, "develop", i, k))
                fd = faces(g)
                binding, entered = develop_strips(g, fd, l)
                assert has_large_cusps(fd, l) is (not binding), f"l={l}, trial {k}"
                if binding and min(x.denominator for _, x, _ in binding) >= 2:
                    deep_only += 1
                # develop_strip under develop_horoball's predicate yields
                # entered triangles, and develop_horoball reads their darts
                developed = set()
                for j, d in enumerate(fd.degrees):
                    if d <= l:
                        enter = lambda p, r, d=d: 2 * d * p[1] * r[1] < l
                        below = list(develop_strip(fd, j, enter))
                        for a, p, r in below:
                            mid = F(p[0] + r[0], p[1] + r[1])
                            developed.add((j, a, (F(*p), mid, F(*r))))
                        assert develop_horoball(fd, j, l) == [
                            c // 3 for c in fd.faces[j]
                        ] + [a // 3 for a, _, _ in below]
                # ... and all of them: every triangle with apex height above d_j/l
                assert developed == {
                    (j, a, (p, mid, r))
                    for j, a, (p, mid, r) in entered
                    if (r - p) * l > 2 * fd.degrees[j]
                }
        # some surfaces fail only through lifts with q >= 2
        assert deep_only > 0


def s2_by_definition(g, fd, i1, l):
    """The darts of large cusps whose triangle lies in a small cusp's footprint."""
    hot = set()
    for j, degree in enumerate(fd.degrees):
        if degree <= l:
            hot |= set(develop_horoball(fd, j, l))
    return {d for i in i1 for d in fd.faces[i] if d // 3 in hot}


class TestClassifySegments:
    def test_all_s1_when_no_small_cusps(self):
        g = from_matching(1, THETA_TORUS)
        fd = faces(g)
        i1 = frozenset({0})
        assert classify_segments(g, fd, i1, 1) == frozenset()
        # at l = 6 the only cusp is small, and its footprint covers both triangles
        assert classify_segments(g, fd, i1, 6) == frozenset(range(6))

    def test_partition_of_large_cusp_darts(self):
        nonempty = 0
        for n in (3, 10, 100):
            for s in range(10):
                g = sample(n, derive_seed(12, n, s))
                fd = faces(g)
                i1 = partition_cusps(fd, n)
                for l in (2, 4, 5):
                    s2 = classify_segments(g, fd, i1, l)
                    assert isinstance(s2, frozenset)
                    assert s2 == s2_by_definition(g, fd, i1, l)
                    nonempty += bool(s2)
        assert nonempty > 0

    def test_s2_bound(self):
        for s in range(20):
            g = sample(100, derive_seed(13, s))
            fd = faces(g)
            i1 = partition_cusps(fd, 100)
            if not i1:
                continue
            s2 = classify_segments(g, fd, i1, 4)
            assert len(s2) <= m_bound(4) * fd.lht

    def test_level_cap(self):
        # the footprints descend like count_intersecting and share its cap:
        # l = 62 needs subdivision level 30, the cap, and l = 63 needs 31
        g = sample(100, derive_seed(14, 0))
        fd = faces(g)
        i1 = partition_cusps(fd, 100)
        classify_segments(g, fd, i1, 62)
        for l, level in ((63, 31), (1e12, 499999999999)):
            message = rf"^needed level {level} exceeds cap 30$"
            with pytest.raises(ValueError, match=message):
                classify_segments(g, fd, i1, l)
            with pytest.raises(ValueError, match=message):
                develop_horoball(fd, 0, l)
