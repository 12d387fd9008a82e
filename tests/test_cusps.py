from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from belyi.cheeger import cheeger_upper_bound
from belyi.cusps import (
    SMALL_TRIANGLE_AREA,
    degree_threshold,
    has_large_cusps,
    partition_cusps,
    surface_area,
)
from belyi.ribbon import RibbonGraph, derive_seed, faces, from_matching, sample


@st.composite
def relabelled_graphs(draw, min_n=1, max_n=6):
    """A graph on a pairing of 6n darts, and the same graph with its
    vertices permuted and each vertex's darts spun: a relabelling that
    keeps every vertex rotation."""
    n = draw(st.integers(min_n, max_n))
    darts = draw(st.permutations(range(6 * n)))
    vertices = draw(st.permutations(range(2 * n)))
    spin = draw(st.lists(st.integers(0, 2), min_size=2 * n, max_size=2 * n))
    pairs = list(zip(darts[0::2], darts[1::2]))

    def moved(d):
        v = d // 3
        return 3 * vertices[v] + (d % 3 + spin[v]) % 3

    return from_matching(n, pairs), from_matching(n, [(moved(a), moved(b)) for a, b in pairs])


THETA_TORUS = [(0, 3), (1, 4), (2, 5)]
THETA_SPHERE = [(0, 3), (1, 5), (2, 4)]
# a loop (degree-1 face) whose triangle has its other two corners on one
# degree-11 face
LOOP_BESIDE_LARGE = [(0, 10), (1, 7), (2, 8), (3, 9), (4, 5), (6, 11)]


class TestAreas:
    def test_surface_area(self):
        assert surface_area(1) == pytest.approx(2 * math.pi, abs=1e-15)
        assert surface_area(10) == pytest.approx(20 * math.pi, abs=1e-15)

    def test_small_triangle_value(self):
        assert SMALL_TRIANGLE_AREA == pytest.approx(0.14159265358979312, abs=1e-15)
        assert SMALL_TRIANGLE_AREA > 0

    def test_small_triangle_against_integration(self):
        # the central region of the ideal triangle with vertices 0, 1, oo,
        # below the horocycle y=1 and outside the two radius-1/2 horodisks
        # tangent at 0 and 1; integrate dx dy / y^2 column by column
        def column(x):
            y_low = 0.5 + math.sqrt(max(0.25 - x * x, 0.0))
            return 1.0 / y_low - 1.0
        value, err = quad(column, 0, 0.5, epsabs=1e-12)
        assert 2 * value == pytest.approx(SMALL_TRIANGLE_AREA, abs=1e-7)

    def test_decomposition_identity_on_samples(self):
        for n, seed in [(1, 0), (10, 1), (200, 2)]:
            fd = faces(sample(n, seed))
            total = 2 * n * SMALL_TRIANGLE_AREA + fd.sum_degrees
            assert total == pytest.approx(surface_area(n), abs=1e-9)


class TestPartition:
    def test_threshold_value(self):
        assert degree_threshold(10**4) == pytest.approx(117.88231063225868, abs=1e-9)

    def test_classification_at_n_1e4(self):
        # fabricate degree data around the threshold
        from belyi.ribbon import FaceDecomposition

        fd = FaceDecomposition(
            walk=(0,) * 250,  # only degrees matter here
            starts=(0, 200, 250),
            degrees=(200, 50),
            genus=None,
            label=(),
            matching=(),
        )
        i1 = partition_cusps(fd, 10**4)
        assert isinstance(i1, frozenset)
        assert i1 == {0}

    def test_single_face_always_large(self):
        for n in (3, 10, 50):
            fd = faces(sample(n, 0))
            i1 = partition_cusps(fd, n)
            threshold = degree_threshold(n)
            assert i1 <= set(range(fd.lht))
            for i, d in enumerate(fd.degrees):
                assert (i in i1) == (d > threshold)
            if fd.lht == 1:
                assert i1 == {0}  # 6n always exceeds n/(log n)^2

    def test_raising_degree_never_demotes(self):
        from belyi.ribbon import FaceDecomposition

        n = 100
        threshold = degree_threshold(n)
        low = int(threshold)
        for d in (low, low + 1, low + 10, 6 * n):
            fd = FaceDecomposition((0,) * d, (0, d), (d,), None, (), ())
            if d > threshold:
                assert partition_cusps(fd, n) == {0}
        # strictly above is required
        fd = FaceDecomposition((0,) * low, (0, low), (low,), None, (), ())
        assert 0 not in partition_cusps(fd, n)

    def test_n_too_small(self):
        fd = faces(sample(2, 1))
        with pytest.raises(ValueError, match=r"^n must be >= 3 so that log n > 1, got 2$"):
            partition_cusps(fd, 2)


class TestLargeCuspProxy:
    def test_examples(self):
        from belyi.ribbon import from_matching

        torus = faces(from_matching(1, [(0, 3), (1, 4), (2, 5)]))
        sphere = faces(from_matching(1, [(0, 3), (1, 5), (2, 4)]))
        # the proxy min face degree > l; the boundary case is strict
        assert torus.min_degree > 2
        assert not sphere.min_degree > 2
        assert sphere.min_degree > 1


class TestLargeCusps:
    def test_theta_sphere(self):
        fd = faces(from_matching(1, THETA_SPHERE))
        assert fd.degrees == (2, 2, 2)
        # each triangle has corners on all three faces: 2 * 2 > l^2 iff l < 2
        assert has_large_cusps(fd, 2) is False  # tangent horoballs meet
        assert has_large_cusps(fd, 1.9) is True

    def test_theta_torus(self):
        fd = faces(from_matching(1, THETA_TORUS))
        assert fd.degrees == (6,)
        # the single cusp meets its own integer lifts: 6 * 6 > l^2 iff l < 6
        assert has_large_cusps(fd, 5.99) is True
        assert has_large_cusps(fd, 6) is False

    def test_degree_one_face_beside_large_face(self):
        fd = faces(from_matching(2, LOOP_BESIDE_LARGE))
        assert sorted(fd.degrees) == [1, 11]
        assert not fd.min_degree > 2
        assert has_large_cusps(fd, 2) is True
        # the loop triangle pairs the two cusps at q = 1: 1 * 11 > l^2
        assert has_large_cusps(fd, 3.31) is True
        assert has_large_cusps(fd, 3.32) is False

    def test_proxy_implies_exact(self):
        exact_only = 0
        for l in (1, 1.5, 2, 3, 4, 6):
            for k in range(300):
                fd = faces(sample(8, derive_seed(43, "proxy", l, k)))
                exact = has_large_cusps(fd, l)
                if fd.min_degree > l:
                    assert exact, f"proxy holds but exact fails at l={l}, trial {k}"
                elif exact:
                    exact_only += 1
        assert exact_only > 0  # the proxy is strictly weaker on this sample

    def test_nonpositive_l(self):
        fd = faces(from_matching(1, THETA_TORUS))
        for l in (0, -1):
            with pytest.raises(ValueError):
                has_large_cusps(fd, l)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        darts=st.integers(1, 6).flatmap(lambda n: st.permutations(range(6 * n))),
        l=st.fractions(min_value=Fraction(1, 2), max_value=8, max_denominator=4),
    )
    def test_property_labels_and_proxy(self, darts, l):
        g = from_matching(len(darts) // 6, list(zip(darts[0::2], darts[1::2])))
        fd = faces(g)
        assert fd.matching is g.matching
        assert len(fd.label) == g.num_darts
        assert sorted(d for cycle in fd.faces for d in cycle) == list(range(g.num_darts))
        for i, cycle in enumerate(fd.faces):
            assert all(fd.label[d] == i + 1 for d in cycle)
        if fd.min_degree > l:
            assert has_large_cusps(fd, l)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(graphs=relabelled_graphs())
    def test_property_graph_identities(self, graphs):
        g, relabelled = graphs
        n = g.n
        assert RibbonGraph.from_json_dict(g.to_json_dict()) == g
        fd, fd2 = faces(g), faces(relabelled)
        assert sorted(fd2.degrees) == sorted(fd.degrees)
        assert (fd2.lht, fd2.genus, fd2.connected) == (fd.lht, fd.genus, fd.connected)
        assert fd.sum_degrees == 6 * n
        if fd.connected:
            assert 2 - 2 * fd.genus == fd.lht - n

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(graphs=relabelled_graphs(min_n=3))
    def test_property_division(self, graphs):
        g, _ = graphs
        fd = faces(g)
        # the division needs n >= 3 (log n > 1); up to n = 6 every
        # connected graph has a face above the threshold
        assume(fd.connected)
        division = cheeger_upper_bound(g, fd, g.n)
        mask = division.minority
        assert all(sum(mask[3 * v : 3 * v + 3]) <= 1 for v in range(g.num_vertices))
        assert division.area_a + division.area_b == pytest.approx(
            surface_area(g.n), abs=1e-9
        )
