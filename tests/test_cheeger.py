from __future__ import annotations

import dataclasses
import math
import re

import pytest

from belyi.cheeger import (
    EmptyI1,
    build_cusp_cut,
    cheeger_upper_bound,
    in_f_star,
    invariant_failures,
)
from belyi.cusps import degree_threshold, partition_cusps, surface_area
from belyi.ribbon import derive_seed, faces, from_matching, rotation, sample


def _largest_cusp_uncut(fd, cuts):
    largest = max((c.face_id for c in cuts), key=fd.degrees.__getitem__)
    return tuple(c for c in cuts if c.face_id != largest)


def _dart_is_a(fd, n):
    """Each dart's side, rebuilt from the face cycles: A exactly in the
    first floor(d/2) walk positions of a large cusp of degree d."""
    i1 = partition_cusps(fd, n)
    dart_is_a = {}
    for i, cycle in enumerate(fd.faces):
        k = fd.degrees[i] // 2 if i in i1 else 0
        for pos, dart in enumerate(cycle):
            dart_is_a[dart] = pos < k
    return dart_is_a


def _one_degree_raised(fd):
    return dataclasses.replace(fd, degrees=(fd.degrees[0] + 1,) + fd.degrees[1:])


def _second_minority_dart(minority):
    # also mark rotation(d) for the first minority dart d, in d's triangle
    mask = bytearray(minority)
    mask[rotation(minority.index(1))] = 1
    return bytes(mask)


def pipeline(n, seed):
    g = sample(n, seed)
    fd = faces(g)
    return g, fd, cheeger_upper_bound(g, fd, n)


class TestBuildCuspCut:
    def test_formula_example(self):
        cut = build_cusp_cut(0, 100, 1000)
        assert cut.y == 10**5
        assert cut.k == 50
        assert cut.eta_length == pytest.approx(23.026350929940456, rel=1e-14)

    def test_side_areas_conserve_exactly(self):
        for d, n in [(100, 1000), (37, 50), (6001, 2000)]:
            cut = build_cusp_cut(0, d, n)
            assert cut.side1_area + cut.side2_area == d

    def test_side_imbalance_small(self):
        for d in (100, 101):
            cut = build_cusp_cut(0, d, 1000)
            assert abs(cut.side1_area - cut.side2_area) <= 1 + d / cut.y

    def test_eta_length_cap(self):
        for d, n in [(100, 1000), (321, 47)]:
            cut = build_cusp_cut(0, d, n)
            assert cut.eta_length <= 2 * math.log(n * d) + 1

    def test_small_cusp_rejected(self):
        message = f"cusp 0 has degree 2 <= threshold {degree_threshold(1000)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_cusp_cut(0, 2, 1000)

    def test_bad_parameters(self):
        with pytest.raises(ValueError, match=r"^n must be >= 3 so that log n > 1, got 2$"):
            build_cusp_cut(0, 100, 2)


class TestAssignLabels:
    def test_missing_cut(self):
        # every large cusp gets exactly one cut, in sorted order, and each is
        # the cut build_cusp_cut gives for that cusp alone
        for n in (10, 30, 200):
            for seed in range(5):
                g = sample(n, derive_seed(53, n, seed))
                fd = faces(g)
                if not fd.connected:
                    continue
                division = cheeger_upper_bound(g, fd, n)
                large = sorted(partition_cusps(fd, n))
                assert [c.face_id for c in division.cuts] == large
                assert division.cuts == tuple(build_cusp_cut(i, fd.degrees[i], n) for i in large)

    def test_extra_cut_rejected(self):
        # no small cusp is cut, and a cut asked for one is refused
        checked = 0
        for seed in range(20):
            g = sample(30, derive_seed(59, seed))
            fd = faces(g)
            if not fd.connected:
                continue
            division = cheeger_upper_bound(g, fd, 30)
            small = set(range(fd.lht)) - partition_cusps(fd, 30)
            assert not small & {c.face_id for c in division.cuts}
            for j in small:
                message = f"cusp {j} has degree {fd.degrees[j]} <= threshold {degree_threshold(30)}"
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    build_cusp_cut(j, fd.degrees[j], 30)
                checked += 1
        assert checked > 0

    def test_majority_rule_against_recount(self):
        # independently rebuild the dart labels and re-derive the boundary
        # and, from the count of A triangles, both areas
        for seed in range(10):
            g, fd, division = pipeline(30, derive_seed(31, seed))
            dart_is_a = _dart_is_a(fd, 30)
            expected_boundary = set()
            num_a = 0
            for v in range(g.num_vertices):
                trio = [3 * v, 3 * v + 1, 3 * v + 2]
                votes = sum(dart_is_a[d] for d in trio)
                majority_a = votes >= 2
                num_a += majority_a
                minority = [d for d in trio if dart_is_a[d] != majority_a]
                assert len(minority) <= 1
                expected_boundary.update(minority)
            assert division.boundary_segments == expected_boundary
            small_mass = sum(d for i, d in enumerate(fd.degrees) if i not in division.i1)
            assert division.area_a == pytest.approx(
                math.fsum(c.side1_area for c in division.cuts) + (math.pi - 3) * num_a, abs=1e-9
            )
            assert division.area_b == pytest.approx(
                math.fsum(c.side2_area for c in division.cuts)
                + small_mass
                + (math.pi - 3) * (g.num_vertices - num_a),
                abs=1e-9,
            )

    def test_unanimous_triangle_contributes_nothing(self):
        for seed in range(5):
            g, fd, division = pipeline(30, derive_seed(77, seed))
            dart_is_a = _dart_is_a(fd, 30)
            boundary_triangles = {d // 3 for d in division.boundary_segments}
            for v in range(g.num_vertices):
                if v not in boundary_triangles:
                    # all three darts carry the same label
                    assert len({dart_is_a[d] for d in (3 * v, 3 * v + 1, 3 * v + 2)}) == 1
            assert len(division.boundary_segments) <= 2 * g.n

    def test_minority_mask(self):
        # one byte a dart, 1 exactly at the boundary darts, out of repr
        g, _, division = pipeline(300, 12)
        assert len(division.minority) == g.num_darts
        assert set(division.minority) == {0, 1}
        ones = {d for d, bit in enumerate(division.minority) if bit}
        assert division.boundary_segments == ones
        assert "minority" not in repr(division)

    def test_retained_memory_per_dart(self, retained_bytes):
        # the 6n-byte mask plus the cut records and the set of large cusps;
        # a label string would add 1/3 byte a dart, and a set of minority
        # darts about 17
        g = sample(10_000, derive_seed(67, "memory"))
        fd = faces(g)
        kept, division = retained_bytes(cheeger_upper_bound, g, fd, g.n)
        assert kept <= 1.2 * g.num_darts, kept / g.num_darts
        assert division.minority.count(1) > 0


class TestCheegerUpperBound:
    def test_area_conservation(self):
        for n, seed in [(10, 4), (100, 5), (1000, 6)]:
            _, _, division = pipeline(n, seed)
            assert division.area_a + division.area_b == pytest.approx(
                surface_area(n), abs=1e-9
            )

    def test_quotient_definition_exact(self):
        _, _, division = pipeline(200, 9)
        assert division.h_upper * min(division.area_a, division.area_b) == pytest.approx(
            division.boundary_length, rel=1e-12
        )

    def test_boundary_length_decomposition(self):
        _, _, division = pipeline(150, 10)
        eta_total = math.fsum(c.eta_length for c in division.cuts)
        assert division.boundary_length == pytest.approx(
            len(division.boundary_segments) + eta_total, rel=1e-12
        )
        assert division.boundary_length <= 2 * 150 + eta_total

    def test_balance_allowance(self):
        # area_b - area_a = sum_cuts (side2 - side1) + (degree mass outside i1)
        # + (pi - 3)(#B - #A), so the triangle inequality bounds the imbalance;
        # at n = 3 an odd degree makes a cut's sides differ by more than 1
        checked = 0
        for n, seeds in ((3, 100), (4, 100), (60, 10)):
            for seed in range(seeds):
                g = sample(n, derive_seed(41, n, seed))
                fd = faces(g)
                if not fd.connected:
                    continue
                try:
                    division = cheeger_upper_bound(g, fd, n)
                except EmptyI1:
                    continue
                allowance = (
                    2 * n * (math.pi - 3)
                    + math.fsum(abs(c.side2_area - c.side1_area) for c in division.cuts)
                    + (fd.sum_degrees - sum(fd.degrees[i] for i in division.i1))
                )
                assert abs(division.area_a - division.area_b) <= allowance + 1e-9
                checked += 1
        assert checked > 150

    def test_disconnected_rejected(self):
        g = sample(3, 0)
        fd = faces(g)
        assert not fd.connected
        with pytest.raises(ValueError, match=r"^the graph is disconnected$"):
            cheeger_upper_bound(g, fd, 3)

    def test_n_mismatch_rejected(self):
        g = sample(5, 3)
        fd = faces(g)
        with pytest.raises(ValueError):
            cheeger_upper_bound(g, fd, 6)

    def test_h_upper_reasonable_at_moderate_n(self):
        _, _, division = pipeline(2000, 12)
        assert 0 < division.h_upper < 1


class TestInFStar:
    def test_lht_condition(self):
        fd = faces(from_matching(1, [(0, 3), (1, 4), (2, 5)]))
        # single face of degree 6: proxy holds at l=2, lht=1 <= c log n
        assert in_f_star(fd, 2, 1, 100) is True

    def test_proxy_failure(self):
        fd = faces(from_matching(1, [(0, 3), (1, 5), (2, 4)]))
        assert in_f_star(fd, 4, 10, 100) is False

    def test_lht_cap_binds(self):
        fd = faces(from_matching(1, [(0, 3), (1, 4), (2, 5)]))
        assert in_f_star(fd, 2, 0.01, 100) is False  # 1 > 0.01 * log(100)

    def test_exact_where_proxy_fails(self):
        # a degree-1 face beside a degree-11 face: min degree 1 <= 2, but
        # the length-2 horoballs are embedded and disjoint (1 * 11 > 4)
        fd = faces(from_matching(2, [(0, 10), (1, 7), (2, 8), (3, 9), (4, 5), (6, 11)]))
        assert fd.min_degree == 1
        assert in_f_star(fd, 2, 10, 100) is True
        assert in_f_star(fd, 3.32, 10, 100) is False

    def test_nonpositive_l(self):
        # l is checked even where the lht cap alone would answer False
        fd = faces(from_matching(1, [(0, 3), (1, 4), (2, 5)]))
        for c in (10, 0.01):
            with pytest.raises(ValueError, match=r"^l must be positive, got 0$"):
                in_f_star(fd, 0, c, 100)

    def test_c_not_positive(self):
        fd = faces(from_matching(1, [(0, 3), (1, 4), (2, 5)]))
        for c in (0, -1.0, math.nan, -math.inf):
            with pytest.raises(ValueError, match=rf"^c must be positive, got {c}$"):
                in_f_star(fd, 2, c, 100)

    def test_c_infinite(self):
        # c * log n would be inf, so every face count would pass the cap
        fd = faces(sample(100, 1))
        with pytest.raises(ValueError, match=r"^c must be finite, got inf$"):
            in_f_star(fd, 2, math.inf, 100)


class TestDegreeMassBound:
    """The paper's sum_{i1} d_i >= (6 - c/log n) n, wherever lht <= c log n."""

    def test_single_face(self):
        # c just above lht / log n, the smallest c the inequality covers
        for n, seed in [(10, 2), (50, 7)]:
            g, fd, division = pipeline(n, seed)
            assert invariant_failures(g, fd, division) == []
            c = fd.lht / math.log(n) + 1e-9
            mass = sum(fd.degrees[i] for i in division.i1)
            assert mass >= (6.0 - c / math.log(n)) * n

    def test_monte_carlo(self):
        n, c = 200, 10.0
        for seed in range(50):
            g, fd, division = pipeline(n, derive_seed(61, seed))
            assert invariant_failures(g, fd, division) == []
            if fd.lht > c * math.log(n):
                continue
            mass = sum(fd.degrees[i] for i in division.i1)
            assert mass >= (6.0 - c / math.log(n)) * n


def honeycomb_torus(m):
    """The m x m honeycomb torus: n = m^2 and every face has degree 6."""
    n = m * m

    def vert(x, y, side):
        return 2 * ((x % m) * m + (y % m)) + side

    pairs = []
    for x in range(m):
        for y in range(m):
            a = vert(x, y, 0)
            for slot, b in enumerate(
                [vert(x, y, 1), vert(x - 1, y, 1), vert(x, y - 1, 1)]
            ):
                pairs.append((3 * a + slot, 3 * b + slot))
    return from_matching(n, pairs)


class TestEmptyI1:
    def test_error_carries_no_fake_cut(self, monkeypatch):
        # an empty large side must be reported before any cut is built
        def no_cut(*args, **kwargs):
            raise AssertionError("a cut was built for a surface without large cusps")

        monkeypatch.setattr("belyi.cheeger.build_cusp_cut", no_cut)
        g = honeycomb_torus(14)
        with pytest.raises(EmptyI1):
            cheeger_upper_bound(g, faces(g), g.n)

    def test_all_hexagon_surface_has_no_large_cusp(self):
        # honeycomb torus: every face degree 6 < threshold once n >= 170
        g = honeycomb_torus(14)
        n = g.n
        fd = faces(g)
        assert fd.connected
        assert set(fd.degrees) == {6}
        assert fd.genus == 1
        with pytest.raises(EmptyI1):
            cheeger_upper_bound(g, fd, n)


class TestInvariantFailures:
    def test_sampled_surfaces_pass(self):
        connected = []
        for n in (3, 4, 5, 100):
            for seed in range(40 if n < 100 else 5):
                g = sample(n, derive_seed(53, n, seed))
                fd = faces(g)
                assert invariant_failures(g, fd, None) == []
                if fd.connected:
                    division = cheeger_upper_bound(g, fd, n)
                    assert invariant_failures(g, fd, division) == [], (n, seed)
                connected.append(fd.connected)
        assert 0 < sum(connected) < len(connected)

    def test_n3_area_imbalance_within_allowance(self):
        # a cut's sides differ by more than 1 here: d - 2k + 2k/y with d odd
        g = sample(3, 10657051665635517502)
        fd = faces(g)
        division = cheeger_upper_bound(g, fd, 3)
        assert abs(division.area_a - division.area_b) > 6.85
        assert invariant_failures(g, fd, division) == []

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda fd, d, n: {"area_a": d.area_a + 1}, "division areas do not conserve"),
            (
                lambda fd, d, n: {"minority": b"\x01" * len(d.minority)},
                "boundary length exceeds",
            ),
            (
                lambda fd, d, n: {"minority": _second_minority_dart(d.minority)},
                "more than one boundary dart",
            ),
            (
                lambda fd, d, n: {"cuts": _largest_cusp_uncut(fd, d.cuts)},
                "large-cusp degree mass below its floor",
            ),
            (
                lambda fd, d, n: {"area_a": 0.1, "area_b": 2 * math.pi * n - 0.1},
                "area imbalance beyond allowance",
            ),
            (lambda fd, d, n: {"fd": _one_degree_raised(fd)}, "degree sum"),
            (lambda fd, d, n: {"fd": _one_degree_raised(fd)}, "triangle + cusp area"),
        ],
        # each case keeps the name it has always run under
        ids=[
            "<lambda>-division areas do not conserve",
            "<lambda>-boundary length exceeds",
            "<lambda>-more than one boundary dart",
            "<lambda>-large-cusp degree mass below its floor",
            "<lambda>-area imbalance beyond allowance",
            "<lambda>-degree sum",
            "<lambda>-triangle + cusp area",
        ],
    )
    def test_corrupted_division_flagged(self, change, message):
        g, fd, division = pipeline(100, 5)
        assert invariant_failures(g, fd, division) == []
        changes = change(fd, division, 100)
        bad_fd = changes.pop("fd", fd)
        failures = invariant_failures(g, bad_fd, dataclasses.replace(division, **changes))
        assert any(message in m for m in failures), failures

    def test_wrong_genus_flagged(self):
        g, fd, division = pipeline(100, 5)
        bad = dataclasses.replace(fd, genus=fd.genus + 1)
        assert invariant_failures(g, bad, None) == [
            f"Euler identity fails: genus={fd.genus + 1}, lht={fd.lht}"
        ]
