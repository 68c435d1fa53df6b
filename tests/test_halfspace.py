import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmajor import (
    DimensionCapExceeded,
    DimensionMismatch,
    EmptyIntersection,
    HalfspaceSystem,
    Permutation,
    RVec,
    build_dmaj_hrep,
    classical_hrep,
    enumerate_vertices,
)
from dmajor.halfspace import corners_with_labels, mask_indices, mask_of, proper_masks
from dmajor.lp import in_convex_hull

from helpers import rand_rvec, rand_weights, rvecs


@pytest.fixture(scope="module")
def weighted_triple():
    return build_dmaj_hrep(RVec.of(4, -2, 2), RVec.of(4, 2, 1))


@pytest.fixture(scope="module")
def four_dim_counterexample():
    values = {
        (1,): 0, (2,): 0, (3,): 0, (4,): 0,
        (1, 2): 0, (1, 3): Fraction(-1, 2), (1, 4): Fraction(-1, 4),
        (2, 3): 0, (2, 4): 0, (3, 4): 0,
        (1, 2, 3): Fraction(-1, 2), (1, 2, 4): Fraction(-1, 2),
        (1, 3, 4): Fraction(-5, 8), (2, 3, 4): 0,
    }
    table = {mask_of(tuple(i - 1 for i in k)): Fraction(v) for k, v in values.items()}
    return HalfspaceSystem.from_function(4, lambda m: table[m], Fraction(-1))


def zero_system(n: int) -> HalfspaceSystem:
    return HalfspaceSystem.from_function(n, lambda m: Fraction(0), Fraction(0))


class TestContains:
    def test_generator_is_member(self, weighted_triple):
        assert weighted_triple.contains(RVec.of(4, -2, 2))

    def test_interior_convex_combination_is_member(self, weighted_triple):
        # 4/9 (5,0,-1) + 2/9 (2,3,-1) + 1/3 (4,-2,2); all eight bounds hold
        point = RVec.of(4, 0, 0)
        assert weighted_triple.contains(point)
        verts = [v.entries for v in enumerate_vertices(weighted_triple).vertices]
        assert in_convex_hull(point.entries, verts)

    def test_zero_system_contains_only_origin(self):
        hsys = zero_system(3)
        assert hsys.contains(RVec.zeros(3))
        assert not hsys.contains(RVec.parse(["1/9", "-1/9", "0"]))

    def test_trace_mismatch_excluded(self, weighted_triple):
        assert not weighted_triple.contains(RVec.of(4, -2, 1))

    def test_dimension_mismatch(self, weighted_triple):
        with pytest.raises(DimensionMismatch):
            weighted_triple.contains(RVec.of(1, 2))


class TestSubset:
    def test_reflexive(self, weighted_triple):
        assert weighted_triple.is_subset_of(weighted_triple)

    def test_single_bound_relaxation(self, weighted_triple):
        bumped = list(weighted_triple.bvals)
        bumped[1] += 1
        relaxed = HalfspaceSystem(3, tuple(bumped))
        assert weighted_triple.is_subset_of(relaxed)
        assert not relaxed.is_subset_of(weighted_triple)

    def test_cycle_pair_systems_coincide(self):
        d = RVec.of(3, 2, 1)
        a = build_dmaj_hrep(RVec.of(1, 0, 0), d)
        b = build_dmaj_hrep(RVec.parse(["0", "2/3", "1/3"]), d)
        assert a.is_subset_of(b) and b.is_subset_of(a)
        assert a == b

    def test_mutual_subset_means_identical(self):
        rng = random.Random(7)
        for _ in range(20):
            a = build_dmaj_hrep(rand_rvec(rng, 3), rand_weights(rng, 3))
            bumped = list(a.bvals)
            mask = rng.randint(1, a.full_mask - 1)
            bumped[mask] += Fraction(rng.randint(0, 1))
            b = HalfspaceSystem(3, tuple(bumped))
            if a.is_subset_of(b) and b.is_subset_of(a):
                assert a == b


class TestCorner:
    def test_identity_corner_of_weighted_triple(self, weighted_triple):
        assert weighted_triple.corner(Permutation.identity(3)) == RVec.of(5, 0, -1)

    def test_corner_translation_covariance(self):
        rng = random.Random(99)
        for _ in range(15):
            hsys = build_dmaj_hrep(rand_rvec(rng, 3), rand_weights(rng, 3))
            p = rand_rvec(rng, 3)
            shifted = hsys.translate(p)
            for sigma in [Permutation((0, 1, 2)), Permutation((2, 0, 1))]:
                assert shifted.corner(sigma) == hsys.corner(sigma) + p

    def test_corner_prefix_sums_hit_bounds(self, weighted_triple):
        sigma = Permutation((2, 0, 1))
        corner = weighted_triple.corner(sigma)
        mask = 0
        for j in range(3):
            mask |= 1 << sigma(j)
            prefix = sum((corner[i] for i in mask_indices(mask)), Fraction(0))
            assert prefix == weighted_triple.b(mask)

    def test_bad_corners_of_four_dim_system(self, four_dim_counterexample):
        hsys = four_dim_counterexample
        first = hsys.corner(Permutation((0, 2, 3, 1)))
        second = hsys.corner(Permutation((0, 3, 2, 1)))
        assert first == RVec.parse(["0", "-3/8", "-1/2", "-1/8"])
        assert second == RVec.parse(["0", "-3/8", "-3/8", "-1/4"])
        assert not hsys.contains(first)
        assert not hsys.contains(second)


class TestTranslate:
    def test_zero_shift(self, weighted_triple):
        assert weighted_triple.translate(RVec.zeros(3)) == weighted_triple

    def test_roundtrip(self, weighted_triple):
        p = RVec.parse(["1/2", "-3", "5/6"])
        assert weighted_triple.translate(p).translate(-p) == weighted_triple

    def test_ball_system_translation_gives_min_argument(self):
        # shifting the trace-norm ball by (y_i/d_i) d reproduces the i-th
        # column entering the entrywise minimum of the weighted bounds
        y, d = RVec.of(4, -2, 2), RVec.of(4, 2, 1)
        n = 3
        columns = []
        for i in range(n):
            t = y[i] / d[i]
            z = y - d * t
            hat = RVec((z.pos_part().total(), -z.neg_part().total(), Fraction(0)))
            columns.append(classical_hrep(hat).translate(d * t))
        combined = columns[0].intersect(columns[1]).intersect(columns[2])
        assert combined == build_dmaj_hrep(y, d)
        for i, col in enumerate(columns):
            t = y[i] / d[i]
            offset = (y - d * t).pos_part().total()
            for m in proper_masks(n):
                weight = sum((d[k] for k in mask_indices(m)), Fraction(0))
                assert col.b(m) == offset + t * weight


class TestIntersect:
    def test_self_intersection(self, weighted_triple):
        assert weighted_triple.intersect(weighted_triple) == weighted_triple

    def test_intersection_is_subset(self, weighted_triple):
        other = weighted_triple.translate(RVec.zeros(3))
        capped = weighted_triple.intersect(other)
        assert capped.is_subset_of(weighted_triple)

    def test_trace_mismatch_raises(self, weighted_triple):
        other = weighted_triple.translate(RVec.of(1, 0, 0))
        with pytest.raises(EmptyIntersection):
            weighted_triple.intersect(other)


class TestEnumerateVertices:
    def test_weighted_triple_vertices(self, weighted_triple):
        expected = {
            RVec.of(5, 0, -1).entries,
            RVec.of(5, -2, 1).entries,
            RVec.of(2, 3, -1).entries,
            RVec.of(0, 3, 1).entries,
            RVec.of(4, -2, 2).entries,
            RVec.of(0, 2, 2).entries,
        }
        assert enumerate_vertices(weighted_triple).vertex_set() == expected

    def test_zero_system_single_vertex(self):
        poly = enumerate_vertices(zero_system(3))
        assert poly.vertex_set() == {RVec.zeros(3).entries}

    def test_four_dim_extra_vertex(self, four_dim_counterexample):
        poly = enumerate_vertices(four_dim_counterexample)
        extra = RVec.parse(["-1/8", "-3/8", "-3/8", "-1/8"])
        assert extra.entries in poly.vertex_set()
        corner_values = {v.entries for v, _ in corners_with_labels(four_dim_counterexample)}
        assert extra.entries not in corner_values

    def test_empty_system_flagged(self):
        # bounds force x_1 <= -1 while 0 <= x_1 via the complementary mask
        def bound(mask):
            return Fraction(-1) if mask == 0b001 else Fraction(1)

        hsys = HalfspaceSystem.from_function(2, bound, Fraction(1))
        # x1 <= -1, x2 <= 1, x1 + x2 = 1 gives x2 = 1 - x1 >= 2 > 1: empty
        poly = enumerate_vertices(hsys)
        assert poly.is_empty

    def test_vertices_are_minimal(self, weighted_triple):
        poly = enumerate_vertices(weighted_triple)
        verts = [v.entries for v in poly.vertices]
        for i, v in enumerate(verts):
            others = verts[:i] + verts[i + 1:]
            assert not in_convex_hull(v, others)

    def test_corner_sweep_matches_generic_for_weighted_systems(self):
        rng = random.Random(2024)
        for _ in range(10):
            hsys = build_dmaj_hrep(rand_rvec(rng, 3), rand_weights(rng, 3))
            generic = enumerate_vertices(hsys).vertex_set()
            corners = {v.entries for v, _ in corners_with_labels(hsys)}
            assert generic == corners


@settings(max_examples=25, deadline=None)
@given(rvecs(3))
def test_corner_sweep_complete_when_all_corners_inside(y):
    hsys = classical_hrep(y)
    corners = {v.entries for v, _ in corners_with_labels(hsys)}
    if all(hsys.contains(RVec(c)) for c in corners):
        assert enumerate_vertices(hsys).vertex_set() == corners


class TestDimensionCaps:
    def test_permutation_sweep_cap(self, monkeypatch):
        monkeypatch.delenv("DMAJOR_MAX_N", raising=False)
        big = classical_hrep(RVec.zeros(8))
        with pytest.raises(Exception, match="DMAJOR_MAX_N"):
            corners_with_labels(big)

    def test_generic_enumeration_cap(self, monkeypatch):
        monkeypatch.delenv("DMAJOR_MAX_N", raising=False)
        with pytest.raises(DimensionCapExceeded, match="DMAJOR_MAX_N"):
            enumerate_vertices(classical_hrep(RVec.zeros(6)))

    def test_env_var_raises_cap(self, monkeypatch):
        monkeypatch.setenv("DMAJOR_MAX_N", "8")
        big = classical_hrep(RVec.zeros(8))
        labelled = corners_with_labels(big)
        assert [v.entries for v, _ in labelled] == [RVec.zeros(8).entries]

    def test_env_var_cannot_lower_default(self, monkeypatch):
        monkeypatch.setenv("DMAJOR_MAX_N", "2")
        poly = enumerate_vertices(classical_hrep(RVec.of(3, 2, 1)))
        assert len(poly.vertices) == 6
