import random
from fractions import Fraction

import pytest

from dmajor import (
    DimensionCapExceeded,
    NegativeEntries,
    RVec,
    VPolytope,
    build_dmaj_hrep,
    classical_hrep,
    classical_majorizes,
    classical_max_corner,
    dmaj_by_onenorm,
    dmaj_vertices,
    enumerate_vertices,
    hausdorff,
    lipschitz_constant,
    nonexpansive_check,
)
from dmajor.halfspace import HalfspaceSystem, proper_masks
from dmajor.polytope import b_l1_distance, distance_to_polytope
from dmajor.polytope import LIPSCHITZ_CONSTANTS
from dmajor.lp import in_convex_hull

from helpers import (
    rand_convex_weights,
    rand_nonneg_rvec,
    rand_rvec,
    rand_trace_matched,
    rand_weights,
)


def interpolated_weights(lam: Fraction) -> RVec:
    return RVec((2 + lam, Fraction(2), 2 - lam))


class TestBuildHrep:
    def test_weighted_triple_bounds(self):
        hsys = build_dmaj_hrep(RVec.of(4, -2, 2), RVec.of(4, 2, 1))
        assert [str(v) for v in hsys.b_vector()] == ["5", "3", "2", "5", "6", "4", "4", "-4"]

    def test_signed_start_bounds(self):
        hsys = build_dmaj_hrep(RVec.of(1, 1, -1), RVec.of(1, 2, 3))
        assert hsys.b_vector() == [
            Fraction(1), Fraction(3, 2), Fraction(2),
            Fraction(2), Fraction(5, 3), Fraction(4, 3),
            Fraction(1), Fraction(-1),
        ]

    def test_unit_weights_recover_classical(self):
        rng = random.Random(2)
        for _ in range(20):
            y = rand_rvec(rng, 3)
            assert build_dmaj_hrep(y, RVec.ones(3)) == classical_hrep(y)


class TestVertices:
    def test_weighted_triple_vertex_set(self):
        poly = dmaj_vertices(RVec.of(4, -2, 2), RVec.of(4, 2, 1))
        expected = {
            (5, 0, -1), (5, -2, 1), (2, 3, -1), (0, 3, 1), (4, -2, 2), (0, 2, 2),
        }
        assert poly.vertex_set() == {tuple(map(Fraction, v)) for v in expected}

    def test_signed_start_vertex_set(self):
        poly = dmaj_vertices(RVec.of(1, 1, -1), RVec.of(1, 2, 3))
        expected = {
            RVec.of(1, 1, -1).entries,
            RVec.parse(["1", "-2/3", "2/3"]).entries,
            RVec.parse(["1/2", "3/2", "-1"]).entries,
            RVec.parse(["-1/3", "3/2", "-1/6"]).entries,
            RVec.parse(["-1/3", "-2/3", "2"]).entries,
        }
        assert poly.vertex_set() == expected

    def test_weight_equal_to_generator_gives_singleton(self):
        y = RVec.of(3, 2, 1)
        poly = dmaj_vertices(y, y)
        assert poly.vertex_set() == {y.entries}

    def test_generator_always_a_member(self):
        rng = random.Random(17)
        for _ in range(15):
            y, d = rand_rvec(rng, 3), rand_weights(rng, 3)
            hsys = build_dmaj_hrep(y, d)
            assert hsys.contains(y)
            assert len(dmaj_vertices(y, d).vertices) <= 6

    def test_every_corner_is_inside(self):
        rng = random.Random(18)
        from dmajor.halfspace import corners_with_labels

        for _ in range(15):
            y, d = rand_rvec(rng, 4), rand_weights(rng, 4)
            hsys = build_dmaj_hrep(y, d)
            for point, _ in corners_with_labels(hsys):
                assert hsys.contains(point)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_corner_sweep_equals_generic_enumeration(self, n):
        rng = random.Random(900 + n)
        for _ in range(6):
            y, d = rand_rvec(rng, n), rand_weights(rng, n)
            generic = enumerate_vertices(build_dmaj_hrep(y, d))
            assert dmaj_vertices(y, d).vertex_set() == generic.vertex_set()

    def test_generic_path_confirms_six_corners(self):
        y, d = RVec.of(4, -2, 2), RVec.of(4, 2, 1)
        poly = dmaj_vertices(y, d)
        assert poly.vertex_set() == enumerate_vertices(build_dmaj_hrep(y, d)).vertex_set()
        assert len(poly.vertices) == 6


class TestSweepFamily:
    LAMBDAS = [Fraction(0), Fraction(3, 10), Fraction(7, 10), Fraction(1)]

    @staticmethod
    def expected_b(lam: Fraction) -> list[Fraction]:
        return [
            Fraction(3),
            Fraction(6) / (2 + lam),
            (6 - 3 * lam) / (2 + lam),
            Fraction(5),
            5 - lam,
            5 - 2 * lam,
            Fraction(6),
            Fraction(-6),
        ]

    @staticmethod
    def expected_vertices(lam: Fraction) -> set[tuple[Fraction, ...]]:
        s = 2 + lam
        raw = [
            (Fraction(3), Fraction(2), Fraction(1)),
            (Fraction(3), 1 + lam, 2 - lam),
            ((4 + 5 * lam) / s, Fraction(6) / s, (2 + lam) / s),
            ((2 * lam**2 + 5 * lam + 2) / s, Fraction(6) / s, (-2 * lam**2 + lam + 4) / s),
            ((-(lam**2) + 6 * lam + 4) / s, (lam**2 + 3 * lam + 2) / s, (6 - 3 * lam) / s),
            ((2 * lam**2 + 5 * lam + 2) / s, (-2 * lam**2 + 4 * lam + 4) / s, (6 - 3 * lam) / s),
        ]
        return set(raw)

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_bounds_match_closed_forms(self, lam):
        hsys = build_dmaj_hrep(RVec.of(3, 2, 1), interpolated_weights(lam))
        assert hsys.b_vector() == self.expected_b(lam)

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_vertices_match_closed_forms(self, lam):
        poly = dmaj_vertices(RVec.of(3, 2, 1), interpolated_weights(lam))
        assert poly.vertex_set() == self.expected_vertices(lam)

    def test_endpoint_is_singleton(self):
        poly = dmaj_vertices(RVec.of(3, 2, 1), interpolated_weights(Fraction(1)))
        assert poly.vertex_set() == {(Fraction(3), Fraction(2), Fraction(1))}

    def test_start_is_classical_polytope(self):
        y = RVec.of(3, 2, 1)
        poly = dmaj_vertices(y, interpolated_weights(Fraction(0)))
        assert len(poly.vertices) == 6


class TestMaxCorner:
    def test_rejects_negative_entries(self):
        with pytest.raises(NegativeEntries):
            classical_max_corner(RVec.of(1, 1, -1), RVec.of(1, 2, 3))

    def test_unit_weights_return_generator_pattern(self):
        z = classical_max_corner(RVec.of(3, 2, 1), RVec.ones(3))
        assert z == RVec.of(3, 2, 1)

    def test_aligned_ratios_keep_generator(self):
        # d drawn along the interpolation; y/d stays nonincreasing, so the
        # maximal corner is y itself
        for lam in (Fraction(3, 10), Fraction(7, 10), Fraction(1)):
            z = classical_max_corner(RVec.of(3, 2, 1), interpolated_weights(lam))
            assert z == RVec.of(3, 2, 1)

    def test_dominates_polytope_samples(self):
        rng = random.Random(55)
        for _ in range(10):
            n = rng.randint(2, 4)
            y = rand_nonneg_rvec(rng, n)
            d = rand_weights(rng, n)
            z = classical_max_corner(y, d)
            poly = dmaj_vertices(y, d)
            assert z.entries in poly.vertex_set()
            verts = poly.vertices
            for _ in range(40):
                weights = rand_convex_weights(rng, len(verts))
                point = RVec.zeros(n)
                for w, v in zip(weights, verts):
                    point = point + v * w
                assert classical_majorizes(z, point).holds

    def test_ratio_vector_similarly_ordered_with_weights(self):
        rng = random.Random(56)
        for _ in range(25):
            n = rng.randint(2, 4)
            y = rand_nonneg_rvec(rng, n)
            d = rand_weights(rng, n)
            z = classical_max_corner(y, d)
            order = sorted(range(n), key=lambda i: (-d[i], i))
            ratios = [z[i] / d[i] for i in order]
            assert all(a >= b for a, b in zip(ratios, ratios[1:]))


class TestHausdorff:
    def test_identical_polytopes(self):
        poly = dmaj_vertices(RVec.of(4, -2, 2), RVec.of(4, 2, 1))
        result = hausdorff(poly, poly)
        assert result.distance == 0

    def test_singletons(self):
        a = VPolytope.from_points([RVec.of(1, 2, 3)])
        b = VPolytope.from_points([RVec.of(0, 1, 5)])
        assert hausdorff(a, b).distance == RVec.of(1, 1, -2).one_norm()

    def test_sweep_members_regression(self):
        y = RVec.of(3, 2, 1)
        p = dmaj_vertices(y, interpolated_weights(Fraction(3, 10)))
        q = dmaj_vertices(y, interpolated_weights(Fraction(7, 10)))
        result = hausdorff(p, q)
        assert result.distance == Fraction(8, 5)
        assert result.attaining_vertex == RVec.parse(["8/5", "251/115", "51/23"])
        assert result.side == "left"

    def test_point_distance_regression(self):
        q = dmaj_vertices(RVec.of(3, 2, 1), interpolated_weights(Fraction(7, 10)))
        point = RVec.parse(["8/5", "251/115", "51/23"])
        assert distance_to_polytope(point, q) == Fraction(8, 5)

    def test_distance_zero_iff_same_hull(self):
        rng = random.Random(61)
        y, d = rand_rvec(rng, 3), rand_weights(rng, 3)
        poly = dmaj_vertices(y, d)
        doubled = VPolytope.from_points(list(poly.vertices) + [poly.vertices[0]])
        assert hausdorff(poly, doubled).distance == 0

    @pytest.mark.parametrize("n", [3, 4])
    def test_distance_zero_iff_in_hull(self, n):
        rng = random.Random(65 + n)
        outcomes = set()
        for _ in range(3):
            y, d = rand_rvec(rng, n), rand_weights(rng, n)
            target = dmaj_vertices(y, d)
            hsys = target.origin
            other = build_dmaj_hrep(rand_trace_matched(rng, y), rand_weights(rng, n))
            points = []
            for sys in (hsys.translate(rand_rvec(rng, n, -1, 1)), hsys.intersect(other)):
                points.extend(enumerate_vertices(sys).vertices)
            for _ in range(4):
                a, b = rng.choice(points), rng.choice(target.vertices)
                w = rand_convex_weights(rng, 2)
                points.append(a * w[0] + b * w[1])
            for point in points:
                inside = in_convex_hull(point.entries, [v.entries for v in target.vertices])
                assert (distance_to_polytope(point, target) == 0) == inside
                outcomes.add(inside)
        assert outcomes == {True, False}


class TestLipschitz:
    def test_small_dimensions(self):
        assert lipschitz_constant(1) == 1
        assert lipschitz_constant(2) == 2
        assert lipschitz_constant(3) == 3
        for n in (1, 2, 3):
            assert LIPSCHITZ_CONSTANTS[n] == lipschitz_constant(n)

    def test_dimension_four_frozen_oracle_value(self):
        assert lipschitz_constant(4) == 5
        assert LIPSCHITZ_CONSTANTS[4] == lipschitz_constant(4)

    def test_cap_enforced(self):
        with pytest.raises(DimensionCapExceeded):
            lipschitz_constant(6)

    def test_bound_on_random_pairs(self):
        rng = random.Random(62)
        constant = lipschitz_constant(3)
        for _ in range(12):
            a = build_dmaj_hrep(rand_rvec(rng, 3), rand_weights(rng, 3))
            b = build_dmaj_hrep(rand_rvec(rng, 3), rand_weights(rng, 3))
            pa, pb = enumerate_vertices(a), enumerate_vertices(b)
            delta = hausdorff(pa, pb).distance
            assert delta <= constant * b_l1_distance(a, b)


class TestNonexpansive:
    def test_identical_inputs(self):
        d = RVec.of(4, 2, 1)
        p = VPolytope.from_points([RVec.of(1, 2, 1)])
        assert nonexpansive_check(d, p, p)

    def test_small_perturbation(self):
        d = RVec.of(4, 2, 1)
        y = RVec.of(1, 2, 1)
        eps = Fraction(1, 100)
        p = VPolytope.from_points([y])
        q = VPolytope.from_points([y + RVec.of(1, -1, 0) * eps])
        assert nonexpansive_check(d, p, q)

    def test_classical_segment_endpoints(self):
        d = RVec.ones(3)
        x = RVec.parse(["2/5", "1/5", "2/5"])
        y = RVec.parse(["1/4", "1/2", "1/4"])
        p = VPolytope.from_points([x])
        q = VPolytope.from_points([y])
        assert nonexpansive_check(d, p, q)
        # the underlying bound: distance of images <= |x - y|_1
        px = dmaj_vertices(x, d)
        py = dmaj_vertices(y, d)
        assert hausdorff(px, py).distance <= (x - y).one_norm()

    def test_random_singletons(self):
        rng = random.Random(63)
        for _ in range(10):
            n = rng.randint(2, 3)
            d = rand_weights(rng, n)
            p = VPolytope.from_points([rand_rvec(rng, n)])
            q = VPolytope.from_points([rand_rvec(rng, n)])
            assert nonexpansive_check(d, p, q)


class TestShapeProperties:
    def test_star_shaped_toward_rescaled_weights(self):
        rng = random.Random(64)
        for _ in range(10):
            n = rng.randint(2, 4)
            y, d = rand_rvec(rng, n), rand_weights(rng, n)
            hsys = build_dmaj_hrep(y, d)
            center = d * (y.total() / d.total())
            verts = dmaj_vertices(y, d).vertices
            for _ in range(10):
                weights = rand_convex_weights(rng, len(verts))
                point = RVec.zeros(n)
                for w, v in zip(weights, verts):
                    point = point + v * w
                mu = Fraction(rng.randint(0, 6), 6)
                between = point * mu + center * (1 - mu)
                assert hsys.contains(between)

    def test_union_midpoint_escapes_both_polytopes(self):
        x = RVec.parse(["2/5", "1/5", "2/5"])
        y = RVec.parse(["1/4", "1/2", "1/4"])
        other = RVec.parse(["1/4", "1/4", "1/2"])
        midpoint = (x + other) * Fraction(1, 2)
        assert midpoint == RVec.parse(["13/40", "9/40", "18/40"])
        assert not classical_hrep(x).contains(midpoint)
        assert not classical_hrep(y).contains(midpoint)

    def test_closure_equivalence_subset_vs_decider(self):
        rng = random.Random(65)
        for _ in range(40):
            n = rng.randint(2, 3)
            y, d = rand_rvec(rng, n), rand_weights(rng, n)
            x = rand_trace_matched(rng, y) if rng.random() < 0.7 else rand_rvec(rng, n)
            lhs = build_dmaj_hrep(x, d).is_subset_of(build_dmaj_hrep(y, d))
            assert lhs == dmaj_by_onenorm(x, y, d)

    def test_vertex_count_bounded_by_factorial(self):
        rng = random.Random(66)
        for n in (2, 3, 4):
            y, d = rand_rvec(rng, n), rand_weights(rng, n)
            count = len(dmaj_vertices(y, d).vertices)
            import math

            assert count <= math.factorial(n)
