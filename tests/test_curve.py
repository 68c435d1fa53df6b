import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmajor import RVec, build_dmaj_hrep, curve_build, curve_leq, dmaj_by_onenorm
from dmajor.curve import ThermoCurve, curves_equal
from dmajor.exact import DimensionMismatch, NonPositiveWeight, Permutation
from dmajor.halfspace import mask_indices, proper_masks

from helpers import rand_rvec, rand_weights, rvecs, weight_vecs


@pytest.fixture(scope="module")
def signed_curve():
    return curve_build(RVec.of(4, -2, 2), RVec.of(4, 2, 1))


class TestBuild:
    def test_straight_line_when_y_equals_d(self):
        d = RVec.parse(["3/2", "2", "1/2"])
        curve = curve_build(d, d)
        assert curve.elbows[0] == (0, 0)
        assert curve.elbows[-1] == (d.total(), d.total())
        for (c0, f0), (c1, f1) in zip(curve.elbows, curve.elbows[1:]):
            assert (f1 - f0) == (c1 - c0)

    def test_signed_example_elbows(self, signed_curve):
        assert signed_curve.order.image == (2, 0, 1)
        assert signed_curve.elbows == (
            (0, 0),
            (1, 2),
            (5, 6),
            (7, 4),
        )

    def test_unit_weights_sorted_prefixes(self):
        curve = curve_build(RVec.of(3, 2, 1), RVec.ones(3))
        assert curve.elbows == ((0, 0), (1, 3), (2, 5), (3, 6))

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(NonPositiveWeight):
            curve_build(RVec.of(1, 1), RVec.of(1, 0))

    @given(rvecs(4), weight_vecs(4))
    def test_endpoints_and_concavity(self, y, d):
        curve = curve_build(y, d)
        assert curve.elbows[0] == (0, 0)
        assert curve.elbows[-1] == (d.total(), y.total())
        slopes = [
            (f1 - f0) / (c1 - c0)
            for (c0, f0), (c1, f1) in zip(curve.elbows, curve.elbows[1:])
        ]
        assert all(a >= b for a, b in zip(slopes, slopes[1:]))

    def test_tie_order_does_not_change_the_function(self):
        y = RVec.of(2, 4, 1)
        d = RVec.of(2, 4, 3)  # ratios 1, 1, 1/3 tie on the first two
        reference = curve_build(y, d)
        for image in permutations(range(3)):
            sigma = Permutation(image)
            ratios = [y[i] / d[i] for i in image]
            if any(a < b for a, b in zip(ratios, ratios[1:])):
                continue
            elbows = [(Fraction(0), Fraction(0))]
            c = f = Fraction(0)
            for i in image:
                c, f = c + d[i], f + y[i]
                elbows.append((c, f))
            candidate = ThermoCurve(d, y, sigma, tuple(elbows))
            assert curves_equal(reference, candidate)


class TestEval:
    def test_zero(self, signed_curve):
        assert signed_curve.eval(Fraction(0)) == 0

    def test_full_domain(self, signed_curve):
        assert signed_curve.eval(Fraction(7)) == 4

    def test_interior_value_matches_halfspace_bound(self, signed_curve):
        assert signed_curve.eval(Fraction(4)) == 5

    def test_out_of_range(self, signed_curve):
        with pytest.raises(ValueError):
            signed_curve.eval(Fraction(-1))
        with pytest.raises(ValueError):
            signed_curve.eval(Fraction(8))

    @given(rvecs(4), weight_vecs(4))
    @settings(max_examples=40)
    def test_equals_min_affine_form(self, y, d):
        curve = curve_build(y, d)
        ratios = [y[i] / d[i] for i in range(4)]
        offsets = [(y - d * t).pos_part().total() for t in ratios]
        total = d.total()
        for k in range(5):
            c = total * Fraction(k, 4)
            expected = min(o + t * c for o, t in zip(offsets, ratios))
            assert curve.eval(c) == expected

    @given(rvecs(4), weight_vecs(4), st.fractions(min_value=-40, max_value=40, max_denominator=12))
    @settings(max_examples=40)
    def test_potential_equals_positive_part_sum(self, y, d, drawn):
        curve = curve_build(y, d)
        ratios = sorted({y[i] / d[i] for i in range(4)})
        between = [(a + b) / 2 for a, b in zip(ratios, ratios[1:])]
        outside = [ratios[0] - 1, ratios[-1] + 1]
        for t in ratios + between + outside + [drawn]:
            assert curve.potential(t) == (y - d * t).pos_part().total()

    def test_mask_sums_reproduce_hrep_bounds(self):
        rng = random.Random(8321)
        for _ in range(20):
            y, d = rand_rvec(rng, 3), rand_weights(rng, 3)
            curve = curve_build(y, d)
            hsys = build_dmaj_hrep(y, d)
            for m in proper_masks(3):
                weight = sum((d[i] for i in mask_indices(m)), Fraction(0))
                assert hsys.b(m) == curve.eval(weight)


class TestCompare:
    def test_reflexive(self, signed_curve):
        assert curve_leq(signed_curve, signed_curve)

    def test_minimal_element_curve_below_everything(self):
        rng = random.Random(27)
        for _ in range(15):
            y, d = rand_rvec(rng, 3), rand_weights(rng, 3)
            lower = curve_build(d * (y.total() / d.total()), d)
            assert curve_leq(lower, curve_build(y, d))

    def test_oracle_agreement_with_onenorm_decider(self):
        y, d = RVec.of(4, -2, 2), RVec.of(4, 2, 1)
        x = RVec.of(4, 0, 0)
        assert dmaj_by_onenorm(x, y, d)
        assert curve_leq(curve_build(x, d), curve_build(y, d))

    def test_domain_mismatch(self, signed_curve):
        with pytest.raises(DimensionMismatch):
            curve_leq(signed_curve, curve_build(RVec.of(1, 1), RVec.of(1, 1)))

    def test_equivalence_with_deciders(self):
        rng = random.Random(5150)
        agree = 0
        for _ in range(60):
            y, d = rand_rvec(rng, 3), rand_weights(rng, 3)
            x = rand_rvec(rng, 3)
            if rng.random() < 0.5:
                x = x + RVec.parse(["0", "0", str(y.total() - x.total())])
            curves = (
                x.total() == y.total()
                and curve_leq(curve_build(x, d), curve_build(y, d))
            )
            assert curves == dmaj_by_onenorm(x, y, d)
            agree += 1
        assert agree == 60


class TestSuperadditivity:
    def test_prefix_exchange_inequality(self):
        rng = random.Random(606)
        for _ in range(40):
            n = rng.randint(2, 5)
            y, d = rand_rvec(rng, n), rand_weights(rng, n)
            curve = curve_build(y, d)
            tau = list(range(n))
            rng.shuffle(tau)
            k = rng.randint(1, n - 1)
            alphas = rng.sample(range(1, n + 1), k)
            prefix = [Fraction(0)]
            for i in range(n):
                prefix.append(prefix[-1] + d[tau[i]])
            lhs = sum(curve.eval(prefix[a - 1]) for a in alphas)
            lhs += curve.eval(sum((d[tau[a - 1]] for a in alphas), Fraction(0)))
            rhs = sum(curve.eval(prefix[a]) for a in alphas)
            assert lhs >= rhs


class TestCsvRows:
    def test_elbows_only(self, signed_curve):
        rows = signed_curve.csv_rows()
        assert rows == [(0, 0), (1, 2), (5, 6), (7, 4)]

    def test_refinement_includes_uniform_grid(self, signed_curve):
        rows = signed_curve.csv_rows(refine=7)
        abscissae = [c for c, _ in rows]
        for k in range(8):
            assert Fraction(7 * k, 7) in abscissae
        assert abscissae == sorted(abscissae)
        for c, f in rows:
            assert f == signed_curve.eval(c)
