import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dmajor import DimensionMismatch, Permutation, RMatrix, RVec, all_permutations, parse_rational

from helpers import rationals, rvecs


class TestParseRational:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("4", Fraction(4)),
            ("-7", Fraction(-7)),
            ("2/3", Fraction(2, 3)),
            ("-5/10", Fraction(-1, 2)),
            ("0.3", Fraction(3, 10)),
            ("-1.25", Fraction(-5, 4)),
        ],
    )
    def test_exact_parse(self, text, expected):
        assert parse_rational(text) == expected

    def test_integer_and_fraction_passthrough(self):
        assert parse_rational(3) == Fraction(3)
        assert parse_rational(Fraction(1, 7)) == Fraction(1, 7)

    def test_boolean_rejected(self):
        with pytest.raises(TypeError):
            parse_rational(True)

    def test_division_by_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            parse_rational("1/0")

    def test_zero_denominator_is_value_error(self):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_rational("-3/0")

    def test_exponent_bounded(self):
        assert parse_rational("1e1000") == 10**1000
        assert parse_rational("-2.5E-1000") == Fraction(-25, 10**1001)
        for text in ("1e1001", "1e-1001", "1e1000000", "1E+1_001"):
            with pytest.raises(ValueError, match="exponent"):
                parse_rational(text)

    def test_decimal_size_bounded(self):
        from dmajor.exact import MAX_DECIMAL_DIGITS as limit

        assert limit < 4300
        ones = "1" * (limit - 1000)
        assert parse_rational(ones + "e1000") == int(ones) * 10**1000
        assert parse_rational(ones + ".5e-999") == Fraction(int(ones + "5"), 10**1000)
        too_long = ("1" * 4000 + "e1000", ones + "1e1000", "-0." + "1" * limit, "9" * (limit + 1))
        for text in too_long:
            with pytest.raises(ValueError, match="decimal literal"):
                parse_rational(text)

    def test_lowest_terms_and_positive_denominator(self):
        v = parse_rational("-4/8")
        assert (v.numerator, v.denominator) == (-1, 2)


class TestSortDescending:
    def test_basic(self):
        v, tau = RVec.of(1, 3, 2).sort_descending()
        assert v == RVec.of(3, 2, 1)
        assert tau.image == (1, 2, 0)

    def test_stable_ties(self):
        v, tau = RVec.of(1, 1, 1).sort_descending()
        assert v == RVec.of(1, 1, 1)
        assert tau.image == (0, 1, 2)

    def test_with_negatives(self):
        v, tau = RVec.of(4, -2, 2).sort_descending()
        assert v == RVec.of(4, 2, -2)
        assert tau.image == (0, 2, 1)

    @given(rvecs(5))
    def test_idempotent_on_sorted_output(self, v):
        sorted_once, _ = v.sort_descending()
        sorted_twice, tau = sorted_once.sort_descending()
        assert sorted_twice == sorted_once
        assert tau.image == tuple(range(5))

    @given(rvecs(4))
    def test_permutation_recovers_vector(self, v):
        s, tau = v.sort_descending()
        assert tau.apply(v) == s


class TestPartsAndNorm:
    def test_pos_part(self):
        assert RVec.of(4, -2, 2).pos_part() == RVec.of(4, 0, 2)
        assert RVec.of(0, 0).pos_part() == RVec.of(0, 0)

    def test_neg_part(self):
        assert RVec.of(1, 1, -1).neg_part() == RVec.of(0, 0, 1)

    def test_one_norm_examples(self):
        assert RVec.of(4, -2, 2).one_norm() == 8
        assert RVec.zeros(3).one_norm() == 0
        assert RVec.parse(["1/2", "-1/3"]).one_norm() == Fraction(5, 6)

    @given(rvecs(6))
    def test_norm_splits_into_parts(self, v):
        assert v.one_norm() == v.pos_part().total() + v.neg_part().total()

    @given(rvecs(6))
    def test_parts_reassemble(self, v):
        assert v.pos_part() - v.neg_part() == v


class TestExactness:
    @given(rationals, rationals)
    def test_sum_two_ways(self, a, b):
        cross = Fraction(
            a.numerator * b.denominator + b.numerator * a.denominator,
            a.denominator * b.denominator,
        )
        lcm = math.lcm(a.denominator, b.denominator)
        via_lcm = Fraction(
            a.numerator * (lcm // a.denominator) + b.numerator * (lcm // b.denominator),
            lcm,
        )
        assert a + b == cross == via_lcm


class TestPermutation:
    def test_identity_action(self):
        v = RVec.of(5, 6, 7)
        assert Permutation.identity(3).apply(v) == v

    def test_action_indexing(self):
        sigma = Permutation((2, 0, 1))
        v = RVec.of(10, 20, 30)
        # (sigma . x)_j = x[sigma(j)]
        assert sigma.apply(v) == RVec.of(30, 10, 20)

    def test_inverse(self):
        sigma = Permutation((2, 0, 1))
        assert sigma.compose(sigma.inverse()).image == (0, 1, 2)
        assert sigma.inverse().compose(sigma).image == (0, 1, 2)

    def test_matrix_action_matches_apply(self):
        sigma = Permutation((1, 2, 0))
        v = RVec.of(3, 5, 9)
        assert sigma.matrix().matvec(v) == sigma.apply(v)

    @given(st.permutations(range(4)), st.permutations(range(4)), rvecs(4))
    def test_composition_is_matrix_product_reversed(self, img_s, img_t, x):
        sigma, tau = Permutation(tuple(img_s)), Permutation(tuple(img_t))
        composed = sigma.compose(tau)
        via_matrices = tau.matrix().matmul(sigma.matrix())
        assert composed.matrix() == via_matrices
        assert composed.apply(x) == tau.apply(sigma.apply(x))

    def test_not_a_bijection_rejected(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 2))

    def test_all_permutations_count(self):
        assert len(list(all_permutations(4))) == 24


class TestRMatrix:
    def test_rank_identity(self):
        assert RMatrix.identity(3).rank() == 3

    def test_rank_all_ones(self):
        assert RMatrix.from_rows([[1, 1, 1]] * 3).rank() == 1

    def test_rank_prefix_chain_rows(self):
        m = RMatrix.from_rows(
            [[1, 0, 1, 0], [1, 0, 0, 1], [1, 0, 1, 1], [1, 1, 1, 1]]
        )
        assert m.rank() == 4

    def test_solve_and_inverse(self):
        m = RMatrix.from_rows([[2, 1], [1, 1]])
        sol = m.solve(RVec.of(3, 2))
        assert sol == RVec.of(1, 1)
        inv = m.inverse()
        assert inv.matmul(m) == RMatrix.identity(2)

    def test_singular_solve_returns_none(self):
        m = RMatrix.from_rows([[1, 2], [2, 4]])
        assert m.solve(RVec.of(1, 1)) is None
        assert m.inverse() is None

    def test_one_to_one_norm(self):
        m = RMatrix.from_rows([[1, 0], [-1, 1]])
        assert m.one_to_one_norm() == 2

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            RMatrix.identity(2).matvec(RVec.of(1, 2, 3))
