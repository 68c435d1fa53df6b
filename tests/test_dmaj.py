import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from dmajor import (
    RVec,
    StochMatrix,
    build_dmaj_hrep,
    dmaj_by_curve,
    dmaj_by_onenorm,
    dmaj_by_positive_parts,
    classical_majorizes,
    find_witness,
    find_witness_lp,
    maximal_element,
    minimal_element,
    similarly_d_ordered,
)
from dmajor.exact import DimensionMismatch, NonPositiveWeight, Permutation, RMatrix

from helpers import (
    rand_majorized_point,
    rand_rvec,
    rand_trace_matched,
    rand_weights,
    rvecs,
    weight_vecs,
)

DECIDERS = (dmaj_by_positive_parts, dmaj_by_onenorm, dmaj_by_curve)


def assert_witness_valid(w: StochMatrix, x: RVec, y: RVec, d: RVec) -> None:
    rows = w.entries.rows
    n = w.n
    assert all(rows[i][j] >= 0 for i in range(n) for j in range(n))
    assert all(w.entries.col(j).total() == 1 for j in range(n))
    assert w.apply(d) == d
    assert w.apply(y) == x


class TestFixedInstances:
    def test_identity_pair(self):
        v = RVec.parse(["1/2", "-2", "7/3"])
        d = RVec.of(2, 1, 3)
        for decide in DECIDERS:
            assert decide(v, v, d)
        assert_witness_valid(find_witness(v, v, d), v, v, d)

    def test_rescaled_weights_are_minimal(self):
        rng = random.Random(12)
        for _ in range(10):
            d = rand_weights(rng, 4)
            y = rand_rvec(rng, 4)
            lowest = d * (y.total() / d.total())
            for decide in DECIDERS:
                assert decide(lowest, y, d)

    def test_cycle_pair_both_directions(self):
        d = RVec.of(3, 2, 1)
        x = RVec.of(1, 0, 0)
        y = RVec.parse(["0", "2/3", "1/3"])
        for decide in DECIDERS:
            assert decide(x, y, d)
            assert decide(y, x, d)
        assert x != y
        paper_witness = StochMatrix(
            RMatrix.from_rows([[0, 1, 1], ["2/3", 0, 0], ["1/3", 0, 0]])
        )
        assert_witness_valid(paper_witness, x, y, d)
        assert_witness_valid(find_witness(x, y, d), x, y, d)
        assert_witness_valid(find_witness(y, x, d), y, x, d)

    def test_signed_vertex_instance(self):
        assert dmaj_by_onenorm(
            RVec.parse(["-1/3", "-2/3", "2"]), RVec.of(1, 1, -1), RVec.of(1, 2, 3)
        )

    def test_weighted_triple_vertex_instance(self):
        assert dmaj_by_curve(RVec.of(0, 2, 2), RVec.of(4, -2, 2), RVec.of(4, 2, 1))

    def test_trace_mismatch_fails_everywhere(self):
        d = RVec.of(1, 1, 1)
        x, y = RVec.of(1, 0, 0), RVec.of(1, 1, 0)
        for decide in DECIDERS:
            assert not decide(x, y, d)
        assert find_witness(x, y, d) is None

    def test_concentrated_vector_never_reachable_from_positive(self):
        rng = random.Random(77)
        for _ in range(10):
            n = rng.randint(2, 4)
            y = RVec(tuple(abs(v) + Fraction(1, 6) for v in rand_rvec(rng, n)))
            d = rand_weights(rng, n)
            x = RVec.unit(n, 0) * y.total()
            for decide in DECIDERS:
                assert not decide(x, y, d)
            assert find_witness(x, y, d) is None

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(NonPositiveWeight):
            dmaj_by_onenorm(RVec.of(1, 0), RVec.of(0, 1), RVec.of(1, 0))

    def test_stoch_matrix_validation(self):
        with pytest.raises(ValueError, match="negative entry"):
            StochMatrix(RMatrix.from_rows([[2, 0], [-1, 1]]))
        with pytest.raises(ValueError, match="does not sum to 1"):
            StochMatrix(RMatrix.from_rows([["1/2", 0], [0, 1]]))
        with pytest.raises(ValueError, match="square"):
            StochMatrix(RMatrix.from_rows([[1, 0, 0], [0, 1, 1]]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            dmaj_by_curve(RVec.of(1, 0), RVec.of(0, 1), RVec.of(1, 1, 1))


class TestAgreement:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_deciders_and_witness_agree(self, n):
        rng = random.Random(1000 + n)
        seen_true = seen_false = 0
        for _ in range(60):
            y = rand_rvec(rng, n)
            d = rand_weights(rng, n)
            roll = rng.random()
            if roll < 0.45:
                x = rand_majorized_point(rng, y, d)
            elif roll < 0.9:
                x = rand_trace_matched(rng, y)
            else:
                x = rand_rvec(rng, n)
            votes = [decide(x, y, d) for decide in DECIDERS]
            witness = find_witness(x, y, d)
            assert votes[0] == votes[1] == votes[2] == (witness is not None)
            if witness is not None:
                assert_witness_valid(witness, x, y, d)
                seen_true += 1
            else:
                seen_false += 1
        assert seen_true > 5 and seen_false > 5

    @settings(max_examples=30, deadline=None)
    @given(rvecs(3), rvecs(3), weight_vecs(3))
    def test_deciders_match_on_arbitrary_triples(self, x, y, d):
        votes = {decide(x, y, d) for decide in DECIDERS}
        assert len(votes) == 1


def block_average(y: RVec, d: RVec, blocks: list[list[int]]) -> RVec:
    """x_i = d_i * (y over B) / (d over B) on each block B: y under a block witness."""
    x = [Fraction(0)] * len(y)
    for block in blocks:
        ys = sum((y[j] for j in block), Fraction(0))
        ds = sum((d[j] for j in block), Fraction(0))
        for i in block:
            x[i] = d[i] * ys / ds
    return RVec(tuple(x))


def random_blocks(rng: random.Random, n: int, largest: int) -> list[list[int]]:
    order = list(range(n))
    rng.shuffle(order)
    blocks = []
    while order:
        size = rng.randint(1, largest)
        blocks.append(order[:size])
        order = order[size:]
    return blocks


def epsilon_move(x: RVec, y: RVec, d: RVec) -> RVec:
    """Move mass from the lowest-ratio to the highest-ratio entry of x until
    x/d there exceeds max(y/d); the trace stays, and no witness can exist."""
    ratios = [x[i] / d[i] for i in range(len(x))]
    lo, hi = ratios.index(min(ratios)), ratios.index(max(ratios))
    top = max(y[j] / d[j] for j in range(len(y)))
    eps = (top - ratios[hi]) * d[hi] + Fraction(1, 7)
    entries = list(x.entries)
    entries[hi] += eps
    entries[lo] -= eps
    return RVec(tuple(entries))


class TestBalayageWitness:
    """The balayage ``find_witness`` against the simplex ``find_witness_lp``."""

    # y/d drawn from a few values, zero and negatives included, so that
    # tied source ratios are common.
    RATIO_POOL = [Fraction(k, 2) for k in range(-4, 5)]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_agrees_with_lp_oracle(self, n):
        rng = random.Random(7070 + n)
        outcomes = []
        tied = on_source = zero = 0
        for k in range(80):
            d = RVec((Fraction(1),) * n) if k % 3 == 0 else rand_weights(rng, n)
            y = RVec(tuple(rng.choice(self.RATIO_POOL) * d[j] for j in range(n)))
            kind = k % 6
            if kind == 0:
                x = y
            elif kind == 1:
                x = block_average(y, d, random_blocks(rng, n, 3))
            elif kind == 2:
                x = rand_majorized_point(rng, y, d)
            elif kind == 3:
                x = rand_trace_matched(rng, y)
            elif kind == 4:
                x = epsilon_move(block_average(y, d, random_blocks(rng, n, 3)), y, d)
            else:
                x = rand_rvec(rng, n)
            witness, oracle = find_witness(x, y, d), find_witness_lp(x, y, d)
            assert (witness is None) == (oracle is None), (x, y, d)
            outcomes.append(witness is not None)
            if witness is not None:
                assert_witness_valid(witness, x, y, d)
                assert_witness_valid(oracle, x, y, d)
                source = [y[j] / d[j] for j in range(n)]
                tied += len(set(source)) < n
                on_source += any(x[i] / d[i] in source for i in range(n))
                zero += 0 in x.entries or 0 in y.entries
        assert True in outcomes and False in outcomes
        assert on_source > 0 and zero > 0
        assert tied > 0 or n == 1

    def test_block_average_at_n64(self):
        rng = random.Random(64)
        n = 64
        y, d = rand_rvec(rng, n), rand_weights(rng, n)
        x = block_average(y, d, random_blocks(rng, n, 12))
        witness = find_witness(x, y, d)
        assert witness is not None
        assert_witness_valid(witness, x, y, d)
        assert find_witness(epsilon_move(x, y, d), y, d) is None


class TestPreorder:
    def test_transitive_on_sampled_chains(self):
        rng = random.Random(4242)
        for _ in range(25):
            n = rng.randint(2, 4)
            z = rand_rvec(rng, n)
            d = rand_weights(rng, n)
            y = rand_majorized_point(rng, z, d)
            x = rand_majorized_point(rng, y, d)
            assert dmaj_by_onenorm(y, z, d)
            assert dmaj_by_onenorm(x, y, d)
            assert dmaj_by_onenorm(x, z, d)

    def test_permutation_covariance(self):
        rng = random.Random(852)
        images = [(1, 0, 2), (2, 0, 1), (1, 2, 0)]
        for _ in range(20):
            y, d = rand_rvec(rng, 3), rand_weights(rng, 3)
            x = rand_majorized_point(rng, y, d) if rng.random() < 0.5 else rand_trace_matched(rng, y)
            sigma = Permutation(rng.choice(images))
            direct = dmaj_by_onenorm(x, y, d)
            permuted = dmaj_by_onenorm(sigma.apply(x), sigma.apply(y), sigma.apply(d))
            assert direct == permuted

    def test_positivity_propagation(self):
        rng = random.Random(8163)
        for _ in range(25):
            n = rng.randint(2, 4)
            y = RVec(tuple(abs(v) + Fraction(1, 6) for v in rand_rvec(rng, n)))
            d = rand_weights(rng, n)
            x = rand_majorized_point(rng, y, d)
            assert dmaj_by_positive_parts(x, y, d)
            assert x.is_positive()

    def test_witness_contracts_one_norm(self):
        rng = random.Random(171)
        for _ in range(15):
            n = rng.randint(2, 4)
            y, d = rand_rvec(rng, n), rand_weights(rng, n)
            x = rand_majorized_point(rng, y, d)
            witness = find_witness(x, y, d)
            assert witness is not None
            for _ in range(5):
                z = rand_rvec(rng, n)
                assert witness.apply(z).one_norm() <= z.one_norm()


class TestSimilarlyOrdered:
    def test_identity_on_equal_vectors(self):
        v = RVec.of(5, 3, 2)
        d = RVec.of(2, 2, 2)
        sigma = similarly_d_ordered(v, v, d)
        assert sigma is not None
        assert sigma.image == (0, 1, 2)

    def test_already_sorted_pair(self):
        d = RVec.ones(3)
        sigma = similarly_d_ordered(RVec.of(3, 2, 1), RVec.of(6, 5, 4), d)
        assert sigma.image == (0, 1, 2)

    def test_interpolated_weights_keep_identity_order(self):
        y = RVec.of(3, 2, 1)
        d = RVec.parse(["5/2", "2", "3/2"])  # ratios 6/5, 1, 2/3
        sigma = similarly_d_ordered(y, y, d)
        assert sigma.image == (0, 1, 2)

    def test_no_common_order(self):
        d = RVec.ones(2)
        assert similarly_d_ordered(RVec.of(1, 0), RVec.of(0, 1), d) is None

    def test_ties_resolved_through_second_vector(self):
        d = RVec.ones(3)
        x = RVec.of(1, 1, 0)
        y = RVec.of(1, 2, 0)
        sigma = similarly_d_ordered(x, y, d)
        assert sigma is not None
        assert sigma.image == (1, 0, 2)

    def test_unresolvable_cross_block_tie(self):
        # x forces {0,1} before 2, but y needs 2 before 0
        d = RVec.ones(3)
        assert similarly_d_ordered(RVec.of(1, 1, 0), RVec.of(0, 2, 1), d) is None

    def test_returned_order_is_always_valid(self):
        rng = random.Random(99)
        found = 0
        for _ in range(200):
            n = rng.randint(2, 4)
            x, y, d = rand_rvec(rng, n), rand_rvec(rng, n), rand_weights(rng, n)
            sigma = similarly_d_ordered(x, y, d)
            if sigma is None:
                continue
            found += 1
            rx = [x[i] / d[i] for i in sigma.image]
            ry = [y[i] / d[i] for i in sigma.image]
            assert all(a >= b for a, b in zip(rx, rx[1:]))
            assert all(a >= b for a, b in zip(ry, ry[1:]))
        assert found > 10

    def test_reduction_to_classical_for_constant_weights(self):
        # with constant weights the ratio order is the value order, so the
        # weighted relation must coincide with classical majorization
        rng = random.Random(2718)
        checked = 0
        for _ in range(80):
            n = rng.randint(2, 4)
            y = rand_rvec(rng, n)
            d = RVec.ones(n) * Fraction(rng.randint(1, 4), rng.randint(1, 3))
            x = (
                rand_majorized_point(rng, y, d)
                if rng.random() < 0.5
                else rand_trace_matched(rng, y)
            )
            assert similarly_d_ordered(x, x, d) is not None
            checked += 1
            assert dmaj_by_onenorm(x, y, d) == classical_majorizes(y, x).holds
        assert checked == 80

    def test_reduction_to_classical_with_aligned_weights(self):
        # for nonnegative vectors sharing an order that also sorts the
        # weights nonincreasingly, the weighted and classical relations
        # agree; without the weight-alignment requirement they can differ
        # (see test_reduction_fails_without_weight_alignment)
        rng = random.Random(123)
        checked = 0
        while checked < 60:
            n = rng.randint(2, 4)
            y = RVec(tuple(abs(v) for v in rand_rvec(rng, n)))
            d = rand_weights(rng, n)
            x = rand_majorized_point(rng, y, d) if rng.random() < 0.5 else rand_trace_matched(rng, y)
            if not x.is_nonnegative():
                continue
            sigma = similarly_d_ordered(x, y, d)
            if sigma is None:
                continue
            ds = [d[i] for i in sigma.image]
            if any(a < b for a, b in zip(ds, ds[1:])):
                continue
            checked += 1
            assert dmaj_by_onenorm(x, y, d) == classical_majorizes(y, x).holds

    def test_reduction_fails_without_weight_alignment(self):
        # similarly ordered pair with an exact witness where classical
        # majorization nevertheless fails: the common ratio order does not
        # sort d, so the prefix comparisons happen at different abscissae
        x = RVec.parse(["253/130", "599/260"])
        y = RVec.parse(["2", "9/4"])
        d = RVec.parse(["2", "13/5"])
        sigma = similarly_d_ordered(x, y, d)
        assert sigma is not None and sigma.image == (0, 1)
        witness = find_witness(x, y, d)
        assert witness is not None
        assert_witness_valid(witness, x, y, d)
        assert not classical_majorizes(y, x).holds


class TestExtrema:
    def test_minimal_is_weight_vector_at_its_own_trace(self):
        d = RVec.parse(["7/2", "2", "1/3"])
        assert minimal_element(d.total(), d) == d

    def test_minimal_uniform_for_unit_weights(self):
        assert minimal_element(Fraction(1), RVec.ones(4)) == RVec.parse(["1/4"] * 4)

    def test_minimal_weighted_example(self):
        low = minimal_element(Fraction(4), RVec.of(4, 2, 1))
        assert low == RVec.parse(["16/7", "8/7", "4/7"])
        assert dmaj_by_onenorm(low, RVec.of(4, -2, 2), RVec.of(4, 2, 1))

    def test_minimal_below_random_trace_mates(self):
        rng = random.Random(33)
        for _ in range(20):
            n = rng.randint(2, 4)
            d = rand_weights(rng, n)
            y = rand_rvec(rng, n)
            low = minimal_element(y.total(), d)
            assert dmaj_by_positive_parts(low, y, d)

    def test_maximal_strict_minimum(self):
        point, unique = maximal_element(RVec.of(3, 2, 1))
        assert point == RVec.of(0, 0, 6)
        assert unique

    def test_maximal_tie_takes_first_index(self):
        point, unique = maximal_element(RVec.of(1, 1))
        assert point == RVec.of(2, 0)
        assert not unique

    def test_maximal_dominates_scaled_simplex_corners(self):
        d = RVec.of(4, 2, 1)
        top, unique = maximal_element(d)
        assert unique
        total = d.total()
        for j in range(3):
            corner = RVec.unit(3, j) * total
            assert dmaj_by_onenorm(corner, top, d)
