import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aliquot.alpha import (
    M,
    _block_depth,
    _block_sums,
    alpha_term,
    alpha_two_part,
    alpha_upper_bound,
    tail_a,
)
from aliquot.errors import ParameterError, ResourceError
from aliquot.numerics import EPS, block_sum_parts, parts_to_certified
from aliquot.primes import primes_in_range
from aliquot.selftest import full_depth_alpha_bound


class TestAlphaTerm:
    def test_p2_m1(self):
        assert alpha_term(2, 1) == pytest.approx(0.5 * math.log(1.5), abs=1e-16)

    def test_p2_m2(self):
        assert alpha_term(2, 2) == pytest.approx(0.25 * math.log(7 / 6), rel=1e-15)

    def test_term_bounded_by_inverse_square(self):
        for p in primes_in_range(2, 100).tolist():
            for m in range(1, 11):
                assert alpha_term(p, m) <= (1.0 / p**m) ** 2

    def test_rejects_bad_m(self):
        with pytest.raises(ParameterError):
            alpha_term(5, 0)
        with pytest.raises(ParameterError, match="too large"):
            alpha_term(3, 700)


class TestTailA:
    def test_p2_depth15(self):
        assert tail_a(2, 15) == 2.0 * 2.0**-32
        assert 2 * tail_a(2, 15) == pytest.approx(9.3132e-10, rel=1e-4)

    def test_p3_depth15(self):
        assert tail_a(3, 15) == pytest.approx(1.5 * 3.0**-32, rel=1e-15)

    def test_prime_past_the_float_range(self):
        with pytest.raises(ParameterError):
            tail_a(10**400, 3)

    def test_dominates_dropped_terms(self):
        # Tail beyond depth M, evaluated out to depth 60, never exceeds A(p, M).
        for p in primes_in_range(2, 100).tolist():
            for M in (2, 5, 15):
                dropped = math.fsum(alpha_term(p, m) for m in range(M + 1, 61))
                assert dropped <= tail_a(p, M)


class TestParams:
    def test_validation(self):
        with pytest.raises(ParameterError, match="N must exceed 2, got 2"):
            alpha_upper_bound(2)
        with pytest.raises(ParameterError, match="M must be >= 1"):
            tail_a(3, 0)
        with pytest.raises(ParameterError, match="L must exceed 1"):
            alpha_two_part(1)
        # Were a term list that grew until the process was killed, and an OverflowError.
        with pytest.raises(ParameterError, match="at most 536, got 537"):
            alpha_two_part(537)
        with pytest.raises(ParameterError, match="at most 536"):
            alpha_two_part(10**400)
        with pytest.raises(ParameterError, match="M is past the float range"):
            tail_a(3, 10**400)
        # Were a ValueError: str() refuses an int past 4,300 digits.
        with pytest.raises(ParameterError, match="got a negative integer of 5001 digits$"):
            alpha_upper_bound(-(10**5000))
        with pytest.raises(ResourceError, match="range end an integer of 5001 digits exceeds"):
            alpha_upper_bound(10**5000)


class TestUpperBound:
    def test_upper_bound_exceeds_sums(self):
        result = alpha_upper_bound(10**4)
        assert result.upper_bound >= result.sums.value
        assert result.tail_total > 0

    def test_monotone_in_N(self):
        ub = [
            alpha_upper_bound(N).upper_bound
            for N in (10**3, 10**4, 10**5)
        ]
        for tighter, looser in zip(ub[1:], ub[:-1]):
            assert tighter <= looser + 1e-12

    def test_prime_count_is_exact_across_blocks(self):
        # 245 blocks, each counting its own odd primes below 10^6.
        result = alpha_upper_bound(10**6, block_size=1 << 12)
        assert result.n_primes == 78497

    def test_block_size_within_radii(self):
        a = alpha_upper_bound(10**5, block_size=1 << 20)
        b = alpha_upper_bound(10**5, block_size=4096)
        assert abs(a.sums.value - b.sums.value) <= a.sums.error_radius + b.sums.error_radius

    def test_json_round_trip(self):
        import json

        result = alpha_upper_bound(10**4)
        doc = json.loads(result.to_json())
        assert doc["params"] == {"N": 10**4, "L": 15, "M": 15}
        assert doc["upper_bound"] == result.upper_bound


class TestBlockSums:
    @settings(max_examples=60, deadline=None)
    @given(
        lo=st.one_of(st.integers(3, 2000), st.integers(3, 10**7)),
        width=st.integers(0, 3000),
        m=st.integers(1, 15),
    )
    def test_against_per_prime_terms_and_tails(self, lo, width, m):
        primes = primes_in_range(lo, lo + width)
        term_parts, tail_parts = _block_sums(primes, m)
        sums = parts_to_certified(*term_parts)
        exact = math.fsum(alpha_term(p, k) for p in primes.tolist() for k in range(1, m + 1))
        assert abs(sums.value - exact) <= sums.error_radius
        tails = [tail_a(p, m) for p in primes.tolist()]
        assert tail_parts == block_sum_parts(np.array(tails))
        for p, tail in zip(primes[:5].tolist(), tails):
            assert _block_sums(np.array([p]), m)[1] == (tail, tail, 1)
            if p < 2000:
                assert tail >= math.fsum(alpha_term(p, k) for k in range(m + 1, 61))


class TestBlockDepths:
    @pytest.mark.parametrize("N, block_size", [(3 * 10**6, 1 << 16), (10**6, 1 << 12)])
    def test_never_looser_than_full_depth(self, N, block_size):
        result = alpha_upper_bound(N, block_size=block_size)
        oracle, n_primes = full_depth_alpha_bound(N, block_size)
        assert result.upper_bound <= oracle
        assert result.n_primes == n_primes == sum(result.depths.values())
        assert min(result.depths) < 15  # the rule cut some blocks short

    @pytest.mark.parametrize("k, depth", [(0, 15), (1, 2), (64, 2), (65, 1), (95, 1)])
    def test_rule_at_full_scale_blocks(self, k, depth):
        # Blocks of 2^20 below N = 1e8: 1 at depth 15, 64 at 2 and 31 at 1.
        # Each prime's charge stays below EPS times its first term, and the
        # depth is the least one that does so at p_min.
        primes = primes_in_range(max(3, k << 20), ((k + 1) << 20) - 1)
        assert _block_depth(primes, 15) == depth
        if depth < 15:
            p = primes.astype(np.float64)
            assert (tail_a(p, depth) <= EPS * np.log1p(1.0 / p) / p).all()
        if depth > 1:
            p_max = float(primes[-1])
            assert tail_a(int(primes[0]), depth - 1) > EPS * math.log1p(1.0 / p_max) / p_max

    def test_default_scale_keeps_full_depth(self):
        result = alpha_upper_bound(10**6)
        assert result.depths == {15: 78497}
        assert result.to_json_dict()["depths"] == {"15": 78497}

    def test_M_caps_the_depth(self):
        # The block holding 3 takes the cap, whatever it is: 15 at M = 15.
        primes = primes_in_range(3, (1 << 16) - 1)
        assert _block_depth(primes, 2) == 2
        assert _block_depth(primes, M) == M == 15


class TestAllPrimeConstant:
    def test_partial_sums_approach_library_constant(self):
        # alpha(p) summed over all primes (p = 2 counted once) tends to
        # about 0.4457; at N = 1e6, depth 15, the partial sum sits within
        # 2e-5 of that value.
        result = alpha_upper_bound(10**6)
        odd_part = result.sums.value - alpha_two_part(15).value
        a_estimate = alpha_two_part(60).value / 2 + odd_part
        assert abs(a_estimate - 0.4457) < 2e-5
