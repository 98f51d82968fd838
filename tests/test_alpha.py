import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact import alpha, mp

from aliquot.alpha import AlphaPass, alpha_two_part, alpha_upper_bound, tail_a
from aliquot.beta import SERIES_FROM
from aliquot.errors import ParameterError, ResourceError
from aliquot.numerics import parts_to_certified
from aliquot.primes import primes_in_range


class TestTailA:
    def test_p2_depth15(self):
        assert tail_a(2, 15) == 2.0 * 2.0**-32
        assert 2 * tail_a(2, 15) == pytest.approx(9.3132e-10, rel=1e-4)

    def test_p3_depth15(self):
        assert tail_a(3, 15) == pytest.approx(1.5 * 3.0**-32, rel=1e-15)

    def test_prime_past_the_float_range(self):
        with pytest.raises(ParameterError):
            tail_a(10**400, 3)


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
        # 245 blocks, each counting its own odd primes below 10^6; and the
        # primes past 2^20, which the power sums count.
        result = alpha_upper_bound(10**6, block_size=1 << 12)
        assert result.n_primes == 78497
        assert alpha_upper_bound(3 * 10**6, block_size=1 << 16).n_primes == 216815

    def test_block_size_within_radii(self):
        a = alpha_upper_bound(10**5, block_size=1 << 20)
        b = alpha_upper_bound(10**5, block_size=4096)
        assert abs(a.sums.value - b.sums.value) <= a.sums.error_radius + b.sums.error_radius

    def test_json_round_trip(self):
        import json

        result = alpha_upper_bound(10**4)
        doc = json.loads(result.to_json())
        assert doc["params"] == {"N": 10**4, "L": 15}
        assert doc["upper_bound"] == result.upper_bound


class TestBlockSums:
    @settings(max_examples=30, deadline=None)
    @given(
        lo=st.one_of(st.integers(3, 2000), st.integers(3, SERIES_FROM - 1)),
        width=st.integers(0, 3000),
    )
    def test_against_per_prime_terms_and_tails(self, lo, width):
        # A block's row-0 sum holds each prime's alpha(p) and its tail
        # charge, at most 2^-44 alpha(p) (alpha module docstring): its
        # value +- radius must meet [sum of alpha(p), that times 1 + 2^-44].
        hi = min(lo + width, SERIES_FROM - 1)
        primes = primes_in_range(lo, hi)
        parts = AlphaPass.kernel(lo, hi, primes)
        assert parts.keys() == {"a"} and parts["a"][2] == primes.size
        sums = parts_to_certified(*parts["a"])
        exact = mp.fsum(alpha(p) for p in primes.tolist())
        assert mp.fsub(sums.value, sums.error_radius, exact=True) <= exact * (1 + mp.mpf(2) ** -44)
        assert exact <= mp.fadd(sums.value, sums.error_radius, exact=True)


class TestAllPrimeConstant:
    def test_partial_sums_approach_library_constant(self):
        # alpha(p) summed over all primes (p = 2 counted once) tends to
        # about 0.4457; at N = 1e6 the partial sum sits within
        # 2e-5 of that value.
        result = alpha_upper_bound(10**6)
        odd_part = result.sums.value - alpha_two_part(15).value
        a_estimate = alpha_two_part(60).value / 2 + odd_part
        assert abs(a_estimate - 0.4457) < 2e-5
