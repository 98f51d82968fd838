import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aliquot.arith import is_prime, sigma_oracle
from aliquot.errors import ParameterError, ResourceError
from aliquot.numerics import aligned_blocks
from aliquot import primes as primes_module
from aliquot.primes import (
    MAX_RANGE_END,
    SIGMA_TILE,
    UINT32_N_MAX,
    SigmaWorkspace,
    _dense_primes,
    iter_factor_segments,
    iter_prime_segments,
    iter_sigma_segments,
    primes_in_range,
    sigma_of_segment,
)


def bytearray_sieve_count(limit: int) -> int:
    bs = bytearray([1]) * (limit + 1)
    bs[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if bs[p]:
            bs[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return sum(bs)


class TestPrimesInRange:
    def test_first_primes(self):
        assert primes_in_range(2, 30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_count_to_1e6_vs_independent_sieve(self):
        assert primes_in_range(2, 10**6).size == bytearray_sieve_count(10**6) == 78498

    def test_count_to_1e8(self):
        # 5761455 cross-checked once against bytearray_sieve_count(10**8)
        # (3s, too slow to repeat here).
        assert primes_in_range(2, 10**8).size == 5761455

    def test_interior_range(self):
        got = primes_in_range(10**6, 10**6 + 1000).tolist()
        expected = [n for n in range(10**6, 10**6 + 1001) if is_prime(n)]
        assert got == expected

    def test_segment_size_invariance(self):
        a = primes_in_range(2, 10**5, segment_size=1 << 20)
        b = primes_in_range(2, 10**5, segment_size=977)
        assert np.array_equal(a, b)

    def test_empty_range(self):
        assert primes_in_range(20, 10).size == 0

    @settings(max_examples=150, deadline=None)
    @given(
        lo=st.one_of(
            st.sampled_from([1, 2, 3]),
            st.integers(0, 5 * 10**5).map(lambda k: 2 * k),
            st.integers(0, 5 * 10**5).map(lambda k: 2 * k + 1),
        ),
        width=st.integers(0, 600),
        segment_size=st.sampled_from([1, 2, 3, 1 << 20]),
    )
    def test_odd_sieve_matches_dense_sieve(self, lo, width, segment_size):
        # One int64 array per aligned block of [max(lo, 2), hi], holding
        # exactly the dense sieve's primes of that block (2 included).
        hi = lo + width
        dense = _dense_primes(10**6 + 2001)
        expected = dense[(dense >= lo) & (dense <= hi)]
        blocks = aligned_blocks(max(lo, 2), hi, segment_size)
        segments = list(iter_prime_segments(lo, hi, segment_size))
        assert len(segments) == len(blocks)
        for (b_lo, b_hi), seg in zip(blocks, segments):
            assert seg.dtype == np.int64
            assert np.array_equal(seg, expected[(expected >= b_lo) & (expected <= b_hi)])
        assert np.array_equal(primes_in_range(lo, hi, segment_size), expected)

    def test_resource_errors(self):
        with pytest.raises(ResourceError, match="segment"):
            primes_in_range(2, 10**6, segment_size=1 << 30)
        with pytest.raises(ResourceError, match="supported bound"):
            primes_in_range(2, 10**10 + 1)


def _sigma_oracles(lo, hi, parity):
    """n and (sigma(n) - n) / n over [lo, hi] (parity filtered) from the events path."""
    segs = list(iter_factor_segments(lo, hi))
    n_vals = np.concatenate([seg.n_values for seg in segs])
    sig = np.concatenate([sigma_of_segment(seg) for seg in segs])
    keep = n_vals % 2 == parity if parity is not None else np.ones(n_vals.size, bool)
    # sigma(n) - n and n are exact in float64, so the quotient is correctly rounded.
    return n_vals[keep], (sig[keep] - n_vals[keep]).astype(np.float64) / n_vals[keep]


def _check_sigma_kernel(lo, length, parity, samples, segment_sizes=(1024,)):
    # For n <= 10^10 two sigma differ in the ratio by at least 1/n, far above
    # its ulp, so equal ratio bits mean equal sigma.
    hi = lo + length - 1
    reference = _sigma_oracles(lo, hi, parity) if hi >= lo else None
    for segment_size in segment_sizes:
        got = list(iter_sigma_segments(lo, hi, segment_size, parity))
        n_got = np.concatenate([n for n, _ in got]) if got else np.empty(0, np.int64)
        ratio_got = np.concatenate([r for _, r in got]) if got else np.empty(0)
        n_ref, ratio_ref = reference or (n_got, ratio_got)
        assert np.array_equal(n_got, n_ref)
        assert ratio_got.tobytes() == ratio_ref.tobytes()
        for k in samples:
            if n_got.size:
                i = k % n_got.size
                n = int(n_got[i])
                assert float(ratio_got[i]) == (sigma_oracle(n) - n) / n


class TestSigmaKernel:
    """iter_sigma_segments (the strided sigma kernel's (sigma(n) - n) / n)
    against the events path (sigma_of_segment) everywhere and divisor
    enumeration at samples."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 10**7),
        st.integers(0, 3000),
        st.sampled_from([None, 0, 1]),
        st.lists(st.integers(0, 2999), max_size=8),
    )
    def test_random_ranges(self, lo, length, parity, samples):
        _check_sigma_kernel(lo, length, parity, samples)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(MAX_RANGE_END - 5000, MAX_RANGE_END - 1),
        st.integers(1, 3000),
        st.sampled_from([None, 0, 1]),
        st.lists(st.integers(0, 2999), max_size=2),
    )
    def test_near_the_range_bound(self, lo, length, parity, samples):
        # Large prime cofactors and 2-adic parts from n & -n near 10^10.
        _check_sigma_kernel(lo, min(length, MAX_RANGE_END - lo + 1), parity, samples)

    @pytest.mark.parametrize("parity", [None, 0, 1])
    @pytest.mark.parametrize(
        "lo,hi",
        [
            # The last segment ends at UINT32_N_MAX: every segment is uint32.
            (UINT32_N_MAX - 5 * SIGMA_TILE - 5, UINT32_N_MAX),
            # The segment that holds UINT32_N_MAX + 1 is int64, those below uint32.
            (UINT32_N_MAX - 3 * SIGMA_TILE + 3, UINT32_N_MAX + 3 * SIGMA_TILE + 7),
            # 1031 is the first base prime past SIGMA_SCATTER_FROM = 2^10:
            # 1031^2 * 1030 (even) and 1031^3 = 1,095,912,791 (odd), and the
            # other multiples of a scattered prime's square among a million.
            (1031**3 - 1031**2 - 7, 1031**3 + 7),
            # 99991^2 = 9,998,200,081, the square of the largest base prime.
            (99991**2 - 2 * SIGMA_TILE - 3, 99991**2 + 2 * SIGMA_TILE + 5),
        ],
    )
    def test_tile_edges_and_the_uint32_bound(self, lo, hi, parity):
        # Segments of 4 SIGMA_TILE integers, whose whole ones hold four tiles
        # of stride 1 and two of stride 2, and of 2^20 integers; the ranges
        # stop inside tiles.
        samples = [0, 1, SIGMA_TILE - 1, SIGMA_TILE, 3 * SIGMA_TILE + 17]
        _check_sigma_kernel(lo, hi - lo + 1, parity, samples, (4 * SIGMA_TILE, 1 << 20))

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(1, 10**6),
        st.integers(1, 600),
        st.sampled_from([None, 0, 1]),
        st.integers(1, 40),
    )
    def test_small_tiles(self, lo, length, parity, tile):
        # Many tiles per segment, and tiles of one integer.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(primes_module, "SIGMA_TILE", tile)
            _check_sigma_kernel(lo, length, parity, [])

    def test_uint32_bound_holds(self):
        # sigma(n) <= n (1 + ln n) < 2^32 for n <= UINT32_N_MAX.
        assert UINT32_N_MAX * (1 + math.log(UINT32_N_MAX)) < 2**32

    @pytest.mark.parametrize("parity", [None, 0, 1])
    def test_segment_size_invariance(self, parity):
        a = np.concatenate([s for _, s in iter_sigma_segments(3, 10**5, 1 << 20, parity)])
        b = np.concatenate([s for _, s in iter_sigma_segments(3, 10**5, 977, parity)])
        assert np.array_equal(a, b)

    def test_kept_segments_stay_unchanged(self):
        # Without a workspace every segment has arrays of its own; with one,
        # they are read-only views that the next segment overwrites.
        segments = iter_sigma_segments(1, 5000, 1024, 1)
        first = next(segments)
        kept = [a.copy() for a in first]
        rest = list(segments)
        assert len(rest) == 4
        assert all(np.array_equal(a, b) for a, b in zip(first, kept))
        work = SigmaWorkspace()
        for n_vals, ratios in iter_sigma_segments(3, 5000, 1024, 1, work):
            assert not n_vals.flags.writeable and not ratios.flags.writeable

    def test_rejects_bad_parity(self):
        with pytest.raises(ParameterError):
            list(iter_sigma_segments(1, 10, parity=2))
        for segments in (iter_sigma_segments, iter_factor_segments):
            with pytest.raises(ParameterError, match="range start must be >= 1"):
                list(segments(0, 10))

    def test_sigma_sum_matches_oracle(self):
        total = 0
        for n_vals, ratios in iter_sigma_segments(1, 10**4):
            total += int((n_vals + np.rint(n_vals * ratios).astype(np.int64)).sum())
        assert total == sum(sigma_oracle(n) for n in range(1, 10**4 + 1))


class TestThroughput:
    def test_factored_segments_1e7_under_10s(self):
        t0 = time.time()
        total = 0
        for seg in iter_factor_segments(1, 10**7):
            total += int(sigma_of_segment(seg).sum())
        elapsed = time.time() - t0
        assert total > 0
        assert elapsed < 10.0, f"segment factoring of 1e7 took {elapsed:.1f}s"
