import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact import encloses, mp

from aliquot import numerics
from aliquot.errors import ParameterError
from aliquot.numerics import (
    EPS,
    CertifiedValue,
    aligned_blocks,
    combine_blocks,
    compensated_sum,
    exact_sum,
    map_blocks,
)


def _fsum_outcome(fn, values):
    """fn's result as its exact bits (the hex form keeps the sign of zero),
    or the type of the exception it raised."""
    try:
        result = fn(values)
    except (OverflowError, ValueError) as exc:
        return type(exc)
    return "nan" if math.isnan(result) else result.hex()


def _assert_matches_fsum(values):
    arr = np.asarray(values, dtype=np.float64)
    assert _fsum_outcome(exact_sum, arr) == _fsum_outcome(math.fsum, arr.tolist())


_SUBNORMAL = st.floats(min_value=-(2.0**-1022), max_value=2.0**-1022)


class TestExactSum:
    """exact_sum must return math.fsum's bits, the sign of zero included."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=60))
    def test_any_floats(self, values):
        _assert_matches_fsum(values)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_SUBNORMAL | st.sampled_from([0.0, -0.0, 5e-324, -5e-324]), max_size=60))
    def test_subnormals_and_signed_zeros(self, values):
        _assert_matches_fsum(values)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(min_value=1e-300, max_value=1e300), min_size=1, max_size=40),
        st.lists(st.booleans(), min_size=40, max_size=40),
        st.randoms(use_true_random=False),
    )
    def test_wide_magnitudes_and_exact_cancellation(self, mags, signs, rng):
        values = [m if s else -m for m, s in zip(mags, signs)]
        _assert_matches_fsum(values)
        paired = values + [-v for v in values]
        rng.shuffle(paired)
        _assert_matches_fsum(paired)
        _assert_matches_fsum(paired + [values[0] * 2.0**-60])

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(min_value=2.0**900, max_value=1e308), min_size=1, max_size=5),
        st.lists(st.floats(min_value=-1e10, max_value=1e10), max_size=20),
    )
    def test_fallback_above_two_to_900(self, huge, small):
        _assert_matches_fsum(small + huge + [-x for x in huge[:1]])
        _assert_matches_fsum(huge + huge)  # may overflow in fsum: then the same error

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(-2, 2))
    def test_lengths_across_the_chunk_boundary(self, seed, offset):
        rng = np.random.default_rng(seed)
        n = (1 << 20) + offset
        wide = rng.standard_normal(n // 2) * 10.0 ** rng.integers(-20, 20, n // 2)
        rest = rng.standard_normal(n - n // 2 - n // 4)
        values = np.concatenate([wide, -wide[: n // 4], rest])
        rng.shuffle(values)
        _assert_matches_fsum(values)

    def test_empty_and_zero_sums(self):
        for values in ([], [0.0], [-0.0], [-0.0, -0.0], [-0.0, 0.0], [1.5, -1.5]):
            _assert_matches_fsum(values)


def _random_bits(rng, n, exponents):
    """n doubles with random signs and fractions and the given biased exponents."""
    sign = rng.integers(0, 2, n, dtype=np.int64) << 63
    exp = rng.choice(np.asarray(exponents, dtype=np.int64), n) << 52
    frac = rng.integers(0, 1 << 52, n, dtype=np.int64)
    return sign | exp | frac


class TestExactSumMaskSplit:
    """Inputs that stress exact_sum's levels: low 32 fraction bits all ones or
    all zeros, subnormals (levels down to sigma = 2^-1022), alone and beside
    terms 2^60 larger, and one chunk of alternating terms just below 2^900."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("low_bits", ["ones", "zeros"])
    def test_low_fraction_bits_all_ones_or_zeros(self, seed, low_bits):
        rng = np.random.default_rng(seed)
        bits = _random_bits(rng, 5000, [1, 2, 600, 1000, 1023, 1100, 1922])
        bits = bits | 0xFFFFFFFF if low_bits == "ones" else bits & -(1 << 32)
        values = bits.view(np.float64)
        _assert_matches_fsum(values)
        _assert_matches_fsum(np.concatenate([values, -values[:2500]]))

    @pytest.mark.parametrize("seed", range(3))
    def test_subnormals(self, seed):
        rng = np.random.default_rng(seed)
        values = _random_bits(rng, 5000, [0]).view(np.float64)
        tiny = (rng.integers(1, 1 << 32, 500, dtype=np.int64)).view(np.float64)
        _assert_matches_fsum(values)
        _assert_matches_fsum(np.concatenate([tiny, -tiny[:250], values[:100]]))
        _assert_matches_fsum(np.concatenate([values, np.ldexp(values[:50], 60)]))

    @pytest.mark.parametrize("seed", range(3))
    def test_alternating_terms_just_below_two_to_900(self, seed):
        rng = np.random.default_rng(seed)
        n = 1 << 15
        magnitudes = (_random_bits(rng, n, [1023 + 899]) & 0x7FFFFFFFFFFFFFFF).view(np.float64)
        values = np.where(np.arange(n) % 2 == 0, magnitudes, -magnitudes)
        assert np.abs(values).max() < 2.0**900
        _assert_matches_fsum(values)
        _assert_matches_fsum(np.abs(values))

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_lengths_around_one_chunk(self, offset):
        rng = np.random.default_rng(7 + offset)
        n = (1 << 15) + offset
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
        _assert_matches_fsum(values)
        values[-1] = -math.fsum(values[:-1].tolist())
        _assert_matches_fsum(values)


def _cancel_to(values, rest):
    """values plus two doubles that cancel their exact sum, plus ``rest``:
    the exact total is then sum(rest), so a level total that rounded shows
    at full size instead of hiding below the result's last bit."""
    first = math.fsum(values.tolist())
    second = math.fsum(values.tolist() + [-first])
    return np.concatenate([values, [-first, -second], rest])


class TestExactSumExtraction:
    """Edge cases of the level extraction: sigma's size, the -1022 clamp and
    the number of levels one chunk can take."""

    @pytest.mark.parametrize("low_bits", [13, 30, 52])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_full_chunk_just_below_a_power_of_two(self, low_bits, sign):
        # 2^15 terms in (2^(e-1), 2^e): sigma = 2^(e+15), and the pieces q
        # round up to 2^e, so their sum can reach sigma itself.  Negative
        # terms put q on the finer grid below sigma, where a sigma one
        # power of two smaller makes that sum round.
        rng = np.random.default_rng(low_bits)
        for e in (0, 40, -700):
            for _ in range(8):
                below = rng.integers(1, 1 << low_bits, 1 << 15, dtype=np.int64)
                below[0] = 1
                values = sign * (np.float64(2.0**e).view(np.int64) - below).view(np.float64)
                _assert_matches_fsum(values)
                _assert_matches_fsum(_cancel_to(values, [3.0 * 2.0 ** (e - 70)]))

    @pytest.mark.parametrize("seed", range(3))
    def test_residual_reaches_the_clamp(self, seed):
        # Normal terms down to [2^-1022, 2^-1021), whose last bit is
        # 2^-1074, and subnormals: the last level has sigma = 2^-1022.
        rng = np.random.default_rng(seed)
        n = 1 << 15
        normal = _random_bits(rng, n // 2, [1, 2, 3, 10, 30]).view(np.float64)
        sub = _random_bits(rng, n - n // 2, [0]).view(np.float64)
        values = np.concatenate([normal, sub])
        rng.shuffle(values)
        _assert_matches_fsum(values)
        _assert_matches_fsum(np.abs(values))
        _assert_matches_fsum(_cancel_to(np.abs(values), [5e-324]))

    @pytest.mark.parametrize("seed", range(3))
    def test_many_levels_from_two_to_minus_600_to_600(self, seed):
        rng = np.random.default_rng(seed)
        n = 1 << 15
        values = _random_bits(rng, n, np.arange(1023 - 600, 1023 + 601)).view(np.float64)
        _assert_matches_fsum(values)
        _assert_matches_fsum(np.concatenate([values, -values[: n // 2]]))

    def test_every_binade_takes_the_most_levels(self, monkeypatch):
        # One 53-bit term per binade from 2^899 down to 2^-1022, and
        # subnormals: sigma starts at 2^915 and every level down to the
        # clamp leaves a residual, so the chunk takes all _MAX_LEVELS, and
        # one level fewer raises instead of looping on.
        rng = np.random.default_rng(11)
        exps = np.arange(899, -1023, -1)
        mantissas = rng.integers(1 << 52, 1 << 53, exps.size, dtype=np.int64)
        values = np.ldexp(mantissas.astype(np.float64), exps - 52)
        tiny = rng.integers(1, 1 << 52, 50, dtype=np.int64).view(np.float64)
        values = np.concatenate([values, [math.nextafter(2.0**900, 0.0)], tiny])
        _assert_matches_fsum(values)
        _assert_matches_fsum(-values)
        monkeypatch.setattr(numerics, "_MAX_LEVELS", numerics._MAX_LEVELS - 1)
        with pytest.raises(RuntimeError, match="residual left"):
            exact_sum(values)

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_zero_chunks_between_nonzero_ones(self, zero):
        rng = np.random.default_rng(5)
        n = 1 << 15
        live = rng.standard_normal(3 * n) * 10.0 ** rng.integers(-30, 30, 3 * n)
        zeros = np.full(2 * n, zero)
        values = np.concatenate(
            [zeros[:n], live[:n], zeros, live[n : 2 * n], zeros[: n - 7], live[2 * n :]]
        )
        _assert_matches_fsum(values)
        _assert_matches_fsum(np.concatenate([live[:n], zeros, -live[:n]]))


class TestCompensatedSum:
    def test_empty(self):
        cv = compensated_sum([])
        assert cv.value == 0.0 and cv.error_radius == 0.0

    def test_cancellation(self):
        cv = compensated_sum([1.0, -1.0])
        assert cv.value == 0.0
        assert 0.0 <= cv.error_radius <= 4 * EPS

    def test_million_tenths(self):
        # Exact rational accumulation of the double nearest 1/10.
        exact = Fraction(0.1) * 10**6
        cv = compensated_sum([0.1] * 10**6)
        assert abs(cv.value - float(exact)) <= cv.error_radius
        assert abs(cv.value - 100000.0) < 1e-9

    def test_rejects_non_finite(self):
        with pytest.raises(ParameterError, match="index 2"):
            compensated_sum([1.0, 2.0, float("nan"), 3.0])
        with pytest.raises(ParameterError, match="index 0"):
            compensated_sum([float("inf")])

    def test_reversal_within_radii(self):
        rng = random.Random(7)
        terms = [rng.uniform(-1, 1) * 10 ** rng.randint(-8, 8) for _ in range(4000)]
        a = compensated_sum(terms)
        b = compensated_sum(terms[::-1])
        assert abs(a.value - b.value) <= a.error_radius + b.error_radius

    def test_permutation_within_radii(self):
        rng = random.Random(11)
        terms = [rng.gauss(0, 1) for _ in range(2000)]
        a = compensated_sum(terms)
        for _ in range(3):
            rng.shuffle(terms)
            b = compensated_sum(terms)
            assert abs(a.value - b.value) <= a.error_radius + b.error_radius

    def test_accepts_ndarray(self):
        arr = np.linspace(0.0, 1.0, 1001)
        cv = compensated_sum(arr)
        assert math.isclose(cv.value, 500.5, rel_tol=1e-15)


# Values and radii whose sums and products stay far inside the float range,
# subnormals and zero included.
_VALUE = st.floats(-(2.0**500), 2.0**500)
_CERTIFIED = st.builds(CertifiedValue, _VALUE, st.floats(0.0, 2.0**500))
# What an operation takes besides a certified value: a float or an int
# (exact where a float holds it) and a Fraction.
_OPERAND = st.one_of(_CERTIFIED, _VALUE, st.integers(-(2**60), 2**60),
                     st.fractions(-(10**6), 10**6, max_denominator=10**6))
_OPERATIONS = {
    "add": (lambda a, b: a + b, lambda x, y: mp.fadd(x, y, exact=True)),
    "sub": (lambda a, b: a - b, lambda x, y: mp.fsub(x, y, exact=True)),
    "mul": (lambda a, b: a * b, lambda x, y: mp.fmul(x, y, exact=True)),
}


def _ends(x) -> tuple:
    """The exact ends of an operand: a certified value's value -+ radius,
    a number itself (a Fraction to mp's 50 digits)."""
    if isinstance(x, CertifiedValue):
        return (mp.fsub(x.value, x.error_radius, exact=True),
                mp.fadd(x.value, x.error_radius, exact=True))
    if isinstance(x, Fraction):
        return (mp.mpf(x.numerator) / x.denominator,) * 2
    return (mp.mpf(x),) * 2


def _holds(cv, exact) -> bool:
    """cv encloses exact, both as value -+ radius and between its ends."""
    return encloses(cv, exact) and cv.lower <= exact <= cv.upper


class TestCertifiedValue:
    def test_radius_nonnegative(self):
        with pytest.raises(ParameterError):
            CertifiedValue(1.0, -1e-30)

    @pytest.mark.parametrize("name", _OPERATIONS)
    @given(a=_CERTIFIED, b=_OPERAND)
    def test_operation_encloses_the_exact_set(self, name, a, b):
        # +, - and * are monotone in each operand, so the exact results at
        # the operands' ends bound every result; both orders of the operands.
        op, exact = _OPERATIONS[name]
        for left, right in ((a, b), (b, a)):
            result = op(left, right)
            for x in _ends(left):
                for y in _ends(right):
                    assert _holds(result, exact(x, y)), (left, right)

    @given(a=_CERTIFIED, k=st.integers(1, 2**53))
    def test_division_encloses_the_exact_quotients(self, a, k):
        # Compared times k, so every product is exact.
        q = a / k
        for x in _ends(a):
            assert mp.fmul(q.lower, k, exact=True) <= x <= mp.fmul(q.upper, k, exact=True)
            low, high = _ends(q)
            assert mp.fmul(low, k, exact=True) <= x <= mp.fmul(high, k, exact=True)

    @given(a=st.builds(CertifiedValue, st.floats(-740.0, 700.0), st.floats(0.0, 8.0)))
    def test_exp_encloses_the_exact_exps(self, a):
        e = a.exp()
        for x in _ends(a):
            assert _holds(e, mp.exp(x))

    @given(a=st.builds(CertifiedValue, st.floats(allow_nan=False, allow_infinity=False),
                       st.floats(0.0, allow_infinity=False)))
    def test_outward_ends(self, a):
        low, high = _ends(a)
        assert a.lower <= low and high <= a.upper

    def test_division_takes_a_positive_int(self):
        for k in (0, -3, 2.0, 2**53 + 1):
            with pytest.raises(ParameterError):
                CertifiedValue(1.0, 0.0) / k

    def test_an_overflowing_result_is_rejected(self):
        with pytest.raises(ParameterError):
            CertifiedValue(2.0**1000, 0.0) * 2.0**100

    def test_widened(self):
        cv = CertifiedValue(1.0, 1e-12).widened(1e-9)
        assert cv.error_radius == 1e-12 + 1e-9
        with pytest.raises(ParameterError):
            cv.widened(-1.0)


def _block_reduce(lo, hi, block_size, term, vectorized=False):
    """sum of term(n) over [lo, hi] through the block engine: aligned
    blocks, each summed by compensated_sum, merged in block order.  With
    ``vectorized`` term gets one block's integers as an int64 array."""
    if vectorized:
        def eval_block(b_lo, b_hi):
            return compensated_sum(term(np.arange(b_lo, b_hi + 1, dtype=np.int64)))
    else:
        def eval_block(b_lo, b_hi):
            return compensated_sum([term(n) for n in range(b_lo, b_hi + 1)])
    return combine_blocks(map_blocks(aligned_blocks(lo, hi, block_size), eval_block, 1)[0])


class TestAlignedBlocks:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=-10**6, max_value=10**12),
        st.integers(min_value=-50, max_value=5000),
        st.integers(min_value=1, max_value=1 << 21),
    )
    def test_blocks_partition_exactly(self, lo, length, block_size):
        hi = lo + length - 1
        blocks = aligned_blocks(lo, hi, block_size)
        if hi < lo:
            assert blocks == []
            return
        assert blocks[0][0] == lo and blocks[-1][1] == hi
        for b_lo, b_hi in blocks:
            assert b_lo <= b_hi
            assert b_lo // block_size == b_hi // block_size  # one aligned cell each
        for (_, prev_hi), (b_lo, _) in zip(blocks, blocks[1:]):
            assert b_lo == prev_hi + 1 and b_lo % block_size == 0
        assert sum(b_hi - b_lo + 1 for b_lo, b_hi in blocks) == length

    def test_empty_plan(self):
        assert aligned_blocks(10, 5, 4) == []
        assert aligned_blocks(10, 9, 4) == []
        cv = _block_reduce(10, 5, 4, lambda n: n)
        assert (cv.value, cv.error_radius) == (0.0, 0.0)

    def test_bad_block_size(self):
        for block_size in (0, -4):
            with pytest.raises(ParameterError):
                aligned_blocks(1, 10, block_size)


class TestBlockReduce:
    def test_triangular(self):
        cv = _block_reduce(1, 100, 10, lambda n: float(n))
        assert cv.value == 5050.0

    def test_vectorized_matches_scalar(self):
        a = _block_reduce(1, 5000, 256, lambda n: 1.0 / n)
        b = _block_reduce(1, 5000, 256, lambda arr: 1.0 / arr.astype(float), vectorized=True)
        assert a.value == b.value

    def test_block_size_change_within_radii(self):
        gen = lambda n: math.log1p(1.0 / n)
        a = _block_reduce(1, 30000, 1024, gen)
        b = _block_reduce(1, 30000, 999, gen)
        assert abs(a.value - b.value) <= a.error_radius + b.error_radius

    def test_matches_flat_compensated_sum(self):
        terms = [math.cos(k) for k in range(1, 40001)]
        flat = compensated_sum(terms)
        blocked = _block_reduce(1, 40000, 4096, math.cos)
        assert abs(flat.value - blocked.value) <= flat.error_radius + blocked.error_radius


class TestMapBlocks:
    """map_blocks on its serial path only: every pass here is under
    numerics.SERIAL_INTEGERS, so workers > 1 still runs serially.  The
    forked path is tested in test_engine.TestProcessPath."""

    @pytest.mark.parametrize("workers", [1, 3])
    def test_on_block_once_per_block_in_order(self, workers):
        blocks = aligned_blocks(5, 1000, 64)
        seen = []
        out, count = map_blocks(blocks, lambda lo, hi: (lo, hi), workers, on_block=seen.append)
        assert seen == out == blocks
        assert count == 1  # under numerics.SERIAL_INTEGERS

    def test_failed_block_stops_after_earlier_blocks(self):
        blocks = aligned_blocks(0, 99, 10)

        def eval_block(lo, hi):
            if lo == 70:
                raise ValueError("block 7")
            return lo

        seen = []
        with pytest.raises(ValueError, match="block 7"):
            map_blocks(blocks, eval_block, 1, on_block=seen.append)
        assert seen == [0, 10, 20, 30, 40, 50, 60]

    @pytest.mark.parametrize("workers", [0, -1])
    @pytest.mark.parametrize("hi", [-1, 9, 99])  # no block, one block, ten blocks
    def test_workers_below_one_is_a_parameter_error(self, workers, hi):
        calls = []
        with pytest.raises(ParameterError, match="workers"):
            map_blocks(aligned_blocks(0, hi, 10), lambda lo, hi: calls.append(lo), workers)
        assert calls == []

