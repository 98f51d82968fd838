"""Segmented sieving: prime streams and factored integer ranges.

Ranges are processed in cache-sized segments, and memory is bounded by
the segment size, never by the range length.  The prime sieve
(iter_prime_segments) marks odd numbers only, half a segment's length,
and puts the prime 2 back where a segment holds it.  A segment of integers
n0, n0 + stride, ... (stride 1 or 2) is factored along the strided walk
(strided_prime_powers): it visits the odd base primes once and gives, per
prime, the start of its multiples as a strided view (i0::p) and their
exponents of p, so a kernel applies each prime with one in-place multiply
and no per-(p, m) scatter.  Beta's odd-sum oracle and the exact sigma
kernel (sigma_strided, under iter_sigma_segments) both consume it;
2-adic parts and the large cofactor are left to them.

The events path (iter_factor_segments, stride 1 only) is the walk's
independent oracle: it divides out exact prime powers, listing one
(p, m, positions) event per prime power, and whatever remains after all
base primes is either 1 or a single prime above sqrt(hi).  It feeds
sigma_of_segment and beta.main_term_direct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .errors import ParameterError, ResourceError
from .numerics import aligned_blocks

DEFAULT_SEGMENT_SIZE = 1 << 20
MAX_SEGMENT_SIZE = 1 << 25
MAX_RANGE_END = 10**10


@lru_cache(maxsize=8)
def _dense_primes(limit: int) -> np.ndarray:
    """All primes <= limit by a plain dense sieve (int64)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).astype(np.int64)


def check_range(lo: int, hi: int, segment_size: int) -> None:
    if segment_size <= 0:
        raise ParameterError(f"segment_size must be positive, got {segment_size}")
    if segment_size > MAX_SEGMENT_SIZE:
        raise ResourceError(
            f"segment_size {segment_size} exceeds the {MAX_SEGMENT_SIZE} cap; "
            f"use more, smaller segments"
        )
    if hi > MAX_RANGE_END:
        raise ResourceError(
            f"range end {hi} exceeds the supported bound {MAX_RANGE_END}; "
            f"split the computation into sub-ranges"
        )


def iter_prime_segments(
    lo: int, hi: int, segment_size: int = DEFAULT_SEGMENT_SIZE
) -> Iterator[np.ndarray]:
    """Yield the primes of [lo, hi] as int64 arrays, one per segment.

    Segments are cut at multiples of segment_size (numerics.aligned_blocks).
    The sieve marks odd numbers only: position i of a segment's mask is
    n0 + 2i, n0 its first odd number, so an odd base prime p crosses out
    the positions from max(i0, (p^2 - n0) / 2) in steps of p, with
    i0 = -n0 * 2^-1 mod p and 2^-1 = (p + 1) / 2 (p^2 and n0 are odd, so
    the halving is exact; a prime whose start lies past the mask marks
    nothing).  The prime 2 is put back in the segment that holds it.
    """
    if lo < 2:
        lo = 2
    if hi < lo:
        return
    check_range(lo, hi, segment_size)
    base = _dense_primes(math.isqrt(hi))[1:]
    for seg_lo, seg_hi in aligned_blocks(lo, hi, segment_size):
        n0 = seg_lo | 1
        mask = np.ones((seg_hi - n0) // 2 + 1, dtype=bool)  # size 0 when seg_lo == seg_hi is even
        ps = base[: np.searchsorted(base, math.isqrt(seg_hi), side="right")]
        starts = np.maximum((-n0 * ((ps + 1) // 2)) % ps, (ps * ps - n0) // 2)
        for p, start in zip(ps.tolist(), starts.tolist()):
            mask[start::p] = False
        found = np.flatnonzero(mask)
        found *= 2
        found += n0
        if seg_lo == 2:
            found = np.concatenate(([2], found))
        yield found.astype(np.int64, copy=False)


def primes_in_range(lo: int, hi: int, segment_size: int = DEFAULT_SEGMENT_SIZE) -> np.ndarray:
    """Exactly the primes in the inclusive range [lo, hi], ascending."""
    if lo > hi:
        return np.empty(0, dtype=np.int64)
    chunks = list(iter_prime_segments(lo, hi, segment_size))
    if not chunks:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(chunks)


@dataclass
class SegmentFactors:
    """One factored segment.

    ``events`` lists (p, m, idx): the segment positions idx where p^m
    exactly divides the integer.  ``rem`` holds what is left after dividing
    every base prime power out: 1, or one prime above sqrt(hi).
    """

    n_values: np.ndarray
    events: list[tuple[int, int, np.ndarray]]
    rem: np.ndarray


def iter_factor_segments(
    lo: int, hi: int, segment_size: int = DEFAULT_SEGMENT_SIZE
) -> Iterator[SegmentFactors]:
    """Factor [lo, hi] segment by segment along the events path.

    Segments are cut at multiples of segment_size (numerics.aligned_blocks),
    and the concatenated output is independent of the chosen segment size.
    """
    if lo < 1:
        raise ParameterError(f"range start must be >= 1, got {lo}")
    if hi < lo:
        return
    check_range(lo, hi, segment_size)
    base = _dense_primes(math.isqrt(hi))
    for seg_lo, seg_hi in aligned_blocks(lo, hi, segment_size):
        n_values = np.arange(seg_lo, seg_hi + 1, dtype=np.int64)
        rem = n_values.copy()
        events: list[tuple[int, int, np.ndarray]] = []
        for p in base[base * base <= seg_hi].tolist():
            idx = np.arange((-seg_lo) % p, n_values.size, p, dtype=np.int64)
            v = n_values[idx] // p
            m = 1
            while idx.size:
                deeper = (v % p) == 0
                exact = idx[~deeper]
                if exact.size:
                    events.append((p, m, exact))
                    rem[exact] //= p**m
                idx = idx[deeper]
                v = v[deeper] // p
                m += 1
        yield SegmentFactors(n_values, events, rem)


def sigma_of_segment(seg: SegmentFactors) -> np.ndarray:
    """sigma(n) for every n of a factored segment, exact int64."""
    sig = np.ones(seg.n_values.size, dtype=np.int64)
    for p, m, idx in seg.events:
        sig[idx] *= (p ** (m + 1) - 1) // (p - 1)
    tail = seg.rem > 1
    if tail.any():
        sig[tail] *= seg.rem[tail] + 1
    return sig


def strided_prime_powers(
    n0: int, size: int, stride: int
) -> Iterator[tuple[int, int, np.ndarray | None]]:
    """The odd base primes of the integers n0 + stride * i, 0 <= i < size.

    stride is 1 or 2.  Yields (p, i0, exps), in ascending order, for each
    odd prime p with p^2 at most the largest integer that divides one of
    the integers: its
    multiples are the positions i0::p, i0 = -n0 * stride^-1 mod p, and
    exps[k] is the exponent of p in the integer at position i0 + k * p,
    or exps is None when every exponent is 1.  The multiples of p^m are
    the progression from -n0 * stride^-1 mod p^m in steps of p^m.
    """
    if size <= 0:
        return
    n_max = n0 + stride * (size - 1)
    base = _dense_primes(math.isqrt(n_max))
    for p in base[1:].tolist():
        # stride^-1 mod p^m is 1 for stride 1 and (p^m + 1) / 2 for stride 2.
        i0 = (-n0 * ((p + 1) // 2 if stride == 2 else 1)) % p
        if i0 >= size:
            continue
        exps = None
        pm = p * p
        while (i0m := (-n0 * ((pm + 1) // 2 if stride == 2 else 1)) % pm) < size:
            if exps is None:
                exps = np.ones((size - 1 - i0) // p + 1, dtype=np.intp)
            exps[(i0m - i0) // p :: pm // p] += 1
            pm *= p
        yield p, i0, exps


@lru_cache(maxsize=1 << 12)
def _sigma_rows(p: int, m_max: int) -> np.ndarray:
    """sigma(p^m) (row 0) and p^m (row 1) for m = 0..m_max, int64, read-only."""
    table = np.array(
        [[(p ** (m + 1) - 1) // (p - 1) for m in range(m_max + 1)],
         [p**m for m in range(m_max + 1)]],
        dtype=np.int64,
    )
    table.flags.writeable = False
    return table


def sigma_strided(n0: int, size: int, stride: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, sigma(n)) for n = n0 + stride * i, 0 <= i < size, exact int64; stride 1 or 2.

    Two accumulators hold the sigma part and the smooth part of every
    integer; each odd base prime multiplies its strided view of both by
    the sigma(p^m) and p^m its exponents pick.  Where n can be even, its
    2-adic part is low = n & -n, with sigma(low) = 2 low - 1.  What is
    left, n // smooth, is 1 or one prime q above sqrt(n), which adds the
    factor q + 1 (the factor is 1 where nothing is left).  Every partial
    product divides n or sigma(n), both below 2^63 for n <= MAX_RANGE_END,
    so all of it is exact int64.
    """
    n_values = n0 + stride * np.arange(size, dtype=np.int64)
    sig = np.ones(size, dtype=np.int64)
    smooth = np.ones(size, dtype=np.int64)
    for p, i0, exps in strided_prime_powers(n0, size, stride):
        if exps is None:
            sig[i0::p] *= p + 1
            smooth[i0::p] *= p
        else:
            rows = _sigma_rows(p, int(exps.max()))
            sig[i0::p] *= rows[0][exps]
            smooth[i0::p] *= rows[1][exps]
    if stride == 1 or n0 % 2 == 0:
        low = n_values & -n_values
        smooth *= low
        low *= 2
        low -= 1
        sig *= low
    cofactor = n_values // smooth
    ones = np.flatnonzero(cofactor == 1)
    cofactor += 1
    cofactor[ones] = 1
    sig *= cofactor
    return n_values, sig


def iter_sigma_segments(
    lo: int,
    hi: int,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    parity: int | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (n_values, sigma_values) per segment over [lo, hi].

    With ``parity`` (0 or 1) the arrays hold only the n of [lo, hi] with
    n % 2 == parity, and segments without one are skipped.
    """
    if lo < 1:
        raise ParameterError(f"range start must be >= 1, got {lo}")
    if parity not in (None, 0, 1):
        raise ParameterError(f"parity must be None, 0 or 1, got {parity!r}")
    if hi < lo:
        return
    check_range(lo, hi, segment_size)
    for seg_lo, seg_hi in aligned_blocks(lo, hi, segment_size):
        if parity is None:
            yield sigma_strided(seg_lo, seg_hi - seg_lo + 1, 1)
        else:
            n0 = seg_lo + (seg_lo - parity) % 2
            if n0 <= seg_hi:
                yield sigma_strided(n0, (seg_hi - n0) // 2 + 1, 2)
