"""Segmented sieving: prime streams and factored integer ranges.

Ranges are processed in cache-sized segments, and memory is bounded by
the segment size, never by the range length.  The prime sieve
(iter_prime_segments) marks odd numbers only, half a segment's length,
and puts the prime 2 back where a segment holds it.  A segment of integers
n0, n0 + stride, ... (stride 1 or 2) is factored along the strided walk
(_prime_power_starts): it visits the odd base primes once and gives, per
prime p, the start of the multiples of p, p^2, ... as strided views
(i0::p, i1::p^2, ...), so a kernel applies each prime power with in-place
strided operations and no per-(p, m) scatter.  Beta's odd-sum oracle
consumes it through strided_prime_powers (the exponents of p as one
array per prime); the exact sigma kernel (_sigma_ratios, under
iter_sigma_segments) consumes the starts directly.  2-adic parts and the
large cofactor are left to them.  The sigma kernel accumulates in uint32
where that is provably exact and in int64 past it, and finishes each tile
of SIGMA_TILE integers, up to the means' (sigma(n) - n) / n, while the
tile is in cache.

The events path (iter_factor_segments, stride 1 only) is the walk's
independent oracle: it divides out exact prime powers, listing one
(p, m, positions) event per prime power, and whatever remains after all
base primes is either 1 or a single prime above sqrt(hi).  It feeds
sigma_of_segment, which the tests check the sigma kernel's ratios against.

Every block cuts its base primes from one table of the primes up to
isqrt(MAX_RANGE_END) = 10^5 (base_primes), which each process builds on
first use, so a pass needs no preparation before it forks its workers.
prime_pass is the one pass over the primes: it sieves each aligned block
once and hands the block's primes to every kernel that takes that block
(alpha's terms, beta's log sums).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .arith import sigma_prime_power
from .errors import ResourceError, reject, shown
from .numerics import DEFAULT_BLOCK_SIZE, aligned_blocks, map_blocks

MAX_SEGMENT_SIZE = 1 << 25
MAX_RANGE_END = 10**10
# Integers per tile of the sigma kernel: on a Xeon with 2 MB of L2 per core,
# 1 << 14 to 1 << 16 ran alike on the means and 1 << 17 and up ran slower.
SIGMA_TILE = 1 << 16
# The largest n_max for uint32 sigma accumulators: n (1 + ln n) < 2^32 there.
UINT32_N_MAX = 210_000_000


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


@lru_cache(maxsize=1)
def _base_table() -> np.ndarray:
    """The primes <= isqrt(MAX_RANGE_END), one read-only table per process."""
    table = _dense_primes(math.isqrt(MAX_RANGE_END))
    table.flags.writeable = False
    return table


def base_primes(hi: int) -> np.ndarray:
    """All primes <= isqrt(hi), a prefix of the base-prime table; hi past
    MAX_RANGE_END is a ResourceError."""
    if hi > MAX_RANGE_END:
        raise ResourceError(f"range end {shown(hi)} exceeds the supported bound {MAX_RANGE_END}")
    table = _base_table()
    return table[: np.searchsorted(table, math.isqrt(hi), side="right")]


def check_range(hi: int, block_size: int) -> None:
    reject(block_size <= 0, "block size must be positive", block_size)
    if block_size > MAX_SEGMENT_SIZE:
        raise ResourceError(f"block size {shown(block_size)} exceeds the {MAX_SEGMENT_SIZE} "
                            "cap on a sieve segment; use more, smaller blocks")
    if hi > MAX_RANGE_END:
        raise ResourceError(f"range end {shown(hi)} exceeds the supported bound "
                            f"{MAX_RANGE_END}; split the computation into sub-ranges")


def iter_prime_segments(
    lo: int, hi: int, segment_size: int = DEFAULT_BLOCK_SIZE
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
    check_range(hi, segment_size)
    base = base_primes(hi)[1:]
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


def prime_pass(kernels: Sequence, block_size: int, workers: int = 1) -> int:
    """One pass over the primes for several block kernels; returns the
    number of processes it ran on (numerics.map_blocks').

    Each kernel has ``blocks``, pieces of aligned_blocks(..., block_size);
    ``kernel(lo, hi, primes)``, which gets the primes of its own block
    [lo, hi] and runs where the pass evaluates blocks, a worker process or
    the caller; and ``keep(result)``, which gets its results in block
    order, in the caller.  The pass evaluates the union of the kernels'
    blocks through numerics.map_blocks and sieves each of them once, over
    the widest of the kernels' pieces of that aligned block, so every
    kernel sees exactly the primes a sieve of its own block finds.
    """
    wanted = [{lo // block_size: (lo, hi) for lo, hi in k.blocks} for k in kernels]
    blocks = []
    for cell in sorted(set().union(*wanted)):
        pieces = [w[cell] for w in wanted if cell in w]
        blocks.append((min(lo for lo, _ in pieces), max(hi for _, hi in pieces)))

    def eval_block(lo: int, hi: int) -> list:
        # An aligned block is exactly one sieve segment.
        (primes,) = iter_prime_segments(lo, hi, segment_size=block_size)
        out = []
        for i, (k, want) in enumerate(zip(kernels, wanted)):
            own = want.get(lo // block_size)
            if own is not None:
                cut = primes[np.searchsorted(primes, own[0]) :
                             np.searchsorted(primes, own[1], side="right")]
                out.append((i, k.kernel(*own, cut)))
        return out

    def on_block(results: list) -> None:
        for i, result in results:
            kernels[i].keep(result)

    return map_blocks(blocks, eval_block, workers, on_block)[1]


def primes_in_range(lo: int, hi: int, segment_size: int = DEFAULT_BLOCK_SIZE) -> np.ndarray:
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
    lo: int, hi: int, segment_size: int = DEFAULT_BLOCK_SIZE
) -> Iterator[SegmentFactors]:
    """Factor [lo, hi] segment by segment along the events path.

    Segments are cut at multiples of segment_size (numerics.aligned_blocks),
    and the concatenated output is independent of the chosen segment size.
    """
    reject(lo < 1, "range start must be >= 1", lo)
    if hi < lo:
        return
    check_range(hi, segment_size)
    base = base_primes(hi)
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
        sig[idx] *= sigma_prime_power(p, m)
    tail = seg.rem > 1
    if tail.any():
        sig[tail] *= seg.rem[tail] + 1
    return sig


def _prime_power_starts(n0: int, size: int, stride: int) -> Iterator[tuple[int, list[int]]]:
    """The strided walk: the odd base primes of n0 + stride * i, 0 <= i < size.

    stride is 1 or 2.  Yields (p, starts), in ascending p, for each odd
    prime p <= sqrt(n_max) that divides one of the integers: the multiples
    of p^m are the positions starts[m - 1]::p^m, with
    starts[m - 1] = -n0 * stride^-1 mod p^m, for every m with a multiple
    of p^m among the integers.
    """
    if size <= 0:
        return
    n_max = n0 + stride * (size - 1)
    for p in base_primes(n_max)[1:].tolist():
        starts = []
        pm = p
        # stride^-1 mod p^m is 1 for stride 1 and (p^m + 1) / 2 for stride 2.
        while (i := (-n0 * ((pm + 1) // 2 if stride == 2 else 1)) % pm) < size:
            starts.append(i)
            pm *= p
        if starts:
            yield p, starts


def strided_prime_powers(
    n0: int, size: int, stride: int
) -> Iterator[tuple[int, int, np.ndarray | None]]:
    """The strided walk (_prime_power_starts) with exponent arrays.

    Yields (p, i0, exps): the multiples of p are the positions i0::p, and
    exps[k] is the exponent of p in the integer at position i0 + k * p,
    or exps is None when every exponent is 1.
    """
    for p, (i0, *deeper) in _prime_power_starts(n0, size, stride):
        exps = None
        if deeper:
            exps = np.ones((size - 1 - i0) // p + 1, dtype=np.intp)
            step = 1
            for i0m in deeper:
                step *= p
                exps[(i0m - i0) // p :: step] += 1
        yield p, i0, exps


def _sigma_ratios(n0: int, size: int, stride: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, (sigma(n) - n) / n) for n = n0 + stride * i, 0 <= i < size; stride 1 or 2.

    Two accumulators hold the sigma part and the smooth part of every
    integer.  Along the strided walk, each odd base prime p multiplies
    its multiples by p + 1 and p; at each multiple of p^m, m >= 2, the
    sigma part's factor sigma(p^(m-1)) becomes sigma(p^m) (an exact
    division, then a multiply) and the smooth part gains one more p.
    The walk runs once over the whole range: per tile it would repeat the
    Python loop over the primes, which costs more than the cache misses it
    saves.  The rest runs tile by tile of SIGMA_TILE integers, in cache.
    Where n can be even, its 2-adic part is low = n & -n, with
    sigma(low) = 2 low - 1.  What is left, q = n / smooth, is 1 or one
    prime above sqrt(n), which adds the factor q + 1 (the factor is 1
    where q = 1).

    Exactness.  sigma(n) / n = sum over d | n of 1/d <= H_n <= 1 + ln n.
    Every partial product divides n or sigma(n), and 2 low - 1 < 2n, so
    uint32 accumulators are exact when n_max (1 + ln n_max) < 2^32, which
    holds for n_max <= UINT32_N_MAX; a range past it keeps int64.  The
    choice depends only on the range's own n_max.  n and smooth are
    integers below 2^53, and smooth divides n, so the float64 quotient q
    is exact, and so are sigma(n) = (sigma part) * (q + 1) and
    sigma(n) - n, below 2^53 for n <= MAX_RANGE_END: each ratio is the
    correctly rounded quotient of the exact integers sigma(n) - n and n.
    """
    n_max = n0 + stride * (size - 1)
    dtype = np.uint32 if n_max <= UINT32_N_MAX else np.int64
    sig = np.ones(size, dtype=dtype)
    smooth = np.ones(size, dtype=dtype)
    for p, (i0, *deeper) in _prime_power_starts(n0, size, stride):
        sig[i0::p] *= p + 1
        smooth[i0::p] *= p
        pm, sigma_pm = p, p + 1
        for i in deeper:
            # A multiple of p^m holds sigma(p^(m-1)) from the level above.
            pm *= p
            view = sig[i::pm]
            view //= sigma_pm
            sigma_pm = sigma_pm * p + 1
            view *= sigma_pm
            smooth[i::pm] *= p
    has_two = stride == 1 or n0 % 2 == 0
    ratios = np.empty(size, dtype=np.float64)
    for start in range(0, size, SIGMA_TILE):
        stop = min(start + SIGMA_TILE, size)
        n = np.arange(n0 + stride * start, n0 + stride * stop, stride, dtype=dtype)
        tile_sig, tile_smooth = sig[start:stop], smooth[start:stop]
        if has_two:
            low = n & -n
            tile_smooth *= low
            low *= 2
            low -= 1
            tile_sig *= low
        n_float = n.astype(np.float64)
        q = tile_smooth.astype(np.float64)
        np.divide(n_float, q, out=q)
        q += q != 1
        q *= tile_sig
        q -= n_float
        np.divide(q, n_float, out=ratios[start:stop])
    return np.arange(n0, n0 + stride * size, stride, dtype=np.int64), ratios


def iter_sigma_segments(
    lo: int, hi: int, segment_size: int = DEFAULT_BLOCK_SIZE, parity: int | None = None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (n_values, ratios) per segment over [lo, hi], ratios[i] being
    (sigma(n) - n) / n for n = n_values[i] (_sigma_ratios).

    With ``parity`` (0 or 1) the arrays hold only the n of [lo, hi] with
    n % 2 == parity, and segments without one are skipped.
    """
    reject(lo < 1, "range start must be >= 1", lo)
    reject(parity not in (None, 0, 1), "parity must be None, 0 or 1", parity, form=repr)
    if hi < lo:
        return
    check_range(hi, segment_size)
    for seg_lo, seg_hi in aligned_blocks(lo, hi, segment_size):
        if parity is None:
            yield _sigma_ratios(seg_lo, seg_hi - seg_lo + 1, 1)
        else:
            n0 = seg_lo + (seg_lo - parity) % 2
            if n0 <= seg_hi:
                yield _sigma_ratios(n0, (seg_hi - n0) // 2 + 1, 2)
