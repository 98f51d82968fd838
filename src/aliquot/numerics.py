"""Correctly rounded summation and certified-value arithmetic.

Every long sum in this package flows through one block engine: the range
is cut at multiples of a block size (aligned_blocks), each block is summed
correctly rounded on its own (map_blocks, on any number of threads), and
the block results are merged in ascending order (combine_blocks).  A value
is always carried together with a rigorous absolute error radius covering
floating-point effects; truncation tails of infinite series are added by
the callers that know them.

Block sums use exact_sum, a vectorized small superaccumulator (after
R. Neal, arXiv:1505.05571, and Demmel & Nguyen, ARITH 2013): terms are
grouped by exponent and split exactly by a bit mask into a high piece
(the top 20 fraction bits) and a low piece (the other 32), each on its
group's fixed grid, and the pieces are added per group with no rounding
at all.  The exact group totals are then rounded once by math.fsum.
Correct rounding of the same exact real gives one answer, so exact_sum
returns the same bits as math.fsum over the terms, on any machine and in
any term order; stored checkpoints and reference certificates keep their
bits.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .errors import ParameterError

# Machine epsilon used in all error budgets (2^-52, the spacing of doubles
# around 1; deliberately the conservative choice, twice the unit roundoff).
EPS = 2.0 ** -52

# parts_to_certified's allowance, in EPS per term, for the roundings that
# form each term; alpha's and beta's docstrings bound their terms inside it.
OPS_ALLOWANCE = 64

# exact_sum: a term's high piece keeps its sign, its exponent and the top
# 20 of its 52 fraction bits.
_SUM_CHUNK = 1 << 15  # cache-sized; the exactness argument allows up to 2^20
_FALLBACK_EXP = 1023 + 900  # E of 2^900
_HI_MASK = -(1 << 32)


@dataclass(frozen=True)
class CertifiedValue:
    """A computed real number with a rigorous absolute error radius.

    The true quantity lies in [value - error_radius, value + error_radius].
    Arithmetic on certified values only ever grows the radius.
    """

    value: float
    error_radius: float

    def __post_init__(self):
        if not (self.error_radius >= 0.0):
            raise ParameterError(f"error_radius must be >= 0, got {self.error_radius}")

    @property
    def lower(self) -> float:
        return self.value - self.error_radius

    @property
    def upper(self) -> float:
        return self.value + self.error_radius

    def widened(self, extra: float) -> "CertifiedValue":
        """Same value with ``extra`` (>= 0) added to the radius."""
        if extra < 0:
            raise ParameterError("widening amount must be >= 0")
        return CertifiedValue(self.value, self.error_radius + extra)


ZERO = CertifiedValue(0.0, 0.0)


def exact_sum(values) -> float:
    """The correctly rounded sum of a float array: bit for bit math.fsum.

    The terms are processed in chunks of _SUM_CHUNK (sized for the cache;
    the argument below allows up to 2^20).  Let x be a term with biased
    exponent E, so |x| < 2^(E - 1022), and x is a multiple of
    u = 2^(max(E, 1) - 1075).  hi is x with the low 32 bits of its
    fraction cleared (its sign, exponent and top 20 fraction bits kept):
    a multiple of 2^32 u with |hi| <= |x| < 2^(E - 1022), so fewer than
    2^21 such units.  lo = x - hi is exact (Sterbenz: hi <= x <= 2 hi for
    x > 0, and alike for x < 0; for a subnormal below 2^32 u, hi is zero
    and lo = x): it is the cleared bits, fewer than 2^32 units of u.
    Terms are grouped by E (np.bincount), so within a group every partial
    sum of at most 2^20 hi pieces is an integer of fewer than 2^41 units
    of 2^32 u, and of lo pieces one of fewer than 2^52 units of u: all are
    doubles, and both group sums are exact in whatever order they
    accumulate.  math.fsum over these exact totals then rounds their
    exact real sum, which is the exact sum of the terms, once and
    correctly, exactly as math.fsum over the terms would.

    Terms that are not finite or reach 2^900 (where a group total could
    overflow) send the whole sum to math.fsum unchanged, and so does a
    zero result, whose sign follows the running Python's fsum.
    """
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    totals = []
    for start in range(0, x.size, _SUM_CHUNK):
        chunk = x[start : start + _SUM_CHUNK]
        bits = chunk.view(np.int64)
        exp = bits >> 52
        exp &= 0x7FF
        if exp.max() >= _FALLBACK_EXP:
            return math.fsum(x.tolist())
        hi = (bits & _HI_MASK).view(np.float64)
        lo = chunk - hi
        totals.append(np.bincount(exp, weights=hi))
        totals.append(np.bincount(exp, weights=lo))
    if not totals:
        return 0.0
    parts = np.concatenate(totals)
    total = math.fsum(parts[parts != 0.0].tolist())
    if total == 0.0:
        return math.fsum(x.tolist())
    return total


def compensated_sum(terms) -> CertifiedValue:
    """Sum a finite sequence of floats with an error-free transformation.

    The value is the correctly rounded sum (exact_sum, bit-identical to
    math.fsum).  The reported radius uses the conservative a-posteriori
    budget n * EPS * sum(|t|), which dominates the true rounding error.

    Raises ParameterError on a non-finite term, identifying its index.
    """
    arr = np.asarray(terms, dtype=np.float64)
    if arr.ndim != 1:
        arr = arr.ravel()
    n = arr.size
    if n == 0:
        return ZERO
    finite = np.isfinite(arr)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise ParameterError(f"non-finite term at index {bad}: {arr[bad]!r}")
    value = exact_sum(arr)
    abs_sum = float(np.abs(arr).sum())
    return CertifiedValue(value, n * EPS * abs_sum)


def certified_combine(a: CertifiedValue, b: CertifiedValue, kind: str = "add") -> CertifiedValue:
    """Add or subtract two certified values.

    Radii add, plus a rounding allowance EPS * |result| for the one
    floating-point operation performed.
    """
    if kind == "add":
        value = a.value + b.value
    elif kind == "subtract":
        value = a.value - b.value
    else:
        raise ParameterError(f"kind must be 'add' or 'subtract', got {kind!r}")
    return CertifiedValue(value, a.error_radius + b.error_radius + EPS * abs(value))


def certified_product(a: CertifiedValue, b: CertifiedValue) -> CertifiedValue:
    """Product of two certified values, radius by the bilinear expansion."""
    value = a.value * b.value
    radius = (
        abs(a.value) * b.error_radius
        + abs(b.value) * a.error_radius
        + a.error_radius * b.error_radius
        + EPS * abs(value)
    )
    return CertifiedValue(value, radius)


def certified_quotient(cv: CertifiedValue, k: int) -> CertifiedValue:
    """cv / k for a positive integer k, plus one rounding of the quotient."""
    value = cv.value / k
    return CertifiedValue(value, cv.error_radius / k + EPS * abs(value))


def combine_blocks(block_values: Sequence[CertifiedValue]) -> CertifiedValue:
    """Merge per-block certified sums in the given (ascending) order."""
    acc = ZERO
    for cv in block_values:
        acc = certified_combine(acc, cv, "add")
    return acc


# The block size of every pass (alpha, beta, the means) unless a caller
# passes its own; alq's --block-size default repeats it.
DEFAULT_BLOCK_SIZE = 1 << 20


def aligned_blocks(lo: int, hi: int, block_size: int) -> list[tuple[int, int]]:
    """The inclusive pieces of [lo, hi] cut at multiples of ``block_size``.

    Piece k is the range's part of [k * block_size, (k + 1) * block_size - 1],
    so a block's bounds, and hence its sum, depend only on block_size and
    never on where a run starts or how it is split between workers.  Empty
    when hi < lo.
    """
    if block_size <= 0:
        raise ParameterError(f"block_size must be positive, got {block_size}")
    if hi < lo:
        return []
    return [
        (max(lo, k * block_size), min(hi, (k + 1) * block_size - 1))
        for k in range(lo // block_size, hi // block_size + 1)
    ]


def map_blocks(
    blocks: Sequence[tuple[int, int]],
    eval_block: Callable[[int, int], Any],
    workers: int = 1,
    on_block: Callable[[Any], None] | None = None,
) -> list:
    """Evaluate ``eval_block(lo, hi)`` for every block, results in block order.

    ``on_block(result)`` runs in the caller's thread, in block order, as
    each result arrives, so a caller can persist progress while later
    blocks still run.  If a block raises, every block before it has been
    passed to on_block, blocks not yet started are cancelled and the
    exception propagates.

    Workers (threads) only add concurrency; the returned list (and hence
    any ordered merge of it) is bit-identical for every worker count
    because each block is evaluated independently by a pure function.
    A worker count below 1 is a ParameterError.
    """
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")

    def drain(results) -> list:
        out = []
        for result in results:
            if on_block is not None:
                on_block(result)
            out.append(result)
        return out

    if workers <= 1 or len(blocks) <= 1:
        return drain(eval_block(lo, hi) for lo, hi in blocks)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return drain(pool.map(lambda b: eval_block(*b), blocks))


def block_sum_parts(values: np.ndarray) -> tuple[float, float, int]:
    """Raw pieces of a compensated block sum: (value, abs_sum, n_terms).

    Helper for sieve-driven kernels that assemble CertifiedValues for
    several quantities out of one streamed segment.  The value is
    exact_sum (the bits of math.fsum); abs_sum is numpy's pairwise sum,
    whose bits checkpoints store, so it keeps that exact evaluation.
    """
    n = values.size
    if n == 0:
        return 0.0, 0.0, 0
    return exact_sum(values), float(np.abs(values).sum()), n


def parts_to_certified(value: float, abs_sum: float, n_terms: int) -> CertifiedValue:
    """CertifiedValue from block_sum_parts output.

    OPS_ALLOWANCE covers the relative error of computing each term from
    exact inputs (a bounded number of roundings per term), on top of the
    summation budget.
    """
    return CertifiedValue(value, (n_terms + OPS_ALLOWANCE) * EPS * abs_sum)
