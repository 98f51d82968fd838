"""Correctly rounded summation and certified-value arithmetic.

Every long sum in this package flows through one block engine: the range
is cut at multiples of a block size (aligned_blocks), each block is summed
correctly rounded on its own (map_blocks: serially, or on forked worker
processes when a pass with more than one worker is large enough), and
the block results are merged in ascending order (combine_blocks).  A value
is always carried together with a rigorous absolute error radius covering
floating-point effects; truncation tails of infinite series are added by
the callers that know them.

Block sums use exact_sum, error-free level extraction (ExtractVector of
S. M. Rump, T. Ogita and S. Oishi, "Accurate floating-point summation
part I: faithful rounding", SIAM J. Sci. Comput. 31(1), 2008): each chunk
of terms is split, level by level, into pieces on one power-of-two grid
per level, which numpy adds with no rounding at all, and the exact level
totals are rounded once by math.fsum.  Correct rounding of the same exact
real gives one answer, so exact_sum returns the same bits as math.fsum
over the terms, on any machine and in any term order; stored checkpoints
and reference certificates keep their bits.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral
from typing import Any, Callable, Sequence

import numpy as np

from .errors import ParameterError, reject

# Machine epsilon used in all error budgets (2^-52, the spacing of doubles
# around 1; deliberately the conservative choice, twice the unit roundoff).
EPS = 2.0 ** -52

# parts_to_certified's allowance, in EPS per term, for the roundings that
# form each term; alpha's and beta's docstrings bound their terms inside it.
OPS_ALLOWANCE = 64

# exact_sum: sigma = 2^(ceil(log2 max|r|) + _SIGMA_BITS) for a chunk's
# residual r.
_SIGMA_BITS = 15
# Cache-sized; it may not exceed 2^_SIGMA_BITS, or a level's q.sum() can
# round.
_SUM_CHUNK = 1 << 15
# Terms that reach this send the sum to math.fsum (sigma and the level
# totals then stay far below overflow).
_FALLBACK_ABS = 2.0**900
# Levels one chunk can take: k starts at most 900 + _SIGMA_BITS and falls
# by at least 53 - _SIGMA_BITS = 38 per level, so after 51 levels it is
# clamped at -1022, where one more level leaves no residual.
_MAX_LEVELS = 52
_UNDERFLOW = 2.0**-1070  # see CertifiedValue


@dataclass(frozen=True)
class CertifiedValue:
    """A real number in [value - error_radius, value + error_radius], taken
    exactly: the package's one interval type, in midpoint-radius form (S. M.
    Rump, "Fast and parallel interval arithmetic", BIT 39, 1999).  ``lower``
    and ``upper`` are its ends rounded outward.

    +, - and * take a certified value, a float, an int (exact where a float
    holds it) or a Fraction (rounded, radius EPS |c|); / an int in [1, 2^53];
    exp() is e to the interval.  A result's value is rounded to nearest,
    within u |value| (u = EPS/2); its radius, the operands' radii carried in
    at most three roundings per term, gains EPS |value|, whose spare half
    covers those roundings while the radius is at most |value|/8 (in all of
    the certificate's sums and products); a larger one is raised by 8 EPS of
    itself.  _UNDERFLOW covers the at most six roundings below 2^-1022.  A
    result past the float range is a ParameterError.
    """

    value: float
    error_radius: float

    def __post_init__(self):
        reject(not (math.isfinite(self.value) and 0.0 <= self.error_radius < math.inf),
               "a certified value must be finite, with a radius >= 0", self)

    @property
    def lower(self) -> float:
        return math.nextafter(self.value - self.error_radius, -math.inf)

    @property
    def upper(self) -> float:
        return math.nextafter(self.value + self.error_radius, math.inf)

    def widened(self, extra: float) -> CertifiedValue:
        """Same value with ``extra`` (>= 0) added to the radius."""
        reject(extra < 0, "widening amount must be >= 0", extra)
        return CertifiedValue(self.value, self.error_radius + extra)

    def __add__(self, other) -> CertifiedValue:
        b = _certified(other)
        return _rounded(self.value + b.value, self.error_radius + b.error_radius)

    __radd__ = __add__

    def __sub__(self, other) -> CertifiedValue:
        b = _certified(other)
        return _rounded(self.value - b.value, self.error_radius + b.error_radius)

    def __rsub__(self, other) -> CertifiedValue:
        return _certified(other) - self

    def __mul__(self, other) -> CertifiedValue:
        a, b = self, _certified(other)
        return _rounded(a.value * b.value, abs(a.value) * b.error_radius
                        + abs(b.value) * a.error_radius + a.error_radius * b.error_radius)

    __rmul__ = __mul__

    def __truediv__(self, k: int) -> CertifiedValue:
        reject(not (isinstance(k, Integral) and 0 < k <= 2**53),
               "a certified value divides by an int in [1, 2^53]", k)
        return _rounded(self.value / k, self.error_radius / k)

    def exp(self) -> CertifiedValue:
        """e^x over the interval: the radius reaches the exps of the outward
        ends, each within one ulp (libm), so 2 EPS of the upper one covers both."""
        value = math.exp(self.value)
        lo, hi = math.exp(self.lower), math.exp(self.upper)
        return _rounded(value, max(hi - value, value - lo) + 2.0 * EPS * hi)


def _certified(x) -> CertifiedValue:
    """An operand as a certified value (the class docstring)."""
    if isinstance(x, CertifiedValue):
        return x
    if not isinstance(x, (float, Integral, Fraction)):
        raise TypeError(f"a certified value does not take a {type(x).__name__}")
    exact = isinstance(x, float) or isinstance(x, Integral) and float(x) == x
    return CertifiedValue(float(x), 0.0 if exact else EPS * abs(float(x)) + _UNDERFLOW)


def _rounded(value: float, radius: float) -> CertifiedValue:
    """A result with the allowances of the CertifiedValue docstring."""
    out = radius + EPS * abs(value)
    if not 8.0 * radius <= abs(value):
        out += 8.0 * EPS * out
    return CertifiedValue(value, out + _UNDERFLOW)


ZERO = CertifiedValue(0.0, 0.0)


def exact_sum(values) -> float:
    """The correctly rounded sum of a float array: bit for bit math.fsum.

    Error-free extraction, ExtractVector of Rump, Ogita & Oishi ("Accurate
    floating-point summation part I: faithful rounding", SIAM J. Sci.
    Comput. 31(1), 2008), on chunks of n <= 2^M terms (M = _SIGMA_BITS =
    15, n <= _SUM_CHUNK).  A chunk's residual r starts as its terms.  While
    r is not zero, take sigma = 2^k with k = max(ceil(log2 max|r|) + M,
    -1022), so |r| <= 2^-M sigma, form q = (r + sigma) - sigma and
    r <- r - q, and keep q's sum as one level total:

    * r + sigma lies in [sigma/2, 3 sigma/2], where the doubles are
      multiples of 2^(k-53), and subtracting sigma from its rounding is
      exact (Sterbenz), so q is a multiple of 2^(k-53).  Rounding is
      monotone and sigma -+ 2^-M sigma are doubles, so |q| <= 2^-M sigma.
    * q is r rounded to the nearest point of a grid through 0, so
      |r - q| <= |r|, and both are multiples of the spacing of the doubles
      at r (at most 2^(k-M-52), a power of two dividing 2^(k-53)), so
      r - q is a double: the split is exact.  Also |r - q| <= 2^(k-53),
      half the grid's widest step.
    * Any partial sum of the n <= 2^M pieces q is a multiple of 2^(k-53)
      of magnitude at most 2^M * 2^-M sigma = 2^53 such units: a double.
      q.sum() is exact in numpy's pairwise order or any other.
    * Each level leaves |r| <= 2^(k-53), so k falls by at least 53 - M;
      at k = -1022 the doubles around sigma are spaced 2^-1074, which
      divides every double, so q = r and the residual is zero.  A chunk
      takes at most _MAX_LEVELS levels; more means sigma was wrong, and
      raises rather than loops.

    The level totals sum exactly to the terms' sum, and math.fsum over them
    rounds that real once and correctly, as math.fsum over the terms would.

    Terms that are not finite or reach 2^900 send the whole sum to
    math.fsum unchanged, and so does a zero result, whose sign follows the
    running Python's fsum.
    """
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    residual = np.empty(min(x.size, _SUM_CHUNK))
    level = np.empty_like(residual)
    totals = []
    for start in range(0, x.size, _SUM_CHUNK):
        r = x[start : start + _SUM_CHUNK]
        top = max(r.max(), -r.min())
        if not top < _FALLBACK_ABS:
            return math.fsum(x.tolist())
        q = level[: r.size]
        levels = 0
        while top != 0.0:
            if levels == _MAX_LEVELS:
                raise RuntimeError(f"exact_sum: residual left after {_MAX_LEVELS} levels")
            levels += 1
            frac, exp = math.frexp(top)
            sigma = math.ldexp(1.0, max(exp - (frac == 0.5) + _SIGMA_BITS, -1022))
            np.add(r, sigma, out=q)
            q -= sigma
            r = np.subtract(r, q, out=residual[: r.size])
            totals.append(float(q.sum()))
            top = max(r.max(), -r.min())
    total = math.fsum(totals)
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


def combine_blocks(block_values: Sequence[CertifiedValue]) -> CertifiedValue:
    """Merge per-block certified sums in the given (ascending) order."""
    return sum(block_values, ZERO)


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
    reject(block_size <= 0, "block_size must be positive", block_size)
    if hi < lo:
        return []
    return [
        (max(lo, k * block_size), min(hi, (k + 1) * block_size - 1))
        for k in range(lo // block_size, hi // block_size + 1)
    ]


# A pass over fewer integers than this runs serially whatever the worker
# count.  Measured on a shared 2-vCPU Xeon (medians of 5 passes in one
# process, 2 forked workers against 1): at 6e6 integers alpha_upper_bound
# took 50-69 ms against 51-70 ms serial and beta's prime pass (J = 32)
# 109-117 ms against 80-99 ms; at 8e6 to 2^23 = 8.4e6, 58-68 against
# 62-80 ms and 89-107 against 88-126 ms; from 1e7 on, processes win.  The
# even log mean wins on processes from 4.2e6 on.  A block runs up to 1.6
# times slower in a forked worker than in the caller (alpha's block 0 at
# N = 4.2e6: 67-73 ms against 40-46 ms).
SERIAL_INTEGERS = 1 << 23


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set, or
    os.cpu_count() where the platform has no affinity call."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pass_workers(blocks: Sequence[tuple[int, int]], workers: int) -> int:
    """How many processes map_blocks runs these blocks on; 1 is serial.

    min(workers, len(blocks), usable_cpus()), or 1 for blocks spanning
    fewer than SERIAL_INTEGERS integers, or when the caller runs other
    threads, since a forked worker could inherit a lock one of them holds.
    A worker count below 1 is a ParameterError.
    """
    reject(workers < 1, "workers must be >= 1", workers)
    count = min(workers, len(blocks), usable_cpus())
    if count <= 1 or sum(hi - lo + 1 for lo, hi in blocks) < SERIAL_INTEGERS:
        return 1
    return 1 if threading.active_count() > 1 else count


def map_blocks(
    blocks: Sequence[tuple[int, int]],
    eval_block: Callable[[int, int], Any],
    workers: int = 1,
    on_block: Callable[[Any], None] | None = None,
) -> tuple[list, int]:
    """Evaluate ``eval_block(lo, hi)`` for every block: the results in
    block order, and the number of processes that ran them.

    ``on_block(result)`` runs in the caller, in block order, as each
    result arrives, so a caller can persist progress while later blocks
    still run.  If a block raises, every block before it has been passed
    to on_block, no later block is passed and the exception propagates.

    The process count is pass_workers'.  At 1 the caller evaluates every
    block.  Above 1 the pass forks that many worker processes, which
    inherit eval_block (it is never pickled; its results are) and take
    blocks one at a time as they come free; every worker has exited and
    been joined before map_blocks returns or raises.  Each block is
    evaluated independently by a pure function, so the results (and hence
    any ordered merge of them) are bit-identical for every process count.
    """
    out = []

    def keep(result) -> None:
        if on_block is not None:
            on_block(result)
        out.append(result)

    count = pass_workers(blocks, workers)
    if count == 1:
        for lo, hi in blocks:
            keep(eval_block(lo, hi))
    else:
        _map_forked(blocks, eval_block, count, keep)
    return out, count


def _map_forked(blocks, eval_block, workers: int, keep) -> None:
    """map_blocks on ``workers`` forked processes: keep(result) for each
    block, in order.

    Each worker has its own pipe.  The caller keeps two block indices in
    flight per worker, buffers results that arrive early, and raises a
    block's exception once every block before it has been kept.  On any
    exit the workers are terminated and joined.  A worker that dies
    without replying closes its pipe, which raises a RuntimeError here; a
    caller that dies closes the workers' pipes, and they exit.
    """
    import multiprocessing
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context("fork")
    ends, procs = [], []  # the caller's pipe ends and their workers
    try:
        for _ in range(workers):
            ours, theirs = ctx.Pipe()
            ends.append(ours)
            proc = ctx.Process(target=_serve, args=(theirs, list(ends), blocks, eval_block),
                               daemon=True)
            proc.start()
            procs.append(proc)
            theirs.close()
        sent, kept, arrived, failed = 0, 0, {}, False

        def give(end) -> None:
            """Send end's worker the next block, unless a block has failed."""
            nonlocal sent
            if not failed and sent < len(blocks):
                try:
                    end.send(sent)
                except OSError:
                    lost(end)
                sent += 1

        def lost(end):
            """end's worker has gone: its pipe closed with no reply."""
            proc = procs[ends.index(end)]
            proc.join()
            raise RuntimeError(f"a block worker exited with code {proc.exitcode}") from None

        for end in ends * 2:
            give(end)
        while kept < len(blocks):
            for end in wait(ends):
                try:
                    index, ok, value = end.recv()
                except (EOFError, OSError):
                    lost(end)
                arrived[index] = ok, value
                failed |= not ok  # every block before a failed one is already sent
                give(end)
            while kept in arrived:
                ok, value = arrived.pop(kept)
                if not ok:
                    exc, trace = value
                    exc.__cause__ = RuntimeError(f"block {blocks[kept]} failed in a worker "
                                                 f"process:\n{trace}")
                    raise exc
                keep(value)
                kept += 1
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.join()
        for end in ends:
            end.close()


def _serve(conn, ends, blocks, eval_block) -> None:
    """A worker of _map_forked: evaluate the blocks whose indices arrive on
    conn and send back (index, True, result) or (index, False, (exception,
    traceback text)); the caller raises the exception from the text.

    It closes the caller's pipe ends it inherited, so that the caller's
    exit closes its pipe, and leaves Ctrl-C to the caller, which stops it.
    An exception that would not survive pickling is sent as a RuntimeError
    naming it.
    """
    import pickle
    import signal
    import traceback

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    for end in ends:
        end.close()
    while True:
        try:
            index = conn.recv()
        except (EOFError, OSError):  # the caller is done, or gone
            return
        try:
            reply = (index, True, eval_block(*blocks[index]))
        except Exception as exc:
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                exc = RuntimeError(f"{type(exc).__name__}: {exc}")
            reply = (index, False, (exc, traceback.format_exc().rstrip()))
        try:
            conn.send(reply)
        except OSError:  # the caller has gone
            return


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
