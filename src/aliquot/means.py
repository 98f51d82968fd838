"""Empirical means of s(n)/n by residue class, with their exact limits.

The arithmetic mean of s(n)/n over n <= N converges to pi^2/6 - 1 (and to
5pi^2/24 - 1, 3pi^2/24 - 1 along even and odd integers).  The logarithmic
mean over even integers converges to the negative growth constant this
package certifies; over all integers it slowly diverges downward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import ParameterError
from .numerics import (
    DEFAULT_BLOCK_SIZE,
    ZERO,
    CertifiedValue,
    aligned_blocks,
    block_sum_parts,
    certified_quotient,
    combine_blocks,
    map_blocks,
    parts_to_certified,
)
from .primes import base_primes, check_range, iter_sigma_segments

MeanClass = Literal["all", "even", "odd"]

_CLASSES = ("all", "even", "odd")


def closed_form(mean_class: MeanClass) -> float:
    """Limit of the arithmetic mean for the class."""
    pi2 = math.pi * math.pi
    if mean_class == "all":
        return pi2 / 6.0 - 1.0
    if mean_class == "even":
        return 5.0 * pi2 / 24.0 - 1.0
    if mean_class == "odd":
        return 3.0 * pi2 / 24.0 - 1.0
    raise ParameterError(f"class must be one of {_CLASSES}, got {mean_class!r}")


_EMPTY = (1, 0)  # an empty range


def _class_ranges(mean_class: MeanClass, N: int) -> tuple[int | None, tuple, tuple, int]:
    """A class's parity, the arithmetic mean's range of n, the log mean's
    range of n and the log mean's term count."""
    if mean_class == "all":
        return None, (1, N), (2, N), N - 1
    if mean_class == "even":
        return 0, (2, 2 * N), (2, N), N // 2
    if mean_class == "odd":
        return 1, (1, 2 * N - 1), (3, N), (N + 1) // 2 - 1
    raise ParameterError(f"class must be one of {_CLASSES}, got {mean_class!r}")


def _check_N(name: str, N: int, least: int) -> None:
    if N < least:
        raise ParameterError(f"{name} requires N >= {least}, got {N}")


def _sum_over_ranges(
    parity: int | None,
    ratio_range: tuple[int, int],
    log_range: tuple[int, int],
    block_size: int,
    workers: int,
) -> tuple[CertifiedValue, CertifiedValue, str]:
    """Blockwise compensated sums of s(n)/n over ratio_range and of
    log(s(n)/n) over log_range (inclusive ranges; (1, 0) is empty), and
    the block engine that ran them.

    ``parity`` restricts to n with n % 2 == parity; n = 1 is always
    skipped (s(1) = 0 contributes nothing to sums and has no logarithm).
    sigma(n) is computed once per n of the two ranges' span, in blocks
    aligned to absolute multiples of block_size.  A block adds one term
    to a sum exactly when it meets that sum's range, summing its members
    in that range, so each sum is the one that sum alone over
    aligned_blocks(range) gives: it depends only on block_size, never on
    the other range or the worker count.
    """
    ranges = [r for r in (ratio_range, log_range) if r[0] <= r[1]]
    if not ranges:
        return ZERO, ZERO, "serial"
    lo = min(r_lo for r_lo, _ in ranges)
    hi = max(r_hi for _, r_hi in ranges)
    check_range(hi, block_size)

    def eval_block(b_lo: int, b_hi: int) -> tuple[CertifiedValue | None, ...]:
        # An aligned block is exactly one segment, or none when it holds no
        # integer of the wanted parity.
        segment = next(iter_sigma_segments(b_lo, b_hi, block_size, parity, ratio=True), None)
        n_vals, ratios = segment if segment is not None else (np.empty(0, np.int64), np.empty(0))
        sums = []
        for kind, (r_lo, r_hi) in (("ratio", ratio_range), ("log", log_range)):
            if b_hi < r_lo or r_hi < b_lo:
                sums.append(None)
                continue
            # n_vals ascends, so the members of [r_lo, r_hi] are one slice.
            values = ratios[
                np.searchsorted(n_vals, max(r_lo, 2)) : np.searchsorted(n_vals, r_hi, side="right")
            ]
            if kind == "log":
                values = np.log(values)
            sums.append(parts_to_certified(*block_sum_parts(values)))
        return tuple(sums)

    base_primes(hi)  # built once, before any worker is forked
    results, engine = map_blocks(aligned_blocks(lo, hi, block_size), eval_block, workers)
    sums = (combine_blocks([r[k] for r in results if r[k] is not None]) for k in (0, 1))
    return *sums, engine


def arithmetic_mean(
    mean_class: MeanClass,
    N: int,
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
    workers: int = 1,
) -> CertifiedValue:
    """(1/N) * sum over n = 1..N of s(n)/n, s(2n)/(2n), or s(2n-1)/(2n-1)."""
    _check_N("arithmetic_mean", N, 2)
    parity, ratio_range, _, _ = _class_ranges(mean_class, N)
    total, _, _ = _sum_over_ranges(parity, ratio_range, _EMPTY, block_size, workers)
    return certified_quotient(total, N)


def log_mean(
    mean_class: MeanClass,
    N: int,
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
    workers: int = 1,
) -> CertifiedValue:
    """Average of log(s(n)/n) over the class members up to N.

    Class even: members 2, 4, ..., so the mean is over floor(N/2) terms;
    exp of it is the geometric mean of the ratios.  n = 1 is skipped for
    classes all and odd (s(1) = 0 has no logarithm) and the divisor counts
    the summed terms.
    """
    _check_N("log_mean", N, 4)
    parity, _, log_range, count = _class_ranges(mean_class, N)
    _, total, _ = _sum_over_ranges(parity, _EMPTY, log_range, block_size, workers)
    return certified_quotient(total, count)


@dataclass
class MeanReport:
    mean_class: str
    N: int
    arithmetic: CertifiedValue
    logarithmic: CertifiedValue
    closed_form_limit: float
    engine: str = "serial"  # the block engine the pass ran on

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "class": self.mean_class,
            "N": self.N,
            "arithmetic_mean": self.arithmetic.value,
            "arithmetic_error_radius": self.arithmetic.error_radius,
            "log_mean": self.logarithmic.value,
            "log_mean_error_radius": self.logarithmic.error_radius,
            "closed_form": self.closed_form_limit,
        }

    def csv_row(self) -> list:
        return [
            self.mean_class,
            self.N,
            repr(self.arithmetic.value),
            repr(self.logarithmic.value),
            repr(self.closed_form_limit),
            repr(max(self.arithmetic.error_radius, self.logarithmic.error_radius)),
        ]


CSV_HEADER = ["class", "N", "arithmetic_mean", "log_mean", "closed_form", "error_radius"]


def mean_report(
    mean_class: MeanClass, N: int, *, block_size: int = DEFAULT_BLOCK_SIZE, workers: int = 1
) -> MeanReport:
    """arithmetic_mean and log_mean of a class at N, bit for bit, from one pass.

    The log mean's range is a prefix of the arithmetic mean's (n = 1
    aside), so each block's sigma values serve both sums.
    """
    # The same errors, in the same order, as arithmetic_mean then log_mean.
    _check_N("arithmetic_mean", N, 2)
    parity, ratio_range, log_range, count = _class_ranges(mean_class, N)
    _check_N("log_mean", N, 4)
    ratio_total, log_total, engine = _sum_over_ranges(
        parity, ratio_range, log_range, block_size, workers)
    return MeanReport(
        mean_class,
        N,
        certified_quotient(ratio_total, N),
        certified_quotient(log_total, count),
        closed_form(mean_class),
        engine,
    )
