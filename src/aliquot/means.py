"""Empirical means of s(n)/n by residue class, with their exact limits.

The arithmetic mean of s(n)/n over n <= N converges to pi^2/6 - 1 (and to
5pi^2/24 - 1, 3pi^2/24 - 1 along even and odd integers).  The logarithmic
mean over even integers converges to the negative growth constant this
package certifies; over all integers it slowly diverges downward.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import ParameterError
from .numerics import (
    ZERO,
    CertifiedValue,
    aligned_blocks,
    block_sum_parts,
    certified_quotient,
    combine_blocks,
    map_blocks,
    parts_to_certified,
)
from .primes import check_range, iter_sigma_segments

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


def _sum_over_range(
    lo: int,
    hi: int,
    parity: int | None,
    kind: str,
    block_size: int,
    workers: int,
) -> CertifiedValue:
    """Blockwise compensated sum of s(n)/n or log(s(n)/n) over [lo, hi].

    ``parity`` restricts to n with n % 2 == parity; n = 1 is always
    skipped (s(1) = 0 contributes nothing to sums and has no logarithm).
    Blocks are aligned to absolute multiples of block_size, so the result
    depends only on block_size, never on worker count.
    """
    check_range(lo, max(lo, hi), block_size)

    def eval_block(b_lo: int, b_hi: int) -> CertifiedValue:
        # An aligned block is exactly one segment, or none when it holds no
        # odd integer and only odd ones are wanted.
        segment = next(iter_sigma_segments(b_lo, b_hi, block_size, odd_only=(parity == 1)), None)
        if segment is None:
            return ZERO
        n_vals, sig = segment
        keep = n_vals > 1
        if parity == 0:
            keep &= n_vals % 2 == 0
        n_f = n_vals[keep].astype(np.float64)
        s_f = (sig[keep] - n_vals[keep]).astype(np.float64)
        ratios = s_f / n_f
        if kind == "log":
            ratios = np.log(ratios)
        return parts_to_certified(*block_sum_parts(ratios))

    return combine_blocks(map_blocks(aligned_blocks(lo, hi, block_size), eval_block, workers))


def arithmetic_mean(
    mean_class: MeanClass,
    N: int,
    *,
    block_size: int = 1 << 20,
    workers: int = 1,
) -> CertifiedValue:
    """(1/N) * sum over n = 1..N of s(n)/n, s(2n)/(2n), or s(2n-1)/(2n-1)."""
    if N < 2:
        raise ParameterError(f"arithmetic_mean requires N >= 2, got {N}")
    if mean_class == "all":
        total = _sum_over_range(1, N, None, "ratio", block_size, workers)
    elif mean_class == "even":
        total = _sum_over_range(2, 2 * N, 0, "ratio", block_size, workers)
    elif mean_class == "odd":
        total = _sum_over_range(1, 2 * N - 1, 1, "ratio", block_size, workers)
    else:
        raise ParameterError(f"class must be one of {_CLASSES}, got {mean_class!r}")
    return certified_quotient(total, N)


def log_mean(
    mean_class: MeanClass,
    N: int,
    *,
    block_size: int = 1 << 20,
    workers: int = 1,
) -> CertifiedValue:
    """Average of log(s(n)/n) over the class members up to N.

    Class even: members 2, 4, ..., so the mean is over floor(N/2) terms;
    exp of it is the geometric mean of the ratios.  n = 1 is skipped for
    classes all and odd (s(1) = 0 has no logarithm) and the divisor counts
    the summed terms.
    """
    if N < 4:
        raise ParameterError(f"log_mean requires N >= 4, got {N}")
    if mean_class == "all":
        total = _sum_over_range(2, N, None, "log", block_size, workers)
        count = N - 1
    elif mean_class == "even":
        total = _sum_over_range(2, N, 0, "log", block_size, workers)
        count = N // 2
    elif mean_class == "odd":
        total = _sum_over_range(3, N, 1, "log", block_size, workers)
        count = (N + 1) // 2 - 1
    else:
        raise ParameterError(f"class must be one of {_CLASSES}, got {mean_class!r}")
    return certified_quotient(total, count)


@dataclass
class MeanReport:
    mean_class: str
    N: int
    arithmetic: CertifiedValue
    logarithmic: CertifiedValue
    closed_form_limit: float

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
    mean_class: MeanClass, N: int, *, block_size: int = 1 << 20, workers: int = 1
) -> MeanReport:
    return MeanReport(
        mean_class,
        N,
        arithmetic_mean(mean_class, N, block_size=block_size, workers=workers),
        log_mean(mean_class, N, block_size=block_size, workers=workers),
        closed_form(mean_class),
    )


def report_to_json(report: MeanReport, indent: int | None = 2) -> str:
    return json.dumps(report.to_json_dict(), indent=indent)
