"""Certified upper bound for the per-prime logarithmic constant alpha.

alpha = 2*alpha(2) + sum over odd primes p of alpha(p), where, with
r_m = p^m/sigma(p^m) and u = 1/p (p^m divides n exactly with
probability (1 - u) u^m),

    alpha(p) = sum over m >= 1 of (1/p^m) * log((1+p+...+p^m)/(p+...+p^m))
             = -(1 - u) * sum over m >= 1 of u^m log r_m.

The p = 2 series is cut at depth L = 15 (rearranged so that its tail is
quadratically small, see alpha_two_part); each odd prime p <= N below
SERIES_FROM = 2^20 is row 0 of the walk that also gives beta's terms
(beta._log_beta_terms), and those from 2^20 to N come from power sums:

    upper bound = finite sums + float radius + 2*A(2,L) + 1/N,

with A(p, m) = p/(p-1) * p^(-2(m+1)) (tail_a) dominating the p = 2 tail
past depth L, and 1/N the primes past N.

Row 0.  A prime's series stops at the least M with p^(M-1) (p-1)^2/(p+1)
>= 2^44 (beta._ALPHA_CUT, evaluated in logs).  As 1 - u <= r_m < 1, the
dropped tail (1 - u) sum over m > M of u^m (-log r_m) is at most
-log(1 - u) u^(M+1) <= u^(M+2)/(1 - u) = p^-(M+1)/(p-1), which the row
adds, so its exact value lies above alpha(p) whatever M the float rule
picks.  At the rule's M the charge is at most 2^-44 (p-1)/(p^2 (p+1)),
below 2^-44 alpha(p) (the m = 1 term (1 - u) u log(1 + u) is at least
that).  In units e = EPS/2 of one rounding, log(1 - x_m) is within 5.7e
(beta's argument) and p^-m within me, so the level-m term is within
(6.7 + m)e.  The terms fall from m to m + 1 by at least
q = log(3/2)/(3 log(4/3)) < 0.47 (p = 3 is the worst case), so their
errors weigh at most 6.7 + 1/(1 - q) < 8.6e of the sum, and adding them
deepest first, each partial sum at most 1/(1 - q) times its first term,
costs 1.9e more.  The factor 1 - 1/p (1.5e), the product, the tail (its
own (M + 2)e on at most 2^-44 of the term) and the last addition bring
each prime's term within 14e, under 16e = 8 EPS, of its exact value:
inside parts_to_certified's allowance of OPS_ALLOWANCE = 64 EPS per
term, so each block's value +- radius encloses its exact sum.  The
radius counts one term per prime, not one per (prime, level) as the
term form this replaced did: a prime's levels are summed inside its
term, whose 14e covers that sum.

The series from 2^20.  Summing the product form's geometric series,

    alpha(u) = -u log(1 - u) - sum over t >= 1 of (u^(2t+1)/t) (1 - u)/(1 - u^(t+1)),

with exact rational Taylor coefficients a_k = 1, -1/2, 4/3, -5/4, ...
(_series_coefficients).  Blocks keep the power sums S_2..S_(K+1)
(K = SERIES_TERMS = 3) of their primes >= 2^20, certified as beta's are,
and beta._series_sum gives sum over k of a_k S_k, the a_k rounded in its
radius, plus a Cauchy remainder.  On |u| = 1/8, |u log(1 - u)| <= log(8/7)/8 and
|(1 - u)/(1 - u^(t+1))| <= (9/8)/(63/64) = 8/7, so |alpha(u)| <=
log(8/7)/8 + log(64/63)/7 < 0.019 = C_ALPHA (the sampled maximum is
0.01697), and the terms past k = K + 1 add at most
C_ALPHA 8^(K+2) S_(K+1)/(2^20 - 8), below 1e-22.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .beta import SERIES_FROM, _log_beta_terms, _power_sum_parts, _series_sum
from .errors import ParameterError, reject
from .numerics import (
    DEFAULT_BLOCK_SIZE,
    CertifiedValue,
    aligned_blocks,
    block_sum_parts,
    combine_blocks,
    compensated_sum,
    map_blocks,  # read by nothing; kept while alqbench/spans.py wraps it
    parts_to_certified,
)
from .primes import (
    check_range,
    iter_prime_segments,  # read by nothing; kept while alqbench/spans.py wraps it
    prime_pass,
)

L = 15  # depth of the p = 2 series
SERIES_TERMS = 3  # K: the power sums S_2..S_(K+1) a block keeps for alpha
C_ALPHA = 0.019  # |alpha(u)| on |u| = 1/8, see the module docstring


@dataclass
class AlphaResult:
    N: int
    sums: CertifiedValue
    tail_total: float
    enclosure: CertifiedValue  # sums + the tails; its upper end bounds alpha
    n_primes: int
    elapsed_seconds: float
    workers: int = 1  # the processes the pass ran on; 1 is serial

    @property
    def upper_bound(self) -> float:
        return self.enclosure.upper

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "params": {"N": self.N, "L": L},
            "sums_value": self.sums.value,
            "sums_error_radius": self.sums.error_radius,
            "tail_total": self.tail_total,
            "upper_bound": self.upper_bound,
            "n_odd_primes": self.n_primes,
            "elapsed_seconds": self.elapsed_seconds,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)


def tail_a(p: int, M: int) -> float:
    """A(p, M) = p/(p-1) * (p^-(M+1))^2, the depth-M tail bound of the
    term-form series of alpha(p) (module docstring)."""
    reject(M < 1, "M must be >= 1", M)
    try:
        return p / (p - 1) * float(p) ** (-2.0 * (M + 1))
    except OverflowError:
        raise ParameterError("p or M is past the float range") from None


def alpha_two_part(L: int) -> CertifiedValue:
    """The p = 2 part 2*alpha(2), truncated at depth L.

    Uses the rearrangement 2*alpha(2) = log 2 + sum over m >= 1 of
    2^-m * log(1 - 2^-(m+1)): summing the geometric weights against the
    constant log 2 exactly leaves a tail of order 4^-L, which the caller
    covers with 2*A(2, L).  (The unrearranged truncation would leave a
    tail of order 2^-L instead.)

    Every dropped term is negative, so the truncated sum already lies
    above 2*alpha(2): by 1.55e-10 at L = 15 (50-digit mpmath), and the
    2*A(2, L) charge is redundant on the upper side.  It stays until a
    two-sided enclosure replaces it, since dropping it moves the
    certificate's bits.  Every term past m = 536 underflows to zero, so
    L past 536 is a ParameterError.
    """
    reject(not 1 < L <= 536, "L must exceed 1 and be at most 536", L)
    terms = [math.log(2.0)]
    terms += [2.0**-m * math.log1p(-(2.0 ** -(m + 1))) for m in range(1, L + 1)]
    return compensated_sum(terms)


def _series_coefficients(K: int) -> tuple[Fraction, ...]:
    """a_2, ..., a_(K+1), the Taylor coefficients of alpha(u), u = 1/p:
    sum over m >= 1 of u^m (-log r_m), with -log r_m = sum over i >= 1 of
    u^i/i - sum over t >= 1 of u^(t(m+1))/t, to degree D = K + 1, times 1 - u.
    """
    D = K + 1
    inner = [Fraction(0)] * (D + 1)
    for m in range(1, D):
        for i in range(1, D - m + 1):
            inner[m + i] += Fraction(1, i)
        for t in range(1, (D - m) // (m + 1) + 1):
            inner[m + t * (m + 1)] -= Fraction(1, t)
    return tuple(inner[k] - inner[k - 1] for k in range(2, D + 1))


def _series_alpha_sum(power_sums: list[CertifiedValue]) -> CertifiedValue:
    """sum of alpha(p) over primes p >= SERIES_FROM, certified, from their
    power sums S_2..S_(K+1) (K = len(power_sums)): the coefficients a_k
    and the Cauchy bound C_ALPHA of the module docstring."""
    return _series_sum(_series_coefficients(len(power_sums)), C_ALPHA, 8, power_sums)


class AlphaPass:
    """alpha's kernel on the prime pass (primes.prime_pass) over the aligned
    blocks of the odd primes p <= N, and the bound from their parts: "a",
    row 0's sum over a block's primes below SERIES_FROM (a walk with no
    j-rows), and "s2".."s4", the power sums of those above.  A beta pass
    may take over the blocks it runs with the same bounds
    (beta.EulerPass.share_walk).  N <= 2 is a ParameterError, as are N and
    block_size past the sieve's limits."""

    def __init__(self, N: int, block_size: int):
        reject(N <= 2, "N must exceed 2", N)
        check_range(N, block_size)
        self.N = N
        self.blocks = aligned_blocks(3, N, block_size)
        self.records: list[dict] = []
        self.keep = self.records.append

    @staticmethod
    def kernel(lo: int, hi: int, primes: np.ndarray) -> dict:
        split = int(np.searchsorted(primes, SERIES_FROM))
        parts = {}
        if lo < SERIES_FROM:
            parts["a"] = block_sum_parts(_log_beta_terms(primes[:split], 0)[0])
        if hi >= SERIES_FROM:
            parts.update(_power_sum_parts(primes[split:], SERIES_TERMS))
        return parts

    def result(self, elapsed_seconds: float, workers: int) -> AlphaResult:
        """The bound from every block's parts (alpha_upper_bound)."""
        N, records = self.N, self.records

        def merged(key: str) -> CertifiedValue:
            return combine_blocks([parts_to_certified(*r[key]) for r in records if key in r])

        odd_sum = merged("a")
        if N >= SERIES_FROM:
            power_sums = [merged(f"s{k}") for k in range(2, SERIES_TERMS + 2)]
            odd_sum = odd_sum + _series_alpha_sum(power_sums)
        n_primes = sum(r[key][2] for r in records for key in ("a", "s2") if key in r)
        sums = alpha_two_part(L) + odd_sum
        enclosure = sums + 2.0 * tail_a(2, L) + Fraction(1, N)
        tail_total = 2.0 * tail_a(2, L) + 1.0 / N
        return AlphaResult(N, sums, tail_total, enclosure, n_primes, elapsed_seconds, workers)


def alpha_upper_bound(
    N: int,
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
    workers: int = 1,
) -> AlphaResult:
    """Certified upper bound for alpha from the primes p <= N.

    One prime pass (AlphaPass) sums the odd primes p <= N in aligned blocks
    of block_size: each prime's alpha(p) and tail charge below SERIES_FROM,
    the power sums that the series weights past it (module docstring).  The
    finite sums are alpha_two_part(L) plus those, block-reduced
    deterministically, and the tails 2*A(2,L) + 1/N; the bound is the upper
    end of their sum as certified values (1/N taken as a Fraction).
    ``workers`` counts the processes the pass ran on.
    """
    t0 = time.perf_counter()
    alpha = AlphaPass(N, block_size)
    processes = prime_pass([alpha], block_size, workers)
    return alpha.result(time.perf_counter() - t0, processes)
