"""Certified upper bound for the per-prime logarithmic constant alpha.

alpha = 2*alpha(2) + sum over odd primes p of alpha(p), where

    alpha(p) = sum over m >= 1 of (1/p^m) * log((1+p+...+p^m)/(p+...+p^m)).

The computation truncates the p = 2 series at depth L = 15 (in a
rearranged form whose tail is quadratically small, see alpha_two_part),
truncates the odd primes' series at a per-block depth m_b <= M = 15,
cuts primes at N, and adds explicit tail bounds for all three
truncations:

    upper bound = finite sums + float radius
                  + 2*A(2,L) + sum over odd p <= N of A(p,m_b) + 1/N,

with A(p, m) = p/(p-1) * p^(-2(m+1)) dominating the series tail of p
past depth m (its m'-th term is below p^(-2m')), and 1/N dominating the
dropped primes.

Depth rule.  The odd primes are summed in aligned blocks, and a block
whose primes run from p_min to p_max takes the least m_b in 1..M-1 with

    A(p_min, m_b) <= EPS * log1p(1/p_max) / p_max,

else M.  A(p, m) covers the tail past depth m for every m >= 1, so the
bound is valid whatever m_b the rule picks: the float evaluation of the
rule only chooses the depth and needs no rigor of its own.  Since
A(p, m_b) <= A(p_min, m_b) and log1p(1/p)/p, the m = 1 term, falls with
p, each prime's charge stays below EPS times its own first term, under
the block's float radius, which is at least (number of terms) * EPS
times the sum of its terms.  A block holding the prime 3 keeps depth
M = 15 (A(3, 14) is above EPS * log1p(1/3) / 3), so at the default block
size of 2^20 every N up to 2^20 sums the same terms as a fixed depth M.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .arith import sigma_prime_power
from .errors import ParameterError, reject, shown
from .numerics import (
    DEFAULT_BLOCK_SIZE,
    EPS,
    CertifiedValue,
    aligned_blocks,
    block_sum_parts,
    certified_combine,
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
M = 15  # the odd primes' series depth, at most


@dataclass
class AlphaResult:
    N: int
    sums: CertifiedValue
    tail_total: float
    upper_bound: float
    n_primes: int
    elapsed_seconds: float
    depths: dict[int, int] = field(default_factory=dict)  # depth -> odd primes summed
    workers: int = 1  # the processes the pass ran on; 1 is serial

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "params": {"N": self.N, "L": L, "M": M},
            "sums_value": self.sums.value,
            "sums_error_radius": self.sums.error_radius,
            "tail_total": self.tail_total,
            "upper_bound": self.upper_bound,
            "n_odd_primes": self.n_primes,
            "depths": {str(m): count for m, count in self.depths.items()},
            "elapsed_seconds": self.elapsed_seconds,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)


def alpha_term(p: int, m: int) -> float:
    """(1/p^m) * log((1+p+...+p^m)/(p+...+p^m)), via log1p for stability.

    The ratio equals 1 + 1/(p+...+p^m); the denominator is formed exactly
    in integer arithmetic while it fits a float, else in floating point.
    """
    reject(m < 1, "m must be >= 1", m)
    q = p**m
    if q > 10**300:
        raise ParameterError(f"p**m = {shown(p)}**{shown(m)} too large")
    geom = sigma_prime_power(p, m) - 1  # p + p^2 + ... + p^m, exact
    return math.log1p(1.0 / geom) / q


def tail_a(p, M: int):
    """A(p, M) = p/(p-1) * (p^-(M+1))^2, the depth-M series tail bound.

    p is a prime or an array of primes (a float for a prime, an array for
    an array); both go through numpy's power, so a block's tail entries
    are exactly this function's values.
    """
    reject(M < 1, "M must be >= 1", M)
    try:
        p = np.asarray(p, dtype=np.float64)
        exponent = -2.0 * (M + 1)
    except OverflowError:
        raise ParameterError("p or M is past the float range") from None
    with np.errstate(under="ignore"):
        a = (p / (p - 1.0)) * p**exponent
    return a if a.ndim else float(a)


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


def _block_depth(primes: np.ndarray, M: int) -> int:
    """The block's series depth: the least m in 1..M-1 whose tail bound
    A(p_min, m) is at most EPS * log1p(1/p_max) / p_max, else M (the depth
    rule of the module docstring).  M for a block without primes."""
    if primes.size == 0:
        return M
    p_min, p_max = int(primes[0]), int(primes[-1])
    threshold = EPS * math.log1p(1.0 / p_max) / p_max
    return next((m for m in range(1, M) if tail_a(p_min, m) <= threshold), M)


def _block_sums(primes: np.ndarray, M: int) -> tuple[tuple, tuple]:
    """Per-block pieces: the alpha terms for m = 1..M and the A(p, M) tails.

    Vectorized over the block's primes; powers beyond the float range
    underflow harmlessly to zero-value terms.

    Rounding, in units u = EPS/2 of one rounding (numpy's log1p within
    one ulp, 2u), to first order.  p is exact and q = p^k comes from k - 1
    multiplies, so it is within (k - 1)u.  q*p is within ku, and taking p
    off scales that by p^k/(p^k - 1) <= 3/2 and adds one rounding, as the
    division by the exact p - 1 does: geom is within (1.5k + 2)u.  The
    reciprocal adds u, log1p (condition number below 1 for x > 0) 2u, and
    the division by q its (k - 1)u plus u: the depth-k term is within
    (2.5k + 5)u.  At depth k <= M = 15 that is at most 42.5u = 21.25 EPS
    of the term, inside parts_to_certified's allowance of
    numerics.OPS_ALLOWANCE = 64 EPS per term.  A term that underflows is
    off by less than 2^-1074, far below EPS times its block's first terms.
    """
    p = primes.astype(np.float64)
    term_arrays = []
    with np.errstate(over="ignore", under="ignore"):
        q = p.copy()
        for _ in range(M):
            geom = (q * p - p) / (p - 1.0)
            term_arrays.append(np.log1p(1.0 / geom) / q)
            q = q * p
        terms = np.concatenate(term_arrays) if term_arrays else np.empty(0)
    return block_sum_parts(terms), block_sum_parts(tail_a(p, M))


class AlphaPass:
    """alpha's kernel on the prime pass (primes.prime_pass): the aligned
    blocks of the odd primes p <= N, each summed at its own depth
    (_block_depth), and the assembly of the bound from their results.
    N <= 2 is a ParameterError, as are N and block_size past the sieve's
    limits."""

    def __init__(self, N: int, block_size: int):
        reject(N <= 2, "N must exceed 2", N)
        check_range(N, block_size)
        self.N = N
        self.blocks = aligned_blocks(3, N, block_size)
        self.results: list[tuple] = []
        self.keep = self.results.append

    @staticmethod
    def kernel(lo: int, hi: int, primes: np.ndarray) -> tuple:
        depth = _block_depth(primes, M)
        term_parts, tail_parts = _block_sums(primes, depth)
        return (
            parts_to_certified(*term_parts),
            parts_to_certified(*tail_parts),
            primes.size,
            depth,
        )

    def result(self, elapsed_seconds: float, workers: int) -> AlphaResult:
        """The bound from every block's result (alpha_upper_bound)."""
        N = self.N
        odd_sum = combine_blocks([r[0] for r in self.results])
        tail_sum = combine_blocks([r[1] for r in self.results])

        sums = certified_combine(alpha_two_part(L), odd_sum)
        # Tail pieces are upper bounds themselves; their float radius is
        # folded into the total on the high side.
        tail_total = 2.0 * tail_a(2, L) + tail_sum.value + tail_sum.error_radius + 1.0 / N

        ub = sums.value + sums.error_radius + tail_total
        ub = math.nextafter(math.nextafter(ub, math.inf), math.inf)
        depths: dict[int, int] = {}
        for r in self.results:
            depths[r[3]] = depths.get(r[3], 0) + r[2]
        return AlphaResult(
            N=N,
            sums=sums,
            tail_total=tail_total,
            upper_bound=ub,
            n_primes=sum(depths.values()),
            elapsed_seconds=elapsed_seconds,
            depths=depths,
            workers=workers,
        )


def alpha_upper_bound(
    N: int,
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
    workers: int = 1,
) -> AlphaResult:
    """Certified upper bound for alpha from the primes p <= N.

    The odd primes p <= N are summed in aligned blocks of block_size,
    each at its own depth m_b <= M (_block_depth, the rule and its
    argument in the module docstring), on one prime pass (AlphaPass).
    The finite sums are alpha_two_part(L) plus the depth-m_b terms of
    every block, block-reduced deterministically; the tail total is
    2*A(2,L) + sum of A(p,m_b) over the same primes + 1/N.  The bound is
    sums value + sums radius + tails, nudged up two ulps to cover the
    final additions.  ``depths`` counts the odd primes summed at each
    chosen depth, and ``workers`` counts the processes the pass ran on.
    """
    t0 = time.time()
    alpha = AlphaPass(N, block_size)
    processes = prime_pass([alpha], block_size, workers)
    return alpha.result(time.time() - t0, processes)

