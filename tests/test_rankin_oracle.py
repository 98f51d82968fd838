"""s_tail_bound against an independent 80-bit upper bound of its moment.

s_tail_bound(j, N) charges N^-delta, delta = 0.8, times the Rankin moment

    prod over odd p of (1 + sum over m >= 1 of g_j h_j(p^m) p^(m delta)),

evaluated in floats with a 1 + 1e-6 slop.  The oracle below bounds the
same moment from above in mpmath at 80 bits, by a different route.  Since
1 + 1/(p sigma(p^(m-1))) = sigma(p^m) / (p sigma(p^(m-1))),

    g_j h_j(p^m) = p^-m (r_{m-1}^j - r_m^j),    r_m = p^m / sigma(p^m),

which is at most j p^-m (r_{m-1} - r_m) = j p^(m-1) / (p^m sigma(p^(m-1)) sigma(p^m))
<= j p^-2m, as x^j - y^j <= j (x - y) on [0, 1].

* Odd p <= 10^5 (the float bound's _RANKIN_CUTOFF): the exact terms for
  p^m <= 10^12, then j p^((m+1)(delta-2)) / (1 - p^(delta-2)) for the
  powers past them.  The float bound stops its powers at 10^6.
* p > 10^5: log(1 + x) <= x and the per-prime bound
  j p^(delta-2) / (1 - 10^(5(delta-2))).  The primes up to 10^7 are summed
  (a float64 fsum of positive terms, inflated by 2^-40); those past 10^7
  by partial summation with pi(x) < 1.25506 x / log x (Rosser & Schoenfeld,
  Illinois J. Math. 6, 1962):
  sum over p > Y of p^-s <= 1.25506 s E1((s - 1) log Y), s = 2 - delta.
  The float bound applies the same inequality from 10^5 on and takes
  1/log x out of the integral.

So the float bound must come out at or above the oracle.
"""

import functools
import math

import mpmath
import pytest

from aliquot.beta import _RANKIN_DELTA, s_tail_bound
from aliquot.primes import primes_in_range

PRIME_CUTOFF = 100_000
POWER_CUTOFF = 10**12
PRIMES_SUMMED = 10**7


@functools.lru_cache(maxsize=None)
def _gh_terms(j):
    """(p, [g_j h_j(p^m) for p^m <= POWER_CUTOFF]) for odd p <= PRIME_CUTOFF."""
    out = []
    with mpmath.workprec(80):
        for p in primes_in_range(3, PRIME_CUTOFF).tolist():
            terms = []
            r_prev = mpmath.mpf(1)
            pm, sig = 1, 1
            while pm * p <= POWER_CUTOFF:
                pm *= p
                sig = sig * p + 1
                r = mpmath.mpf(pm) / sig
                terms.append((r_prev**j - r**j) / pm)
                r_prev = r
            out.append((p, terms))
    return out


@functools.lru_cache(maxsize=None)
def _prime_sum():
    """sum of p^(delta - 2) over primes in (PRIME_CUTOFF, PRIMES_SUMMED], rounded up."""
    p = primes_in_range(PRIME_CUTOFF + 1, PRIMES_SUMMED).astype(float)
    return mpmath.mpf(math.fsum(p ** (_RANKIN_DELTA - 2.0))) * (1 + mpmath.mpf(2) ** -40)


def rankin_moment_upper(j):
    """An upper bound for the moment at j; call inside workprec(80)."""
    d = mpmath.mpf(_RANKIN_DELTA)
    moment = mpmath.mpf(1)
    for p, terms in _gh_terms(j):
        rd = mpmath.mpf(p) ** d
        x = mpmath.mpf(0)
        pw = mpmath.mpf(1)
        for gh in terms:
            pw *= rd
            x += gh * pw
        decay = rd / p**2
        x += j * decay ** (len(terms) + 1) / (1 - decay)
        moment *= 1 + x
    s = 2 - d
    far = mpmath.mpf("1.25506") * s * mpmath.e1((s - 1) * mpmath.log(PRIMES_SUMMED))
    large = j * (_prime_sum() + far) / (1 - mpmath.mpf(PRIME_CUTOFF) ** -s)
    return moment * mpmath.exp(large)


@pytest.mark.parametrize("j", [1, 8, 24], ids=lambda j: f"{j}-{_RANKIN_DELTA}")
def test_s_tail_bound_not_below_the_oracle(j):
    N = 10**7
    with mpmath.workprec(80):
        oracle = mpmath.mpf(N) ** -mpmath.mpf(_RANKIN_DELTA) * rankin_moment_upper(j)
    assert s_tail_bound(j, N) >= oracle
