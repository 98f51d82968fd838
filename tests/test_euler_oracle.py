"""The Euler kernel's per-prime terms against a 50-digit recomputation.

For a prime p and r_m = p^m / sigma(p^m) (exact integers, then mpmath),

    d_{p,j} = 1 - beta_j(p) = (1 - 1/p) * sum over m >= 1 of p^-m (1 - r_m^j),

summed until p^-m falls below 10^-60 (the dropped tail is below
j p^-(m+1)/(p-1), far under the precision checked).  The module
docstring's bound 0 < d_{p,j} <= j/p^2 must hold, and each prime's term
log1p(-d) from the kernel, evaluated over the whole aligned block of
2^20 integers that holds the prime, must lie within the per-term
allowance of parts_to_certified: 64 EPS of its own size.  That
allowance is the prime's share of its block's radius
(n_terms + 64) EPS * sum |term|, beyond the summation's share.
"""

import numpy as np
import pytest
from mpmath import mp, mpf

from aliquot import beta as beta_module
from aliquot.numerics import EPS
from aliquot.primes import iter_prime_segments

PRIMES = (3, 5, 7, 101, 999983, 1048573, 1048583, 29999999, 30000001)
JS = (1, 2, 8, 32)
BLOCK = 1 << 20


def exact_d(p: int, j: int) -> mpf:
    with mp.workdps(50):
        total = mpf(0)
        pm, sig, m = 1, 1, 0
        while True:
            m += 1
            pm *= p
            sig = sig * p + 1
            total += (1 - (mpf(pm) / sig) ** j) / pm
            if mpf(pm) > mpf(10) ** 60:
                return (1 - mpf(1) / p) * total


@pytest.fixture(scope="module")
def kernel_terms():
    """Per prime, {j: the kernel's term} from the prime's aligned block."""
    found = {}
    for p in PRIMES:
        lo = p // BLOCK * BLOCK
        (primes,) = iter_prime_segments(max(lo, 3), lo + BLOCK - 1, BLOCK)
        terms = beta_module._log_beta_terms(primes, 32)
        (at,) = np.flatnonzero(primes == p)
        found[p] = {j: float(terms[j - 1][at]) for j in JS}
    return found


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("j", JS)
def test_d_between_zero_and_j_over_p_squared(p, j):
    d = exact_d(p, j)
    with mp.workdps(50):
        assert 0 < d <= mpf(j) / p**2


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("j", JS)
def test_kernel_term_within_its_allowance(kernel_terms, p, j):
    d = exact_d(p, j)
    term = kernel_terms[p][j]
    with mp.workdps(50):
        exact = mp.log1p(-d)
        assert abs(mpf(term) - exact) <= 64 * EPS * abs(term)
