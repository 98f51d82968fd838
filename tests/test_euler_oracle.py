"""The Euler kernel's per-prime terms against their 50-digit values.

For a prime p and r_m = p^m / sigma(p^m), exact.py gives

    d_{p,j} = 1 - beta_j(p) = (1 - 1/p) * sum over m >= 1 of p^-m (1 - r_m^j)

to 50 digits.  The module docstring's bound 0 < d_{p,j} <= j/p^2 must
hold, and each prime's term log1p(-d) from the kernel, evaluated over
the whole aligned block of 2^20 integers that holds the prime, must lie
within the per-term allowance of parts_to_certified: 64 EPS of its own
size.  That allowance is the prime's share of its block's radius
(n_terms + 64) EPS * sum |term|, beyond the summation's share.

Past SERIES_FROM = 2^20 the pass takes a block's log sum from its power
sums instead.  For primes just above 2^20, near 3e7 and near 1e9 the
certified series sum must enclose the 50-digit sum of log1p(-d), at
every truncation K = 1..SERIES_TERMS, and the exact coefficients c_k(j)
must equal those of an independent symbolic expansion.  At the
pass's K the top coefficient and the Cauchy remainder lie far below a
double's precision; at K = 1..3 they do not, so there the mutation checks
(no remainder, a unit added to the top coefficient) make the oracle fail.
"""

from fractions import Fraction

import numpy as np
import pytest
import sympy

from exact import d, mp

from aliquot import beta as beta_module
from aliquot.numerics import EPS, parts_to_certified
from aliquot.primes import iter_prime_segments, primes_in_range

PRIMES = (3, 5, 7, 101, 999983, 1048573, 1048583, 29999999, 30000001)
JS = (1, 2, 8, 32)
BLOCK = 1 << 20


@pytest.fixture(scope="module")
def kernel_terms():
    """Per prime, {j: the kernel's term} from the prime's aligned block."""
    found = {}
    for p in PRIMES:
        lo = p // BLOCK * BLOCK
        (primes,) = iter_prime_segments(max(lo, 3), lo + BLOCK - 1, BLOCK)
        terms = beta_module._log_beta_terms(primes, 32)
        (at,) = np.flatnonzero(primes == p)
        found[p] = {j: float(terms[j][at]) for j in JS}
    return found


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("j", JS)
def test_d_between_zero_and_j_over_p_squared(p, j):
    assert 0 < d(p, j) <= mp.mpf(j) / p**2


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("j", JS)
def test_kernel_term_within_its_allowance(kernel_terms, p, j):
    term = kernel_terms[p][j]
    assert abs(term - mp.log1p(-d(p, j))) <= 64 * EPS * abs(term)


SERIES_JS = (1, 2, 8, 32, 1024)
SERIES_PRIMES = {
    "above 2^20": primes_in_range(1 << 20, (1 << 20) + 200),
    "near 3e7": primes_in_range(3 * 10**7, 3 * 10**7 + 300),
    "near 1e9": primes_in_range(10**9, 10**9 + 300),
}


@pytest.fixture(scope="module")
def exact_log_sums():
    """Per region and j, the 50-digit sum of log1p(-d) over its primes."""
    return {(region, j): mp.fsum(mp.log1p(-d(p, j)) for p in primes.tolist())
            for region, primes in SERIES_PRIMES.items() for j in SERIES_JS}


def series_failures(exact_log_sums) -> list:
    """(region, j, K) wherever the certified series sum misses the exact one."""
    missed = []
    for region, primes in SERIES_PRIMES.items():
        parts = beta_module._power_sum_parts(primes, beta_module.SERIES_TERMS)
        sums = [parts_to_certified(*parts[f"s{k}"]) for k in range(2, beta_module.SERIES_TERMS + 2)]
        for K in range(1, beta_module.SERIES_TERMS + 1):
            for j in SERIES_JS:
                got = beta_module._series_log_sum(j, sums[:K])
                if not got.lower <= exact_log_sums[region, j] <= got.upper:
                    missed.append((region, j, K))
    return missed


def test_regions_lie_past_the_series_start():
    for primes in SERIES_PRIMES.values():
        assert primes.size >= 10 and primes[0] >= beta_module.SERIES_FROM


def test_series_encloses_the_exact_log_sum(exact_log_sums):
    assert series_failures(exact_log_sums) == []


def test_series_radius_stays_near_the_float_noise(exact_log_sums):
    # An enclosure can hold and still be useless: at the pass's K the
    # radius, remainder included, stays within 1e-12 of the value for
    # j <= 32.
    for region, primes in SERIES_PRIMES.items():
        parts = beta_module._power_sum_parts(primes, beta_module.SERIES_TERMS)
        sums = [parts_to_certified(*parts[f"s{k}"]) for k in range(2, beta_module.SERIES_TERMS + 2)]
        for j in (1, 2, 8, 32):
            got = beta_module._series_log_sum(j, sums)
            assert got.error_radius <= 1e-12 * abs(got.value), (region, j)


def test_dropping_the_remainder_fails_the_oracle(exact_log_sums, monkeypatch):
    monkeypatch.setattr(beta_module, "_CAUCHY_BOUND", 0.0)
    assert series_failures(exact_log_sums)


def test_perturbing_the_top_coefficient_fails_the_oracle(exact_log_sums, monkeypatch):
    exact = beta_module._series_coefficients

    def perturbed(j, K):
        *low, top = exact(j, K)
        return (*low, top + 1)

    monkeypatch.setattr(beta_module, "_series_coefficients", perturbed)
    assert series_failures(exact_log_sums)


@pytest.fixture(scope="module")
def symbolic_coefficients():
    """The Taylor coefficients of log beta_j(u) at u = 0 through degree K + 1,
    each a polynomial in the symbol j, from sympy's series of
    log((1 - u) sum over m >= 0 of u^m ((1 - u)/(1 - u^(m+1)))^j)."""
    u, j = sympy.symbols("u j")
    D = beta_module.SERIES_TERMS + 1
    beta = (1 - u) * sum(u**m * ((1 - u) / (1 - u ** (m + 1))) ** j for m in range(D + 1))
    series = sympy.expand(sympy.series(sympy.log(beta), u, 0, D + 1).removeO())
    return [sympy.Poly(series.coeff(u, k), j) for k in range(D + 1)]


def test_coefficients_match_a_symbolic_expansion(symbolic_coefficients):
    assert symbolic_coefficients[0].is_zero and symbolic_coefficients[1].is_zero
    polys = [[Fraction(int(c.p), int(c.q)) for c in poly.all_coeffs()]
             for poly in symbolic_coefficients[2:]]
    for j in range(1, beta_module.MAX_J + 1):
        expected = []
        for coeffs in polys:
            value = Fraction(0)
            for c in coeffs:  # Horner, highest degree first
                value = value * j + c
            expected.append(value)
        assert list(beta_module._series_coefficients(j, beta_module.SERIES_TERMS)) == expected, j

