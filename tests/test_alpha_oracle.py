"""alpha's tail pieces and its p = 2 part against exact.py's 50-digit values.

tail_a(p, m) = A(p, m) = p/(p-1) * p^-2(m+1) is the charge for the terms
of alpha(p) past depth m,

    alpha(p) = sum over k >= 1 of p^-k * log(1 + 1/(p + ... + p^k)),

and must be at least their exact sum.  alpha_two_part(L) is the p = 2
part in its rearranged form, log 2 + sum over m = 1..L of
2^-m log(1 - 2^-(m+1)); its value +- radius must enclose that exact
truncated sum, which lies above 2 alpha(2) (every dropped term is
negative), by no more than the 2 A(2, L) charged for it.  2 alpha(2)
itself comes from the unrearranged series, whose value must also equal
the product form (1 - 1/p) sum over m >= 1 of p^-m log(sigma(p^m)/p^m).
Each bound check has a mutation that must make it fail: the exponent
-2(m+1) moved to -2(m+2), and the sign inside log1p flipped.

Below 2^20 each odd prime's alpha(p) is row 0 of beta._log_beta_terms:
its term must lie within 16e = 8 EPS of exact.alpha_row(p), the row's
exact value at the depth rule's M, which lies between alpha(p) and
alpha(p) (1 + 2^-44); one level too few at p = 3 must fail.  From 2^20
alpha comes from power sums: the series +- radius must enclose the exact
sum over the primes of [2^20, 2^20 + 2^16] and of the block at 95 * 2^20
at every truncation K = 1..3 (dropping one series term must fail), and
meet the walk's sum over the same primes.  Its coefficients must equal a
symbolic expansion's, the closed form its Cauchy bound rests on must
equal the product form, and C_ALPHA must cover |alpha(u)| on |u| = 1/8.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
import sympy

from exact import ALPHA_BLOCK_95, alpha, alpha_row, alpha_terms, encloses, mp, two_part

from aliquot import alpha as alpha_module
from aliquot import beta as beta_module
from aliquot.alpha import C_ALPHA, SERIES_TERMS, alpha_two_part, tail_a
from aliquot.numerics import EPS, compensated_sum, parts_to_certified
from aliquot.primes import iter_prime_segments, primes_in_range
from aliquot.selftest import alpha_two_routes

TAIL_PRIMES = (3, 5, 1009, 1048583)  # the last is the first prime past 2^20
DEPTHS = range(1, 16)
TWO_DEPTHS = (2, 3, 5, 10, 15, 30)


@pytest.fixture(scope="module")
def exact_tails():
    """{(p, m): the sum of alpha(p)'s terms past depth m}, to 50 digits.
    The terms run until p^-2k falls 10^-60 below the last tail's first
    term, which leaves out far less than the checks resolve."""
    tails = {}
    for p in TAIL_PRIMES:
        extra = math.ceil(30 / math.log10(p)) + 1
        terms = alpha_terms(p, max(DEPTHS) + extra)
        for m in DEPTHS:
            tails[p, m] = mp.fsum(terms[m:])
    return tails


def tail_failures(bound, exact_tails) -> list:
    """(p, m) wherever bound(p, m) falls below the exact tail."""
    return [(p, m) for (p, m), tail in exact_tails.items() if not bound(p, m) >= tail]


def test_tail_a_covers_the_exact_tail(exact_tails):
    assert tail_failures(tail_a, exact_tails) == []


def test_tail_a_is_not_loose(exact_tails):
    # A bound can hold and still be useless: the exact tail is 0.50 to
    # 0.999998 of A(p, m) at the checked primes and depths.
    for (p, m), tail in exact_tails.items():
        assert tail >= tail_a(p, m) * 0.4, (p, m)


def test_a_deeper_exponent_fails_the_tail_oracle(exact_tails):
    def deeper(p, m):
        return p / (p - 1.0) * float(p) ** (-2.0 * (m + 2))

    assert tail_failures(deeper, exact_tails)


@pytest.fixture(scope="module")
def exact_two_parts():
    """(2 alpha(2) from its direct series, {L: the exact truncated sum})."""
    return 2 * alpha(2), {L: two_part(L) for L in TWO_DEPTHS}


def two_part_failures(candidate, exact_two_parts) -> list:
    """The depths L at which candidate(L) misses the exact truncated sum."""
    _, truncated = exact_two_parts
    missed = []
    for L, value in truncated.items():
        got = candidate(L)
        if not got.lower <= value <= got.upper:
            missed.append(L)
    return missed


def test_two_part_encloses_the_truncated_sum(exact_two_parts):
    assert two_part_failures(alpha_two_part, exact_two_parts) == []


def test_truncated_sum_lies_above_two_alpha2(exact_two_parts):
    two_alpha2, truncated = exact_two_parts
    for L, value in truncated.items():
        assert two_alpha2 <= value <= two_alpha2 + 2 * tail_a(2, L), L
    assert mp.mpf("1.55e-10") <= truncated[15] - two_alpha2 < mp.mpf("1.56e-10")


def test_a_flipped_log1p_sign_fails_the_two_part_oracle(exact_two_parts):
    def flipped(L):
        terms = [math.log(2.0)]
        terms += [2.0**-m * math.log1p(2.0 ** -(m + 1)) for m in range(1, L + 1)]
        return compensated_sum(terms)

    assert two_part_failures(flipped, exact_two_parts)


def test_alpha_equals_its_product_form():
    # The product form's m-th term is below p^-m / (p - 1); m runs past p^m = 10^55.
    for p in (2,) + TAIL_PRIMES:
        terms = (mp.log(mp.mpf((p ** (m + 1) - 1) // (p - 1)) / p**m) / p**m
                 for m in range(1, int(55 / math.log10(p)) + 2))
        assert abs(alpha(p) - (1 - mp.mpf(1) / p) * mp.fsum(terms)) < mp.mpf(10) ** -45, p


ROW_PRIMES = (3, 5, 7, 1009, (1 << 20) - 3)


def row_failures() -> list:
    """The primes of ROW_PRIMES whose row 0 term, from the walk over block
    0's primes, misses alpha(p) beyond its allowance."""
    (primes,) = iter_prime_segments(3, (1 << 20) - 1, 1 << 20)
    row = beta_module._log_beta_terms(primes, 0)[0]
    missed = []
    for p in ROW_PRIMES:
        (at,) = np.flatnonzero(primes == p)
        term, exact = float(row[at]), alpha_row(p)
        if not (abs(term - exact) <= 8 * EPS * term
                and alpha(p) <= exact <= alpha(p) * (1 + mp.mpf(2) ** -44)):
            missed.append(p)
    return missed


def test_row_zero_within_its_allowance():
    assert row_failures() == []


def test_one_level_too_few_fails_the_row_oracle(monkeypatch):
    # A third of the cut takes the deepest level off p = 3's series.
    monkeypatch.setattr(beta_module, "_ALPHA_CUT", beta_module._ALPHA_CUT / 3)
    assert 3 in row_failures()


SERIES_REGIONS = {
    "above 2^20": (primes_in_range(1 << 20, (1 << 20) + (1 << 16)), None),
    "block 95": (primes_in_range(95 << 20, (96 << 20) - 1), ALPHA_BLOCK_95),
}


@pytest.fixture(scope="module")
def exact_alpha_sums():
    """Per region, the 50-digit sum of alpha(p) over its primes."""
    return {region: mp.fsum(alpha(p) for p in primes.tolist()) if total is None else total
            for region, (primes, total) in SERIES_REGIONS.items()}


def alpha_series_failures(exact_alpha_sums) -> list:
    """(region, K) wherever the certified series sum misses the exact one."""
    missed = []
    for region, (primes, _) in SERIES_REGIONS.items():
        parts = beta_module._power_sum_parts(primes, SERIES_TERMS)
        sums = [parts_to_certified(*parts[f"s{k}"]) for k in range(2, SERIES_TERMS + 2)]
        for K in range(1, SERIES_TERMS + 1):
            if not encloses(alpha_module._series_alpha_sum(sums[:K]), exact_alpha_sums[region]):
                missed.append((region, K))
    return missed


def test_regions_lie_past_the_series_start():
    assert SERIES_REGIONS["block 95"][0].size == 56856
    for primes, _ in SERIES_REGIONS.values():
        assert primes[0] >= beta_module.SERIES_FROM


def test_alpha_series_encloses_the_exact_sum(exact_alpha_sums):
    assert alpha_series_failures(exact_alpha_sums) == []


def test_dropping_a_series_term_fails_the_oracle(exact_alpha_sums, monkeypatch):
    exact = alpha_module._series_coefficients
    monkeypatch.setattr(alpha_module, "_series_coefficients", lambda K: exact(K)[:-1])
    assert alpha_series_failures(exact_alpha_sums)


@pytest.mark.parametrize("region", SERIES_REGIONS)
def test_series_meets_the_walk(region):
    series, walk = alpha_two_routes(SERIES_REGIONS[region][0])
    assert max(series.lower, walk.lower) <= min(series.upper, walk.upper)


def test_series_coefficients_match_a_symbolic_expansion():
    # alpha(u) = -(1 - u) sum over m >= 1 of u^m log((1 - u)/(1 - u^(m+1))),
    # through degree 6; the terms m > 6 start at u^7.
    u = sympy.symbols("u")
    D = 6
    f = -(1 - u) * sum(u**m * sympy.log((1 - u) / (1 - u ** (m + 1))) for m in range(1, D + 1))
    series = sympy.expand(sympy.series(f, u, 0, D + 1).removeO())
    expected = [Fraction(int(c.p), int(c.q)) for c in (series.coeff(u, k) for k in range(D + 1))]
    assert expected[:2] == [0, 0]
    assert list(alpha_module._series_coefficients(D - 1)) == expected[2:]


def product_form(x, terms: int):
    """alpha(u) = -(1 - u) sum over m >= 1 of u^m log((1 - u)/(1 - u^(m+1)))
    at u = x, from its terms m < terms."""
    return -(1 - x) * mp.fsum(x**m * mp.log((1 - x) / (1 - x ** (m + 1))) for m in range(1, terms))


def test_closed_form_equals_the_product_form():
    # The module docstring's alpha(u) = -u log(1 - u) - sum over t >= 1 of
    # (u^(2t+1)/t) (1 - u)/(1 - u^(t+1)), on which C_ALPHA's bound rests,
    # against the product form, at real u = 1/p and on |u| = 1/8.
    def closed(x):
        return -x * mp.log(1 - x) - mp.fsum(x ** (2 * t + 1) / t * (1 - x) / (1 - x ** (t + 1))
                                            for t in range(1, 60))

    points = [mp.mpf(1) / p for p in (3, 5, 1009)] + [mp.expjpi(mp.mpf(k) / 5) / 8 for k in range(10)]
    for x in points:
        assert abs(product_form(x, 120) - closed(x)) < mp.mpf(10) ** -45, x


def test_cauchy_bound_covers_alpha_on_the_circle():
    # |alpha(u)| at 256 points of |u| = 1/8, from 30 terms of the product
    # form (the rest is below 8^-30).  Its derivative along the circle,
    # |u alpha'(u)|, stays below 0.036, so between points 2 pi/256 apart
    # |alpha| rises less than 4.5e-4 over the sampled maximum, 0.01697; a
    # bound of 0.0169 would fail.
    n = 256
    biggest = max(abs(product_form(mp.expjpi(mp.mpf(2 * k) / n) / 8, 31)) for k in range(n))
    assert 0.0169 < biggest and biggest + 4.5e-4 <= C_ALPHA
