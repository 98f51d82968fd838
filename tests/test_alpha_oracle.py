"""alpha's two tail pieces against a 50-digit recomputation.

tail_a(p, m) = A(p, m) = p/(p-1) * p^-2(m+1) is the charge for the terms
of alpha(p) past depth m,

    alpha(p) = sum over k >= 1 of p^-k * log(1 + 1/(p + ... + p^k)),

and must be at least their exact sum.  alpha_two_part(L) is the p = 2
part in its rearranged form, log 2 + sum over m = 1..L of
2^-m log(1 - 2^-(m+1)); its value +- radius must enclose that exact
truncated sum, which lies above 2 alpha(2) (every dropped term is
negative), by no more than the 2 A(2, L) charged for it.  2 alpha(2)
itself comes from the unrearranged series.  Each check has a mutation
that must make it fail: the exponent -2(m+1) moved to -2(m+2), and the
sign inside log1p flipped.
"""

import math

import pytest
from mpmath import mp, mpf

from aliquot.alpha import alpha_two_part, tail_a
from aliquot.numerics import compensated_sum

TAIL_PRIMES = (3, 5, 1009, 1048583)  # the last is the first prime past 2^20
DEPTHS = range(1, 16)
TWO_DEPTHS = (2, 3, 5, 10, 15, 30)


def alpha_terms(p: int, depth: int) -> list:
    """The terms k = 1..depth of alpha(p), each to 50 digits."""
    with mp.workdps(50):
        return [mp.log1p(mpf(p - 1) / (p ** (k + 1) - p)) / mpf(p) ** k
                for k in range(1, depth + 1)]


@pytest.fixture(scope="module")
def exact_tails():
    """{(p, m): the sum of alpha(p)'s terms past depth m}, to 50 digits.
    The terms run until p^-2k falls 10^-60 below the last tail's first
    term, which leaves out far less than the checks resolve."""
    tails = {}
    with mp.workdps(50):
        for p in TAIL_PRIMES:
            extra = math.ceil(30 / math.log10(p)) + 1
            terms = alpha_terms(p, max(DEPTHS) + extra)
            for m in DEPTHS:
                tails[p, m] = mp.fsum(terms[m:])
    return tails


def tail_failures(bound, exact_tails) -> list:
    """(p, m) wherever bound(p, m) falls below the exact tail."""
    return [(p, m) for (p, m), exact in exact_tails.items() if not mpf(bound(p, m)) >= exact]


def test_tail_a_covers_the_exact_tail(exact_tails):
    assert tail_failures(tail_a, exact_tails) == []


def test_tail_a_is_not_loose(exact_tails):
    # A bound can hold and still be useless: the exact tail is 0.50 to
    # 0.999998 of A(p, m) at the checked primes and depths.
    for (p, m), exact in exact_tails.items():
        assert exact >= mpf(tail_a(p, m)) * 0.4, (p, m)


def test_a_deeper_exponent_fails_the_tail_oracle(exact_tails):
    def deeper(p, m):
        return p / (p - 1.0) * float(p) ** (-2.0 * (m + 2))

    assert tail_failures(deeper, exact_tails)


@pytest.fixture(scope="module")
def exact_two_parts():
    """(2 alpha(2) from its direct series, {L: the exact truncated sum})."""
    with mp.workdps(50):
        two_alpha2 = 2 * mp.fsum(alpha_terms(2, 110))  # dropped: below 4^-110
        truncated = {
            L: mp.log(2) + mp.fsum(mp.log1p(-mpf(2) ** -(m + 1)) / mpf(2) ** m
                                   for m in range(1, L + 1))
            for L in TWO_DEPTHS
        }
    return two_alpha2, truncated


def two_part_failures(two_part, exact_two_parts) -> list:
    """The depths L at which two_part(L) misses the exact truncated sum."""
    _, truncated = exact_two_parts
    missed = []
    for L, exact in truncated.items():
        got = two_part(L)
        if not mpf(got.lower) <= exact <= mpf(got.upper):
            missed.append(L)
    return missed


def test_two_part_encloses_the_truncated_sum(exact_two_parts):
    assert two_part_failures(alpha_two_part, exact_two_parts) == []


def test_truncated_sum_lies_above_two_alpha2(exact_two_parts):
    two_alpha2, truncated = exact_two_parts
    with mp.workdps(50):
        for L, exact in truncated.items():
            assert two_alpha2 <= exact <= two_alpha2 + mpf(2 * tail_a(2, L)), L
        assert mpf("1.55e-10") <= truncated[15] - two_alpha2 < mpf("1.56e-10")


def test_a_flipped_log1p_sign_fails_the_two_part_oracle(exact_two_parts):
    def flipped(L):
        terms = [math.log(2.0)]
        terms += [2.0**-m * math.log1p(2.0 ** -(m + 1)) for m in range(1, L + 1)]
        return compensated_sum(terms)

    assert two_part_failures(flipped, exact_two_parts)
