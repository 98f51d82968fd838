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
"""

import math

import pytest

from exact import alpha, alpha_terms, mp, two_part

from aliquot.alpha import alpha_two_part, tail_a
from aliquot.numerics import compensated_sum

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
