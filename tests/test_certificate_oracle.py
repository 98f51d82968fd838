"""The assembled certificate against a 40-digit recomputation of its formula.

At N = P <= 2000 and J = 8, `alq lambda`'s pass (cli.lambda_bounds) runs
one block below 2^20, which keeps the full odd depth M = 15.  The formula
the code certifies is then

    alpha = log 2 + sum over m = 1..L of 2^-m log(1 - 2^-(m+1))
            + sum over odd p <= N, m = 1..15 of p^-m log(1 + 1/(p + ... + p^m))
            + 2 A(2, L) + sum over odd p <= N of A(p, 15) + 1/N,
    beta  = sum over j = 1..8 of (z_j/j) prod over odd p <= P of beta_j(p) (1 - j T(P)),

with z_j = 2 beta_j(2) - 1 and beta_j(p) taken to convergence and T(P) =
2 * 1.25506/(P log P) exact.  The float lambda_upper must lie at or above
alpha - beta, and above it by no more than SLACK: the float radii and the
nextafters, 2.3e-13 at N = P = 2000.

Each mutation of the assembly must leave that window: dropping 1/N
(5e-4), the 1 - j T(P) factor (1.8e-4) or 2 A(2, L) (9.3e-10), and a bound
1e-10 looser.  Dropping the odd tails sum of A(p, 15) cannot be caught
here: the depth rule keeps each prime's charge below EPS times its first
term, and together they come to 8.1e-16, below the float gap; test_alpha's
TestTailA covers that charge.
"""

import math

import pytest
from mpmath import mp, mpf

from aliquot.alpha import L, M, tail_a
from aliquot.cli import combine_lambda, lambda_bounds
from aliquot.numerics import DEFAULT_BLOCK_SIZE, EPS
from aliquot.primes import primes_in_range

J = 8
DIGITS = 40
SLACK = 1e-11
CUTOFFS = (1000, 2000)  # N = P


def _beta_factors(p: int) -> list:
    """beta_j(p) for j = 1..J, each series run until p^-m < 10^-(DIGITS + 5)."""
    depth = math.ceil((DIGITS + 5) / math.log10(p))
    weights = [mpf(1) / mpf(p) ** m for m in range(depth + 1)]
    ratios = [mpf(p**m) / (p ** (m + 1) - 1) * (p - 1) for m in range(depth + 1)]
    powers = [mpf(1)] * (depth + 1)
    factors = []
    for _ in range(J):
        powers = [x * r for x, r in zip(powers, ratios)]
        factors.append((1 - mpf(1) / p) * mp.fsum(w * x for w, x in zip(weights, powers)))
    return factors


@pytest.fixture(scope="module")
def per_prime():
    """{p: (alpha's terms to depth M plus A(p, M), [beta_j(p)])} for the odd
    primes up to the largest cutoff, at DIGITS digits."""
    values = {}
    with mp.workdps(DIGITS):
        for p in primes_in_range(3, max(CUTOFFS)).tolist():
            terms = mp.fsum(mp.log1p(mpf(p - 1) / (p ** (m + 1) - p)) / mpf(p) ** m
                            for m in range(1, M + 1))
            values[p] = (terms + mpf(p) / (p - 1) / mpf(p) ** (2 * (M + 1)), _beta_factors(p))
    return values


def formula(per_prime: dict, N: int, P: int):
    """The exact alpha - beta of the module docstring."""
    with mp.workdps(DIGITS):
        two = mp.log(2) + mp.fsum(mp.log1p(-mpf(2) ** -(m + 1)) / mpf(2) ** m
                                  for m in range(1, L + 1))
        odd = mp.fsum(a for p, (a, _) in per_prime.items() if p <= N)
        two_tail = 4 * mpf(2) ** (-2 * (L + 1))  # 2 A(2, L)
        T = 2 * mpf("1.25506") / (P * mp.log(P))
        beta = mpf(0)
        for j in range(1, J + 1):
            z = mp.fsum((mpf(2**m) / (2 ** (m + 1) - 1)) ** j / mpf(2) ** m
                        for m in range(1, 4 * DIGITS))
            product = mp.fprod(b[j - 1] for p, (_, b) in per_prime.items() if p <= P)
            beta += z / j * product * (1 - j * T)
        return two + odd + two_tail + mpf(1) / N - beta


def in_window(lambda_upper: float, exact) -> bool:
    with mp.workdps(DIGITS):
        return exact <= mpf(lambda_upper) <= exact + SLACK


@pytest.fixture(scope="module", params=CUTOFFS)
def certificate(request, per_prime):
    """(N, the pass's alpha and beta results, lambda_upper, the formula)."""
    N = request.param
    alpha, beta = lambda_bounds(N, J, N, block_size=DEFAULT_BLOCK_SIZE)
    lambda_upper = combine_lambda(alpha, beta).lambda_upper
    return N, alpha, beta, lambda_upper, formula(per_prime, N, N)


def test_one_block_at_full_depth(certificate):
    N, alpha, *_ = certificate
    assert alpha.depths == {M: primes_in_range(3, N).size}


def test_lambda_upper_is_the_formula_within_the_float_slack(certificate):
    *_, lambda_upper, exact = certificate
    assert in_window(lambda_upper, exact), float(mpf(lambda_upper) - exact)


# Each maps (N, beta's summary, lambda_upper) to the lambda_upper an
# assembly with that fault would give.
MUTATIONS = {
    "drop 1/N": lambda N, beta, lam: lam - 1.0 / N,
    "drop 1 - jT": lambda N, beta, lam: lam + beta.lower_bound - math.fsum(
        r.main.lower * (1.0 - 4.0 * EPS) for r in beta.reports),
    "drop 2A(2, L)": lambda N, beta, lam: lam - 2.0 * tail_a(2, L),
    "looser by 1e-10": lambda N, beta, lam: lam + 1e-10,
}


@pytest.mark.parametrize("mutation", MUTATIONS.values(), ids=MUTATIONS)
def test_a_mutated_assembly_leaves_the_window(certificate, mutation):
    N, _, beta, lambda_upper, exact = certificate
    assert not in_window(mutation(N, beta, lambda_upper), exact)
