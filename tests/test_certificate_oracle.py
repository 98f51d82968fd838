"""The assembled certificate against a 50-digit recomputation of its formula.

At N = P <= 2000 and J = 8, `alq lambda`'s pass (cli.lambda_bounds) runs
one block below 2^20, where one walk per prime gives alpha(p) (row 0)
and every log beta_j(p).  The formula the code certifies is then

    alpha = log 2 + sum over m = 1..L of 2^-m log(1 - 2^-(m+1))
            + sum over odd p <= N of row_p + 2 A(2, L) + 1/N,
    beta  = sum over j = 1..8 of (z_j/j) prod over odd p <= P of beta_j(p) (1 - j T(P)),

with row_p = (1 - 1/p) sum over m = 1..M_p of p^-m (-log r_m) plus the
tail charge p^-(M_p+1)/(p - 1) at the depth rule's M_p, z_j =
2 beta_j(2) - 1, and every term to 50 digits (exact.py gives row_p, z_j
and beta_j(p)).  The float lambda_upper must lie at or above
alpha - beta, and above it by no more than SLACK: the float radii,
4.7e-14 at N = P = 2000.

Each mutation of the assembly must leave that window: dropping 1/N
(5e-4), the 1 - j T(P) factor (1.8e-4) or 2 A(2, L) (9.3e-10), and a bound
1e-10 looser.  Dropping the tail charges inside the rows cannot be caught
here: the depth rule keeps each below 2^-44 alpha(p), and they come to
6.0e-16 at N = 2000, below the float gap; test_alpha_oracle's row test
covers them.
"""

import pytest

from exact import alpha_row, d, mp, two_part, z

from aliquot.alpha import L, tail_a
from aliquot.cli import combine_lambda, lambda_bounds
from aliquot.numerics import DEFAULT_BLOCK_SIZE, combine_blocks
from aliquot.primes import primes_in_range

J = 8
SLACK = 1e-11
CUTOFFS = (1000, 2000)  # N = P


@pytest.fixture(scope="module")
def per_prime():
    """{p: (row_p, [beta_j(p) for j = 1..J])} for the odd primes up to the
    largest cutoff."""
    return {p: (alpha_row(p), [1 - d(p, j) for j in range(1, J + 1)])
            for p in primes_in_range(3, max(CUTOFFS)).tolist()}


def formula(per_prime: dict, N: int, P: int):
    """The exact alpha - beta of the module docstring."""
    odd = mp.fsum(a for p, (a, _) in per_prime.items() if p <= N)
    two_tail = mp.mpf(4) / 2 ** (2 * (L + 1))  # 2 A(2, L)
    T = 2 * mp.mpf("1.25506") / (P * mp.log(P))
    beta_sum = mp.fsum(
        z(j) / j * mp.fprod(b[j - 1] for p, (_, b) in per_prime.items() if p <= P) * (1 - j * T)
        for j in range(1, J + 1))
    return two_part(L) + odd + two_tail + mp.mpf(1) / N - beta_sum


def in_window(lambda_upper: float, exact) -> bool:
    return exact <= lambda_upper <= exact + SLACK


@pytest.fixture(scope="module", params=CUTOFFS)
def certificate(request, per_prime):
    """(N, the pass's alpha and beta results, lambda_upper, the formula)."""
    N = request.param
    alpha, beta = lambda_bounds(N, J, N, block_size=DEFAULT_BLOCK_SIZE)
    lambda_upper = combine_lambda(alpha, beta).lambda_upper
    return N, alpha, beta, lambda_upper, formula(per_prime, N, N)


def test_lambda_upper_is_the_formula_within_the_float_slack(certificate):
    *_, lambda_upper, exact = certificate
    assert in_window(lambda_upper, exact), float(lambda_upper - exact)


# Each maps (N, beta's summary, lambda_upper) to the lambda_upper an
# assembly with that fault would give.
MUTATIONS = {
    "drop 1/N": lambda N, beta, lam: lam - 1.0 / N,
    "drop 1 - jT": lambda N, beta, lam: lam + beta.lower_bound - combine_blocks(
        [r.main for r in beta.reports]).lower,
    "drop 2A(2, L)": lambda N, beta, lam: lam - 2.0 * tail_a(2, L),
    "looser by 1e-10": lambda N, beta, lam: lam + 1e-10,
}


@pytest.mark.parametrize("mutation", MUTATIONS.values(), ids=MUTATIONS)
def test_a_mutated_assembly_leaves_the_window(certificate, mutation):
    N, _, beta, lambda_upper, exact = certificate
    assert not in_window(mutation(N, beta, lambda_upper), exact)
