import math
import random

import pytest

from aliquot.arith import (
    Factorization,
    _perfect_power_root,
    _rho_brent,
    aliquot_sum,
    factorize,
    is_prime,
    nu,
    sigma,
    sigma_oracle,
)
from aliquot.errors import ParameterError, UnresolvedCofactorError
from aliquot.primes import iter_sigma_segments


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class TestIsPrime:
    @pytest.mark.parametrize("n,expected", [(0, False), (1, False), (2, True),
                                            (97, True), (91, False), (2**31 - 1, True)])
    def test_small(self, n, expected):
        assert is_prime(n) is expected

    def test_large_against_trial_division(self):
        n = 10**12 + 39
        assert is_prime(n) is trial_division_is_prime(n)

    def test_random_against_trial_division(self):
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randrange(2, 10**6)
            assert is_prime(n) is trial_division_is_prime(n)


class TestFactorize:
    def test_360(self):
        f = factorize(360)
        assert f.entries == ((2, 3), (3, 2), (5, 1))
        f.validate()

    def test_one_is_empty(self):
        f = factorize(1)
        assert f.entries == () and f.n == 1

    def test_semiprime_recovered(self):
        rng = random.Random(12)

        def random_prime(digits):
            while True:
                candidate = rng.randrange(10 ** (digits - 1), 10**digits)
                if is_prime(candidate):
                    return candidate

        p, q = sorted((random_prime(10), random_prime(10)))
        f = factorize(p * q)
        assert f.entries == ((p, 1), (q, 1))
        product = 1
        for base, exp in f.entries:
            product *= base**exp
        assert product == p * q

    def test_rejects_zero(self):
        with pytest.raises(ParameterError):
            factorize(0)

    def test_rejects_negative_budget(self):
        # Even where trial division alone finishes the factorization.
        with pytest.raises(ParameterError):
            factorize(12, rho_budget=-1)

    def test_effort_exhausted_carries_partial(self):
        p = 1000000000000066600000000000001  # 31-digit prime
        q = 100000000000000000000000000000253  # 33-digit prime
        assert is_prime(p) and is_prime(q)
        n = 4 * p * q
        with pytest.raises(UnresolvedCofactorError) as info:
            factorize(n, rho_budget=0)
        err = info.value
        assert err.entries == ((2, 2),)
        assert err.cofactor == p * q
        rebuilt = err.cofactor
        for base, exp in err.entries:
            rebuilt *= base**exp
        assert rebuilt == n

    def test_perfect_power(self):
        big = (10**9 + 7) ** 3
        f = factorize(big)
        assert f.entries == ((10**9 + 7, 3),)

    def test_perfect_power_root_beyond_float_precision(self):
        m61 = 2**61 - 1
        assert _perfect_power_root(m61**3) == (m61, 3)
        assert _perfect_power_root(m61**3 + 2) is None
        assert factorize(12 * m61**6).entries == ((2, 2), (3, 1), (m61, 6))

    @pytest.mark.parametrize("n,budget,factor,left", [
        (1000003 * 1000033, 10**6, 1000033, 999489),
        (4294967291 * 4294967279, 10**6, 4294967291, 946497),
        (1000000000000037 * 10000000000000061, 2000, None, -47),  # budget exhausted
    ])
    def test_rho_factor_and_budget_pinned(self, n, budget, factor, left):
        # The factor and the budget left, as the product over |x - y| gave
        # them: dropping the abs changes neither.
        remaining = [budget]
        assert _rho_brent(n, remaining) == factor
        assert remaining == [left]

    def test_cofactor_beyond_float_range_is_typed_error(self):
        # The composite cofactor exceeds the double range; the perfect-power
        # test must not overflow, and the exhausted budget must surface as
        # the package's typed error.
        n = (2**521 - 1) * (2**607 - 1)
        with pytest.raises(UnresolvedCofactorError) as info:
            factorize(n, rho_budget=1000)
        assert info.value.cofactor == n


class TestSigma:
    @pytest.mark.parametrize("n,expected", [(12, 28), (1, 1), (2**5, 63), (28, 56)])
    def test_values(self, n, expected):
        assert sigma(factorize(n)) == expected
        assert sigma_oracle(n) == expected

    def test_oracle_equivalence_to_1e4(self):
        for n in range(1, 10001):
            assert sigma(factorize(n)) == sigma_oracle(n)

    def test_multiplicative_on_coprime_pairs(self):
        limit = 1000
        sig = {}
        for n_vals, s_vals in iter_sigma_segments(1, limit * limit):
            for n, s in zip(n_vals.tolist(), s_vals.tolist()):
                sig[n] = s
        for a in range(2, limit + 1):
            for b in range(a + 1, limit + 1):
                if math.gcd(a, b) == 1:
                    assert sig[a * b] == sig[a] * sig[b]

    def test_even_ratio_at_least_three_halves(self):
        for n_vals, s_vals in iter_sigma_segments(2, 10**5):
            evens = n_vals % 2 == 0
            assert (2 * s_vals[evens] >= 3 * n_vals[evens]).all()


class TestAliquotSum:
    def test_prime_maps_to_one(self):
        for p in (2, 3, 97, 10007):
            assert aliquot_sum(p) == 1

    def test_perfect_fixed_point(self):
        assert aliquot_sum(28) == 28

    def test_twelve(self):
        assert aliquot_sum(12) == 16

    def test_one(self):
        assert aliquot_sum(1) == 0

    def test_deficiency_matches_sigma(self):
        perfect = set()
        for n in range(2, 10001):
            s = sigma_oracle(n)
            assert (s - n < n) == (s < 2 * n)
            if s - n == n:
                perfect.add(n)
        assert perfect == {6, 28, 496, 8128}


class TestNu:
    @pytest.mark.parametrize("n,expected", [(1, 0), (12, 2), (30, 3), (1024, 1)])
    def test_values(self, n, expected):
        assert nu(factorize(n)) == expected


class TestFactorizationValidate:
    def test_rejects_wrong_product(self):
        with pytest.raises(ParameterError):
            Factorization(((2, 1),), 3).validate()

    def test_rejects_unsorted(self):
        with pytest.raises(ParameterError):
            Factorization(((3, 1), (2, 1)), 6).validate()

    def test_rejects_composite_base(self):
        with pytest.raises(ParameterError):
            Factorization(((4, 1),), 4).validate()
