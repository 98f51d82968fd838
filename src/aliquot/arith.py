"""Exact arithmetic of the divisor functions.

Primality testing, integer factorization, the sum-of-divisors function
sigma, the aliquot sum s(n) = sigma(n) - n, and a brute-force divisor
enumeration oracle used to cross-check everything else.

All functions here are pure and exact: Python integers never wrap, and the
factorizer either returns a proven-correct decomposition or raises
UnresolvedCofactorError carrying the partial result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import ParameterError, UnresolvedCofactorError

# Strong-pseudoprime witness set: deterministic for n < 3317044064679887385961981
# (covers well beyond 64 bits).  Above that the test is a strong probable
# prime test with these fixed bases plus _EXTRA_BASES.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_LIMIT = 3317044064679887385961981
_EXTRA_BASES = (41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)

_TRIAL_LIMIT = 1 << 16


@lru_cache(maxsize=None)
def _small_primes() -> tuple[int, ...]:
    """Primes below 2^16, by a dense sieve."""
    limit = _TRIAL_LIMIT
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit, p)))
    return tuple(i for i in range(limit) if sieve[i])


def is_prime(n: int) -> bool:
    """Primality by strong pseudoprime tests with fixed witnesses.

    Deterministic (no error probability) for all n below ~3.3e24, hence for
    the full 64-bit range used by the constant computations.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    bases = _MR_BASES if n < _MR_DETERMINISTIC_LIMIT else _MR_BASES + _EXTRA_BASES
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Factorization:
    """Prime-power decomposition n = prod p^m, primes strictly increasing."""

    entries: tuple[tuple[int, int], ...]
    n: int

    def validate(self) -> None:
        """Recheck the structural invariants (used by tests, not hot paths)."""
        prod = 1
        last = 1
        for p, m in self.entries:
            if p <= last:
                raise ParameterError(f"primes not strictly increasing in {self.entries}")
            if m < 1:
                raise ParameterError(f"exponent must be >= 1 in {self.entries}")
            if not is_prime(p):
                raise ParameterError(f"{p} is not prime")
            prod *= p**m
            last = p
        if prod != self.n:
            raise ParameterError(f"entries multiply to {prod}, not {self.n}")

    def __iter__(self):
        return iter(self.entries)


def _rho_brent(n: int, budget: list[int]) -> int | None:
    """Brent-cycle Pollard rho.  Returns a nontrivial factor of composite
    odd n, or None once the shared iteration budget runs out.

    Deterministic: the polynomial increment is stepped through a fixed
    sequence rather than drawn at random.  The batch product takes each
    x - y without abs: the product then differs from the one over |x - y|
    by a sign mod n, and gcd(-a mod n, n) = gcd(a, n), so every gcd, the
    factor and the budget spent are the same.
    """
    if n % 2 == 0:
        return 2
    for c in range(1, 64):
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        m = 128
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                budget[0] -= min(m, r - k)
                g = math.gcd(q, n)
                k += m
            r *= 2
            if budget[0] <= 0:
                return None
        if g == n:
            # Backtrack to find the factor the batched gcd jumped over.
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
                budget[0] -= 1
        if g != n:
            return g
        # Cycle degenerated for this c; try the next increment.
    return None


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) in exact integer arithmetic, for n >= 1, k >= 2."""
    if k == 2:
        return math.isqrt(n)
    # Newton's iteration decreases monotonically from any start at or
    # above the root and stops at the floor of the root.
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_power_root(n: int) -> tuple[int, int] | None:
    """(a, k) with a**k == n and k a prime >= 2, or None.

    For n without prime factors below 2^16 (factorize's cofactors after
    trial division), a root a would be at least 2^16, so only prime k up
    to n.bit_length() // 16 can occur; a composite k = k1 * k2 shows up as
    the prime k1 with root a**k2.
    """
    for k in range(2, n.bit_length() // 16 + 1):
        if all(k % d for d in range(2, math.isqrt(k) + 1)):
            a = _iroot(n, k)
            if a**k == n:
                return a, k
    return None


def factorize(n: int, rho_budget: int = 500_000) -> Factorization:
    """Complete prime factorization of n >= 1.

    Trial division by all primes below 2^16, then Pollard rho with Brent
    cycle detection on what remains.  ``rho_budget`` caps the total number
    of rho iterations; if a composite cofactor survives the budget, an
    UnresolvedCofactorError carrying the partial factorization is raised
    (never a wrong answer).
    """
    if n < 1:
        raise ParameterError(f"factorize requires n >= 1, got {n}")
    if rho_budget < 0:
        raise ParameterError(f"rho_budget must be >= 0, got {rho_budget}")
    if n == 1:
        return Factorization((), 1)
    factors: dict[int, int] = {}
    rest = n
    for p in _small_primes():
        if p * p > rest:
            break
        if rest % p == 0:
            m = 0
            while rest % p == 0:
                rest //= p
                m += 1
            factors[p] = m
    if rest > 1:
        if rest < _TRIAL_LIMIT * _TRIAL_LIMIT or is_prime(rest):
            # Below the square of the trial limit any survivor is prime.
            factors[rest] = factors.get(rest, 0) + 1
        else:
            budget = [rho_budget]
            stack = [rest]
            while stack:
                m_val = stack.pop()
                if is_prime(m_val):
                    factors[m_val] = factors.get(m_val, 0) + 1
                    continue
                pp = _perfect_power_root(m_val)
                if pp is not None:
                    a, k = pp
                    stack.extend([a] * k)
                    continue
                d = _rho_brent(m_val, budget)
                if d is None or d == m_val:
                    entries = tuple(sorted(factors.items()))
                    unresolved = m_val
                    for extra in stack:
                        unresolved *= extra
                    raise UnresolvedCofactorError(n, entries, unresolved)
                stack.append(d)
                stack.append(m_val // d)
    return Factorization(tuple(sorted(factors.items())), n)


def sigma(f: Factorization) -> int:
    """sigma(n) = prod over p^m || n of (1 + p + ... + p^m), exactly."""
    total = 1
    for p, m in f.entries:
        total *= (p ** (m + 1) - 1) // (p - 1)
    return total


def aliquot_sum(n: int, rho_budget: int = 500_000) -> int:
    """s(n) = sigma(n) - n, the sum of divisors of n below n; s(1) = 0."""
    if n < 1:
        raise ParameterError(f"aliquot_sum requires n >= 1, got {n}")
    if n == 1:
        return 0
    return sigma(factorize(n, rho_budget)) - n


def nu(f: Factorization) -> int:
    """Number of distinct prime divisors."""
    return len(f.entries)


def sigma_oracle(n: int) -> int:
    """sigma(n) by full divisor enumeration, independent of factorize."""
    if n < 1:
        raise ParameterError(f"sigma_oracle requires n >= 1, got {n}")
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d
            q = n // d
            if q != d:
                total += q
        d += 1
    return total
