"""Exact values of what the certificate evaluates, to 50 digits.

The oracle tests read each value from here, computed once from exact
integers and mpmath in ``mp``, a context of its own fixed at 50 digits,
and do their own arithmetic in ``mp``, so no test sets a precision.
Throughout, sigma(p^m) = 1 + p + ... + p^m and r_m = p^m / sigma(p^m).
"""

import mpmath

mp = mpmath.MPContext()
mp.dps = 50

_SHIFT = 512  # d's sums run in integers scaled by 2^_SHIFT


def alpha_terms(p: int, depth: int) -> tuple:
    """The terms k = 1..depth of alpha(p) = sum over k >= 1 of
    p^-k log(1 + 1/(p + ... + p^k))."""
    terms, pk, sigma = [], 1, 1
    for _ in range(depth):
        pk *= p
        sigma += pk
        terms.append(mp.log1p(mp.mpf(1) / (sigma - 1)) / pk)
    return tuple(terms)


def alpha(p: int) -> mpmath.mpf:
    """alpha(p), its terms summed while p^2k <= 10^60: the k-th is at most
    p^-2k (sigma(p^k) - 1 >= p^k), so the rest is below 10^-60."""
    depth = 1
    while p ** (2 * depth) <= 10**60:
        depth += 1
    return mp.fsum(alpha_terms(p, depth))


def alpha_row(p: int) -> mpmath.mpf:
    """Row 0 of the per-prime walk, exactly: (1 - 1/p) sum over m = 1..M of
    p^-m (-log r_m), plus the tail charge p^-(M+1)/(p - 1), at the least M
    with p^(M-1) (p-1)^2 >= cut (p+1)."""
    cut = 2**44  # the walk's beta._ALPHA_CUT
    M = 1
    while p ** (M - 1) * (p - 1) ** 2 < cut * (p + 1):
        M += 1
    terms, pm, sigma = [], 1, 1
    for _ in range(M):
        pm *= p
        sigma += pm
        terms.append(mp.log(mp.mpf(sigma) / pm) / pm)
    return (1 - mp.mpf(1) / p) * mp.fsum(terms) + mp.mpf(1) / (pm * p * (p - 1))


# alpha(p) summed over the 56,856 odd primes of [95 * 2^20, 96 * 2^20),
# each from alpha(p) above; the recomputation takes 7 s, so it is kept here.
ALPHA_BLOCK_95 = mp.mpf("5.6700200485951821810118415028873355420814582537636e-12")


def two_part(L: int) -> mpmath.mpf:
    """log 2 + sum over m = 1..L of 2^-m log(1 - 2^-(m+1)): the p = 2 part of
    alpha's finite sums, 2 alpha(2) rearranged and cut at L."""
    return mp.log(2) + mp.fsum(mp.log1p(-mp.mpf(2) ** -(m + 1)) / 2**m for m in range(1, L + 1))


def d(p: int, j: int) -> mpmath.mpf:
    """d_{p,j} = 1 - beta_j(p) = (1 - 1/p) sum over m >= 1 of p^-m (1 - r_m^j).

    Summed directly, in integers scaled by 2^512 with each product rounded
    down: 1 - r_m^j is an exact difference, so no cancellation costs digits,
    and the roundings lose at most 2j + m + 1 units of 2^-512, under
    10^-150 for j <= 1024, where d_{p,j} > 10^-21 for p < 10^10.  m runs while
    p^m <= 10^60; as 1 - r_m^j <= min(1, j/p) and d_{p,j} >= 0.63 (1 - 1/p)
    p^-1 min(1, j/(p + 1)), the rest is below 4 10^-60 of d_{p,j}.
    """
    total, pm, sigma = 0, 1, 1
    while pm <= 10**60:
        pm *= p
        sigma = sigma * p + 1
        x, power, k = (pm << _SHIFT) // sigma, 1 << _SHIFT, j
        while k:  # power = r_m^j, under 4j units low
            if k & 1:
                power = power * x >> _SHIFT
            x, k = x * x >> _SHIFT, k >> 1
        total += ((1 << _SHIFT) - power) // pm
    return mp.mpf(total * (p - 1) // p) / 2**_SHIFT


def z(j: int) -> mpmath.mpf:
    """z_j = 2 beta_j(2) - 1 = sum over m >= 1 of 2^-m r_m^j, for m <= 200.
    Every r_m is at most 2/3 = r_1, so the rest is below 2^-199 of z_j."""
    return mp.fsum(mp.mpf(2 ** (m * (j - 1))) / (2 ** (m + 1) - 1) ** j for m in range(1, 201))


def encloses(cv, x) -> bool:
    """Whether cv.value -+ cv.error_radius, taken exactly, encloses x."""
    radius = cv.error_radius
    return mp.fsub(cv.value, radius, exact=True) <= x <= mp.fadd(cv.value, radius, exact=True)
