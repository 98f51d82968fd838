"""Quick oracle checks runnable from the command line (alq selftest).

Each check exercises one computation against an independent reference:
divisor enumeration against the multiplicative sigma and against the
segment sigma kernel (all, even and odd n), sieve counts against known
prime counts, the closed-form h values against their binomial sums, the
exceptional-set fixture, the trajectory fixtures, the vectorized block
sum against math.fsum, worker-count bit-identity for alpha's block sums,
beta's odd-sum oracle and beta's prime pass (the one the certificate
runs), alpha's per-block depths against a full-depth oracle, and beta's
Euler route against the Euler-factor series per prime, its power-sum
series past 2^20 against the per-prime kernel, and the route against the
odd-sum route (with its Rankin charge) at j = 1.
"""

from __future__ import annotations

import math

import numpy as np

from .alpha import L, M, _block_sums, alpha_two_part, alpha_upper_bound, tail_a
from .arith import factorize, sigma, sigma_oracle
from .beta import (
    SERIES_FROM,
    SERIES_TERMS,
    _log_beta_terms,
    _power_sum_parts,
    _series_log_sum,
    beta_lower,
    beta_prime,
    beta_signed,
    euler_log_sums,
    h_prime_power,
    h_prime_power_binomial,
    main_term,
    odd_signed_sums,
    prime_tail_bound,
    s_set,
    s_tail_bound,
    two_beta2_minus_one,
)
from .means import log_mean
from .numerics import (
    EPS,
    aligned_blocks,
    block_sum_parts,
    certified_combine,
    combine_blocks,
    exact_sum,
    parts_to_certified,
)
from .primes import iter_prime_segments, iter_sigma_segments, primes_in_range
from .trajectory import trace


def _check(name: str, ok: bool, detail: str = "") -> bool:
    status = "pass" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    return ok


def full_depth_alpha_bound(N: int, block_size: int) -> tuple[float, int]:
    """Oracle for alpha_upper_bound's per-block depths: its bound with every
    aligned block summed at the full depth M, and the odd primes counted.

    The assembly repeats alpha_upper_bound's operations in its order, so
    the two agree bit for bit where every block keeps depth M.
    """
    segments = [next(iter_prime_segments(lo, hi, block_size))
                for lo, hi in aligned_blocks(3, N, block_size)]
    parts = [_block_sums(primes, M) for primes in segments]
    odd_sum = combine_blocks([parts_to_certified(*terms) for terms, _ in parts])
    tail_sum = combine_blocks([parts_to_certified(*tails) for _, tails in parts])
    sums = certified_combine(alpha_two_part(L), odd_sum, "add")
    tail_total = 2.0 * tail_a(2, L) + tail_sum.value + tail_sum.error_radius + 1.0 / N
    ub = sums.value + sums.error_radius + tail_total
    ub = math.nextafter(math.nextafter(ub, math.inf), math.inf)
    return ub, sum(primes.size for primes in segments)


def run_selftest() -> bool:
    results = []

    bad = [n for n in range(1, 2001) if sigma(factorize(n)) != sigma_oracle(n)]
    results.append(_check("sigma vs divisor enumeration, n <= 2000", not bad))

    for name, parity in (("all", None), ("even", 0), ("odd", 1)):
        bad = [
            n
            for n_vals, sig in iter_sigma_segments(1, 2000, 512, parity)
            for n, s in zip(n_vals.tolist(), sig.tolist())
            if s != sigma_oracle(n)
        ]
        results.append(_check(f"segment sigma vs divisor enumeration, {name} n <= 2000", not bad))

    results.append(
        _check("prime count to 1e6", primes_in_range(2, 10**6).size == 78498)
    )

    h_ok = all(
        abs(h_prime_power(j, p, m) - h_prime_power_binomial(j, p, m))
        <= 1e-15 * max(1.0, h_prime_power(j, p, m))
        for j in (1, 2, 4, 6)
        for p in (3, 5, 13)
        for m in (1, 2, 3)
    )
    results.append(_check("h closed form vs binomial sum", h_ok))

    results.append(_check("exceptional set (j=1, e=1) empty", s_set(1, 1.0) == []))
    members = [el.n for el in s_set(2, 0.5)]
    results.append(_check("exceptional set (j=2, e=0.5)", members == [3, 15, 21, 105],
                          str(members)))

    r12 = trace(12, 50)
    results.append(
        _check(
            "trajectory of 12",
            r12.terms == [12, 16, 15, 9, 4, 3, 1]
            and r12.classification.kind == "terminates_at_1",
        )
    )
    r220 = trace(220, 50)
    results.append(
        _check(
            "trajectory of 220",
            r220.classification.kind == "cycle"
            and r220.classification.cycle_length == 2,
        )
    )

    lm = log_mean("even", 10**4)
    results.append(
        _check(
            "even log mean at 1e4",
            abs(lm.value - (-0.0335201796)) < 1e-8,
            f"{lm.value:.10f}",
        )
    )

    # Forty decades of magnitude, exact cancellations, subnormals, and more
    # than 2^20 terms.
    rng = np.random.default_rng(0)
    n = (1 << 20) + 3
    terms = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
    terms[: n // 4] = -terms[n // 4 : 2 * (n // 4)]
    terms[-3:] = (5e-324, -0.0, 2.0**-1060)
    # The extraction's edges: a full chunk of 2^15 negative terms just
    # below a power of two, whose pieces sum to -sigma (then two terms that
    # cancel its sum, so a rounded level total would show), and a chunk
    # whose last level is clamped at 2^-1022 (bits down to 2^-1074).
    below = rng.integers(1, 1 << 30, 1 << 15)
    full_chunk = -(np.float64(1.0).view(np.int64) - below).view(np.float64)
    first = math.fsum(full_chunk.tolist())
    second = math.fsum(full_chunk.tolist() + [-first])
    full_chunk = np.concatenate([full_chunk, [-first, -second, 2.0**-70]])
    clamped = np.concatenate(
        [
            rng.random(4096) * 2.0**-1000,
            2.0**-1022 + rng.random(4096) * 2.0**-1022,
            rng.integers(1, 1 << 52, 4096).view(np.float64),
        ]
    )
    results.append(
        _check(
            "exact block sum equals math.fsum",
            all(
                exact_sum(t).hex() == math.fsum(t.tolist()).hex()
                for t in (terms, full_chunk, clamped)
            ),
        )
    )

    # 1e7 integers: enough for two workers to run on forked processes
    # (numerics.SERIAL_INTEGERS).
    a1 = alpha_upper_bound(10**7, workers=1)
    a2 = alpha_upper_bound(10**7, workers=2)
    results.append(
        _check(
            "alpha block sum worker bit-identity",
            (a1.sums.value, a1.upper_bound) == (a2.sums.value, a2.upper_bound),
            f"engine {a2.engine}",
        )
    )

    short = alpha_upper_bound(3 * 10**6, block_size=1 << 16)
    oracle, n_primes = full_depth_alpha_bound(3 * 10**6, 1 << 16)
    results.append(
        _check(
            "alpha per-block depth never loosens the bound",
            short.upper_bound <= oracle and short.n_primes == n_primes,
            f"depths {short.depths}",
        )
    )

    b1 = odd_signed_sums([2], 10**5, block_size=1 << 14, workers=1)[2]
    b4 = odd_signed_sums([2], 10**5, block_size=1 << 14, workers=4)[2]
    results.append(
        _check("beta block sum worker bit-identity", b1.value == b4.value)
    )
    e1 = euler_log_sums(8, 10**7, workers=1)
    e2 = euler_log_sums(8, 10**7, workers=2)
    results.append(_check("beta prime pass worker bit-identity", e1 == e2))

    # Per prime, exp of the Euler kernel's certified log beta_j(p) meets
    # beta_prime's Euler-factor series within both radii.
    apart = []
    for j in (1, 8, 32):
        for p in (3, 7, 101, 10007):
            t = _log_beta_terms(np.array([p]), j)[j - 1][0]
            kernel = parts_to_certified(t, abs(t), 1)
            bp = beta_prime(j, p, 60)
            lo = max(math.exp(kernel.lower), bp.lower)
            if lo > min(math.exp(kernel.upper), bp.upper) * (1 + 4 * EPS):
                apart.append((j, p))
    results.append(_check("Euler kernel vs beta_prime per prime", not apart, str(apart or "")))

    # Past 2^20 the pass takes log sums from power sums: on the primes of
    # [2^20, 2^20 + 2^14] both kernels' certified sums must meet.
    primes = primes_in_range(SERIES_FROM, SERIES_FROM + (1 << 14))
    parts = _power_sum_parts(primes)
    power_sums = [parts_to_certified(*parts[f"s{k}"]) for k in range(2, SERIES_TERMS + 2)]
    apart = []
    for j, row in enumerate(_log_beta_terms(primes, 32), start=1):
        direct = parts_to_certified(*block_sum_parts(row))
        series = _series_log_sum(j, power_sums)
        if max(direct.lower, series.lower) > min(direct.upper, series.upper):
            apart.append(j)
    results.append(_check("series vs _log_beta_terms on the primes of [2^20, 2^20 + 2^14]",
                          not apart, str(apart or "")))

    # The j = 1 term by two algorithms: each is within its tail charge of t_1.
    (euler,) = beta_lower(1, 10**5).reports
    odd = main_term(1, 10**5)
    allowed = (s_tail_bound(1, 10**5) * two_beta2_minus_one(1).upper + prime_tail_bound(10**5)
               + euler.main.error_radius + odd.error_radius)
    gap = abs(euler.main.value - odd.value)
    results.append(_check("Euler j = 1 term vs odd-sum term at 1e5", gap <= allowed,
                          f"gap {gap:.2e}, allowed {allowed:.2e}"))

    sig = beta_signed(1, factorize(15))
    results.append(
        _check("signed series value at 15", math.isclose(sig, 1.0 / 360.0, rel_tol=1e-12))
    )

    ok = all(results)
    print(f"{sum(results)}/{len(results)} checks passed")
    return ok
