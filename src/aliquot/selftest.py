"""Quick oracle checks runnable from the command line (alq selftest).

Each check exercises one computation against an independent reference:
divisor enumeration against the multiplicative sigma and against the
segment sigma kernel's ratios (all, even and odd n), sieve counts against
known prime counts, the closed-form h values against their binomial sums,
the exceptional-set fixture, the trajectory fixtures, the vectorized block
sum against math.fsum, worker-count bit-identity for alpha's block sums
and beta's prime pass (the one the certificate runs), alpha's and beta's
power-sum series past 2^20 against the per-prime walk, beta's Euler route
against the Euler-factor series per prime, and the route against the
odd-sum route (with its Rankin charge) at j = 1.

``checks()`` yields the suite, which ``alq selftest`` prints and acceptance
criterion 7 runs; the unit tests call its oracles at larger sizes.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from .alpha import SERIES_TERMS as ALPHA_TERMS, _series_alpha_sum, alpha_upper_bound
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
from .numerics import CertifiedValue, block_sum_parts, exact_sum, parts_to_certified
from .primes import iter_sigma_segments, primes_in_range
from .trajectory import trace


def alpha_two_routes(primes: np.ndarray) -> tuple[CertifiedValue, CertifiedValue]:
    """The certified sum of alpha(p) over primes p >= SERIES_FROM by the
    two routes of the alpha module: its power-sum series (remainder
    included) and row 0 of the per-prime walk with no j-rows.  Each
    encloses the exact sum, so the two must meet."""
    parts = _power_sum_parts(primes, ALPHA_TERMS)
    series = _series_alpha_sum([parts_to_certified(*parts[f"s{k}"])
                                for k in range(2, ALPHA_TERMS + 2)])
    return series, parts_to_certified(*block_sum_parts(_log_beta_terms(primes, 0)[0]))


def kernel_vs_beta_prime(js=(1, 8, 32), ps=(3, 7, 101, 10007)) -> list[tuple[int, int]]:
    """The (j, p) of js x ps at which exp of the Euler kernel's certified
    log beta_j(p) misses beta_prime's Euler-factor series, radii included;
    empty when the two meet at every prime."""
    apart = []
    for j in js:
        for p in ps:
            t = _log_beta_terms(np.array([p]), j)[j][0]
            kernel = parts_to_certified(t, abs(t), 1).exp()
            bp = beta_prime(j, p, 60)
            if max(kernel.lower, bp.lower) > min(kernel.upper, bp.upper):
                apart.append((j, p))
    return apart


def euler_vs_odd_sum(J: int = 1, N: int = 10**5) -> dict[int, tuple[float, float]]:
    """t_j for j = 1..J by two algorithms: the Euler product over p <= N and
    the odd sum over n <= N.  Each is within its own tail charge of t_j, so
    per j this gives the gap between the two and what the gap may be: the
    odd sum's Rankin charge, the Euler charge j T(N) and both radii."""
    odd = odd_signed_sums(list(range(1, J + 1)), N)
    gaps = {}
    for euler in beta_lower(J, N).reports:
        j = euler.j
        main = main_term(j, odd[j])
        allowed = (s_tail_bound(j, N) * two_beta2_minus_one(j).upper / j + j * prime_tail_bound(N)
                   + euler.main.error_radius + main.error_radius)
        gaps[j] = (abs(euler.main.value - main.value), allowed)
    return gaps


def checks() -> Iterator[tuple[str, bool, str]]:
    """Yield each check as (name, ok, detail), in order; detail may be ""."""
    bad = [n for n in range(1, 2001) if sigma(factorize(n)) != sigma_oracle(n)]
    yield "sigma vs divisor enumeration, n <= 2000", not bad, ""

    for name, parity in (("all", None), ("even", 0), ("odd", 1)):
        # The kernel's ratio is the correctly rounded (sigma(n) - n) / n.
        bad = [
            n
            for n_vals, ratios in iter_sigma_segments(1, 2000, 512, parity)
            for n, r in zip(n_vals.tolist(), ratios.tolist())
            if r != (sigma_oracle(n) - n) / n
        ]
        yield f"segment sigma vs divisor enumeration, {name} n <= 2000", not bad, ""

    yield "prime count to 1e6", primes_in_range(2, 10**6).size == 78498, ""

    h_ok = all(
        abs(h_prime_power(j, p, m) - h_prime_power_binomial(j, p, m))
        <= 1e-15 * max(1.0, h_prime_power(j, p, m))
        for j in (1, 2, 4, 6)
        for p in (3, 5, 13)
        for m in (1, 2, 3)
    )
    yield "h closed form vs binomial sum", h_ok, ""

    yield "exceptional set (j=1, e=1) empty", s_set(1, 1.0) == [], ""
    members = [el.n for el in s_set(2, 0.5)]
    yield "exceptional set (j=2, e=0.5)", members == [3, 15, 21, 105], str(members)

    r12 = trace(12, 50)
    yield ("trajectory of 12",
           r12.terms == [12, 16, 15, 9, 4, 3, 1] and r12.classification.kind == "terminates_at_1",
           "")
    r220 = trace(220, 50)
    yield ("trajectory of 220",
           r220.classification.kind == "cycle" and r220.classification.cycle_length == 2, "")

    lm = log_mean("even", 10**4)
    yield "even log mean at 1e4", abs(lm.value - (-0.0335201796)) < 1e-8, f"{lm.value:.10f}"

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
    yield ("exact block sum equals math.fsum",
           all(exact_sum(t).hex() == math.fsum(t.tolist()).hex()
               for t in (terms, full_chunk, clamped)),
           "")

    # 1e7 integers: enough for two workers to run on forked processes
    # (numerics.SERIAL_INTEGERS).
    a1 = alpha_upper_bound(10**7, workers=1)
    a2 = alpha_upper_bound(10**7, workers=2)
    yield ("alpha block sum worker bit-identity",
           (a1.sums.value, a1.upper_bound) == (a2.sums.value, a2.upper_bound),
           f"{a2.workers} processes")

    # Past 2^20 alpha comes from power sums: on the primes of
    # [2^20, 2^20 + 2^14] the series and the walk must meet.
    series, walk = alpha_two_routes(primes_in_range(SERIES_FROM, SERIES_FROM + (1 << 14)))
    yield ("alpha series vs the walk on the primes of [2^20, 2^20 + 2^14]",
           max(series.lower, walk.lower) <= min(series.upper, walk.upper), "")

    b1 = beta_lower(8, 10**7, workers=1).reports
    b2 = beta_lower(8, 10**7, workers=2).reports
    yield "beta prime pass worker bit-identity", b1 == b2, ""

    apart = kernel_vs_beta_prime()
    yield "Euler kernel vs beta_prime per prime", not apart, str(apart or "")

    # Past 2^20 the pass takes log sums from power sums: on the primes of
    # [2^20, 2^20 + 2^14] both kernels' certified sums must meet.
    primes = primes_in_range(SERIES_FROM, SERIES_FROM + (1 << 14))
    parts = _power_sum_parts(primes, SERIES_TERMS)
    power_sums = [parts_to_certified(*parts[f"s{k}"]) for k in range(2, SERIES_TERMS + 2)]
    apart = []
    for j, row in enumerate(_log_beta_terms(primes, 32)[1:], start=1):
        direct = parts_to_certified(*block_sum_parts(row))
        series = _series_log_sum(j, power_sums)
        if max(direct.lower, series.lower) > min(direct.upper, series.upper):
            apart.append(j)
    yield ("series vs _log_beta_terms on the primes of [2^20, 2^20 + 2^14]",
           not apart, str(apart or ""))

    ((gap, allowed),) = euler_vs_odd_sum().values()
    yield ("Euler j = 1 term vs odd-sum term at 1e5", gap <= allowed,
           f"gap {gap:.2e}, allowed {allowed:.2e}")

    sig = beta_signed(1, factorize(15))
    yield "signed series value at 15", math.isclose(sig, 1.0 / 360.0, rel_tol=1e-12), ""


def run_selftest() -> bool:
    """Print a line per check of checks() and a count; True if all passed."""
    passed = []
    for name, ok, detail in checks():
        suffix = f"  ({detail})" if detail else ""
        print(f"[{'pass' if ok else 'FAIL'}] {name}{suffix}")
        passed.append(ok)
    print(f"{sum(passed)}/{len(passed)} checks passed")
    return all(passed)
