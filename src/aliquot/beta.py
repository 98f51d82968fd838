"""Certified lower bound for the signed-series constant beta.

beta = sum over j >= 1 of (1/j) * (2 beta_j(2) - 1) * prod over odd p of beta_j(p),

where beta_j(p) = (1 - 1/p) * sum over m >= 0 of p^-m (p^m/sigma(p^m))^j.
Expanding the products turns each j-term into a sum of the signed
multiplicative function

    beta_j(n) = (-1)^nu(n) g_j(n) h_j(n),
    g_j(n) = (1/n) (n/sigma(n))^j,
    h_j(p^m) = (1 + 1/(p sigma(p^{m-1})))^j - 1,      h_j(1) = 1,

over odd n, times a 2-adic factor sum over powers of two.  Cutting the
odd sum at N leaves the tail over odd n > N, which pays one certified
moment bound, s_tail_bound: by the triangle inequality and Rankin's device,

    |sum_{odd n>N} beta_j(n)| <= sum_{odd n>N} g_j h_j
        <= N^-delta prod_{odd p} (1 + sum_m g_j h_j(p^m) p^(m delta)).

The paper's route splits the tail into the integers with h_j(n) <= n^-e,
bounded by error_term, and the finite exceptional set S = {n : h_j(n) >
n^-e} (s_set; its members are products of prime powers from the finite
set t_set).  Those functions reproduce the paper's tables and bound
main_term_direct's mixed region; the certificate does not use them.

Every quantity feeding the final bound carries an explicit error radius;
subtractions are always taken on the pessimistic side.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import Factorization
from .checkpoint import BlockRecord, CheckpointStore
from .errors import ParameterError, ResourceError, SSetBudgetExceeded
from .numerics import (
    EPS,
    CertifiedValue,
    aligned_blocks,
    block_sum_parts,
    certified_product,
    certified_quotient,
    combine_blocks,
    compensated_sum,
    map_blocks,
    parts_to_certified,
)
from .primes import check_range, iter_factor_segments, primes_in_range, strided_prime_powers

DEFAULT_BLOCK_SIZE = 1 << 20
DEFAULT_K2 = 64
DEFAULT_NODE_BUDGET = 500_000
_TERM_ROWS = 1 << 14  # rows per pass of _block_odd_signed's cache-sized stages
_TILE_PRIMES = 64  # _block_odd_signed applies primes below this in those passes
_FLUSH_INTEGERS = 10**7  # odd_signed_sums saves its checkpoint this often


def _sigma_pp(p: int, m: int) -> int:
    """sigma(p^m) = 1 + p + ... + p^m, exact."""
    return (p ** (m + 1) - 1) // (p - 1)


def g_prime_power(j: int, p: int, m: int) -> float:
    """g_j(p^m) = p^-m (p^m/sigma(p^m))^j."""
    pm = p**m
    ratio = pm / _sigma_pp(p, m)
    if pm > 10**300:
        return 0.0
    return ratio**j / pm


def h_prime_power(j: int, p: int, m: int) -> float:
    """h_j(p^m) = (1 + 1/(p sigma(p^{m-1})))^j - 1, stably via expm1/log1p."""
    den = p * _sigma_pp(p, m - 1)
    if den > 10**300:
        return 0.0
    return math.expm1(j * math.log1p(1.0 / den))


def h_prime_power_binomial(j: int, p: int, m: int) -> float:
    """Reference form: sum over k = 1..j of C(j,k) / (p sigma(p^{m-1}))^k."""
    den = p * _sigma_pp(p, m - 1)
    total = Fraction(0)
    for k in range(1, j + 1):
        total += Fraction(math.comb(j, k), den**k)
    return float(total)


def g(j: int, f: Factorization) -> float:
    """g_j(n), multiplicatively over the prime powers of n."""
    val = 1.0
    for p, m in f.entries:
        val *= g_prime_power(j, p, m)
    return val


def h(j: int, f: Factorization) -> float:
    """h_j(n), multiplicatively over the prime powers of n; h_j(1) = 1."""
    val = 1.0
    for p, m in f.entries:
        val *= h_prime_power(j, p, m)
    return val


def beta_signed(j: int, f: Factorization) -> float:
    """beta_j(n) = (-1)^nu(n) g_j(n) h_j(n) for odd n; beta_j(1) = 1."""
    if f.n % 2 == 0:
        raise ParameterError(f"beta_signed is defined on odd n, got {f.n}")
    sign = -1.0 if len(f.entries) % 2 else 1.0
    return sign * g(j, f) * h(j, f)


def _check_K2(K2: int) -> None:
    # two_beta2_minus_one divides by 2^K2 as a float, which ends at 2^1023.
    if not 8 <= K2 <= 1023:
        raise ParameterError(f"K2 must lie in [8, 1023], got {K2}")


def two_beta2_minus_one(j: int, K2: int = DEFAULT_K2) -> CertifiedValue:
    """2 beta_j(2) - 1 = sum over m >= 1 of g_j(2^m), truncated at K2.

    The dropped tail is below (2/3)^j 2^(1-K2) (each term is at most
    (2/3)^j 2^-m) and is folded into the radius.
    """
    _check_K2(K2)
    terms = []
    for m in range(1, K2 + 1):
        num = 1 << m
        den = (1 << (m + 1)) - 1
        terms.append((num / den) ** j / num)
    return compensated_sum(terms).widened((2.0 / 3.0) ** j * 2.0 ** (1 - K2))


def beta_prime(j: int, p: int, depth: int) -> CertifiedValue:
    """beta_j(p) by its Euler-factor series, truncated at the given depth.

    Tail folded into the radius with the conservative geometric bound
    sum over m > depth of p^-m = p^-depth/(p-1).
    """
    if depth < 4:
        raise ParameterError(f"depth must be >= 4, got {depth}")
    terms = []
    pm = 1
    sig = 1
    for m in range(depth + 1):
        if m > 0:
            pm *= p
            sig = sig * p + 1
        if pm > 10**300:
            break
        terms.append((pm / sig) ** j / pm)
    value = compensated_sum(terms)
    scaled = CertifiedValue(
        (1.0 - 1.0 / p) * value.value,
        value.error_radius + EPS * abs(value.value),
    )
    return scaled.widened(float(p) ** (-depth) / (p - 1))


# The paper's exponents e_j for j = 1..8.
PAPER_E = (1.0, 0.75, 0.60, 0.48, 0.35, 0.28, 0.20, 0.15)


def error_term(j: int, e: float, N: int) -> float:
    """Bound (2 j e N^e)^-1 (2/3)^j for the odd n > N with h_j(n) <= n^-e."""
    if j < 1:
        raise ParameterError(f"j must be >= 1, got {j}")
    if not 0 < e <= 1:
        raise ParameterError(f"e must lie in (0, 1], got {e}")
    if N < 2:
        raise ParameterError(f"N must be >= 2, got {N}")
    return (2.0 / 3.0) ** j / (2.0 * j * e * N**e)


# ---------------------------------------------------------------------------
# The finite sets T and S and the constant M
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrimePowerEntry:
    p: int
    m: int
    h_value: float
    g_value: float


def t_set(j: int, e: float, c: float) -> list[PrimePowerEntry]:
    """All odd prime powers p^m with h_j(p^m) >= 1/(c (p^m)^e) (inclusive).

    Finite for 0 < e < 1: since h_j(p^m) <= 2j/p^m once p^m >= 2j (checked
    for every scanned entry), nothing beyond p^m = (2jc)^(1/(1-e)) can
    qualify, so scanning prime powers up to that cutoff is exhaustive.
    """
    if not 0.0 < e < 1.0:
        raise ParameterError(f"t_set requires 0 < e < 1, got {e}")
    if c <= 0:
        raise ParameterError(f"c must be positive, got {c}")
    cutoff = (2.0 * j * c) ** (1.0 / (1.0 - e))
    if cutoff > 1e8:
        raise ResourceError(
            f"t_set cutoff {cutoff:.3g} too large to scan; lower c or e"
        )
    limit = int(cutoff) + 1  # one past, so a float-rounded boundary cannot drop
    entries = []
    for p in primes_in_range(3, limit).tolist():
        pm = p
        m = 1
        while pm <= limit:
            hv = h_prime_power(j, p, m)
            if pm >= 2 * j and hv > 2.0 * j / pm * (1 + 1e-12):
                raise AssertionError(
                    f"h bound violated at p={p}, m={m}: {hv} > 2j/p^m"
                )
            if hv * c * pm**e >= 1.0:
                entries.append(PrimePowerEntry(p, m, hv, g_prime_power(j, p, m)))
            m += 1
            pm *= p
    return entries


def m_const(j: int, e: float) -> float:
    """M = max over odd n of h_j(n) n^e.

    Only prime powers with h_j(p^m) (p^m)^e > 1, i.e. members of the c = 1
    set, can contribute a factor above 1, so M is the product over their
    primes of the worst per-prime factor (and at least 1, from n = 1).
    """
    worst: dict[int, float] = {}
    for entry in t_set(j, e, 1.0):
        val = entry.h_value * entry.p ** (e * entry.m)
        if val > worst.get(entry.p, 1.0):
            worst[entry.p] = val
    result = 1.0
    for val in worst.values():
        result *= max(1.0, val)
    return result


@dataclass(frozen=True)
class SElement:
    n: int
    h_value: float
    g_value: float
    nu: int


def s_set(
    j: int, e: float, *, node_budget: int | None = DEFAULT_NODE_BUDGET
) -> list[SElement]:
    """The exceptional set S = {n : h_j(n) > n^-e}, fully enumerated.

    Members are exactly the products of prime powers from the c = M set
    (one power per prime); depth-first search over those primes, pruning a
    branch as soon as even the best remaining factors cannot push
    h_j(n) n^e above 1.  The inequality is strict, matching the set
    definition (so n = 1 is never a member).

    e = 1 is accepted only for j = 1, where h_1(p^m) p^m =
    p^{m-1}/sigma(p^{m-1}) <= 1 makes the set empty with no enumeration.

    Raises SSetBudgetExceeded (with the partial member count) if the
    search visits more than ``node_budget`` nodes.
    """
    if e == 1.0:
        if j == 1:
            return []
        raise ParameterError("e = 1 is only supported for j = 1 (empty set)")
    target = m_const(j, e)
    entries = t_set(j, e, target)
    by_prime: dict[int, list[PrimePowerEntry]] = {}
    for entry in entries:
        by_prime.setdefault(entry.p, []).append(entry)
    primes = sorted(by_prime)
    options = []
    for p in primes:
        opts = []
        for entry in by_prime[p]:
            w = math.log(entry.h_value) + e * entry.m * math.log(entry.p)
            opts.append((w, entry))
        options.append(opts)
    best_gain = [max((w for w, _ in opts), default=0.0) for opts in options]
    best_gain = [max(0.0, bg) for bg in best_gain]
    suffix = [0.0] * (len(primes) + 1)
    for i in range(len(primes) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + best_gain[i]

    found: list[SElement] = []
    nodes = 0

    def visit(i: int, w: float, n: int, hv: float, gv: float, cnt: int) -> None:
        nonlocal nodes
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            raise SSetBudgetExceeded(
                f"exceptional-set search for j={j}, e={e} passed {node_budget} nodes",
                partial_count=len(found),
            )
        if n > 1 and w > 1e-9:
            found.append(SElement(n, hv, gv, cnt))
        elif n > 1 and abs(w) <= 1e-9:
            # Boundary within float noise: re-decide with wide arithmetic.
            if _wide_membership(j, e, n):
                found.append(SElement(n, hv, gv, cnt))
        for t in range(i, len(primes)):
            if w + suffix[t] <= -1e-9:
                break
            for wv, entry in options[t]:
                visit(
                    t + 1,
                    w + wv,
                    n * entry.p**entry.m,
                    hv * entry.h_value,
                    gv * entry.g_value,
                    cnt + 1,
                )

    visit(0, 0.0, 1, 1.0, 1.0, 0)
    found.sort(key=lambda el: el.n)
    return found


def _wide_membership(j: int, e: float, n: int) -> bool:
    """h_j(n) n^e > 1 decided in 60-digit decimal arithmetic."""
    from decimal import Decimal, localcontext

    from .arith import factorize

    with localcontext() as ctx:
        ctx.prec = 60
        log_total = Decimal(0)
        for p, m in factorize(n).entries:
            den = p * _sigma_pp(p, m - 1)
            ratio = (Decimal(den + 1) / Decimal(den)) ** j - 1
            log_total += ratio.ln()
        log_total += Decimal(e) * Decimal(n).ln()
        return log_total > 0


# ---------------------------------------------------------------------------
# Main terms: the odd signed sums and the 2-adic factor
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1 << 14)
def _prime_power_rows(p: int, m_max: int, js: tuple[int, ...]) -> np.ndarray:
    """Factors of the odd prime power p^m, one row per m = 0..m_max.

    Row m holds -h_j(p^m) for each j in js, then p^m / sigma(p^m) and p^m
    (row 0 is all ones): the per-prime factors of the columns that
    _block_odd_signed accumulates, and of main_term_direct's terms.  The
    sign is the prime power's factor -1 of (-1)^nu(n), so a product of
    h rows is (-1)^nu(n) h_j(n); negation is exact, so this gives the bits
    of a separate sign factor.  Read-only, as rows are shared.
    """
    rows = [[1.0] * (len(js) + 2)]
    for m in range(1, m_max + 1):
        pm = p**m
        sig_m = (p ** (m + 1) - 1) // (p - 1)
        sig_prev = (pm - 1) // (p - 1)
        lx = math.log1p(1.0 / (p * sig_prev))
        rows.append([-math.expm1(j * lx) for j in js] + [pm / sig_m, float(pm)])
    table = np.array(rows)
    table.flags.writeable = False
    return table


def _block_odd_signed(lo: int, hi: int, j_list: list[int]) -> dict[int, tuple]:
    """Per-j (value, abs_sum, n_terms) of sum of beta_j(n) over odd n in [lo, hi].

    The block's odd integers n0, n0 + 2, ... are factored in place into one
    (size, J + 2) array whose columns accumulate the signed
    (-1)^nu h_j for each j (the sign lives in the h rows of
    _prime_power_rows), the ratio n/sigma(n) and the smooth part of n, so
    an integer's columns share one or two cache lines.  For each odd base
    prime p (p^2 at most the largest n), primes.strided_prime_powers gives
    the multiples of p as the strided view i0::p with i0 = -n0 * 2^-1 mod p
    and their exponents of p; the exponent array picks rows of
    _prime_power_rows, and one multiply applies them.  The primes below
    _TILE_PRIMES touch every cache line of the array, so they are applied
    run by run of _TERM_ROWS rows, before the larger primes go over the
    whole block; each element still meets its primes in ascending order.
    The smooth part is
    a product of integers below 2^53, so it is exact in floating point,
    and n / smooth is the exact cofactor: 1, or one prime q above
    sqrt(hi), whose factors q/(q + 1), (1 + 1/q)^j - 1 and -1 (carried by
    1/n) multiply in last as plain arrays: on the rows without a large
    prime (q = 1) each factor array holds 1.0, and x * 1.0 = x exactly, so
    no masked ufunc is needed.

    Each element's products are formed in one fixed order (ascending p,
    the large prime last) from the same scalar factors, so the block's
    bits are independent of the array layout; stored checkpoints compare
    them bit for bit on resume.
    """
    js = tuple(sorted(set(j_list)))
    n0 = lo | 1
    if n0 > hi:
        return {j: (0.0, 0.0, 0) for j in js}
    size = (hi - n0) // 2 + 1

    acc = np.ones((size, len(js) + 2))
    walk = [
        (p, i0, exps, _prime_power_rows(p, 1 if exps is None else int(exps.max()), js))
        for p, i0, exps in strided_prime_powers(n0, size, 2)
    ]
    n_small = sum(p < _TILE_PRIMES for p, *_ in walk)
    for a in range(0, size, _TERM_ROWS):
        b = min(a + _TERM_ROWS, size)
        for p, i0, exps, rows in walk[:n_small]:
            k = max(0, -((i0 - a) // p))  # the first multiple at or past a
            view = acc[i0 + k * p : b : p]
            view *= rows[1] if exps is None else rows.take(exps[k : k + len(view)], axis=0)
    for p, i0, exps, rows in walk[n_small:]:
        acc[i0::p] *= rows[1] if exps is None else rows.take(exps, axis=0)

    # The large prime and the terms, in cache-sized runs of rows.
    terms = np.empty((len(js), size))
    for a in range(0, size, _TERM_ROWS):
        b = min(a + _TERM_ROWS, size)
        *h_cols, ratio, smooth = acc[a:b].T.copy()
        n_float = (n0 + 2 * np.arange(a, b, dtype=np.int64)).astype(np.float64)
        q = n_float / smooth
        no_q = np.flatnonzero(q <= 1.0)  # the rows without a large prime
        factor = q / (q + 1.0)
        factor[no_q] = 1.0
        ratio *= factor
        factor.fill(-1.0)
        factor[no_q] = 1.0
        inv_n = factor / n_float
        lq = np.log1p(1.0 / q)
        power = np.ones(b - a)
        last_j = 0
        for h_j, j, row in zip(h_cols, js, terms):
            np.multiply(lq, j, out=factor)
            np.expm1(factor, out=factor)
            factor[no_q] = 1.0
            h_j *= factor
            power *= ratio ** (j - last_j)
            last_j = j
            term = row[a:b]
            np.multiply(power, inv_n, out=term)
            term *= h_j
    return {j: block_sum_parts(row) for j, row in zip(js, terms)}


def odd_signed_sums(
    j_list: list[int],
    N: int,
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
    workers: int = 1,
    checkpoint: CheckpointStore | None = None,
    stop_after_blocks: int | None = None,
) -> dict[int, CertifiedValue] | None:
    """sum of beta_j(n) over odd n <= N for every j, deterministically.

    Blocks are aligned to absolute multiples of block_size and merged in
    ascending order, so results are independent of worker count.  With a
    checkpoint store, completed blocks are saved as they finish (every
    _FLUSH_INTEGERS integers, and at the end if blocks were added since),
    so a killed run keeps its progress.  On resume the first and the last
    stored blocks are recomputed, and unless both equal their records bit
    for bit and every record holds the same series, the file is discarded.
    Returns None when stop_after_blocks ends the run early (progress is
    saved if a checkpoint store was given).
    """
    j_list = sorted(set(j_list))
    check_range(1, N, block_size)
    blocks = aligned_blocks(1, N, block_size)

    def eval_block(lo: int, hi: int) -> BlockRecord:
        parts = _block_odd_signed(lo, hi, j_list)
        return BlockRecord(lo // block_size, lo, hi, {str(j): parts[j] for j in j_list})

    records: list[BlockRecord] = []
    if checkpoint is not None:
        records = checkpoint.load()
        if records and not (
            len(records) <= len(blocks)
            and all(r.parts.keys() == records[0].parts.keys() for r in records)
            and all(records[k] == eval_block(*blocks[k]) for k in sorted({0, len(records) - 1}))
        ):
            records = []
            checkpoint.discard()
    todo = blocks[len(records) :]
    if stop_after_blocks is not None:
        todo = todo[: max(0, stop_after_blocks - len(records))]

    flush_every = max(1, _FLUSH_INTEGERS // block_size)
    saved = len(records)

    def keep(record: BlockRecord) -> None:
        nonlocal saved
        records.append(record)
        if checkpoint is not None and len(records) % flush_every == 0:
            checkpoint.save(records)
            saved = len(records)

    map_blocks(todo, eval_block, workers, on_block=keep)
    if checkpoint is not None and len(records) > saved:
        checkpoint.save(records)
    if len(records) < len(blocks):
        return None
    return {
        j: combine_blocks([parts_to_certified(*rec.parts[str(j)]) for rec in records])
        for j in j_list
    }


# ---------------------------------------------------------------------------
# Per-j assembly and the aggregate lower bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BetaJConfig:
    """Parameters for one j-term: odd-sum cutoff N (even) and dyadic
    truncation depth K2."""

    j: int
    N: int
    K2: int = DEFAULT_K2

    def __post_init__(self):
        if self.j < 1:
            raise ParameterError(f"j must be >= 1, got {self.j}")
        if self.N <= 1 or self.N % 2 != 0:
            raise ParameterError(f"N must be even and > 1, got {self.N}")
        _check_K2(self.K2)


def main_term(
    config: BetaJConfig,
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
    workers: int = 1,
    odd_sum: CertifiedValue | None = None,
) -> CertifiedValue:
    """(1/j) * (2 beta_j(2) - 1 truncated) * sum of beta_j(n) over odd n <= N.

    The factorized form: the 2-adic factor multiplies the odd signed sum,
    which covers every even integer whose odd part is at most N (for all
    powers of two at once).  ``odd_sum`` lets callers reuse a shared pass.
    """
    if odd_sum is None:
        sums = odd_signed_sums([config.j], config.N, block_size=block_size, workers=workers)
        odd_sum = sums[config.j]
    z = two_beta2_minus_one(config.j, config.K2)
    return certified_quotient(certified_product(z, odd_sum), config.j)


def mixed_region_bound(j: int, e: float, N: int) -> float:
    """Bound for the even integers a direct sum over n <= N misses
    (odd part at most N but 2^k n_o beyond N): (2/3)^j 2 M / ((1-e) N^e);
    for e = 1 (j = 1) the integral picks up a log factor instead.
    """
    if e == 1.0:
        return (2.0 / 3.0) ** j * 2.0 * (0.5 * math.log(N) + 1.0) / N
    return (2.0 / 3.0) ** j * 2.0 * m_const(j, e) / ((1.0 - e) * N**e)


def main_term_direct(
    config: BetaJConfig,
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
    workers: int = 1,
) -> CertifiedValue:
    """Cross-check form: (1/j) * sum of beta*_j(n) over even n <= N, where
    beta*_j(2^k n_o) = g_j(2^k) beta_j(n_o).

    Used in place of the factorized form, its uncertainty must also cover
    mixed_region_bound(j, e, N) at one of the paper's exponents e.
    """
    j = config.j
    check_range(1, config.N, block_size)

    def eval_block(lo: int, hi: int) -> CertifiedValue:
        # An aligned block is exactly one segment.
        (seg,) = iter_factor_segments(lo, hi, segment_size=block_size)
        size = seg.n_values.size
        ratio = np.ones(size)
        h_arr = np.ones(size)
        two_part = np.ones(size)
        odd_part = seg.n_values.copy()
        for p, m, idx in seg.events:
            if p == 2:
                two_part[idx] = g_prime_power(j, 2, m)
                odd_part[idx] //= 2**m
                continue
            h_pm, ratio_pm, _ = _prime_power_rows(p, m, (j,))[m]
            ratio[idx] *= ratio_pm
            h_arr[idx] *= h_pm
        tail = seg.rem > 1
        if tail.any():
            q = seg.rem[tail].astype(np.float64)
            ratio[tail] *= q / (q + 1.0)
            h_arr[tail] *= -np.expm1(j * np.log1p(1.0 / q))
        vals = two_part * (ratio**j) * h_arr / odd_part.astype(np.float64)
        return parts_to_certified(*block_sum_parts(vals[seg.n_values % 2 == 0]))

    total = combine_blocks(map_blocks(aligned_blocks(2, config.N, block_size), eval_block, workers))
    return certified_quotient(total, j)


def s_tail_bound(
    j: int,
    N: int,
    *,
    delta: float = 0.8,
    prime_cutoff: int = 100_000,
) -> float:
    """Certified bound for sum over odd n > N of g_j(n) h_j(n).

    Rankin's device: the sum is at most N^-delta times the full moment

        prod over odd p of (1 + sum over m >= 1 of g_j(p^m) h_j(p^m) p^(m delta)),

    whose factors are evaluated directly for p up to prime_cutoff (power
    tails by the geometric bound h_j(p^m) <= j e^{j/p^m} / p^m) and
    bounded for larger p through the explicit prime-counting inequality
    pi(x) < 1.25506 x / log x.  As g_j h_j = |beta_j| (g_j, h_j >= 0), it
    bounds |sum over odd n > N of beta_j(n)| by the triangle inequality,
    so it covers the whole odd tail past N, exceptional set included.
    """
    if not 0.0 < delta < 1.0:
        raise ParameterError(f"delta must lie in (0, 1), got {delta}")
    if prime_cutoff < 1000:
        raise ParameterError("prime_cutoff must be at least 1000")
    power_limit = 10**6
    p = primes_in_range(3, prime_cutoff).astype(np.float64)
    inner = np.zeros(p.size)
    included = np.zeros(p.size)
    m = 1
    count = p.size
    while count > 0:
        pw = p[:count]
        base = pw**m
        sig_m = (pw * base - 1.0) / (pw - 1.0)
        sig_prev = (base - 1.0) / (pw - 1.0)
        gv = (base / sig_m) ** j / base
        hv = np.expm1(j * np.log1p(1.0 / (pw * sig_prev)))
        inner[:count] += gv * hv * base**delta
        included[:count] = m
        m += 1
        count = int(np.searchsorted(p, power_limit ** (1.0 / m), side="right"))
    # Per-prime power tail, starting right after the last included power
    # (every omitted power exceeds power_limit, where h <= j e^{j/limit} x).
    decay = p ** (delta - 2.0)
    coeff = j * math.exp(j / power_limit) / (1.0 - decay.max())
    inner += coeff * p ** ((included + 1.0) * (delta - 2.0))
    log_total = float(np.log1p(inner).sum())
    # Primes above the cutoff.
    s = 2.0 - delta
    coeff_tail = j * math.exp(j / prime_cutoff) / (1.0 - prime_cutoff ** (delta - 2.0))
    prime_tail = (
        coeff_tail
        * 1.25506
        * s
        / (s - 1.0)
        * prime_cutoff ** (1.0 - s)
        / math.log(prime_cutoff)
    )
    return N ** (-delta) * math.exp(log_total + prime_tail) * (1.0 + 1e-6)


@dataclass
class BetaJReport:
    config: BetaJConfig
    main: CertifiedValue
    s_bound: float
    contribution_lower: float

    def to_json_dict(self) -> dict:
        return {
            "j": self.config.j,
            "N": self.config.N,
            "K2": self.config.K2,
            "main_term": self.main.value,
            "main_term_error_radius": self.main.error_radius,
            "s_tail_bound": self.s_bound,
            "contribution_lower": self.contribution_lower,
        }


@dataclass
class BetaSummary:
    certified: CertifiedValue
    reports: list[BetaJReport]
    elapsed_seconds: float

    @property
    def lower_bound(self) -> float:
        return self.certified.lower

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "lower_bound": self.lower_bound,
            "value": self.certified.value,
            "error_radius": self.certified.error_radius,
            "elapsed_seconds": self.elapsed_seconds,
            "terms": [r.to_json_dict() for r in self.reports],
        }


def beta_lower(
    configs: list[BetaJConfig],
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
    workers: int = 1,
    checkpoint_dir: str | None = None,
    stop_after_blocks: int | None = None,
) -> BetaSummary | None:
    """Certified lower bound for beta from the given per-j configurations.

    Per j the main term covers exactly the odd n <= N, and the odd tail
    past N is charged s_tail_bound(j, N) * z_upper / j, with z the 2-adic
    factor, and nothing else: |sum over odd n > N of beta_j(n)| <= sum over
    odd n > N of g_j h_j <= N^-delta prod over odd p of (1 + sum over m of
    g_j h_j(p^m) p^(m delta)), by the triangle inequality and Rankin's
    device.  Terms with j beyond the configured range are all positive,
    so dropping them keeps the bound valid.
    Returns None if ``stop_after_blocks`` ends the odd-sum pass early
    (resume later with the same configuration and checkpoint_dir).
    """
    t0 = time.time()
    js = [c.j for c in configs]
    if len(set(js)) != len(js):
        raise ParameterError("duplicate j in configs")

    # One odd-sum pass per N: K2 only enters the 2-adic factor.
    by_n: dict[int, list[BetaJConfig]] = {}
    for cfg in configs:
        by_n.setdefault(cfg.N, []).append(cfg)

    odd_sums: dict[int, CertifiedValue] = {}
    for N, group in sorted(by_n.items()):
        store = None
        if checkpoint_dir is not None:
            key = {
                "kind": "beta-odd-sum",
                "N": N,
                "block_size": block_size,
                "j_list": sorted(c.j for c in group),
            }
            store = CheckpointStore(checkpoint_dir, "beta-odd", key)
        sums = odd_signed_sums(
            [c.j for c in group],
            N,
            block_size=block_size,
            workers=workers,
            checkpoint=store,
            stop_after_blocks=stop_after_blocks,
        )
        if sums is None:
            return None
        odd_sums.update(sums)

    reports = []
    total_value = 0.0
    total_lower = 0.0
    for cfg in sorted(configs, key=lambda c: c.j):
        main = main_term(cfg, odd_sum=odd_sums[cfg.j])
        z_upper = two_beta2_minus_one(cfg.j, cfg.K2).upper
        s_bound = s_tail_bound(cfg.j, cfg.N) * z_upper / cfg.j
        # Every j-term of beta is positive (both the 2-adic factor and the
        # odd Euler factors are), so a pessimistic estimate below zero may
        # be replaced by zero without losing validity.
        contribution = max(0.0, main.lower - s_bound)
        reports.append(BetaJReport(cfg, main, s_bound, contribution))
        total_value += main.value
        total_lower += contribution

    certified = CertifiedValue(total_value, max(0.0, total_value - total_lower))
    return BetaSummary(certified, reports, time.time() - t0)
