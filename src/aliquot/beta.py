"""Certified lower bound for the signed-series constant beta.

    beta = sum over j >= 1 of t_j,
    t_j = (1/j) * (2 beta_j(2) - 1) * prod over odd primes p of beta_j(p),
    beta_j(p) = (1 - 1/p) * sum over m >= 0 of p^-m (p^m/sigma(p^m))^j.

Every t_j is positive, so a lower bound for the first J of them is one
for beta.  The certificate (beta_lower) takes each t_j from its Euler
product, cut at a prime cutoff P.

The Euler route.  With r_m = p^m/sigma(p^m) and
x_m = 1 - r_m = (p^m - 1)/(p^(m+1) - 1) < 1/p,

    d_{p,j} = 1 - beta_j(p) = (1 - 1/p) * sum over m >= 1 of p^-m (1 - r_m^j),

and 0 < 1 - r_m^j <= j x_m < j/p give 0 < d_{p,j} <= j/p^2; the m = 0
term alone is 1 - 1/p, so d_{p,j} <= 1/p <= 1/3 as well.  One pass over
the odd primes p <= P, in aligned blocks (EulerPass), sums
log beta_j(p) = log1p(-d_{p,j}) for every j at once:

* Depth.  A prime's m-series stops at the least M with
  p^(M-1) (p-1)^2/(p+1) >= 2j/EPS (evaluated in logs; the factor 2
  absorbs their rounding).  The dropped tail is at most
  (j/p) * sum over m > M of p^-m = j p^-(M+1)/(p-1) =: tau, which is
  added to the series, on the pessimistic side.  By the depth rule tau
  is at most EPS (p-1)/(p^2 (p+1)), and that is below d, whose m = 1
  term alone is at least (1 - 1/p) x_1/p.
* Float radius, in units u = EPS/2 of one rounding (libm's log1p and
  expm1 are within one ulp, 2u).  x_m = 1/(p + y_m) with
  y_{m+1} = y_m x_m, y_1 = 1 (so y_m = 1/sigma(p^(m-1))) is within 3u
  at every m, as y_m's growing error enters scaled by y_m/p.  So
  log1p(-x_m) (condition number <= 1.24 for x_m <= 1/3) is within 5.7u,
  times j within 6.7u, -expm1 (condition number <= 1 below zero) within
  8.7u, and times p^-m (m divisions) within (10 + m)u.  From m to m + 1
  the terms fall by at least (p+1)/p^2 <= 4/9 (1 - (1 - x)^j is
  concave), so the weighted errors stay within 21.3u of the series,
  and adding the terms deepest first costs 3.3u more.  Times (1 - 1/p)
  d is within 28.5u; log1p(-d) (condition number <= 1.24 for d <= 1/3)
  within 37.4u; and tau's one-sided shift moves log beta_j(p) by at most
  1.5 tau <= 3u |log1p(-d)|.  Each term is within 41u = 20.5 EPS of
  log beta_j(p), inside parts_to_certified's allowance of
  OPS_ALLOWANCE = 64 EPS per term (numerics), so each block's value
  +- radius encloses its exact log sum.
* Large primes.  For p >= SERIES_FROM = 2^20 the pass takes log beta_j(p)
  from its power series in u = 1/p instead (below).
* Primes past P.  prod over p > P of beta_j(p) >= 1 - sum over p > P
  of d_{p,j} (each d is in [0, 1]) >= 1 - j T(P), where
  T(P) = 2 * 1.25506/(P log P) >= sum over p > P of p^-2 by partial
  summation: that sum is -pi(P)/P^2 + 2 * integral from P of pi(x) x^-3 dx
  <= 2 * 1.25506 * integral from P of dx/(x^2 log x), with Rosser and
  Schoenfeld's pi(x) < 1.25506 x/log x for x > 1 (prime_tail_bound).
  P >= MIN_PRIME_CUTOFF and j <= MAX_J keep j T(P) <= 0.38.
* The j-term.  With z = 2 beta_j(2) - 1 (two_beta2_minus_one) and S the
  certified log sum, t_j is at least the lower end of (z/j) exp(S)
  (1 - j T(P)) on certified values (numerics), T rounded up taken as exact.

The series for large primes.  Write u = 1/p.  Then
r_m = (1 - u)/(1 - u^(m+1)) and beta_j(p) = (1 - u) (1 + sum over m >= 1
of u^m r_m^j), a power series in u with integer coefficients, and

    log beta_j(p) = sum over k >= 2 of c_k(j) u^k,
    c_2 = -j,  c_3 = j(j + 1)/2,  c_4 = -j(j + 2)(j + 4)/6, ...

with exact rational c_k(j) (_series_coefficients; the log's coefficients
follow from k b_k = sum over i = 1..k of i c_i b_(k-i), b_k those of
beta_j).  Each block sums S_k = sum of p^-k over its primes >= 2^20 for
k = 2..K+1 (K = SERIES_TERMS); the S_k are merged over the blocks, and
their primes' log sum is sum over k of c_k(j) S_k plus a remainder
(_series_log_sum):

* Remainder (Cauchy).  On the complex disc |u| <= rho = 1/(8j),
  |r_m| <= (1 + rho)/(1 - rho^2) = 1/(1 - rho), so
  |r_m|^j <= exp(j rho/(1 - rho)) <= e^(1/7), and
  d = 1 - beta_j = u - (1 - u) sum over m >= 1 of u^m r_m^j has
  |d| <= rho (1 + (9/7) e^(1/7)) <= 2.49 rho <= 0.3113.  So log(1 - d)
  is analytic there with |log beta_j| <= -log(1 - 0.3113) <= 0.373, and
  Cauchy's estimate gives |c_k| <= 0.373 rho^-k.  For p >= 2^20 and
  j <= MAX_J, u/rho = 8j/p <= 2^-7, so the terms past k = K + 1 add at
  most 0.373 (8j/p)^(K+2)/(1 - 8j/p) <= 0.373 (8j)^(K+2) p^-(K+1)/(2^20 - 8j)
  per prime: 0.373 (8j)^(K+2) S_(K+1)/(2^20 - 8j) over them all, taken at
  S_(K+1)'s upper end and raised by 1 + 8 EPS over its few roundings.
* Float radius.  p^-k is (1/p)^2 times k - 2 more factors 1/p, within
  (2k - 1)u <= 17u, inside OPS_ALLOWANCE = 64 EPS per term, so each
  certified S_k encloses its exact sum.  Each exact c_k(j) times S_k, and
  their sum, are operations on certified values.

A block that straddles 2^20 splits its primes between the two paths; its
record holds per-j parts for the primes below and per-k parts for those
above.  The block's work above 2^20 is K power sums, whatever J is.

The odd-sum route expands the product instead: each j-term becomes a sum
of the signed multiplicative function

    beta_j(n) = (-1)^nu(n) g_j(n) h_j(n),
    g_j(n) = (1/n) (n/sigma(n))^j,
    h_j(p^m) = (1 + 1/(p sigma(p^{m-1})))^j - 1,      h_j(1) = 1,

over odd n, times the 2-adic factor.  Cutting the odd sum at N leaves
the tail over odd n > N, which pays one certified moment bound,
s_tail_bound: by the triangle inequality and Rankin's device,

    |sum_{odd n>N} beta_j(n)| <= sum_{odd n>N} g_j h_j
        <= N^-delta prod_{odd p} (1 + sum_m g_j h_j(p^m) p^(m delta)).

It factors every odd n <= N, so the certificate no longer takes it;
odd_signed_sums, main_term and s_tail_bound stay as an independent
oracle of the Euler values.  The paper's route splits that tail into the
integers with h_j(n) <= n^-e, bounded by error_term, and the finite
exceptional set S = {n : h_j(n) > n^-e} (s_set; its members are products
of prime powers from the finite set t_set).  Those functions reproduce
the paper's tables.

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

from .arith import Factorization, sigma_prime_power
from .checkpoint import BlockRecord, CheckpointStore
from .errors import ParameterError, ResourceError, SSetBudgetExceeded, reject
from .numerics import (
    DEFAULT_BLOCK_SIZE,
    EPS,
    ZERO,
    CertifiedValue,
    aligned_blocks,
    block_sum_parts,
    combine_blocks,
    compensated_sum,
    map_blocks,
    parts_to_certified,
)
from .primes import (
    check_range,
    iter_factor_segments,  # read by nothing; kept while alqbench/spans.py wraps it
    iter_prime_segments,
    prime_pass,
    primes_in_range,
    strided_prime_powers,
)

K2 = 64  # two_beta2_minus_one's truncation depth
DEFAULT_NODE_BUDGET = 500_000
_RANKIN_CUTOFF = 100_000  # s_tail_bound evaluates the odd primes up to this directly
_RANKIN_DELTA = 0.8  # s_tail_bound's Rankin exponent delta
_FLUSH_INTEGERS = 10**7  # the prime pass saves its checkpoint this often
MIN_PRIME_CUTOFF = 1000  # the least prime cutoff P beta_lower takes
MAX_J = 1024  # j runs over 1..MAX_J here, and beta_lower takes J up to it
_PI_BOUND = 1.25506  # pi(x) < 1.25506 x / log x for x > 1 (Rosser-Schoenfeld)
SERIES_FROM = 1 << 20  # the prime pass takes p >= SERIES_FROM from power sums
SERIES_TERMS = 8  # K: the power sums S_2..S_(K+1) a block keeps
_CAUCHY_BOUND = 0.373  # |log beta_j(u)| on |u| <= 1/(8j), see the module docstring
_ALPHA_CUT = 2.0**44  # row 0's series stops where p^(M-1) (p-1)^2/(p+1) reaches it
# Names the layout and bits of the prime pass's block records; it is part
# of the checkpoint key, so a file another kernel wrote never loads.
EULER_KERNEL = f"euler-2 series_from={SERIES_FROM} K={SERIES_TERMS}"


def _check_j(j: int, message: str = f"j must be >= 1 and <= {MAX_J}") -> None:
    """The domain of j, 1..MAX_J, for every function here that takes one,
    and of beta_lower's J."""
    reject(not 1 <= j <= MAX_J, message, j)


def _check_p(p: int) -> int:
    """p of a prime power: an int >= 2, Python or numpy (t_set's calls skip a
    primality test), handed back as a Python int, whose powers do not wrap."""
    reject(not isinstance(p, (int, np.integer)) or p < 2, "p must be an integer >= 2", p)
    return int(p)


def g_prime_power(j: int, p: int, m: int) -> float:
    """g_j(p^m) = p^-m (p^m/sigma(p^m))^j, m >= 0."""
    _check_j(j)
    p = _check_p(p)
    reject(m < 0, "m must be >= 0", m)
    pm = p**m
    ratio = pm / sigma_prime_power(p, m)
    if pm > 10**300:
        return 0.0
    return ratio**j / pm


def h_prime_power(j: int, p: int, m: int) -> float:
    """h_j(p^m) = (1 + 1/(p sigma(p^{m-1})))^j - 1, m >= 1, stably via expm1/log1p."""
    _check_j(j)
    p = _check_p(p)
    reject(m < 1, "m must be >= 1", m)
    den = p * sigma_prime_power(p, m - 1)
    if den > 10**300:
        return 0.0
    return math.expm1(j * math.log1p(1.0 / den))


def h_prime_power_binomial(j: int, p: int, m: int) -> float:
    """Reference form: sum over k = 1..j of C(j,k) / (p sigma(p^{m-1}))^k; m >= 1."""
    _check_j(j)
    p = _check_p(p)
    reject(m < 1, "m must be >= 1", m)
    den = p * sigma_prime_power(p, m - 1)
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
    reject(f.n % 2 == 0, "beta_signed is defined on odd n", f.n)
    sign = -1.0 if len(f.entries) % 2 else 1.0
    return sign * g(j, f) * h(j, f)


def two_beta2_minus_one(j: int) -> CertifiedValue:
    """2 beta_j(2) - 1 = sum over m >= 1 of g_j(2^m), truncated at m = K2.

    The dropped tail is below (2/3)^j 2^(1-K2) (each term is at most
    (2/3)^j 2^-m) and is folded into the radius.
    """
    _check_j(j)  # once; the terms are g_prime_power(j, 2, m)'s float operations
    terms = [(2**m / (2 ** (m + 1) - 1)) ** j / 2**m for m in range(1, K2 + 1)]
    return compensated_sum(terms).widened((2.0 / 3.0) ** j * 2.0 ** (1 - K2))


def beta_prime(j: int, p: int, depth: int) -> CertifiedValue:
    """beta_j(p) by its Euler-factor series, truncated at the given depth.

    Tail folded into the radius with the conservative geometric bound
    sum over m > depth of p^-m = p^-depth/(p-1).
    """
    reject(depth < 4, "depth must be >= 4", depth)
    p = _check_p(p)
    try:
        tail = float(p) ** (-depth) / (p - 1)
    except OverflowError:
        raise ParameterError("p is past the float range") from None
    # Stop at the first p^m past 10^300: the radius counts every term, zeros too.
    value = compensated_sum([g_prime_power(j, p, m) for m in range(depth + 1) if p**m <= 10**300])
    return (value * (1 - Fraction(1, p))).widened(tail)


# ---------------------------------------------------------------------------
# The Euler product: one pass over the odd primes p <= P
# ---------------------------------------------------------------------------


def prime_tail_bound(P: int) -> float:
    """T(P) = 2 * 1.25506/(P log P), at least sum over primes p > P of p^-2.

    The partial-summation argument is in the module docstring.  The float
    evaluation (a log, a product and a quotient) is within 4u, and the
    factor 1 + 8 EPS lifts it above the exact T(P).  P past 2^1000 is
    evaluated at 2^1000: T falls with P, so that still bounds the sum.
    """
    reject(P < 2, "P must be >= 2", P)
    x = float(min(P, 1 << 1000))
    return 2.0 * _PI_BOUND / (x * math.log(x)) * (1.0 + 8.0 * EPS)


def _log_beta_terms(primes: np.ndarray, J: int) -> np.ndarray:
    """For each of the ascending odd primes, alpha(p) plus its tail charge
    (row 0, the alpha module docstring) and log beta_j(p) for j = 1..J
    (row j), as a (J + 1, primes) array.

    The terms of the module docstring: each prime's series runs to its
    own depth, its tail tau added, and each term is within 41u of
    log beta_j(p).  G_k = k log p + log((p-1)^2/(p+1)) rises with p, so
    the primes whose series reach level m (G_{m-2} below log _ALPHA_CUT
    for row 0, log(2j/EPS) for row j) are a prefix, found by one binary
    search per row and level; the levels x_m and p^-m are shared by every
    row, and each row depends on its own limit alone.
    """
    p = primes.astype(np.float64)
    n = p.size
    log_p = np.log(p)
    g = np.log((p - 1.0) ** 2 / (p + 1.0))
    limits = [math.log(_ALPHA_CUT)] + [math.log(2.0 * j / EPS) for j in range(1, J + 1)]
    reach = [[n] for _ in limits]  # reach[row][m - 1]: the primes whose series has level m
    level = 1
    while g.size and g[0] < limits[-1]:
        for counts, limit in zip(reach, limits):
            c = min(counts[-1], int(np.searchsorted(g, limit)))
            if c and len(counts) == level:
                counts.append(c)
        level += 1
        c = reach[-1][-1]
        g = g[:c] + log_p[:c]
    levels = []  # level m: log1p(-x_m) and p^-m over the primes that reach it
    y = np.ones(n)
    w = np.ones(n)
    for c in reach[-1]:
        pc = p[:c]
        x = 1.0 / (pc + y[:c])
        w = w[:c] / pc
        levels.append((np.log1p(-x), w))
        y = y[:c] * x
    inv_pp1 = 1.0 / (p * (p - 1.0))
    one_minus = 1.0 - 1.0 / p
    # Two work rows and the result rows, allocated once per block.
    series, work = np.zeros(n), np.empty(n)
    out = np.empty((J + 1, n))
    # Row 0: sum of p^-m (-log r_m) deepest first, times 1 - 1/p, plus the
    # tail p^-(M+1)/(p-1) past each prime's last level M.
    counts = reach[0] + [0]
    for m in range(len(counts) - 1, 0, -1):
        c, c_deeper = counts[m - 1], counts[m]
        log1p_x, w = levels[m - 1]
        np.multiply(w[c_deeper:c], inv_pp1[c_deeper:c], out=out[0, c_deeper:c])
        t = work[:c]
        np.multiply(log1p_x[:c], w[:c], out=t)
        series[:c] -= t
    out[0] += series * one_minus
    for j, (counts, row) in enumerate(zip(reach[1:], out[1:]), start=1):
        counts = counts + [0]
        for m in range(len(counts) - 1, 0, -1):
            c, c_deeper = counts[m - 1], counts[m]
            log1p_x, w = levels[m - 1]
            # The primes whose series stops at m start from their tail.
            tail = series[c_deeper:c]
            np.multiply(w[c_deeper:c], j, out=tail)
            tail *= inv_pp1[c_deeper:c]
            t = work[:c]
            np.multiply(log1p_x[:c], j, out=t)
            np.expm1(t, out=t)
            t *= w[:c]
            series[:c] -= t
        np.multiply(series, one_minus, out=work)
        np.negative(work, out=work)
        np.log1p(work, out=row)
    return out


@lru_cache(maxsize=None)
def _series_coefficients(j: int, K: int) -> tuple[Fraction, ...]:
    """c_2(j), ..., c_(K+1)(j): the exact Taylor coefficients of
    log beta_j(u) at u = 0, where u = 1/p (module docstring).

    beta_j = (1 - u) (1 + (1 - u)^j sum over m >= 1 of u^m (1 - u^(m+1))^-j)
    has integer coefficients b_k, cut at degree D = K + 1; the log's
    follow from k b_k = sum over i = 1..k of i c_i b_(k-i) (b_0 = 1).
    """
    D = K + 1
    powers = [0] * (D + 1)  # sum over m >= 1 of u^m (1 - u^(m+1))^-j
    for m in range(1, D + 1):
        for t in range((D - m) // (m + 1) + 1):
            powers[m + t * (m + 1)] += math.comb(j + t - 1, t)
    one_minus = [(-1) ** i * math.comb(j, i) for i in range(D + 1)]  # (1 - u)^j
    bracket = [int(k == 0) + sum(one_minus[i] * powers[k - i] for i in range(k + 1))
               for k in range(D + 1)]
    b = [bracket[0]] + [bracket[k] - bracket[k - 1] for k in range(1, D + 1)]  # times 1 - u
    c = [Fraction(0)] * (D + 1)
    for k in range(1, D + 1):
        c[k] = b[k] - Fraction(sum(i * c[i] * b[k - i] for i in range(1, k)), k)
    return tuple(c[2:])


def _power_sum_parts(primes: np.ndarray, K: int) -> dict[str, tuple]:
    """block_sum_parts of p^-k over the primes for k = 2..K+1, keyed "s<k>".

    Each term is (1/p)^2 times k - 2 more factors 1/p (module docstring).
    """
    inv = 1.0 / primes.astype(np.float64)
    w = inv * inv
    parts = {"s2": block_sum_parts(w)}
    for k in range(3, K + 2):
        w *= inv
        parts[f"s{k}"] = block_sum_parts(w)
    return parts


def _series_sum(coefficients, bound: float, inv_rho: int,
                power_sums: list[CertifiedValue]) -> CertifiedValue:
    """sum of f(1/p) over primes p >= SERIES_FROM, certified, from their
    power sums S_2..S_(K+1) (K = len(power_sums)), for f = sum over k >= 2
    of f_k u^k (the exact coefficients) with |f| <= bound on |u| = 1/inv_rho:
    sum over k of f_k S_k, widened by the Cauchy remainder of the module
    docstring, bound inv_rho^(K+2) S_(K+1)/(SERIES_FROM - inv_rho)."""
    remainder = (bound * float(inv_rho) ** (len(power_sums) + 2) * power_sums[-1].upper
                 / (SERIES_FROM - inv_rho) * (1.0 + 8.0 * EPS))
    return sum((c * s for c, s in zip(coefficients, power_sums)), ZERO).widened(remainder)


def _series_log_sum(j: int, power_sums: list[CertifiedValue]) -> CertifiedValue:
    """sum of log beta_j(p) over primes p >= SERIES_FROM (_series_sum)."""
    return _series_sum(_series_coefficients(j, len(power_sums)), _CAUCHY_BOUND, 8 * j, power_sums)


class EulerPass:
    """beta's kernel on the prime pass (primes.prime_pass): the log sums of
    log beta_j(p) over the odd primes p <= P for j = 1..J, and their
    checkpoint.  P below MIN_PRIME_CUTOFF is a ParameterError.

    The blocks are aligned to multiples of block_size and merged in
    ascending order, so the sums are independent of the worker count.  A
    block sums the primes below SERIES_FROM per j (_log_beta_terms) and
    those above as power sums (_power_sum_parts); the power sums are
    merged over the blocks before each j's coefficients apply
    (_series_log_sum), and only a pass that reaches SERIES_FROM computes
    coefficients.  The blocks an alpha.AlphaPass shares (share_walk) also
    give alpha's parts from the same walk and power sums.

    ``blocks`` are the aligned blocks the pass still has to run: all of
    them, or those after the records a checkpoint_dir holds.  Completed
    blocks are saved every _FLUSH_INTEGERS integers and at the last block,
    so a killed run keeps its progress.  A stored file is trusted only if
    its records are the first aligned blocks in order, each holds the
    series of its block, and the first and the last equal a recomputation
    bit for bit; otherwise it is discarded.
    """

    def __init__(self, J: int, P: int, block_size: int, checkpoint_dir: str | None = None):
        reject(P < MIN_PRIME_CUTOFF, f"P must be >= {MIN_PRIME_CUTOFF}", P)
        _check_j(J, f"J must lie in [1, {MAX_J}]")
        check_range(P, block_size)
        self.J, self.P, self.block_size = J, P, block_size
        blocks = aligned_blocks(3, P, block_size)
        self.records: list[BlockRecord] = []
        self.store = None
        self.shared: set[tuple[int, int]] = set()  # the blocks alpha shares (share_walk)
        if checkpoint_dir is not None:
            key = {"kind": "beta-euler", "kernel": EULER_KERNEL, "P": P,
                   "block_size": block_size, "j_list": list(range(1, J + 1))}
            self.store = CheckpointStore(checkpoint_dir, key)
            self.records = self.store.load()
            if self.records and not self._trusted(blocks):
                self.records = []
                self.store.discard()
        self.blocks = blocks[len(self.records) :]
        self.flush_every = max(1, _FLUSH_INTEGERS // block_size)

    def share_walk(self, alpha) -> None:
        """Take over the blocks of alpha (an AlphaPass on the same prime
        pass) with the bounds of this pass's: one walk serves both."""
        self.shared = set(alpha.blocks) & set(self.blocks)
        alpha.blocks = [b for b in alpha.blocks if b not in self.shared]
        self.alpha = alpha

    def _layout(self, lo: int, hi: int) -> set[str]:
        """The parts a block's record holds."""
        direct = {str(j) for j in range(1, self.J + 1)} if lo < SERIES_FROM else set()
        series = {f"s{k}" for k in range(2, SERIES_TERMS + 2)} if hi >= SERIES_FROM else set()
        return direct | series

    def _trusted(self, blocks: list[tuple[int, int]]) -> bool:
        records = self.records

        def recomputed(k: int) -> BlockRecord:
            (primes,) = iter_prime_segments(*blocks[k], segment_size=self.block_size)
            return self.kernel(*blocks[k], primes)[0]

        return (
            len(records) <= len(blocks)
            and all((r.lo, r.hi) == b and r.parts.keys() == self._layout(*b)
                    for r, b in zip(records, blocks))
            and all(records[k] == recomputed(k) for k in sorted({0, len(records) - 1}))
        )

    def kernel(self, lo: int, hi: int, primes: np.ndarray) -> tuple[BlockRecord, dict | None]:
        """The block's record: per-j log sums of its primes below
        SERIES_FROM, power sums of those above; and alpha's parts of a
        shared block (its record's parts and "a", row 0's sum), else None."""
        split = int(np.searchsorted(primes, SERIES_FROM))
        shared = (lo, hi) in self.shared
        parts, alpha = {}, {}
        if lo < SERIES_FROM:
            rows = _log_beta_terms(primes[:split], self.J)
            parts = {str(j): block_sum_parts(rows[j]) for j in range(1, self.J + 1)}
            alpha = {"a": block_sum_parts(rows[0])} if shared else {}
        if hi >= SERIES_FROM:
            parts.update(_power_sum_parts(primes[split:], SERIES_TERMS))
        return BlockRecord(lo, hi, parts), alpha | parts if shared else None

    def keep(self, result: tuple[BlockRecord, dict | None]) -> None:
        rec, alpha = result
        if alpha is not None:
            self.alpha.keep(alpha)
        self.records.append(rec)
        if self.store is not None and (len(self.records) % self.flush_every == 0
                                       or rec.hi == self.P):
            self.store.save(self.records)

    def log_sums(self) -> dict[int, CertifiedValue]:
        """Each j's certified log sum, once the pass is complete."""
        records = self.records
        sums = {
            j: combine_blocks([parts_to_certified(*rec.parts[str(j)])
                               for rec in records if rec.lo < SERIES_FROM])
            for j in range(1, self.J + 1)
        }
        if self.P >= SERIES_FROM:
            power_sums = [
                combine_blocks([parts_to_certified(*rec.parts[f"s{k}"])
                                for rec in records if rec.hi >= SERIES_FROM])
                for k in range(2, SERIES_TERMS + 2)
            ]
            for j in sums:
                sums[j] += _series_log_sum(j, power_sums)
        return sums


# The paper's exponents e_j for j = 1..8.
PAPER_E = (1.0, 0.75, 0.60, 0.48, 0.35, 0.28, 0.20, 0.15)


def error_term(j: int, e: float, N: int) -> float:
    """Bound (2 j e N^e)^-1 (2/3)^j for the odd n > N with h_j(n) <= n^-e.

    N past 2^1000 is evaluated at 2^1000; the bound falls with N."""
    _check_j(j)
    reject(not 0 < e <= 1, "e must lie in (0, 1]", e)
    reject(N < 2, "N must be >= 2", N)
    x = float(min(N, 1 << 1000))
    return (2.0 / 3.0) ** j / (2.0 * j * e * x**e)


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
    _check_j(j)
    reject(not 0.0 < e < 1.0, "t_set requires 0 < e < 1", e)
    reject(c <= 0, "c must be positive", c)
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
            den = p * sigma_prime_power(p, m - 1)
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
    _block_odd_signed accumulates.  The sign is the prime power's factor
    -1 of (-1)^nu(n), so a product of h rows is (-1)^nu(n) h_j(n);
    negation is exact, so this gives the bits of a separate sign factor.
    Read-only, as rows are shared.
    """
    rows = [[1.0] * (len(js) + 2)]
    for m in range(1, m_max + 1):
        pm = p**m
        rows.append([-h_prime_power(j, p, m) for j in js]
                    + [pm / sigma_prime_power(p, m), float(pm)])
    table = np.array(rows)
    table.flags.writeable = False
    return table


def _block_odd_signed(lo: int, hi: int, j_list: list[int]) -> dict[int, tuple]:
    """Per-j (value, abs_sum, n_terms) of sum of beta_j(n) over odd n in [lo, hi].

    The block's odd integers n0, n0 + 2, ... are factored in place into one
    (size, J + 2) array whose columns accumulate the signed
    (-1)^nu h_j for each j (the sign lives in the h rows of
    _prime_power_rows), the ratio n/sigma(n) and the smooth part of n.
    For each odd base prime p (p^2 at most the largest n),
    primes.strided_prime_powers gives the multiples of p as the strided
    view i0::p with i0 = -n0 * 2^-1 mod p and their exponents of p; the
    exponent array picks rows of _prime_power_rows, and one multiply
    applies them.  The smooth part is a product of integers below 2^53, so
    it is exact in floating point, and n / smooth is the exact cofactor: 1,
    or one prime q above sqrt(hi), whose factors q/(q + 1),
    (1 + 1/q)^j - 1 and -1 (carried by 1/n) multiply in last.

    Each element's products are formed in one fixed order (ascending p,
    the large prime last, the term as power * (1/n) * h_j) from the same
    scalar factors, so the block's bits are pinned by its goldens.
    """
    js = tuple(sorted(set(j_list)))
    n0 = lo | 1
    if n0 > hi:
        return {j: (0.0, 0.0, 0) for j in js}
    size = (hi - n0) // 2 + 1

    acc = np.ones((size, len(js) + 2))
    for p, i0, exps in strided_prime_powers(n0, size, 2):
        rows = _prime_power_rows(p, 1 if exps is None else int(exps.max()), js)
        acc[i0::p] *= rows[1] if exps is None else rows.take(exps, axis=0)

    *h_cols, ratio, smooth = acc.T.copy()
    n_float = (n0 + 2 * np.arange(size, dtype=np.int64)).astype(np.float64)
    q = n_float / smooth
    has_q = q > 1.0  # the rows with a large prime
    ratio *= np.where(has_q, q / (q + 1.0), 1.0)
    inv_n = np.where(has_q, -1.0, 1.0) / n_float
    lq = np.log1p(1.0 / q)
    power = np.ones(size)
    last_j = 0
    parts = {}
    for h_j, j in zip(h_cols, js):
        power *= ratio ** (j - last_j)
        last_j = j
        parts[j] = block_sum_parts(power * inv_n * (h_j * np.where(has_q, np.expm1(lq * j), 1.0)))
    return parts


def odd_signed_sums(
    j_list: list[int],
    N: int,
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
    workers: int = 1,
) -> dict[int, CertifiedValue]:
    """sum of beta_j(n) over odd n <= N for every j, deterministically.

    Blocks are aligned to absolute multiples of block_size and merged in
    ascending order, so results are independent of worker count.
    """
    j_list = sorted(set(j_list))
    for j in j_list:
        _check_j(j)
    check_range(N, block_size)
    parts, _ = map_blocks(aligned_blocks(1, N, block_size),
                          lambda lo, hi: _block_odd_signed(lo, hi, j_list), workers)
    return {j: combine_blocks([parts_to_certified(*p[j]) for p in parts]) for j in j_list}


# ---------------------------------------------------------------------------
# Per-j assembly and the aggregate lower bound
# ---------------------------------------------------------------------------


def main_term(j: int, odd_sum: CertifiedValue) -> CertifiedValue:
    """(1/j) * (2 beta_j(2) - 1 truncated) * odd_sum.

    The odd-sum route's main term, given odd_sum = sum of beta_j(n) over
    odd n <= N (odd_signed_sums): the 2-adic factor multiplies it, which
    covers every even integer whose odd part is at most N (for all powers
    of two at once).
    """
    return two_beta2_minus_one(j) * odd_sum / j


@lru_cache(maxsize=1)
def _odd_primes() -> np.ndarray:
    """The odd primes up to _RANKIN_CUTOFF as floats, one read-only array
    shared by every s_tail_bound call."""
    p = primes_in_range(3, _RANKIN_CUTOFF).astype(np.float64)
    p.flags.writeable = False
    return p


def s_tail_bound(j: int, N: int) -> float:
    """Certified bound for sum over odd n > N of g_j(n) h_j(n).

    Rankin's device: the sum is at most N^-delta (delta = _RANKIN_DELTA)
    times the full moment

        prod over odd p of (1 + sum over m >= 1 of g_j(p^m) h_j(p^m) p^(m delta)),

    whose factors are evaluated directly for p up to _RANKIN_CUTOFF (power
    tails by the geometric bound h_j(p^m) <= j e^{j/p^m} / p^m) and
    bounded for larger p through the explicit prime-counting inequality
    pi(x) < 1.25506 x / log x.  As g_j h_j = |beta_j| (g_j, h_j >= 0), it
    bounds |sum over odd n > N of beta_j(n)| by the triangle inequality,
    so it covers the whole odd tail past N, exceptional set included.
    The bound falls with N, so N past 2^1000 is evaluated at 2^1000.
    """
    _check_j(j)
    reject(N < 1, "N must be >= 1", N)
    delta = _RANKIN_DELTA
    power_limit = 10**6
    p = _odd_primes()
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
    coeff_tail = j * math.exp(j / _RANKIN_CUTOFF) / (1.0 - _RANKIN_CUTOFF ** (delta - 2.0))
    prime_tail = (
        coeff_tail
        * _PI_BOUND
        * s
        / (s - 1.0)
        * _RANKIN_CUTOFF ** (1.0 - s)
        / math.log(_RANKIN_CUTOFF)
    )
    x = float(min(N, 1 << 1000))
    return x ** (-delta) * math.exp(log_total + prime_tail) * (1.0 + 1e-6)


@dataclass
class BetaJReport:
    """One j-term: the log sum S over the odd primes p <= P, the term
    (z/j) exp(S) over those primes, the charge j T(P) for the primes past
    P, and the certified lower end of t_j."""

    j: int
    P: int
    log_product: CertifiedValue
    main: CertifiedValue
    tail_charge: float
    contribution_lower: float

    def to_json_dict(self) -> dict:
        return {
            "j": self.j,
            "P": self.P,
            "log_product": self.log_product.value,
            "log_product_error_radius": self.log_product.error_radius,
            "main_term": self.main.value,
            "main_term_error_radius": self.main.error_radius,
            "tail_charge": self.tail_charge,
            "contribution_lower": self.contribution_lower,
        }


@dataclass
class BetaSummary:
    certified: CertifiedValue
    reports: list[BetaJReport]
    elapsed_seconds: float
    workers: int = 1  # the processes the prime pass ran on; 1 is serial

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


def euler_term(j: int, log_product: CertifiedValue) -> CertifiedValue:
    """(z/j) exp(log_product) with z = 2 beta_j(2) - 1 (two_beta2_minus_one)."""
    return two_beta2_minus_one(j) / j * log_product.exp()


def beta_lower(
    J: int,
    P: int,
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
    workers: int = 1,
    checkpoint_dir: str | None = None,
) -> BetaSummary:
    """Certified lower bound for beta from its first J j-terms, each taken
    over the odd primes p <= P.

    One prime pass (EulerPass) gives every j's log sum S of log beta_j(p)
    over the odd primes p <= P, which each report keeps as its
    log_product, and beta_summary turns the sums into the bound.  J runs
    over 1..MAX_J and P from MIN_PRIME_CUTOFF up, so that 1 - j T(P) stays
    above 0.6; a P past the sieve's range is a ResourceError.  With a
    checkpoint_dir, a killed run resumes its prime pass when called again
    with the same J, P and block_size.
    """
    t0 = time.perf_counter()
    euler = EulerPass(J, P, block_size, checkpoint_dir)
    processes = prime_pass([euler], block_size, workers)
    return beta_summary(euler.log_sums(), P, time.perf_counter() - t0, processes)


def beta_summary(
    log_sums: dict[int, CertifiedValue], P: int, elapsed_seconds: float, workers: int
) -> BetaSummary:
    """The lower bound from each j's log sum S over the odd primes p <= P.

    euler_term turns S into (z/j) exp(S), and the primes past P are
    charged j T(P): the j-term is that term times 1 - j T(P) as certified
    values, and beta's bound is the lower end of the j-terms' sum.  The
    rigor argument is in the module docstring.  The terms with j > J are
    all positive, so dropping them keeps the bound valid.
    """
    T = CertifiedValue(prime_tail_bound(P), 0.0)
    reports, terms = [], []
    for j, log_product in log_sums.items():
        main = euler_term(j, log_product)
        charge = j * T
        terms.append(main * (1 - charge))
        reports.append(BetaJReport(j, P, log_product, main, charge.value, terms[-1].lower))
    return BetaSummary(sum(terms, ZERO), reports, elapsed_seconds, workers)
