import functools
import itertools
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aliquot import beta as beta_module
from aliquot.arith import factorize
from aliquot.beta import (
    MAX_J,
    MIN_PRIME_CUTOFF,
    _wide_membership,
    beta_lower,
    beta_prime,
    beta_signed,
    error_term,
    euler_log_sums,
    euler_term,
    g,
    g_prime_power,
    h,
    h_prime_power,
    h_prime_power_binomial,
    m_const,
    main_term,
    odd_signed_sums,
    prime_tail_bound,
    s_set,
    s_tail_bound,
    t_set,
    two_beta2_minus_one,
)
from aliquot.checkpoint import CheckpointStore
from aliquot.errors import ParameterError, ResourceError, SSetBudgetExceeded
from aliquot.numerics import (
    EPS,
    CertifiedValue,
    aligned_blocks,
    certified_product,
    certified_quotient,
    combine_blocks,
    parts_to_certified,
)
from aliquot.primes import primes_in_range

# Exact-series oracles, frozen from Fraction evaluations:
#   sum over m = 1..64 of 1/(2^(m+1) - 1)
TWO_BETA2_J1 = 0.6066951524152918
#   (2/3) * sum over m = 0..40 of (1/3^m) (3^m/sigma(3^m))
BETA_PRIME_1_3 = 0.9095380034736508

ORACLE_JS = (1, 2, 8, 32, 64)


def _encloses(cv: CertifiedValue, exact) -> bool:
    """Whether [value - radius, value + radius], taken exactly, holds exact."""
    with mpmath.workdps(60):
        value, radius = mpmath.mpf(cv.value), mpmath.mpf(cv.error_radius)
        return value - radius <= exact <= value + radius


def _exact_two_beta2_minus_one(j: int):
    """sum over m >= 1 of (2^m / (2^(m+1) - 1))^j / 2^m at 50 digits; the
    terms past m = 250 add less than 2^-250 (2/3)^j."""
    with mpmath.workdps(50):
        return mpmath.fsum(
            (mpmath.mpf(2**m) / (2 ** (m + 1) - 1)) ** j / 2**m for m in range(1, 251)
        )


def _exact_beta_prime(j: int, p: int):
    """(1 - 1/p) sum over m >= 0 of (p^m / sigma(p^m))^j / p^m at 50 digits,
    until p^-m < 10^-70 (the dropped tail is below p^-m / (p - 1))."""
    with mpmath.workdps(50):
        terms, m = [], 0
        while p**m <= 10**70:
            sigma = (p ** (m + 1) - 1) // (p - 1)
            terms.append((mpmath.mpf(p**m) / sigma) ** j / p**m)
            m += 1
        return (1 - mpmath.mpf(1) / p) * mpmath.fsum(terms)


class TestGH:
    def test_g_prime_power_values(self):
        assert g_prime_power(1, 2, 1) == pytest.approx(1 / 3, abs=1e-16)
        assert g(2, factorize(6)) == pytest.approx(1 / 24, abs=1e-17)

    def test_g_of_one(self):
        for j in (1, 3, 9):
            assert g(j, factorize(1)) == 1.0

    def test_h_values(self):
        assert h_prime_power(1, 3, 1) == pytest.approx(1 / 3, rel=1e-15)
        assert h_prime_power(2, 3, 1) == pytest.approx(7 / 9, rel=1e-15)

    def test_h_of_one(self):
        for j in (1, 4, 12):
            assert h(j, factorize(1)) == 1.0

    def test_h_closed_form_vs_binomial(self):
        for j in range(1, 7):
            for p in (3, 5, 7, 11, 31, 997):
                for m in (1, 2, 3):
                    if p**m > 1000 and m > 1:
                        continue
                    closed = h_prime_power(j, p, m)
                    binom = h_prime_power_binomial(j, p, m)
                    assert abs(closed - binom) <= 1e-15 * max(1.0, abs(binom))

    def test_h_dominated_by_2j_over_pm(self):
        for j in (1, 2, 5, 8, 12):
            for p in primes_in_range(3, 300).tolist():
                pm = p
                m = 1
                while pm <= 10**6:
                    if pm >= 2 * j:
                        assert h_prime_power(j, p, m) <= 2.0 * j / pm
                    pm *= p
                    m += 1


class TestBetaSigned:
    def test_values(self):
        assert beta_signed(1, factorize(3)) == pytest.approx(-1 / 12, rel=1e-15)
        assert beta_signed(1, factorize(15)) == pytest.approx(1 / 360, rel=1e-14)
        assert beta_signed(4, factorize(1)) == 1.0

    def test_rejects_even(self):
        with pytest.raises(ParameterError):
            beta_signed(1, factorize(6))

    def test_multiplicative_in_coprime_parts(self):
        for j in (1, 2, 3):
            for a, b in ((3, 5), (9, 25), (7, 27), (15, 49)):
                lhs = beta_signed(j, factorize(a * b))
                rhs = beta_signed(j, factorize(a)) * beta_signed(j, factorize(b))
                assert lhs == pytest.approx(rhs, rel=1e-13)


class TestDyadicFactor:
    def test_j1_series_oracle(self):
        z = two_beta2_minus_one(1)
        assert abs(z.value - TWO_BETA2_J1) <= z.error_radius + 1e-15

    def test_positive_for_all_j(self):
        for j in range(1, 13):
            z = two_beta2_minus_one(j)
            assert z.value - z.error_radius > 0

    @pytest.mark.parametrize("j", ORACLE_JS)
    def test_encloses_the_50_digit_value(self, j):
        assert _encloses(two_beta2_minus_one(j), _exact_two_beta2_minus_one(j))

    def test_consistent_with_euler_factor(self):
        # 2 beta_j(2) - 1 recomputed through the Euler-factor series.
        for j in (1, 2, 5):
            z = two_beta2_minus_one(j)
            bp = beta_prime(j, 2, 80)
            assert abs(2 * bp.value - 1 - z.value) <= 2 * bp.error_radius + z.error_radius


class TestBetaPrime:
    def test_oracle_value(self):
        bp = beta_prime(1, 3, 40)
        assert abs(bp.value - BETA_PRIME_1_3) <= bp.error_radius + 1e-15

    @pytest.mark.parametrize("depth", [4, 40])
    @pytest.mark.parametrize("p", [3, 5, 1009])
    @pytest.mark.parametrize("j", ORACLE_JS)
    def test_encloses_the_50_digit_value(self, j, p, depth):
        assert _encloses(beta_prime(j, p, depth), _exact_beta_prime(j, p))

    def test_in_unit_interval(self):
        for j in (1, 2, 6, 12):
            for p in (3, 5, 101, 997):
                bp = beta_prime(j, p, 30)
                assert 0.0 < bp.value <= 1.0

    def test_matches_signed_series_over_prime_powers(self):
        # beta_j(p) = sum over m >= 0 of beta_signed(j, p^m).
        for j in (1, 2, 4):
            for p in (3, 5, 13):
                series = math.fsum(
                    beta_signed(j, factorize(p**m)) for m in range(0, 25)
                )
                bp = beta_prime(j, p, 24)
                assert abs(series - bp.value) <= bp.error_radius + 1e-13


class TestProductSumIdentity:
    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    @pytest.mark.parametrize("cutoff", [5, 11])
    def test_truncated_product_equals_smooth_sum(self, j, cutoff):
        depth = 5
        primes = primes_in_range(3, cutoff).tolist()
        product = 1.0
        for p in primes:
            product *= math.fsum(
                beta_signed(j, factorize(p**m)) for m in range(0, depth + 1)
            )
        total = math.fsum(
            math.prod(beta_signed(j, factorize(p**m)) for p, m in zip(primes, expo))
            for expo in itertools.product(range(depth + 1), repeat=len(primes))
        )
        assert abs(product - total) < 1e-14


class TestEvenDecompositionSign:
    def test_sign_follows_odd_part(self):
        # beta*_j(2^k n_o) = g_j(2^k) beta_j(n_o): the dyadic factor is
        # positive, so the sign is (-1)^nu(odd part).  Exhaustive n <= 1e4.
        for j in (1, 2, 3):
            for n in range(2, 10001, 2):
                k = (n & -n).bit_length() - 1
                odd = n >> k
                f = factorize(odd)
                star = g_prime_power(j, 2, k) * beta_signed(j, f)
                if star != 0.0:
                    expected = -1.0 if len(f.entries) % 2 else 1.0
                    assert math.copysign(1.0, star) == expected


class TestErrorTerm:
    # Published error column at N = 1e9 for j = 3..9 (3 significant digits).
    TABLE = {
        3: (0.60, 3.276e-7),
        4: (0.48, 2.462e-6),
        5: (0.35, 2.66e-5),
        6: (0.28, 7.89e-5),
        7: (0.20, 3.31e-4),
        8: (0.15, 7.26e-4),
        9: (0.03, 2.59e-2),
    }

    def test_reference_rows(self):
        for j, (e, expected) in self.TABLE.items():
            got = error_term(j, e, 10**9)
            assert abs(got - expected) / expected < 5e-3

    def test_formula_j1(self):
        assert error_term(1, 1.0, 10**6) == pytest.approx((2 / 3) / 2e6, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ParameterError):
            error_term(0, 0.5, 100)
        with pytest.raises(ParameterError):
            error_term(1, 1.5, 100)


class TestTSet:
    def test_unit_c(self):
        entries = [(t.p, t.m) for t in t_set(2, 0.5, 1.0)]
        assert entries == [(3, 1)]

    def test_at_worst_constant(self):
        c = m_const(2, 0.5)
        assert c == pytest.approx(h_prime_power(2, 3, 1) * math.sqrt(3), rel=1e-12)
        entries = [(t.p, t.m) for t in t_set(2, 0.5, c)]
        assert entries == [(3, 1), (5, 1), (7, 1)]

    def test_members_satisfy_inequality(self):
        for j, e, c in ((2, 0.5, 1.0), (3, 0.6, 2.0), (5, 0.35, 1.0)):
            for entry in t_set(j, e, c):
                pm = entry.p**entry.m
                assert entry.h_value * c * pm**e >= 1.0

    def test_entry_values_match_definitions(self):
        for entry in t_set(3, 0.6, 2.0):
            assert entry.h_value == pytest.approx(
                h_prime_power(3, entry.p, entry.m), rel=1e-15
            )
            assert entry.g_value == pytest.approx(
                g_prime_power(3, entry.p, entry.m), rel=1e-15
            )

    def test_rejects_bad_e(self):
        with pytest.raises(ParameterError):
            t_set(2, 1.0, 1.0)
        with pytest.raises(ParameterError):
            t_set(2, 0.0, 1.0)


class TestMConst:
    def test_at_least_one(self):
        for j, e in ((1, 0.5), (2, 0.5), (4, 0.48)):
            assert m_const(j, e) >= 1.0

    def test_sampled_maximality(self):
        import random

        rng = random.Random(5)
        j, e = 2, 0.5
        target = m_const(j, e)
        entries = t_set(j, e, target)
        for _ in range(10**4):
            chosen = rng.sample(entries, rng.randint(1, len(entries)))
            by_p = {}
            for entry in chosen:
                by_p[entry.p] = entry
            n = 1
            hv = 1.0
            for entry in by_p.values():
                n *= entry.p**entry.m
                hv *= entry.h_value
            assert hv * n**e <= target * (1 + 1e-12)


class TestSSet:
    def test_empty_at_e1_j1(self):
        assert s_set(1, 1.0) == []

    def test_rejects_e1_other_j(self):
        with pytest.raises(ParameterError):
            s_set(2, 1.0)

    def test_fixture_and_exhaustive_verification(self):
        members = s_set(2, 0.5)
        assert [el.n for el in members] == [3, 15, 21, 105]
        # Every divisor of 105 (products of the full T-set primes) is
        # classified correctly by the defining inequality.
        member_set = {el.n for el in members}
        for n in (1, 3, 5, 7, 15, 21, 35, 105):
            hv = h(2, factorize(n))
            assert (hv > n**-0.5) == (n in member_set)

    def test_member_values_match_direct_evaluation(self):
        for el in s_set(2, 0.5):
            f = factorize(el.n)
            assert el.h_value == pytest.approx(h(2, f), rel=1e-12)
            assert el.g_value == pytest.approx(g(2, f), rel=1e-12)
            assert el.nu == len(f.entries)

    def test_members_built_from_t_set(self):
        allowed = {(t.p, t.m) for t in t_set(3, 0.5, m_const(3, 0.5))}
        members = s_set(3, 0.5, node_budget=10**6)
        assert len(members) > 100
        for el in members:
            for p, m in factorize(el.n).entries:
                assert (p, m) in allowed

    def test_wide_membership_leaves_decimal_context_alone(self):
        from decimal import getcontext

        prec = getcontext().prec
        assert _wide_membership(2, 0.5, 105)
        assert not _wide_membership(2, 0.5, 35)
        assert getcontext().prec == prec

    def test_budget_exhaustion_reports_partial(self):
        with pytest.raises(SSetBudgetExceeded) as info:
            s_set(2, 0.75, node_budget=50)
        assert info.value.partial_count >= 0


class TestMainTerm:
    def test_factorized_matches_per_n_oracle(self):
        N = 2000
        for j in (1, 2):
            odd_sum = math.fsum(
                beta_signed(j, factorize(n)) for n in range(1, N + 1, 2)
            )
            z = two_beta2_minus_one(j)
            expected = z.value * odd_sum / j
            got = main_term(j, N)
            assert abs(got.value - expected) <= got.error_radius + 1e-12

    def test_direct_matches_strided_odd_sums_at_scale(self):
        # (1/j) * sum over even n <= N of g_j(2^k) beta_j(n >> k), evaluated
        # per n from factorize and grouped by the odd part m, against the
        # same sum regrouped by k: sum over k >= 1 of g_j(2^k) times the
        # strided odd sum to N >> k.
        N = 2 * 10**5
        js = list(range(1, 9))
        odd = {k: odd_signed_sums(js, N >> k) for k in range(1, N.bit_length())}
        factored = [factorize(m) for m in range(1, N // 2 + 1, 2)]
        for j in js:
            weight = list(itertools.accumulate(
                (g_prime_power(j, 2, k) for k in range(1, N.bit_length())),
                initial=0.0,
            ))
            direct = math.fsum(
                weight[(N // f.n).bit_length() - 1] * beta_signed(j, f)
                for f in factored
            ) / j
            expected = certified_quotient(
                combine_blocks([
                    certified_product(CertifiedValue(g_prime_power(j, 2, k), 0.0), sums[j])
                    for k, sums in odd.items()
                ]),
                j,
            )
            assert abs(direct - expected.value) <= expected.error_radius + 1e-12


class TestOddSignedSums:
    def test_worker_bit_identity(self):
        a = odd_signed_sums([1, 2, 3], 10**5, block_size=1 << 14, workers=1)
        b = odd_signed_sums([1, 2, 3], 10**5, block_size=1 << 14, workers=6)
        for j in (1, 2, 3):
            assert a[j].value == b[j].value
            assert a[j].error_radius == b[j].error_radius

    def test_block_size_within_radii(self):
        a = odd_signed_sums([2], 10**5, block_size=1 << 20)[2]
        b = odd_signed_sums([2], 10**5, block_size=4096)[2]
        assert abs(a.value - b.value) <= a.error_radius + b.error_radius

    def test_matches_per_n_oracle(self):
        oracle = math.fsum(
            beta_signed(2, factorize(n)) for n in range(1, 3001, 2)
        )
        got = odd_signed_sums([2], 3000)[2]
        assert abs(got.value - oracle) <= got.error_radius + 1e-13

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 10**6),
        st.integers(0, 400),
        st.lists(st.integers(1, 8), min_size=1, max_size=8, unique=True),
    )
    # Whole blocks far past lo <= 1e6: base primes to sqrt(1e9), deep prime
    # powers and large cofactors.
    @example(10**7, 1 << 12, list(range(1, 9)))
    @example(10**9 - (1 << 12), 1 << 12, list(range(1, 9)))
    def test_block_kernel_matches_per_n_oracle(self, lo, length, j_list):
        # The strided block kernel against beta_j(n) from factorize, per n.
        hi = lo + length - 1
        odd = range(lo | 1, hi + 1, 2)
        parts = beta_module._block_odd_signed(lo, hi, j_list)
        assert sorted(parts) == sorted(j_list)
        factored = [factorize(n) for n in odd]
        for j in j_list:
            block = parts_to_certified(*parts[j])
            assert parts[j][2] == len(odd)
            oracle = math.fsum(beta_signed(j, f) for f in factored)
            assert abs(block.value - oracle) <= block.error_radius


def _euler_store(directory, J, P, block_size):
    """The checkpoint store euler_log_sums keeps under directory."""
    key = {"kind": "beta-euler", "kernel": beta_module.EULER_KERNEL, "P": P,
           "block_size": block_size, "j_list": list(range(1, J + 1))}
    return CheckpointStore(directory, "beta-euler", key)


class TestCheckpointing:
    def test_resume_reproduces_one_shot(self, tmp_path, killed_at_block):
        store = _euler_store(tmp_path, 2, 50000, 4096)
        with killed_at_block(3, 4096):
            euler_log_sums(2, 50000, block_size=4096, checkpoint_dir=tmp_path)
        assert len(store.load()) == 3  # progress persisted
        resumed = euler_log_sums(2, 50000, block_size=4096, checkpoint_dir=tmp_path)
        direct = euler_log_sums(2, 50000, block_size=4096)
        for j in (1, 2):
            assert resumed[j].value == direct[j].value
            assert resumed[j].error_radius == direct[j].error_radius

    def test_tampered_checkpoint_discarded(self, tmp_path):
        store = _euler_store(tmp_path, 1, 30000, 4096)
        euler_log_sums(1, 30000, block_size=4096, checkpoint_dir=tmp_path)
        records = store.load()[:2]
        records[0].parts["1"] = (records[0].parts["1"][0] + 1e-3, 1.0, 1)
        store.save(records)
        clean = euler_log_sums(1, 30000, block_size=4096, checkpoint_dir=tmp_path)
        direct = euler_log_sums(1, 30000, block_size=4096)
        assert clean[1].value == direct[1].value

    def test_tampered_last_record_discarded(self, tmp_path):
        store = _euler_store(tmp_path, 1, 30000, 4096)
        euler_log_sums(1, 30000, block_size=4096, checkpoint_dir=tmp_path)
        records = store.load()[:4]
        value, abs_sum, n_terms = records[-1].parts["1"]
        records[-1].parts["1"] = (value + 1e-3, abs_sum, n_terms)
        store.save(records)
        resumed = euler_log_sums(1, 30000, block_size=4096, checkpoint_dir=tmp_path)
        direct = euler_log_sums(1, 30000, block_size=4096)
        assert resumed[1].value == direct[1].value
        assert resumed[1].error_radius == direct[1].error_radius

    @pytest.mark.parametrize("workers", [1, 2])
    def test_killed_run_resumes_from_last_flush(self, tmp_path, monkeypatch, workers):
        # 13 blocks; block 7 fails; a flush every 2 blocks keeps blocks 0-5.
        # A block is known by its least prime.
        P, block_size = 50000, 4096
        store = _euler_store(tmp_path, 2, P, block_size)
        kernel = beta_module._log_beta_terms
        calls = []

        def failing(primes, J):
            if primes[0] // block_size == 7:
                raise RuntimeError("killed at block 7")
            return kernel(primes, J)

        def counting(primes, J):
            calls.append(int(primes[0]) // block_size)
            return kernel(primes, J)

        monkeypatch.setattr(beta_module, "_FLUSH_INTEGERS", 2 * block_size)
        monkeypatch.setattr(beta_module, "_log_beta_terms", failing)
        with pytest.raises(RuntimeError, match="block 7"):
            euler_log_sums(2, P, block_size=block_size, workers=workers, checkpoint_dir=tmp_path)
        stored = len(store.load())
        assert stored >= 6

        monkeypatch.setattr(beta_module, "_log_beta_terms", counting)
        resumed = euler_log_sums(2, P, block_size=block_size, workers=workers,
                                 checkpoint_dir=tmp_path)
        n_blocks = P // block_size + 1
        assert sorted(calls) == [0, stored - 1, *range(stored, n_blocks)]
        monkeypatch.setattr(beta_module, "_log_beta_terms", kernel)
        direct = euler_log_sums(2, P, block_size=block_size)
        for j in (1, 2):
            assert resumed[j].value == direct[j].value
            assert resumed[j].error_radius == direct[j].error_radius

    def test_saves_only_when_records_were_added(self, tmp_path, monkeypatch):
        # 8 blocks and a flush every 2 blocks: 4 saves, none after the last
        # flush, and resuming the complete store saves nothing.
        P, block_size = 8 * 4096 - 1, 4096
        saved = []
        save = CheckpointStore.save

        def counting_save(self, records):
            saved.append(len(records))
            save(self, records)

        monkeypatch.setattr(beta_module, "_FLUSH_INTEGERS", 2 * block_size)
        monkeypatch.setattr(CheckpointStore, "save", counting_save)
        first = euler_log_sums(1, P, block_size=block_size, checkpoint_dir=tmp_path)
        assert saved == [2, 4, 6, 8]
        saved.clear()
        resumed = euler_log_sums(1, P, block_size=block_size, checkpoint_dir=tmp_path)
        assert saved == []
        assert resumed[1] == first[1]

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {"blocks": [{"index": 0, "hi": 4095, "parts": {"1": [0.5, 0.5, 1]}}]},
            {"blocks": "xy"},
            {"blocks": [{"index": 0, "lo": 3, "hi": 4095, "parts": {"1": [0.5]}}]},
        ],
        ids=["list", "block-without-lo", "blocks-string", "short-parts"],
    )
    def test_malformed_document_is_absent(self, tmp_path, doc):
        store = _euler_store(tmp_path, 1, 30000, 4096)
        if isinstance(doc, dict):
            doc = {"schema_version": 1, "key": store.key, **doc}
        store.path.write_text(json.dumps(doc))
        assert store.load() == []
        resumed = euler_log_sums(1, 30000, block_size=4096, checkpoint_dir=tmp_path)
        assert resumed[1] == euler_log_sums(1, 30000, block_size=4096)[1]

    def test_middle_record_missing_a_series_is_discarded(self, tmp_path):
        store = _euler_store(tmp_path, 2, 30000, 4096)
        euler_log_sums(2, 30000, block_size=4096, checkpoint_dir=tmp_path)
        records = store.load()[:4]
        del records[1].parts["2"]
        store.save(records)
        resumed = euler_log_sums(2, 30000, block_size=4096, checkpoint_dir=tmp_path)
        direct = euler_log_sums(2, 30000, block_size=4096)
        assert resumed == direct

    def test_foreign_key_ignored(self, tmp_path):
        store_a = _euler_store(tmp_path, 1, 30000, 4096)
        store_b = _euler_store(tmp_path, 1, 40000, 4096)
        euler_log_sums(1, 30000, block_size=4096, checkpoint_dir=tmp_path)
        assert store_a.load()
        assert store_a.path != store_b.path
        assert store_b.load() == []


class TestSTailBound:
    @pytest.mark.parametrize("j,N", [(2, 2000), (3, 2000), (8, 10**7)])
    def test_positive_and_small(self, j, N):
        bound = s_tail_bound(j, N)
        assert 0 < bound < 1

    @pytest.mark.parametrize("j", range(1, 9))
    def test_dominates_brute_force_partial_sum(self, j):
        # Partial sums of g_j h_j over odd n just past N can never exceed
        # the bound on the whole tail.
        N = 2001
        partial = math.fsum(g(j, f) * h(j, f) for f in _odd_factorizations(N + 2, 40 * N))
        assert partial <= s_tail_bound(j, N)

    def test_kernel_abs_sum_is_g_h_sum(self):
        # The block kernel's abs-sum field is sum of |beta_j(n)| = g_j h_j.
        lo, hi = 10**4 + 1, 10**4 + 3000
        parts = beta_module._block_odd_signed(lo, hi, list(range(1, 9)))
        for j in range(1, 9):
            oracle = math.fsum(g(j, f) * h(j, f) for f in _odd_factorizations(lo, hi))
            assert parts[j][1] == pytest.approx(oracle, rel=1e-13)

    @pytest.mark.parametrize("N0", [10**4, 10**5])
    @pytest.mark.parametrize("j", range(1, 25))
    def test_dominates_kernel_tail_to_1e6(self, j, N0):
        # The bound is the only charge on the odd tail past N0; it must
        # exceed sum of g_j h_j over odd n in (N0, 10^6].
        tail = sum(_abs_sums(lo, hi)[j] for lo, hi in _TAIL_PIECES if lo > N0)
        assert tail <= s_tail_bound(j, N0)


_TAIL_PIECES = [(10**4 + 1, 10**5), (10**5 + 1, 10**6)]


@functools.lru_cache(maxsize=None)
def _odd_factorizations(lo, hi):
    return tuple(map(factorize, range(lo | 1, hi + 1, 2)))


@functools.lru_cache(maxsize=None)
def _abs_sums(lo, hi):
    """sum of g_j h_j over odd n in [lo, hi] for j = 1..24, from the block
    kernel, in pieces of 2^17 integers to bound its arrays."""
    js = list(range(1, 25))
    pieces = [beta_module._block_odd_signed(a, b, js) for a, b in aligned_blocks(lo, hi, 1 << 17)]
    return {j: math.fsum(parts[j][1] for parts in pieces) for j in js}


class TestBetaLower:
    def test_config_validation(self):
        for J, P in ((0, 10**4), (1, 101), (MAX_J + 1, 10**4)):
            with pytest.raises(ParameterError):
                beta_lower(J, P)

    def test_small_run_is_conservative(self):
        summary = beta_lower(2, 10**4)
        assert summary.lower_bound < summary.certified.value
        assert summary.lower_bound > 0.6

    def test_both_modes_below_beta_upper_estimate(self):
        # The lower bound may not pass an upper estimate of the j = 2 term
        # by the odd-sum route: a larger main term plus the whole tail's
        # Rankin charge.
        (_, term) = beta_lower(2, 10**4).reports
        z_upper = two_beta2_minus_one(2).upper
        upper = main_term(2, 10**6).upper + s_tail_bound(2, 10**6) * z_upper / 2
        assert term.contribution_lower <= upper

    def test_default_mode_never_searches(self, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("s_set called")

        monkeypatch.setattr(beta_module, "s_set", no_search)
        summary = beta_lower(8, 10**4)
        assert [r.j for r in summary.reports] == list(range(1, 9))

    def test_one_prime_pass_per_P(self, monkeypatch):
        # Every j-term shares the one prime pass to P.
        calls = []
        real = beta_module.prime_pass

        def counting(kernels, *args, **kwargs):
            calls.append([(k.J, k.P) for k in kernels])
            return real(kernels, *args, **kwargs)

        monkeypatch.setattr(beta_module, "prime_pass", counting)
        beta_lower(3, 10**4)
        assert calls == [[(3, 10**4)]]

    def test_takes_no_odd_sum_and_no_rankin_bound(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("odd-sum route called")

        monkeypatch.setattr(beta_module, "odd_signed_sums", refuse)
        monkeypatch.setattr(beta_module, "s_tail_bound", refuse)
        monkeypatch.setattr(beta_module, "_block_odd_signed", refuse)
        summary = beta_lower(8, 10**4)
        assert summary.lower_bound > 0.7

    def test_bound_mode_charges_only_the_tail_bound(self):
        # Every j, j = 1 included, pays exactly j T(P) for the primes past
        # P, on the lower end of its Euler term over the primes up to P.
        P = 10**4
        for r in beta_lower(32, P).reports:
            j = r.j
            assert r.P == P
            assert r.tail_charge == j * prime_tail_bound(P)
            assert r.main == euler_term(j, r.log_product)
            assert r.contribution_lower == r.main.lower * (1.0 - r.tail_charge) * (1.0 - 4 * EPS)

    def test_lower_bound_improves_with_N(self):
        values = []
        for N in (10**4, 10**5, 4 * 10**5):
            summary = beta_lower(2, N)
            values.append(summary.lower_bound)
        assert values == sorted(values)

    def test_paper_scale_config_accepted(self, tmp_path, killed_at_block):
        # Criterion: the engine must take the full-scale configuration and
        # make progress through checkpoints (not run it to completion here):
        # a run killed at block 2 keeps blocks 0 and 1, and its resume,
        # killed at block 4, keeps 4.
        store = _euler_store(tmp_path, 8, 10**9, 1 << 20)
        with killed_at_block(2):
            beta_lower(8, 10**9, checkpoint_dir=str(tmp_path))
        assert [path.name for path in tmp_path.iterdir()] == [store.path.name]
        assert len(store.load()) == 2
        with killed_at_block(4):
            beta_lower(8, 10**9, checkpoint_dir=str(tmp_path))
        assert len(store.load()) == 4


# The odd-sum route's tail bounds, each falling with N.
TAIL_BOUNDS = {
    "s_tail_bound": lambda N: s_tail_bound(2, N),
    "error_term": lambda N: error_term(3, 0.6, N),
}


@pytest.mark.parametrize("bound", TAIL_BOUNDS.values(), ids=TAIL_BOUNDS)
def test_tail_bound_past_the_float_range(bound):
    # N past 2^1000 is evaluated at 2^1000, which still bounds the tail.
    assert 0.0 < bound(10**400) == bound(2**1000) < bound(10**6)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: s_tail_bound(1, -5), "N must be >= 1"),  # was a complex number
        (lambda: s_tail_bound(1, 0), "N must be >= 1"),  # was a ZeroDivisionError
        (lambda: s_tail_bound(0, 10), "j must be >= 1"),
        (lambda: s_tail_bound(-1, 10), "j must be >= 1"),
        (lambda: error_term(3, 0.6, -5), "N must be >= 2"),
        (lambda: error_term(3, 0.6, 1), "N must be >= 2"),
        (lambda: error_term(0, 0.6, 10), "j must be >= 1"),
        (lambda: error_term(3, 0.0, 10), r"e must lie in \(0, 1\]"),
        (lambda: error_term(3, -0.5, 10), r"e must lie in \(0, 1\]"),
        (lambda: error_term(3, 1.5, 10), r"e must lie in \(0, 1\]"),
    ],
)
def test_tail_bounds_reject_bad_arguments(call, message):
    with pytest.raises(ParameterError, match=message):
        call()


def test_tail_bounds_accept_the_least_N():
    for value in (s_tail_bound(1, 1), error_term(3, 0.6, 2)):
        assert isinstance(value, float) and 0.0 < value < math.inf


class TestEulerRoute:
    def test_config_domain(self):
        assert len(beta_lower(1, MIN_PRIME_CUTOFF).reports) == 1
        assert len(beta_lower(MAX_J, MIN_PRIME_CUTOFF).reports) == MAX_J
        for J, P in ((1, MIN_PRIME_CUTOFF - 1), (MAX_J + 1, 10**4), (0, 10**4),
                     (10**400, 10**4), (1, -(10**400)), (10**400, 10**400)):
            with pytest.raises(ParameterError):
                beta_lower(J, P)

    def test_any_size_cutoff_is_a_typed_error(self):
        # An odd P is fine (no "even" rule); past the sieve's range it is a
        # resource error, before any work starts.
        assert beta_lower(1, 10**4 + 1).reports[0].P == 10**4 + 1
        with pytest.raises(ResourceError):
            beta_lower(1, 10**400)

    def test_prime_tail_bound(self):
        # T(P) bounds the prime sum past P; sampled against the primes to 1e7.
        p = primes_in_range(3, 10**7).astype(float)
        for P in (10**3, 10**4, 10**5, 10**6):
            assert math.fsum((p[p > P]) ** -2.0) < prime_tail_bound(P)
        assert 0.0 < prime_tail_bound(10**400) <= prime_tail_bound(2**1000)
        with pytest.raises(ParameterError):
            prime_tail_bound(1)

    def test_kernel_matches_beta_prime(self):
        # Per prime, exp of the kernel's certified log beta_j(p) meets the
        # Euler-factor series of beta_prime within both radii.
        for j in (1, 2, 8, 32):
            for p in (3, 5, 7, 13, 101, 997, 10007):
                t = beta_module._log_beta_terms(np.array([p]), j)[j - 1][0]
                kernel = parts_to_certified(t, abs(t), 1)
                bp = beta_prime(j, p, 60)
                lo = max(math.exp(kernel.lower), bp.lower)
                hi = min(math.exp(kernel.upper), bp.upper)
                assert lo <= hi * (1 + 4 * EPS), (j, p)

    def test_terms_independent_of_the_other_js(self):
        # Row j - 1 holds j's terms, the bits of the pass to J = j alone.
        primes = primes_in_range(3, 3 * 10**5)
        every = beta_module._log_beta_terms(primes, 32)
        assert every.shape == (32, primes.size)
        for j in (1, 8, 32):
            alone = beta_module._log_beta_terms(primes, j)
            assert alone.shape == (j, primes.size)
            assert alone[j - 1].tobytes() == every[j - 1].tobytes()

    def test_workers_and_block_sizes(self):
        a = euler_log_sums(8, 2 * 10**5, block_size=1 << 14, workers=1)
        b = euler_log_sums(8, 2 * 10**5, block_size=1 << 14, workers=3)
        c = euler_log_sums(8, 2 * 10**5)
        assert a == b
        assert list(a) == list(range(1, 9))
        for j in a:
            assert abs(a[j].value - c[j].value) <= a[j].error_radius + c[j].error_radius

    @pytest.mark.parametrize("j", [0, MAX_J + 1, 10**400])
    def test_pass_rejects_j_outside_the_domain(self, j):
        with pytest.raises(ParameterError):
            euler_log_sums(j, 10**4)

    def test_no_primes_sum_to_zero(self):
        assert beta_module._log_beta_terms(np.empty(0, dtype=np.int64), 2).shape == (2, 0)
        assert euler_log_sums(2, 2) == {1: CertifiedValue(0.0, 0.0), 2: CertifiedValue(0.0, 0.0)}

    def test_checkpoint_resume_reproduces_one_shot(self, tmp_path):
        store = _euler_store(tmp_path, 2, 10**5, 4096)
        euler_log_sums(2, 10**5, block_size=4096, checkpoint_dir=tmp_path)
        records = store.load()[:5]
        value, abs_sum, n_terms = records[-1].parts["2"]
        records[-1].parts["2"] = (value + 1e-9, abs_sum, n_terms)
        store.save(records)  # a tampered last record: the file is discarded
        resumed = euler_log_sums(2, 10**5, block_size=4096, checkpoint_dir=tmp_path)
        assert resumed == euler_log_sums(2, 10**5, block_size=4096)

    def test_lower_end_below_a_later_upper_end(self):
        # t_j <= (z/j) prod over p <= 1e6 of beta_j(p), since every factor
        # is below 1, so the certified lower end at P = 1e3 must lie below
        # that product's upper end.  Without the 1 - j T(P) charge the
        # lower end at 1e3 passes it for every j.
        small = beta_lower(8, 10**3)
        logs = euler_log_sums(8, 10**6)
        for r in small.reports:
            j = r.j
            upper = two_beta2_minus_one(j).upper / j * math.exp(logs[j].upper)
            assert r.contribution_lower < upper, j

    def test_euler_terms_match_the_odd_sum_route(self):
        # Two algorithms for t_j: the Euler product over p <= 1e6 and the
        # odd sum over n <= 1e6.  Each is within its own tail charge of t_j.
        from test_acceptance import BETA_MAIN

        P = N = 10**6
        js = list(range(1, 9))
        euler = {r.j: r for r in beta_lower(8, P).reports}
        odd = odd_signed_sums(js, N)
        for j in js:
            odd_main = main_term(j, N, odd_sum=odd[j])
            rankin = s_tail_bound(j, N) * two_beta2_minus_one(j).upper / j
            allowed = rankin + j * prime_tail_bound(P) + euler[j].main.error_radius \
                + odd_main.error_radius
            assert abs(euler[j].main.value - odd_main.value) <= allowed, j
            assert abs(euler[j].main.value - BETA_MAIN[j]) <= 1e-6, j

    def test_s_tail_bound_sieves_once(self, monkeypatch):
        # The odd primes to the cutoff are sieved once for every j; the
        # bound's bits are those of a fresh sieve per call.
        pinned = {
            1: "0x1.db5acf45635b0p-18", 2: "0x1.1a5391145d24bp-16",
            3: "0x1.2d709f59512efp-15", 4: "0x1.2b03f4363f24bp-14",
            5: "0x1.18ff1f9c0e4c7p-13", 6: "0x1.faa67d6cdfa4bp-13",
            7: "0x1.b9f58196fc4c4p-12", 8: "0x1.77536daeb0626p-11",
        }
        calls = []
        real = beta_module.primes_in_range
        monkeypatch.setattr(beta_module, "primes_in_range",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        beta_module._odd_primes.cache_clear()
        got = {j: s_tail_bound(j, 10**7).hex() for j in range(1, 9)}
        beta_module._odd_primes.cache_clear()
        assert calls == [(3, 100_000)]
        assert got == pinned


class TestSeriesPass:
    """The prime pass past SERIES_FROM = 2^20, where blocks keep power sums."""

    P = (1 << 20) + (1 << 17)
    STRADDLING = 3 << 14  # block 21, [1032192, 1081343], holds 2^20

    def test_block_sizes_agree_within_radii(self):
        runs = [euler_log_sums(32, self.P, block_size=size)
                for size in (1 << 14, self.STRADDLING, 1 << 20)]
        for a, b in itertools.combinations(runs, 2):
            for j in range(1, 33):
                assert abs(a[j].value - b[j].value) <= a[j].error_radius + b[j].error_radius, j

    def test_workers_bit_identical(self):
        one = euler_log_sums(32, self.P, block_size=self.STRADDLING, workers=1)
        two = euler_log_sums(32, self.P, block_size=self.STRADDLING, workers=2)
        assert one == two

    def test_records_split_at_the_series_start(self, tmp_path, killed_at_block):
        # Blocks below 2^20 keep per-j parts, those above per-k power sums,
        # the straddling one both; resuming past it reproduces one shot.
        store = _euler_store(tmp_path, 2, self.P, self.STRADDLING)
        with killed_at_block(23, self.STRADDLING):
            euler_log_sums(2, self.P, block_size=self.STRADDLING, checkpoint_dir=tmp_path)
        records = store.load()
        assert len(records) == 23
        sums = {f"s{k}" for k in range(2, beta_module.SERIES_TERMS + 2)}
        assert records[20].parts.keys() == {"1", "2"}
        assert records[21].parts.keys() == {"1", "2"} | sums
        assert records[22].parts.keys() == sums
        resumed = euler_log_sums(2, self.P, block_size=self.STRADDLING, checkpoint_dir=tmp_path)
        assert resumed == euler_log_sums(2, self.P, block_size=self.STRADDLING)

    def test_record_with_the_wrong_layout_is_discarded(self, tmp_path):
        store = _euler_store(tmp_path, 2, self.P, self.STRADDLING)
        euler_log_sums(2, self.P, block_size=self.STRADDLING, checkpoint_dir=tmp_path)
        records = store.load()[:23]
        del records[21].parts["s3"]
        store.save(records)
        resumed = euler_log_sums(2, self.P, block_size=self.STRADDLING, checkpoint_dir=tmp_path)
        assert resumed == euler_log_sums(2, self.P, block_size=self.STRADDLING)

    def test_coefficients_only_past_the_series_start(self):
        beta_module._series_coefficients.cache_clear()
        euler_log_sums(8, beta_module.SERIES_FROM - 1)
        assert beta_module._series_coefficients.cache_info().currsize == 0
        euler_log_sums(8, self.P)
        assert beta_module._series_coefficients.cache_info().currsize == 8
