"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with -s to see them on
success).  Reference values and tolerances are pinned here (the even
log-mean rows in test_means); nothing is deferred to later calibration.
"""

import time

from test_means import EVEN_LOG_TABLE

from aliquot.alpha import alpha_upper_bound
from aliquot.beta import EULER_KERNEL, PAPER_E, beta_lower, error_term, odd_signed_sums
from aliquot.checkpoint import CheckpointStore
from aliquot.cli import combine_lambda
from aliquot.means import arithmetic_mean, closed_form, log_mean


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _report_checks(criterion: int, measured: str, failures: list[str], total: int,
                   elapsed: float, budget: float) -> None:
    """_report for a criterion of ``total`` checks and a time budget: what
    was measured when all held, else which checks failed and the overrun."""
    problems = [f"{len(failures)} of {total} checks failed: " + "; ".join(failures)] if failures else []
    if elapsed >= budget:
        problems.append(f"took {elapsed:.1f}s, over the {budget}s budget")
    _report(criterion, not problems, "; ".join(problems) or f"{measured}, {elapsed:.1f}s")


ALPHA_TABLE = {
    10**4: (0.6983072233, 1.0000093132e-4),
    10**5: (0.6983162365, 1.0000931323e-5),
    10**6: (0.6983169710, 1.0009313233e-6),
}

BETA_MAIN = {
    1: 0.508058,
    2: 0.134230,
    3: 0.048944,
    4: 0.020684,
    5: 0.009564,
    6: 0.004706,
    7: 0.002425,
    8: 0.001295,
}

BETA_ERRORS_1E9 = {
    3: 3.276e-7,
    4: 2.462e-6,
    5: 2.66e-5,
    6: 7.89e-5,
    7: 3.31e-4,
    8: 7.26e-4,
    9: 2.59e-2,
}


def test_criterion_1_alpha_table():
    t0 = time.time()
    failures = []
    for N, (sums_ref, tail_ref) in ALPHA_TABLE.items():
        result = alpha_upper_bound(N)
        if abs(result.sums.value - sums_ref) >= 1e-9:
            failures.append(f"sums at N={N} are {result.sums.value!r}, table {sums_ref}")
        if abs(result.tail_total - tail_ref) / tail_ref >= 5e-7:
            failures.append(f"tail at N={N} is {result.tail_total!r}, table {tail_ref}")
    _report_checks(1, "alpha sums within 1e-9 and tails within 5e-7 (relative) of the table "
                   "at N=1e4, 1e5, 1e6", failures, 2 * len(ALPHA_TABLE), time.time() - t0, 60)


def test_criterion_2_alpha_corollary():
    t0 = time.time()
    result = alpha_upper_bound(10**8)
    elapsed = time.time() - t0
    ok = result.upper_bound < 0.69831705 and elapsed < 1800
    _report(2, ok,
            f"alpha upper bound at N=1e8 is {result.upper_bound!r} < 0.69831705, "
            f"{elapsed:.0f}s")


def test_criterion_3_beta_error_formula():
    errors = {
        j: error_term(j, {3: 0.60, 4: 0.48, 5: 0.35, 6: 0.28, 7: 0.20,
                          8: 0.15, 9: 0.03}[j], 10**9)
        for j in BETA_ERRORS_1E9
    }
    bad = [
        j for j, ref in BETA_ERRORS_1E9.items()
        if abs(errors[j] - ref) / ref >= 5e-3
    ]
    _report(3, not bad, f"error terms j=3..9 at N=1e9 match to 3 digits {bad or ''}")


def test_criterion_4_beta_main_terms():
    t0 = time.time()
    sums = odd_signed_sums(list(range(1, 9)), 10**7)
    failures = []
    for j in range(1, 9):
        from aliquot.beta import main_term

        value = main_term(j, sums[j]).value
        tolerance = error_term(j, PAPER_E[j - 1], 10**7) + 1e-6
        if abs(value - BETA_MAIN[j]) > tolerance:
            failures.append(f"j={j}: {value:.6f} vs {BETA_MAIN[j]}")
    elapsed = time.time() - t0
    if elapsed >= 600:
        failures.append(f"runtime {elapsed:.1f}s")
    _report(4, not failures,
            f"main terms at N=1e7 within error_term+1e-6 of published values, "
            f"{elapsed:.0f}s" + ("; " + "; ".join(failures) if failures else ""))


def test_criterion_5_certified_lambda():
    t0 = time.time()
    alpha_result = alpha_upper_bound(10**6)
    beta_result = beta_lower(8, 10**7)
    report = combine_lambda(alpha_result, beta_result)
    elapsed = time.time() - t0
    ok = (
        report.lambda_upper <= -0.026
        and report.mu_upper < 0.975
        and beta_result.lower_bound >= 0.7268
        and elapsed < 900
    )
    _report(5, ok,
            f"lambda_upper={report.lambda_upper:.6f} <= -0.026, "
            f"mu_upper={report.mu_upper:.6f} < 0.975, "
            f"beta >= {beta_result.lower_bound:.6f}, {elapsed:.0f}s")


def test_criterion_6_means():
    t0 = time.time()
    failures = []
    for N in (10**2, 10**4, 10**6):
        ref = EVEN_LOG_TABLE[N]
        value = log_mean("even", N).value
        if abs(value - ref) >= 1e-8:
            failures.append(f"even log mean at N={N} is {value!r}, table {ref}")
    for mean_class in ("all", "even", "odd"):
        value = arithmetic_mean(mean_class, 10**6).value
        if abs(value - closed_form(mean_class)) >= 1e-3:
            failures.append(f"{mean_class} arithmetic mean at N=1e6 is {value!r}, "
                            f"limit {closed_form(mean_class)!r}")
    _report_checks(6, "even log means at N=1e2, 1e4, 1e6 within 1e-8 of the table; arithmetic "
                   "means of all, even, odd at N=1e6 within 1e-3 of their limits",
                   failures, 6, time.time() - t0, 60)


def test_criterion_7_property_suites(selftest_results):
    # The suite alq selftest runs, once per session (conftest); the unit
    # tests run each check too.
    results, elapsed = selftest_results
    failures = [name + (f" ({detail})" if detail else "") for name, ok, detail in results if not ok]
    _report_checks(7, f"all {len(results)} checks of alq selftest's suite passed",
                   failures, len(results), elapsed, 60)


def test_criterion_8_full_scale_configuration(tmp_path, killed_at_block):
    # The published full-scale cutoff 1e9, now beta's prime cutoff P: the
    # engine must accept the configuration and make checkpointed,
    # resumable progress through its prime pass.  A run killed at block 2
    # keeps blocks 0 and 1, which hold the primes below and above 2^20,
    # so both kernels are checkpointed; the key names the kernel, so no
    # record of another layout is loaded.  Its resume, killed at block 4,
    # keeps 4.
    with killed_at_block(2):
        beta_lower(8, 10**9, checkpoint_dir=str(tmp_path))
    files = list(tmp_path.iterdir())
    ok = len(files) == 1
    key = {
        "kind": "beta-euler",
        "kernel": EULER_KERNEL,
        "P": 10**9,
        "block_size": 1 << 20,
        "j_list": list(range(1, 9)),
    }
    store = CheckpointStore(tmp_path, key)
    records = store.load()
    ok = ok and len(records) == 2
    ok = ok and records[0].parts.keys() == {str(j) for j in range(1, 9)}
    ok = ok and records[1].parts.keys() == {f"s{k}" for k in range(2, 10)}
    with killed_at_block(4):
        beta_lower(8, 10**9, checkpoint_dir=str(tmp_path))
    ok = ok and len(store.load()) == 4
    _report(8, ok,
            "paper-scale configuration accepted; checkpointed blocks resume "
            f"({len(store.load())} of {10**9 // (1 << 20) + 1} blocks after two killed runs)")
