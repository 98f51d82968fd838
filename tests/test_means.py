import math
import sys
import threading

import pytest

from aliquot import means
from aliquot.errors import ParameterError, ResourceError
from aliquot.means import (
    CSV_HEADER,
    arithmetic_mean,
    closed_form,
    log_mean,
    mean_report,
)

# Reference values for the even-class logarithmic mean (10 displayed digits).
# The value at 10^5 is omitted: the published row there disagrees (by 3.5e-6)
# with the definition that reproduces every other row, and two independent
# evaluations (multiplicative sieve and sympy's divisor_sigma) agree with
# each other, not with it.
EVEN_LOG_TABLE = {
    10**2: -0.0567457527,
    10**3: -0.0356519058,
    10**4: -0.0335201796,
    10**6: -0.0332626444,
    10**7: -0.0332598642,
}


class TestClosedForm:
    def test_values(self):
        pi2 = math.pi**2
        assert closed_form("all") == pi2 / 6 - 1
        assert closed_form("even") == 5 * pi2 / 24 - 1
        assert closed_form("odd") == 3 * pi2 / 24 - 1

    def test_rounded_displays(self):
        assert f"{closed_form('all'):.4f}" == "0.6449"
        assert f"{closed_form('even'):.4f}" == "1.0562"
        assert f"{closed_form('odd'):.4f}" == "0.2337"

    def test_rejects_unknown_class(self):
        for call in (closed_form, lambda c: log_mean(c, 10), lambda c: arithmetic_mean(c, 10)):
            with pytest.raises(ParameterError):
                call("prime")


class TestArithmeticMean:
    def test_even_two_terms(self):
        # (s(2)/2 + s(4)/4) / 2 = (1/2 + 3/4) / 2
        assert arithmetic_mean("even", 2).value == 0.625

    def test_all_small_matches_brute_force(self):
        from aliquot.arith import sigma_oracle

        N = 500
        expected = math.fsum((sigma_oracle(n) - n) / n for n in range(1, N + 1)) / N
        got = arithmetic_mean("all", N)
        assert abs(got.value - expected) <= got.error_radius + 1e-15

    @pytest.mark.parametrize("mean_class,tol", [("all", 1e-3), ("even", 1e-3), ("odd", 1e-3)])
    def test_converges_to_closed_form_at_1e5(self, mean_class, tol):
        got = arithmetic_mean(mean_class, 10**5)
        assert abs(got.value - closed_form(mean_class)) < tol

    def test_tighter_convergence_at_1e6(self):
        # Empirical O(log N / N) convergence supports these margins.
        assert abs(arithmetic_mean("all", 10**6).value - closed_form("all")) < 1e-4
        assert abs(arithmetic_mean("odd", 10**6).value - closed_form("odd")) < 1e-3

    def test_rejects_tiny_N(self):
        with pytest.raises(ParameterError):
            arithmetic_mean("all", 1)


class TestLogMean:
    def test_even_four(self):
        expected = (math.log(1 / 2) + math.log(3 / 4)) / 2
        got = log_mean("even", 4)
        assert abs(got.value - expected) < 1e-15

    @pytest.mark.parametrize("N", [10**3])  # 1e2 and 1e4: acceptance criterion 6
    def test_even_reference_table(self, N):
        got = log_mean("even", N)
        assert abs(got.value - EVEN_LOG_TABLE[N]) < 1e-8

    def test_accuracy_improves_along_table(self):
        errors = [abs(log_mean("even", 10**k).value - (-0.03326)) for k in range(2, 7)]
        assert errors == sorted(errors, reverse=True)

    def test_all_class_drifts_downward(self):
        values = [log_mean("all", 10**k).value for k in range(3, 7)]
        assert values == sorted(values, reverse=True)

    def test_block_size_within_radii(self):
        a = log_mean("even", 10**5, block_size=1 << 20)
        b = log_mean("even", 10**5, block_size=10007)
        assert abs(a.value - b.value) <= a.error_radius + b.error_radius


class TestGeometricVsArithmetic:
    @pytest.mark.parametrize("N", [40, 1000, 12345])
    def test_even_class(self, N):
        # Same sample both sides: even integers up to N.
        geo = math.exp(log_mean("even", N).value)
        arith = arithmetic_mean("even", N // 2).value
        assert geo < arith

    @pytest.mark.parametrize("N", [100, 5000])
    def test_all_class(self, N):
        geo = math.exp(log_mean("all", N).value)
        arith_over_terms = arithmetic_mean("all", N).value * N / (N - 1)
        assert geo < arith_over_terms

    @pytest.mark.parametrize("N", [101, 4999])
    def test_odd_class(self, N):
        geo = math.exp(log_mean("odd", N).value)
        count = (N + 1) // 2 - 1
        total = arithmetic_mean("odd", (N + 1) // 2).value * ((N + 1) // 2)
        assert geo < total / count


class TestReport:
    def test_report_fields(self):
        rep = mean_report("even", 1000)
        doc = rep.to_json_dict()
        assert doc["class"] == "even"
        assert doc["N"] == 1000
        assert doc["closed_form"] == closed_form("even")
        row = rep.csv_row()
        assert len(row) == len(CSV_HEADER)

    def test_passes_on_two_threads_keep_their_serial_bits(self):
        # Each pass fills a sigma workspace of its own, so two passes at once
        # on two threads (each serial, as a threaded caller's passes are)
        # give the bits each gives alone.
        args = [("even", 2 * 10**6), ("odd", 10**6)]
        serial = [mean_report(*a, block_size=1 << 16).to_json_dict() for a in args]
        got = [None, None]

        def run(k):
            got[k] = mean_report(*args[k], block_size=1 << 16).to_json_dict()

        threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == serial

    def test_largest_N_by_class(self, monkeypatch):
        # The arithmetic mean runs over the first N class members, to 2N for
        # even and odd, so the error names N; the log mean alone runs to N.
        for mean_class, largest in (("all", 10**10), ("even", 5 * 10**9), ("odd", 5 * 10**9)):
            with pytest.raises(ResourceError, match=f"^N = {largest + 1} exceeds {largest}, "
                               f"the largest N for class {mean_class}:"):
                mean_report(mean_class, largest + 1)

        def started(*args):
            raise RuntimeError("the pass started")

        monkeypatch.setattr(means, "map_blocks", started)
        for run in (lambda: mean_report("odd", 5 * 10**9), lambda: log_mean("even", 10**10)):
            with pytest.raises(RuntimeError, match="the pass started"):
                run()


# Report bits pinned as hex floats (numpy 2.4.6): any change to the sigma
# kernel, the ratio or the block sums that moves one bit fails here.
PINNED_MEANS = [
    ("even", 10**6, "log", "-0x1.107cd2484ee89p-5", "0x1.5181866d2550fp-35"),
    ("even", 10**6, "arithmetic", "0x1.0e609297f4802p+0", "0x1.027e9368fbc6fp-33"),
    ("all", 2 * 10**5, "log", "-0x1.c34c693cfcec1p+0", None),
    ("odd", 2 * 10**5, "log", "-0x1.bf0aafa39481ap+1", None),
]


@pytest.mark.parametrize("mean_class,N,kind,value,radius", PINNED_MEANS)
def test_pinned_report_bits(mean_class, N, kind, value, radius):
    report = mean_report(mean_class, N)
    got = report.logarithmic if kind == "log" else report.arithmetic
    assert got.value.hex() == value
    if radius is not None:
        assert got.error_radius.hex() == radius
