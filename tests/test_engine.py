"""The block engine's process path and the passes that run on it.

Passes under numerics.SERIAL_INTEGERS integers run serially, so the tests
of the process path use conftest's ``forked`` fixture, which sets that
threshold to 0 and gives the process two usable CPUs.

TestProcessPath is the one home of the engine's forked behaviour;
test_numerics.TestMapBlocks covers only its serial path.

TestSameBitsOnProcesses is the one home of process-path bit identity:
each pass (alpha, beta's prime pass below and past 2^20 and its resume,
lambda's shared pass, the means of every class, the odd sums) gives on
two forked workers the bits it gives serially.  No other test compares
a pass's bits across worker counts.
"""

import json
import multiprocessing
import multiprocessing.context
import os
from collections import Counter

import pytest

from aliquot import primes
from aliquot.alpha import alpha_upper_bound
from aliquot.beta import beta_lower, odd_signed_sums
from aliquot.cli import lambda_bounds
from aliquot.errors import ParameterError, ResourceError
from aliquot.means import mean_report
from aliquot.numerics import aligned_blocks, map_blocks, pass_workers

BLOCKS = aligned_blocks(0, 99, 10)


@pytest.fixture
def started(monkeypatch):
    """The worker processes map_blocks starts, as a growing list."""
    procs = []
    start = multiprocessing.context.ForkProcess.start
    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start",
                        lambda self: procs.append(self) or start(self))
    return procs


def fail_at(lo, exc):
    def eval_block(b_lo, b_hi):
        if b_lo == lo:
            raise exc
        return b_lo

    return eval_block


class TestSerialRule:
    def test_small_passes_stay_serial(self, cpu_set):
        cpu_set(2)
        assert pass_workers(BLOCKS, 2) == 1  # 100 integers
        big = aligned_blocks(0, (1 << 23) - 1, 1 << 20)
        assert pass_workers(big, 2) == 2
        assert pass_workers(big, 5) == 2
        assert pass_workers(big, 1) == 1
        assert pass_workers(big[:1], 2) == 1
        assert pass_workers(aligned_blocks(0, (1 << 23) - 2, 1 << 20), 2) == 1

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one(self, workers):
        with pytest.raises(ParameterError, match="workers"):
            pass_workers(BLOCKS, workers)


@pytest.mark.usefixtures("forked")
class TestProcessPath:
    @pytest.mark.parametrize("workers", [2, 5])  # 5: more workers than usable CPUs
    def test_results_in_block_order_and_no_child_left(self, workers):
        seen = []
        out, count = map_blocks(BLOCKS, lambda lo, hi: (lo, hi), workers, on_block=seen.append)
        assert seen == out == BLOCKS
        assert count == 2
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus, count", [(2, 2), (1, 0)])
    def test_five_workers_capped_at_usable_cpus(self, cpu_set, started, cpus, count):
        cpu_set(cpus)
        out, ran_on = map_blocks(BLOCKS, lambda lo, hi: (lo, hi), 5)
        assert out == BLOCKS
        assert ran_on == max(count, 1)
        assert len(started) == count

    def test_cpu_count_where_there_is_no_cpu_set(self, monkeypatch, started):
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert map_blocks(BLOCKS, lambda lo, hi: lo, 5)[1] == 2
        assert len(started) == 2

    def test_serial_beside_other_threads(self):
        import threading

        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            assert pass_workers(BLOCKS, 2) == 1
        finally:
            stop.set()
            other.join(timeout=10)
        assert not other.is_alive()

    @pytest.mark.parametrize("exc", [ParameterError("bad block 7"), RuntimeError("bad block 7")],
                             ids=["ParameterError", "RuntimeError"])
    def test_block_error_reaches_the_caller(self, exc):
        seen = []
        with pytest.raises(type(exc), match="^bad block 7$") as info:
            map_blocks(BLOCKS, fail_at(70, exc), 2, on_block=seen.append)
        assert type(info.value) is type(exc)
        assert seen == [0, 10, 20, 30, 40, 50, 60]
        assert multiprocessing.active_children() == []

    def test_on_block_error_stops_the_workers(self):
        def on_block(result):
            if result == 30:
                raise RuntimeError("caller failed")

        with pytest.raises(RuntimeError, match="caller failed"):
            map_blocks(BLOCKS, lambda lo, hi: lo, 2, on_block=on_block)
        assert multiprocessing.active_children() == []

    def test_exception_that_does_not_unpickle(self):
        class Odd(Exception):
            def __init__(self, a, b):
                super().__init__(a)

        with pytest.raises(RuntimeError, match="^Odd: x$"):
            map_blocks(BLOCKS, fail_at(50, Odd("x", 2)), 2)
        assert multiprocessing.active_children() == []

    def test_worker_that_dies(self):
        import os

        def die(lo, hi):
            if lo == 50:
                os._exit(3)
            return lo

        with pytest.raises(RuntimeError, match="exited with code 3"):
            map_blocks(BLOCKS, die, 2)
        assert multiprocessing.active_children() == []


@pytest.mark.usefixtures("forked")
class TestSameBitsOnProcesses:
    def test_alpha(self):
        one = alpha_upper_bound(10**6, block_size=1 << 16)
        two = alpha_upper_bound(10**6, block_size=1 << 16, workers=2)
        assert (one.workers, two.workers) == (1, 2)
        assert one.to_json_dict() | {"elapsed_seconds": 0} == \
            two.to_json_dict() | {"elapsed_seconds": 0}

    def test_beta_resumes_on_processes(self, tmp_path, killed_at_block):
        one = beta_lower(4, 2 * 10**5, block_size=1 << 14).reports
        with killed_at_block(5, 1 << 14):
            beta_lower(4, 2 * 10**5, block_size=1 << 14, workers=2, checkpoint_dir=tmp_path)
        assert multiprocessing.active_children() == []
        (stored,) = tmp_path.iterdir()
        assert len(json.loads(stored.read_text())["blocks"]) == 5  # blocks 0-4, in order
        resumed = beta_lower(4, 2 * 10**5, block_size=1 << 14, workers=2,
                             checkpoint_dir=tmp_path)
        assert resumed.reports == one

    def test_lambda_pass(self):
        args = (3 * 10**5, 4, 2 * 10**5)
        one = lambda_bounds(*args, block_size=1 << 14)
        two = lambda_bounds(*args, block_size=1 << 14, workers=2)
        assert one[0].upper_bound == two[0].upper_bound == \
            alpha_upper_bound(args[0], block_size=1 << 14).upper_bound
        assert [r.to_json_dict() for r in one[1].reports] == \
            [r.to_json_dict() for r in two[1].reports]

    @pytest.mark.parametrize("mean_class", ["all", "even", "odd"])  # stride 1, parity 0, 1
    def test_means(self, mean_class):
        one = mean_report(mean_class, 10**5, block_size=1 << 13)
        two = mean_report(mean_class, 10**5, block_size=1 << 13, workers=2)
        assert two.workers == 2
        assert one.to_json_dict() == two.to_json_dict()

    def test_odd_signed_sums(self):
        one = odd_signed_sums([1, 2], 10**5, block_size=1 << 13)
        assert odd_signed_sums([1, 2], 10**5, block_size=1 << 13, workers=2) == one

    def test_beta_series(self):
        # Past SERIES_FROM = 2^20 blocks keep power sums; the block of
        # 3 * 2^14 integers that holds 2^20 keeps both kinds of parts.
        P = (1 << 20) + (1 << 17)
        one = beta_lower(32, P, block_size=3 << 14).reports
        assert beta_lower(32, P, block_size=3 << 14, workers=2).reports == one


class TestBasePrimes:
    """Every block cuts its base primes from one table, which each process
    builds at most once, on first use."""

    def test_prefix_of_the_table(self):
        assert primes.base_primes(10**6).tolist() == primes._dense_primes(1000).tolist()
        assert primes.base_primes(99).tolist() == [2, 3, 5, 7]
        assert primes.base_primes(3).size == 0
        assert primes.base_primes(10**10).tolist() == primes._dense_primes(10**5).tolist()
        assert primes.base_primes(10**10).size == 9592

    def test_past_the_range_end(self):
        with pytest.raises(ResourceError, match="10000000001"):
            primes.base_primes(10**10 + 1)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("run", [
        lambda w: alpha_upper_bound(10**6, block_size=1 << 14, workers=w),
        lambda w: beta_lower(2, 10**6, block_size=1 << 14, workers=w),
        lambda w: lambda_bounds(10**6, 2, 3 * 10**5, block_size=1 << 14, workers=w),
        lambda w: mean_report("even", 10**5, block_size=1 << 12, workers=w),
        lambda w: odd_signed_sums([2], 10**5, block_size=1 << 12, workers=w),
    ], ids=["alpha", "beta", "lambda", "means", "odd-sums"])
    def test_one_miss_per_pass(self, monkeypatch, forked, tmp_path, run, workers):
        # Each process that builds the table (the caller, or a forked
        # worker) appends its pid; none may build it twice.
        primes._base_table.cache_clear()
        sieve = primes._dense_primes

        def counted(n):
            with open(tmp_path / "builds", "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return sieve(n)

        monkeypatch.setattr(primes, "_dense_primes", counted)
        run(workers)
        builds = Counter((tmp_path / "builds").read_text().split())
        assert max(builds.values()) == 1
        assert (str(os.getpid()) in builds) == (workers == 1)


def test_serial_path_never_imports_multiprocessing(tmp_path):
    # Only a pass that forks loads multiprocessing: importing the CLI and
    # a serial run (two workers on a default lambda) leave it unloaded.
    import os
    import subprocess
    import sys
    from pathlib import Path

    import aliquot

    code = ("import sys\nfrom aliquot import cli\n"
            "assert cli.run(['lambda', '--workers', '2', '--out', 'out']) == 0\n"
            "print('multiprocessing' in sys.modules)")
    src = str(Path(aliquot.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"
