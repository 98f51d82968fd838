"""The block engine's process path and the passes that run on it.

Passes under numerics.SERIAL_INTEGERS integers run serially, so each test
here sets that threshold to 0 (the ``forked`` fixture): test sizes then
fork their worker processes as a full-scale run does.
"""

import json
import multiprocessing

import pytest

from aliquot import numerics, primes
from aliquot.alpha import alpha_upper_bound
from aliquot.beta import euler_log_sums, odd_signed_sums
from aliquot.cli import lambda_bounds
from aliquot.errors import ParameterError
from aliquot.means import mean_report
from aliquot.numerics import aligned_blocks, block_engine, map_blocks

BLOCKS = aligned_blocks(0, 99, 10)


@pytest.fixture
def forked(monkeypatch):
    monkeypatch.setattr(numerics, "SERIAL_INTEGERS", 0)
    assert block_engine(BLOCKS, 2) == "processes"


def fail_at(lo, exc):
    def eval_block(b_lo, b_hi):
        if b_lo == lo:
            raise exc
        return b_lo

    return eval_block


class TestSerialRule:
    def test_small_passes_stay_serial(self):
        assert block_engine(BLOCKS, 2) == "serial"  # 100 integers
        big = aligned_blocks(0, (1 << 23) - 1, 1 << 20)
        assert block_engine(big, 2) == "processes"
        assert block_engine(big, 1) == "serial"
        assert block_engine(big[:1], 2) == "serial"
        assert block_engine(aligned_blocks(0, (1 << 23) - 2, 1 << 20), 2) == "serial"

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one(self, workers):
        with pytest.raises(ParameterError, match="workers"):
            block_engine(BLOCKS, workers)


@pytest.mark.usefixtures("forked")
class TestProcessPath:
    @pytest.mark.parametrize("workers", [2, 5])  # 5: more workers than this host's cores
    def test_results_in_block_order_and_no_child_left(self, workers):
        seen = []
        out, engine = map_blocks(BLOCKS, lambda lo, hi: (lo, hi), workers, on_block=seen.append)
        assert seen == out == BLOCKS
        assert engine == "processes"
        assert multiprocessing.active_children() == []

    def test_serial_beside_other_threads(self):
        import threading

        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            assert block_engine(BLOCKS, 2) == "serial"
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
        assert (one.engine, two.engine) == ("serial", "processes")
        assert one.to_json_dict() | {"elapsed_seconds": 0} == \
            two.to_json_dict() | {"elapsed_seconds": 0}

    def test_beta_resumes_on_processes(self, tmp_path, killed_at_block):
        one = euler_log_sums(4, 2 * 10**5, block_size=1 << 14)
        with killed_at_block(5, 1 << 14):
            euler_log_sums(4, 2 * 10**5, block_size=1 << 14, workers=2, checkpoint_dir=tmp_path)
        assert multiprocessing.active_children() == []
        (stored,) = tmp_path.iterdir()
        assert len(json.loads(stored.read_text())["blocks"]) == 5  # blocks 0-4, in order
        resumed = euler_log_sums(4, 2 * 10**5, block_size=1 << 14, workers=2,
                                 checkpoint_dir=tmp_path)
        assert resumed == one

    def test_lambda_pass(self):
        args = (3 * 10**5, 4, 2 * 10**5)
        one = lambda_bounds(*args, block_size=1 << 14)
        two = lambda_bounds(*args, block_size=1 << 14, workers=2)
        assert one[0].upper_bound == two[0].upper_bound == \
            alpha_upper_bound(args[0], block_size=1 << 14).upper_bound
        assert [r.to_json_dict() for r in one[1].reports] == \
            [r.to_json_dict() for r in two[1].reports]

    def test_means(self):
        one = mean_report("even", 10**5, block_size=1 << 13)
        two = mean_report("even", 10**5, block_size=1 << 13, workers=2)
        assert two.engine == "processes"
        assert one.to_json_dict() == two.to_json_dict()

    def test_odd_signed_sums(self):
        one = odd_signed_sums([1, 2], 10**5, block_size=1 << 13)
        assert odd_signed_sums([1, 2], 10**5, block_size=1 << 13, workers=2) == one


class TestBasePrimes:
    """Every block of a pass cuts its base primes from one cached sieve."""

    def test_prefix_of_the_largest_sieve(self, monkeypatch):
        monkeypatch.setattr(primes, "_base", (1, primes._dense_primes(1)))
        assert primes.base_primes(10**6).tolist() == primes._dense_primes(1000).tolist()
        assert primes.base_primes(99).tolist() == [2, 3, 5, 7]
        assert primes.base_primes(3).size == 0
        assert primes._base[0] == 1000

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("run", [
        lambda w: alpha_upper_bound(10**6, block_size=1 << 14, workers=w),
        lambda w: euler_log_sums(2, 10**6, block_size=1 << 14, workers=w),
        lambda w: lambda_bounds(10**6, 2, 3 * 10**5, block_size=1 << 14, workers=w),
        lambda w: mean_report("even", 10**5, block_size=1 << 12, workers=w),
        lambda w: odd_signed_sums([2], 10**5, block_size=1 << 12, workers=w),
    ], ids=["alpha", "beta", "lambda", "means", "odd-sums"])
    def test_one_miss_per_pass(self, monkeypatch, run, workers):
        monkeypatch.setattr(numerics, "SERIAL_INTEGERS", 0)
        monkeypatch.setattr(primes, "_base", (1, primes._dense_primes(1)))
        limits = []
        sieve = primes._dense_primes
        monkeypatch.setattr(primes, "_dense_primes", lambda n: limits.append(n) or sieve(n))
        run(workers)
        assert len(limits) == 1


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
