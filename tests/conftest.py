"""Hypothesis profiles: ``ci`` derandomizes the search and drops the
deadline, so a CI failure reproduces exactly; select it with
HYPOTHESIS_PROFILE=ci.  Local runs keep hypothesis' default profile.

The ``killed_at_block`` fixture stops the prime pass (alpha's, beta's or
lambda's) the way a kill would, for the checkpoint and resume tests.
``cpu_set`` sets the CPUs the process may use, and ``forked`` makes
passes of any size fork their workers; test_engine's
TestSameBitsOnProcesses is the one home of process-path bit identity.
``selftest_results`` runs ``alq selftest``'s suite once per session, for
acceptance 7 and the README's ``alq selftest`` line."""

import contextlib
import os
import time

import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def killed_at_block():
    """``with killed_at_block(k, block_size): run()`` runs the prime pass
    (primes.prime_pass) with beta's checkpoint flushed after every block
    and kills it as block k's sieve starts: a serial checkpointed run
    saves blocks 0..k-1 and dies, and the with asserts that it died."""
    from aliquot import beta, primes

    sieve = primes.iter_prime_segments

    @contextlib.contextmanager
    def killed(block, block_size=1 << 20):
        def sieve_until_killed(lo, hi, **kwargs):
            if lo // block_size == block:
                raise RuntimeError(f"killed at block {block}")
            return sieve(lo, hi, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(beta, "_FLUSH_INTEGERS", block_size)
            mp.setattr(primes, "iter_prime_segments", sieve_until_killed)
            with pytest.raises(RuntimeError, match=f"killed at block {block}$"):
                yield

    return killed


@pytest.fixture
def cpu_set(monkeypatch):
    """``cpu_set(n)`` makes the process's CPU set n CPUs."""
    return lambda n: monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _fork_every_pass(mp):
    from aliquot import numerics

    mp.setattr(numerics, "SERIAL_INTEGERS", 0)
    mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert numerics.pass_workers(numerics.aligned_blocks(0, 99, 10), 2) == 2


@pytest.fixture
def forked(monkeypatch):
    """Passes under numerics.SERIAL_INTEGERS integers run serially; this sets
    that threshold to 0 and gives the process two usable CPUs, so test
    sizes fork their worker processes as a full-scale run does, on any host."""
    _fork_every_pass(monkeypatch)


@pytest.fixture(scope="session")
def selftest_results():
    """selftest.checks() as a list of (name, ok, detail), run once per
    session under ``forked``'s settings, and the seconds it took."""
    from aliquot.selftest import checks

    with pytest.MonkeyPatch.context() as mp:
        _fork_every_pass(mp)
        t0 = time.time()
        results = list(checks())
    return results, time.time() - t0
