"""Hypothesis profiles: ``ci`` derandomizes the search and drops the
deadline, so a CI failure reproduces exactly; select it with
HYPOTHESIS_PROFILE=ci.  Local runs keep hypothesis' default profile.

The ``killed_at_block`` fixture stops the prime pass (alpha's, beta's or
lambda's) the way a kill would, for the checkpoint and resume tests."""

import contextlib
import os

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
