"""Hypothesis profiles: ``ci`` derandomizes the search and drops the
deadline, so a CI failure reproduces exactly; select it with
HYPOTHESIS_PROFILE=ci.  Local runs keep hypothesis' default profile."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
