"""Test-wide settings.

`HYPOTHESIS_PROFILE=ci` runs every property test with derandomized examples
and no deadline, so a CI run draws the same cases each time and cannot
flake; without it Hypothesis keeps its default, randomized profile.
"""

import os

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without Hypothesis
    pass
else:
    settings.register_profile("ci", derandomize=True, deadline=None)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE") or "default")
