"""Shared test configuration.

Property tests run under a derandomized hypothesis profile: the examples
are a fixed function of each test, so tier-1 cannot flake on a new draw,
and no example database is written.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile(
        "nedmsim", derandomize=True, database=None, deadline=None, max_examples=25
    )
    settings.load_profile("nedmsim")
