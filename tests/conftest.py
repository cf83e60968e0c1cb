"""Settings shared by every test module."""

from hypothesis import settings

# Every hypothesis test draws the same examples on every run and keeps no
# example database, so a failing run reproduces as it is.  Each test's own
# @settings (max_examples, deadline) are taken on top of this profile.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
