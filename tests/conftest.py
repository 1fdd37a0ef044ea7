"""Test-suite settings shared by every module under ``tests/``."""

from hypothesis import settings

# Property tests draw the same examples on every run and keep no example
# database, so a failure reproduces exactly and no run writes .hypothesis/.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
