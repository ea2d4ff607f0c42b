"""Hypothesis settings for the whole suite.

The host's speed moves by up to a quarter from one stretch of seconds to
the next, so a per-example deadline would fail property tests at random;
derandomized runs draw the same examples every time, so a failure repeats.
"""
from hypothesis import settings

settings.register_profile("suite", deadline=None, derandomize=True)
settings.load_profile("suite")
