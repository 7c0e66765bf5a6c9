"""Test-suite settings: every hypothesis test draws the same examples on each run.

``derandomize`` seeds each test's examples from the test itself, and no
example database is read or written, so a run neither replays nor depends
on earlier runs.  ``max_examples`` is the default that a test's own
``@settings`` may raise; ``deadline`` bounds one example's time.
"""

from datetime import timedelta

from hypothesis import settings

settings.register_profile(
    "deterministic",
    derandomize=True,
    database=None,
    max_examples=100,
    deadline=timedelta(seconds=2),
)
settings.load_profile("deterministic")
