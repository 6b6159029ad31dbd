"""Shared test settings.

Property tests run under a derandomised Hypothesis profile: the same
examples on every run, a bounded number of them, no per-example deadline
(exact arithmetic at N = 8 can take tens of milliseconds) and no example
database written next to the sources.
"""

from hypothesis import settings

settings.register_profile("krallzeros", derandomize=True, max_examples=30, deadline=None, database=None)
settings.load_profile("krallzeros")
