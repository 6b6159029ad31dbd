"""Shared test settings.

Property tests run under a derandomised Hypothesis profile: the same
examples on every run, a bounded number of them, no per-example deadline
(exact arithmetic at N = 8 can take tens of milliseconds) and no example
database written next to the sources.

Every test starts without a memoised cell (`identities.get_cell` keeps the
last one), so a test that counts builds does not depend on which test ran
before it.
"""

import pytest
from hypothesis import settings

from krallzeros import identities

settings.register_profile("krallzeros", derandomize=True, max_examples=30, deadline=None, database=None)
settings.load_profile("krallzeros")


@pytest.fixture(autouse=True)
def fresh_cell_memo():
    identities._last_cell.cache_clear()
