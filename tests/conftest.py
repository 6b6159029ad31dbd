"""Shared test settings.

Property tests run under a derandomised Hypothesis profile: the same
examples on every run, a bounded number of them, no per-example deadline
(exact arithmetic at N = 8 can take tens of milliseconds) and no example
database written next to the sources.

Every test starts without a memoised cell, family or zero set
(`identities.get_cell`, `families.family_record` and `rootfinding.zeros`
each keep the last one), so a test that counts builds does not depend on
which test ran before it.
"""

import pytest
from hypothesis import settings

from krallzeros import families, identities, rootfinding

settings.register_profile("krallzeros", derandomize=True, max_examples=30, deadline=None, database=None)
settings.load_profile("krallzeros")


@pytest.fixture(autouse=True)
def fresh_memos():
    identities.get_cell.cache_clear()
    families.family_record.cache_clear()
    rootfinding.zeros.cache_clear()
