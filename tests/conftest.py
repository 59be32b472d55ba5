"""Fixtures shared by every test module."""

import pytest

from abflux import geometry


@pytest.fixture(autouse=True)
def cold_memos():
    """Start every test with an empty whole-turn memo and no memoized
    circulation, so that no panel count depends on the tests that ran
    before it."""
    geometry._whole_turn.cache_clear()
    geometry._last_circulation = None
