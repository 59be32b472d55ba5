"""Fixtures shared by every test module."""

import pytest

from abflux import geometry


@pytest.fixture(autouse=True)
def cold_memos():
    """Start every test with no memoized split disc and no memoized
    circulation, so that no panel count depends on the tests that ran
    before it."""
    geometry._last_split_disc = None
    geometry._last_circulation = None
