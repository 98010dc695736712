"""Fixtures shared by every test module."""

import pytest

from shallowcal import reference


@pytest.fixture(autouse=True)
def cold_monte_carlo_sample():
    """Each test starts with no held Monte Carlo sample and no held count,
    so none left by an earlier test can make a later one pass."""
    reference._held_sample.clear()
