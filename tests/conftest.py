"""Shared catalog fixtures; enumeration runs once per session."""

from pathlib import Path

import pytest
from hypothesis import settings

from wfano import EnumerationQuery, enumerate_systems

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"

# the same examples on every run: a property cannot fail on a newly drawn one
settings.register_profile("wfano", derandomize=True, deadline=None)
settings.load_profile("wfano")


@pytest.fixture(scope="session")
def surface_catalog():
    return enumerate_systems(EnumerationQuery(num_weights=4, index=1))


@pytest.fixture(scope="session")
def threefold_catalog():
    return enumerate_systems(EnumerationQuery(num_weights=5, index=1))


@pytest.fixture(scope="session")
def fourfold_catalog():
    return enumerate_systems(EnumerationQuery(num_weights=6, index=1))
