"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import settings

from repro.rows.schema import single_key_schema
from repro.rows.sortspec import SortSpec
from repro.storage.spill import SpillManager

#: ``pytest --hypothesis-profile=ci``: property tests that leave
#: ``max_examples`` to the profile (the batch key encoder's, the cutoff
#: filter's batch update and the page codec's reference encoder among
#: them) run ten times the default examples, with no deadline.
settings.register_profile("ci", max_examples=1_000, deadline=None)


@pytest.fixture
def key_schema():
    """A single float ``key`` column."""
    return single_key_schema()


@pytest.fixture
def key_spec(key_schema):
    """Ascending sort on the ``key`` column."""
    return SortSpec(key_schema, ["key"])


@pytest.fixture
def spill():
    """A fresh in-memory spill manager, closed after the test."""
    manager = SpillManager()
    yield manager
    manager.close()


@pytest.fixture
def rng():
    """Seeded RNG for reproducible random inputs."""
    return random.Random(0xC0FFEE)


def make_rows(rng: random.Random, count: int) -> list[tuple]:
    """``count`` single-column rows with uniform float keys."""
    return [(rng.random(),) for _ in range(count)]


@pytest.fixture
def uniform_rows(rng):
    """10,000 uniform keys-only rows."""
    return make_rows(rng, 10_000)
