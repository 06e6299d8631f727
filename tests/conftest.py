"""Shared fixtures for the test suite.

The reference implementations (``transitive_closure``, ``same_generation``)
live in :mod:`tests.helpers` so test modules can import them with a normal
absolute import; they are re-exported here for backwards compatibility.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.device import Device

from tests import helpers
from tests.helpers import same_generation, transitive_closure  # noqa: F401

#: ``HYPOTHESIS_PROFILE=nightly`` (the nightly workflow) draws ten times the
#: default examples wherever a test does not fix its own count.
settings.register_profile("nightly", max_examples=10 * settings.get_profile("default").max_examples)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def device() -> Device:
    """A fresh simulated H100 with OOM enforcement disabled (most tests ignore memory)."""
    return Device("h100", oom_enabled=False)


@pytest.fixture
def cpu_device() -> Device:
    return Device("epyc-7543p", oom_enabled=False)


@pytest.fixture
def paper_edges() -> np.ndarray:
    return helpers.paper_edges()


@pytest.fixture
def random_dag_edges() -> np.ndarray:
    return helpers.random_dag_edges()
