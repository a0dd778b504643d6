"""Shared fixtures for the planning-service test suite."""

from __future__ import annotations

import pytest

from repro.exec.cache import clear_caches


def _reset_shared_state() -> None:
    clear_caches()


@pytest.fixture
def fresh_caches():
    """Zeroed shared caches, zeroed again afterwards."""
    _reset_shared_state()
    yield
    _reset_shared_state()


@pytest.fixture
def server(fresh_caches):
    """A running planning server on an ephemeral loopback port."""
    from repro.service import PlanningServer

    with PlanningServer() as srv:
        yield srv


@pytest.fixture
def client(server):
    """A client bound to the running ``server`` fixture."""
    from repro.service import ServiceClient

    return ServiceClient(server.url)
