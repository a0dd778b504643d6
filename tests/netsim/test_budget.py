"""The budget module: env parsing and derived limits."""

import pytest

from repro.errors import ConfigurationError
from repro.netsim.budget import (
    DEFAULT_MEM_MB,
    EXPANSION_BYTES_PER_HOP,
    expansion_hop_limit,
    mem_budget_bytes,
    placement_cache_budget_bytes,
    route_cache_budget_bytes,
)


def test_default_budget(monkeypatch):
    monkeypatch.delenv("REPRO_NETSIM_MEM_MB", raising=False)
    assert mem_budget_bytes() == int(DEFAULT_MEM_MB * 2**20)


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_NETSIM_MEM_MB", "64")
    assert mem_budget_bytes() == 64 * 2**20


@pytest.mark.parametrize("raw", ["garbage", "-1", "0", "nan"])
def test_budget_rejects_junk(monkeypatch, raw):
    monkeypatch.setenv("REPRO_NETSIM_MEM_MB", raw)
    with pytest.raises(ConfigurationError):
        mem_budget_bytes()


def test_hop_limit_scales_with_budget():
    small = expansion_hop_limit(2**20)
    large = expansion_hop_limit(2**30)
    assert small < large
    assert large == (2**30 // 2) // EXPANSION_BYTES_PER_HOP


def test_hop_limit_floor():
    # Tiny budgets never chunk below the vectorization floor.
    assert expansion_hop_limit(1) >= 1024


def test_cache_budgets_derive_from_total(monkeypatch):
    monkeypatch.delenv("REPRO_NETSIM_ROUTE_CACHE_MB", raising=False)
    monkeypatch.setenv("REPRO_NETSIM_MEM_MB", "128")
    assert route_cache_budget_bytes() == 32 * 2**20
    assert placement_cache_budget_bytes() == 16 * 2**20


def test_cache_budget_overrides(monkeypatch):
    monkeypatch.setenv("REPRO_NETSIM_MEM_MB", "128")
    monkeypatch.setenv("REPRO_NETSIM_ROUTE_CACHE_MB", "7")
    assert route_cache_budget_bytes() == 7 * 2**20
    # Only the route cache has an override; the placement cache keeps
    # its eighth of the overall budget.
    assert placement_cache_budget_bytes() == 16 * 2**20
