"""Every oracle must catch its deliberately corrupted artifact.

An oracle that only ever passes proves nothing: these tests corrupt a
known-good scenario run — a mutated sync_wait, a duplicated rank in the
partition, a non-bijective placement — and assert the responsible oracle
fails loudly, while the pristine run passes everything.

Corruption bypasses constructor validation on purpose (frozen dataclasses
are edited via ``object.__setattr__``): the oracles exist to re-check
invariants *independently*, not to trust ``__post_init__``.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest

from repro.runtime.halo import HaloBatch
from repro.runtime.process_grid import GridRect
from repro.verify import Scenario, all_oracles, get_oracle, run_oracles
from repro.verify import oracles as oracle_mod
from repro.verify.oracles import OracleViolation, oracle


@pytest.fixture(scope="module")
def good_run():
    """A small, fully-built scenario that satisfies every invariant."""
    return Scenario(
        machine="bgl",
        ranks=64,
        num_siblings=2,
        parent_nx=220,
        parent_ny=200,
        sibling_seed=5,
        mapping="partition",
        io="pnetcdf",
    ).build()


def corrupt(run, **overrides):
    """A shallow copy of *run* with attributes force-overwritten."""
    clone = copy.copy(run)
    for key, value in overrides.items():
        object.__setattr__(clone, key, value)
    return clone


def test_registry_has_the_documented_oracles():
    names = set(all_oracles())
    assert {
        "rank-conservation",
        "timeline-consistency",
        "monotone-scaling",
        "mapping-bijectivity",
        "strategy-bounds",
        "netsim-parity",
        "netsim-streaming-parity",
        "report-sanity",
    } <= names
    assert len(names) >= 6


def test_good_scenario_passes_every_oracle(good_run):
    assert run_oracles(good_run) == []


def test_unknown_oracle_name_rejected(good_run):
    with pytest.raises(KeyError, match="unknown oracle"):
        run_oracles(good_run, ["no-such-oracle"])


# ---------------------------------------------------------- sync_wait
def test_mutated_sync_wait_caught(good_run):
    """A sibling's sync_wait no longer closes the gap to the nest phase."""
    sib = good_run.par_report.siblings[0]
    bad_sib = dataclasses.replace(sib, sync_wait=sib.sync_wait + 0.05)
    bad_report = dataclasses.replace(
        good_run.par_report,
        siblings=(bad_sib,) + good_run.par_report.siblings[1:],
    )
    bad = corrupt(good_run, par_report=bad_report)
    with pytest.raises(OracleViolation, match="sync_wait"):
        get_oracle("timeline-consistency")(bad)


def test_sequential_sync_wait_must_be_zero(good_run):
    sib = good_run.seq_report.siblings[0]
    bad_sib = dataclasses.replace(sib, sync_wait=0.01)
    bad_report = dataclasses.replace(
        good_run.seq_report,
        siblings=(bad_sib,) + good_run.seq_report.siblings[1:],
    )
    bad = corrupt(good_run, seq_report=bad_report)
    failures = run_oracles(bad, ["timeline-consistency", "strategy-bounds"])
    assert failures, "no oracle noticed a sequential sync wait"


# --------------------------------------------------- duplicated rank
def test_duplicated_rank_in_partition_caught(good_run):
    """Two siblings claim the same grid positions: rank conservation."""
    plan = copy.copy(good_run.par_plan)
    first = plan.assignments[0]
    # Clone sibling 1's assignment onto sibling 0's rectangle.
    dup = dataclasses.replace(plan.assignments[1], rect=first.rect)
    object.__setattr__(plan, "assignments", (first, dup) + plan.assignments[2:])
    bad = corrupt(good_run, par_plan=plan)
    with pytest.raises(OracleViolation, match="duplicated rank"):
        get_oracle("rank-conservation")(bad)


def test_oversized_partition_caught(good_run):
    """A rectangle hanging off the grid edge is flagged."""
    plan = copy.copy(good_run.par_plan)
    first = plan.assignments[0]
    huge = dataclasses.replace(
        first, rect=GridRect(0, 0, good_run.grid.px + 2, good_run.grid.py)
    )
    object.__setattr__(plan, "assignments", (huge,) + plan.assignments[1:])
    bad = corrupt(good_run, par_plan=plan)
    failures = run_oracles(bad, ["rank-conservation"])
    assert failures


def test_sequential_partial_grid_caught(good_run):
    """A sequential sibling not on the full grid breaks the strategy's shape."""
    plan = copy.copy(good_run.seq_plan)
    first = plan.assignments[0]
    small = dataclasses.replace(first, rect=GridRect(0, 0, 2, 2))
    object.__setattr__(plan, "assignments", (small,) + plan.assignments[1:])
    bad = corrupt(good_run, seq_plan=plan)
    with pytest.raises(OracleViolation, match="full grid"):
        get_oracle("rank-conservation")(bad)


# ---------------------------------------------- non-bijective mapping
def test_non_bijective_mapping_caught(good_run):
    """Two ranks squeezed onto one slot: the placement is no bijection."""
    placement = copy.copy(good_run.placement)
    slots = placement.slots.copy()
    slots[1] = slots[0]
    object.__setattr__(placement, "slots", slots)
    bad = corrupt(good_run, placement=placement)
    with pytest.raises(OracleViolation, match="not injective"):
        get_oracle("mapping-bijectivity")(bad)


def test_out_of_torus_slot_caught(good_run):
    placement = copy.copy(good_run.placement)
    slots = placement.slots.copy()
    slots[0] = (10_000, 0, 0)
    object.__setattr__(placement, "slots", slots)
    bad = corrupt(good_run, placement=placement)
    with pytest.raises(OracleViolation, match="out-of-box"):
        get_oracle("mapping-bijectivity")(bad)


# ---------------------------------------------------- network parity
def test_one_message_halo_divergence_caught(good_run, monkeypatch):
    """Production halo construction drops one message: the whole-path
    comparison against the reference builder notices."""
    real = oracle_mod.halo_batch

    def one_message_short(*args):
        b = real(*args)
        return HaloBatch(src=b.src[:-1], dst=b.dst[:-1], nbytes=b.nbytes[:-1])

    monkeypatch.setattr(oracle_mod, "halo_batch", one_message_short)
    with pytest.raises(OracleViolation, match="disagree on traffic metrics"):
        get_oracle("netsim-parity")(good_run)


def test_cached_estimate_divergence_caught(good_run, monkeypatch):
    """The route cache holds a different round time than the reference."""
    real = oracle_mod.VECTOR.route_exchange

    def slower(*args):
        routed, loads, (est,) = real(*args)
        return routed, loads, (dataclasses.replace(est, time=est.time * 2),)

    monkeypatch.setattr(oracle_mod.VECTOR, "route_exchange", slower)
    with pytest.raises(OracleViolation, match="route cache and reference"):
        get_oracle("netsim-parity")(good_run)


def test_one_byte_streaming_divergence_caught(good_run, monkeypatch):
    """The streamed path routes one extra byte on one inter-node message."""
    real = oracle_mod.route_batch
    nodes = good_run.placement.vector.coords

    def one_byte_more(torus, placed, batch, **kwargs):
        if kwargs.get("max_expand_hops") is None:  # the one-shot side
            return real(torus, placed, batch, **kwargs)
        crosses = (nodes[batch.src] != nodes[batch.dst]).any(axis=1)
        nbytes = batch.nbytes.copy()
        nbytes[np.flatnonzero(crosses)[0]] += 1
        bumped = HaloBatch(src=batch.src, dst=batch.dst, nbytes=nbytes)
        return real(torus, placed, bumped, **kwargs)

    monkeypatch.setattr(oracle_mod, "route_batch", one_byte_more)
    with pytest.raises(OracleViolation, match="streamed link loads differ"):
        get_oracle("netsim-streaming-parity")(good_run)


# ------------------------------------------------------ report fields
def test_negative_io_time_caught(good_run):
    bad_report = dataclasses.replace(good_run.par_report, io_time=-0.5)
    bad = corrupt(good_run, par_report=bad_report)
    with pytest.raises(OracleViolation, match="io_time"):
        get_oracle("report-sanity")(bad)


def test_sibling_rank_mismatch_caught(good_run):
    sib = good_run.par_report.siblings[0]
    bad_sib = dataclasses.replace(sib, ranks=sib.ranks + 3)
    bad_report = dataclasses.replace(
        good_run.par_report,
        siblings=(bad_sib,) + good_run.par_report.siblings[1:],
    )
    bad = corrupt(good_run, par_report=bad_report)
    with pytest.raises(OracleViolation, match="ranks"):
        get_oracle("rank-conservation")(bad)


def test_inflated_nest_phase_caught(good_run):
    """nest_phase != max(sibling phases) breaks the Sec 3.2 structure."""
    bad_report = dataclasses.replace(
        good_run.par_report,
        nest_phase_time=good_run.par_report.nest_phase_time * 2.0,
    )
    bad = corrupt(good_run, par_report=bad_report)
    with pytest.raises(OracleViolation, match="max of sibling phases"):
        get_oracle("strategy-bounds")(bad)


# ----------------------------------------------------- crash handling
def test_oracle_crash_reported_as_failure(good_run):
    @oracle("temp-crasher")
    def crasher(run):
        raise RuntimeError("boom")

    try:
        failures = run_oracles(good_run, ["temp-crasher"])
        assert len(failures) == 1
        assert failures[0].oracle == "temp-crasher"
        assert "crashed" in failures[0].message
        assert failures[0].scenario == good_run.scenario.params()
    finally:
        from repro.verify import oracles as oracle_mod

        del oracle_mod._REGISTRY["temp-crasher"]


def test_duplicate_registration_rejected():
    with pytest.raises(ValueError, match="registered twice"):
        oracle("rank-conservation")(lambda run: None)
