"""Differential scheduler tests: fast FR-FCFS ≡ naive reference.

Sweeps seeds × scenarios × {1, 2, 4} channels (plus 2 ranks × 1
channel, the multi-rank every-bank scan path) through the
incremental :class:`FrFcfsPolicy` and the naive
:class:`ReferenceFrFcfsPolicy` and asserts full command-trace equality
— every DRAM command's (time, kind, rank, bank, row, col) on every
channel, warmup included — plus bit-identical ``SimResult`` rows and
energy (see ``tests/differential.py`` for the harness and for why
``events_processed`` alone is excluded).

The mechanism rotates with the scenario/seed (BlockHammer, the
unprotected baseline, Graphene, PARA, naive-throttle, blockhammer-os,
MRLoc, CBT, TWiCe) so proactive verdict caching, reactive victim
refreshes, the plain timing-only path, and the no-stability-declared
per-step re-query path are all differentially covered — every
mechanism in the registry participates in the time-advance contract.  The ``governed`` scenario additionally
runs an OS governor above the memory system (mechanism-coupled kill in
``blockhammer-os`` on even seeds, plus a system-level migrate/kill
governor): governor actions reshape the command stream mid-run
(deschedules, channel re-pins) and must preserve fast == reference
bit-identity, action log included.

The ``perf_smoke``-marked smoke is the seconds-fast subset wired into
``scripts/perf_smoke.sh`` (tier-1).
"""

from __future__ import annotations

import pytest

from differential import (
    SCENARIOS,
    assert_equivalent,
    run_pair,
    run_policy,
    scenario_mix,
)
from repro.mem.scheduler import FrFcfsPolicy, ReferenceFrFcfsPolicy


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("channels", [1, 2, 4])
def test_fast_policy_matches_reference(scenario, seed, channels):
    fast, ref = run_pair(scenario, seed, channels)
    assert_equivalent(fast, ref)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_fast_policy_matches_reference_two_ranks(scenario, seed):
    """Two ranks on one channel: the fast policy runs its every-bank
    ``_scan_select`` on every step (the single-rank closure does not
    apply), so this is that path's comparison with the reference.  The
    governed scenario's footprint reaches both ranks."""
    fast, ref = run_pair(scenario, seed, 1, ranks=2)
    if scenario == "governed":
        assert {command[2] for command in fast.commands[0]} == {0, 1}
    assert_equivalent(fast, ref)


def test_reactive_scenario_covers_twice():
    """The parametrized sweep's seeds {0, 1} reach mrloc and cbt in the
    ``reactive`` rotation; seed 2 pins TWiCe — with an assertion that
    the run actually exercised the victim-refresh path batching must
    preserve (the whole point of covering reactive mechanisms)."""
    fast, ref = run_pair("reactive", 2, 1)
    assert fast.result["mitigation"] == "twice"
    assert_equivalent(fast, ref)
    assert fast.result["victim_refreshes"] > 0


def test_commands_were_actually_captured():
    """Guard against the harness silently comparing empty traces."""
    fast, ref = run_pair("attack", 0, 2, instructions=1500, warmup_ns=1000.0)
    assert len(fast.commands) == 2
    assert all(len(cmds) > 100 for cmds in fast.commands)
    kinds = {cmd[1] for cmds in fast.commands for cmd in cmds}
    # A real attack run exercises the row-command vocabulary (the run is
    # shorter than a refresh interval, so no REF is expected).
    assert {"ACT", "PRE", "RD"} <= kinds


def test_scenarios_are_deterministic_workloads():
    """Same (scenario, seed) -> same mix; different seeds -> different
    apps (the sweep actually varies its inputs)."""
    assert scenario_mix("attack", 0) == scenario_mix("attack", 0)
    assert scenario_mix("benign", 0) != scenario_mix("benign", 1)
    assert scenario_mix("attack", 0).has_attack
    assert not scenario_mix("benign", 0).has_attack
    assert scenario_mix("governed", 0).has_attack


def test_governed_scenario_actually_acts():
    """The governed scenario is only real coverage if governor actions
    fire *inside* the differential runs: the system-level governor must
    log actions (identically under both policies — also asserted for
    every pair by ``assert_equivalent``).  Seed 0 covers channel
    migration above the mechanism-coupled ``blockhammer-os`` governor;
    seed 1 covers mid-run MLP-quota rescaling *and* a system-level
    deschedule (quota+kill)."""
    fast, ref = run_pair("governed", 0, 2)
    actions = fast.governor_actions
    assert actions is not None and actions["epochs"] > 0
    assert actions["migrations"], "migrate governor never fired"
    assert fast.governor_actions == ref.governor_actions
    # Even seed -> blockhammer-os: the mechanism-coupled deployment.
    assert fast.result["mitigation"] == "blockhammer-os"

    fast, ref = run_pair("governed", 1, 2)
    actions = fast.governor_actions
    assert actions["quota_updates"] > 0, "quota governor never fired"
    assert actions["kills"], "system-level kill never fired"
    assert fast.governor_actions == ref.governor_actions


@pytest.mark.perf_smoke
def test_differential_smoke_one_seed():
    """Fast differential smoke for scripts/perf_smoke.sh: one seed, one
    attack scenario, both policies, identical command streams and rows."""
    fast, ref = run_pair("attack", 0, 2, instructions=1500, warmup_ns=1000.0)
    assert_equivalent(fast, ref)
    assert fast.policy == FrFcfsPolicy.name
    assert ref.policy == ReferenceFrFcfsPolicy.name
