"""Differential testing harness: fast FR-FCFS vs the naive reference.

The incremental :class:`~repro.mem.scheduler.FrFcfsPolicy` caches
per-bank decisions across scheduling steps; a bug in its dirty-bank or
verdict-expiry protocol would silently warp every result this
repository produces.  This harness is the standing guard: it runs the
*same* workload twice — once under the fast policy, once under
:class:`~repro.mem.scheduler.ReferenceFrFcfsPolicy`, a deliberately
naive reimplementation with no cross-step state — and asserts that the
two simulations are indistinguishable:

* **bit-identical command streams** per channel: every DRAM command's
  (time, kind, rank, bank, row, col), in issue order, warmup included;
* **bit-identical results**: every field of :class:`SimResult` (thread
  IPCs, latency sums, command counts, refresh/victim-refresh counts,
  bit-flips, per-channel rows) and the derived energy breakdown.

``events_processed`` is the one field excluded from the comparison: it
counts event-loop iterations, and the two policies legitimately report
different *wake* times for the same schedule (the reference recomputes a
candidate's full issue time where the fast path may wake earlier on a
partial bound, select nothing, and sleep again).  Wake cadence is loop
mechanics, not memory-system behaviour — commands and results above pin
everything physical.

Scenarios are deterministic functions of (scenario, seed): ``benign``
is three Table 8 applications, ``attack`` is one double-sided hammer
plus one benign victim, ``mixed`` is one hammer plus three benign
threads, and ``governed`` is an attack mix running under an OS
governor (``blockhammer-os``'s mechanism-coupled kill governor on even
seeds, a system-level kill governor on odd seeds, plus a system-level
migrate/kill governor above both) — governor actions (deschedules,
channel re-pins) reshape the command stream mid-run and must do so
identically under both scheduler policies.  ``reactive`` rotates the
victim-refresh mechanisms MRLoc, CBT, and TWiCe (seed % 3) against an
attack mix, covering every registered mechanism in the time-advance
contract.  Seeds vary both the application selection and every RNG
stream in the simulation.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, replace

from repro.dram.spec import DDR4_2400
from repro.harness.runner import HarnessConfig, Runner
from repro.mem.scheduler import FrFcfsPolicy, ReferenceFrFcfsPolicy, SchedulingPolicy
from repro.os.spec import GovernorSpec
from repro.workloads.mixes import WorkloadMix, attack_mixes, benign_mixes

SCENARIOS = ("benign", "attack", "mixed", "governed", "reactive")

#: Mechanism exercised per scenario, rotated by seed so the sweep covers
#: proactive throttling (blockhammer — the mechanism whose verdicts the
#: scheduler caches), the unprotected baseline, reactive refreshers
#: (victim-refresh / PRE interleaving in the controller step), a
#: blocker that declares *no* verdict stability (naive-throttle,
#: ``act_block_stable = -inf``) — the scheduler's uncacheable per-step
#: re-examination path — and the governor-carrying ``blockhammer-os``.
#: The ``reactive`` scenario rotates the remaining registered
#: mechanisms (MRLoc, CBT, TWiCe): all three queue victim refreshes
#: through the controller's time-advance contract and must stay
#: bit-identical under quiescence-horizon batching.
_MECHANISMS = {
    "benign": ("blockhammer", "none"),
    "attack": ("blockhammer", "naive-throttle"),
    "mixed": ("graphene", "para"),
    "governed": ("blockhammer-os", "blockhammer"),
    "reactive": ("mrloc", "cbt", "twice"),
}

#: System-level governor per scenario (None = ungoverned), rotated by
#: seed: migrate exercises mid-run channel re-pinning; quota+kill
#: exercises mid-run MLP-quota rescaling (changed injection pacing
#: with no kill or re-pin — its own scheduler-perturbation class)
#: followed by descheduling.  Thresholds are any-RHLI (benign threads
#: sit at exactly 0), so actions fire within the short runs.
_GOVERNORS: dict[str, tuple[GovernorSpec | None, GovernorSpec | None]] = {
    "governed": (
        GovernorSpec(
            policy="migrate", epoch_ns=10_000.0, threshold=0.01, patience_epochs=1
        ),
        GovernorSpec(
            policy="quota+kill", epoch_ns=10_000.0, threshold=0.01, patience_epochs=2
        ),
    ),
}

#: Mechanism construction overrides per scenario (worker-side kwargs):
#: the governed scenario runs at scale 512 where ``blockhammer-os``'s
#: default review interval (half a CBF lifetime) exceeds the whole run,
#: so its embedded governor polls every 10 us like the system one.
_MECHANISM_KWARGS = {
    "governed": {
        "blockhammer-os": {"review_interval_ns": 10_000.0, "kill_rhli": 0.02},
    },
}

#: Per-scenario run-shape overrides.  The governed scenario needs the
#: attacker blacklisted *within* the run for governor actions to fire:
#: at scale 512 that happens inside a 30 us warmup (reviews keep
#: running during warmup, as a real OS would keep polling).
_SCENARIO_KWARGS = {
    "governed": {"scale": 512.0, "instructions": 2000, "warmup_ns": 30_000.0},
    # Reactive mechanisms must actually *fire* victim refreshes inside
    # the short differential runs (that is the path batching must not
    # reorder); at scale 1024 all three rotation members do.
    "reactive": {"scale": 1024.0},
}


def scenario_mix(scenario: str, seed: int) -> WorkloadMix:
    """The deterministic workload for (scenario, seed)."""
    if scenario == "benign":
        return benign_mixes(1, threads=3, master_seed=2021 + seed)[0]
    if scenario == "attack":
        return attack_mixes(1, threads=2, master_seed=2021 + seed)[0]
    if scenario == "mixed":
        return attack_mixes(1, threads=4, master_seed=7000 + seed)[0]
    if scenario == "governed":
        return attack_mixes(1, threads=3, master_seed=5000 + seed)[0]
    if scenario == "reactive":
        return attack_mixes(1, threads=2, master_seed=9000 + seed)[0]
    raise ValueError(f"unknown scenario {scenario!r}")


def scenario_mechanism(scenario: str, seed: int) -> str:
    options = _MECHANISMS[scenario]
    return options[seed % len(options)]


def scenario_governor(scenario: str, seed: int) -> GovernorSpec | None:
    """The system-level governor for (scenario, seed), if any."""
    governors = _GOVERNORS.get(scenario)
    return governors[seed % 2] if governors else None


@dataclass
class DifferentialRun:
    """One policy's observable behaviour for a scenario."""

    policy: str
    #: Per-channel command streams: (time, kind, rank, bank, row, col).
    commands: tuple[list, ...]
    #: Full SimResult as a dict, ``events_processed`` removed (see the
    #: module docstring for why that one field is loop mechanics).
    result: dict
    energy: dict
    #: The system-level governor's action record (None = ungoverned):
    #: kill/migration logs carry exact timestamps, so this pins the
    #: governor's behaviour bit-for-bit across policies.
    governor_actions: dict | None = None


def run_policy(
    scenario: str,
    seed: int,
    channels: int,
    policy: SchedulingPolicy,
    instructions: int = 2500,
    warmup_ns: float = 2000.0,
    scale: float = 128.0,
    ranks: int = 1,
) -> DifferentialRun:
    """Simulate (scenario, seed, channels) under ``policy`` on a
    ``ranks``-rank device (more than one rank routes the fast policy
    through its every-bank ``_scan_select`` permanently)."""
    hcfg = HarnessConfig(
        base_spec=replace(DDR4_2400, ranks=ranks),
        scale=scale,
        instructions_per_thread=instructions,
        warmup_ns=warmup_ns,
        num_channels=channels,
        seed=1 + seed,
    )
    runner = Runner(hcfg, policy=policy, capture_commands=True)
    mechanism = scenario_mechanism(scenario, seed)
    outcome = runner.run_mix(
        scenario_mix(scenario, seed),
        mechanism,
        governor=scenario_governor(scenario, seed),
        **_MECHANISM_KWARGS.get(scenario, {}).get(mechanism, {}),
    )
    result = dataclasses.asdict(outcome.result)
    result.pop("events_processed")
    return DifferentialRun(
        policy=policy.name,
        commands=outcome.command_logs,
        result=result,
        energy=dataclasses.asdict(outcome.energy),
        governor_actions=(
            outcome.governor.actions_summary()
            if outcome.governor is not None
            else None
        ),
    )


def run_pair(
    scenario: str, seed: int, channels: int, **kwargs
) -> tuple[DifferentialRun, DifferentialRun]:
    """(fast, reference) runs of the same simulation, with the
    scenario's run-shape defaults applied (explicit kwargs win)."""
    merged = {**_SCENARIO_KWARGS.get(scenario, {}), **kwargs}
    fast = run_policy(scenario, seed, channels, FrFcfsPolicy(), **merged)
    ref = run_policy(scenario, seed, channels, ReferenceFrFcfsPolicy(), **merged)
    return fast, ref


def _first_divergence(fast_cmds: list, ref_cmds: list) -> str:
    """Human-readable context around the first differing command."""
    for index, (a, b) in enumerate(zip(fast_cmds, ref_cmds)):
        if a != b:
            lo = max(0, index - 3)
            context = "\n".join(
                f"  [{i}] fast={fast_cmds[i]}  ref={ref_cmds[i]}"
                for i in range(lo, min(index + 3, len(fast_cmds), len(ref_cmds)))
            )
            return f"first divergence at command {index}:\n{context}"
    return (
        f"streams agree for {min(len(fast_cmds), len(ref_cmds))} commands, "
        f"then lengths differ: fast={len(fast_cmds)} ref={len(ref_cmds)}"
    )


def assert_equivalent(fast: DifferentialRun, ref: DifferentialRun) -> None:
    """Fail loudly (with the first diverging command) on any difference."""
    assert len(fast.commands) == len(ref.commands)
    for channel, (fast_cmds, ref_cmds) in enumerate(zip(fast.commands, ref.commands)):
        assert fast_cmds == ref_cmds, (
            f"channel {channel} command streams diverge "
            f"({fast.policy} vs {ref.policy}): "
            + _first_divergence(fast_cmds, ref_cmds)
        )
    assert fast.result == ref.result
    assert fast.energy == ref.energy
    assert fast.governor_actions == ref.governor_actions
