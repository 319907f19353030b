"""Workload runners with consistent scaled configuration.

A :class:`HarnessConfig` fixes the scaled DRAM spec (DESIGN.md
substitution 3) and the *paper-scale* RowHammer threshold; everything
downstream — the disturbance model, every mechanism's context, and
BlockHammer's Table 7 configuration — sees the consistently-scaled
``sim_nrh``.  The :class:`Runner` executes single-application and
multiprogrammed workloads, caching alone-run IPCs (needed by the
weighted/harmonic speedup and maximum slowdown metrics) per application
instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

from repro.cpu.core import CoreParams
from repro.dram.address import AddressMapping, MappingScheme, shared_mapping
from repro.dram.rowhammer import DisturbanceProfile
from repro.dram.spec import DDR4_2400, DramSpec, scaled_threshold
from repro.energy.drampower import EnergyBreakdown, EnergyModel
from repro.mitigations.base import AdjacencyOracle, MitigationMechanism
from repro.mitigations.registry import build_mitigation
from repro.os.governor import Governor
from repro.os.spec import GovernorSpec, build_governor
from repro.sim.config import SystemConfig
from repro.sim.stats import SimResult
from repro.sim.system import System
from repro.workloads.mixes import DEFAULT_MIX_THREADS, WorkloadMix, mix_row_offset
from repro.workloads.profiles import WorkloadProfile, profile_by_name

#: Attack threads replay a memory-level firehose trace (Section 7), not
#: a compute-bound core: deep MLP keeps the channel saturated.
ATTACKER_CORE_PARAMS = CoreParams(max_outstanding=48)


@lru_cache(maxsize=8)
def _scaled_spec(base_spec: DramSpec, scale: float) -> DramSpec:
    """Scaled spec, memoized: ``HarnessConfig.spec()`` is called per
    trace build and per alone-IPC computation, and rebuilding the spec
    each time is pure waste (both inputs are immutable)."""
    return base_spec.scaled(scale)


def _mop_mapping(spec: DramSpec) -> AddressMapping:
    """The process-wide MOP mapping for a spec — the same instance the
    System uses, so trace encoding and core decoding share one memo."""
    return shared_mapping(spec, MappingScheme.MOP)


@lru_cache(maxsize=8)
def _channel_spec(spec: DramSpec, channels: int) -> DramSpec:
    """``spec`` re-declared with ``channels`` channels, memoized so the
    mapping/trace caches keyed by spec identity keep hitting."""
    return spec.with_channels(channels)


@dataclass(frozen=True)
class HarnessConfig:
    """Scaled experiment configuration.

    ``scale`` divides the refresh window; ``paper_nrh`` is the threshold
    the experiment models at full scale (e.g. 32K) and ``sim_nrh`` the
    consistently-scaled value the simulation uses.
    """

    scale: float = 128.0
    paper_nrh: int = 32768
    base_spec: DramSpec = DDR4_2400
    #: Memory channels (one controller + device shard + mitigation
    #: instance per channel; requests interleave across channels at
    #: MOP-run granularity).  ``None`` defers to ``base_spec.channels``
    #: (matching ``SystemConfig.num_channels`` semantics); an explicit
    #: value overrides the spec.
    num_channels: int | None = None
    instructions_per_thread: int = 120_000
    rowmap_kind: str = "linear"
    seed: int = 1
    blast_radius: int = 1
    blast_decay: float = 0.5
    max_time_ns: float | None = None
    # Warmup before measurement (the paper fast-forwards 100M
    # instructions): long enough for an attacker to be blacklisted and
    # throttled, so measurements reflect steady state.
    warmup_ns: float = 50_000.0

    @property
    def sim_nrh(self) -> int:
        return scaled_threshold(self.paper_nrh, self.scale)

    @property
    def paper_nrh_effective(self) -> float:
        """Paper-scale NRH after the many-sided correction (Eq. 3)."""
        impact_sum = sum(
            self.blast_decay ** (k - 1) for k in range(1, self.blast_radius + 1)
        )
        return self.paper_nrh / (2.0 * impact_sum)

    def mechanism_kwargs(self, name: str) -> dict:
        """Per-mechanism construction arguments for this configuration.

        Probabilistic mechanisms tune a *per-activation* probability
        from NRH; that probability must come from the paper-scale
        threshold, because shrinking the window (and NRH with it) does
        not change how often a real PARA fires per ACT.
        """
        if self.scale <= 1.0:
            return {}
        from repro.mitigations.para import Para

        para_p = Para.tuned_probability(self.paper_nrh_effective)
        if name == "para":
            return {"probability": para_p}
        if name == "mrloc":
            return {"base_probability": para_p / 2.0}
        if name == "cbt":
            # CBT's leaf regions are geometric (rows / 2^levels) and do
            # not shrink with scaled thresholds; deepen the tree by
            # log2(scale) so each leaf's activation capacity relative to
            # its threshold matches the full-scale design.
            extra = max(0, round(math.log2(self.scale)))
            return {"levels": 6 + extra, "counter_budget": 125 + 16 * extra}
        return {}

    @property
    def channels(self) -> int:
        """Effective channel count (explicit override, else the spec's)."""
        return (
            self.num_channels
            if self.num_channels is not None
            else self.base_spec.channels
        )

    def spec(self) -> DramSpec:
        spec = _scaled_spec(self.base_spec, self.scale)
        if self.channels != spec.channels:
            spec = _channel_spec(spec, self.channels)
        return spec

    def with_nrh(self, paper_nrh: int) -> "HarnessConfig":
        return replace(self, paper_nrh=paper_nrh)

    def disturbance(self) -> DisturbanceProfile:
        return DisturbanceProfile(
            nrh=self.sim_nrh, blast_radius=self.blast_radius, decay=self.blast_decay
        )

    def system_config(self) -> SystemConfig:
        return SystemConfig(
            spec=self.spec(),
            num_channels=self.channels,
            disturbance=self.disturbance(),
            rowmap_kind=self.rowmap_kind,
            seed=self.seed,
        )

    def mapping(self) -> AddressMapping:
        return _mop_mapping(self.spec())


@dataclass
class RunOutcome:
    """One simulation's results plus derived energy and the per-channel
    mechanism instances."""

    mechanism_name: str
    result: SimResult
    energy: EnergyBreakdown
    #: One mitigation instance per memory channel (state is never shared
    #: across channels; aggregate with max/sum as the statistic demands).
    mechanisms: tuple[MitigationMechanism, ...]
    #: Per-channel DRAM command traces, only when the runner was built
    #: with ``capture_commands`` (differential scheduler testing).
    command_logs: tuple[list, ...] | None = None
    #: The OS governor this run executed under (None = no governor); the
    #: ``governor_actions`` extractor reads its action log.
    governor: Governor | None = None

    @property
    def mechanism(self) -> MitigationMechanism:
        """The channel-0 mechanism (the whole system on 1-channel runs)."""
        return self.mechanisms[0]

    @property
    def bitflips(self) -> int:
        return self.result.total_bitflips


class Runner:
    """Executes workloads under a fixed :class:`HarnessConfig`.

    ``policy`` overrides the scheduling policy for every system this
    runner builds (default FR-FCFS); ``capture_commands`` records every
    DRAM command each channel issues into ``RunOutcome.command_logs``.
    The differential scheduler harness uses both to prove the fast and
    the reference policy produce identical command streams.

    ``obs`` attaches a :class:`~repro.obs.probe.TelemetryBus` to every
    system this runner builds (the CLI ``trace`` subcommand's path);
    mutually exclusive with ``capture_commands``, which claims the
    device command-log hook for itself.
    """

    def __init__(
        self,
        hcfg: HarnessConfig,
        energy_model: EnergyModel | None = None,
        policy=None,
        capture_commands: bool = False,
        obs=None,
    ) -> None:
        self.hcfg = hcfg
        self.energy_model = energy_model or EnergyModel()
        self.policy = policy
        self.capture_commands = capture_commands
        self.obs = obs

    # ------------------------------------------------------------------
    def _build_system(
        self,
        traces,
        mechanism_name: str,
        adjacency_override: AdjacencyOracle | None = None,
        core_params_per_thread: list | None = None,
        governor: GovernorSpec | None = None,
        **mechanism_kwargs,
    ) -> System:
        kwargs = dict(self.hcfg.mechanism_kwargs(mechanism_name))
        kwargs.update(mechanism_kwargs)
        system = System(
            self.hcfg.system_config(),
            traces,
            # One fresh mechanism per channel: state is never shared.
            mitigation_factory=lambda: build_mitigation(mechanism_name, **kwargs),
            policy=self.policy,
            adjacency_override=adjacency_override,
            core_params_per_thread=core_params_per_thread,
            # One fresh governor per system: policies carry run state.
            governor=build_governor(governor),
            obs=self.obs,
        )
        return system

    def run_traces(
        self,
        traces,
        mechanism_name: str = "none",
        targets: int | list[int | None] | None = None,
        adjacency_override: AdjacencyOracle | None = None,
        core_params_per_thread: list | None = None,
        governor: GovernorSpec | None = None,
        **mechanism_kwargs,
    ) -> RunOutcome:
        """Run arbitrary traces under a mechanism (optionally with an
        OS governor described by ``governor``)."""
        system = self._build_system(
            traces,
            mechanism_name,
            adjacency_override,
            core_params_per_thread=core_params_per_thread,
            governor=governor,
            **mechanism_kwargs,
        )
        logs: tuple[list, ...] | None = None
        if self.capture_commands:
            logs = tuple([] for _ in system.memsys.devices)
            for device, log in zip(system.memsys.devices, logs):
                device.command_log = log
        if targets is None:
            targets = self.hcfg.instructions_per_thread
        result = system.run(
            instructions_per_thread=targets,
            max_time_ns=self.hcfg.max_time_ns,
            warmup_ns=self.hcfg.warmup_ns,
        )
        return RunOutcome(
            mechanism_name=mechanism_name,
            result=result,
            energy=self.energy_model.energy_of(result),
            mechanisms=tuple(system.mitigations),
            command_logs=logs,
            governor=system.governor,
        )

    # ------------------------------------------------------------------
    def run_single(
        self,
        app_name: str,
        mechanism_name: str = "none",
        slot: int = 0,
        pinned: int | None = None,
        threads: int = DEFAULT_MIX_THREADS,
    ) -> RunOutcome:
        """Single-core run of one Table 8 application (Figure 4).

        ``slot`` seeds the trace as if the app occupied that mix slot,
        which is how the alone-IPC runs behind the multiprogram metrics
        are produced (the job layer runs them as ``single`` jobs).
        ``pinned`` confines the working set to one memory channel and
        ``threads`` is the width of the mix being mirrored (it sets the
        row-stripe stride) — together they make the alone run replay the
        mix slot's trace bit-exactly.
        """
        profile = profile_by_name(app_name)
        if pinned is not None:
            profile = profile.pinned_to(pinned)
        trace = self._benign_trace(profile, slot=slot, threads=threads)
        return self.run_traces([trace], mechanism_name)

    def run_mix(
        self,
        mix: WorkloadMix,
        mechanism_name: str = "none",
        adjacency_override: AdjacencyOracle | None = None,
        governor: GovernorSpec | None = None,
        **mechanism_kwargs,
    ) -> RunOutcome:
        """Multiprogrammed run (Figures 5/6).

        Attacker threads carry no instruction target (they hammer for as
        long as benign threads run, never gating completion) and use a
        deep-MLP core so the attack trace saturates the channel like the
        paper's firehose trace replay does.
        """
        spec = self.hcfg.spec()
        traces = mix.build_traces(spec, self.hcfg.mapping(), seed=self.hcfg.seed)
        targets: list[int | None] = [
            None if slot in mix.attacker_threads else self.hcfg.instructions_per_thread
            for slot in range(len(traces))
        ]
        attacker_params = ATTACKER_CORE_PARAMS if mix.attacker_threads else None
        per_thread = (
            [
                attacker_params if slot in mix.attacker_threads else None
                for slot in range(len(traces))
            ]
            if attacker_params
            else None
        )
        return self.run_traces(
            traces,
            mechanism_name,
            targets,
            adjacency_override,
            core_params_per_thread=per_thread,
            governor=governor,
            **mechanism_kwargs,
        )

    # ------------------------------------------------------------------
    def _benign_trace(
        self, profile: WorkloadProfile, slot: int, threads: int = DEFAULT_MIX_THREADS
    ):
        from repro.workloads.generator import build_benign_trace

        spec = self.hcfg.spec()
        return build_benign_trace(
            profile,
            spec,
            self.hcfg.mapping(),
            seed=self.hcfg.seed + slot,
            # Mirror the mix's row-stripe layout so the alone run
            # replays the exact trace of the mix's ``slot`` thread.
            row_offset=mix_row_offset(spec, slot, threads),
        )
