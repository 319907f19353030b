"""System wiring and the event-driven simulation loop.

A :class:`System` assembles the channel-sharded memory system (one
controller + DRAM device shard + mitigation instance per channel, see
:class:`~repro.mem.memsystem.MemorySystem`), the cores, and drives them
to completion with a discrete-event loop.  Each entity (per-channel
controller, core) is woken only when it can make progress; a wake-up
is recognized as stale when the entity's recorded next-wake time no
longer matches the event's time, so the loop never executes an entity
twice for the same logical event.  Wake-up events reuse one bound
callable per entity instead of allocating a fresh closure per event —
several hundred thousand allocations per simulation on the hot path.
"""

from __future__ import annotations

from functools import partial

from repro.cpu.cache import SetAssocCache
from repro.cpu.core import Core
from repro.cpu.trace import Trace
from repro.dram.address import shared_mapping
from repro.mem.memsystem import MemorySystem, MitigationFactory
from repro.mem.request import Request
from repro.mem.scheduler import FrFcfsPolicy, SchedulingPolicy
from repro.mitigations.base import (
    AdjacencyOracle,
    MitigationMechanism,
    NoMitigation,
)
from repro.sim.config import SystemConfig
from repro.sim.engine import EventQueue
from repro.sim.stats import SimResult, ThreadResult
from repro.utils.rng import DeterministicRng
from repro.utils.validation import ConfigError

_NEVER = 1.0e30


class System:
    """A complete simulated machine: cores + N channel shards."""

    #: When True, every controller wake runs exactly one scheduling step
    #: (the legacy tick-by-tick cadence) instead of a quiescence-horizon
    #: batch.  Tests flip this to build a tick-by-tick oracle and check
    #: that batched runs are bit-identical.
    single_step = False

    def __init__(
        self,
        config: SystemConfig,
        traces: list[Trace],
        mitigation: MitigationMechanism | None = None,
        policy: SchedulingPolicy | None = None,
        adjacency_override: AdjacencyOracle | None = None,
        core_params_per_thread: list | None = None,
        mitigation_factory: MitigationFactory | None = None,
        governor=None,
        obs=None,
    ) -> None:
        """``mitigation_factory`` builds one fresh mechanism per channel
        (required for multi-channel systems, where mitigation state must
        not be shared).  Passing a single ``mitigation`` instance remains
        supported for single-channel systems only.

        ``governor`` attaches an OS governor
        (:class:`~repro.os.governor.Governor`): the event loop reviews
        it once per governor epoch and its policies act on the cores
        (kill / quota / channel migration).  ``None`` (default) costs
        nothing — no events are scheduled and no hooks fire.

        ``obs`` attaches a telemetry bus
        (:class:`~repro.obs.probe.TelemetryBus`): trace probes are bound
        through every layer (device command stream, controller, per-
        channel mechanism, governor) and metrics sampling events are
        scheduled once per sampling epoch.  ``None`` (default) binds
        nothing — component probe attributes stay ``None`` and the event
        loop runs exactly as without observability."""
        self.config = config
        self.rng = DeterministicRng(config.seed)
        spec = config.effective_spec()
        self.mapping = shared_mapping(spec, config.mapping_scheme, config.mop_run)

        if mitigation_factory is None:
            if mitigation is None:
                mitigation_factory = NoMitigation
            elif config.channels == 1:
                instance = mitigation
                mitigation_factory = lambda: instance  # noqa: E731
            else:
                raise ConfigError(
                    "multi-channel systems need a mitigation_factory: a single "
                    "mitigation instance cannot be shared across channels"
                )
        self.memsys = MemorySystem(
            config,
            num_threads=len(traces),
            mitigation_factory=mitigation_factory,
            policy=policy or FrFcfsPolicy(),
            adjacency_override=adjacency_override,
            rng=self.rng,
        )
        self.controllers = self.memsys.controllers
        for controller in self.controllers:
            controller.on_request_complete = self._on_request_complete
        # Single-channel aliases (the common configuration, and what the
        # pre-sharding tests and examples address).
        self.controller = self.controllers[0]
        self.device = self.memsys.devices[0]
        self.mitigation = self.memsys.mitigations[0]
        self.mitigations = self.memsys.mitigations

        self.cores: list[Core] = []
        for thread_id, trace in enumerate(traces):
            llc = (
                SetAssocCache(config.llc_bytes, config.llc_ways, spec.line_bytes)
                if config.use_llc
                else None
            )
            params = config.core
            if core_params_per_thread is not None and core_params_per_thread[thread_id]:
                params = core_params_per_thread[thread_id]
            self.cores.append(
                Core(thread_id, trace, self.memsys, self.mapping, params, llc)
            )

        self._events = EventQueue()
        num_channels = self.memsys.num_channels
        self._ctrl_scheduled: list[float | None] = [None] * num_channels
        self._core_scheduled: list[float | None] = [None] * len(self.cores)
        # One reusable wake callable per entity (no per-event closures).
        self._ctrl_fires = [
            partial(self._fire_ctrl, channel) for channel in range(num_channels)
        ]
        self._core_fires = [
            partial(self._fire_core, index) for index in range(len(self.cores))
        ]
        self._now = 0.0
        self.events_processed = 0
        # Controller batching plumbing: the live event heap, whose top
        # each batch iteration checks for the next pending global
        # event, and the warmup/deadline boundary batches must never
        # leap across.
        self._pending = self._events.heap
        self._hard_limit = _NEVER
        # Completion tracking: cores with an instruction target are
        # "required"; a counter updated when a core stamps finish_time
        # replaces an all-cores scan per event in the main loop.
        self._core_finished = [False] * len(self.cores)
        self._required = [False] * len(self.cores)
        self._finished_required = 0
        self._total_required = 0
        # OS governor (repro.os): reviewed from the event loop; killed
        # threads must not gate completion, tracked here so a warmup
        # reset re-marks them finished.
        self.governor = governor
        self._descheduled = [False] * len(self.cores)
        if governor is not None:
            governor.attach(self)
        # Observability (repro.obs): wired only when a live bus is
        # passed; otherwise every component's probe attribute keeps its
        # class-level None and no sampling events exist.
        self.obs = obs
        self._metrics_period: float | None = None
        if obs is not None and obs.enabled:
            self._attach_obs(obs)

    # ------------------------------------------------------------------
    # Observability plumbing (repro.obs).
    # ------------------------------------------------------------------
    def _attach_obs(self, obs) -> None:
        """Bind the telemetry bus through every layer.

        Runs once at construction, only for a live bus: probes land on
        component attributes that otherwise stay ``None``, and the DRAM
        command stream is mirrored through the device's existing
        ``command_log`` hook (skipped for any device that already has a
        log attached — e.g. the differential harness's capture)."""
        from repro.obs.trace import ChannelCommandLog

        if obs.trace is not None:
            if obs.config.trace_commands:
                for channel, device in enumerate(self.memsys.devices):
                    if device.command_log is None:
                        device.command_log = ChannelCommandLog(obs.trace, channel)
            mem_probe = obs.probe("mem")
            for controller in self.controllers:
                controller.probe = mem_probe
            mitigation_probe = obs.probe("mitigation")
            for mitigation in self.memsys.mitigations:
                mitigation.bind_probe(mitigation_probe)
            if self.governor is not None:
                self.governor.probe = obs.probe("os")
        if obs.metrics is not None:
            self._metrics_period = self._metrics_epoch_ns()

    def _metrics_epoch_ns(self) -> float:
        """The metrics sampling period: the explicit config value, else
        the channel-0 mechanism's epoch, else half the refresh window
        (the same default the OS governor uses)."""
        configured = self.obs.config.metrics_epoch_ns
        if configured is not None:
            return configured
        mechanism_config = getattr(self.memsys.mitigations[0], "config", None)
        epoch = getattr(mechanism_config, "epoch_ns", None)
        if epoch:
            return epoch
        return self.config.effective_spec().tREFW / 2.0

    def _fire_metrics(self, now: float) -> None:
        self.obs.metrics.sample(self, now)
        # Same liveness guard as the governor: reschedule only while
        # the simulation still has work, or sampling alone would keep
        # the event loop spinning forever.
        if not self._events.empty or self.memsys.busy():
            self._events.push(now + self._metrics_period, self._fire_metrics)

    # ------------------------------------------------------------------
    # Event scheduling helpers.
    # ------------------------------------------------------------------
    def _schedule_ctrl(self, channel: int, time: float) -> None:
        scheduled = self._ctrl_scheduled[channel]
        if scheduled is not None and scheduled <= time:
            return
        self._ctrl_scheduled[channel] = time
        self._events.push(time, self._ctrl_fires[channel])

    def _fire_ctrl(self, channel: int, now: float) -> None:
        if self._ctrl_scheduled[channel] != now:
            return  # stale wake-up, superseded by an earlier one
        self._ctrl_scheduled[channel] = None
        if self.single_step:
            wake = self.controllers[channel].step(now)
        else:
            # Quiescence-horizon batch: the controller leaps through as
            # many scheduling steps as it can before the next pending
            # global event (or the warmup/deadline boundary), then
            # reports its next wake.  Each executed step counts as one
            # processed event, like the per-step wakes it replaces.
            steps, wake = self.controllers[channel].run_until(
                now, self._pending, self._hard_limit
            )
            if steps > 1:
                self.events_processed += steps - 1
        if wake < _NEVER:
            self._schedule_ctrl(channel, max(wake, now))

    def _schedule_core(self, index: int, time: float) -> None:
        scheduled = self._core_scheduled[index]
        if scheduled is not None and scheduled <= time:
            return
        self._core_scheduled[index] = time
        self._events.push(time, self._core_fires[index])

    def _fire_core(self, index: int, now: float) -> None:
        if self._core_scheduled[index] != now:
            return  # stale wake-up, superseded by an earlier one
        self._core_scheduled[index] = None
        core = self.cores[index]
        wake = core.wake(now)
        touched = self.memsys.touched
        if touched:
            # Injections created controller work on these channels.
            for channel in touched:
                self._schedule_ctrl(channel, now)
            touched.clear()
        if wake is not None:
            self._schedule_core(index, max(wake, now))
        elif not self._core_finished[index] and core.finish_time is not None:
            self._note_finished(index)

    def _on_request_complete(self, request: Request, done_time: float) -> None:
        self._events.push(done_time, partial(self._fire_complete, request))

    def _fire_complete(self, request: Request, now: float) -> None:
        index = request.thread
        core = self.cores[index]
        core.on_complete(request, now)
        self._schedule_core(index, now)
        if not self._core_finished[index] and core.finish_time is not None:
            self._note_finished(index)

    def _note_finished(self, index: int) -> None:
        self._core_finished[index] = True
        if self._required[index]:
            self._finished_required += 1

    # ------------------------------------------------------------------
    # OS governor plumbing.
    # ------------------------------------------------------------------
    def _fire_governor(self, now: float) -> None:
        next_review = self.governor.advance(now)
        # Reschedule only while the simulation is otherwise alive: when
        # the event queue is empty and no channel has work, everything
        # has drained and a recurring review would keep the loop spinning
        # forever on governor events alone.
        if not self._events.empty or self.memsys.busy():
            self._events.push(next_review, self._fire_governor)

    def deschedule_thread(self, index: int, now: float) -> None:
        """Kill a thread on the governor's behalf: the core issues no
        further requests and stops gating completion (its measured span
        ends at the kill timestamp)."""
        core = self.cores[index]
        core.deschedule(now)
        self._descheduled[index] = True
        if core.finish_time is None:
            core.finish_time = now
        if not self._core_finished[index]:
            self._note_finished(index)

    # ------------------------------------------------------------------
    # Main loop.
    # ------------------------------------------------------------------
    def run(
        self,
        instructions_per_thread: int | list[int | None] | None = None,
        max_time_ns: float | None = None,
        warmup_ns: float = 0.0,
    ) -> SimResult:
        """Simulate until every *required* core retires its instruction
        target (and its reads drain), or until ``max_time_ns`` of
        measured time elapses.

        ``instructions_per_thread`` may be a single target for all
        threads or a per-thread list; threads whose entry is None run as
        background load (e.g. an attacker that a mitigation may throttle
        indefinitely) and do not gate completion.

        ``warmup_ns`` runs the system for that long before measurement
        begins (the paper fast-forwards 100M instructions): performance
        and energy counters are then reset while *mechanism state* —
        blacklists, RHLI counters, reactive-refresh tables — carries
        over, so measurements reflect steady-state behaviour.
        """
        if isinstance(instructions_per_thread, list):
            targets = instructions_per_thread
        else:
            targets = [instructions_per_thread] * len(self.cores)
        warming = warmup_ns > 0.0
        if not warming:
            for core, target in zip(self.cores, targets):
                core.instructions_target = target
        self._required = [target is not None for target in targets]
        self._total_required = sum(self._required)
        self._core_finished = [False] * len(self.cores)
        self._finished_required = 0
        for index in range(len(self.cores)):
            self._schedule_core(index, 0.0)
        for channel in range(self.memsys.num_channels):
            self._schedule_ctrl(channel, 0.0)
        if self.governor is not None:
            self._events.push(self.governor.start(0.0), self._fire_governor)
        if self._metrics_period is not None:
            # First sample one epoch in; samples ride the ordinary event
            # queue, so they only perturb ``events_processed`` (the one
            # SimResult field excluded from result equality).
            if warming:
                self.obs.metrics.begin_warmup()
            self._events.push(self._metrics_period, self._fire_metrics)

        measure_start = warmup_ns if warming else 0.0
        # Controller batches must not leap across the warmup boundary
        # (counters reset there) or the measurement deadline; within a
        # phase they may run ahead of the event loop freely.
        if warming:
            self._hard_limit = warmup_ns
        elif max_time_ns is not None:
            self._hard_limit = measure_start + max_time_ns
        else:
            self._hard_limit = _NEVER
        events = self._events
        pop_at = events.pop_at
        # The loop runs once per *instant* rather than once per event:
        # after the first pop, every further wake scheduled for the same
        # tick (one slot per channel, request completions, core wakes —
        # including wakes pushed for this tick by the batch itself)
        # drains in the same iteration, skipping the warmup/deadline
        # bookkeeping.  Completion stays an int comparison checked
        # between callbacks (cores bump ``_finished_required`` when they
        # stamp finish_time), so a run still stops mid-tick exactly
        # where the per-event loop did.
        while True:
            if (
                not warming
                and self._total_required
                and self._finished_required >= self._total_required
            ):
                break
            if warming or max_time_ns is not None:
                next_time = events.peek_time()
                if next_time is None:
                    break
                if warming and next_time > warmup_ns:
                    self._reset_measurement(warmup_ns, targets)
                    warming = False
                    self._hard_limit = (
                        measure_start + max_time_ns
                        if max_time_ns is not None
                        else _NEVER
                    )
                    continue
                if (
                    not warming
                    and max_time_ns is not None
                    and next_time > measure_start + max_time_ns
                ):
                    self._now = measure_start + max_time_ns
                    break
                time, callback = events.pop()
            else:
                try:
                    time, callback = events.pop()
                except IndexError:
                    break
            self._now = time
            processed = 1
            callback(time)
            # Same-instant batch drain (warming/deadline checks cannot
            # change within one tick; completion can).
            required = self._total_required if not warming else 0
            while True:
                if required and self._finished_required >= required:
                    break
                callback = pop_at(time)
                if callback is None:
                    break
                processed += 1
                callback(time)
            self.events_processed += processed

        return self._collect(self._now, measure_start)

    def _reset_measurement(self, now: float, targets: list[int | None]) -> None:
        """End the warmup phase: zero performance/energy counters while
        keeping all architectural and mechanism state."""
        for core, target in zip(self.cores, targets):
            core.reset_measurement(now, target)
        self._core_finished = [False] * len(self.cores)
        self._finished_required = 0
        self.memsys.reset_measurement(now)
        # Threads the governor killed during warmup stay dead: re-stamp
        # them finished so they never gate measured-phase completion.
        for index, dead in enumerate(self._descheduled):
            if dead:
                self.cores[index].finish_time = now
                self._note_finished(index)
        if self.obs is not None:
            self.obs.note_measurement_reset(now)

    # ------------------------------------------------------------------
    def _collect(self, end_time: float, measure_start: float = 0.0) -> SimResult:
        memsys = self.memsys
        memsys.finalize(end_time)
        multi_channel = memsys.num_channels > 1
        merged_stats = memsys.merged_thread_stats()
        threads = []
        for core in self.cores:
            finish = core.finish_time if core.finish_time is not None else end_time
            span = finish - core.measure_start
            cycles = span * core.params.freq_ghz
            ipc = core.instructions_retired / cycles if cycles > 0 else 0.0
            threads.append(
                ThreadResult(
                    thread=core.thread_id,
                    instructions=core.instructions_retired,
                    finish_time_ns=span,
                    ipc=ipc,
                    mem=merged_stats[core.thread_id],
                    mem_per_channel=(
                        [
                            controller.thread_stats[core.thread_id]
                            for controller in self.controllers
                        ]
                        if multi_channel
                        else []
                    ),
                )
            )
        return SimResult(
            mitigation=self.mitigation.name,
            threads=threads,
            elapsed_ns=end_time - measure_start,
            counts=memsys.aggregate_counts(),
            active_time_ns=memsys.aggregate_active_time(),
            bitflips=memsys.aggregate_bitflips(),
            refreshes=memsys.total_refreshes(),
            victim_refreshes=memsys.total_victim_refreshes(),
            commands_issued=memsys.total_commands_issued(),
            events_processed=self.events_processed,
            channels=memsys.channel_results(),
        )
