"""Per-layer span and count ledger, recorded from outside the simulator.

:func:`install` wraps the public entry points of each ``repro`` module
(class attributes and module functions) so every call records a span in
one :class:`Ledger`.  Nothing under ``src/`` is edited: the wrappers are
installed at run time, in the benchmark's own process, before any
simulator object is built, and pool workers forked afterwards inherit
them.

A layer's self time is the wall time of its spans minus the part their
child spans cover.  A call into a layer from inside the same layer (a
subclass calling ``super()``, a public method calling a sibling) is not
a new span: its time and counts belong to the outer span, so counts are
per layer entry.

Besides time, the wrappers count work at the same boundaries (selects,
commands per kind, mitigation verdicts, core wakes) and, per job, the
figures that :class:`~repro.sim.stats.SimResult` also reports, so
:meth:`Ledger.check_job` can cross-check the traced counts against the
simulator's own counters.
"""

from __future__ import annotations

import functools
import os
from time import perf_counter

LAYERS = (
    "harness",
    "workloads",
    "sim",
    "cpu",
    "mem.memsystem",
    "mem.controller",
    "mem.scheduler",
    "dram",
    "mitigation",
    "harness.pool_wait",
)

#: Per-layer work counters, named as they are reported.
COUNTERS = (
    "sim.events",
    "cpu.wakes",
    "mem.controller.batches",
    "mem.controller.enqueues",
    "mem.controller.enqueue_refused",
    "mem.scheduler.selects",
    "dram.commands",
    "dram.acts",
    "dram.columns",
    "mitigation.act_checks",
    "mitigation.act_throttled",
    "mitigation.victim_refreshes",
    "workloads.trace_builds",
    "harness.cache_gets",
    "harness.cache_hits",
    "harness.jobs_executed",
    "check.jobs",
    "check.mismatches",
)

_KINDS = ("act", "pre", "rd", "wr", "ref", "vref")


class Ledger:
    """Self time per layer, inclusive time of a few named calls, work
    counters, and the per-job cross-check state."""

    def __init__(self) -> None:
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.incl_s = {"harness.cache_get_s": 0.0, "harness.cache_put_s": 0.0}
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.mismatch_detail: list[str] = []
        # Span stack of [layer, child seconds]; the sentinel keeps
        # ``stack[-1]`` valid outside any span.
        self.stack: list[list] = [[None, 0.0]]
        self.pid = os.getpid()
        self._new_job()

    def _new_job(self) -> None:
        self.job_events = 0
        self.job_kinds = dict.fromkeys(_KINDS, 0)
        self.job_kinds_at_reset = dict.fromkeys(_KINDS, 0)

    # ------------------------------------------------------------------
    def span(
        self, layer: str, fn, after=None, incl: str | None = None, nest: bool = False
    ):
        """``fn`` wrapped in a span of ``layer``; ``after(result, args)``
        runs on return of a layer entry; ``incl`` also accumulates the
        call's inclusive time under that name.  ``nest`` opens a span
        (and runs ``after``) even when called from inside ``layer``: for
        harness calls that are distinct operations, not re-entries."""
        stack = self.stack
        self_s = self.self_s
        incl_s = self.incl_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack[-1][0] == layer and not nest:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self_s[layer] += elapsed - frame[1]
                stack[-1][1] += elapsed
                if incl is not None:
                    incl_s[incl] += elapsed
            if after is not None:
                after(result, args)
            return result

        return wrapper

    # ------------------------------------------------------------------
    def check_job(self, label: str, result) -> None:
        """Compare this job's traced counts with its ``SimResult``:
        measured-phase commands per kind, victim refreshes, and
        ``events_processed``."""
        measured = {
            kind: self.job_kinds[kind] - self.job_kinds_at_reset[kind]
            for kind in _KINDS
        }
        expected = {kind: getattr(result.counts, kind) for kind in _KINDS}
        problems = []
        if measured != expected:
            problems.append(f"commands {measured} != SimResult.counts {expected}")
        if measured["vref"] != result.victim_refreshes:
            problems.append(
                f"victim refreshes {measured['vref']} != "
                f"SimResult.victim_refreshes {result.victim_refreshes}"
            )
        if self.job_events != result.events_processed:
            problems.append(
                f"events {self.job_events} != "
                f"SimResult.events_processed {result.events_processed}"
            )
        self.counts["check.jobs"] += 1
        if problems:
            self.counts["check.mismatches"] += 1
            self.mismatch_detail.append(f"{label}: " + "; ".join(problems))
        self._new_job()

    # ------------------------------------------------------------------
    def export(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "counts": dict(self.counts),
            "mismatch_detail": list(self.mismatch_detail),
        }

    def reset(self) -> None:
        """Zero everything and drop any open spans (a forked pool worker
        inherits its parent's ledger mid-span)."""
        # In place: the installed wrappers hold these dicts.
        self.self_s.update(dict.fromkeys(self.self_s, 0.0))
        self.incl_s.update(dict.fromkeys(self.incl_s, 0.0))
        self.counts.update(dict.fromkeys(self.counts, 0))
        self.mismatch_detail.clear()
        self.stack[:] = [[None, 0.0]]
        self._new_job()

    def merge(self, data: dict) -> None:
        for name, value in data["self_s"].items():
            self.self_s[name] += value
        for name, value in data["incl_s"].items():
            self.incl_s[name] += value
        for name, value in data["counts"].items():
            self.counts[name] += value
        self.mismatch_detail.extend(data["mismatch_detail"])


#: Attribute carrying a pool worker's ledger back on its JobResult.
WORKER_LEDGER_ATTR = "_perfbench_ledger"


def install(ledger: Ledger) -> None:
    """Wrap every measured entry point of the ``repro`` package."""
    from repro.core import blockhammer as _bh  # noqa: F401 (registers subclasses)
    from repro.core import os_policy as _os  # noqa: F401
    from repro.core.rowblocker import RowBlocker
    from repro.cpu.core import Core
    from repro.dram.commands import CommandKind
    from repro.dram.device import DramDevice
    from repro.harness import parallel
    from repro.harness.cache import ResultCache
    from repro.mem.controller import MemoryController
    from repro.mem.memsystem import MemorySystem
    from repro.mem.scheduler import FrFcfsPolicy
    from repro.mitigations import registry as _registry  # noqa: F401
    from repro.mitigations.base import MitigationMechanism
    from repro.sim.engine import EventQueue
    from repro.sim.system import System
    from repro.workloads import generator, mixes

    counts = ledger.counts
    span = ledger.span

    def patch(owner, name: str, layer: str, after=None, incl=None, nest=False):
        setattr(owner, name, span(layer, getattr(owner, name), after, incl, nest))

    def count(name: str):
        def after(result, args):
            counts[name] += 1

        return after

    # -- harness -------------------------------------------------------
    def job_done(result, args):
        counts["harness.jobs_executed"] += 1
        job = args[0]
        ledger.check_job(repr(job.key[2:]), result.result)
        if os.getpid() != ledger.pid:
            # Pool worker: ship this job's ledger home on the result.
            setattr(result, WORKER_LEDGER_ATTR, ledger.export())

    def cache_got(result, args):
        counts["harness.cache_gets"] += 1
        if result is not None:
            counts["harness.cache_hits"] += 1

    execute_job = parallel.execute_job
    traced_execute = span("harness", execute_job, job_done, nest=True)

    def execute(job):
        if os.getpid() != ledger.pid:
            ledger.reset()  # each job in a forked worker starts clean
        return traced_execute(job)

    parallel.execute_job = functools.wraps(execute_job)(execute)
    patch(parallel, "run_jobs", "harness")
    # Time the dispatcher spends blocked on pool futures: waiting, not
    # harness work (the workers' own spans arrive with their results).
    patch(parallel, "wait", "harness.pool_wait")
    patch(ResultCache, "get", "harness", cache_got, "harness.cache_get_s", True)
    patch(ResultCache, "put", "harness", None, "harness.cache_put_s", True)

    # -- workloads -----------------------------------------------------
    def traces_built(result, args):
        counts["workloads.trace_builds"] += len(result)

    patch(mixes.WorkloadMix, "build_traces", "workloads", traces_built)
    # Alone-IPC runs build their one trace directly; inside build_traces
    # these calls are re-entries, already counted above.
    traced_benign = span(
        "workloads", generator.build_benign_trace, count("workloads.trace_builds")
    )
    generator.build_benign_trace = traced_benign
    mixes.build_benign_trace = traced_benign

    # -- sim -----------------------------------------------------------
    def popped(result, args):
        ledger.job_events += 1

    def popped_at(result, args):
        if result is not None:
            ledger.job_events += 1

    def run_done(result, args):
        counts["sim.events"] += result.events_processed

    patch(System, "__init__", "sim")
    patch(System, "run", "sim", run_done)
    # Event pops are counted, not timed: they are the loop's own work.
    EventQueue.pop = _counting(EventQueue.pop, popped)
    EventQueue.pop_at = _counting(EventQueue.pop_at, popped_at)

    # -- cpu -----------------------------------------------------------
    patch(Core, "_wake_running", "cpu", count("cpu.wakes"))
    patch(Core, "_wake_dead", "cpu", count("cpu.wakes"))
    patch(Core, "on_complete", "cpu")

    # -- mem -----------------------------------------------------------
    def batch_done(result, args):
        counts["mem.controller.batches"] += 1
        steps = result[0]
        if steps > 1:
            ledger.job_events += steps - 1

    def enqueued(result, args):
        counts["mem.controller.enqueues"] += 1
        if not result:
            counts["mem.controller.enqueue_refused"] += 1

    def measurement_reset(result, args):
        ledger.job_kinds_at_reset = dict(ledger.job_kinds)

    patch(MemorySystem, "__init__", "mem.memsystem")
    patch(MemorySystem, "enqueue", "mem.memsystem")
    patch(MemorySystem, "reset_measurement", "mem.memsystem", measurement_reset)
    patch(MemoryController, "run_until", "mem.controller", batch_done)
    patch(MemoryController, "step", "mem.controller", count("mem.controller.batches"))
    patch(MemoryController, "enqueue", "mem.controller", enqueued)

    selected = count("mem.scheduler.selects")
    for name in ("select", "select_raw", "_scan_select"):
        patch(FrFcfsPolicy, name, "mem.scheduler", selected)
    make_fused = FrFcfsPolicy.make_fused

    @functools.wraps(make_fused)
    def traced_make_fused(self, requests, device, mitigation):
        fused = make_fused(self, requests, device, mitigation)
        if fused is None:
            return None
        return span("mem.scheduler", fused, selected)

    FrFcfsPolicy.make_fused = traced_make_fused

    # -- dram ----------------------------------------------------------
    kind_names = {kind: kind.name.lower() for kind in CommandKind}

    def issued(result, args):
        kind = kind_names[args[1].kind]
        ledger.job_kinds[kind] += 1
        counts["dram.commands"] += 1
        if kind == "act":
            counts["dram.acts"] += 1
        elif kind == "rd" or kind == "wr":
            counts["dram.columns"] += 1

    patch(DramDevice, "issue", "dram", issued)

    # -- mitigation ----------------------------------------------------
    def act_checked(result, args):
        counts["mitigation.act_checks"] += 1
        if result > args[-1]:
            counts["mitigation.act_throttled"] += 1

    hooks = {"act_allowed_at": act_checked, "on_activate": None, "advance_to": None}
    for cls in _subclasses(MitigationMechanism):
        for name, after in hooks.items():
            if name in vars(cls):
                # Only a class's own definitions: inherited methods stay
                # the base wrapper, which keeps ``never_blocks`` (an
                # identity test against the base method) intact.
                patch(cls, name, "mitigation", after)
    # BlockHammer binds its RowBlocker's gate as the instance's
    # ``act_allowed_at``, so the class method above never sees its calls.
    patch(RowBlocker, "allowed_at", "mitigation", act_checked)
    MitigationMechanism.queue_victim_refresh = _counting(
        MitigationMechanism.queue_victim_refresh,
        count("mitigation.victim_refreshes"),
    )


def _counting(fn, after):
    @functools.wraps(fn)
    def wrapper(*args):
        result = fn(*args)
        after(result, args)
        return result

    return wrapper


def _subclasses(cls) -> list:
    found = {cls: None}
    for sub in cls.__subclasses__():
        found.update(dict.fromkeys(_subclasses(sub)))
    return list(found)
