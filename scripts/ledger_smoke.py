"""Count gate: the speed check CI runs.

Runs the first fig5-attack mix's ``none``, ``cbt`` and ``blockhammer``
jobs at seed 1, serially, under the benchmark's traced ledger
(``perfbench/ledger.py``, imported read-only) and under an opcode
tracer, and compares what they did with committed constants:

* six work counts (events, controller batches, scheduler selects, DRAM
  commands, mitigation ACT checks, trace builds) must equal
  :data:`WORK` exactly;
* executed bytecodes in ``src/repro``, bucketed by file into the
  ledger's layers, must each be within 1% of :data:`BYTECODES`, in
  either direction;
* every job must cross-check against its own ``SimResult`` with no
  mismatch, and victim refreshes must have been counted.

Both kinds of count are exact run to run and host-independent, so a
change that makes the simulator do more work fails here however noisy
the machine is, and a change that makes it do less must commit the new
constants, so they never go stale.  Installing the ledger also fails
when a name it wraps was renamed or removed.  Wall-clock is measured by
the benchmark's interleaved A/B (``perfbench/run.py``), not here.

On a mismatch the measured values are printed as Python literals;
paste them over the constants below when the change is deliberate.
The bytecode constants are CPython 3.11's, the interpreter CI runs;
other minor versions compile different bytecode, so the gate refuses
to run on them rather than report every layer as off.

Run from the repository root (~15 s)::

    PYTHONPATH=src:perfbench python scripts/ledger_smoke.py
"""

from __future__ import annotations

import os
import sys

import ledger
from sweeps import WORKLOADS, declare

MECHANISMS = ("none", "cbt", "blockhammer")
SEED = 1

#: Work counts of the three jobs; must match exactly.
WORK = {
    "sim.events": 61_490,
    "mem.controller.batches": 18_099,
    "mem.scheduler.selects": 38_086,
    "dram.commands": 17_035,
    "mitigation.act_checks": 17_505,
    "workloads.trace_builds": 24,
}

#: Executed bytecodes per layer; each must be within BYTECODE_SLACK.
BYTECODES = {
    "sim": 7_913_691,
    "cpu": 2_063_636,
    "workloads": 553_885,
    "mem.memsystem": 804_145,
    "mem.controller": 8_050_525,
    "mem.scheduler": 16_846_409,
    "dram": 3_907_699,
    "mitigation": 2_603_612,
    "harness": 202_442,
}
BYTECODE_SLACK = 0.01

#: ``src/repro`` paths (a package directory or a module) and the ledger
#: layer their frames count towards; the first matching prefix wins and
#: the rest of the package (dispatch, cache codec, result assembly)
#: counts as ``harness``.
LAYER_OF_PATH = (
    ("sim/", "sim"),
    ("cpu/", "cpu"),
    ("workloads/", "workloads"),
    ("mem/memsystem.py", "mem.memsystem"),
    ("mem/request.py", "mem.memsystem"),
    ("mem/controller.py", "mem.controller"),
    ("mem/refresh.py", "mem.controller"),
    ("mem/scheduler.py", "mem.scheduler"),
    ("mem/queues.py", "mem.scheduler"),
    ("dram/", "dram"),
    ("core/", "mitigation"),
    ("mitigations/", "mitigation"),
    ("", "harness"),
)


def traced_bytecodes(run) -> dict[str, int]:
    """Call ``run()`` with every opcode executed in ``src/repro`` counted
    per layer (this thread only: the jobs must run serially)."""
    import repro

    root = os.path.dirname(repro.__file__) + os.sep
    counts = {layer: 0 for _, layer in LAYER_OF_PATH}

    def counter(layer):
        def trace(frame, event, arg):
            if event == "opcode":
                counts[layer] += 1
            return trace

        return trace

    tracers = {layer: counter(layer) for layer in counts}
    by_code: dict = {}

    def tracer_for(filename: str):
        if not filename.startswith(root):
            return None
        path = filename[len(root) :].replace(os.sep, "/")
        return next(
            tracers[layer] for prefix, layer in LAYER_OF_PATH if path.startswith(prefix)
        )

    def on_call(frame, event, arg):
        code = frame.f_code
        trace = by_code.get(code, False)
        if trace is False:
            trace = by_code[code] = tracer_for(code.co_filename)
        if trace is not None:
            frame.f_trace_lines = False
            frame.f_trace_opcodes = True
        return trace

    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(None)
    return counts


def main() -> int:
    if sys.version_info[:2] != (3, 11):
        print(
            "count gate: the bytecode constants are CPython 3.11's; "
            "this is %d.%d" % sys.version_info[:2],
            file=sys.stderr,
        )
        return 2
    book = ledger.Ledger()
    ledger.install(book)
    from repro.harness import parallel

    _, mixes, jobs = declare(WORKLOADS["fig5-attack"], SEED)
    first = mixes[0].name
    picked = [
        job
        for job in jobs
        if job.kind == "mix" and job.mix.name == first and job.mechanism in MECHANISMS
    ]
    assert len(picked) == len(MECHANISMS), picked
    bytecodes = traced_bytecodes(
        lambda: parallel.run_jobs(picked, 1, cache=False, on_error="raise")
    )

    counts = book.counts
    work = {name: counts[name] for name in WORK}
    failed = []
    print(f"{'count':26} {'measured':>12} {'committed':>12}")
    for name, value in work.items():
        print(f"{name:26} {value:>12,} {WORK[name]:>12,}")
        if value != WORK[name]:
            failed.append(f"{name} {value:,} != {WORK[name]:,}")
    for layer, value in bytecodes.items():
        expected = BYTECODES.get(layer, 0)
        print(f"{layer + ' bytecodes':26} {value:>12,} {expected:>12,}")
        if abs(value - expected) > BYTECODE_SLACK * expected:
            failed.append(
                f"{layer} bytecodes {value:,} not within "
                f"{BYTECODE_SLACK:.0%} of {expected:,} "
                f"({value / max(expected, 1) - 1:+.1%})"
            )
    total, committed = sum(bytecodes.values()), sum(BYTECODES.values())
    print(f"{'src/repro bytecodes':26} {total:>12,} {committed:>12,}")
    if counts["check.jobs"] != len(picked):
        failed.append(f"check.jobs {counts['check.jobs']} != {len(picked)}")
    if counts["check.mismatches"]:
        failed.append(f"check.mismatches {counts['check.mismatches']} != 0")
    if not counts["mitigation.victim_refreshes"]:
        failed.append("mitigation.victim_refreshes == 0")
    for detail in book.mismatch_detail:
        print(f"mismatch: {detail}", file=sys.stderr)
    if failed:
        print("count gate failed:", *failed, sep="\n  ", file=sys.stderr)
        literals = (_literal("WORK", work), _literal("BYTECODES", bytecodes))
        print("measured:", *literals, sep="\n", file=sys.stderr)
        return 1
    return 0


def _literal(name: str, values: dict) -> str:
    body = "".join(f'    "{key}": {value:_},\n' for key, value in values.items())
    return f"{name} = {{\n{body}}}"


if __name__ == "__main__":
    sys.exit(main())
