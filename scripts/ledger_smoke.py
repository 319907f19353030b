"""Benchmark ledger smoke: install the traced ledger, run a few jobs, and
check that it still sees the simulator.

The benchmark's traced runs (``perfbench/run.py --trace 1``) wrap
simulator entry points by name and cross-check the counts they record
against each job's own ``SimResult``.  Installing the wrappers fails
when a wrapped name is gone; this script also catches a wrapper that
installs but no longer observes anything (event pops that bypass
``EventQueue.pop``/``pop_at``, commands reaching ``DramDevice.issue``
in a form the ledger cannot classify).  It runs the first fig5-attack
mix's ``none``, ``cbt`` and ``blockhammer`` jobs (a few seconds) and
asserts:

* every job was cross-checked, with no mismatch;
* DRAM commands and victim refreshes were counted.

Run from the repository root::

    PYTHONPATH=src:perfbench python scripts/ledger_smoke.py
"""

from __future__ import annotations

import sys

import ledger
from sweeps import WORKLOADS, declare

MECHANISMS = ("none", "cbt", "blockhammer")
SEED = 1


def main() -> int:
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
    parallel.run_jobs(picked, 1, cache=False, on_error="raise")

    counts = book.counts
    checks = {
        "check.jobs > 0": counts["check.jobs"] > 0,
        "check.mismatches == 0": counts["check.mismatches"] == 0,
        "dram.commands > 0": counts["dram.commands"] > 0,
        "mitigation.victim_refreshes > 0": counts["mitigation.victim_refreshes"] > 0,
    }
    shown = ("check.jobs", "check.mismatches", "dram.commands", "mitigation.victim_refreshes")
    print(" ".join(f"{name}={counts[name]}" for name in shown))
    for detail in book.mismatch_detail:
        print(f"mismatch: {detail}", file=sys.stderr)
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        print(f"ledger smoke failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
