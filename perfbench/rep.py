"""One process of a benchmark run.

Run by ``perfbench/run.py``; prints one JSON record as its last stdout
line.  Every process starts fresh, as a user's sweep does: the
simulator's process-wide trace and spec memos start empty, and
``setup_s`` includes interpreter start.

* ``--mode cold`` declares the job set, runs it cold into the empty
  result cache at ``--cache``, checks the outputs, and replays it warm
  a few times.  ``--trace 1`` records the per-layer ledger.
* ``--mode warm`` declares the same job set and replays it from the
  cache a cold process filled, as a user's re-run does.
* ``--scaled 1`` reports host times scaled to a reference host speed
  (see :func:`probe`); otherwise they are plain wall seconds.

    python3 perfbench/rep.py --mode cold --workload fig5-attack --seed 1 \\
        --trace 0 --t0 <time.monotonic() before launch> --cache <dir>
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import statistics
import sys
import time

#: Warm replays per process.
REPLAYS = {"cold": 3, "warm": 10}
#: Iterations of one probe loop, and its time on the reference host
#: that scaled seconds refer to (a 2-CPU x86-64 VM, Python 3.11).
PROBE_ITERATIONS = 50_000
REFERENCE_PROBE_S = 0.006
#: Probes taken right after set-up, to scale ``setup_s``.
SETUP_PROBES = 5


def probe() -> float:
    """Seconds a fixed pure-Python loop (dict stores, integer
    arithmetic; no simulator code) takes now: the host's speed at this
    moment.  On shared hosts that speed swings by half within tens of
    seconds, and a simulated job's time tracks it: over five minutes,
    10-second medians of one job ranged 0.144-0.238 s while the job's
    time per probe stayed within 5.7-6.9.  Dividing host times by the
    probes taken beside them removes that swing, and the simulator's own
    speed still shows in full."""
    start = time.perf_counter()
    table = {}
    total = 0
    for i in range(PROBE_ITERATIONS):
        table[i & 1023] = total
        total += (i * 7) % 13
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=tuple(REPLAYS), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--cache", required=True)
    parser.add_argument("--scaled", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_dir = pathlib.Path(__file__).resolve().parent
    sys.path.insert(0, str(bench_dir.parent / "src"))
    sys.path.insert(0, str(bench_dir))

    from sweeps import (
        WORKLOADS,
        blockhammer_norms,
        declare,
        fingerprint,
        output_failures,
        try_mix_rows,
    )

    from repro.harness import parallel
    from repro.harness.cache import ResultCache

    workload = WORKLOADS[args.workload]
    hcfg, mixes, jobs = declare(workload, args.seed)
    cache = ResultCache(args.cache)
    setup_s = time.monotonic() - args.t0

    def scale(probes: list[float]) -> float:
        """Factor from wall seconds to reference-host seconds."""
        return REFERENCE_PROBE_S / statistics.fmean(probes) if args.scaled else 1.0

    probes = [probe() for _ in range(SETUP_PROBES)] if args.scaled else []
    record = {"setup_s": setup_s * scale(probes), "attempted": 0, "problems": []}
    problems = record["problems"]

    ledger = None
    if args.trace:
        from ledger import WORKER_LEDGER_ATTR, Ledger, install

        ledger = Ledger()
        install(ledger)

    workers = workload.workers()
    cold_prints = None
    if args.mode == "cold":
        report = parallel.SweepReport()
        pass_probes = [probe()] if args.scaled else []
        execute_job = parallel.execute_job
        if args.scaled and workers == 1:
            # A probe before each job samples the host's speed all
            # through the pass; its time is taken out of ``sweep_s``.
            def probe_then_execute(job):
                pass_probes.append(probe())
                return execute_job(job)

            parallel.execute_job = probe_then_execute
        start = time.perf_counter()
        try:
            results = parallel.run_jobs(
                jobs, workers, cache=cache, on_error="skip", report=report
            )
        finally:
            parallel.execute_job = execute_job
        wall = time.perf_counter() - start - sum(pass_probes[1:])
        if args.scaled:
            pass_probes.append(probe())
        record["sweep_s"] = wall * scale(pass_probes)
        probes += pass_probes
        if ledger is not None:
            for entry in results.values():
                shipped = entry.__dict__.pop(WORKER_LEDGER_ATTR, None)
                if shipped is not None:
                    ledger.merge(shipped)
        record["attempted"] += len(results)
        problems += output_failures(workload, hcfg, mixes, results)
        ok = not any(parallel.failed(entry) for entry in results.values())
        rows = try_mix_rows(workload, hcfg, mixes, results, problems) if ok else None
        norms = blockhammer_norms(rows) if rows is not None else (0.0, 0.0)
        job_walls = [p.wall_s for p in report.profiles if p.status == "executed"]
        record.update(
            instructions=sum(
                entry.result.total_instructions
                for entry in results.values()
                if not parallel.failed(entry)
            ),
            bh_ws_norm=norms[0],
            bh_energy_norm=norms[1],
            job_s_p50=statistics.median(job_walls) if job_walls else 0.0,
            job_s_max=max(job_walls, default=0.0),
        )
        cold_prints = fingerprint(jobs, results if ok else None, rows)
        record.update(cold_prints)

    replay_times = []
    for _ in range(REPLAYS[args.mode]):
        before = parallel.job_executions()
        ahead = probe() if args.scaled else None
        start = time.perf_counter()
        warm = parallel.run_jobs(jobs, workers, cache=cache, on_error="skip")
        wall = time.perf_counter() - start
        if args.scaled:
            beside = [ahead, probe()]
            replay_times.append(wall * scale(beside))
            probes += beside
        else:
            replay_times.append(wall)
        record["attempted"] += 1
        executed = parallel.job_executions() - before
        if executed:
            problems.append(f"warm replay executed {executed} simulation(s)")
            continue
        prints = fingerprint(jobs, warm, try_mix_rows(workload, hcfg, mixes, warm, problems))
        if cold_prints is None:
            record.update(prints)  # run.py compares them across processes
        elif prints != cold_prints:
            problems.append("warm replay returned results unlike the cold pass")
    record["replay_times"] = replay_times
    record["probe_s"] = statistics.median(probes) if probes else None

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    record["peak_rss_mb"] = max(own, children) / 1024.0
    record["ledger"] = ledger.export() if ledger is not None else None
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
