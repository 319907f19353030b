"""Wall-clock speed benchmark: the perf trajectory anchor.

Measures five things and emits ``BENCH_speed.json`` at the repo root:

1. **Canonical Figure 5 sweep** — ``fig5_multicore`` over
   ``--mixes`` mixes per scenario and all paper mechanisms, run
   serially (``workers=1``) and through the process-pool executor
   (``--workers``, default 4).  The two runs must produce *identical*
   rows; the JSON records both times and their ratio.
2. **Cached re-run** — the same sweep through the persistent result
   cache (throwaway directory): a cold run that stores every job, then
   a warm run that must perform **zero** simulations and reproduce the
   rows exactly.
3. **Single-process hot loop** — one attack mix under ``none`` and
   under ``blockhammer``, with events/second derived from
   ``SimResult.events_processed``.
4. **Channel-scaling sweep** — the ``channel_scaling`` driver over
   channels {1, 2, 4} (one mix per scenario, BlockHammer), cold through
   a throwaway result cache and warm again: the warm run must perform
   zero simulations while reproducing the summary/attribution rows
   exactly.
5. **Seed baseline** — the same sweep and single runs executed against
   the repository's seed commit (default: the root commit) in a
   temporary git worktree, giving the honest "vs. seed" speedups.
   ``--no-seed`` skips this and carries the baseline forward from an
   existing ``BENCH_speed.json``.

Run it from the repo root::

    PYTHONPATH=src python benchmarks/bench_speed.py
    PYTHONPATH=src python benchmarks/bench_speed.py --mixes 1 --no-seed

Future PRs regress against the committed ``BENCH_speed.json``: the
``current`` section must not get slower, and ``speedups`` records how
far the optimization work has moved since the seed.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_speed.json"
SEED_WORKTREE = REPO_ROOT / ".bench-seed-tmp"

#: Canonical benchmark configuration (kept small enough to finish in
#: minutes on one core while exercising every hot path).
CANONICAL = {
    "scale": 128.0,
    "paper_nrh": 32768,
    "instructions_per_thread": 20_000,
    "warmup_ns": 20_000.0,
}


def _hcfg():
    from repro.harness.runner import HarnessConfig

    return HarnessConfig(**CANONICAL)


def provenance() -> dict:
    """Where and how this report was produced: numbers in
    ``BENCH_speed.json`` are only comparable across commits when the
    interpreter and host class match, so stamp them.  ``git_dirty``
    marks a report measured on uncommitted tracked changes, whose
    ``git_sha`` names only the commit they sit on (None when git
    status is unavailable)."""
    import platform

    def git(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            ["git", *args], cwd=REPO_ROOT, capture_output=True, text=True, check=False
        )

    head = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "git_sha": head.stdout.strip() or None,
        "git_dirty": bool(status.stdout.strip()) if status.returncode == 0 else None,
    }


def measure_sweep(num_mixes: int, workers: int, cache=None):
    """(elapsed seconds, rows) for the canonical Fig. 5 sweep."""
    from repro.harness.experiments import fig5_multicore

    start = time.perf_counter()
    rows = fig5_multicore(_hcfg(), num_mixes, None, workers=workers, cache=cache)
    return time.perf_counter() - start, rows


def measure_cached_rerun(num_mixes: int, reference_rows):
    """Cold-store then warm-hit sweep through the persistent result
    cache (a throwaway directory): the warm run must perform zero
    simulations and reproduce the reference rows exactly."""
    import shutil
    import tempfile

    from repro.harness import parallel
    from repro.harness.cache import ResultCache

    cache_dir = tempfile.mkdtemp(prefix="bench-repro-cache-")
    try:
        cache = ResultCache(cache_dir)
        cold_s, cold_rows = measure_sweep(num_mixes, workers=1, cache=cache)
        executed_before = parallel.job_executions()
        warm_s, warm_rows = measure_sweep(num_mixes, workers=1, cache=cache)
        warm_sims = parallel.job_executions() - executed_before
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    # warm_s stays unrounded so speedup ratios are computed from the
    # true elapsed time; the report rounds display fields only.
    return {
        "cold_store_s": round(cold_s, 2),
        "warm_s": warm_s,
        "warm_simulations_executed": warm_sims,
        "rows_identical": cold_rows == warm_rows == reference_rows,
    }


def measure_channel_sweep(channel_counts=(1, 2, 4)):
    """Cold-store then warm-replay the channel-scaling study through a
    throwaway result cache; the warm run must perform zero simulations
    and reproduce the rows exactly."""
    import shutil
    import tempfile

    from repro.harness import parallel
    from repro.harness.cache import ResultCache
    from repro.harness.experiments import channel_scaling

    cache_dir = tempfile.mkdtemp(prefix="bench-repro-chansweep-")
    kwargs = dict(
        channel_counts=tuple(channel_counts),
        num_mixes=1,
        mechanisms=["blockhammer"],
        workers=1,
    )
    try:
        cache = ResultCache(cache_dir)
        start = time.perf_counter()
        cold = channel_scaling(_hcfg(), cache=cache, **kwargs)
        cold_s = time.perf_counter() - start
        executed_before = parallel.job_executions()
        start = time.perf_counter()
        warm = channel_scaling(_hcfg(), cache=cache, **kwargs)
        warm_s = time.perf_counter() - start
        warm_sims = parallel.job_executions() - executed_before
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return {
        "channel_counts": list(channel_counts),
        "cold_store_s": round(cold_s, 2),
        "warm_s": round(warm_s, 4),
        "warm_simulations_executed": warm_sims,
        "rows_identical": warm == cold,
        "attribution_rows": len(cold["attribution"]),
    }


def measure_single_runs(repeats: int = 5):
    """Hot-loop metrics from one attack mix per mechanism of interest.

    Best-of-N with a discarded warm-up run: this box is a noisy shared
    single CPU and these sub-second runs land right after the sweep
    churned it, so a single sample regularly swings ±10%.  The minimum
    of five back-to-back runs is the stable figure (simulations are
    deterministic — every repeat does identical work).
    """
    from repro.harness.runner import Runner
    from repro.workloads.mixes import attack_mixes

    runner = Runner(_hcfg())
    mix = attack_mixes(1)[0]
    out = {}
    for mechanism in ("none", "blockhammer"):
        runner.run_mix(mix, mechanism)  # warm trace/mapping caches
        best = float("inf")
        outcome = None
        for _ in range(repeats):
            start = time.perf_counter()
            outcome = runner.run_mix(mix, mechanism)
            best = min(best, time.perf_counter() - start)
        events = getattr(outcome.result, "events_processed", 0)
        out[mechanism] = {
            "run_s": round(best, 3),
            "events": events,
            "events_per_sec": round(events / best) if events else None,
        }
    return out


# ----------------------------------------------------------------------
# Seed baseline (runs inside a worktree of the seed commit).
# ----------------------------------------------------------------------
_CHILD = r"""
import json, sys, time
cfg = json.loads(sys.argv[1])
num_mixes = cfg.pop("num_mixes")
from repro.harness.runner import HarnessConfig, Runner
from repro.harness.experiments import fig5_multicore
from repro.workloads.mixes import attack_mixes
hcfg = HarnessConfig(**cfg)
start = time.perf_counter()
rows = fig5_multicore(hcfg, num_mixes, None)
sweep_s = time.perf_counter() - start
runner = Runner(hcfg)
mix = attack_mixes(1)[0]
single = {}
for mechanism in ("none", "blockhammer"):
    start = time.perf_counter()
    outcome = runner.run_mix(mix, mechanism)
    single[mechanism] = {"run_s": round(time.perf_counter() - start, 3)}
print(json.dumps({"sweep_serial_s": round(sweep_s, 2), "single": single}))
"""


def resolve_seed_rev(explicit: str | None) -> str:
    if explicit:
        return explicit
    root = subprocess.run(
        ["git", "rev-list", "--max-parents=0", "HEAD"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    return root.stdout.split()[0]


def measure_seed(seed_rev: str, num_mixes: int):
    """Time the seed commit on the same workload via a temp worktree."""
    subprocess.run(
        ["git", "worktree", "add", "--force", str(SEED_WORKTREE), seed_rev],
        cwd=REPO_ROOT,
        check=True,
        capture_output=True,
    )
    try:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SEED_WORKTREE / "src")
        cfg = dict(CANONICAL, num_mixes=num_mixes)
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD, json.dumps(cfg)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["rev"] = seed_rev
        return result
    finally:
        subprocess.run(
            ["git", "worktree", "remove", "--force", str(SEED_WORKTREE)],
            cwd=REPO_ROOT,
            check=False,
            capture_output=True,
        )


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--mixes", type=int, default=2, help="mixes per scenario")
    parser.add_argument("--seed-rev", default=None, help="git rev of the seed baseline")
    parser.add_argument(
        "--no-seed",
        action="store_true",
        help="skip the seed worktree run; reuse the baseline already in --out",
    )
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    print(f"canonical fig5 sweep: {args.mixes} mixes/scenario, all paper mechanisms")
    # cache=False: the timed sweeps must measure simulations even when
    # the user has REPRO_CACHE exported; only measure_cached_rerun
    # (throwaway directory) exercises the cache path.
    serial_s, serial_rows = measure_sweep(args.mixes, workers=1, cache=False)
    print(f"  serial      : {serial_s:7.2f} s ({len(serial_rows)} rows)")
    parallel_s, parallel_rows = measure_sweep(
        args.mixes, workers=args.workers, cache=False
    )
    print(f"  {args.workers} workers   : {parallel_s:7.2f} s")
    identical = serial_rows == parallel_rows
    print(f"  identical rows: {identical}")
    cache_stats = measure_cached_rerun(args.mixes, serial_rows)
    print(
        f"  cache       : {cache_stats['cold_store_s']:7.2f} s cold-store, "
        f"{cache_stats['warm_s']:7.3f} s warm "
        f"({cache_stats['warm_simulations_executed']} sims, "
        f"identical={cache_stats['rows_identical']})"
    )
    single = measure_single_runs()
    channel_sweep = measure_channel_sweep()
    print(
        f"  chan sweep  : {channel_sweep['cold_store_s']:7.2f} s cold "
        f"({channel_sweep['channel_counts']} channels, "
        f"{channel_sweep['attribution_rows']} attribution rows), "
        f"{channel_sweep['warm_s']:7.4f} s warm "
        f"({channel_sweep['warm_simulations_executed']} sims, "
        f"identical={channel_sweep['rows_identical']})"
    )

    seed = None
    if args.no_seed:
        if args.out.exists():
            prior = json.loads(args.out.read_text())
            if prior.get("config") == dict(
                CANONICAL, num_mixes_per_scenario=args.mixes
            ):
                seed = prior.get("seed")
            else:
                print(
                    "prior BENCH_speed.json used a different config; "
                    "dropping its seed baseline (re-run without --no-seed)"
                )
    else:
        rev = resolve_seed_rev(args.seed_rev)
        print(f"measuring seed baseline ({rev[:12]}) in a temp worktree ...")
        seed = measure_seed(rev, args.mixes)
        print(f"  seed serial : {seed['sweep_serial_s']:7.2f} s")

    report = {
        "benchmark": "canonical fig5 sweep + single-run hot loop",
        "config": dict(CANONICAL, num_mixes_per_scenario=args.mixes),
        "machine": {"cpu_count": os.cpu_count(), "workers": args.workers},
        "provenance": provenance(),
        "current": {
            "sweep_serial_s": round(serial_s, 2),
            "sweep_parallel_s": round(parallel_s, 2),
            "serial_parallel_identical": identical,
            "cached_rerun": cache_stats,
            "single": single,
            "channel_sweep": channel_sweep,
        },
        "seed": seed,
    }
    speedups = {
        "parallel_vs_serial": round(serial_s / parallel_s, 2),
        # Ratio from the unrounded warm time (rounded for display below).
        "cached_rerun_vs_serial": round(serial_s / max(cache_stats["warm_s"], 1e-6)),
    }
    cache_stats["warm_s"] = round(cache_stats["warm_s"], 4)
    if seed:
        seed_serial = seed["sweep_serial_s"]
        speedups["single_process_vs_seed"] = round(seed_serial / serial_s, 2)
        speedups["sweep_4workers_vs_seed"] = round(seed_serial / parallel_s, 2)
        for mechanism, stats in single.items():
            base = seed.get("single", {}).get(mechanism)
            if base:
                speedups[f"single_run_{mechanism}_vs_seed"] = round(
                    base["run_s"] / stats["run_s"], 2
                )
    report["speedups"] = speedups
    if (os.cpu_count() or 1) < args.workers:
        report["note"] = (
            f"only {os.cpu_count()} CPU(s) available: the {args.workers}-worker "
            "run cannot exceed serial wall-clock on this machine; on a "
            f">= {args.workers}-core host the parallel sweep scales with the "
            "worker count on top of single_process_vs_seed"
        )

    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {args.out}")
    print(json.dumps(report["speedups"], indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
