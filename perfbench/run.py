"""The repository benchmark: Figure 5 sweeps, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload fig5-attack --seed 1 --seconds 30 --trace 0

A run starts fresh processes (``perfbench/rep.py``).  A cold process
declares the workload's job set and runs it cold into an empty result
cache; cold processes repeat until ``--seconds`` is spent (at least
one).  Then ``WARM_PROCESSES`` warm processes each declare the job set
again and replay it from the last cold process's cache, as a user's
re-run does.  Every figure reported is a median over processes
(``replay_s``: over all their replays), and host times are scaled to a
reference host speed by probes taken beside them (``rep.probe``).
``--trace 1`` instead alternates an untraced and a traced cold process
and reports the per-layer ledger.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it name every metric with
its unit, the simulated-results digest, and the run's provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("fig5-attack", "fig5-benign", "scaleout-pool")
#: Warm re-run processes per untraced run.
WARM_PROCESSES = 8
#: A process that outlives this is a hang, not a measurement.
REP_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "sweep_s": "s",
    "sim_instr_per_s": "instr/s",
    "setup_s": "s",
    "replay_s": "s",
    "peak_rss_mb": "MB",
    "bh_ws_norm": "ratio",
    "bh_energy_norm": "ratio",
}

LAYER_SELF = (
    "sim",
    "mem.memsystem",
    "mem.controller",
    "mem.scheduler",
    "dram",
    "mitigation",
    "cpu",
    "harness",
)


class RepFailed(RuntimeError):
    pass


def run_rep(mode: str, args, trace: int, cache: pathlib.Path) -> dict:
    """One ``rep.py`` process; returns its record."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [
                sys.executable,
                str(BENCH_DIR / "rep.py"),
                "--mode", mode,
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--trace", str(trace),
                "--t0", repr(t0),
                "--cache", str(cache),
                "--scaled", str(int(not args.trace)),
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=REP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise RepFailed(f"{mode} process exceeded {REP_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RepFailed(f"{mode} process exited with code {proc.returncode}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    if record["problems"]:
        sys.stderr.write(proc.stderr)  # the failed checks' tracebacks
    return record


def provenance() -> dict:
    """Interpreter, host and source revision the figures came from."""
    sha = dirty = None
    try:
        if not (ROOT / ".git").exists():
            raise FileNotFoundError("not a git checkout")
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        if head.returncode == 0:
            sha = head.stdout.strip()
            status = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT,
                capture_output=True,
                text=True,
            )
            dirty = bool(status.stdout.strip()) if status.returncode == 0 else None
    except OSError:
        pass  # not a git checkout, or no git: revision unknown
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "git_dirty": dirty,
    }


def end_to_end(cold: list[dict], warm: list[dict]) -> dict:
    def med(name: str, records: list[dict]) -> float:
        return statistics.median(record[name] for record in records)

    return {
        "sweep_s": med("sweep_s", cold),
        "sim_instr_per_s": statistics.median(
            record["instructions"] / record["sweep_s"] for record in cold
        ),
        "setup_s": med("setup_s", cold + warm),
        "replay_s": statistics.median(
            sample for record in warm for sample in record["replay_times"]
        ),
        "peak_rss_mb": med("peak_rss_mb", cold),
        "bh_ws_norm": med("bh_ws_norm", cold),
        "bh_energy_norm": med("bh_energy_norm", cold),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    """Per-layer figures: self times are medians over traced processes,
    counts come from one (they repeat exactly), job times from the
    untraced processes' sweep profiles."""
    ledgers = [record["ledger"] for record in traced]
    counts = ledgers[0]["counts"]

    def med_self(layer: str) -> float:
        return statistics.median(ledger["self_s"][layer] for ledger in ledgers)

    def med_incl(name: str) -> float:
        return statistics.median(ledger["incl_s"][name] for ledger in ledgers)

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    metrics = {f"{layer}.self_s": (med_self(layer), "s") for layer in LAYER_SELF}
    metrics.update(
        {
            "sim.events": (counts["sim.events"], "count"),
            "mem.controller.batches": (counts["mem.controller.batches"], "count"),
            "mem.controller.enqueue_refused_frac": (
                ratio(counts["mem.controller.enqueue_refused"], counts["mem.controller.enqueues"]),
                "frac",
            ),
            "mem.scheduler.selects": (counts["mem.scheduler.selects"], "count"),
            "mem.scheduler.commands_per_select": (
                ratio(counts["dram.commands"], counts["mem.scheduler.selects"]),
                "cmd/select",
            ),
            "dram.commands": (counts["dram.commands"], "count"),
            "dram.acts": (counts["dram.acts"], "count"),
            "dram.row_hit_rate": (
                ratio(max(counts["dram.columns"] - counts["dram.acts"], 0), counts["dram.columns"]),
                "frac",
            ),
            "mitigation.act_checks": (counts["mitigation.act_checks"], "count"),
            "mitigation.act_throttled_frac": (
                ratio(counts["mitigation.act_throttled"], counts["mitigation.act_checks"]),
                "frac",
            ),
            "mitigation.victim_refreshes": (counts["mitigation.victim_refreshes"], "count"),
            "cpu.wakes": (counts["cpu.wakes"], "count"),
            "workloads.trace_build_s": (med_self("workloads"), "s"),
            "workloads.trace_builds": (counts["workloads.trace_builds"], "count"),
            "harness.cache_get_s": (med_incl("harness.cache_get_s"), "s"),
            "harness.cache_put_s": (med_incl("harness.cache_put_s"), "s"),
            "harness.cache_hit_frac": (
                ratio(counts["harness.cache_hits"], counts["harness.cache_gets"]),
                "frac",
            ),
            "harness.jobs_executed": (counts["harness.jobs_executed"], "count"),
            "harness.job_s_p50": (statistics.median(r["job_s_p50"] for r in plain), "s"),
            "harness.job_s_max": (statistics.median(r["job_s_max"] for r in plain), "s"),
            "trace_overhead": (
                statistics.median(r["sweep_s"] for r in traced)
                / statistics.median(r["sweep_s"] for r in plain),
                "ratio",
            ),
        }
    )
    return metrics


def measure(args, tmp: pathlib.Path):
    """Run cold processes for ``args.seconds`` (at least one round),
    then the warm ones; returns (untraced, traced, warm) records."""
    plain: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    while True:
        begun = time.monotonic()
        cache = tmp / f"cache-{len(plain)}"
        plain.append(run_rep("cold", args, 0, cache))
        if args.trace:
            traced.append(run_rep("cold", args, 1, tmp / f"traced-{len(traced)}"))
        round_s = time.monotonic() - begun
        if time.monotonic() - start + round_s > args.seconds:
            break
    warm = []
    if not args.trace:
        warm = [run_rep("warm", args, 0, cache) for _ in range(WARM_PROCESSES)]
    return plain, traced, warm


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    try:
        plain, traced, warm = measure(args, tmp)
    except RepFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    records = plain + traced + warm
    problems = [p for record in records for p in record["problems"]]
    attempted = sum(record["attempted"] for record in records)
    digests = {record.get("digest") for record in records}
    rows_digests = {record.get("rows_digest") for record in records}
    attempted += 1  # the agreement check across processes
    if len(digests) != 1 or len(rows_digests) != 1 or None in digests | rows_digests:
        problems.append(
            f"simulated results differ between processes: {sorted(map(str, digests))}"
        )
    for record in traced:
        ledger = record["ledger"]
        attempted += ledger["counts"]["check.jobs"] + 1
        problems += ledger["mismatch_detail"]
        if ledger["counts"] != traced[0]["ledger"]["counts"]:
            problems.append("traced processes disagree on the per-layer counts")

    if args.trace:
        metrics = per_layer(plain, traced)
    else:
        metrics = {
            name: (value, END_TO_END_UNITS[name])
            for name, value in end_to_end(plain, warm).items()
        }
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "processes": {"cold": len(plain), "traced": len(traced), "warm": len(warm)},
                "sweep_s_per_process": [record["sweep_s"] for record in plain],
                "probe_s_per_process": [record["probe_s"] for record in records],
                "digest": sorted(map(str, digests))[0],
                "provenance": provenance(),
                "problems": problems,
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": len(problems),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
