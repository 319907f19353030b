"""The benchmark's workloads: Figure 5 job sweeps declared through the
harness, and the figures and checks computed from their results.

Every workload is a :func:`~repro.harness.experiments.mix_sweep_jobs`
job set — the ``none`` baseline, one run per mechanism, and the benign
alone-IPC singles — over mixes drawn with ``master_seed = seed`` and run
under ``HarnessConfig(seed=seed)``.  Runs are time-capped at
``WARMUP_NS + MEASURE_NS``, so host work per seed stays close to
constant while the mixes change.  See README.md for why each workload
exists and which layers it exercises.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import statistics
import traceback
from dataclasses import dataclass

from repro.dram.spec import DDR4_2400
from repro.harness.experiments import assemble_mix_rows, mix_sweep_jobs
from repro.harness.parallel import dedupe_jobs, failed, mix_key
from repro.harness.runner import HarnessConfig
from repro.mitigations.registry import PAPER_MECHANISMS
from repro.workloads.mixes import attack_mixes, benign_mixes

#: Simulated time of every run (ns): warmup, then the measured window.
#: Much shorter windows leave the slowest apps (freescale, IPC ~0.01)
#: retiring nothing, and a zero-IPC baseline breaks the normalization.
WARMUP_NS = 3_000.0
MEASURE_NS = 12_000.0
#: Per-thread instruction targets.  Compute-bound threads reach them
#: early and stop, so they do not swamp the instruction count (at
#: IPC ~4 a thread otherwise retires 10x what a memory-bound one does,
#: at almost no host cost); memory-bound threads run to the window's
#: end, so most runs still span the whole window.
ATTACK_TARGET = 30_000
BENIGN_TARGET = 20_000


@dataclass(frozen=True)
class Workload:
    name: str
    scale: float
    attack_mixes: int
    benign_mixes: int
    mechanisms: tuple[str, ...]
    instructions: int
    channels: int = 1
    ranks: int = 1
    pooled: bool = False

    def hcfg(self, seed: int) -> HarnessConfig:
        return HarnessConfig(
            scale=self.scale,
            base_spec=dataclasses.replace(DDR4_2400, ranks=self.ranks),
            num_channels=self.channels,
            instructions_per_thread=self.instructions,
            warmup_ns=WARMUP_NS,
            max_time_ns=MEASURE_NS,
            seed=seed,
        )

    def mixes(self, seed: int) -> list:
        return attack_mixes(self.attack_mixes, master_seed=seed) + benign_mixes(
            self.benign_mixes, master_seed=seed
        )

    def workers(self) -> int:
        return len(os.sched_getaffinity(0)) if self.pooled else 1


# Scale 2048 (sim NRH 16, 31 us refresh window) lets an attacker flip
# bits in the ``none`` runs within a 15 us simulation; scale 128 (the
# repo's canonical) keeps benign rows far from the blacklist threshold.
# Mix counts are as large as a ~25 s cold pass allows: Table 8 apps
# range from IPC ~0.01 to ~4, so the instructions retired per host
# second depend on which apps a seed draws, and only more mixes even
# that out (fig5-attack's sim_instr_per_s spread over five seeds was
# 0.13 with 10 mixes and 0.11 with 16; fig5-benign's 0.13 with 12 and
# 0.04 with 20).  The pooled workload runs attack mixes only: at its scale,
# benign mixes often reach their targets early and end, so its host
# work varied 19% (interquartile) between seeds with them and 4%
# without.
WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "fig5-attack", 2048.0, attack_mixes=16, benign_mixes=0,
            mechanisms=tuple(PAPER_MECHANISMS), instructions=ATTACK_TARGET,
        ),
        Workload(
            "fig5-benign", 128.0, attack_mixes=0, benign_mixes=20,
            mechanisms=tuple(PAPER_MECHANISMS), instructions=BENIGN_TARGET,
        ),
        Workload(
            "scaleout-pool", 2048.0, attack_mixes=12, benign_mixes=0,
            mechanisms=("blockhammer", "graphene"), instructions=ATTACK_TARGET,
            channels=2, ranks=2, pooled=True,
        ),
    )
}


def declare(workload: Workload, seed: int):
    """(hcfg, mixes, jobs) of one workload at one seed."""
    hcfg = workload.hcfg(seed)
    mixes = workload.mixes(seed)
    return hcfg, mixes, mix_sweep_jobs(hcfg, mixes, list(workload.mechanisms))


# ----------------------------------------------------------------------
# Figures and checks over one sweep's results.
# ----------------------------------------------------------------------
def _job_label(job) -> list:
    if job.kind == "single":
        return ["single", job.app, job.slot, job.mechanism]
    return ["mix", job.mix.name, job.mechanism]


def digest(jobs, results) -> str:
    """sha256 over every simulated statistic of every job, in declared
    order: each ``SimResult`` without ``events_processed`` (a loop-
    mechanics count) plus its energy breakdown."""
    rows = []
    for job in dedupe_jobs(jobs):
        entry = results[job.key]
        result = dataclasses.asdict(entry.result)
        del result["events_processed"]
        rows.append([_job_label(job), result, dataclasses.asdict(entry.energy)])
    text = json.dumps(rows, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def fingerprint(jobs, results, rows) -> dict:
    """Digests of the simulated results and of the Fig. 5 rows assembled
    from them (``rows=None`` where assembly failed); None for a sweep
    with failed jobs (``results=None``)."""
    if results is None:
        return {"digest": None, "rows_digest": None}
    return {
        "digest": digest(jobs, results),
        "rows_digest": hashlib.sha256(repr(rows).encode()).hexdigest(),
    }


def mix_rows(workload: Workload, hcfg, mixes, results) -> list:
    return assemble_mix_rows(hcfg, mixes, list(workload.mechanisms), "bench", results)


def try_mix_rows(workload: Workload, hcfg, mixes, results, problems: list[str]):
    """:func:`mix_rows`, or None with one entry in ``problems`` (and the
    traceback on stderr) where the harness cannot assemble them: a
    failed operation of the sweep, not a crash of the benchmark.
    ``normalized_to`` divides by the ``none`` run's harmonic speedup,
    which is 0 when a benign thread retires nothing in the window
    (fig5-attack at seed 1000: 456.hmmer behind the attacker's full
    queue in mix attack-007)."""
    try:
        return mix_rows(workload, hcfg, mixes, results)
    except Exception as exc:  # noqa: BLE001 - any harness error is a failed op
        message = f"Fig. 5 rows could not be assembled: {type(exc).__name__}: {exc}"
        if message not in problems:
            traceback.print_exc()  # once per process; replays repeat it
        problems.append(message)
        return None


def blockhammer_norms(rows) -> tuple[float, float]:
    """Fig. 5's y-axes for BlockHammer: mean over mixes of weighted
    speedup and DRAM energy, each normalized to the ``none`` run."""
    bh = [row for row in rows if row.mechanism == "blockhammer"]
    return (
        statistics.mean(row.norm.weighted_speedup for row in bh),
        statistics.mean(row.norm_energy for row in bh),
    )


def output_failures(workload: Workload, hcfg, mixes, results) -> list[str]:
    """Failed operations of one cold sweep: any job failure, any
    BlockHammer run with bit-flips, and on an attack workload a ``none``
    run set without a single flip."""
    problems = []
    for key, entry in results.items():
        if failed(entry):
            problems.append(f"job failed: {entry.kind}: {entry.error or key[2:]!r}")
        elif entry.mechanism_name == "blockhammer" and entry.bitflips:
            problems.append(f"blockhammer run with {entry.bitflips} bit-flips: {key[2:]!r}")
    if workload.name == "fig5-attack":
        flips = sum(
            results[mix_key(hcfg, mix, "none")].bitflips
            for mix in mixes
            if not failed(results[mix_key(hcfg, mix, "none")])
        )
        if flips == 0:
            problems.append("attack sweep: the none runs show no bit-flips")
    return problems
