"""Import-footprint guard: the simulation path loads no numpy or scipy.

Only the Section 5 LP (``prove_safety`` → ``_solve_lp``) needs scipy,
and it imports it lazily.  A fresh interpreter imports the package and
the CLI, declares a Figure 5 job list, runs one short job, and checks
that neither heavy library was loaded; it then runs the security proof
to show the lazy import still works.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = textwrap.dedent(
    """
    import sys

    import repro
    import repro.harness.cli
    from repro.harness.experiments import mix_sweep_jobs
    from repro.harness.parallel import execute_job
    from repro.harness.runner import HarnessConfig
    from repro.workloads.mixes import attack_mixes

    hcfg = HarnessConfig(
        scale=2048, instructions_per_thread=500, warmup_ns=500.0, max_time_ns=2_000.0
    )
    jobs = mix_sweep_jobs(hcfg, attack_mixes(1), ["blockhammer"])
    result = execute_job(jobs[1])
    assert result.result.threads, "job produced no thread results"

    heavy = sorted(
        name for name in sys.modules if name.split(".")[0] in ("numpy", "scipy")
    )
    assert not heavy, f"simulation path loaded {heavy[:5]}"

    from repro.core.config import BlockHammerConfig

    proof = repro.prove_safety(BlockHammerConfig.for_nrh(32768))
    assert proof.safe
    assert "scipy.optimize" in sys.modules
    print("ok", proof.lp_max_activations)
    """
)


def test_simulation_path_imports_no_numpy_or_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.split() == ["ok", "16383.0"]
