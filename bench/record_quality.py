"""Record the design quality of every panel drop to quality_ref.json.

Run from the root of the repository, once, on the commit whose designs are
the reference:

    python3 bench/record_quality.py

Per workload and panel drop index it stores the Monte Carlo sum SE (None
for a drop whose design stalled) or, for schedule_sweep, the PSA sum MSE at
each tau. run.py fails a drop that falls short of its reference.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402  (pins BLAS threads before numpy loads)
from workloads import QUALITY_REF, WORKLOADS, CheckError  # noqa: E402


def main() -> int:
    reference = {}
    for workload in WORKLOADS.values():
        drops, _, _ = run.run_drops(workload, range(workload.panel_size))
        entry = {}
        for drop in drops:
            if drop.error is not None:
                raise CheckError(f"{workload.name} drop {drop.index} raised {drop.error}")
            summary = workload.check(drop.rows)
            if workload.beamformer is None:
                entry[str(drop.index)] = summary["sum_mse_psa"]
            else:
                entry[str(drop.index)] = summary.get("sum_se_mc")
        reference[workload.name] = entry
        print(f"{workload.name}: {len(entry)} drops")
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True, cwd=BENCH
    ).stdout.strip()
    QUALITY_REF.write_text(
        json.dumps({"commit": commit or "unknown", "workloads": reference}, indent=1) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
