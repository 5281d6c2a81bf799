"""Rewrite golden.py: output digests of the first jobs at the default seed.

    python3 perfbench/freeze.py

Run it only after a change to the benchmark's own job generators. It
refuses to freeze unless every job passes the reference checks in
oracle.py, so the digests never come from unchecked output.
"""

from __future__ import annotations

import sys
from pathlib import Path

import run

FROZEN_JOBS = 100


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    lines = ['"""Output digests of the first jobs of each workload at the default seed.',
             "", "Written by freeze.py from runs that passed every reference check.", '"""',
             "", "DIGESTS = {"]
    run.WORK.mkdir(exist_ok=True)
    folder = run.WORK / "freeze"
    folder.mkdir(exist_ok=True)
    try:
        for workload in run.jobs.WORKLOADS:
            cycles = run.run_jobs(workload, run.DEFAULT_SEED, 0, folder, run.fresh_import)
            results = [r for cycle in cycles for r in cycle][:FROZEN_JOBS]
            found = run.problems(workload, None, results)
            if found:
                print(f"{workload}: {found[:3]}", file=sys.stderr)
                return 1
            lines.append(f"    {workload!r}: [")
            for i in range(0, len(results), 6):
                lines.append("        " + " ".join(f"{r.digest()!r}," for r in results[i:i + 6]))
            lines.append("    ],")
    finally:
        run.shutil.rmtree(folder, ignore_errors=True)
    lines.append("}")
    Path(__file__).with_name("golden.py").write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
