"""Record the case counts that the benchmark's correctness gate holds as floors.

    python3 perfbench/record_baseline.py

Runs every workload once per seed class, one child per core at a time
since nothing is timed here, and writes ``baseline.json``: per workload
the corpus size and, per program seed, the cases of each report.  A workload whose run fails gets no floors, so the gate rejects
it.  Record again only in a change meant to alter case counts, and say
so in that change.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from concurrent.futures import ThreadPoolExecutor

from run import HERE, ROOT, spawn
from workloads import SEED_CLASSES, WORKLOADS


def _commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def _record(name: str, seed: int) -> tuple[str, int, dict | None]:
    child = spawn(name, seed, "run", time.perf_counter() + 3600)
    if child.returncode != 0 or child.data is None:
        return name, seed, None
    reports = {suite: json.loads(text) for suite, text in child.data["reports"].items()}
    if any(rep["failures"] for rep in reports.values()):
        return name, seed, None
    return name, seed, {suite: rep["cases"] for suite, rep in reports.items()}


def main() -> int:
    out: dict = {
        "commit": _commit(),
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "seeds": list(range(SEED_CLASSES)),
        "workloads": {},
    }
    for name in WORKLOADS:
        setup = spawn(name, 0, "setup", time.perf_counter() + 600)
        out["workloads"][name] = {"corpus_size": (setup.data or {}).get("corpus_size"), "cases": {}}
    jobs = [(name, seed) for name in WORKLOADS for seed in range(SEED_CLASSES)]
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        for name, seed, cases in pool.map(lambda job: _record(*job), jobs):
            print(name, seed, cases, flush=True)
            if cases is not None:
                out["workloads"][name]["cases"][str(seed)] = cases
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
