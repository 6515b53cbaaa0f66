"""Alternating parent/change benchmark pairs, written as a ``BENCH_<n>.json``.

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --workload all-4:601-610 --workload suites-5:611-615 --seconds 20 \
        --parent-rev bce3118 --summary "what the change does" --out BENCH_18.json

Before the first run, each checkout's ``src/**/__pycache__`` folders are
deleted, so both sides start from the same state: a checkout whose
bytecode caches came from earlier runs reads a lower ``peak_rss_mb``
than a fresh one.

For each workload and each seed, ``perfbench/run.py --trace 0`` runs once
in each checkout, one after the other: the parent first at the 1st, 3rd,
... seed and the change first at the others, so that a drift in the
host's speed weighs on both sides alike.  Each run's end-to-end metrics
(the JSON object ``run.py`` prints last) are collected per side, and the
file records per metric the runs, the quartiles of each side, the change
of the median in percent, and the pairs the change won (the direction
of "better" is read from the change checkout's ``BENCHMARK.json``).  It
also records whether every run passed the benchmark's correctness gate
and whether the two sides counted the same cases seed by seed.

``--out`` names the file; the repository keeps them at its root as
``BENCH_<n>.json``, numbered after the change they measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """``"601-610"`` or ``"3,7,11"`` (or a mix) as a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def clear_bytecode(checkout: Path) -> None:
    """Delete the ``__pycache__`` folders under ``checkout/src``."""
    for cache in sorted((checkout / "src").rglob("__pycache__")):
        shutil.rmtree(cache)


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``: its last stdout line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "metrics": {}}
    result["returncode"] = proc.returncode
    return result


def _metric(result: dict, name: str) -> float:
    return result["metrics"].get(name, {}).get("value", 0.0)


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def summarize(runs: dict[str, list[dict]], end_to_end: list[dict]) -> dict:
    """Per-metric runs, quartiles, median change and pairs won."""
    metrics = {}
    for spec in end_to_end:
        name = spec["name"]
        values = {side: [_metric(r, name) for r in runs[side]] for side in SIDES}
        lower = spec["better"] == "lower"
        won = sum((c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"]))
        stats = {side: quartiles(values[side]) for side in SIDES}
        base = statistics.median(values["parent"])
        delta = (statistics.median(values["change"]) - base) / base * 100 if base else 0.0
        metrics[name] = {
            "unit": spec["unit"],
            **stats,
            "median_delta_pct": round(delta, 2),
            "pairs_won_by_change": won,
            "runs": {side: [round(v, 4) for v in values[side]] for side in SIDES},
        }
    return metrics


def bench_workload(
    checkouts: dict[str, Path], workload: str, seeds: list[int], seconds: int, end_to_end: list[dict]
) -> dict:
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for i, seed in enumerate(seeds):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            result = run_once(checkouts[side], workload, seed, seconds)
            runs[side].append(result)
            wall = _metric(result, "wall_s")
            print(f"{workload} seed {seed} {side}: correct={result['correct']} wall_s={wall}", flush=True)
    cases = [[_metric(r, "cases") for r in runs[side]] for side in SIDES]
    return {
        "seeds": seeds,
        "pairs": len(seeds),
        "order": "alternating: parent first at the 1st, 3rd, ... seed, change first at the others",
        "all_runs_correct": all(r["correct"] and r["returncode"] == 0 for rs in runs.values() for r in rs),
        "cases_equal_seed_by_seed": cases[0] == cases[1],
        "metrics": summarize(runs, end_to_end),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument(
        "--workload",
        action="append",
        required=True,
        metavar="NAME:SEEDS",
        help="a workload and its seeds, e.g. all-4:601-610; may be repeated",
    )
    parser.add_argument("--seconds", type=int, required=True, help="--seconds of each run.py run")
    parser.add_argument("--parent-rev", required=True, help="the parent commit, as recorded")
    parser.add_argument("--summary", required=True, help="what the change does, as recorded")
    parser.add_argument("--note", action="append", default=[], help="a note to record; may be repeated")
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_<n>.json file to write")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    for checkout in checkouts.values():
        clear_bytecode(checkout)
    workloads = {}
    for item in args.workload:
        name, _, seeds = item.partition(":")
        workloads[name] = bench_workload(checkouts, name, parse_seeds(seeds), args.seconds, spec["end_to_end"])
    record = {
        "change": args.summary,
        "parent": args.parent_rev,
        "machine": f"{os.cpu_count()}-core {platform.machine()}, {platform.system()}",
        "python": platform.python_version(),
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds} --trace 0",
        "program_seed": "S mod 16",
        "workloads": workloads,
        "notes": args.note,
    }
    args.out.write_text(json.dumps(record, indent=1, ensure_ascii=False) + "\n")
    print(f"wrote {args.out}")
    return 0 if all(w["all_runs_correct"] and w["cases_equal_seed_by_seed"] for w in workloads.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
