"""Benchmark runner for domaincheck.

    python3 perfbench/run.py --workload all-4 --seed 7 --seconds 30 --trace 0

Run it from the root of a checkout; it builds nothing and imports nothing
from domaincheck itself.  Every measurement is ``child.py`` in a fresh
interpreter, started only after the previous one has exited: a closed
loop with one caller, as a user waiting on ``domaincheck verify``.

``--trace 0`` runs rounds of ``SETUPS_PER_ROUND`` set-ups and one workload
execution until the next round would end after ``--seconds``.
``setup_s`` is the median over the set-ups; ``wall_s``, ``peak_rss_mb``
and ``cases`` are medians over the executions.  Both timings are given
at a fixed reference host speed: each child times a fixed probe as it
runs (``hostspeed.py``), and its time is scaled by the reference probe
time over its own.

``--trace 1`` runs the workload untraced, traced, traced and untraced,
checks that all four give the same report bytes and operation counts,
prints the per-layer metrics and writes the span table to
``perfbench/out/``.

Every run passes through the correctness gate: exit code 0, no failures,
case counts at least the floors in ``baseline.json``, identical report
bytes across the runs of one seed, and on the CLI aggregate the
``coverage:all-ops`` gate.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import layer_metrics  # noqa: E402
from workloads import WORKLOADS, Workload, program_seed  # noqa: E402

SETUPS_PER_ROUND = 5  # per workload execution
# A typical mean time of ``hostspeed.probe()`` on the host the benchmark
# was defined on (2-vCPU x86_64 VM, Python 3.11.7).  Timings are scaled
# to it, so it fixes their unit; it must not change between commits.
PROBE_REFERENCE_S = 0.00045
# Children still running this long after the runner started are killed,
# so the runner exits within 180 seconds.
DEADLINE_S = 170.0
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "cases": "count"}


@dataclass
class Child:
    wall: float  # seconds from spawning the process until it exited
    returncode: int | None  # None when it was killed at the deadline
    data: dict | None  # the JSON object it printed last, if any
    stderr: str


def spawn(workload: str, seed: int, mode: str, deadline: float) -> Child:
    cmd = [sys.executable, "-I", str(HERE / "child.py"), workload, str(seed), mode]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(deadline - t0, 1.0)
        )
    except subprocess.TimeoutExpired:
        return Child(time.perf_counter() - t0, None, None, "killed at the deadline")
    wall = time.perf_counter() - t0
    data = None
    lines = proc.stdout.splitlines()
    if lines:
        try:
            data = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return Child(wall, proc.returncode, data, proc.stderr)


class Gate:
    """Correctness gate and failure ledger of one benchmark run.

    ``attempted`` counts verified cases plus runs that reported nothing;
    ``failed`` counts failed cases plus runs that crashed or exited
    nonzero without reporting a failure.
    """

    def __init__(self, workload: Workload, seed: int, baseline: dict) -> None:
        self.workload = workload
        self.seed = program_seed(seed)
        recorded = baseline["workloads"].get(workload.name, {})
        self.floors: dict[str, int] = recorded.get("cases", {}).get(str(self.seed), {})
        self.corpus_size = recorded.get("corpus_size")
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.reports: dict[str, str] | None = None
        self.oplog: dict[str, int] | None = None

    def check_setup(self, child: Child) -> None:
        data = child.data or {}
        size = data.get("corpus_size")
        if child.returncode != 0 or size != self.corpus_size or not data.get("probe_s"):
            self.problems.append(
                f"set-up gave corpus size {size} (exit {child.returncode}), "
                f"expected {self.corpus_size}: {_tail(child.stderr)}"
            )

    def check(self, child: Child) -> None:
        if child.data is None or "reports" not in child.data:
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"run crashed (exit {child.returncode}): {_tail(child.stderr)}")
            return
        reports = child.data["reports"]
        failures = 0
        for suite, text in reports.items():
            rep = json.loads(text)
            self.attempted += rep["cases"]
            failures += len(rep["failures"])
            if rep["failures"]:
                self.problems.append(f"{suite}: {len(rep['failures'])} failures, first {rep['failures'][0]}")
            if rep["seed"] != self.seed or rep["passed"] != rep["cases"] - len(rep["failures"]):
                self.problems.append(f"{suite}: inconsistent report {rep}")
            floor = self.floors.get(suite)
            if floor is None or rep["cases"] < floor:
                self.problems.append(f"{suite}: {rep['cases']} cases, recorded floor {floor}")
        self.failed += failures
        if child.returncode != 0 and not failures:
            self.failed += 1
            self.problems.append(f"exit {child.returncode} without failures: {_tail(child.stderr)}")
        if set(reports) != set(self.floors):
            self.problems.append(f"reports for {sorted(reports)}, floors for {sorted(self.floors)}")
        if self.workload.via_cli and child.data["missing_ops"]:
            self.problems.append(f"coverage:all-ops missed {child.data['missing_ops']}")
        if self.reports is None:
            self.reports, self.oplog = reports, child.data["oplog"]
        else:
            if reports != self.reports:
                self.problems.append("report bytes differ between runs of one seed")
            if child.data["oplog"] != self.oplog:
                self.problems.append("oplog.call_counts() differ between runs of one seed")


def _tail(text: str, lines: int = 5) -> str:
    return " | ".join(text.strip().splitlines()[-lines:])


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _describe(name: str, values: list[float], unit: str) -> str:
    if not values:
        return f"{name:<12} no values"
    each = " ".join(f"{v:.4g}" for v in values)
    return f"{name:<12} median {_median(values):.6g} {unit}  n={len(values)}: {each}"


def _scaled(child: Child) -> float:
    """Seconds ``child`` took, less its probes, at the reference host speed.

    The probes paused the child's work while they ran, so their time is
    taken off the wall time; the rest is scaled by the reference probe
    time over the mean probe time of this child.
    """
    probes = child.data["probe_s"]
    return (child.wall - sum(probes)) * PROBE_REFERENCE_S / statistics.fmean(probes)


def measure(workload: Workload, seed: int, seconds: int, gate: Gate, deadline: float) -> dict:
    """End-to-end metrics of one untraced run.

    Rounds of ``SETUPS_PER_ROUND`` set-ups and one workload execution repeat
    until the next round would end after ``seconds``.
    """
    # The first set-up compiles the bytecode caches, which users pay once.
    gate.check_setup(spawn(workload.name, seed, "setup", deadline))
    setups: list[Child] = []
    runs: list[Child] = []
    rounds: list[float] = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for _ in range(SETUPS_PER_ROUND):
            child = spawn(workload.name, seed, "setup", deadline)
            gate.check_setup(child)
            setups.append(child)
        child = spawn(workload.name, seed, "run", deadline)
        gate.check(child)
        if child.data and not child.data.get("probe_s"):
            gate.problems.append("the execution took no host-speed probes")
        runs.append(child)
        now = time.perf_counter()
        rounds.append(now - round_start)
        typical = _median(rounds)
        # Stop after a failed run, or when the next round would overrun.
        if gate.problems or now - start + typical > seconds or now + typical > deadline:
            break
    if gate.problems:
        return {name: (0.0, unit) for name, unit in END_TO_END.items()}
    values = {
        "wall_s": [_scaled(c) for c in runs],
        "setup_s": [_scaled(c) for c in setups],
        "peak_rss_mb": [c.data["peak_rss_kb"] / 1024 for c in runs],
        "cases": [sum(json.loads(t)["cases"] for t in c.data["reports"].values()) for c in runs],
    }
    children = runs + setups
    print(_describe("unscaled wall_s", [c.wall for c in runs], "s"))
    print(_describe("unscaled setup_s", [c.wall for c in setups], "s"))
    print(_describe("probe_s", [statistics.fmean(c.data["probe_s"]) for c in children], "s"))
    for name, unit in END_TO_END.items():
        print(_describe(name, values[name], unit))
    if gate.oplog is not None:
        print(f"oplog.calls_total {sum(gate.oplog.values())} (exact: one run per fresh process)")
    # Each child's wall time and probe times, from which its value was scaled.
    raw = {kind: [[c.wall, c.data["probe_s"]] for c in kids] for kind, kids in (("setups", setups), ("runs", runs))}
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / f"measure-{workload.name}-seed{seed}.json").write_text(json.dumps(raw) + "\n")
    return {name: (_median(values[name]), unit) for name, unit in END_TO_END.items()}


def trace(workload: Workload, seed: int, gate: Gate, deadline: float) -> dict:
    """Per-layer metrics from a traced run, checked against untraced ones.

    Untraced and traced executions alternate as untraced, traced, traced,
    untraced, so that a drift in the host's speed weighs on both sides
    alike; the walls reported are the means of each side.
    """
    walls: dict[str, list[float]] = {"run": [], "trace": []}
    traced = None
    for mode in ("run", "trace", "trace", "run"):
        child = spawn(workload.name, seed, mode, deadline)
        gate.check(child)
        walls[mode].append(child.wall)
        if mode == "trace" and traced is None:
            traced = child
    dump = (traced.data or {}).get("trace", {"spans": [], "counts": {}, "distinct": {}})
    oplog = (traced.data or {}).get("oplog", {})
    metrics = layer_metrics(dump, oplog, statistics.fmean(walls["run"]), statistics.fmean(walls["trace"]))
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload.name}-seed{seed}.json"
    path.write_text(
        json.dumps({"workload": workload.name, "seed": seed, **dump, "oplog": oplog}, indent=1) + "\n"
    )
    by_self = sorted(dump["spans"], key=lambda row: -row[4])[:12]
    print(f"spans written to {path.relative_to(ROOT)}; largest self times:")
    for parent, name, calls, total, own in by_self:
        print(f"  {own:10.4f} s self {total:10.4f} s total {calls:>9} calls  {name}  <- {parent or '(root)'}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    # One core for the runner and its children, so that each child's
    # host-speed probes time the core its work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (ROOT / "src" / "domaincheck" / "__init__.py").is_file():
        sys.stderr.write(f"error: no domaincheck sources under {ROOT / 'src'}\n")
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    workload = WORKLOADS[args.workload]
    gate = Gate(workload, args.seed, json.loads((HERE / "baseline.json").read_text()))
    print(
        f"workload {workload.name} (max size {workload.max_size}, {', '.join(workload.suites)}), "
        f"seed {args.seed} -> program seed {gate.seed}, trace {args.trace}"
    )
    if args.trace:
        metrics = trace(workload, args.seed, gate, deadline)
    else:
        metrics = measure(workload, args.seed, args.seconds, gate, deadline)
    print(f"failed_share {gate.failed}/{gate.attempted}")
    for problem in gate.problems:
        print(f"INCORRECT: {problem}")
    result = {
        "correct": not gate.problems,
        "attempted": max(gate.attempted, 1),
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
