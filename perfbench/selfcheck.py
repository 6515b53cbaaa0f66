"""Quick end-to-end self-check of the benchmark, in well under a minute.

    python3 perfbench/selfcheck.py

It runs ``run.py`` on the tiny workloads, untraced and traced, and checks
that the printed metrics are exactly those BENCHMARK.json declares, that
the correctness gate passes a green run and rejects one with an injected
failure, that the tracer saw the calls it wraps, and that ``run.py``
refuses to run without the program's sources.  Exits 0 when all hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from run import END_TO_END, HERE, ROOT
from tracer import SUITE_NAMES, layer_metrics
from workloads import MEASURED

sys.path.insert(0, str(ROOT / "src"))


def _require(ok: bool, what) -> None:
    if not ok:
        raise SystemExit(f"selfcheck failed: {what}")


def _bench(*args: str, cwd=ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc.returncode, proc.stdout


def _result(*args: str) -> dict:
    code, out = _bench(*args)
    _require(code == 0, out)
    return json.loads(out.splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _require([w["name"] for w in spec["workloads"]] == list(MEASURED), "workload names")
    _require({m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END, "end-to-end metrics")
    empty = {"spans": [], "counts": {}, "distinct": {}}
    layers = {name: unit for name, (_, unit) in layer_metrics(empty, {}, 1.0, 1.0).items()}
    _require({m["name"]: m["unit"] for m in spec["per_layer"]} == layers, "per-layer metrics")

    from domaincheck import suites

    _require(SUITE_NAMES == suites.suite_names(), "tracer.SUITE_NAMES is out of date")

    plain = _result("--workload", "tiny", "--seed", "3", "--seconds", "1", "--trace", "0")
    _require(plain["correct"] and plain["failed"] == 0 and plain["attempted"] > 0, plain)
    _require({k: v["unit"] for k, v in plain["metrics"].items()} == END_TO_END, plain)
    _require(all(v["value"] > 0 for v in plain["metrics"].values()), plain)

    traced = _result("--workload", "tiny", "--seed", "3", "--seconds", "1", "--trace", "1")
    _require(traced["correct"], traced)
    metrics = {k: v["value"] for k, v in traced["metrics"].items()}
    _require(metrics.keys() == layers.keys(), "traced metric names")
    for name in (
        "suites.sidenat.wall_s",
        "convergence.converges_liminf.calls",
        "suites.liminf-to-family.sampled",
        "trace.overhead_ratio",
    ):
        _require(metrics[name] > 0, name)
    for name in ("convergence.derive_convergence_topology.calls", "rudin.is_directed_family.calls"):
        _require(metrics[name] == 0, name)

    broken = _result("--workload", "tiny-broken", "--seed", "3", "--seconds", "1", "--trace", "0")
    _require(not broken["correct"] and broken["failed"] >= 1, broken)

    bare = HERE / "out" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        code, out = _bench("--workload", "tiny", "--seed", "3", "--seconds", "1", cwd=bare)
    finally:
        shutil.rmtree(bare)
    _require(code != 0 and not out.strip(), (code, out))

    print("selfcheck ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
