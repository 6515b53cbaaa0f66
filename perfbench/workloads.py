"""Workloads of the domaincheck benchmark.

Shared by the runner (``run.py``) and the measured child (``child.py``);
importing this module imports nothing from domaincheck.
"""

from __future__ import annotations

from dataclasses import dataclass

# The program seed is the benchmark seed modulo this many classes, so that
# every input the benchmark can generate has exact case counts recorded in
# ``baseline.json`` and the correctness gate can hold each count as a floor.
SEED_CLASSES = 16

SAMPLED = ("liminf-to-family", "waybelow-forces-family", "family-convergence-topological")
ENUMERATED = (
    "interpolation",
    "family-forces-waybelow",
    "continuity-criterion",
    "finite-collapse",
    "family-topology-is-scott",
)


@dataclass(frozen=True)
class Workload:
    name: str
    max_size: int
    # ``("all",)`` runs the CLI aggregate ``verify --suite all``; any other
    # tuple runs ``suites.run_suite`` once per name, in order, in one process.
    suites: tuple[str, ...]

    @property
    def via_cli(self) -> bool:
        return self.suites == ("all",)


def program_seed(seed: int) -> int:
    return seed % SEED_CLASSES


WORKLOADS = {
    w.name: w
    for w in (
        # The measured workloads, named in BENCHMARK.json.
        Workload("all-4", 4, ("all",)),
        Workload("suites-5", 5, SAMPLED + ENUMERATED),
        # Tiny workloads for selfcheck.py: one green, one with the hidden
        # suite that always fails, so the gate must reject it.
        Workload("tiny", 2, ("sidenat", "liminf-to-family")),
        Workload("tiny-broken", 2, ("sidenat", "_inject-failure")),
    )
}

MEASURED = ("all-4", "suites-5")
