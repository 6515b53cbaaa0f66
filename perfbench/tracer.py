"""Outside-in tracer for the benchmark's traced runs.

``install`` rebinds names in domaincheck's modules to wrappers that time
each call, so every call made through those names, from the suites or
from inside the library, opens a span.  Nothing under ``src/`` changes,
and the wrappers sit outside domaincheck's own ``oplog`` wrappers, so the
operation counts of a traced run equal those of an untraced one.

Spans are aggregated in memory per (parent span, span) pair: calls, total
seconds and self seconds, where self time is the span's duration minus
the time of the spans it opened.  ``layer_metrics`` turns one traced
run's aggregate into the per-layer metrics; it imports nothing from
domaincheck, so the runner can use it.
"""

from __future__ import annotations

import time
from collections import Counter
from functools import wraps

from workloads import SAMPLED

# Suite names as ``domaincheck.suites.suite_names()`` gives them; the
# per-layer metric names are fixed, so they are listed here.
SUITE_NAMES = (
    "interpolation",
    "liminf-topology",
    "liminf-to-family",
    "family-forces-waybelow",
    "waybelow-forces-family",
    "finest-topology",
    "family-topology-reduction",
    "family-topology-is-scott",
    "family-convergence-topological",
    "lawson-below-eventual",
    "eventual-liminf-lawson",
    "continuity-criterion",
    "rudin",
    "sidenat",
    "finite-collapse",
    "topology-axioms",
)

# Module attributes wrapped in spans named ``<module>.<attribute>``.
SPANS = {
    "corpus": ("all_corpus",),
    "waybelow": ("set_way_below", "classify"),
    "topology": ("scott_topology", "lawson_topology", "family_liminf_topology"),
    "convergence": (
        "derive_convergence_topology",
        "converges_liminf",
        "converges_family_liminf",
        "converges_topological",
        "is_eventual_liminf",
        "exception_set",
    ),
    "rudin": ("is_directed_family", "extract_directed", "rudin_corollary", "smyth_leq"),
    "suites": ("run_suite", "emit_report", "_sample_net"),
}


class Tracer:
    def __init__(self) -> None:
        # (parent span, span) -> [calls, total seconds, self seconds]
        self.rows: dict[tuple[str, str], list] = {}
        self.counts: Counter[str] = Counter()
        self.distinct: dict[str, set] = {}
        self._stack: list[list] = []  # open spans: [name, seconds of child spans]

    def span(self, name, fn, after=None):
        """Wrap ``fn`` in a span; ``after(args, kwargs, result)`` runs on return."""
        rows, stack, clock = self.rows, self._stack, time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1][0] if stack else ""
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                row = rows.get((parent, name))
                if row is None:
                    row = rows[parent, name] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += dt
                row[2] += dt - frame[1]
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def counted(self, name, fn):
        counts = self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def yields(self, name, gen_fn):
        counts = self.counts

        @wraps(gen_fn)
        def wrapper(*args, **kwargs):
            for item in gen_fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return wrapper

    def dump(self) -> dict:
        return {
            "spans": [[parent, name, *row] for (parent, name), row in sorted(self.rows.items())],
            "counts": dict(self.counts),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
        }


def install(tracer: Tracer) -> None:
    """Rebind domaincheck's names to ``tracer``'s wrappers for this process."""
    from domaincheck import convergence, corpus, rudin, suites, topology, waybelow
    from domaincheck.order import FinitePoset
    from domaincheck.topology import Topology

    modules = {
        "corpus": corpus,
        "waybelow": waybelow,
        "topology": topology,
        "convergence": convergence,
        "rudin": rudin,
        "suites": suites,
    }
    after = {
        "convergence.derive_convergence_topology": _note_derive_input(tracer),
        "rudin.is_directed_family": _note_true(tracer, "rudin.is_directed_family.true"),
    }
    for module_name, attrs in SPANS.items():
        module = modules[module_name]
        for attr in attrs:
            # ``rudin.smyth_leq`` is waybelow's function under the name rudin binds.
            name = f"{module_name}.{attr}"
            setattr(module, attr, tracer.span(name, getattr(module, attr), after.get(name)))
    for suite, fn in list(suites.SUITES.items()):
        suites.SUITES[suite] = tracer.span(f"suites.{suite}", fn, _note_cases(tracer, suite))
    Topology.__post_init__ = tracer.span("topology.Topology.validate", Topology.__post_init__)
    FinitePoset.iter_antichain_masks = tracer.counted(
        "order.iter_antichain_masks", FinitePoset.iter_antichain_masks
    )
    convergence.generate_nets = tracer.yields(
        "convergence.generate_nets.yielded", convergence.generate_nets
    )


def _note_derive_input(tracer: Tracer):
    seen = tracer.distinct.setdefault("convergence.derive_convergence_topology", set())

    def after(args, kwargs, result):
        poset, *rest = args
        seen.add((poset.name, tuple(rest), tuple(sorted((k, repr(v)) for k, v in kwargs.items()))))

    return after


def _note_true(tracer: Tracer, counter: str):
    def after(args, kwargs, result):
        if result:
            tracer.counts[counter] += 1

    return after


def _note_cases(tracer: Tracer, suite: str):
    def after(args, kwargs, result):
        run = args[0]
        tracer.counts[f"suites.{suite}.cases"] += run.cases

    return after


# -- per-layer metrics ---------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(dump: dict, oplog_counts: dict, untraced_wall: float, traced_wall: float) -> dict:
    """Per-layer metrics of one traced run, as ``{name: (value, unit)}``."""
    calls: Counter[str] = Counter()
    total: Counter[str] = Counter()
    self_s: Counter[str] = Counter()
    edge_calls: Counter[tuple[str, str]] = Counter()
    for parent, name, n, tot, own in dump["spans"]:
        calls[name] += n
        total[name] += tot
        self_s[name] += own
        edge_calls[parent, name] += n
    counts = dump["counts"]
    out: dict[str, tuple[float, str]] = {}

    def timed(name: str) -> None:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")

    out["corpus.all_corpus.self_s"] = (self_s["corpus.all_corpus"], "s")
    out["order.iter_directed_masks.calls"] = (oplog_counts.get("order.enumerate_directed", 0), "count")
    out["order.iter_antichain_masks.calls"] = (counts.get("order.iter_antichain_masks", 0), "count")
    timed("waybelow.set_way_below")
    out["waybelow.classify.self_s"] = (self_s["waybelow.classify"], "s")
    out["waybelow.smyth_leq.calls"] = (oplog_counts.get("waybelow.smyth", 0), "count")
    for name in ("scott_topology", "lawson_topology", "family_liminf_topology", "Topology.validate"):
        timed(f"topology.{name}")
    derive = "convergence.derive_convergence_topology"
    timed(derive)
    distinct = dump["distinct"].get(derive, 0)
    out[f"{derive}.distinct_inputs"] = (distinct, "count")
    # Share of calls that repeat an earlier (poset, arguments) input.
    out[f"{derive}.reuse_ratio"] = (_ratio(calls[derive] - distinct, calls[derive]), "ratio")
    out["convergence.generate_nets.yielded"] = (
        counts.get("convergence.generate_nets.yielded", 0),
        "count",
    )
    for name in (
        "converges_liminf",
        "converges_family_liminf",
        "converges_topological",
        "is_eventual_liminf",
        "exception_set",
    ):
        timed(f"convergence.{name}")
    out["convergence.ideal_member.calls"] = (oplog_counts.get("convergence.ideal_member", 0), "count")
    for name in ("is_directed_family", "extract_directed", "rudin_corollary"):
        timed(f"rudin.{name}")
    directed_true = counts.get("rudin.is_directed_family.true", 0)
    out["rudin.is_directed_family.true"] = (directed_true, "count")
    out["rudin.is_directed_family.true_ratio"] = (
        _ratio(directed_true, calls["rudin.is_directed_family"]),
        "ratio",
    )
    out["rudin.smyth_leq.self_s"] = (self_s["rudin.smyth_leq"], "s")
    for suite in SUITE_NAMES:
        out[f"suites.{suite}.wall_s"] = (total[f"suites.{suite}"], "s")
        out[f"suites.{suite}.self_s"] = (self_s[f"suites.{suite}"], "s")
    for suite in SAMPLED:
        cases = counts.get(f"suites.{suite}.cases", 0)
        sampled = edge_calls[f"suites.{suite}", "suites._sample_net"]
        out[f"suites.{suite}.cases"] = (cases, "count")
        out[f"suites.{suite}.sampled"] = (sampled, "count")
        out[f"suites.{suite}.premise_ratio"] = (_ratio(cases, sampled), "ratio")
    out["suites.emit_report.self_s"] = (self_s["suites.emit_report"], "s")
    out["oplog.calls_total"] = (sum(oplog_counts.values()), "count")
    out["cli.main.self_s"] = (self_s["cli.main"], "s")
    out["trace.untraced_wall_s"] = (untraced_wall, "s")
    out["trace.traced_wall_s"] = (traced_wall, "s")
    out["trace.overhead_ratio"] = (_ratio(traced_wall, untraced_wall), "ratio")
    return out
