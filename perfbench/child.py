"""One measured execution of a benchmark workload, in a fresh interpreter.

    python3 -I perfbench/child.py WORKLOAD SEED MODE

MODE is ``setup`` (import domaincheck and build the corpus, nothing
else), ``run`` (run the workload) or ``trace`` (run it under the tracer).
In ``setup`` and ``run`` a ``hostspeed.Prober`` times the host's speed
alongside.  The child prints one JSON object on stdout when it ends and
exits with the workload's exit code: 0 when every report is free of
failures.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from hostspeed import Prober  # noqa: E402
from workloads import WORKLOADS, program_seed  # noqa: E402


def main(argv: list[str]) -> int:
    name, seed_arg, mode = argv
    workload = WORKLOADS[name]
    seed = program_seed(int(seed_arg))
    prober = None
    if mode != "trace":
        prober = Prober()
        prober.start()

    from domaincheck import corpus

    if mode == "setup":
        size = len(corpus.all_corpus(workload.max_size))
        _emit({"corpus_size": size, "probe_s": prober.stop()})
        return 0

    tracer = None
    if mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    from domaincheck import cli, oplog, suites

    reports: dict[str, str] = {}
    if workload.via_cli:
        verify = ["verify", "--suite", "all", "--max-size", str(workload.max_size), "--seed", str(seed)]
        entry = cli.main if tracer is None else tracer.span("cli.main", cli.main)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = entry(verify)
        reports["all"] = out.getvalue()
    else:
        code = 0
        for suite in workload.suites:
            report = suites.run_suite(suite, max_size=workload.max_size, seed=seed)
            reports[suite] = suites.emit_report(report, "json").decode()
            if not report.ok:
                code = 1
    result = {
        "probe_s": prober.stop() if prober else [],
        "reports": reports,
        "oplog": oplog.call_counts(),
        "missing_ops": sorted(oplog.missing_ops()),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = tracer.dump()
    _emit(result)
    return code


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
