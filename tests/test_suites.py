"""Suite runner: registry, reports, determinism, failure aggregation."""

from __future__ import annotations

import hashlib
import random
import subprocess
import sys
from collections import Counter

import pytest

from domaincheck import convergence as cv
from domaincheck import corpus, oplog, suites
from domaincheck.errors import UnknownSuite


def test_registry_names_are_public():
    names = suites.suite_names()
    assert "sidenat" in names and "rudin" in names
    assert all(not n.startswith("_") for n in names)
    assert len(names) == 16


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        suites.run_suite("does-not-exist")


def test_injected_failure_is_reported():
    rep = suites.run_suite("_inject-failure", seed=5)
    assert not rep.ok
    assert rep.cases == 1 and rep.passed == 0
    assert rep.failures[0]["case"] == "synthetic"


def test_report_roundtrip_preserves_failures():
    rep = suites.run_suite("_inject-failure", seed=5)
    again = suites.parse_report(suites.emit_report(rep, "json"))
    assert again.failures == rep.failures
    assert again.suite == rep.suite and again.seed == rep.seed


def test_text_format_mentions_failures():
    rep = suites.run_suite("_inject-failure", seed=5)
    text = suites.emit_report(rep, "text").decode()
    assert "0/1 passed" in text and "FAIL synthetic" in text


def test_emit_rejects_unknown_format():
    rep = suites.run_suite("_inject-failure", seed=5)
    with pytest.raises(ValueError):
        suites.emit_report(rep, "yaml")


def test_json_excludes_wall_time():
    rep = suites.run_suite("_inject-failure", seed=5)
    assert b"wall" not in suites.emit_report(rep, "json")


def test_fixed_seed_reruns_are_byte_identical():
    a = suites.emit_report(suites.run_suite("liminf-to-family", max_size=3, seed=11))
    b = suites.emit_report(suites.run_suite("liminf-to-family", max_size=3, seed=11))
    assert a == b


def test_seed_reaches_sampled_suites():
    a = suites.run_suite("waybelow-forces-family", max_size=3, seed=1)
    b = suites.run_suite("waybelow-forces-family", max_size=3, seed=2)
    # different seeds draw different triples; the premise filter then
    # admits different case counts
    assert (a.cases, a.passed) != (b.cases, b.passed) or a.cases > 0


def test_interpolation_suite_green_small():
    rep = suites.run_suite("interpolation", max_size=3, seed=0)
    assert rep.ok and rep.cases > 100


def test_finite_collapse_suite_green_small():
    rep = suites.run_suite("finite-collapse", max_size=3, seed=0)
    assert rep.ok


def test_continuity_suite_green_small():
    rep = suites.run_suite("continuity-criterion", max_size=3, seed=0)
    assert rep.ok


def test_coverage_gate_counts_only_calls_of_this_run(monkeypatch):
    # Every op already counted earlier in the process, and a registry whose
    # only suite calls nothing: the run itself exercises no suite op.
    monkeypatch.setattr(oplog, "_CALLS", Counter({op: 1 for op in oplog.all_ops()}))
    monkeypatch.setattr(suites, "SUITES", {"noop": lambda run, ctx: None})
    rep = suites.run_suite("all", max_size=1)
    assert not rep.ok
    (coverage,) = [f for f in rep.failures if f["case"] == "coverage:all-ops"]
    assert "rudin.extract" in coverage["missing"]
    assert "suites.run" not in coverage["missing"]


def _sample_net_with_random_choice(p, rng):
    """The sampler written with ``rng.choice`` and ``rng.randrange``."""
    finite, omega = suites._sampling_ideals()
    if rng.random() < 0.5:
        idx, ideals = rng.choice(finite)
        values = tuple(rng.choice(p.elements) for _ in range(idx.n))
        return cv.FiniteNet(idx, values), rng.choice(ideals)
    period = 1 + rng.randrange(3)
    tracks = tuple(cv.const_track(rng.choice(p.elements)) for _ in range(period))
    return cv.TrackNet(period, tracks), rng.choice(omega)


def test_sample_net_draws_match_random_choice():
    """``_sample_net`` and a point drawn through ``_below`` give the nets,
    the ideals (the same objects), the points and the generator state of
    the ``rng.choice``/``randrange`` formulation, draw by draw, for 5
    seeds on every poset of the size-4 corpus (named posets of up to 8
    elements included)."""
    for seed in range(5):
        for p in corpus.all_corpus(4).values():
            fast, slow = random.Random(seed), random.Random(seed)
            for _ in range(300):
                net, idl = suites._sample_net(p, fast)
                x = suites._below(fast, p.n)
                net_ref, idl_ref = _sample_net_with_random_choice(p, slow)
                x_ref = slow.randrange(p.n)
                assert (net, x) == (net_ref, x_ref) and idl is idl_ref, (seed, p.name)
            assert fast.getstate() == slow.getstate(), (seed, p.name)


# sha256 of ``verify --suite all --max-size 3 --seed 42`` on stdout.  A
# change that alters the report bytes on purpose updates this value.
SMALL_ALL_SHA256 = "98ed5f3921cb0a9b825bf36275c67634f146db439a2798cc1771c4f073f3fed2"


def test_small_all_report_bytes_are_pinned():
    """The fixed-seed report of every suite at size 3, in a fresh
    interpreter, has pinned bytes: on each Python the tests run under,
    the sampled suites draw the same triples."""
    code = (
        "from domaincheck.cli import main; raise SystemExit("
        "main(['verify', '--suite', 'all', '--max-size', '3', '--seed', '42']))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    assert hashlib.sha256(proc.stdout).hexdigest() == SMALL_ALL_SHA256
