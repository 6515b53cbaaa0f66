"""Acceptance gate: the eight primary criteria, one test each.

Each test drives the public suite runner or CLI exactly as a user would
and asserts the advertised outcome within the advertised runtime.  The
suites produce machine-checkable failure witnesses, so a red test here
prints the witnesses of whatever statement stopped holding.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time

from domaincheck import convergence as cv
from domaincheck import suites
from domaincheck import sidenat as sn
from domaincheck.sidenat import A, up_set


def _green(name: str, budget: float, **kwargs) -> suites.SuiteReport:
    t0 = time.perf_counter()
    rep = suites.run_suite(name, **kwargs)
    elapsed = time.perf_counter() - t0
    assert rep.failures == [], rep.failures[:5]
    assert elapsed < budget, f"{name} took {elapsed:.1f}s, budget {budget}s"
    return rep


def test_criterion_1_side_backend_reproduction():
    """Pair sets approximate the side point, the interleaved net separates
    the convergence modes, classification flags; under one second."""
    t0 = time.perf_counter()
    assert all(sn.set_way_below((n, A), (A,)) for n in range(101))
    assert sn.side_family(pairs_from=0).upset_intersection() == up_set(A)
    net = cv.track_net(cv.ascend_track(), cv.const_track(A))
    gi = sn.eventual_family(net, cv.ideal("eventual"))
    assert sn.converges_family_liminf(gi, A).holds
    assert not sn.converges_liminf(gi, A).holds
    rep = sn.classify()
    assert (rep.is_quasi_continuous, rep.is_continuous, rep.is_meet_continuous) == (
        True,
        False,
        False,
    )
    assert time.perf_counter() - t0 < 1.0
    _green("sidenat", 1.0, seed=0)


def test_criterion_2_family_topology_is_scott():
    """The family lim-inf topology equals the Scott topology on the whole
    corpus, both as the upper sets (``:upper-sets``) and as the opens
    decided by definition (``:definition``); under 60 s."""
    rep = _green("family-topology-is-scott", 60.0, max_size=5, seed=0)
    assert rep.cases == 2 * 104  # two cases on each corpus poset


def test_criterion_3_eventual_liminf_is_lawson():
    """Eventual lim-inf equals Lawson ideal convergence exhaustively over
    finite-index nets; under 120 s."""
    rep = _green("eventual-liminf-lawson", 120.0, max_size=5, seed=0)
    # one summary case per poset of size <= 4 plus the two pinned
    # periodic-net reproductions
    assert rep.cases >= 34


def test_criterion_4_family_convergence_is_topological():
    """On every triple of the class (every (net, ideal) pair of the
    suite's net class, every point) of every corpus poset: lim-inf
    implies family lim-inf, family lim-inf equals Scott ideal
    convergence, and the trivial ideal converges everywhere."""
    rep = _green("family-convergence-topological", 120.0, max_size=5, seed=0)
    # 537,940 triples, counted by class, and one trivial-ideal case on
    # each of the 104 corpus posets
    assert rep.cases == 537_940 + 104


def test_criterion_5_rudin_extraction():
    """Validated directed transversal for every Smyth-directed antichain
    family of size <= 3; corollary member for every qualifying pair."""
    _green("rudin", 120.0, max_size=5, seed=0)


def test_criterion_6_finite_collapse():
    """On finite posets way-below collapses to the order, the Smyth
    preorder, upper sets, and a discrete Lawson topology."""
    _green("finite-collapse", 60.0, max_size=5, seed=0)


def test_criterion_7_topology_axioms_and_lawson_inclusion():
    """Constructed topologies satisfy the axioms; the Lawson topology is
    contained in the derived eventual-mode topology."""
    _green("topology-axioms", 60.0, max_size=5, seed=0)
    _green("lawson-below-eventual", 60.0, max_size=5, seed=0)


# sha256 of ``verify --suite all --seed 42`` (default size 5) on stdout.
# A change that alters the report bytes on purpose updates this value.
ALL_5_SHA256 = "c78e10e0587d498ce85837673dabf3634c9c07d2346389c8b0a903e46030468a"


def test_criterion_8_determinism():
    """Two fresh-process runs of `verify --suite all --seed 42` emit
    byte-identical JSON, with the pinned sha256: every suite's size-5
    report bytes are guarded."""
    cmd = [
        sys.executable,
        "-c",
        "from domaincheck.cli import main; raise SystemExit("
        "main(['verify', '--suite', 'all', '--seed', '42']))",
    ]
    first = subprocess.run(cmd, capture_output=True, timeout=600)
    second = subprocess.run(cmd, capture_output=True, timeout=600)
    assert first.returncode == 0, first.stdout.decode()[-2000:]
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert hashlib.sha256(first.stdout).hexdigest() == ALL_5_SHA256
    report = json.loads(first.stdout)
    assert report["seed"] == 42 and report["failures"] == []
