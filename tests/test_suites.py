"""Suite runner: registry, reports, determinism, failure aggregation."""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import inspect
import pkgutil
import random
import re
import subprocess
import sys
from collections import Counter
from itertools import product

import pytest

from domaincheck import convergence as cv
from domaincheck import corpus, oplog, suites
from domaincheck import rudin as rd
from domaincheck import topology as tp
from domaincheck import waybelow as wb
from domaincheck.errors import UnknownSuite
from domaincheck.order import build_finite_poset
from domaincheck import sidenat as sn
from domaincheck.sidenat import A, TOP


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


def test_interpolation_reports_a_wrong_side_witness(monkeypatch):
    """A witness that fails ``e << x`` is a failing case of the suite, not
    an error raised out of ``sn.interpolate``."""
    real = sn.set_way_below

    def broken(g, h):
        return (tuple(g), tuple(h)) != ((1, A), (A,)) and real(g, h)

    monkeypatch.setattr(sn, "set_way_below", broken)
    rep = suites.run_suite("interpolation", max_size=1, seed=0)
    assert "side:(0, 'a')<<a" in {f["case"] for f in rep.failures}


def test_rudin_reports_a_family_that_is_not_directed(monkeypatch):
    """A yielded family that is not Smyth-directed fails its extract case,
    before ``extract_directed`` can raise on it: an undirected pair
    ``(l, r)`` injected into the antichains above ``l`` fails, and so
    do the families of three that hold it."""
    real = tp._greatest_members

    def with_undirected(p):
        for g, up_g, above in real(p):
            if p.name == "diamond" and g == 1 << p.index("l"):
                r = p.index("r")
                above = [*above, (1 << r, p.up[r])]
            yield g, up_g, above

    monkeypatch.setattr(tp, "_greatest_members", with_undirected)
    rep = suites.run_suite("rudin", max_size=1, seed=0)
    assert [f["case"] for f in rep.failures] == [
        "diamond:extract:(2, 4)",
        "diamond:extract:(2, 1, 4)",
        "diamond:extract:(2, 6, 4)",
    ]
    assert all(f["directed"] is False for f in rep.failures)


def test_finite_collapse_suite_green_small():
    rep = suites.run_suite("finite-collapse", max_size=3, seed=0)
    assert rep.ok


def test_continuity_suite_green_small():
    rep = suites.run_suite("continuity-criterion", max_size=3, seed=0)
    assert rep.ok


def test_coverage_gate_counts_only_calls_of_this_run(monkeypatch):
    # Every op already counted earlier in the process, by a real ``all``
    # run, and a registry whose only suite calls nothing: the run itself
    # exercises no suite op.
    suites.run_suite("all", max_size=1)
    assert not oplog.missing_ops()
    monkeypatch.setattr(suites, "SUITES", {"noop": lambda run, ctx: None})
    rep = suites.run_suite("all", max_size=1)
    assert not rep.ok
    (coverage,) = [f for f in rep.failures if f["case"] == "coverage:all-ops"]
    assert "rudin.extract" in coverage["missing"]
    assert "suites.run" not in coverage["missing"]


def test_ledger_counts_each_call_exactly():
    """Each op's cell counts the calls of that op and nothing else: around
    ``k`` calls of ``set_way_below`` and one of ``converges_family_liminf``
    the deltas are exactly ``k`` and 1, every other op's is 0, and
    ``call_counts()`` lists exactly the ops called at least once.  Only
    the package's own ops are called, so no name outlives the test."""
    p = corpus.all_corpus(3)["p3_0"]
    k = 5
    before = oplog.call_counts()
    for g in range(1, k + 1):
        wb.set_way_below(p, g, p.universe)
    cv.converges_family_liminf(p, p.universe, 0)
    after = oplog.call_counts()
    delta = {op: after.get(op, 0) - before.get(op, 0) for op in oplog.all_ops()}
    assert delta.pop("waybelow.set") == k
    assert delta.pop("convergence.family_liminf") == 1
    assert set(delta.values()) == {0}
    assert 0 not in after.values()
    assert set(after) == oplog.all_ops() - oplog.missing_ops()


def test_all_builds_each_artefact_once_per_run(monkeypatch):
    """The suites of an ``all`` run read the per-poset artefacts through
    the run's memo (``_Ctx.once``): with counting wrappers on five
    builders, each of two runs in one process builds every (builder,
    poset, arguments) artefact exactly once, two derived modes
    (``family`` and ``eventual``) per poset, and passes
    ``coverage:all-ops``, since the memo lives on the run, not on the
    builder.  No builder builds Scott outside the memo: neither
    ``lawson_topology`` nor ``classify`` calls ``scott_topology``."""
    builds: Counter = Counter()
    builders = (
        (tp, "scott_topology"),
        (tp, "lawson_topology"),
        (tp, "family_liminf_topology"),
        (cv, "derive_convergence_topology"),
        (suites, "_scott_opens_by_definition"),
    )
    for module, attr in builders:

        def counting(p, *args, original=getattr(module, attr), attr=attr):
            builds[attr, p.name, args] += 1
            return original(p, *args)

        monkeypatch.setattr(module, attr, counting)
    names = set(corpus.all_corpus(3))
    for _ in range(2):
        builds.clear()
        report = suites.run_suite("all", max_size=3)
        assert report.ok, report.failures[:3]
        assert set(builds.values()) == {1}
        assert {name for _, name, _ in builds} == names
        per_builder = Counter(attr for attr, _, _ in builds)
        assert per_builder == {attr: len(names) for _, attr in builders} | {
            "derive_convergence_topology": 2 * len(names)
        }
        modes = {args for attr, _, args in builds if attr == "derive_convergence_topology"}
        assert modes == {("family",), ("eventual",)}


def test_logged_op_names_are_unique():
    """No two ``@logged`` functions register the same operation name, so
    the coverage gate, which sees only names, fails while any one of them
    never runs.  The names are read from the ``@logged`` lines of every
    module, and they are all the ledger holds."""
    import domaincheck

    names = []
    for info in pkgutil.iter_modules(domaincheck.__path__):
        source = inspect.getsource(importlib.import_module(f"domaincheck.{info.name}"))
        names += re.findall(r'^\s*@logged\("([^"]+)"\)', source, re.M)
    assert [op for op, n in Counter(names).items() if n > 1] == []
    assert set(names) == oplog.all_ops()


def _sample_net_with_random_choice(p, rng):
    """The sampler written with ``rng.choice`` and ``rng.randrange``: the
    (net, ideal) pair and the draw ``(i, vals, idl)`` of ``_sample_net``."""
    finite, omega = suites._sampling_ideals()
    if rng.random() < 0.5:
        i = rng.choice(range(len(finite)))
        idx, _top, ideals = finite[i]
        vals = [rng.choice(range(p.n)) for _ in range(idx.n)]
        idl = rng.choice(ideals)
        return cv.FiniteNet(idx, tuple(p.elements[v] for v in vals)), idl, (i, vals, idl)
    period = 1 + rng.randrange(3)
    vals = [rng.choice(range(p.n)) for _ in range(period)]
    idl = rng.choice(omega)
    tracks = tuple(cv.const_track(p.elements[v]) for v in vals)
    return cv.TrackNet(period, tracks), idl, (-period, vals, idl)


def _fail_every_key(mask, x):
    """A ``_sample_net`` outcome that fails every key with the mask and the
    point in the label suffix, so each triple's label and witness show its
    draw."""
    return f":{mask}:{x}"


def test_sample_net_draws_match_random_choice():
    """A ``_sample_net`` block gives the triples (net, ideal kind, point,
    as the failure witness shows them) and the generator state of the
    ``rng.choice``/``randrange`` formulation, triple by triple, for 5
    seeds on every poset of the size-4 corpus (named posets of up to 8
    elements included), with the state compared after each poset's
    block.  Each triple's label holds the mask ``_sample_net`` read from
    the draw, which is the formulation's net's trap mask (``trap_mask``),
    and the mask is ``0`` iff the ideal is trivial, the fact
    ``trivial-sampled`` reads."""
    for seed in range(5):
        fast, slow = random.Random(seed), random.Random(seed)
        for p in corpus.all_corpus(4).values():
            run = suites._Run("sampled", seed)
            suites._sample_net(run, p.name, p, fast, 300, _fail_every_key)
            assert run.cases == len(run.failures) == 300
            for i, failure in enumerate(run.failures):
                net_ref, idl_ref, _ = _sample_net_with_random_choice(p, slow)
                x = slow.randrange(p.n)
                mask = cv.trap_mask(p, net_ref, idl_ref)
                witness = suites._triple_witness(p, net_ref, x, idl_ref)
                assert failure == {"case": f"{p.name}:{i}:{mask}:{x}", **witness}, (seed, p.name)
                assert (mask == 0) == (idl_ref.kind == "trivial"), (seed, p.name)
            assert fast.getstate() == slow.getstate(), (seed, p.name)


def test_sample_net_mask_reads_the_value_at_the_index_top(monkeypatch):
    """With an index whose top is not its last element, the closed-form
    mask of ``_sample_net`` is the built net's trap mask, on draws whose
    value at the top differs from the last value."""
    top_first = build_finite_poset("top-first", ["t", "a", "b"], [("a", "t"), ("b", "t")])
    chain3 = build_finite_poset("chain3", ["c0", "c1", "c2"], [("c0", "c1"), ("c1", "c2")])
    monkeypatch.setattr(suites.cp, "directed_index_posets", lambda _n: (top_first,))
    suites._sampling_ideals.cache_clear()
    try:
        fast, slow = random.Random(0), random.Random(0)
        run = suites._Run("sampled", 0)
        suites._sample_net(run, "chain3", chain3, fast, 200, _fail_every_key)
        assert len(run.failures) == 200
        telling = 0
        for i, failure in enumerate(run.failures):
            net, idl, (j, vals, _) = _sample_net_with_random_choice(chain3, slow)
            x = slow.randrange(chain3.n)
            assert failure["case"] == f"chain3:{i}:{cv.trap_mask(chain3, net, idl)}:{x}", failure
            telling += j >= 0 and idl.kind == "eventual" and vals[0] != vals[-1]
        assert telling > 0
    finally:
        suites._sampling_ideals.cache_clear()


def _literal_liminf_to_family(run, ctx):
    rng = ctx.rng(run.suite)
    for name, p in ctx.corpus.items():
        for i in range(200):
            net, idl, _ = _sample_net_with_random_choice(p, rng)
            x = rng.randrange(p.n)
            trap = cv.trap_mask(p, net, idl)
            lim = cv.converges_liminf(p, trap, x).holds
            fam = cv.converges_family_liminf(p, trap, x).holds
            if lim:
                run.check(f"{name}:{i}", fam, suites._triple_witness(p, net, x, idl))
    I = cv.ideal("eventual")
    for label, net in suites._side_nets():
        gi = sn.eventual_family(net, I)
        for x in (A, TOP, 0, 2, 5):
            if sn.converges_liminf(gi, x).holds:
                ok = sn.converges_family_liminf(gi, x).holds
                run.check(f"side:{label}:{x}", ok)


def _literal_waybelow_forces_family(run, ctx):
    rng = ctx.rng(run.suite)
    for name, p in ctx.corpus.items():
        waydown_ups = [
            [p.up_of_mask(g) for g in p.iter_antichain_masks() if wb.set_way_below(p, g, 1 << ix)]
            for ix in range(p.n)
        ]
        for i in range(200):
            net, idl, _ = _sample_net_with_random_choice(p, rng)
            x = rng.randrange(p.n)
            premise = all(
                cv.ideal_member(idl, cv.exception_set(p, net, u)) for u in waydown_ups[x]
            )
            fam = cv.converges_family_liminf(p, cv.trap_mask(p, net, idl), x).holds
            if premise:
                run.check(f"{name}:{i}", fam, suites._triple_witness(p, net, x, idl))
    I = cv.ideal("eventual")
    for label, net in suites._side_nets():
        gi = sn.eventual_family(net, I)
        for x in (A, TOP, 0, 3):
            if gi.includes(sn.fin_of(x)):
                ok = sn.converges_family_liminf(gi, x).holds
                run.check(f"side:{label}:{x}", ok)


def _literal_family_convergence_topological(run, ctx):
    rng = ctx.rng(run.suite)
    for name, p in ctx.corpus.items():
        sc = tp.scott_topology(p)
        trivial_checked = False
        for i in range(1000):
            net, idl, _ = _sample_net_with_random_choice(p, rng)
            x = rng.randrange(p.n)
            trap = cv.trap_mask(p, net, idl)
            fam = cv.converges_family_liminf(p, trap, x).holds
            topo = cv.converges_topological(p, trap, x, sc).holds
            lim = cv.converges_liminf(p, trap, x).holds
            if fam != topo:
                run.check(f"{name}:{i}:scott", False, suites._triple_witness(p, net, x, idl))
                continue
            if lim and not fam:
                run.check(f"{name}:{i}:liminf", False, suites._triple_witness(p, net, x, idl))
                continue
            if idl.kind == "trivial":
                trivial_checked = True
                if not fam:
                    run.check(f"{name}:{i}:trivial", False, suites._triple_witness(p, net, x, idl))
                    continue
            run.check(f"{name}:{i}", True)
        run.check(f"{name}:trivial-sampled", trivial_checked)


LITERAL_SUITES = {
    "liminf-to-family": _literal_liminf_to_family,
    "waybelow-forces-family": _literal_waybelow_forces_family,
    "family-convergence-topological": _literal_family_convergence_topological,
}


@pytest.mark.parametrize("suite", sorted(LITERAL_SUITES))
def test_sampled_suites_match_literal_triple_loop(suite):
    """Each sampled suite, which decides one triple per (trap mask,
    point) pair and poset, reports the bytes of a literal loop that draws
    with ``rng.choice``/``randrange``, builds every triple's net and its
    trap mask and decides every predicate on it (the premise of
    ``waybelow-forces-family`` by exception sets), at size 4 for seeds 0
    to 2."""
    for seed in range(3):
        ctx = suites._Ctx(seed=seed, corpus=corpus.all_corpus(4))
        run = suites._Run(suite, seed)
        LITERAL_SUITES[suite](run, ctx)
        expected = suites.emit_report(run.report(0.0))
        assert suites.emit_report(suites.run_suite(suite, max_size=4, seed=seed)) == expected, seed


# Verdicts the failure-path test turns wrong, per case: predicate -> a
# test on (point index, trap mask 0?) that picks where it answers the
# opposite.  ``scattered`` makes every sampled suite fail at a few
# points; ``trivial-scott`` makes every trivial-ideal triple fail the
# Scott check, so none reaches the trivial check and
# ``family-convergence-topological`` fails ``trivial-sampled`` too.
FLIPS = {
    "scattered": {
        "converges_liminf": lambda x, trivial: (x, trivial) in {(2, False), (1, True)},
        "converges_family_liminf": lambda x, trivial: (x, trivial) in {(0, False), (1, True)},
        "converges_topological": lambda x, trivial: (x, trivial) == (1, True),
    },
    "trivial-scott": {"converges_topological": lambda x, trivial: trivial},
}
FLIP_CASES = [(suite, "scattered") for suite in sorted(LITERAL_SUITES)]
FLIP_CASES.append(("family-convergence-topological", "trivial-scott"))


@pytest.mark.parametrize(("suite", "case"), FLIP_CASES)
def test_sampled_suites_report_failures_like_literal_loop(suite, case, monkeypatch):
    """With the predicates of ``FLIPS[case]`` answering wrongly at chosen
    points and ideals, each sampled suite fails, and its report at size 4
    (seeds 0 and 1) is byte for byte that of the literal per-triple loop:
    the ordered loop of ``suites._sample_net`` keeps each failure's label,
    order and witness, and ``trivial-sampled`` holds only where a
    trivial-ideal triple reached the trivial check.  The flips read the
    point and whether the mask is ``0`` (the trivial ideal)."""
    for pred, flips in FLIPS[case].items():

        def flipped(p, trap, x, *rest, original=getattr(cv, pred), flips=flips):
            verdict = original(p, trap, x, *rest)
            if flips(x, trap == 0):
                return verdict._replace(holds=not verdict.holds)
            return verdict

        monkeypatch.setattr(cv, pred, flipped)
    suffixes = set()
    for seed in range(2):
        ctx = suites._Ctx(seed=seed, corpus=corpus.all_corpus(4))
        run = suites._Run(suite, seed)
        LITERAL_SUITES[suite](run, ctx)
        expected = suites.emit_report(run.report(0.0))
        report = suites.run_suite(suite, max_size=4, seed=seed)
        assert suites.emit_report(report) == expected, seed
        assert not report.ok, seed
        suffixes |= {f["case"].rsplit(":", 1)[1] for f in report.failures}
    if case == "trivial-scott":
        assert suffixes == {"scott", "trivial-sampled"}
    elif suite == "family-convergence-topological":
        assert {"scott", "liminf", "trivial"} <= suffixes


# The predicate each sampled suite calls first on a (mask, point) pair it
# has not decided on the poset, and the triples it draws per poset.
SAMPLED_SUITES = {
    "liminf-to-family": ("converges_liminf", 200),
    "waybelow-forces-family": ("converges_family_liminf", 200),
    "family-convergence-topological": ("converges_family_liminf", 1000),
}


@pytest.mark.parametrize("suite", sorted(SAMPLED_SUITES))
def test_sampled_verdicts_depend_on_class_and_point(suite, monkeypatch):
    """The predicates take a triple's trap mask and point, so a sampled
    suite may decide each (mask, point) key once.  On the suite's sampled
    triples at size 4, seeds 0 to 2, it decides each key whose premise
    holds by exactly one call at that key, which the report alone does
    not show where every case passes.  The keys are drawn by the
    ``rng.choice`` formulation, each mask read from the built net
    (``trap_mask``), and the premise of ``waybelow-forces-family`` from
    the upper sets way below the point, each built here."""
    decider, per_poset = SAMPLED_SUITES[suite]
    for seed in range(3):
        ctx = suites._Ctx(seed=seed, corpus=corpus.all_corpus(4))
        rng = ctx.rng(suite)
        needed: Counter = Counter()
        for name, p in ctx.corpus.items():
            waydown_ups = [
                [p.up_of_mask(g) for g in p.antichain_masks if wb.set_way_below(p, g, 1 << ix)]
                for ix in range(p.n)
            ]
            for _ in range(per_poset):
                net, idl, _ = _sample_net_with_random_choice(p, rng)
                x = rng.randrange(p.n)
                mask = cv.trap_mask(p, net, idl)
                if suite != "waybelow-forces-family" or all(mask & ~u == 0 for u in waydown_ups[x]):
                    needed[name, mask, x] = 1
        calls: Counter = Counter()
        original = getattr(cv, decider)

        def recording(p, trap, x):
            calls[p.name, trap, x] += 1
            return original(p, trap, x)

        monkeypatch.setattr(cv, decider, recording)
        suites.run_suite(suite, max_size=4, seed=seed)
        monkeypatch.undo()
        assert calls == needed, seed


# The net class ``finest-topology`` probes with.
FINEST_PROBES = cv.NetClass(max_index_size=2, max_track_period=2)


def _literal_finest_topology(run, ctx):
    for name, p in ctx.corpus.items():
        derived = cv.derive_convergence_topology(p, "family")
        pool = {
            "indiscrete": tp.indiscrete_topology(p),
            "scott": tp.scott_topology(p),
            "lawson": tp.lawson_topology(p),
            "discrete": tp.discrete_topology(p),
        }
        probes = []
        for net in cv.generate_nets(p, FINEST_PROBES):
            trap = cv.trap_mask(p, net, cv.ideal("eventual", cv.net_index(net)))
            probes += [
                (trap, ix) for ix in range(p.n) if cv.converges_family_liminf(p, trap, ix).holds
            ]
        for label, topo in pool.items():
            if all(cv.converges_topological(p, trap, ix, topo).holds for trap, ix in probes):
                run.check(f"{name}:{label}", topo.opens <= derived.opens)
            else:
                run.check(f"{name}:{label}:vacuous", True)


def _literal_eventual_liminf_lawson(run, ctx):
    for name, p in ctx.corpus.items():
        if p.n > 4:
            continue
        law = tp.lawson_topology(p)
        for idx in corpus.directed_index_posets(3):
            idl = cv.ideal("eventual", idx)
            for values in product(p.elements, repeat=idx.n):
                trap = cv.trap_mask(p, cv.FiniteNet(idx, values), idl)
                for ix in range(p.n):
                    a = cv.is_eventual_liminf(p, trap, ix).holds
                    b = cv.converges_topological(p, trap, ix, law).holds
                    if a != b:
                        run.check(
                            f"{name}:{idx.name}:{values}:{p.elements[ix]}",
                            False,
                            {"eventual": a, "lawson": b},
                        )
        run.check(f"{name}:exhaustive", True)
    d = ctx.corpus["diamond"]
    I = cv.ideal("eventual")
    alt = cv.trap_mask(d, cv.track_net(cv.const_track("l"), cv.const_track("top")), I)
    gap_finite = (
        cv.is_eventual_liminf(d, alt, d.index("l")).holds
        and not cv.converges_topological(d, alt, d.index("l"), tp.lawson_topology(d)).holds
    )
    run.check("pinned:periodic-net-gap:diamond", gap_finite)
    net = cv.track_net(cv.ascend_track(), cv.const_track(A))
    gap_side = (
        sn.is_eventual_liminf(sn.eventual_family(net, I), A).holds
        and not sn.converges_topological(net, A, I, "lawson").holds
    )
    run.check("pinned:periodic-net-gap:side", gap_side)


LITERAL_NET_LOOPS = {
    "eventual-liminf-lawson": _literal_eventual_liminf_lawson,
    "finest-topology": _literal_finest_topology,
}


def _literal_report(suite, seed):
    ctx = suites._Ctx(seed=seed, corpus=corpus.all_corpus(4))
    run = suites._Run(suite, seed)
    LITERAL_NET_LOOPS[suite](run, ctx)
    return suites.emit_report(run.report(0.0))


@pytest.mark.parametrize("suite", sorted(LITERAL_NET_LOOPS))
def test_enumerating_suites_match_literal_net_loop(suite):
    """Each enumerating suite, which decides one (trap mask, point) key
    once per poset, reports the bytes of a literal loop that builds the
    trap mask of every enumerated net and calls every predicate on it, at
    size 4 for seeds 0 to 2."""
    for seed in range(3):
        report = suites.run_suite(suite, max_size=4, seed=seed)
        assert suites.emit_report(report) == _literal_report(suite, seed), seed


# Verdicts the failure-path test turns wrong: predicate -> a test on
# (poset, point) that picks where it answers the opposite.  Negating the
# family verdict at index 0 makes every probe that family-converges on
# ``p2_1``, ``p3_2``, ``p4_3`` and ``chain_2`` (index 0 the bottom, every
# other point maximal) converge in the discrete topology, so
# ``finest-topology`` fails there; it also feeds ``is_eventual_liminf``.
NET_FLIPS = {
    "converges_family_liminf": lambda p, x: x == 0,
    "is_eventual_liminf": lambda p, x: p.name == "diamond" and x == 1,
}


@pytest.mark.parametrize("suite", sorted(LITERAL_NET_LOOPS))
def test_enumerating_suites_report_failures_like_literal_loop(suite, monkeypatch):
    """With the predicates of ``NET_FLIPS`` answering wrongly at chosen
    points, each enumerating suite fails, and its report at size 4
    (seeds 0 and 1) is byte for byte that of the literal per-net loop:
    each failure keeps its label, order and witness.  The flips depend
    only on the poset and the point, which a key fixes."""
    for pred, flips in NET_FLIPS.items():

        def flipped(p, trap, x, *rest, original=getattr(cv, pred), flips=flips):
            verdict = original(p, trap, x, *rest)
            if flips(p, x):
                return verdict._replace(holds=not verdict.holds)
            return verdict

        monkeypatch.setattr(cv, pred, flipped)
    for seed in range(2):
        report = suites.run_suite(suite, max_size=4, seed=seed)
        assert not report.ok, seed
        assert suites.emit_report(report) == _literal_report(suite, seed), seed


def _enumerated_nets(suite, p):
    """The (net, ideal) pairs ``suite`` enumerates on ``p``."""
    if suite == "finest-topology":
        for net in cv.generate_nets(p, FINEST_PROBES):
            yield net, cv.ideal("eventual", cv.net_index(net))
    elif p.n <= 4:
        for idx in corpus.directed_index_posets(3):
            idl = cv.ideal("eventual", idx)
            for values in product(p.elements, repeat=idx.n):
                yield cv.FiniteNet(idx, values), idl


# The predicate each enumerating suite decides a (mask, point) key with.
NET_DECIDERS = {
    "eventual-liminf-lawson": "is_eventual_liminf",
    "finest-topology": "converges_family_liminf",
}


@pytest.mark.parametrize("suite", sorted(NET_DECIDERS))
def test_enumerated_verdicts_depend_on_mask_and_point(suite, monkeypatch):
    """The predicates take a net's trap mask and a point, so an
    enumerating suite may decide each (mask, point) key once.  At size 4
    the suite decides each key of the nets it enumerates by exactly one
    call at that key, which a report where every case passes cannot
    show."""
    needed: Counter = Counter()
    for p in corpus.all_corpus(4).values():
        for net, idl in _enumerated_nets(suite, p):
            trap = cv.trap_mask(p, net, idl)
            for x in range(p.n):
                needed[p.name, trap, x] = 1
    if suite == "eventual-liminf-lawson":
        # the pinned periodic-net case on the diamond
        d = corpus.all_corpus(4)["diamond"]
        alt = cv.track_net(cv.const_track("l"), cv.const_track("top"))
        needed[d.name, cv.trap_mask(d, alt, cv.ideal("eventual")), d.index("l")] += 1
    calls: Counter = Counter()
    original = getattr(cv, NET_DECIDERS[suite])

    def recording(p, trap, x):
        calls[p.name, trap, x] += 1
        return original(p, trap, x)

    monkeypatch.setattr(cv, NET_DECIDERS[suite], recording)
    assert suites.run_suite(suite, max_size=4, seed=0).ok
    monkeypatch.undo()
    assert calls == needed


def _literal_rudin(run, ctx):
    """The ``rudin`` suite as a loop over every family, each decided by
    calling the library on it."""
    for name, p in ctx.corpus.items():
        corollary_cases = families = 0
        for fam, ups in tp._directed_antichain_families(p, 3):
            families += 1
            if not rd.is_directed_family(p, fam):
                run.check(f"{name}:extract:{fam}", False, {"directed": False})
                continue
            rep = rd.extract_directed(p, fam)
            ok = (
                p.is_directed_mask_pairwise(rep.directed_set)
                and all(rep.directed_set & f for f in fam)
                and rep.directed_set & ~suites._union(fam) == 0
            )
            run.check(f"{name}:extract:{fam}", ok, rep.to_dict(p) if not ok else None)
            meet = ups[0]  # the greatest member's upper set is the meet
            member = rd.rudin_corollary(p, rep, meet)
            corollary_cases += 1
            if p.up_of_mask(member) & ~meet:
                run.check(f"{name}:corollary:{fam}:{meet}", False, {"member": list(p.ids_of(member))})
        run.check(
            f"{name}:corollary-count",
            corollary_cases == families,
            {"count": corollary_cases, "families": families},
        )


# Wrong answers the Rudin failure-path test injects: library function ->
# (a test on (greatest member, member), the wrong answer).  A call is
# answered wrongly when the test holds for the family's first member
# ``g`` and any of its members, ``g`` included, so the flips depend only
# on (``g``, member) pairs.  The wrong answers: "not directed", a
# transversal without the peak (which misses ``g``), and the last member
# in place of the first one inside the target.
RUDIN_FLIPS = {
    "is_directed_family": (lambda g, f: (g, f) == (2, 1), lambda arg, out: not out),
    "extract_directed": (
        lambda g, f: g == f == 4,
        lambda arg, rep: dataclasses.replace(rep, directed_set=rep.directed_set & ~(1 << rep.peak)),
    ),
    "rudin_corollary": (lambda g, f: (g, f) == (8, 6), lambda rep, member: rep.family[-1]),
}


@pytest.mark.parametrize("flip", [None, *RUDIN_FLIPS])
def test_rudin_matches_literal_family_loop(flip, monkeypatch):
    """The ``rudin`` suite, which decides each greatest member's
    singleton and pairs and replays its families only when one of them
    fails, reports the bytes of the literal per-family loop at size 4,
    seeds 0 and 1: where every case passes, and with one library
    function of ``RUDIN_FLIPS`` answering wrongly, where the report fails
    and some failure is a family of three members."""
    if flip is not None:
        picks, wrong = RUDIN_FLIPS[flip]

        def flipped(p, arg, *rest, original=getattr(rd, flip)):
            out = original(p, arg, *rest)
            fam = arg.family if isinstance(arg, rd.RudinReport) else tuple(arg)
            return wrong(arg, out) if any(picks(fam[0], f) for f in fam) else out

        monkeypatch.setattr(rd, flip, flipped)
    for seed in range(2):
        ctx = suites._Ctx(seed=seed, corpus=corpus.all_corpus(4))
        run = suites._Run("rudin", seed)
        _literal_rudin(run, ctx)
        report = suites.run_suite("rudin", max_size=4, seed=seed)
        assert suites.emit_report(report) == suites.emit_report(run.report(0.0)), seed
        assert report.ok == (flip is None), seed
        if flip is not None:
            assert any(re.search(r"\(\d+, \d+, \d+\)", f["case"]) for f in report.failures), seed


def test_rudin_corollary_count_fails_on_a_miscount(monkeypatch):
    """``:corollary-count`` counts the families independently of the
    enumeration: with :func:`topology._greatest_members` dropping each
    poset's last antichain, the corollary runs on fewer families than
    there are, and every poset's count case fails, and nothing else."""
    original = tp._greatest_members
    monkeypatch.setattr(tp, "_greatest_members", lambda p: list(original(p))[:-1])
    report = suites.run_suite("rudin", max_size=3, seed=0)
    cases = [f["case"] for f in report.failures]
    assert cases == [f"{name}:corollary-count" for name in corpus.all_corpus(3)]
    assert all(f["count"] < f["families"] for f in report.failures)


def test_finite_collapse_closure_fails_with_a_wrong_interior(monkeypatch):
    """``:closure-dual`` compares the Scott closure with the down-set,
    not with its own definition through the interior: with
    ``Topology.interior`` made the identity, the case fails on 11 posets
    at size 4, and no other case does."""
    monkeypatch.setattr(tp.Topology, "interior", lambda self, mask: mask)
    report = suites.run_suite("finite-collapse", max_size=4, seed=0)
    cases = [f["case"] for f in report.failures]
    assert len(cases) == 11 and all(c.endswith(":closure-dual") for c in cases)
    assert "p3_3:closure-dual" in cases and "p4_4:closure-dual" in cases


def _stdout_sha256(*argv: str) -> str:
    """sha256 of the standard output of the CLI run in a fresh interpreter."""
    code = f"from domaincheck.cli import main; raise SystemExit(main({list(argv)!r}))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    return hashlib.sha256(proc.stdout).hexdigest()


# sha256 of ``verify --suite all --max-size 3 --seed 42`` on stdout.  A
# change that alters the report bytes on purpose updates this value.
SMALL_ALL_SHA256 = "98ed5f3921cb0a9b825bf36275c67634f146db439a2798cc1771c4f073f3fed2"


def test_small_all_report_bytes_are_pinned():
    """The fixed-seed report of every suite at size 3, in a fresh
    interpreter, has pinned bytes: on each Python the tests run under,
    the sampled suites draw the same triples."""
    assert _stdout_sha256("verify", "--suite", "all", "--max-size", "3", "--seed", "42") == (
        SMALL_ALL_SHA256
    )


# sha256 of ``verify --suite family-convergence-topological --max-size 5
# --seed 3`` on stdout, the size the benchmark runs that suite at.
FAMILY_CONVERGENCE_5_SHA256 = "1d9088d685fc19a327b734c305c48649e34a700a4817ef33212c8aa8714fcfeb"


def test_family_convergence_report_bytes_are_pinned_at_size_5():
    """The report of ``family-convergence-topological`` at size 5 has
    pinned bytes, so the per-(trap mask, point) decisions are checked at
    the size the benchmark runs, on each Python the tests run under."""
    argv = ("verify", "--suite", "family-convergence-topological", "--max-size", "5", "--seed", "3")
    assert _stdout_sha256(*argv) == FAMILY_CONVERGENCE_5_SHA256
