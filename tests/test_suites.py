"""Suite runner: registry, reports, determinism, failure aggregation."""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import inspect
import json
import pkgutil
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


def test_sampled_suites_are_seed_independent():
    """The sampled suites decide every class, not random draws, so their
    reports at size 3 differ across seeds only in the seed they record."""
    for suite in SAMPLED_DECIDERS:
        reports = []
        for seed in range(3):
            report = json.loads(suites.emit_report(suites.run_suite(suite, max_size=3, seed=seed)))
            assert report.pop("seed") == seed, suite
            reports.append(report)
        assert reports[0] == reports[1] == reports[2], suite


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


def _class_pairs(p):
    """The (net, ideal) pairs of the sampled suites' triple class on
    ``p``, in the suites' replay order, by literal loops: a net over each
    directed index of at most 3 points under its eventual and trivial
    ideals, then each constant-track net of period 1 to 3 under the four
    ideals on the naturals."""
    for idx in corpus.directed_index_posets(3):
        ideals = [cv.ideal("eventual", idx), cv.ideal("trivial", idx)]
        for values in product(p.elements, repeat=idx.n):
            net = cv.finite_net(idx, values)
            yield from ((net, idl) for idl in ideals)
    for period in (1, 2, 3):
        for values in product(p.elements, repeat=period):
            net = cv.track_net(*map(cv.const_track, values))
            yield from ((net, cv.ideal(kind)) for kind in cv.IDEAL_KINDS)


def _literal_triples(p):
    """Every triple of the class as ``(t, net, ideal, trap mask, point)``,
    ``t`` numbering the triples in order."""
    t = 0
    for net, idl in _class_pairs(p):
        trap = cv.trap_mask(p, net, idl)
        for x in range(p.n):
            yield t, net, idl, trap, x
            t += 1


def test_class_weights_count_built_nets():
    """``suites._class_weights`` gives each trap mask, in increasing
    order, the number of the class's (net, ideal) pairs with that mask:
    every net built, its mask taken under each of its ideals, on every
    poset of at most 3 points."""
    posets = [p for p in corpus.all_corpus(3).values() if p.n <= 3]
    assert {p.n for p in posets} == {1, 2, 3}
    for p in posets:
        counts = Counter(cv.trap_mask(p, net, idl) for net, idl in _class_pairs(p))
        weights = suites._class_weights(p.n)
        assert weights == counts, p.name
        assert list(weights) == sorted(counts), p.name


def _witness(ok, p, net, x, idl):
    return None if ok else suites._triple_witness(p, net, x, idl)


def _literal_liminf_to_family(run, ctx):
    for name, p in ctx.corpus.items():
        for t, net, idl, trap, x in _literal_triples(p):
            lim = cv.converges_liminf(p, trap, x).holds
            if lim != bool(cv.limits(p, trap, "liminf") >> x & 1):
                run.check(f"{name}:{t}:set-form", False, suites._triple_witness(p, net, x, idl))
            elif lim:
                ok = cv.converges_family_liminf(p, trap, x).holds
                run.check(f"{name}:{t}", ok, _witness(ok, p, net, x, idl))
    I = cv.ideal("eventual")
    for label, net in suites._side_nets():
        gi = sn.eventual_family(net, I)
        for x in (A, TOP, 0, 2, 5):
            if sn.converges_liminf(gi, x).holds:
                ok = sn.converges_family_liminf(gi, x).holds
                run.check(f"side:{label}:{x}", ok)


def _literal_waybelow_forces_family(run, ctx):
    for name, p in ctx.corpus.items():
        waydown_ups = [
            [p.up_of_mask(g) for g in p.iter_antichain_masks() if wb.set_way_below(p, g, 1 << ix)]
            for ix in range(p.n)
        ]
        for t, net, idl, trap, x in _literal_triples(p):
            premise = all(
                cv.ideal_member(idl, cv.exception_set(p, net, u)) for u in waydown_ups[x]
            )
            if premise:
                ok = bool(cv.limits(p, trap, "family") >> x & 1)
                run.check(f"{name}:{t}", ok, _witness(ok, p, net, x, idl))
    I = cv.ideal("eventual")
    for label, net in suites._side_nets():
        gi = sn.eventual_family(net, I)
        for x in (A, TOP, 0, 3):
            if gi.includes(sn.fin_of(x)):
                ok = sn.converges_family_liminf(gi, x).holds
                run.check(f"side:{label}:{x}", ok)


def _literal_family_convergence_topological(run, ctx):
    for name, p in ctx.corpus.items():
        sc = tp.scott_topology(p)
        trivial_checked = False
        for t, net, idl, trap, x in _literal_triples(p):
            fam = cv.limits(p, trap, "family") >> x & 1
            topo = cv.topological_limits(p, trap, sc) >> x & 1
            lim = cv.limits(p, trap, "liminf") >> x & 1
            if fam != topo:
                run.check(f"{name}:{t}:scott", False, suites._triple_witness(p, net, x, idl))
                continue
            if lim and not fam:
                run.check(f"{name}:{t}:liminf", False, suites._triple_witness(p, net, x, idl))
                continue
            if idl.kind == "trivial":
                trivial_checked = True
                if not fam:
                    run.check(f"{name}:{t}:trivial", False, suites._triple_witness(p, net, x, idl))
                    continue
            run.check(f"{name}:{t}", True)
        run.check(f"{name}:trivial-checked", trivial_checked)


LITERAL_SUITES = {
    "liminf-to-family": _literal_liminf_to_family,
    "waybelow-forces-family": _literal_waybelow_forces_family,
    "family-convergence-topological": _literal_family_convergence_topological,
}


def _triple_reports(suite):
    """The report bytes of ``suite`` and of its literal loop on the
    posets of the size-3 corpus with at most 4 points: every generated
    one, and the named chains, antichains and diamond."""
    small = {name: p for name, p in corpus.all_corpus(3).items() if p.n <= 4}
    out = []
    for loop in (suites.SUITES[suite], LITERAL_SUITES[suite]):
        run = suites._Run(suite, 0)
        loop(run, suites._Ctx(seed=0, corpus=small))
        out.append(suites.emit_report(run.report(0.0)))
    return out


@pytest.mark.parametrize("suite", sorted(LITERAL_SUITES))
def test_sampled_suites_match_literal_triple_loop(suite):
    """Each sampled suite, which decides each trap mask once per poset
    and counts the triples of its (mask, point) classes, reports the
    bytes of a literal loop that builds every triple of the class, its
    net and trap mask, and decides every verdict on it (the premise of
    ``waybelow-forces-family`` by exception sets), on the posets of at
    most 4 points of the size-3 corpus."""
    fast, literal = _triple_reports(suite)
    assert suites.parse_report(fast).ok
    assert fast == literal


# Verdicts the failure-path test turns wrong, per case: function -> a
# test on (point index, trap mask 0?) that picks where it answers the
# opposite.  A per-point predicate's verdict is negated there; a set
# form (``limits`` in one mode, ``topological_limits``) has bit ``x`` of
# its mask flipped.  ``scattered`` makes every sampled suite fail at a
# few points: ``liminf-to-family`` reads the per-point predicates and
# the lim-inf set form, which disagree at ``(0, True)`` and ``(1,
# True)``, and the other two suites read the set forms.
# ``trivial-scott`` makes every trivial-ideal triple fail the Scott
# check, so none reaches the trivial check and
# ``family-convergence-topological`` fails ``trivial-checked`` too.
FLIPS = {
    "scattered": {
        "converges_liminf": lambda x, trivial: (x, trivial) in {(2, False), (0, True)},
        "converges_family_liminf": lambda x, trivial: (x, trivial) in {(0, False), (1, True)},
        "limits:liminf": lambda x, trivial: (x, trivial) in {(2, False), (1, True)},
        "limits:family": lambda x, trivial: (x, trivial) in {(0, False), (1, True)},
        "topological_limits": lambda x, trivial: (x, trivial) == (1, True),
    },
    "trivial-scott": {"topological_limits": lambda x, trivial: trivial},
}
FLIP_CASES = [(suite, "scattered") for suite in sorted(LITERAL_SUITES)]
FLIP_CASES.append(("family-convergence-topological", "trivial-scott"))


def _flip(key, flips):
    """The function ``cv.<name>`` of ``key`` (``name`` or
    ``name:mode``), answering wrongly where ``flips`` picks."""
    attr, _, mode = key.partition(":")
    original = getattr(cv, attr)
    if attr.startswith("converges_"):

        def flipped(p, trap, x, *rest):
            verdict = original(p, trap, x, *rest)
            if flips(x, trap == 0):
                return verdict._replace(holds=not verdict.holds)
            return verdict

        return attr, flipped

    def flipped_mask(p, trap, *rest):
        out = original(p, trap, *rest)
        if not mode or rest == (mode,):
            for x in range(p.n):
                if flips(x, trap == 0):
                    out ^= 1 << x
        return out

    return attr, flipped_mask


@pytest.mark.parametrize(("suite", "case"), FLIP_CASES)
def test_sampled_suites_report_failures_like_literal_loop(suite, case, monkeypatch):
    """With the functions of ``FLIPS[case]`` answering wrongly at chosen
    points and ideals, each sampled suite fails, and its report on the
    posets of ``_triple_reports`` is byte for byte that of the literal
    per-triple loop: the replay of
    a failing class gives each of its triples its own failing case, with
    the label, order and witness of the literal loop, and
    ``trivial-checked`` holds only where a trivial-ideal triple reached
    the trivial check.  The flips read the point and whether the mask is
    ``0`` (the trivial ideal)."""
    for key, flips in FLIPS[case].items():
        monkeypatch.setattr(cv, *_flip(key, flips))
    fast, literal = _triple_reports(suite)
    report = suites.parse_report(fast)
    assert not report.ok
    assert report.passed == report.cases - len(report.failures)
    assert fast == literal
    suffixes = {f["case"].rsplit(":", 1)[1] for f in report.failures}
    if case == "trivial-scott":
        assert suffixes == {"scott", "trivial-checked"}
    elif suite == "family-convergence-topological":
        assert {"scott", "liminf", "trivial"} <= suffixes
    elif suite == "liminf-to-family":
        assert "set-form" in suffixes and len(suffixes) > 1


def _strict_liminf(p, trap, ix):
    """Mutant 14: the lim-inf rule with ``{ix}`` for the limit's upper
    set ``p.up[ix]``, so only a net trapped at the limit itself
    converges."""
    if trap & ~(1 << ix) == 0:
        return cv.Verdict(True, {"directed_set": [p.elements[ix]], "shape": "principal"})
    return cv.Verdict(False, {"point": p.elements[ix]})


def _strict_limits(p, trap, mode, original=cv.limits):
    if mode != "liminf":
        return original(p, trap, mode)
    return sum(1 << ix for ix in range(p.n) if trap & ~(1 << ix) == 0)


@pytest.mark.parametrize("mutated", ["converges_liminf", "limits"])
def test_too_strict_liminf_fails_the_set_form_check(mutated, monkeypatch):
    """A lim-inf rule that is too strict in either form, the per-point
    predicate or ``limits(..., "liminf")``, fails ``liminf-to-family``
    with ``:set-form`` cases only: a stricter lim-inf never breaks "lim-inf
    implies family", so only the comparison of the two forms sees it.
    Each class that fails was a passing case of the correct run, so the
    case count stays the same."""
    green = suites.run_suite("liminf-to-family", max_size=3)
    assert green.ok
    strict = {"converges_liminf": _strict_liminf, "limits": _strict_limits}[mutated]
    monkeypatch.setattr(cv, mutated, strict)
    report = suites.run_suite("liminf-to-family", max_size=3)
    assert not report.ok
    assert {f["case"].rsplit(":", 1)[1] for f in report.failures} == {"set-form"}
    assert report.cases == green.cases


# The functions each sampled suite reads once per (trap mask, point)
# class, and once per trap mask, at the given modes.
SAMPLED_DECIDERS = {
    "liminf-to-family": ("converges_liminf", ("liminf",)),
    "waybelow-forces-family": (None, ("family",)),
    "family-convergence-topological": (None, ("family", "liminf")),
}


@pytest.mark.parametrize("suite", sorted(SAMPLED_DECIDERS))
def test_sampled_verdicts_depend_on_class_and_point(suite, monkeypatch):
    """The verdicts take a triple's trap mask and point, so a sampled
    suite may decide each trap mask once.  At size 4 it reads
    ``limits`` exactly once per (poset, mask of the built triples, mode
    it uses), and ``liminf-to-family`` calls ``converges_liminf``
    exactly once per (poset, mask, point), which the report alone does
    not show where every case passes.  The masks are read from the built
    nets (``trap_mask``)."""
    per_point, modes = SAMPLED_DECIDERS[suite]
    needed: Counter = Counter()
    for name, p in corpus.all_corpus(4).items():
        for mask in {cv.trap_mask(p, net, idl) for net, idl in _class_pairs(p)}:
            for mode in modes:
                needed["limits", name, mask, mode] = 1
            if per_point:
                for x in range(p.n):
                    needed[per_point, name, mask, x] = 1
    calls: Counter = Counter()

    def recording(attr):
        original = getattr(cv, attr)

        def record(p, trap, arg):
            calls[attr, p.name, trap, arg] += 1
            return original(p, trap, arg)

        return record

    for attr in ("limits", per_point):
        if attr:
            monkeypatch.setattr(cv, attr, recording(attr))
    assert suites.run_suite(suite, max_size=4, seed=0).ok
    monkeypatch.undo()
    assert calls == needed


@pytest.mark.parametrize("max_size", [5, 6])
def test_every_class_is_decided_once(max_size, monkeypatch):
    """At the sizes the benchmark and CI run, each sampled suite decides
    every trap mask of every corpus poset by exactly one ``outcome``
    call, which returns one verdict per point: the masks are ``0`` and
    every nonempty set of at most 3 points (``NetClass.traps``)."""
    calls: Counter = Counter()
    original = suites._sample_net

    def counting(run, name, p, outcome):
        def counted(mask):
            calls[run.suite, name, mask] += 1
            row = outcome(mask)
            assert len(row) == p.n
            return row

        return original(run, name, p, counted)

    monkeypatch.setattr(suites, "_sample_net", counting)
    masks = [
        (name, mask)
        for name, p in corpus.all_corpus(max_size).items()
        for mask in [0, *cv.NetClass(max_index_size=3).traps(p)]
    ]
    for suite in SAMPLED_DECIDERS:
        assert suites.run_suite(suite, max_size=max_size, seed=0).ok, suite
    assert calls == Counter((suite, *m) for suite in SAMPLED_DECIDERS for m in masks)


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


# The per-pair loops below rewrite a suite's finite part only; its
# side-point part runs from the suite itself, on an empty corpus.


def _per_pair_interpolation(run, ctx):
    """``interpolation``'s finite part with way-below asked of
    ``set_way_below`` per (antichain, point) pair."""
    for name, p in ctx.corpus.items():
        for h in p.antichain_masks:
            for ix in range(p.n):
                if wb.set_way_below(p, h, 1 << ix):
                    f = wb.interpolate(p, h, ix)
                    ok = wb.set_way_below(p, h, f) and wb.set_way_below(p, f, 1 << ix)
                    label = f"{name}:{sorted(p.ids_of(h))}<<{p.elements[ix]}"
                    run.check(label, ok, None if ok else {"between": list(p.ids_of(f))})
    suites._suite_interpolation(run, suites._Ctx(seed=0))


def _per_pair_family_forces_waybelow(run, ctx):
    """``family-forces-waybelow`` with way-below asked per pair and the
    escape decided per pair, against each ``up(g)``."""
    I = cv.ideal("eventual")
    for name, p in ctx.corpus.items():
        for g in p.antichain_masks:
            for ix, x in enumerate(p.elements):
                if wb.set_way_below(p, g, 1 << ix):
                    continue
                net = cv.track_net(cv.const_track(x))
                conv = cv.converges_family_liminf(p, cv.trap_mask(p, net, I), ix).holds
                escaped = not cv.ideal_member(I, cv.exception_set(p, net, p.up_of_mask(g)))
                run.check(f"{name}:{sorted(p.ids_of(g))}:{x}", conv and escaped)


def _per_pair_waybelow_forces_family(run, ctx):
    """``waybelow-forces-family`` with the meets of the upper sets way
    below each point built from per-pair ``set_way_below`` calls."""
    for name, p in ctx.corpus.items():
        meets = [p.universe] * p.n
        for g in p.antichain_masks:
            for ix in range(p.n):
                if wb.set_way_below(p, g, 1 << ix):
                    meets[ix] &= p.up_of_mask(g)

        def outcome(mask, p=p, meets=meets):
            fam = cv.limits(p, mask, "family")
            return [None if mask & ~m else bool(fam >> x & 1) or "" for x, m in enumerate(meets)]

        suites._sample_net(run, name, p, outcome)
    suites._suite_waybelow_forces_family(run, suites._Ctx(seed=0))


PER_PAIR_LOOPS = {
    "interpolation": _per_pair_interpolation,
    "family-forces-waybelow": _per_pair_family_forces_waybelow,
    "waybelow-forces-family": _per_pair_waybelow_forces_family,
}


def _per_pair_reports(suite):
    """The report bytes of ``suite`` and of its per-pair loop at size 4."""
    out = []
    for loop in (suites.SUITES[suite], PER_PAIR_LOOPS[suite]):
        run = suites._Run(suite, 0)
        loop(run, suites._Ctx(seed=0, corpus=corpus.all_corpus(4)))
        out.append(suites.emit_report(run.report(0.0)))
    return out


@pytest.mark.parametrize("suite", sorted(PER_PAIR_LOOPS))
def test_waybelow_row_suites_match_per_pair_loop(suite):
    """The suites that read way-below off the rows ``p.antichain_ups``
    report, at size 4, the bytes of a loop that asks ``set_way_below``
    of every (antichain, point) pair."""
    fast, per_pair = _per_pair_reports(suite)
    assert suites.parse_report(fast).ok
    assert fast == per_pair


def test_family_forces_waybelow_replays_a_failing_point_per_pair(monkeypatch):
    """With ``exception_set`` making the constant net at each poset's
    point of index 0 stay inside every region of at least two points
    (its exceptions still grow as the region shrinks), that point fails
    its one escape decision and its pairs are replayed, each against its
    own ``up(g)``: the report at size 4 is byte for byte that of the
    per-pair loop, each failing pair with its own label in order, while
    the pairs whose ``up(g)`` is one point still pass."""
    original = cv.exception_set

    def stays_in_large_regions(p, net, region):
        if net == cv.track_net(cv.const_track(p.elements[0])) and bin(region).count("1") > 1:
            return cv.finite_omega([])
        return original(p, net, region)

    monkeypatch.setattr(cv, "exception_set", stays_in_large_regions)
    fast, per_pair = _per_pair_reports("family-forces-waybelow")
    report = suites.parse_report(fast)
    assert not report.ok
    assert report.passed == report.cases - len(report.failures)
    assert fast == per_pair
    assert "diamond:['top']:bot" not in {f["case"] for f in report.failures}
    assert "diamond:['l', 'r']:bot" in {f["case"] for f in report.failures}


def test_interpolation_fails_where_interpolate_refuses(monkeypatch):
    """A too-strict ``set_way_below`` (a set way below only its own
    points) makes ``interpolate`` refuse pairs the rows hold: each such
    pair is a failing case with the refusal as witness, not an error, and
    ``finite-collapse`` fails too."""
    monkeypatch.setattr(wb, "set_way_below", lambda p, g, h: h & ~g == 0)
    report = suites.run_suite("interpolation", max_size=2, seed=0)
    refused = [f for f in report.failures if "refused" in f]
    assert refused and len(refused) == len(report.failures)
    assert "diamond:['bot']<<top" in {f["case"] for f in refused}
    assert not suites.run_suite("finite-collapse", max_size=2, seed=0).ok


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
SMALL_ALL_SHA256 = "380879d919e5926f310e8315658f3feb36556f80b2187338b33db302676afeb8"


def test_small_all_report_bytes_are_pinned():
    """The fixed-seed report of every suite at size 3, in a fresh
    interpreter, has pinned bytes on each Python the tests run under."""
    assert _stdout_sha256("verify", "--suite", "all", "--max-size", "3", "--seed", "42") == (
        SMALL_ALL_SHA256
    )


# sha256 of ``verify --suite family-convergence-topological --max-size 5
# --seed 3`` on stdout, the size the benchmark runs that suite at.
FAMILY_CONVERGENCE_5_SHA256 = "3853aa0119ec85a530f0d1439e3d3c12969166375dfe812dad028cf9ce678e09"


def test_family_convergence_report_bytes_are_pinned_at_size_5():
    """The report of ``family-convergence-topological`` at size 5 has
    pinned bytes, so the per-(trap mask, point) decisions are checked at
    the size the benchmark runs, on each Python the tests run under."""
    argv = ("verify", "--suite", "family-convergence-topological", "--max-size", "5", "--seed", "3")
    assert _stdout_sha256(*argv) == FAMILY_CONVERGENCE_5_SHA256
