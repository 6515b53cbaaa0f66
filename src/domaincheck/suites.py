"""Verification suites: one per checked statement, plus the aggregate.

Each suite replays one proposition or theorem across the corpus and
returns a report of cases run, cases passed, and machine-checkable
failure witnesses.  Failures never abort a suite; everything runs to
completion and aggregates.  No suite draws at random: the three suites
over the triple class (:func:`_sample_net`) decide every (trap mask,
point) class of it, so a report depends on the corpus alone, records the
seed it was given, and reruns are byte-identical.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from math import comb

from . import convergence as cv
from . import corpus as cp
from . import rudin as rd
from . import sidenat as sn
from . import topology as tp
from . import waybelow as wb
from . import oplog
from .errors import PreconditionFailed, UnknownSuite
from .oplog import logged
from .order import FinitePoset, bits
from .sidenat import A, TOP


@dataclass
class SuiteReport:
    suite: str
    cases: int
    passed: int
    failures: list[dict]
    seed: int
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures


@logged("suites.emit")
def emit_report(report: SuiteReport, fmt: str = "json") -> bytes:
    """Render a report; the JSON schema is stable and excludes wall time,
    so fixed-seed reruns are byte-identical."""
    if fmt == "json":
        payload = {
            "suite": report.suite,
            "cases": report.cases,
            "passed": report.passed,
            "failures": report.failures,
            "seed": report.seed,
        }
        return (json.dumps(payload, indent=2) + "\n").encode()
    if fmt == "text":
        lines = [
            f"suite {report.suite}: {report.passed}/{report.cases} passed"
            f" (seed {report.seed}, {report.wall_time:.2f}s)"
        ]
        for f in report.failures:
            lines.append(f"  FAIL {f.get('case', '?')}: {json.dumps(f, sort_keys=True)}")
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown report format {fmt!r}")


def parse_report(data: bytes) -> SuiteReport:
    d = json.loads(data)
    return SuiteReport(d["suite"], d["cases"], d["passed"], d["failures"], d["seed"])


@dataclass
class _Ctx:
    """What the suites of one ``run_suite`` call share: the seed, the corpus
    and a memo, ``ctx.once(build, p, *args)``, that builds each (builder,
    poset, arguments) artefact once, however many suites read it.  The memo
    lives on the context, not on a builder, so every run still calls each
    builder op that ``coverage:all-ops`` asks for; callers look the builder
    up on its module at call time (``tp.lawson_topology``), so a name
    rebound there is the one that runs."""

    seed: int
    corpus: dict[str, FinitePoset] = field(default_factory=dict)
    built: dict = field(default_factory=dict)

    def once(self, build, p: FinitePoset, *args):
        key = (build, p.name, args)
        if key not in self.built:
            self.built[key] = build(p, *args)
        return self.built[key]


class _Run:
    def __init__(self, suite: str, seed: int) -> None:
        self.suite = suite
        self.seed = seed
        self.cases = 0
        self.failures: list[dict] = []

    def check(self, case: str, ok: bool, witness: dict | None = None) -> None:
        self.cases += 1
        if not ok:
            entry = {"case": case}
            entry.update(witness or {})
            self.failures.append(entry)

    def report(self, wall: float) -> SuiteReport:
        return SuiteReport(
            self.suite, self.cases, self.cases - len(self.failures), self.failures, self.seed, wall
        )


# -- individual suites -------------------------------------------------------


def _suite_interpolation(run: _Run, ctx: _Ctx) -> None:
    """Between a set way below a point there is an interpolating finite set.

    On a finite poset an antichain ``h`` is way below ``x`` iff ``x`` is
    in ``up(h)`` (checked on every pair by ``finite-collapse``), so the
    points each ``h`` is way below are read off its row in
    ``p.antichain_ups``, not asked of ``set_way_below`` one by one.  Each
    such pair is a case: ``interpolate`` gives ``f`` and both
    ``h << f`` and ``f << x`` are checked.  Where ``interpolate`` refuses
    a row point, the case fails with the refusal as its witness.  A
    finite case's label and witness are built only if it fails."""
    for name, p in ctx.corpus.items():
        for h, up_h in zip(p.antichain_masks, p.antichain_ups):
            for ix in bits(up_h):
                try:
                    f = wb.interpolate(p, h, ix)
                except PreconditionFailed as exc:
                    witness = {"refused": str(exc)}
                else:
                    if wb.set_way_below(p, h, f) and wb.set_way_below(p, f, 1 << ix):
                        run.cases += 1
                        continue
                    witness = {"between": list(p.ids_of(f))}
                run.check(f"{name}:{sorted(p.ids_of(h))}<<{p.elements[ix]}", False, witness)
    for h in sn.iter_antichains_upto(4):
        for x in (A, TOP, 0, 1, 3, 6):
            if not sn.set_way_below(h, (x,)):
                continue
            f = sn.interpolate(h, x)
            ok = sn.set_way_below(h, f) and sn.set_way_below(f, (x,))
            run.check(f"side:{h}<<{x}", ok, {"between": [str(e) for e in f]} if not ok else None)


def _suite_liminf_topology(run: _Run, ctx: _Ctx) -> None:
    """The topology induced by lim-inf convergence is the Scott topology.
    The derived ``liminf`` topology is read as the ``family`` one: both use
    ``_derivation_class``, and :func:`convergence.limits` gives the two
    modes the same principal test (``test_derived_naive_matches_reduced``
    derives it net by net)."""
    for name, p in ctx.corpus.items():
        derived = ctx.once(cv.derive_convergence_topology, p, "family")
        sc = ctx.once(tp.scott_topology, p)
        run.check(
            f"{name}:liminf=scott",
            derived.opens == sc.opens,
            {"derived": len(derived.opens), "scott": len(sc.opens)},
        )


def _suite_liminf_to_family(run: _Run, ctx: _Ctx) -> None:
    """Lim-inf convergence implies family lim-inf convergence, on every
    triple of the triple class (:func:`_sample_net`) over each corpus
    poset, then on the side-point dcpo's nets.

    On a finite poset both predicates take a triple's trap mask, so
    each (mask, point) class is decided once and counts its triples.
    This suite keeps the per-point predicates, and checks the lim-inf one
    against its set form, :func:`convergence.limits` in ``"liminf"``
    mode, read once per mask: a class where the two differ fails with the
    suffix ``:set-form``.  A green run adds no case for it, and a lim-inf
    rule that is wrong in just one of the two forms fails ``verify``."""
    for name, p in ctx.corpus.items():

        def outcome(mask):
            set_form = cv.limits(p, mask, "liminf")
            row = []
            for x in range(p.n):
                lim = cv.converges_liminf(p, mask, x).holds
                if lim != bool(set_form >> x & 1):
                    row.append(":set-form")
                elif lim:
                    row.append(cv.converges_family_liminf(p, mask, x).holds or "")
                else:
                    row.append(None)
            return row

        _sample_net(run, name, p, outcome)
    I = cv.ideal("eventual")
    for label, net in _side_nets():
        gi = sn.eventual_family(net, I)
        for x in (A, TOP, 0, 2, 5):
            if sn.converges_liminf(gi, x).holds:
                run.check(f"side:{label}:{x}", sn.converges_family_liminf(gi, x).holds)


def _suite_family_forces_waybelow(run: _Run, ctx: _Ctx) -> None:
    """If a set is not way below a point, some family-convergent net escapes
    its upper set: the constant net at the point, under the eventual ideal.

    A case is an (antichain ``g``, point ``x``) pair with ``g`` not way
    below ``x``, that is with ``x`` outside ``up(g)``, read off the row
    ``p.antichain_ups``.  The net and its verdict depend on ``x`` alone,
    and so does its escape: ``R(x) = p.universe & ~p.down[x]`` is the
    largest upper set missing ``x``, the union of every ``up(g)`` with
    ``g`` not way below ``x``.  An exception set grows as its region
    shrinks and an ideal is down-closed, so a net that escapes ``R(x)``
    escapes each such ``up(g)``.  So each ``x`` is decided once, against
    ``R(x)``, and its pairs pass together; only the pairs of a point that
    fails are replayed one by one, each against ``up(g)``, in the same
    order and with the same labels.  A case's label is built only if it
    fails."""
    I = cv.ideal("eventual")
    for name, p in ctx.corpus.items():
        nets = [cv.track_net(cv.const_track(e)) for e in p.elements]
        conv = [cv.converges_family_liminf(p, cv.trap_mask(p, n, I), ix).holds for ix, n in enumerate(nets)]
        good = 0
        for ix, net in enumerate(nets):
            region = p.universe & ~p.down[ix]
            if conv[ix] and not cv.ideal_member(I, cv.exception_set(p, net, region)):
                good |= 1 << ix
        for g, up_g in zip(p.antichain_masks, p.antichain_ups):
            outside = p.universe & ~up_g
            run.cases += bin(outside & good).count("1")
            for ix in bits(outside & ~good):
                escaped = not cv.ideal_member(I, cv.exception_set(p, nets[ix], up_g))
                if conv[ix] and escaped:
                    run.cases += 1
                else:
                    run.check(f"{name}:{sorted(p.ids_of(g))}:{p.elements[ix]}", False)


def _suite_waybelow_forces_family(run: _Run, ctx: _Ctx) -> None:
    """On quasi-continuous posets, a net trapped by every set way below a
    point family-converges to that point: on every triple of the triple
    class (:func:`_sample_net`) over each corpus poset, then on the
    side-point dcpo's nets.

    On a finite poset the family verdict takes a triple's trap mask
    (:func:`convergence.trap_mask`), and each mask's family limits are
    read once, from :func:`convergence.limits`.  The net is trapped by
    every set way below ``x`` iff its mask lies inside the meet of their
    upper sets, so the premise is one subset test per point, and each
    (mask, point) class whose premise holds counts its triples.  An
    antichain ``g`` is way below ``x`` iff ``x`` is in ``up(g)``
    (checked on every pair by ``finite-collapse``), so each meet is built
    from the rows ``p.antichain_ups``."""
    for name, p in ctx.corpus.items():
        waydown_meets = [p.universe] * p.n
        for up_g in p.antichain_ups:
            for ix in bits(up_g):
                waydown_meets[ix] &= up_g

        def outcome(mask):
            fam = cv.limits(p, mask, "family")
            return [
                None if mask & ~meet else bool(fam >> x & 1) or ""
                for x, meet in enumerate(waydown_meets)
            ]

        _sample_net(run, name, p, outcome)
    I = cv.ideal("eventual")
    for label, net in _side_nets():
        gi = sn.eventual_family(net, I)
        for x in (A, TOP, 0, 3):
            if gi.includes(sn.fin_of(x)):
                run.check(f"side:{label}:{x}", sn.converges_family_liminf(gi, x).holds)


def _suite_finest_topology(run: _Run, ctx: _Ctx) -> None:
    """The derived family-convergence topology is finest: any topology in
    which every family-convergent net converges is contained in it.

    A candidate topology meets the premise iff every family-convergent
    probe ``(net, point)`` converges in it.  Both predicates take a net's
    trap mask (:func:`convergence.trap_mask`), so no net is enumerated:
    the probes are the family-convergent (mask, point) pairs of the probe
    class's masks (:meth:`convergence.NetClass.traps`).
    ``test_enumerating_suites_match_literal_net_loop`` compares the
    report with the literal per-net loop, and
    ``test_enumerated_verdicts_depend_on_mask_and_point`` checks that
    each pair is decided once."""
    probe_class = cv.NetClass(max_index_size=2, max_track_period=2)
    for name, p in ctx.corpus.items():
        derived = ctx.once(cv.derive_convergence_topology, p, "family")
        pool = {
            "indiscrete": ctx.once(tp.indiscrete_topology, p),
            "scott": ctx.once(tp.scott_topology, p),
            "lawson": ctx.once(tp.lawson_topology, p),
            "discrete": ctx.once(tp.discrete_topology, p),
        }
        probes = [
            (mask, ix)
            for mask in probe_class.traps(p)
            for ix in range(p.n)
            if cv.converges_family_liminf(p, mask, ix).holds
        ]
        for label, topo in pool.items():
            if all(cv.converges_topological(p, mask, ix, topo).holds for mask, ix in probes):
                run.check(f"{name}:{label}", topo.opens <= derived.opens)
            else:
                run.check(f"{name}:{label}:vacuous", True)


def _suite_family_topology_reduction(run: _Run, ctx: _Ctx) -> None:
    """The net-derived family topology equals the family-defined one, read
    as the poset's upper sets; ``family-topology-is-scott`` checks that
    the family-defined topology has exactly those opens."""
    for name, p in ctx.corpus.items():
        derived = ctx.once(cv.derive_convergence_topology, p, "family")
        run.check(f"{name}", derived.opens == frozenset(p.upper_masks))


def _suite_family_topology_is_scott(run: _Run, ctx: _Ctx) -> None:
    """The family lim-inf topology is the Scott topology.

    Both cases take the family topology built from one constraint per
    antichain, the upper set of each directed family's greatest member
    (:func:`topology.family_liminf_topology`).  The ``:upper-sets`` case
    compares it with ``scott_topology``, the poset's upper sets; the
    ``:definition`` case compares it with the Scott opens decided by
    definition, every mask tested for being upper and inaccessible by
    directed suprema (:func:`_scott_opens_by_definition`)."""
    for name, p in ctx.corpus.items():
        sc = ctx.once(tp.scott_topology, p)
        family = ctx.once(tp.family_liminf_topology, p)
        run.check(f"{name}:upper-sets", family.opens == sc.opens)
        run.check(f"{name}:definition", family.opens == ctx.once(_scott_opens_by_definition, p))


def _suite_family_convergence_topological(run: _Run, ctx: _Ctx) -> None:
    """Family lim-inf convergence coincides with Scott-topological ideal
    convergence; lim-inf convergence implies it; the trivial ideal makes
    every net converge to every point.  Checked on every triple of the
    triple class (:func:`_sample_net`) over each corpus poset.

    A triple fails ``:scott`` where its family and Scott verdicts differ,
    else ``:liminf`` where it lim-inf converges but does not family
    converge, else ``:trivial`` where its ideal is trivial and it does not
    family converge.

    On a finite poset all three verdicts take a triple's trap mask
    (:func:`convergence.trap_mask`), so each mask is decided once, for
    every point, by its set of limits in each sense:
    :func:`convergence.limits` in ``"family"`` and ``"liminf"`` mode and
    :func:`convergence.topological_limits` in the Scott topology.  The
    538,044 cases at size 5 rest on 2,354 masks (11,878 classes).
    A mask is ``0`` iff the ideal is trivial: an eventual mask is one
    bit and a proper ideal's mask on the naturals is the union of at
    least one value.  So the trivial-ideal case reads the mask, and a
    trivial-ideal triple reached the trivial check (passed the Scott
    and lim-inf checks) iff some class of mask ``0`` has the verdict
    ``True`` or ``":trivial"``, which ``trivial-checked`` reads.
    """
    for name, p in ctx.corpus.items():
        sc = ctx.once(tp.scott_topology, p)
        green = [True] * p.n

        def outcome(mask):
            fam = cv.limits(p, mask, "family")
            scott = fam ^ cv.topological_limits(p, mask, sc)
            liminf = cv.limits(p, mask, "liminf") & ~fam
            if not scott | liminf and (mask or fam == p.universe):
                return green  # every point passes; the rows are read only
            return [
                ":scott" if scott >> x & 1
                else ":liminf" if liminf >> x & 1
                else bool(fam >> x & 1) or mask != 0 or ":trivial"
                for x in range(p.n)
            ]

        verdicts = _sample_net(run, name, p, outcome)
        trivial = [verdicts[x] for x in range(p.n)]
        run.check(f"{name}:trivial-checked", True in trivial or ":trivial" in trivial)


def _suite_lawson_below_eventual(run: _Run, ctx: _Ctx) -> None:
    """The Lawson topology is contained in the derived eventual-liminf
    topology (over finite-index net classes)."""
    for name, p in ctx.corpus.items():
        law = ctx.once(tp.lawson_topology, p)
        derived = ctx.once(cv.derive_convergence_topology, p, "eventual")
        run.check(f"{name}", law.opens <= derived.opens)


def _suite_eventual_liminf_lawson(run: _Run, ctx: _Ctx) -> None:
    """Under the eventual ideal, eventual lim-inf status coincides with
    Lawson-topological ideal convergence for every net over a directed
    index of at most 3 points, on every corpus poset of at most 4
    elements.  Only the eventual ideal is checked: under the trivial
    ideal the two disagree on most such triples.

    Both predicates take a net's trap mask (:func:`convergence.trap_mask`),
    and a finite-index net's eventual mask is the singleton of its value
    at the index's top, so the verdicts are fixed by the ``p.n ** 2``
    classes (mask of :meth:`convergence.NetClass.traps`, point), each
    decided once.  Only if one fails are the nets enumerated
    (:func:`convergence.generate_nets`), so each failing (net, point)
    keeps its own label.  ``test_enumerating_suites_match_literal_net_loop``
    compares the report with the literal per-net loop, and
    ``test_enumerated_verdicts_depend_on_mask_and_point`` checks the key.

    Periodic nets over the naturals are excluded from the equivalence:
    on them the literal eventual-liminf definition outruns Lawson
    convergence, and the last cases pin those counterexamples down so
    the gap stays visible.
    """
    netclass = cv.NetClass(max_index_size=3, max_track_period=0)
    for name, p in ctx.corpus.items():
        if p.n > 4:
            continue
        law = ctx.once(tp.lawson_topology, p)
        verdicts = {
            trap * p.n + ix: (
                cv.is_eventual_liminf(p, trap, ix).holds,
                cv.converges_topological(p, trap, ix, law).holds,
            )
            for trap in netclass.traps(p) for ix in range(p.n)
        }
        if any(a != b for a, b in verdicts.values()):
            for net in cv.generate_nets(p, netclass):
                trap = cv.trap_mask(p, net, cv.ideal("eventual", net.index))
                for ix in range(p.n):
                    a, b = verdicts[trap * p.n + ix]
                    if a != b:
                        run.check(
                            f"{name}:{net.index.name}:{net.values}:{p.elements[ix]}",
                            False,
                            {"eventual": a, "lawson": b},
                        )
        run.check(f"{name}:exhaustive", True)
    d = ctx.corpus["diamond"]
    I = cv.ideal("eventual")
    alt = cv.trap_mask(d, cv.track_net(cv.const_track("l"), cv.const_track("top")), I)
    gap_finite = (
        cv.is_eventual_liminf(d, alt, d.index("l")).holds
        and not cv.converges_topological(d, alt, d.index("l"), ctx.once(tp.lawson_topology, d)).holds
    )
    run.check("pinned:periodic-net-gap:diamond", gap_finite)
    net = cv.track_net(cv.ascend_track(), cv.const_track(A))
    gap_side = (
        sn.is_eventual_liminf(sn.eventual_family(net, I), A).holds
        and not sn.converges_topological(net, A, I, "lawson").holds
    )
    run.check("pinned:periodic-net-gap:side", gap_side)


def _suite_continuity_criterion(run: _Run, ctx: _Ctx) -> None:
    """Quasi-continuity plus meet-continuity yields continuity; every
    finite poset has all of them, and the side-point dcpo is the
    standard witness that quasi-continuity alone does not suffice."""
    for name, p in ctx.corpus.items():
        rep = wb.classify(p)
        all_four = (
            rep.is_dcpo and rep.is_continuous and rep.is_quasi_continuous and rep.is_meet_continuous
        )
        run.check(f"{name}:classify", all_four, rep.to_dict())
        implied = (not (rep.is_quasi_continuous and rep.is_meet_continuous)) or rep.is_continuous
        run.check(f"{name}:criterion", implied)
    side = sn.classify()
    run.check(
        "side:classify",
        side.is_dcpo
        and side.is_quasi_continuous
        and not side.is_continuous
        and not side.is_meet_continuous,
        side.to_dict(),
    )
    run.check("side:criterion", not (side.is_quasi_continuous and side.is_meet_continuous))


def _suite_rudin(run: _Run, ctx: _Ctx) -> None:
    """Every Smyth-directed family of at most three antichains yields a
    directed transversal, and the upper-set corollary, reading the
    extracted report, finds its member for the meet of the members'
    upper sets: the smallest qualifying target, so a member inside it is
    inside every larger one (``test_corollary_exhaustive_scott_opens``
    tries every Scott open).  :func:`_rudin_family` makes one family's
    cases.

    The families come by greatest member ``g``
    (:func:`topology._greatest_members`) and are decided by their
    (greatest member, member) pairs:

    - ``g`` is the tightest member, and the peak is ``g``'s least point;
    - each pick depends only on (peak, member);
    - so a family's transversal is the union of its pairs' transversals,
      and its verdict is the AND of its pairs' verdicts.

    So if the singleton ``(g,)`` and every pair ``(g, f)`` pass, the
    ``1 + k + k(k-1)/2`` families with greatest member ``g`` (``k``
    antichains above it) count as passing cases; if one fails, ``g``'s
    families are replayed in enumeration order, so each failure keeps its
    label, witness and place.  ``test_family_verdict_is_the_and_of_its_pairs``
    checks the fact on the library, and ``test_rudin_matches_literal_family_loop``
    compares the reports with the per-family loop.

    The ``:corollary-count`` case checks that the corollary ran on every
    family, counted without :func:`topology._greatest_members`: each
    antichain ``g`` with ``k`` antichains ``f`` Smyth-below it
    (``up(g) ⊆ up(f)``, read from ``p.antichain_ups``) heads
    ``1 + k + k(k-1)/2`` families."""
    for name, p in ctx.corpus.items():
        corollary_cases = 0
        for g, up_g, above in tp._greatest_members(p):
            probe = _Run(run.suite, run.seed)
            for fam, ups in tp._families_with_greatest(g, up_g, above, 2):
                _rudin_family(probe, name, p, fam, ups)
            if probe.failures:
                for fam, ups in tp._families_with_greatest(g, up_g, above, 3):
                    corollary_cases += _rudin_family(run, name, p, fam, ups)
            else:
                k = len(above)
                families = 1 + k + k * (k - 1) // 2
                run.cases += families
                corollary_cases += families
        ups = p.antichain_ups
        expected = 0
        for up_g in ups:
            k = sum(up_g & ~up_f == 0 for up_f in ups) - 1  # g itself is one
            expected += 1 + k + k * (k - 1) // 2
        run.check(
            f"{name}:corollary-count",
            corollary_cases == expected,
            {"count": corollary_cases, "families": expected},
        )


def _rudin_family(run: _Run, name: str, p: FinitePoset, fam: tuple, ups: tuple) -> bool:
    """One family's cases: it is Smyth-directed (else its extract case
    fails and nothing more runs on it), its transversal is directed,
    meets every member and stays inside their union, and the corollary's
    member for the meet ``ups[0]`` (the greatest member's upper set)
    lies inside it.  The member's upper set is rebuilt, not read from
    the report.  A case's label is built only if it fails.  Returns
    whether the corollary ran."""
    if not rd.is_directed_family(p, fam):
        run.check(f"{name}:extract:{fam}", False, {"directed": False})
        return False
    rep = rd.extract_directed(p, fam)
    ok = (
        p.is_directed_mask_pairwise(rep.directed_set)
        and all(rep.directed_set & f for f in fam)
        and rep.directed_set & ~_union(fam) == 0
    )
    if ok:
        run.cases += 1
    else:
        run.check(f"{name}:extract:{fam}", False, rep.to_dict(p))
    meet = ups[0]
    member = rd.rudin_corollary(p, rep, meet)
    if p.up_of_mask(member) & ~meet:
        run.check(f"{name}:corollary:{fam}:{meet}", False, {"member": list(p.ids_of(member))})
    return True


def _union(masks) -> int:
    out = 0
    for m in masks:
        out |= m
    return out


def _suite_sidenat(run: _Run, ctx: _Ctx) -> None:
    """The side-point dcpo behaves exactly as advertised: the pair sets
    are way below the side point, their upper sets intersect down to its
    upper set, the interleaved net separates the two convergence modes,
    and the classification flags are reproduced.  An ``oracle`` case's
    label and witness are built only if it fails."""
    for n in range(101):
        run.check(f"pair-waybelow:{n}", sn.set_way_below((n, A), (A,)))
    for g, h in product(sn.iter_antichains_upto(6), repeat=2):
        rule = sn.set_way_below(g, h)
        oracle = sn.way_below_oracle(g, h)
        if rule == oracle:
            run.cases += 1
        else:
            run.check(f"oracle:{g}:{h}", False, {"rule": rule, "oracle": oracle})
    fam = sn.side_family(pairs_from=0)
    run.check("pairs-meet-is-upper-side", fam.upset_intersection() == sn.up_set(A))
    meet = sn.FULL
    for n in range(31):
        meet = sn.inter(meet, sn.up_closure(sn.side_set_of((n, A))))
        expected = sn.union(sn.up_set(A), sn.up_set(n))
        run.check(f"partial-meet:{n}", meet == expected)
    run.check("directed-shape", sn.is_directed_set(sn.sideset(nats=range(3))))
    run.check("directed-sup", sn.directed_sup(sn.sideset(tail=0)) == TOP)
    run.check("down-closure", sn.down_closure(sn.up_set(3)) == sn.FULL)
    run.check("down-closure:side", sn.down_closure(sn.side_set_of((A,))) == sn.side_set_of((A,)))
    net = cv.track_net(cv.ascend_track(), cv.const_track(A))
    I = cv.ideal("eventual")
    gi = sn.eventual_family(net, I)
    run.check("interleaved:family", sn.converges_family_liminf(gi, A).holds)
    run.check("interleaved:liminf", not sn.converges_liminf(gi, A).holds)
    exc = sn.exception_set(net, sn.up_closure(sn.side_set_of((5, A))))
    lvl = sn.level_set(net, sn.up_closure(sn.side_set_of((5, A))))
    run.check("interleaved:exceptions", exc == cv.finite_omega([0, 2, 4, 6, 8]))
    run.check("interleaved:levels", cv.omega_inter(exc, lvl) == cv.OMEGA_EMPTY)
    rep = sn.classify()
    run.check(
        "classify",
        rep.is_quasi_continuous and not rep.is_continuous and not rep.is_meet_continuous,
        rep.to_dict(),
    )
    run.check("classify:dcpo", rep.is_dcpo)
    for f in ((3,), (3, A), (A,), (TOP,)):
        up = sn.up_closure(sn.side_set_of(f))
        run.check(f"way-up:{f}", sn.way_up(f) == sn.scott_interior(up))
    run.check("scott-open:upper-tail", sn.is_open("scott", sn.up_set(4)))
    run.check("scott-open:side-upset", not sn.is_open("scott", sn.up_set(A)))


def _suite_finite_collapse(run: _Run, ctx: _Ctx) -> None:
    """On finite posets the approximation relations collapse: way below is
    the order, set way below is the Smyth preorder, the Lawson topology is
    discrete, the Scott topology is the family of upper sets, and the
    Scott closure of a set is its down-set.

    Way-below is computed here by its definition, over every directed
    subset, and compared with both the closed form that ``set_way_below``
    uses and the relation it collapses to.  The definition is read as in
    ``waybelow._set_way_below_definitional``, grouped by ``g``: one row
    of escaping suprema (``waybelow._escape_mask``) per point and per
    antichain, against which ``g << h`` iff ``up(h) & row == 0``.  The
    three forms of ``:sets`` all read an antichain's upper set from the
    poset's table (:attr:`FinitePoset.up_table`, through ``up_of_mask``
    and ``p.antichain_ups``), so the case tests the quantification over
    directed subsets, not the table; ``test_mask_tables_match_the_rows``
    checks the table against the rows ``p.up``."""
    for name, p in ctx.corpus.items():
        rows = [wb._escape_mask(p, u) for u in p.up]
        ok_pts = all(
            (p.up[j] & rows[i] == 0)
            == wb.set_way_below(p, 1 << i, 1 << j)
            == p.leq(x, y)
            for i, x in enumerate(p.elements)
            for j, y in enumerate(p.elements)
        )
        run.check(f"{name}:points", ok_pts)
        chains, ups = p.antichain_masks, p.antichain_ups
        rows = [wb._escape_mask(p, u) for u in ups]
        ok_sets = all(
            (uh & row == 0) == wb.set_way_below(p, g, h) == wb.smyth_leq(p, g, h)
            for g, row in zip(chains, rows)
            for h, uh in zip(chains, ups)
        )
        run.check(f"{name}:sets", ok_sets)
        law = ctx.once(tp.lawson_topology, p)
        run.check(f"{name}:lawson-discrete", len(law.opens) == 1 << p.n)
        sc = ctx.once(tp.scott_topology, p)
        run.check(f"{name}:scott-upper", sc.opens == ctx.once(_scott_opens_by_definition, p))
        probe = p.up[0]
        run.check(f"{name}:interior-dual", sc.interior(probe) == probe)
        down = sum(1 << x for x in range(p.n) if p.up[x] & probe)
        run.check(f"{name}:closure-dual", sc.closure(probe) == down)


def _scott_opens_by_definition(p: FinitePoset) -> frozenset[int]:
    return frozenset(m for m in range(p.universe + 1) if tp._scott_open_definitional(p, m))


def _closed_by_neighborhoods(topo: tp.Topology) -> bool:
    """Closure of ``topo.opens`` under unions and intersections, by the
    Alexandrov fact: a finite family is closed under both iff every
    minimal neighbourhood ``m(x)`` is open and the opens are exactly the
    sets holding ``m(x)`` for each of their points.  The second part is
    the literal scan of all ``2**n`` masks, so it is a construction
    independent of ``topology._from_neighborhoods``, which builds
    ``lower``, ``lawson``, ``glim`` and the derived topologies as the
    union-closure of least open sets.
    Oracle: ``test_closed_by_neighborhoods_matches_pairwise_closure``."""
    p = topo.poset
    try:
        mins = topo.neighborhoods
    except PreconditionFailed:
        return False
    generated = frozenset(
        mask for mask in range(p.universe + 1) if all(mins[x] & ~mask == 0 for x in bits(mask))
    )
    return topo.opens == generated


def _suite_topology_axioms(run: _Run, ctx: _Ctx) -> None:
    """Every constructed finite topology contains the empty set and the
    whole space and is closed under unions and intersections.

    ``Topology`` checks only the first part on construction, so this is
    where closure is checked (:func:`_closed_by_neighborhoods`), for the
    five kinds below on every corpus poset.  Four of them are built by
    ``topology._from_neighborhoods`` as the union-closure of least open
    sets, and the check rebuilds the opens by the literal scan of every
    mask against the minimal neighbourhoods, so each case compares two
    independent constructions.  The other kinds are pinned to
    these: the derived ``liminf`` topology is the derived ``family`` one
    (see ``liminf-topology``), and the derived
    ``eventual`` topology contains ``lawson`` (``lawson-below-eventual``),
    which is every subset (``finite-collapse:lawson-discrete``).
    ``discrete`` and ``indiscrete`` are closed by construction."""
    for name, p in ctx.corpus.items():
        families = {
            "scott": ctx.once(tp.scott_topology, p),
            "lower": ctx.once(tp.lower_topology, p),
            "lawson": ctx.once(tp.lawson_topology, p),
            "glim": ctx.once(tp.family_liminf_topology, p),
            "net-family": ctx.once(cv.derive_convergence_topology, p, "family"),
        }
        for label, topo in families.items():
            run.check(f"{name}:{label}", _closed_by_neighborhoods(topo))


def _suite_inject_failure(run: _Run, ctx: _Ctx) -> None:
    """Hidden self-test: always fails, to exercise reporting paths."""
    run.check("synthetic", False, {"reason": "injected failure for harness tests"})


# -- the triple class ---------------------------------------------------------


# The nets of the triple class: a finite-index net over each directed index
# of at most 3 points, under its eventual and trivial ideals, and a
# constant-track net of period 1 to 3, under the four ideals on the naturals.
_TRIPLE_NETS = cv.NetClass(max_index_size=3)


def _net_ideals(net: cv.Net) -> tuple[cv.Ideal, ...]:
    if isinstance(net, cv.FiniteNet):
        return cv.ideal("eventual", net.index), cv.ideal("trivial", net.index)
    return tuple(cv.ideal(kind) for kind in cv.IDEAL_KINDS)


@lru_cache(maxsize=None)
def _class_weights(n: int) -> dict[int, int]:
    """Each trap mask of the triple class on an ``n``-point poset, in
    increasing order, with the number of its (net, ideal) pairs that have
    that mask (:func:`convergence.trap_mask`):

    - a finite index ``D`` gives ``{v}`` to the ``n ** (|D| - 1)`` nets
      with value ``v`` at its top under the eventual ideal, and ``0`` to
      its ``n ** |D|`` nets under the trivial ideal;
    - a constant-track net of period ``k`` has its value set as mask
      under each of the three proper ideals, so a mask of ``c`` points
      goes to ``3 * surj(k, c)`` nets, ``surj`` counting the maps of
      ``k`` positions onto ``c`` values; and ``0`` to its ``n ** k``
      nets under the trivial ideal.

    ``test_class_weights_count_built_nets`` compares the weights with the
    masks of every built net on every poset of at most 3 points."""
    sizes = [idx.n for idx in cp.directed_index_posets(_TRIPLE_NETS.max_index_size)]
    periods = range(1, _TRIPLE_NETS.max_track_period + 1)
    proper = len(cv.IDEAL_KINDS) - 1

    def surj(k: int, c: int) -> int:
        return sum((-1) ** j * comb(c, j) * (c - j) ** k for j in range(c + 1))

    # by_points[c]: the weight of a mask of c points; no mask has more
    # points than the longest track has values.
    by_points = [sum(n**s for s in sizes) + sum(n**k for k in periods)]
    by_points += [
        (c == 1) * sum(n ** (s - 1) for s in sizes) + proper * sum(surj(k, c) for k in periods)
        for c in range(1, periods[-1] + 1)
    ]
    return {m: by_points[c] for m in range(1 << n) if (c := bin(m).count("1")) < len(by_points)}


def _sample_net(run: _Run, name: str, p: FinitePoset, outcome) -> dict:
    """Decide every (trap mask, point) class of the triple class on ``p``
    once, count its triples as cases of ``run``, and return the verdicts
    of the classes of mask ``0`` and of every mask with a failing class,
    under their keys ``mask * p.n + x``; a missing key is a class that
    passed or made no case.

    A triple is a (net, ideal) pair of :data:`_TRIPLE_NETS` and
    :func:`_net_ideals` and a point ``x``.  The finite predicates read a
    pair only through its trap mask, so a triple's verdict depends on its
    class alone (``test_sampled_verdicts_depend_on_class_and_point``).
    ``outcome(mask)`` decides the classes of one mask, once per mask
    (``test_every_class_is_decided_once``): it returns the ``p.n``
    verdicts of points ``0, 1, ...``, each ``None`` if the class's triples
    are no case, ``True`` if they pass, else the suffix of their failure
    label.

    A case is still a triple: a passing class adds its multiplicity
    (:func:`_class_weights`) to ``run.cases``.  Criterion 4 and the
    benchmark's per-suite case floors count triples; as classes, size 5
    would give 11,878 cases and fail both.  If a class fails, the pairs
    are replayed net by net in :func:`convergence.generate_nets` order,
    and each triple of a failing class gets its own failing case,
    labelled ``{name}:{t}{suffix}`` with ``t`` its position in that
    order, and its witness; so ``passed == cases - len(failures)``.

    The name is kept from when these suites drew random triples: the
    benchmark's tracer (``perfbench/tracer.py``) wraps this attribute
    and counts its calls per suite as the ``sampled`` metric."""
    n = p.n
    verdicts: dict = {}
    passed, failing = 0, False
    for mask, weight in _class_weights(n).items():
        row = outcome(mask)
        good = row.count(True)
        passed += weight * good
        # A verdict is None, True or a failure suffix.
        failed = good + row.count(None) < n
        failing = failing or failed
        if failed or not mask:
            for x, v in enumerate(row):
                verdicts[mask * n + x] = v
    run.cases += passed
    if failing:
        t = 0
        for net in cv.generate_nets(p, _TRIPLE_NETS):
            for idl in _net_ideals(net):
                key = cv.trap_mask(p, net, idl) * n
                for x in range(n):
                    v = verdicts.get(key + x)
                    if isinstance(v, str):
                        run.check(f"{name}:{t}{v}", False, _triple_witness(p, net, x, idl))
                    t += 1
    return verdicts


def _triple_witness(p: FinitePoset, net: cv.Net, x: int, idl: cv.Ideal) -> dict:
    if isinstance(net, cv.FiniteNet):
        desc: dict = {"index": net.index.name, "map": dict(zip(net.index.elements, net.values))}
    else:
        desc = {"index": "omega", "tracks": list(net.tracks)}
    return {"net": desc, "point": p.elements[x], "ideal": idl.kind}


def _side_nets() -> list[tuple[str, cv.TrackNet]]:
    return [
        ("interleaved", cv.track_net(cv.ascend_track(), cv.const_track(A))),
        ("ascend", cv.track_net(cv.ascend_track())),
        ("const-side", cv.track_net(cv.const_track(A))),
        ("const-top", cv.track_net(cv.const_track(TOP))),
        ("const-3", cv.track_net(cv.const_track(3))),
        ("mixed", cv.track_net(cv.const_track(2), cv.const_track(A), cv.const_track(TOP))),
    ]


# -- registry and entry points -------------------------------------------------


SUITES = {
    "interpolation": _suite_interpolation,
    "liminf-topology": _suite_liminf_topology,
    "liminf-to-family": _suite_liminf_to_family,
    "family-forces-waybelow": _suite_family_forces_waybelow,
    "waybelow-forces-family": _suite_waybelow_forces_family,
    "finest-topology": _suite_finest_topology,
    "family-topology-reduction": _suite_family_topology_reduction,
    "family-topology-is-scott": _suite_family_topology_is_scott,
    "family-convergence-topological": _suite_family_convergence_topological,
    "lawson-below-eventual": _suite_lawson_below_eventual,
    "eventual-liminf-lawson": _suite_eventual_liminf_lawson,
    "continuity-criterion": _suite_continuity_criterion,
    "rudin": _suite_rudin,
    "sidenat": _suite_sidenat,
    "finite-collapse": _suite_finite_collapse,
    "topology-axioms": _suite_topology_axioms,
    "_inject-failure": _suite_inject_failure,
}


def suite_names() -> tuple[str, ...]:
    return tuple(name for name in SUITES if not name.startswith("_"))


@logged("suites.run")
def run_suite(name: str, *, max_size: int = 5, seed: int = 0) -> SuiteReport:
    if name == "all":
        return _run_all(max_size=max_size, seed=seed)
    if name not in SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; known: {', '.join(suite_names())}, all")
    ctx = _Ctx(seed=seed, corpus=cp.all_corpus(max_size))
    run = _Run(name, seed)
    t0 = time.perf_counter()
    SUITES[name](run, ctx)
    return run.report(time.perf_counter() - t0)


def _run_all(*, max_size: int, seed: int) -> SuiteReport:
    before = oplog.call_counts()
    ctx = _Ctx(seed=seed, corpus=cp.all_corpus(max_size))
    t0 = time.perf_counter()
    total = _Run("all", seed)
    for name in suite_names():
        sub = _Run(name, seed)
        SUITES[name](sub, ctx)
        report = sub.report(0.0)
        roundtrip = parse_report(emit_report(report, "json"))
        total.cases += report.cases
        total.failures.extend(
            {**f, "case": f"{name}:{f.get('case', '?')}"} for f in report.failures
        )
        total.check(f"{name}:roundtrip", roundtrip.failures == report.failures)
    # Coverage counts only calls made during this run.  ``suites.run`` is
    # counted by its own wrapper before this function starts.
    after = oplog.call_counts()
    missing = sorted(
        op for op in oplog.all_ops() - {"suites.run"} if after.get(op, 0) <= before.get(op, 0)
    )
    total.check("coverage:all-ops", not missing, {"missing": missing})
    return total.report(time.perf_counter() - t0)
