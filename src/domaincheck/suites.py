"""Verification suites: one per checked statement, plus the aggregate.

Each suite replays one proposition or theorem across the corpus and
returns a report of cases run, cases passed, and machine-checkable
failure witnesses.  Failures never abort a suite; everything runs to
completion and aggregates.  Sampled suites draw from a generator seeded
per suite name, so reruns with the same seed are byte-identical.
"""

from __future__ import annotations

import json
import random
import time
import zlib
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

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

    def rng(self, suite: str) -> random.Random:
        return random.Random(self.seed ^ zlib.crc32(suite.encode()))

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
    """Between a set way below a point there is an interpolating finite set."""
    for name, p in ctx.corpus.items():
        for h in p.iter_antichain_masks():
            for ix in range(p.n):
                if not wb.set_way_below(p, h, 1 << ix):
                    continue
                f = wb.interpolate(p, h, ix)
                ok = wb.set_way_below(p, h, f) and wb.set_way_below(p, f, 1 << ix)
                run.check(
                    f"{name}:{sorted(p.ids_of(h))}<<{p.elements[ix]}",
                    ok,
                    {"between": list(p.ids_of(f))} if not ok else None,
                )
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
    ``_derivation_class`` and the principal test of ``_limits_of_trap``
    (``test_derived_naive_matches_reduced`` derives it net by net)."""
    for name, p in ctx.corpus.items():
        derived = ctx.once(cv.derive_convergence_topology, p, "family")
        sc = ctx.once(tp.scott_topology, p)
        run.check(
            f"{name}:liminf=scott",
            derived.opens == sc.opens,
            {"derived": len(derived.opens), "scott": len(sc.opens)},
        )


def _suite_liminf_to_family(run: _Run, ctx: _Ctx) -> None:
    """Lim-inf convergence implies family lim-inf convergence.

    On a finite poset both predicates take a triple's trap mask, which
    is known from the draw, so :func:`_sample_net` decides each (mask,
    point) key once per poset, on its first draw.  Every sampled triple
    is still one case (``test_sampled_suites_match_literal_triple_loop``)."""
    rng = ctx.rng(run.suite)
    for name, p in ctx.corpus.items():

        def outcome(mask, x):
            if not cv.converges_liminf(p, mask, x).holds:
                return None
            return cv.converges_family_liminf(p, mask, x).holds or ""

        _sample_net(run, name, p, rng, 200, outcome)
    I = cv.ideal("eventual")
    for label, net in _side_nets():
        gi = sn.eventual_family(net, I)
        for x in (A, TOP, 0, 2, 5):
            if sn.converges_liminf(gi, x).holds:
                run.check(f"side:{label}:{x}", sn.converges_family_liminf(gi, x).holds)


def _suite_family_forces_waybelow(run: _Run, ctx: _Ctx) -> None:
    """If a set is not way below a point, some family-convergent net escapes
    its upper set: the constant net at the point, under the eventual ideal.
    The net and its verdict depend on the point alone: each is made once."""
    I = cv.ideal("eventual")
    for name, p in ctx.corpus.items():
        nets = [cv.track_net(cv.const_track(e)) for e in p.elements]
        conv = [cv.converges_family_liminf(p, cv.trap_mask(p, n, I), ix).holds for ix, n in enumerate(nets)]
        for g, up_g in zip(p.antichain_masks, p.antichain_ups):
            for ix in range(p.n):
                if wb.set_way_below(p, g, 1 << ix):
                    continue
                escaped = not cv.ideal_member(I, cv.exception_set(p, nets[ix], up_g))
                run.check(f"{name}:{sorted(p.ids_of(g))}:{p.elements[ix]}", conv[ix] and escaped)


def _suite_waybelow_forces_family(run: _Run, ctx: _Ctx) -> None:
    """On quasi-continuous posets, a net trapped by every set way below a
    point family-converges to that point.

    On a finite poset the family verdict takes a triple's trap mask
    (:func:`convergence.trap_mask`), which is known from the draw.  The
    net is trapped by every set way below ``x`` iff its mask lies inside
    the meet of their upper sets, so the premise is one subset test, and
    :func:`_sample_net` decides each (mask, point) key whose premise holds
    once per poset, on its first draw.  Every sampled triple
    is still one case (``test_sampled_suites_match_literal_triple_loop``)."""
    rng = ctx.rng(run.suite)
    for name, p in ctx.corpus.items():
        waydown_meets = [p.universe] * p.n
        for g, up_g in zip(p.antichain_masks, p.antichain_ups):
            for ix in range(p.n):
                if wb.set_way_below(p, g, 1 << ix):
                    waydown_meets[ix] &= up_g

        def outcome(mask, x):
            if mask & ~waydown_meets[x]:
                return None
            return cv.converges_family_liminf(p, mask, x).holds or ""

        _sample_net(run, name, p, rng, 200, outcome)
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
    every net converge to every point.

    Lim-inf convergence is decided only on triples whose family and
    Scott verdicts are both False: "lim-inf implies family" cannot fail
    where family holds, and a triple whose two verdicts differ already
    fails, so the verdicts and the failures are those of deciding it
    everywhere.

    On a finite poset all three predicates take a triple's trap mask
    (:func:`convergence.trap_mask`), which is known from the draw, so
    :func:`_sample_net` decides each (mask, point) key once per poset, on
    its first draw; the case logic still gives each triple its own
    label and witness (``test_sampled_suites_match_literal_triple_loop``).
    So the roughly 104,000 cases at size 5 rest on about 9,700 distinct
    keys, and ``test_sampled_verdicts_depend_on_class_and_point`` checks
    that each is decided by one call.  A mask
    is ``0`` iff the ideal is trivial: an eventual mask is one bit and a
    proper ideal's mask on the naturals is the union of at least one
    value.  So the trivial-ideal case reads the mask, and a
    trivial-ideal triple reached the trivial check (passed the Scott
    and lim-inf checks) iff some key below ``p.n`` has the verdict
    ``True`` or ``":trivial"``, which ``trivial-sampled`` reads.
    """
    rng = ctx.rng(run.suite)
    for name, p in ctx.corpus.items():
        sc = ctx.once(tp.scott_topology, p)

        def outcome(mask, x):
            fam = cv.converges_family_liminf(p, mask, x).holds
            if fam != cv.converges_topological(p, mask, x, sc).holds:
                return ":scott"
            if not fam and cv.converges_liminf(p, mask, x).holds:
                return ":liminf"
            return fam or mask != 0 or ":trivial"

        verdicts = _sample_net(run, name, p, rng, 1000, outcome)
        trivial = [v for key, v in verdicts.items() if key < p.n]
        run.check(f"{name}:trivial-sampled", True in trivial or ":trivial" in trivial)


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
    (``up(g) ⊆ up(f)``, each upper set built once) heads
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
        ups = [p.up_of_mask(g) for g in p.antichain_masks]
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
    the report.  Returns whether the corollary ran."""
    if not rd.is_directed_family(p, fam):
        run.check(f"{name}:extract:{fam}", False, {"directed": False})
        return False
    rep = rd.extract_directed(p, fam)
    ok = (
        p.is_directed_mask_pairwise(rep.directed_set)
        and all(rep.directed_set & f for f in fam)
        and rep.directed_set & ~_union(fam) == 0
    )
    run.check(f"{name}:extract:{fam}", ok, rep.to_dict(p) if not ok else None)
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
    and the classification flags are reproduced."""
    for n in range(101):
        run.check(f"pair-waybelow:{n}", sn.set_way_below((n, A), (A,)))
    for g, h in product(sn.iter_antichains_upto(6), repeat=2):
        rule = sn.set_way_below(g, h)
        oracle = sn.way_below_oracle(g, h)
        run.check(f"oracle:{g}:{h}", rule == oracle, {"rule": rule, "oracle": oracle})
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
    antichain, against which ``g << h`` iff ``up(h) & row == 0``."""
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
    sets holding ``m(x)`` for each of their points.  Not shared with
    ``topology_from_subbasis``, which builds ``lower`` and ``lawson``.
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
    five kinds below on every corpus poset.  The other kinds are pinned to
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


# -- net sampling -------------------------------------------------------------


@lru_cache(maxsize=None)
def _sampling_ideals() -> tuple[tuple, tuple[cv.Ideal, ...]]:
    """The indexes ``_sample_net`` draws from, each with the position of
    its greatest element and its eventual and trivial ideals,
    and the four ideals on the naturals, built once."""
    finite = tuple(
        (
            idx,
            idx.greatest_of_mask(idx.universe),
            (cv.ideal("eventual", idx), cv.ideal("trivial", idx)),
        )
        for idx in cp.directed_index_posets(3)
    )
    return finite, tuple(cv.ideal(kind) for kind in cv.IDEAL_KINDS)


def _sample_net(run: _Run, name: str, p: FinitePoset, rng: random.Random, count: int, outcome) -> dict:
    """Draw ``count`` random triples over ``p``, count them as cases of
    ``run`` in draw order, and return each drawn key's verdict.

    A triple is a (net, ideal) pair and a point ``x``: with even odds, a
    finite-index net under its eventual or trivial ideal, or a
    constant-track net of period 1 to 3 under one of the four ideals on the
    naturals.  Every index and the point are drawn by the ``getrandbits``
    rejection loop that ``Random._randbelow_with_getrandbits`` runs for
    ``rng.choice`` and ``rng.randrange(n)`` on CPython 3.10 to 3.13,
    inlined, so the triples and the final generator state are those of
    ``rng.choice`` over the same sequences, ``rng.randrange(3)`` and
    ``rng.randrange(p.n)``, at less cost.

    A triple's key is ``mask * p.n + x``, its mask read from the draw in
    the closed form of :func:`convergence.trap_mask` (``0`` under the
    trivial ideal, the value at the index's top under the eventual ideal,
    the union of the track values under a proper ideal on the naturals).
    ``outcome(mask, x)`` decides a key on its first draw: ``None`` if its
    triples are no case, ``True`` if they pass, else the suffix of their
    failure label.  Only a failing triple's net is built, for its label
    ``{name}:{i}{suffix}`` and its witness (:func:`_net_of_draw`).
    ``test_sample_net_draws_match_random_choice`` compares the draws,
    masks and generator state with the ``rng.choice`` formulation."""
    finite, omega = _sampling_ideals()
    n, nf = p.n, len(finite)
    width, width_f = n.bit_length(), nf.bit_length()
    # Per draw branch: index size, top position, ideals, their count and its bit width.
    branches = [(idx.n, top, ideals, len(ideals), len(ideals).bit_length()) for idx, top, ideals in finite]
    k_omega, w_omega = len(omega), len(omega).bit_length()
    random_, getrandbits = rng.random, rng.getrandbits
    verdicts: dict = {}
    for i in range(count):
        if random_() < 0.5:
            j = getrandbits(width_f)
            while j >= nf:
                j = getrandbits(width_f)
            size, top, ideals, k, w = branches[j]
        else:
            size = getrandbits(2)
            while size >= 3:
                size = getrandbits(2)
            size += 1
            j, top, ideals, k, w = -size, -1, omega, k_omega, w_omega
        vals = []
        for _ in range(size):
            r = getrandbits(width)
            while r >= n:
                r = getrandbits(width)
            vals.append(r)
        r = getrandbits(w)
        while r >= k:
            r = getrandbits(w)
        idl = ideals[r]
        if idl.kind == "trivial":
            mask = 0
        elif top >= 0:
            mask = 1 << vals[top]
        else:
            mask = 0
            for v in vals:
                mask |= 1 << v
        x = getrandbits(width)
        while x >= n:
            x = getrandbits(width)
        key = mask * n + x
        if key in verdicts:
            v = verdicts[key]
        else:
            v = verdicts[key] = outcome(mask, x)
        if v is True:
            run.cases += 1
        elif v is not None:
            run.check(f"{name}:{i}{v}", False, _triple_witness(p, _net_of_draw(p, j, vals), x, idl))
    return verdicts


def _net_of_draw(p: FinitePoset, i: int, vals: list[int]) -> cv.Net:
    """The net of a :func:`_sample_net` draw: ``i >= 0`` names a finite
    index and ``i = -period`` a track net, and ``vals`` holds the value
    indexes into ``p.elements``."""
    values = tuple([p.elements[v] for v in vals])
    if i >= 0:
        return cv.FiniteNet(_sampling_ideals()[0][i][0], values)
    return cv.TrackNet(len(values), tuple(map(cv.const_track, values)))


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
