"""Ideal convergence: omega sets, nets, the four modes, derived topologies.

The expected values in this file were computed by independent slow paths
(pointwise window enumeration for omega sets, exhaustive quantification
for the finite reductions) and then frozen.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, strategies as st

from domaincheck import convergence as cv
from domaincheck import oplog
from domaincheck import sidenat as sn
from domaincheck import suites
from domaincheck import topology as tp
from domaincheck.cli import main
from domaincheck.corpus import generate_all_posets
from domaincheck.errors import (
    BackendUnsupported,
    IndexMismatch,
    NetClassTooSmall,
    NotDirected,
    PreconditionFailed,
    TooLarge,
    UnknownElement,
)
from domaincheck.order import build_finite_poset
from domaincheck.sidenat import A, TOP

DIAMOND = build_finite_poset(
    "diamond",
    ["bot", "l", "r", "top"],
    [("bot", "l"), ("bot", "r"), ("l", "top"), ("r", "top")],
)

CHAIN2 = build_finite_poset("chain2", ["c0", "c1"], [("c0", "c1")])

EVENTUAL = cv.ideal("eventual")


def _compatible_ideals(net):
    """One ideal of each kind defined on the net's index, in kind order:
    ``finite`` and ``density0`` exist only on the naturals."""
    kinds = cv.IDEAL_KINDS if isinstance(net, cv.TrackNet) else ("eventual", "trivial")
    return [cv.ideal(kind, cv.net_index(net)) for kind in kinds]


# the interleaved net: naturals on even positions, the side point on odd
INTERLEAVED = cv.track_net(cv.ascend_track(), cv.const_track(A))


# -- omega sets ---------------------------------------------------------------


def test_omega_canonical_modulus():
    s = cv.omega_set(6, [0, 2, 4])
    assert s.modulus == 2 and s.residues == frozenset({0})
    t = cv.omega_set(4, [1, 3])
    assert t.modulus == 2 and t.residues == frozenset({1})


def test_omega_corrections_filtered():
    s = cv.omega_set(2, [0], plus=[4], minus=[3])
    # position 4 is already periodic and 3 is already out
    assert s.plus == frozenset() and s.minus == frozenset()


def test_omega_correction_conflicts():
    with pytest.raises(ValueError):
        cv.omega_set(2, [0], plus=[1], minus=[1])
    with pytest.raises(ValueError):
        cv.omega_set(2, [0], plus=[-1])


def test_omega_membership():
    odds = cv.omega_set(2, [1])
    assert odds.member(3) and not odds.member(4)
    assert not odds.is_finite
    assert cv.finite_omega([0, 2, 4]).is_finite


_omegas = st.builds(
    cv.omega_set,
    st.integers(1, 6),
    st.lists(st.integers(0, 5), max_size=4),
    st.lists(st.integers(0, 30), max_size=3),
    st.lists(st.integers(31, 60), max_size=3),
)


@given(_omegas, _omegas)
def test_omega_algebra_pointwise(s, t):
    window = 3 * 60
    su, tu = set(s.members_upto(window)), set(t.members_upto(window))
    assert set(cv.omega_union(s, t).members_upto(window)) == su | tu
    assert set(cv.omega_inter(s, t).members_upto(window)) == su & tu


@given(_omegas)
def test_omega_complement_involutive(s):
    assert cv.omega_complement(cv.omega_complement(s)) == s
    assert set(cv.omega_complement(s).members_upto(40)) == set(range(40)) - set(
        s.members_upto(40)
    )


@given(_omegas)
def test_omega_canonical_form_is_minimal(s):
    for d in range(1, s.modulus):
        if s.modulus % d:
            continue
        folded = {r % d for r in s.residues}
        assert s.residues != frozenset(
            x for x in range(s.modulus) if x % d in folded
        ), f"modulus {s.modulus} reducible to {d}"


# -- nets ---------------------------------------------------------------------


def test_track_net_values():
    assert INTERLEAVED.values_upto(6) == (0, A, 1, A, 2, A)
    assert cv.track_net(cv.const_track("x")).values_upto(3) == ("x", "x", "x")


def test_finite_net_validation():
    with pytest.raises(IndexMismatch):
        cv.finite_net(CHAIN2, ["l"])
    anti = build_finite_poset("anti", ["u", "v"], [])
    with pytest.raises(NotDirected):
        cv.finite_net(anti, ["l", "r"])


def test_track_net_validation():
    with pytest.raises(PreconditionFailed):
        cv.track_net()
    with pytest.raises(PreconditionFailed):
        cv.track_net(("const",))


def test_net_json_roundtrip():
    again = cv.net_from_json(cv.net_to_json(INTERLEAVED))
    assert again == INTERLEAVED
    assert '"period": 2' in cv.net_to_json(INTERLEAVED)
    fnet = cv.finite_net(CHAIN2, ["bot", "top"])
    assert cv.net_from_json(cv.net_to_json(fnet)) == fnet
    with pytest.raises(IndexMismatch):
        cv.net_from_json('{"index": "omega", "period": 3, "tracks": [{"kind": "ascend"}]}')


# -- ideals and exceptional sets ----------------------------------------------


def test_ideal_kinds_and_backends():
    assert cv.ideal("trivial").kind == "trivial"
    with pytest.raises(BackendUnsupported):
        cv.ideal("density0", CHAIN2)
    with pytest.raises(BackendUnsupported):
        cv.ideal("finite", CHAIN2)


def test_ideal_membership_omega():
    evens = cv.omega_set(2, [0])
    assert not cv.ideal_member(EVENTUAL, evens)
    assert cv.ideal_member(EVENTUAL, cv.finite_omega([3, 7]))
    assert cv.ideal_member(cv.ideal("trivial"), evens)
    assert cv.ideal_member(cv.ideal("density0"), cv.finite_omega([5]))
    assert not cv.ideal_member(cv.ideal("density0"), evens)


def test_exception_set_interleaved_frozen():
    # frozen: positions outside the upper set of {a, 5} are the even
    # positions carrying naturals below 5
    up_pair = sn.up_closure(sn.side_set_of((5, A)))
    assert sn.exception_set(INTERLEAVED, up_pair) == cv.finite_omega([0, 2, 4, 6, 8])
    # frozen: outside up(5) additionally every odd position (the side
    # point is not above 5), so the exceptional set is infinite
    exc = sn.exception_set(INTERLEAVED, sn.up_set(5))
    assert not exc.is_finite
    assert set(exc.members_upto(12)) == {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11}
    assert sn.level_set(INTERLEAVED, sn.up_set(5)) == cv.omega_complement(exc)


def test_exception_set_finite_index():
    net = cv.finite_net(CHAIN2, ["bot", "top"])
    exc = cv.exception_set(DIAMOND, net, DIAMOND.mask_of(["top"]))
    assert exc == 1  # only index point c0 escapes
    assert cv.ideal_member(cv.ideal("eventual", CHAIN2), exc)


def test_index_mismatch_guard():
    with pytest.raises(IndexMismatch):
        cv.trap_mask(DIAMOND, INTERLEAVED, cv.ideal("eventual", CHAIN2))


# -- convergence modes on the side-point dcpo -----------------------------------


def test_interleaved_family_but_not_liminf():
    gi = sn.eventual_family(INTERLEAVED, EVENTUAL)
    assert sn.converges_family_liminf(gi, A).holds
    assert not sn.converges_liminf(gi, A).holds


def test_interleaved_family_witness_is_pair_schema():
    v = sn.converges_family_liminf(sn.eventual_family(INTERLEAVED, EVENTUAL), A)
    assert v.witness["shape"] == "pair_schema"


def test_interleaved_topological():
    assert sn.converges_topological(INTERLEAVED, A, EVENTUAL, "scott").holds
    assert not sn.converges_topological(INTERLEAVED, A, EVENTUAL, "lawson").holds


def test_interleaved_converges_nowhere_else():
    gi = sn.eventual_family(INTERLEAVED, EVENTUAL)
    for x in (0, 1, 5, TOP):
        assert not sn.converges_family_liminf(gi, x).holds


def test_interleaved_eventual_family_frozen():
    gi = sn.eventual_family(INTERLEAVED, EVENTUAL)
    # every pair {n, a}, and no singleton: not {n}, {a} or {inf}
    assert gi == sn.side_family(pairs_from=0)
    assert gi.contains((5, A)) and not gi.contains((5,)) and not gi.contains((A,))
    assert not gi.contains((TOP,))
    # the window it was decided on rides along, outside equality and JSON
    assert gi.checked_upto == cv.stabilization_bound(INTERLEAVED) == 1
    assert "checked_upto" not in gi.to_dict()


def test_interleaved_eventual_liminf_only_at_side_point():
    gi = sn.eventual_family(INTERLEAVED, EVENTUAL)
    v = sn.is_eventual_liminf(gi, A)
    assert v.holds
    assert v.witness == {"family": {"explicit_members": 0, "singletons_from": None, "pairs_from": 0}}
    for x in (0, 3, TOP):
        assert not sn.is_eventual_liminf(gi, x).holds


def test_side_eventual_liminf_builds_its_family_once(monkeypatch, tmp_path, capsys):
    """Each caller builds a net's eventually-below family once per (net,
    ideal) and reads it at every point: ``converge --mode eventual`` on
    the side-point dcpo, and the side block of every suite that has one
    (six nets in each sampled suite, the interleaved net in the others)."""
    built = []
    build = sn.eventual_family

    def counting(net, idl):
        built.append((net, idl))
        return build(net, idl)

    monkeypatch.setattr(sn, "eventual_family", counting)
    net_path, ideal_path = tmp_path / "net.json", tmp_path / "ideal.json"
    net_path.write_text(cv.net_to_json(INTERLEAVED))
    ideal_path.write_text(json.dumps({"kind": "eventual"}))
    argv = ["converge", "--mode", "eventual", "--poset", "side_nat", "--net", str(net_path)]
    assert main(argv + ["--ideal", str(ideal_path), "--point", "a"]) == 0
    assert json.loads(capsys.readouterr().out)["holds"]
    assert built == [(INTERLEAVED, EVENTUAL)]
    per_block = {}
    for suite in ("liminf-to-family", "waybelow-forces-family", "sidenat", "eventual-liminf-lawson"):
        built.clear()
        assert suites.run_suite(suite, max_size=1, seed=0).ok, suite
        assert len(set(built)) == len(built), suite
        per_block[suite] = len(built)
    assert per_block == {
        "liminf-to-family": 6,
        "waybelow-forces-family": 6,
        "sidenat": 1,
        "eventual-liminf-lawson": 1,
    }


def test_ascending_net_converges_everywhere():
    # the naturals form a directed set with supremum top that the net
    # eventually enters at every level, and the top dominates every point
    gi = sn.eventual_family(cv.track_net(cv.ascend_track()), EVENTUAL)
    for x in (0, 7, A, TOP):
        assert sn.converges_liminf(gi, x).holds
        assert sn.converges_family_liminf(gi, x).holds
    assert sn.converges_liminf(gi, A).witness["shape"] == "natural_chain"


SMALL_TRACKS = [cv.const_track(v) for v in (0, 1, 2, 3, A, TOP)] + [cv.ascend_track()]
SMALL_NETS = [cv.track_net(*c) for period in (1, 2) for c in product(SMALL_TRACKS, repeat=period)]


def test_side_predicates_on_small_track_nets():
    """On every track net of period at most 2 over {0, 1, 2, 3, a, inf,
    ascend}, under every ideal kind, at every point of {a, inf, 0..4}:
    family lim-inf convergence equals Scott-topological convergence (an
    independent closed form over the binding opens), and lim-inf and
    eventual lim-inf convergence each imply it.  The counts are frozen."""
    assert len(SMALL_NETS) == 56
    triples = family = liminf = eventual = 0
    for net in SMALL_NETS:
        for kind in cv.IDEAL_KINDS:
            idl = cv.ideal(kind)
            gi = sn.eventual_family(net, idl)
            for x in (A, TOP, 0, 1, 2, 3, 4):
                fam = sn.converges_family_liminf(gi, x).holds
                lim = sn.converges_liminf(gi, x).holds
                ev = sn.is_eventual_liminf(gi, x).holds
                topo = sn.converges_topological(net, x, idl, "scott").holds
                assert fam == topo, (net, kind, x)
                assert fam or not lim, (net, kind, x)
                assert fam or not ev, (net, kind, x)
                triples += 1
                family += fam
                liminf += lim
                eventual += ev
    assert (triples, family, liminf, eventual) == (1568, 776, 770, 200)


def _binding_cuts(topo, x, stab):
    """The opens one binding open stands for: where the neighbourhoods of
    ``x`` are tails (``inf`` in Scott and Lawson, ``a`` in Scott), the cut
    at every ``t <= stab``; elsewhere the one open."""
    if x == TOP and topo != "lower" or x == A and topo == "scott":
        return [sn.sideset(tail=t, has_a=x == A, has_top=True) for t in range(stab + 1)]
    return [sn.binding_open(topo, x, stab)]


def test_side_binding_open_decides_like_every_cut():
    """Topological convergence tests one binding open, the cut at the
    net's stabilization bound.  Trapping is monotone in the region, so
    that verdict equals the one over every cut up to the bound, on the
    nets, ideals and points of ``test_side_predicates_on_small_track_nets``
    in all three topologies."""
    for net in SMALL_NETS:
        stab = cv.stabilization_bound(net)
        for kind in cv.IDEAL_KINDS:
            idl = cv.ideal(kind)
            for x in (A, TOP, 0, 1, 2, 3, 4):
                for topo in ("scott", "lawson", "lower"):
                    every_cut = all(
                        sn._eventually_inside(net, cut, idl) for cut in _binding_cuts(topo, x, stab)
                    )
                    got = sn.converges_topological(net, x, idl, topo).holds
                    assert got == every_cut, (net, kind, x, topo)


def test_constant_net_converges_below_value():
    gi = sn.eventual_family(cv.track_net(cv.const_track(4)), EVENTUAL)
    for x in (0, 4):
        assert sn.converges_liminf(gi, x).holds
    for x in (5, A, TOP):
        assert not sn.converges_liminf(gi, x).holds


def _eventual_family_by_window(net, idl):
    """The eventually-below family from the status of ``{n}`` and of
    ``{n, a}`` at every ``n`` up to the stabilization bound, each through
    ``exception_set``; a kind true on the whole window is every natural."""
    window = range(cv.stabilization_bound(net) + 1)

    def inside(member):
        return sn._eventually_inside(net, sn.up_closure(sn.side_set_of(member)), idl)

    singles = [inside((n,)) for n in window]
    pairs = [inside((n, A)) for n in window]
    for statuses in (singles, pairs):
        assert not any(later and not earlier for earlier, later in zip(statuses, statuses[1:]))
    explicit = [(e,) for e in (A, TOP) if inside((e,))]
    explicit += [(n,) for n in window if singles[n]] + [(n, A) for n in window if pairs[n]]
    return sn.side_family(
        explicit, 0 if all(singles) else None, 0 if all(pairs) else None, window[-1]
    )


def test_eventual_family_matches_per_natural_window():
    """``eventual_family`` reads each status at 0 and past each natural
    value of the net; the per-natural window gives the same family, JSON
    and ``checked_upto`` on every track net of period at most 3 over {0,
    1, 2, 3, a, inf, ascend} under every ideal kind, and on every net over
    a directed index of size at most 3 with those values (no ascending
    track) under the eventual and trivial ideals."""
    from domaincheck.corpus import directed_index_posets

    track_nets = [
        cv.track_net(*c) for period in (1, 2, 3) for c in product(SMALL_TRACKS, repeat=period)
    ]
    assert len(track_nets) == 399
    cases = [(net, cv.ideal(kind)) for net in track_nets for kind in cv.IDEAL_KINDS]
    for idx in directed_index_posets(3):
        for values in product((0, 1, 2, 3, A, TOP), repeat=idx.n):
            net = cv.finite_net(idx, values)
            cases += [(net, cv.ideal(kind, idx)) for kind in ("eventual", "trivial")]
    for net, idl in cases:
        got, want = sn.eventual_family(net, idl), _eventual_family_by_window(net, idl)
        assert got == want, (net, idl)
        assert got.to_dict() == want.to_dict() and got.checked_upto == want.checked_upto


def test_eventual_family_reads_few_exception_sets():
    """On the constant net at 100000 the family takes six exception sets:
    ``{n}`` and ``{n, a}`` at 0 and at 100001, ``{a}`` and ``{inf}``."""
    net = cv.track_net(cv.const_track(100000))
    before = oplog.call_counts().get("sidenat.exception_set", 0)
    gi = sn.eventual_family(net, EVENTUAL)
    assert oplog.call_counts()["sidenat.exception_set"] - before <= 6
    below = sn.sideset(nats=range(100001))
    assert gi == sn.SideFamily(below, below) and gi.checked_upto == 100001
    assert sn.is_eventual_liminf(gi, 3).witness == {"failed": "membership", "member": ["4"]}


# -- convergence modes on finite posets ----------------------------------------


def _diamond_alternating(v1, v2):
    """The trap mask of the net alternating between ``v1`` and ``v2``."""
    return cv.trap_mask(DIAMOND, cv.track_net(cv.const_track(v1), cv.const_track(v2)), EVENTUAL)


def test_diamond_alternating_l_top_frozen():
    """The pinned periodic-net gap: eventual lim-inf at l without Lawson
    convergence there."""
    trap = _diamond_alternating("l", "top")
    gi = cv.eventual_family(DIAMOND, trap)
    assert {DIAMOND.ids_of(f) for f in gi} == {("bot",), ("l",), ("l", "r")}
    winners = [
        x for ix, x in enumerate(DIAMOND.elements) if cv.is_eventual_liminf(DIAMOND, trap, ix).holds
    ]
    assert winners == ["l"]
    law = tp.lawson_topology(DIAMOND)
    l = DIAMOND.index("l")
    assert not cv.converges_topological(DIAMOND, trap, l, law).holds
    assert cv.converges_topological(DIAMOND, trap, l, tp.scott_topology(DIAMOND)).holds


def test_diamond_alternating_l_r_frozen():
    trap = _diamond_alternating("l", "r")
    gi = cv.eventual_family(DIAMOND, trap)
    assert {DIAMOND.ids_of(f) for f in gi} == {("bot",), ("l", "r")}
    assert not any(cv.is_eventual_liminf(DIAMOND, trap, ix).holds for ix in range(DIAMOND.n))


def _nets_and_ideals(p):
    """Every net over a directed index of size <= 3 under the eventual and
    trivial ideals, and every constant-track net of period <= 3 under all
    four ideal kinds."""
    from domaincheck.corpus import directed_index_posets

    for idx in directed_index_posets(3):
        ideals = [cv.ideal(kind, idx) for kind in ("eventual", "trivial")]
        for values in product(p.elements, repeat=idx.n):
            net = cv.finite_net(idx, values)
            for idl in ideals:
                yield net, idl
    for period in (1, 2, 3):
        for values in product(p.elements, repeat=period):
            net = cv.track_net(*(cv.const_track(v) for v in values))
            for kind in cv.IDEAL_KINDS:
                yield net, cv.ideal(kind)


def test_finite_exhaustive_agrees_with_principal():
    """Lim-inf and family lim-inf convergence, decided on the trap mask,
    equal their definitional checks by exception sets on every poset of
    size at most 3, net and ideal of :func:`_nets_and_ideals` and point."""
    compared = 0
    for n in range(1, 4):
        for p in generate_all_posets(n):
            for net, idl in _nets_and_ideals(p):
                trap = cv.trap_mask(p, net, idl)
                for ix in range(p.n):
                    for mode, oracle in (
                        (cv.converges_liminf, cv._converges_liminf_definitional),
                        (cv.converges_family_liminf, cv._converges_family_definitional),
                    ):
                        fast = mode(p, trap, ix).holds
                        slow = oracle(p, net, ix, idl).holds
                        assert fast == slow, (mode.__name__, p.name, net, ix, idl.kind)
                        compared += 1
    assert compared == 9480


def test_finite_eventual_liminf_is_tail_value():
    idl = cv.ideal("eventual", CHAIN2)
    for values in product(DIAMOND.elements, repeat=2):
        trap = cv.trap_mask(DIAMOND, cv.finite_net(CHAIN2, values), idl)
        tail = values[1]  # c1 is the greatest index point
        for x in DIAMOND.elements:
            assert cv.is_eventual_liminf(DIAMOND, trap, DIAMOND.index(x)).holds == (x == tail)


def test_trivial_ideal_converges_everywhere():
    idl = cv.ideal("trivial", CHAIN2)
    trap = cv.trap_mask(DIAMOND, cv.finite_net(CHAIN2, ["top", "bot"]), idl)
    for x in DIAMOND.elements:
        assert cv.converges_family_liminf(DIAMOND, trap, DIAMOND.index(x)).holds


def test_trap_masks_match_exception_sets():
    """The per-net trap mask decides trapping exactly as the definitional
    exception set and ideal membership do, for every poset of size at most
    3, net of the default class (every directed index of at most 4
    points, the diamond included), compatible ideal and region.  The
    class lists each index's top last, so a hand-built index whose top
    comes first checks that the eventual mask is the value at the top."""
    netclass = cv.NetClass()
    assert netclass.max_index_size == 4
    compared = 0
    for n in range(1, 4):
        for p in generate_all_posets(n):
            for net in cv.generate_nets(p, netclass):
                for idl in _compatible_ideals(net):
                    mask = cv.trap_mask(p, net, idl)
                    assert isinstance(mask, int)
                    for region in range(p.universe + 1):
                        slow = cv.ideal_member(idl, cv.exception_set(p, net, region))
                        assert (mask & ~region == 0) == slow, (p.name, net, idl.kind, region)
                        compared += 1
    assert compared == 46060
    top_first = build_finite_poset("top-first", ["t", "a", "b"], [("a", "t"), ("b", "t")])
    net = cv.finite_net(top_first, ["c1", "c0", "c0"])
    idl = cv.ideal("eventual", top_first)
    mask = cv.trap_mask(CHAIN2, net, idl)
    assert mask == 1 << CHAIN2.index("c1")
    for region in range(CHAIN2.universe + 1):
        slow = cv.ideal_member(idl, cv.exception_set(CHAIN2, net, region))
        assert (mask & ~region == 0) == slow, region


def test_trap_mask_is_keyed_on_all_three():
    """A trap mask depends on the poset, the net and the ideal.

    The same net objects meet every poset of size 3 and a copy of each
    listing the same ids in reverse order, under every compatible ideal
    (one object per kind and index, shared by the nets on that index).
    The triples run in three orders, each with a different component
    changing between consecutive calls, and every answer is compared with
    the definitional check.  A net whose masks were built then meets a
    poset lacking one of its values and must raise, on every call.
    """
    posets = []
    for p in generate_all_posets(3):
        le = [(x, y) for x in p.elements for y in p.elements if p.leq(x, y)]
        posets += [p, build_finite_poset(f"{p.name}-reversed", p.elements[::-1], le)]
    nets = list(cv.generate_nets(posets[0], cv.NetClass(max_index_size=2, max_track_period=2)))
    ideals = {}
    for net in nets:
        ideals.setdefault(cv.net_index(net), tuple(_compatible_ideals(net)))

    def ideals_of(net):
        return ideals[cv.net_index(net)]

    orders = [
        [(p, net, idl) for p in posets for net in nets for idl in ideals_of(net)],
        [(p, net, idl) for net in nets for idl in ideals_of(net) for p in posets],
        [
            (p, net, idl)
            for p in posets
            for index, group in ideals.items()
            for idl in group
            for net in nets
            if cv.net_index(net) == index
        ],
    ]
    compared = 0
    for order in orders:
        for p, net, idl in order:
            mask = cv.trap_mask(p, net, idl)
            for region in range(p.universe + 1):
                slow = cv.ideal_member(idl, cv.exception_set(p, net, region))
                assert (mask & ~region == 0) == slow, (p.name, net, idl.kind, region)
                compared += 1
    assert compared == 3 * 10 * 72 * 8

    small = generate_all_posets(2)[0]
    for net in nets:
        values = net.values if isinstance(net, cv.FiniteNet) else [t[1] for t in net.tracks]
        if "e2" not in values:
            continue
        for idl in ideals_of(net):
            cv.trap_mask(posets[0], net, idl)
            for _ in range(2):
                with pytest.raises(UnknownElement):
                    cv.trap_mask(small, net, idl)


def test_predicates_leave_nets_unchanged():
    """``trap_mask`` and ``eventual_family``, each backend's one reader of
    a net for the lim-inf predicates, and side-point topological
    convergence only read their net: after each has run on a finite-index
    net and a track net, under every compatible ideal and at every point
    tried, each net holds its dataclass fields and nothing else."""
    finite_nets = [
        cv.finite_net(CHAIN2, ["l", "top"]),
        cv.track_net(cv.const_track("l"), cv.const_track("top")),
    ]
    side_nets = [cv.finite_net(CHAIN2, [0, A]), INTERLEAVED]
    for net in finite_nets:
        for idl in _compatible_ideals(net):
            cv.trap_mask(DIAMOND, net, idl)
    for net in side_nets:
        for idl in _compatible_ideals(net):
            gi = sn.eventual_family(net, idl)
            for x in (0, 2, A, TOP):
                sn.converges_liminf(gi, x)
                sn.converges_family_liminf(gi, x)
                sn.is_eventual_liminf(gi, x)
                for kind in ("scott", "lawson"):
                    sn.converges_topological(net, x, idl, kind)
    for net in finite_nets + side_nets:
        assert set(vars(net)) == {f.name for f in dataclasses.fields(net)}, net


def test_verdict_to_dict_is_holds_and_witness():
    """A verdict has two fields, and its JSON form holds exactly those."""
    trap = cv.trap_mask(DIAMOND, cv.track_net(cv.const_track("top")), EVENTUAL)
    verdict = cv.converges_family_liminf(DIAMOND, trap, DIAMOND.index("l"))
    assert cv.Verdict._fields == ("holds", "witness")
    assert verdict.to_dict() == {"holds": True, "witness": {"family": [["l"]], "shape": "principal"}}
    assert cv.Verdict(False, {}).to_dict() == {"holds": False, "witness": {}}


@pytest.mark.parametrize("kind", cv.IDEAL_KINDS)
def test_finite_predicates_reject_foreign_values_and_ascending_tracks(kind):
    """A net enters the finite predicates only through ``trap_mask``,
    which rejects a value foreign to the poset and an ascending track
    under every ideal kind."""
    bad = [
        (cv.track_net(cv.const_track("top"), cv.const_track("nowhere")), UnknownElement),
        (cv.track_net(cv.const_track("top"), cv.ascend_track()), BackendUnsupported),
        (cv.track_net(cv.ascend_track(), cv.const_track("nowhere")), UnknownElement),
    ]
    if kind in ("eventual", "trivial"):
        bad.append((cv.finite_net(CHAIN2, ["top", "nowhere"]), UnknownElement))
    for net, error in bad:
        with pytest.raises(error):
            cv.trap_mask(DIAMOND, net, cv.ideal(kind, cv.net_index(net)))


def _scan_opens(p, net, ix, idl, topo):
    """Topological convergence by the definition: scan the opens around the
    point in increasing mask order for one that does not trap the net."""
    for u in sorted(topo.opens):
        if u >> ix & 1 and not cv.ideal_member(idl, cv.exception_set(p, net, u)):
            return cv.Verdict(False, {"open": list(p.ids_of(u))})
    return cv.Verdict(True, {"kind": topo.kind})


def test_topological_matches_open_scan():
    """Deciding topological convergence at the minimal neighbourhood gives
    the verdict and the witness of the literal scan over the opens, for
    every poset of size at most 3, six kinds of topology, every net of the
    class with every compatible ideal, and every point."""
    netclass = cv.NetClass(max_index_size=3, max_track_period=2)
    compared = 0
    for n in range(1, 4):
        for p in generate_all_posets(n):
            topologies = [
                tp.scott_topology(p),
                tp.lower_topology(p),
                tp.lawson_topology(p),
                tp.discrete_topology(p),
                tp.indiscrete_topology(p),
                cv.derive_convergence_topology(p, "family"),
            ]
            for net in cv.generate_nets(p, netclass):
                for idl in _compatible_ideals(net):
                    trap = cv.trap_mask(p, net, idl)
                    for topo in topologies:
                        for ix in range(p.n):
                            fast = cv.converges_topological(p, trap, ix, topo)
                            assert fast == _scan_opens(p, net, ix, idl, topo), (
                                p.name, net, idl.kind, topo.kind, ix,
                            )
                            compared += 1
    assert compared == 17928


def _eventual_by_antichain_loop(p, trap, ix):
    """Eventual lim-inf with its second condition as a loop over every
    antichain and its upper set: each antichain whose upper set traps the
    net must have ``x`` in that upper set."""
    first = cv.converges_family_liminf(p, trap, ix)
    if not first.holds:
        return cv.Verdict(False, {"failed": "family_liminf", **first.witness})
    size = 0
    for f, u in zip(p.antichain_masks, p.antichain_ups):
        if trap & ~u == 0:
            if not u >> ix & 1:
                return cv.Verdict(False, {"failed": "membership", "member": list(p.ids_of(f))})
            size += 1
    return cv.Verdict(True, {"family_size": size})


def test_eventual_witness_matches_antichain_loop():
    """``is_eventual_liminf`` reads ``eventual_family`` and gives the
    verdict and the witness (the first failing member, or the family
    size) of the loop over the antichains, for every poset of size at
    most 4, every trap mask and every point."""
    witnesses: Counter[str] = Counter()
    for n in range(1, 5):
        for p in generate_all_posets(n):
            for trap in range(p.universe + 1):
                for ix in range(p.n):
                    fast = cv.is_eventual_liminf(p, trap, ix)
                    assert fast == _eventual_by_antichain_loop(p, trap, ix), (p.name, trap, ix)
                    witnesses[fast.witness.get("failed", "holds")] += 1
    assert sum(witnesses.values()) == 1162
    assert set(witnesses) == {"holds", "family_liminf", "membership"}


def _oracle_posets():
    """Every poset of size at most 4, then every named poset of at most 5
    points."""
    from domaincheck.corpus import named_posets

    small = [p for n in range(1, 5) for p in generate_all_posets(n)]
    return small + [p for p in named_posets().values() if p.n <= 5]


def _points_where(p, holds):
    return sum(1 << ix for ix in range(p.n) if holds(ix))


def test_limits_match_the_point_predicates():
    """``limits(p, t, mode)`` is the set of points where the mode's
    per-point predicate holds, for every trap mask ``0..p.universe`` of
    every poset of ``_oracle_posets``."""
    predicates = {
        "liminf": cv.converges_liminf,
        "family": cv.converges_family_liminf,
        "eventual": cv.is_eventual_liminf,
    }
    posets = _oracle_posets()
    assert max(p.n for p in posets) == 5
    compared = 0
    for p in posets:
        for trap in range(p.universe + 1):
            for mode, pred in predicates.items():
                expected = _points_where(p, lambda ix: pred(p, trap, ix).holds)
                assert cv.limits(p, trap, mode) == expected, (p.name, trap, mode)
                compared += 1
    assert compared == 3 * sum(p.universe + 1 for p in posets)
    with pytest.raises(UnknownElement):
        cv.limits(DIAMOND, 1, "cofinite")


@pytest.mark.parametrize("mode", ["liminf", "family", "eventual"])
def test_limits_refuse_a_poset_over_the_limit(mode):
    """A poset of more than ``MAX_TOPOLOGY_ELEMENTS`` points has no
    lower-bound table, and ``limits`` refuses it in every mode."""
    names = [f"e{i}" for i in range(tp.MAX_TOPOLOGY_ELEMENTS + 1)]
    p = build_finite_poset("antichain15", names, [])
    with pytest.raises(TooLarge, match="lower-bound table over 15 elements"):
        cv.limits(p, 1, mode)


def test_topological_limits_match_the_point_predicate():
    """``topological_limits(p, t, topo)`` is the set of points where
    ``converges_topological`` holds, for every trap mask of every poset
    of ``_oracle_posets``, in the ``scott``, ``lower``, ``lawson`` and
    ``glim`` topologies and the derived ``family`` one."""
    for p in _oracle_posets():
        topologies = [
            tp.scott_topology(p),
            tp.lower_topology(p),
            tp.lawson_topology(p),
            tp.family_liminf_topology(p),
            cv.derive_convergence_topology(p, "family"),
        ]
        for topo, trap in product(topologies, range(p.universe + 1)):
            expected = _points_where(p, lambda ix: cv.converges_topological(p, trap, ix, topo).holds)
            assert cv.topological_limits(p, trap, topo) == expected, (p.name, topo.kind, trap)


def test_topology_neighborhoods_reject_non_closed_opens():
    """Opens that are not closed under intersection leave some point
    without a minimal neighbourhood, and the predicate refuses to answer."""
    p = build_finite_poset("antichain3", ["a", "b", "c"], [])
    ab, ac = p.mask_of(["a", "b"]), p.mask_of(["a", "c"])
    topo = tp.Topology(p, "hand-built", frozenset({0, ab, ac, p.universe}))
    with pytest.raises(PreconditionFailed):
        cv.converges_topological(p, 1 << p.index("a"), p.index("b"), topo)


# -- derived topologies ---------------------------------------------------------


def test_derived_topologies_on_diamond():
    assert (
        cv.derive_convergence_topology(DIAMOND, "liminf").opens
        == tp.scott_topology(DIAMOND).opens
    )
    assert (
        cv.derive_convergence_topology(DIAMOND, "family").opens
        == tp.scott_topology(DIAMOND).opens
    )
    assert (
        cv.derive_convergence_topology(DIAMOND, "eventual").opens
        == tp.lawson_topology(DIAMOND).opens
    )


def test_derived_naive_matches_reduced():
    """The trap-set derivation equals the net-by-net definition on every
    poset of size at most 4, in every mode's production net class."""
    posets = [p for n in range(1, 5) for p in generate_all_posets(n)]
    for p, mode in product(posets, ("liminf", "family", "eventual")):
        naive = cv._derive_naive(p, mode)
        reduced = cv.derive_convergence_topology(p, mode)
        assert naive.opens == reduced.opens, (p.name, mode)


def test_reduced_derivation_rejects_bad_input():
    with pytest.raises(UnknownElement):
        cv.derive_convergence_topology(DIAMOND, "cofinite")


def test_net_class_traps_match_built_masks():
    """``NetClass.traps`` is the set of trap masks, under the eventual
    ideal, of the nets the class generates, for every poset of size at
    most 3, index sizes 1 to 3 and track periods 0 to 3."""
    for n in range(1, 4):
        for p in generate_all_posets(n):
            for size, period in product(range(1, 4), range(4)):
                nc = cv.NetClass(max_index_size=size, max_track_period=period)
                built = {
                    cv.trap_mask(p, net, cv.ideal("eventual", cv.net_index(net)))
                    for net in cv.generate_nets(p, nc)
                }
                assert nc.traps(p) == sorted(built), (p.name, size, period)


def test_netclass_generation():
    nets = list(cv.generate_nets(DIAMOND, cv.NetClass(max_index_size=1, max_track_period=0)))
    assert len(nets) == 4  # one singleton index, one net per element
    with_tracks = list(
        cv.generate_nets(DIAMOND, cv.NetClass(max_index_size=1, max_track_period=1))
    )
    assert len(with_tracks) == 8
    with pytest.raises(NetClassTooSmall):
        list(cv.generate_nets(DIAMOND, cv.NetClass(max_index_size=0)))
