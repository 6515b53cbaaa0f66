"""Scott, lower, Lawson, and family lim-inf topologies."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from domaincheck import convergence as cv
from domaincheck import sidenat as sn
from domaincheck import suites
from domaincheck import topology as tp
from domaincheck.corpus import all_corpus, generate_all_posets, named_posets
from domaincheck.errors import TooLarge
from domaincheck.order import bits, build_finite_poset, smyth_meet
from domaincheck.sidenat import A, TOP

DIAMOND = build_finite_poset(
    "diamond",
    ["bot", "l", "r", "top"],
    [("bot", "l"), ("bot", "r"), ("l", "top"), ("r", "top")],
)

# Frozen: the diamond's upper sets, hence its Scott opens on a finite
# poset, are exactly these six.
DIAMOND_SCOTT_OPENS = {
    (),
    ("top",),
    ("l", "top"),
    ("r", "top"),
    ("l", "r", "top"),
    ("bot", "l", "r", "top"),
}


def _opens_ids(p, topo):
    return {p.ids_of(u) for u in topo.opens}


def test_scott_opens_frozen():
    assert _opens_ids(DIAMOND, tp.scott_topology(DIAMOND)) == DIAMOND_SCOTT_OPENS


def test_scott_is_upper_family():
    """The Scott opens are the definitional ones on every poset of size at
    most 5, and the cached table of directed subsets that definition
    reads is every pairwise-directed subset with its greatest member."""
    for n in range(1, 6):
        for p in generate_all_posets(n):
            assert p.directed_sups == tuple(
                (d, p.directed_sup_mask(d)) for d in p.iter_directed_masks()
            ), p.name
            assert sorted(p.directed_sups) == [
                (m, p.greatest_of_mask(m))
                for m in range(1, p.universe + 1)
                if p.is_directed_mask_pairwise(m)
            ], p.name
            definitional = frozenset(
                m for m in range(p.universe + 1) if tp._scott_open_definitional(p, m)
            )
            assert tp.scott_topology(p).opens == definitional, p.name


def test_lower_topology():
    lo = tp.lower_topology(DIAMOND)
    assert all(DIAMOND.down[i] & ~u == 0 for u in lo.opens for i in bits(u))
    assert DIAMOND.mask_of(["bot"]) in lo.opens


def test_lawson_discrete_on_finite():
    """The Lawson topology built from the principal upper sets and their
    complements is the one built with every Scott open in the subbasis,
    and it is discrete, on every poset of size at most 4 and every named
    poset."""
    posets = [p for n in range(1, 5) for p in generate_all_posets(n)]
    for p in posets + list(named_posets().values()):
        law = tp.lawson_topology(p)
        subbasis = [*tp.scott_topology(p).opens, *(p.universe & ~u for u in p.up)]
        assert law.opens == tp.topology_from_subbasis(p, subbasis, "lawson").opens, p.name
        assert len(law.opens) == 1 << p.n, p.name


def test_family_liminf_topology_is_scott():
    sc = tp.scott_topology(DIAMOND)
    assert tp.family_liminf_topology(DIAMOND).opens == sc.opens


def _family_opens_by_member_scan(p):
    """The family topology's opens by the literal scan of every set
    against every family: a set holding a point the family constrains
    must hold some member's upper set.  The families are the Smyth-directed
    ``combinations`` of at most ``tp.FAMILY_BOUND`` antichains, enumerated
    here independently of ``tp._directed_antichain_families``."""
    constraints = []
    for k in range(1, tp.FAMILY_BOUND + 1):
        for ups in combinations(p.antichain_ups, k):
            meet = smyth_meet(ups)
            if meet is None:
                continue
            xmask = 0
            for x in range(p.n):
                if meet & ~p.up[x] == 0:
                    xmask |= 1 << x
            if xmask:
                constraints.append((xmask, ups))
    return frozenset(
        mask
        for mask in range(p.universe + 1)
        if all(not (xmask & mask) or any(u & ~mask == 0 for u in ups) for xmask, ups in constraints)
    )


def test_family_topology_meets_match_member_scan():
    """The family topology built from one constraint per antichain has
    the opens of the per-set, per-member scan over every directed family
    on every poset of size at most 4 and on every named corpus poset of
    size at most 5."""
    named = [p for p in named_posets().values() if p.n <= 5]
    posets = [p for n in range(1, 5) for p in generate_all_posets(n)] + named
    assert len(named) > 10
    for p in posets:
        assert tp.family_liminf_topology(p).opens == _family_opens_by_member_scan(p), p.name


def _closed_pairwise(opens) -> bool:
    return all((u | v) in opens and (u & v) in opens for u in opens for v in opens)


def test_closed_by_neighborhoods_matches_pairwise_closure():
    """The minimal-neighbourhood closure check of ``topology-axioms``
    equals the literal pairwise union/intersection loop on the five
    kinds that suite checks, on every poset of size at most 4, and on
    each family left when one proper open is removed from them."""
    rejected = 0
    for n in range(1, 5):
        for p in generate_all_posets(n):
            kinds = (
                tp.scott_topology(p),
                tp.lower_topology(p),
                tp.lawson_topology(p),
                tp.family_liminf_topology(p),
                cv.derive_convergence_topology(p, "family"),
            )
            for topo in kinds:
                assert suites._closed_by_neighborhoods(topo), (p.name, topo.kind)
                assert _closed_pairwise(topo.opens), (p.name, topo.kind)
                for u in topo.opens - {0, p.universe}:
                    cut = tp.Topology(p, topo.kind, topo.opens - {u})
                    closed = _closed_pairwise(cut.opens)
                    assert suites._closed_by_neighborhoods(cut) == closed, (p.name, topo.kind, u)
                    rejected += not closed
    assert rejected > 0
    # Hand-built families on the three-point antichain: one lacks the
    # union {a, b}, the other the intersection {b}, so m(b) is not open.
    anti = build_finite_poset("anti3", ["a", "b", "c"], [])
    no_union = tp.Topology(anti, "hand", frozenset({0, 0b001, 0b010, 0b111}))
    no_meet = tp.Topology(anti, "hand", frozenset({0, 0b011, 0b110, 0b111}))
    for topo in (no_union, no_meet):
        assert not _closed_pairwise(topo.opens)
        assert suites._closed_by_neighborhoods(topo) is False


def test_from_neighborhoods_matches_literal_scan():
    """``_from_neighborhoods``, the union-closure of least open sets,
    gives the opens of the literal scan of every mask, on arbitrary
    neighbourhood lists: 20 lists of random masks per corpus poset of at
    most 5 points, among them lists where some ``mins[x]`` lacks ``x``
    and lists that are not transitive (``y`` in ``mins[x]`` but
    ``mins[y]`` not inside ``mins[x]``)."""
    rng = random.Random(36)
    lacking = intransitive = 0
    for p in all_corpus(5).values():
        if p.n > 5:
            continue
        for _ in range(20):
            mins = [rng.randrange(p.universe + 1) for _ in range(p.n)]
            scan = frozenset(
                u for u in range(p.universe + 1) if all(mins[x] & ~u == 0 for x in bits(u))
            )
            assert tp._from_neighborhoods(p, mins, "random").opens == scan, (p.name, mins)
            lacking += any(not m >> x & 1 for x, m in enumerate(mins))
            intransitive += any(mins[y] & ~m for m in mins for y in bits(m))
    assert lacking > 100 and intransitive > 100


def test_interior_closure_duality():
    sc = tp.scott_topology(DIAMOND)
    m = DIAMOND.mask_of(["l", "top"])
    assert sc.interior(m) == m
    below = DIAMOND.mask_of(["bot", "l"])
    assert sc.interior(below) == 0
    assert sc.closure(DIAMOND.mask_of(["top"])) == DIAMOND.universe


def test_size_guard():
    big = build_finite_poset("big", [f"x{i}" for i in range(15)], [])
    with pytest.raises(TooLarge):
        tp.scott_topology(big)


def test_side_scott_openness():
    assert sn.is_open("scott", sn.up_set(3))
    assert sn.is_open("scott", sn.sideset(tail=5, has_a=True, has_top=True))
    assert not sn.is_open("scott", sn.up_set(A))
    assert not sn.is_open("scott", sn.up_set(TOP))
    assert not sn.is_open("scott", sn.down_set(3))
    assert sn.is_open("scott", sn.EMPTY) and sn.is_open("scott", sn.FULL)


def test_side_lawson_openness():
    # singletons of naturals and of the side point are Lawson open;
    # the top's singleton is not (every neighborhood catches a tail)
    assert sn.is_open("lawson", sn.side_set_of((4,)))
    assert sn.is_open("lawson", sn.side_set_of((A,)))
    assert not sn.is_open("lawson", sn.side_set_of((TOP,)))


def test_side_lower_openness():
    assert sn.is_open("lower", sn.down_set(3))
    assert not sn.is_open("lower", sn.up_set(3))


def test_side_interior_closure():
    assert sn.scott_interior(sn.up_set(A)) == sn.EMPTY
    s = sn.sideset(nats=[1], tail=3, has_a=True, has_top=True)
    assert sn.scott_interior(s) == sn.sideset(tail=3, has_a=True, has_top=True)


def test_side_binding_opens_contain_point():
    """The binding open holds the point, is open, and lies inside the
    binding open of every smaller stabilization bound."""
    for kind in ("scott", "lawson", "lower"):
        for x in (0, 3, A, TOP):
            region = sn.binding_open(kind, x, 5)
            assert x in region
            assert sn.is_open(kind, region)
            for t in range(5):
                assert sn.diff(region, sn.binding_open(kind, x, t)) == sn.EMPTY, (kind, x, t)
