"""Scott, lower, Lawson, and family lim-inf topologies."""

from __future__ import annotations

import pytest

from domaincheck import convergence as cv
from domaincheck import sidenat as sn
from domaincheck import suites
from domaincheck import topology as tp
from domaincheck.corpus import generate_all_posets
from domaincheck.errors import TooLarge
from domaincheck.order import build_finite_poset
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
    for n in range(1, 5):
        for p in generate_all_posets(n):
            definitional = frozenset(
                m for m in range(p.universe + 1) if tp._scott_open_definitional(p, m)
            )
            assert tp.scott_topology(p).opens == definitional, p.name


def test_lower_topology():
    lo = tp.lower_topology(DIAMOND)
    assert all(DIAMOND.is_lower_mask(u) for u in lo.opens)
    assert DIAMOND.mask_of(["bot"]) in lo.opens


def test_lawson_discrete_on_finite():
    law = tp.lawson_topology(DIAMOND)
    assert len(law.opens) == 1 << DIAMOND.n


def test_family_liminf_topology_is_scott():
    sc = tp.scott_topology(DIAMOND)
    assert tp.family_liminf_topology(DIAMOND, method="naive").opens == sc.opens
    assert tp.family_liminf_topology(DIAMOND, method="reduced").opens == sc.opens


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
    assert tp.side_is_open("scott", sn.up_set(3))
    assert tp.side_is_open("scott", sn.sideset(tail=5, has_a=True, has_top=True))
    assert not tp.side_is_open("scott", sn.up_set(A))
    assert not tp.side_is_open("scott", sn.up_set(TOP))
    assert not tp.side_is_open("scott", sn.down_set(3))
    assert tp.side_is_open("scott", sn.EMPTY) and tp.side_is_open("scott", sn.FULL)


def test_side_lawson_openness():
    # singletons of naturals and of the side point are Lawson open;
    # the top's singleton is not (every neighborhood catches a tail)
    assert tp.side_is_open("lawson", sn.side_set_of((4,)))
    assert tp.side_is_open("lawson", sn.side_set_of((A,)))
    assert not tp.side_is_open("lawson", sn.side_set_of((TOP,)))


def test_side_lower_openness():
    assert tp.side_is_open("lower", sn.down_set(3))
    assert not tp.side_is_open("lower", sn.up_set(3))


def test_side_interior_closure():
    assert tp.side_interior("scott", sn.up_set(A)) == sn.EMPTY
    assert tp.side_closure("scott", sn.side_set_of((A,))) == sn.side_set_of((A,))
    # the naturals are Scott dense: their closure adds the top
    closure = tp.side_closure("scott", sn.sideset(tail=0))
    assert TOP in closure


def test_side_binding_opens_contain_point():
    for kind in ("scott", "lawson", "lower"):
        for x in (0, 3, A, TOP):
            for region in tp.side_binding_opens(kind, x, 5):
                assert x in region
                assert tp.side_is_open(kind, region)
