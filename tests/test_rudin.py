"""Directed transversals of Smyth-directed families and the open-set corollary."""

from __future__ import annotations

from itertools import combinations

import pytest

from domaincheck import rudin as rd
from domaincheck import topology as tp
from domaincheck.corpus import all_corpus, generate_all_posets
from domaincheck.errors import NotDirectedFamily, PreconditionFailed
from domaincheck.order import build_finite_poset, smyth_meet
from domaincheck.waybelow import smyth_leq

DIAMOND = build_finite_poset(
    "diamond",
    ["bot", "l", "r", "top"],
    [("bot", "l"), ("bot", "r"), ("l", "top"), ("r", "top")],
)

CHAIN3 = build_finite_poset("chain3", ["c0", "c1", "c2"], [("c0", "c1"), ("c1", "c2")])

VEE = build_finite_poset("vee", ["z", "x", "y"], [("z", "x"), ("z", "y")])


def test_family_directedness():
    fam = [DIAMOND.mask_of(["l", "r"]), DIAMOND.mask_of(["top"])]
    assert rd.is_directed_family(DIAMOND, fam)
    anti = [DIAMOND.mask_of(["l"]), DIAMOND.mask_of(["r"])]
    assert not rd.is_directed_family(DIAMOND, anti)


def test_directed_family_matches_pairwise_smyth_definition():
    """The greatest-member test equals the literal definition, every pair
    dominated by a member in the Smyth preorder, on every family of one
    to ``tp.FAMILY_BOUND`` antichains over every poset of size at most 4:
    ``smyth_meet`` returns the AND of the members' upper sets exactly
    when the definition holds, and None otherwise.

    The generator ``tp._directed_antichain_families`` at each bound ``k``
    yields exactly the directed families of at most ``k`` antichains, as
    a set of member sets, none twice, each with its members' upper sets,
    the first of which is the meet."""
    for n in (1, 2, 3, 4):
        for p in generate_all_posets(n):
            antichains = list(p.iter_antichain_masks())
            directed = set()
            for k in range(1, tp.FAMILY_BOUND + 1):
                for fam in combinations(antichains, k):
                    literal = all(
                        any(smyth_leq(p, f, h) and smyth_leq(p, g, h) for h in fam)
                        for f in fam
                        for g in fam
                    )
                    assert rd.is_directed_family(p, fam) == literal, (p.name, fam)
                    meet = p.universe
                    for f in fam:
                        meet &= p.up_of_mask(f)
                    expected = meet if literal else None
                    assert smyth_meet([p.up_of_mask(f) for f in fam]) == expected, (p.name, fam)
                    if literal:
                        directed.add(frozenset(fam))
                generated = list(tp._directed_antichain_families(p, k))
                members = [frozenset(fam) for fam, _ups in generated]
                assert len(set(members)) == len(members), (p.name, k)
                assert set(members) == directed, (p.name, k)
                for fam, ups in generated:
                    assert len(fam) <= k
                    assert ups == tuple(p.up_of_mask(f) for f in fam), (p.name, fam)
                    assert smyth_meet(ups) == ups[0], (p.name, fam)
    assert not rd.is_directed_family(DIAMOND, ())
    assert smyth_meet(()) is None


def test_extract_diamond_golden():
    rep = rd.extract_directed(DIAMOND, [DIAMOND.mask_of(["l", "r"]), DIAMOND.mask_of(["top"])])
    assert DIAMOND.ids_of(rep.tightest) == ("top",)
    assert DIAMOND.elements[rep.peak] == "top"
    assert DIAMOND.ids_of(rep.directed_set) == ("l", "top")
    assert DIAMOND.is_directed_mask_pairwise(rep.directed_set)


def test_extract_chain_golden():
    fam = [CHAIN3.mask_of([e]) for e in CHAIN3.elements]
    rep = rd.extract_directed(CHAIN3, fam)
    assert CHAIN3.ids_of(rep.directed_set) == ("c0", "c1", "c2")


# Extraction is the one entry point that takes members; the corollary
# takes its report, which exists only for a directed family.
ENTRY_POINTS = (rd.extract_directed,)


def test_extract_rejects_non_directed_family():
    for entry in ENTRY_POINTS:
        with pytest.raises(NotDirectedFamily):
            entry(DIAMOND, [DIAMOND.mask_of(["l"]), DIAMOND.mask_of(["r"])])
        with pytest.raises(NotDirectedFamily):
            entry(DIAMOND, [])


def test_extract_rejects_empty_member():
    for entry in ENTRY_POINTS:
        with pytest.raises(PreconditionFailed):
            entry(DIAMOND, [0])
        with pytest.raises(PreconditionFailed):
            entry(DIAMOND, [DIAMOND.mask_of(["top"]), 0])


def test_report_serialization():
    rep = rd.extract_directed(DIAMOND, [DIAMOND.mask_of(["top"])])
    d = rep.to_dict(DIAMOND)
    assert d["directed_set"] == ["top"] and d["peak"] == "top"


def test_corollary_diamond():
    fam = [DIAMOND.mask_of(["l", "r"]), DIAMOND.mask_of(["top"])]
    target = DIAMOND.mask_of(["top"])  # Scott open, contains the meet of upper sets
    member = rd.rudin_corollary(DIAMOND, rd.extract_directed(DIAMOND, fam), target)
    assert DIAMOND.up_of_mask(member) & ~target == 0


def test_corollary_precondition_vee():
    """With the plain member intersection instead of the upper-set one the
    statement would be vacuously applicable here and false; the upper-set
    precondition correctly rejects it."""
    fam = [VEE.mask_of(["x", "y"]), VEE.mask_of(["z"])]
    assert rd.is_directed_family(VEE, fam)
    empty_open = 0
    meet_of_members = fam[0] & fam[1]
    assert meet_of_members == 0  # plain intersection suggests applicability
    with pytest.raises(PreconditionFailed):
        rd.rudin_corollary(VEE, rd.extract_directed(VEE, fam), empty_open)


def test_exhaustive_extraction_size_four():
    """Every directed family of at most three antichains over every poset
    with four elements yields a replayed, validated transversal."""
    seen = 0
    for p in generate_all_posets(4):
        antichains = list(p.iter_antichain_masks())
        for k in (1, 2, 3):
            for fam in combinations(antichains, k):
                if not rd.is_directed_family(p, fam):
                    continue
                rep = rd.extract_directed(p, fam)
                seen += 1
                assert p.is_directed_mask_pairwise(rep.directed_set)
                union = 0
                for f in fam:
                    union |= f
                    assert rep.directed_set & f
                assert rep.directed_set & ~union == 0
    assert seen > 500


def test_corollary_exhaustive_scott_opens():
    """The corollary finds its member for every Scott open that contains
    the meet, on every directed family of at most three antichains over
    every poset of size at most 4; the ``rudin`` suite calls it only for
    the meet itself."""
    for n in (1, 2, 3, 4):
        for p in generate_all_posets(n):
            sc = tp.scott_topology(p)
            antichains = list(p.iter_antichain_masks())
            for k in (1, 2, 3):
                for fam in combinations(antichains, k):
                    if not rd.is_directed_family(p, fam):
                        continue
                    meet = p.universe
                    for f in fam:
                        meet &= p.up_of_mask(f)
                    rep = rd.extract_directed(p, fam)
                    for u in sc.opens:
                        if meet & ~u:
                            continue
                        member = rd.rudin_corollary(p, rep, u)
                        assert p.up_of_mask(member) & ~u == 0


def test_family_verdict_is_the_and_of_its_pairs():
    """The fact the ``rudin`` suite decides by, on the library's own
    functions: for every family ``_directed_antichain_families(p, 3)``
    yields on every poset of ``all_corpus(4)``, the tightest member is
    the greatest member ``g``, the transversal is the OR of those of
    ``(g,)`` and of each pair ``(g, f)``, and the corollary's member for
    ``up(g)`` is ``g``.  The families number ``1 + k + k(k-1)/2`` per
    greatest member with ``k`` antichains above it.  A fault that shows
    only on families of three members fails here, where the suite,
    which decides pairs, cannot see it."""
    for p in all_corpus(4).values():
        reports = {fam: rd.extract_directed(p, fam) for fam, _ups in tp._directed_antichain_families(p, 2)}
        count = 0
        for fam, _ups in tp._directed_antichain_families(p, 3):
            g = fam[0]
            rep = rd.extract_directed(p, fam)
            assert rep.tightest == g, (p.name, fam)
            directed_set = reports[(g,)].directed_set
            for f in fam[1:]:
                directed_set |= reports[(g, f)].directed_set
            assert rep.directed_set == directed_set, (p.name, fam)
            assert rd.rudin_corollary(p, rep, p.up_of_mask(g)) == g, (p.name, fam)
            count += 1
        closed_form = 0
        for _g, _up_g, above in tp._greatest_members(p):
            k = len(above)
            closed_form += 1 + k + k * (k - 1) // 2
        assert count == closed_form, p.name
