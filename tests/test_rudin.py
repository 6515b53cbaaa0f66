"""Directed transversals of Smyth-directed families and the open-set corollary."""

from __future__ import annotations

from itertools import combinations

import pytest

from domaincheck import rudin as rd
from domaincheck import topology as tp
from domaincheck.corpus import generate_all_posets
from domaincheck.errors import NotDirectedFamily, PreconditionFailed
from domaincheck.order import build_finite_poset
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
    """The up-set test equals the literal definition, every pair dominated
    by a member in the Smyth preorder, on every family of one to three
    antichains over every poset of size at most 4."""
    for n in (1, 2, 3, 4):
        for p in generate_all_posets(n):
            antichains = list(p.iter_antichain_masks())
            for k in (1, 2, 3):
                for fam in combinations(antichains, k):
                    literal = all(
                        any(smyth_leq(p, f, h) and smyth_leq(p, g, h) for h in fam)
                        for f in fam
                        for g in fam
                    )
                    assert rd.is_directed_family(p, fam) == literal, (p.name, fam)
    assert not rd.is_directed_family(DIAMOND, ())


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


def test_extract_rejects_non_directed_family():
    with pytest.raises(NotDirectedFamily):
        rd.extract_directed(DIAMOND, [DIAMOND.mask_of(["l"]), DIAMOND.mask_of(["r"])])


def test_extract_rejects_empty_member():
    with pytest.raises(PreconditionFailed):
        rd.extract_directed(DIAMOND, [0])


def test_report_serialization():
    rep = rd.extract_directed(DIAMOND, [DIAMOND.mask_of(["top"])])
    d = rep.to_dict(DIAMOND)
    assert d["directed_set"] == ["top"] and d["peak"] == "top"


def test_corollary_diamond():
    fam = [DIAMOND.mask_of(["l", "r"]), DIAMOND.mask_of(["top"])]
    target = DIAMOND.mask_of(["top"])  # Scott open, contains the meet of upper sets
    member = rd.rudin_corollary(DIAMOND, fam, target)
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
        rd.rudin_corollary(VEE, fam, empty_open)


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
    for p in generate_all_posets(3):
        sc = tp.scott_topology(p)
        antichains = list(p.iter_antichain_masks())
        for k in (1, 2):
            for fam in combinations(antichains, k):
                if not rd.is_directed_family(p, fam):
                    continue
                meet = p.universe
                for f in fam:
                    meet &= p.up_of_mask(f)
                for u in sc.opens:
                    if meet & ~u:
                        continue
                    member = rd.rudin_corollary(p, fam, u)
                    assert p.up_of_mask(member) & ~u == 0
