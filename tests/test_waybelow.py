"""Way-below relations, approximating families, and classification."""

from __future__ import annotations

from itertools import combinations

import pytest

from domaincheck import waybelow as wb
from domaincheck import sidenat as sn
from domaincheck.corpus import all_corpus, generate_all_posets, named_posets
from domaincheck.errors import PreconditionFailed
from domaincheck.order import bits, build_finite_poset
from domaincheck.sidenat import A, TOP

DIAMOND = build_finite_poset(
    "diamond",
    ["bot", "l", "r", "top"],
    [("bot", "l"), ("bot", "r"), ("l", "top"), ("r", "top")],
)

# fin(top) on the diamond, frozen from the brute-force enumeration:
# every antichain whose upper set contains top qualifies.
DIAMOND_FIN_TOP = {("bot",), ("l",), ("r",), ("l", "r"), ("top",)}


def test_smyth_preorder():
    m = DIAMOND.mask_of
    assert wb.smyth_leq(DIAMOND, m(["bot"]), m(["l", "r"]))
    assert wb.smyth_leq(DIAMOND, m(["l", "r"]), m(["top"]))
    assert not wb.smyth_leq(DIAMOND, m(["top"]), m(["l"]))
    assert wb.smyth_leq(DIAMOND, m(["l"]), m(["l"]))


def test_smyth_leq_does_not_read_set_way_below(monkeypatch):
    """``smyth_leq`` decides the Smyth preorder by its own definition, so
    the ``finite-collapse`` suite compares two rules, not one with itself:
    with ``set_way_below`` answering wrongly, ``g <= h`` still holds iff
    every point of ``h`` lies above some point of ``g``."""
    monkeypatch.setattr(wb, "set_way_below", lambda p, g, h: True)
    chains = list(DIAMOND.iter_antichain_masks())
    for g in chains:
        for h in chains:
            smyth = all(any(DIAMOND.leq_ix(i, j) for i in bits(g)) for j in bits(h))
            assert wb.smyth_leq(DIAMOND, g, h) == smyth, (g, h)


def test_finite_point_way_below_is_order():
    for x in DIAMOND.elements:
        for y in DIAMOND.elements:
            g, h = DIAMOND.mask_of([x]), DIAMOND.mask_of([y])
            assert wb.set_way_below(DIAMOND, g, h) == DIAMOND.leq(x, y)


def test_finite_set_way_below_is_smyth():
    chains = list(DIAMOND.iter_antichain_masks())
    for g in chains:
        for h in chains:
            assert wb.set_way_below(DIAMOND, g, h) == wb.smyth_leq(DIAMOND, g, h)


def test_finite_set_way_below_matches_definition():
    """The closed form of finite way-below, the Smyth preorder, agrees with
    the directed-subset definition on every pair of subsets of every poset
    of size at most 3 and every pair of antichains of every poset of size 4;
    the definition reads each poset's cached ``directed_sups``, which is
    checked against the enumeration it caches.  The definition, regrouped
    by ``g`` into one row of escaping suprema, is also checked against the
    literal per-pair scan written out here."""
    compared = 0
    for n in range(1, 5):
        for p in generate_all_posets(n):
            assert p.directed_sups == tuple(
                (d, p.directed_sup_mask(d)) for d in p.iter_directed_masks()
            ), p.name
            masks = list(range(p.universe + 1)) if n <= 3 else list(p.iter_antichain_masks())
            for g in masks:
                for h in masks:
                    upg, uph = p.up_of_mask(g), p.up_of_mask(h)
                    literal = not any(
                        uph >> sup & 1 and d & upg == 0 for d, sup in p.directed_sups
                    )
                    fast = wb.set_way_below(p, g, h)
                    slow = wb._set_way_below_definitional(p, g, h)
                    assert fast == slow == literal == wb.smyth_leq(p, g, h), (p.name, g, h)
                    compared += 1
    assert compared == 1353


def test_waydown_and_fin_match_per_pair_filters():
    """``waydown_of`` and ``fin_of`` read the rows ``p.down`` and
    ``p.antichain_ups``; they equal the per-pair ``set_way_below``
    filters over points and antichains on every corpus poset of at most
    5 points and every named poset."""
    posets = [p for p in all_corpus(5).values() if p.n <= 5]
    posets += [p for p in named_posets().values() if p.n > 5]
    assert any(p.name == "cube" for p in posets)
    for p in posets:
        for x in range(p.n):
            waydown = sum(1 << y for y in range(p.n) if wb.set_way_below(p, 1 << y, 1 << x))
            fin = tuple(f for f in p.antichain_masks if wb.set_way_below(p, f, 1 << x))
            assert wb.waydown_of(p, x) == waydown, (p.name, x)
            assert wb.fin_of(p, x) == fin, (p.name, x)


def test_fin_of_diamond_top():
    fam = wb.fin_of(DIAMOND, DIAMOND.index("top"))
    assert {DIAMOND.ids_of(f) for f in fam} == DIAMOND_FIN_TOP


def test_side_point_waydown_closed_forms():
    assert sn.waydown_of(A) == sn.EMPTY
    assert sn.waydown_of(TOP) == sn.sideset(tail=0)
    assert sn.waydown_of(4) == sn.sideset(nats=range(5))


def test_side_pairs_way_below_side_point():
    for n in range(101):
        assert sn.set_way_below((n, A), (A,))
    assert not sn.set_way_below((A,), (A,))
    assert not sn.set_way_below((TOP,), (A,))


def test_side_rule_matches_shape_oracle():
    # frozen from the derivation run: zero mismatches over all antichain
    # pairs with naturals up to 6
    chains = list(sn.iter_antichains_upto(6))
    mismatches = [
        (g, h)
        for g in chains
        for h in chains
        if sn.set_way_below(g, h) != sn.way_below_oracle(g, h)
    ]
    assert mismatches == []


def test_side_way_up():
    assert sn.way_up((3,)) == sn.up_set(3)
    assert sn.way_up((A,)) == sn.EMPTY
    assert sn.way_up((2, A)) == sn.up_closure(sn.side_set_of((2, A)))


def test_side_fin_of_schemas():
    fam_a = sn.fin_of(A)
    assert fam_a.contains((4, A)) and not fam_a.contains((4,))
    fam_top = sn.fin_of(TOP)
    assert fam_top.contains((9,)) and fam_top.contains((9, A))
    fam_3 = sn.fin_of(3)
    assert fam_3.contains((2,)) and not fam_3.contains((4,))


def _item12_families():
    """Every family of at most two antichains from ``iter_antichains_upto(3)``,
    with each schema absent or starting at 0 or 2: 333 constructions."""
    return [
        sn.side_family(members, singletons_from=s, pairs_from=q)
        for r in range(3)
        for members in combinations(sn.iter_antichains_upto(3), r)
        for s in (None, 0, 2)
        for q in (None, 0, 2)
    ]


def test_side_family_equality_is_family_equality():
    """A family is held by shape, so two constructions are equal exactly
    when they have the same members: the 333 constructions give 169
    values, and the same 169 classes as their members below 30."""
    families = _item12_families()
    assert len(families) == 333
    values = set(families)
    by_members = {fam: frozenset(fam.members_upto(30)) for fam in values}
    assert len(values) == len(set(by_members.values())) == 169
    assert sn.side_family([(0,), (1,)], 2, 2) == sn.side_family(singletons_from=0, pairs_from=2)


def _meet_by_inter(fam):
    """The meet of a family's upper sets as the fold through ``sn.inter``:
    the members outside the schemas one by one, then each schema's meet."""
    out = sn.FULL
    for m in fam.members_upto(0):
        out = sn.inter(out, sn.up_closure(sn.side_set_of(m)))
    if fam.singles.tail is not None:
        out = sn.inter(out, sn.up_set(TOP))
    if fam.pairs.tail is not None:
        out = sn.inter(out, sn.up_set(A))
    return out


def test_side_family_upset_intersection():
    """The schemas' meets, and on the families of the prefix tests below
    and the 169 distinct families of ``_item12_families``: the meet read
    off the shape fields agrees with the fold through ``sn.inter``;
    building a family again from its members, each given twice, gives the
    same family; and at each point, ``first_outside`` names the first
    member below 30, in ``to_dict`` order, whose upper set misses the
    point, and none exactly when the point lies in the meet."""
    fam = sn.side_family(pairs_from=0)
    assert fam.upset_intersection() == sn.up_set(A)
    fam = sn.side_family(singletons_from=0)
    assert fam.upset_intersection() == sn.up_set(TOP)
    families = [sn.fin_of(x) for x in (A, TOP, *range(6))]
    families += [sn.side_family([(2,), (3, A)]), sn.side_family([(0,)], pairs_from=2)]
    families += [
        sn.side_family(explicit, singletons_from=s, pairs_from=q)
        for explicit in ([], [(1,)], [(0, A), (A,)], [(TOP,), (2,)])
        for s in (None, 0, 3)
        for q in (None, 0, 2)
    ]
    families += sorted(set(_item12_families()), key=repr)
    for fam in families:
        explicit = fam.members_upto(0)
        twice = [*explicit, *reversed(explicit), *fam.members_upto(6)]
        assert sn.side_family(twice, fam.singles.tail, fam.pairs.tail) == fam, fam
        meet = fam.upset_intersection()
        assert meet == _meet_by_inter(fam), fam
        ups = [(m, sn.up_closure(sn.side_set_of(m))) for m in fam.members_upto(30)]
        for x in (A, TOP, 0, 1, 2, 3, 7):
            scan = [m for m, up in ups if x not in up]
            assert fam.first_outside(x) == (scan[0] if scan else None), (fam, x)
            assert (fam.first_outside(x) is None) == (x in meet), (fam, x)


def test_interpolation_side():
    e = sn.interpolate((2, A), A)
    assert sn.set_way_below((2, A), e)
    assert sn.set_way_below(e, (A,))
    e = sn.interpolate((5,), TOP)
    assert sn.set_way_below((5,), e) and sn.set_way_below(e, (TOP,))
    with pytest.raises(PreconditionFailed):
        sn.interpolate((A,), A)


def test_interpolation_finite():
    m = wb.interpolate(DIAMOND, DIAMOND.mask_of(["l", "r"]), DIAMOND.index("top"))
    assert DIAMOND.ids_of(m) == ("top",)


def test_classify_finite():
    rep = wb.classify(DIAMOND)
    assert rep.is_dcpo and rep.is_continuous
    assert rep.is_quasi_continuous and rep.is_meet_continuous


def test_classify_side():
    rep = sn.classify()
    assert rep.is_dcpo
    assert rep.is_quasi_continuous
    assert not rep.is_continuous
    assert not rep.is_meet_continuous
    # the side point is the continuity witness: nothing is way below it
    assert rep.witnesses["continuous"]["point"] == "a"


def test_side_family_sorts_mixed_members():
    for members in ([(0,), (A,)], [(TOP,), (1,)]):
        fam = sn.side_family(members)
        assert fam == sn.side_family(list(reversed(members)))
        assert isinstance(fam.members_upto(0)[0][0], int)


def _literal_prefix_directed(fam, k: int) -> bool:
    """Each pair of members below ``k`` is dominated by a member below ``k + 4``."""
    def up(m):
        return sn.up_closure(sn.side_set_of(m))

    ups = [up(m) for m in fam.members_upto(k)]
    witnesses = [up(h) for h in fam.members_upto(k + 4)]
    return bool(ups) and all(
        any(sn.diff(w, meet).is_empty for w in witnesses)
        for meet in (sn.inter(u, v) for u in ups for v in ups)
    )


def test_side_family_is_directed_matches_prefixes():
    """The closed form agrees with the literal pairwise definition on
    prefixes, on the approximating families, two undirected families and
    the 169 distinct families of ``_item12_families``, 116 of them directed."""
    families = [sn.fin_of(x) for x in (A, TOP, *range(6))]
    families += [sn.side_family([(2,), (3, A)]), sn.side_family([(0,)], pairs_from=2)]
    families += sorted(set(_item12_families()), key=repr)
    verdicts = []
    for i, fam in enumerate(families):
        verdicts.append(fam.is_directed())
        # a prefix decides once it passes every natural the family names
        for k in (3, 6, 9) if i < 10 else (6, 9):
            assert _literal_prefix_directed(fam, k) == verdicts[-1], (fam, k)
    assert verdicts[:10] == [True] * 8 + [False, False]
    assert sum(verdicts[10:]) == 116


def test_side_family_includes_matches_prefixes():
    """``includes`` decides inclusion of possibly infinite families as the
    literal member-by-member check does on a prefix far past every
    parameter."""
    families = [sn.fin_of(x) for x in (A, TOP, *range(4))]
    families += [
        sn.side_family(explicit, singletons_from=s, pairs_from=q)
        for explicit in ([], [(1,)], [(0, A), (A,)], [(TOP,), (2,)])
        for s in (None, 0, 3)
        for q in (None, 0, 2)
    ]
    included = 0
    for big in families:
        for small in families:
            literal = all(big.contains(m) for m in small.members_upto(30))
            assert big.includes(small) == literal, (big, small)
            included += literal
    assert 0 < included < len(families) ** 2
