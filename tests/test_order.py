"""Finite poset representation: construction, closure, directed subsets."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from domaincheck.corpus import generate_all_posets, named_posets
from domaincheck.errors import CycleError, DuplicateElement, UnknownElement
from domaincheck.order import bits, build_finite_poset, poset_from_json, poset_to_json

DIAMOND = build_finite_poset(
    "diamond",
    ["bot", "l", "r", "top"],
    [("bot", "l"), ("bot", "r"), ("l", "top"), ("r", "top")],
)

# Brute-forced with the pairwise oracle and frozen: the diamond has 13
# nonempty directed subsets (every subset with a greatest element) and 6
# upper sets including the empty one.
DIAMOND_DIRECTED_COUNT = 13
DIAMOND_UPPER_COUNT = 6


def test_transitive_closure():
    assert DIAMOND.leq("bot", "top")
    assert not DIAMOND.leq("l", "r")
    assert not DIAMOND.leq("top", "bot")
    assert all(DIAMOND.leq(x, x) for x in DIAMOND.elements)


def test_mask_roundtrip():
    m = DIAMOND.mask_of(["l", "top"])
    assert DIAMOND.ids_of(m) == ("l", "top")
    assert list(bits(m)) == [1, 3]


def test_up_down_of_mask():
    m = DIAMOND.mask_of(["l"])
    assert DIAMOND.ids_of(DIAMOND.up_of_mask(m)) == ("l", "top")


def test_directed_masks_frozen_count():
    masks = list(DIAMOND.iter_directed_masks())
    assert len(masks) == DIAMOND_DIRECTED_COUNT
    for m in masks:
        assert DIAMOND.is_directed_mask_pairwise(m)


def test_directedness_definitions_agree():
    for m in range(1, DIAMOND.universe + 1):
        assert DIAMOND.is_directed_mask(m) == DIAMOND.is_directed_mask_pairwise(m)


def test_directed_sup():
    m = DIAMOND.mask_of(["bot", "l"])
    assert DIAMOND.ids_of(1 << DIAMOND.directed_sup_mask(m)) == ("l",)


def test_upper_masks_frozen_count():
    assert sum(1 for _ in DIAMOND.iter_upper_masks()) == DIAMOND_UPPER_COUNT


def test_antichain_masks():
    chains = {DIAMOND.ids_of(m) for m in DIAMOND.iter_antichain_masks()}
    assert ("l", "r") in chains
    assert ("bot", "top") not in chains
    assert all(len(c) >= 1 for c in chains)


def test_cached_artefacts_match_literal_scans():
    """The cached antichains, their upper sets and the upper sets equal the
    literal scans over all ``2**n`` masks, in the same order, on every
    poset of size at most 4, every named corpus poset and the empty one."""
    posets = [p for n in range(1, 5) for p in generate_all_posets(n)]
    posets += [*named_posets().values(), build_finite_poset("empty", [], [])]
    for p in posets:
        antichains = tuple(
            m for m in range(1, p.universe + 1) if all(p.up[i] & m == 1 << i for i in bits(m))
        )
        uppers = tuple(m for m in range(p.universe + 1) if p.up_of_mask(m) == m)
        assert p.antichain_masks == tuple(p.iter_antichain_masks()) == antichains, p.name
        assert p.antichain_ups == tuple(p.up_of_mask(m) for m in antichains), p.name
        assert p.upper_masks == tuple(p.iter_upper_masks()) == uppers, p.name
    assert "cube" in {p.name for p in posets}


def test_duplicate_element_rejected():
    with pytest.raises(DuplicateElement):
        build_finite_poset("bad", ["x", "x"], [])


def test_cycle_rejected():
    with pytest.raises(CycleError):
        build_finite_poset("bad", ["x", "y"], [("x", "y"), ("y", "x")])


def test_unknown_element_rejected():
    with pytest.raises(UnknownElement):
        build_finite_poset("bad", ["x"], [("x", "zz")])
    with pytest.raises(UnknownElement):
        DIAMOND.mask_of(["nope"])


def test_json_roundtrip():
    q = poset_from_json(poset_to_json(DIAMOND))
    assert q.elements == DIAMOND.elements
    assert q.up == DIAMOND.up
    assert q.name == DIAMOND.name


@st.composite
def acyclic_relations(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    elements = [f"v{i}" for i in range(n)]
    # only downward-pointing edges between distinct positions, so the
    # relation is acyclic by construction
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda t: t[0] < t[1]),
            max_size=8,
        )
    )
    return elements, [(elements[i], elements[j]) for i, j in pairs]


@given(acyclic_relations())
def test_closure_is_transitive_and_antisymmetric(data):
    elements, le = data
    p = build_finite_poset("rand", elements, le)
    for x in elements:
        for y in elements:
            if p.leq(x, y) and p.leq(y, x):
                assert x == y
            for z in elements:
                if p.leq(x, y) and p.leq(y, z):
                    assert p.leq(x, z)


@given(acyclic_relations())
def test_directed_subsets_have_upper_bounds(data):
    elements, le = data
    p = build_finite_poset("rand", elements, le)
    for m in p.iter_directed_masks():
        s = p.directed_sup_mask(m)
        assert all(p.leq_ix(i, s) for i in bits(m))
