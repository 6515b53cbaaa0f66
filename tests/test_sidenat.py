"""The side-point dcpo and its canonical subset algebra."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from domaincheck import convergence as cv
from domaincheck import sidenat as sn
from domaincheck.errors import UnknownElement
from domaincheck.sidenat import A, TOP


def test_order_table():
    assert sn.side_leq(0, 5)
    assert sn.side_leq(5, 5)
    assert not sn.side_leq(5, 0)
    assert sn.side_leq(3, TOP)
    assert sn.side_leq(A, TOP)
    assert not sn.side_leq(A, 7)
    assert not sn.side_leq(7, A)
    assert sn.side_leq(TOP, TOP)
    assert not sn.side_leq(TOP, A)


def test_element_parse_format():
    assert sn.parse_side_element("17") == 17
    assert sn.parse_side_element("a") == A
    assert sn.parse_side_element("inf") == TOP
    with pytest.raises(UnknownElement):
        sn.parse_side_element("-3")
    with pytest.raises(UnknownElement):
        sn.parse_side_element("b")


# Values that are not elements of the carrier: a foreign id, a fraction,
# a bool (an int subclass) and a negative integer.
NOT_ELEMENTS = ["zzz", 2.5, True, -3]


@pytest.mark.parametrize("bad", NOT_ELEMENTS, ids=repr)
def test_operations_reject_points_outside_the_carrier(bad):
    """Every point argument and every member of a finite set is checked
    against the carrier, as a finite poset checks ids through ``index``.
    The ascending net's family holds every singleton, so a lim-inf
    predicate that answered by a schema before checking the point would
    accept it."""
    net = cv.track_net(cv.ascend_track())
    idl = cv.ideal("eventual")
    gi = sn.eventual_family(net, idl)
    assert gi.singles == sn.NATS
    calls = [
        lambda: sn.converges_liminf(gi, bad),
        lambda: sn.converges_family_liminf(gi, bad),
        lambda: sn.converges_topological(net, bad, idl, "scott"),
        lambda: sn.converges_topological(net, bad, idl, "lawson"),
        lambda: sn.is_eventual_liminf(gi, bad),
        lambda: sn.set_way_below((bad,), (0,)),
        lambda: sn.set_way_below((0,), (bad,)),
        lambda: sn.set_way_below((bad,), ()),
        lambda: sn.fin_of(bad),
        lambda: sn.interpolate((0,), bad),
        lambda: sn.interpolate((bad,), TOP),
        lambda: sn.waydown_of(bad),
        lambda: sn.way_up((bad,)),
        lambda: sn.side_set_of((0, bad)),
    ]
    for i, call in enumerate(calls):
        with pytest.raises(UnknownElement):
            call()
            pytest.fail(f"call {i} accepted {bad!r}")


def test_sideset_canonicalization():
    # naturals swallowed by the tail collapse into it
    s = sn.sideset(nats=[2, 5, 7], tail=5)
    assert s.nats == frozenset({2})
    assert s.tail == 5
    assert sn.sideset(nats=range(10), tail=0) == sn.sideset(tail=0)


def test_membership():
    s = sn.sideset(nats=[1], tail=4, has_a=True)
    assert 1 in s and 4 in s and 9 in s and A in s
    assert 2 not in s and TOP not in s


def test_up_down_sets():
    assert sn.up_set(3) == sn.sideset(tail=3, has_top=True)
    assert sn.up_set(A) == sn.sideset(has_a=True, has_top=True)
    assert sn.up_set(TOP) == sn.sideset(has_top=True)
    assert sn.down_set(3) == sn.sideset(nats=range(4))
    assert sn.down_set(TOP) == sn.FULL


def test_closures():
    s = sn.side_set_of((2, A))
    up = sn.up_closure(s)
    assert up == sn.sideset(tail=2, has_a=True, has_top=True)
    assert sn.is_upper(up)
    assert sn.down_closure(up) == sn.FULL
    assert sn.down_closure(sn.side_set_of((A,))) == sn.side_set_of((A,))


def test_directedness_shapes():
    assert sn.is_directed_set(sn.sideset(nats=[0, 1, 2]))
    assert sn.is_directed_set(sn.sideset(tail=3))
    assert sn.is_directed_set(sn.side_set_of((A,)))
    assert not sn.is_directed_set(sn.side_set_of((1, A)))
    assert sn.is_directed_set(sn.sideset(nats=[4], has_a=True, has_top=True))
    assert not sn.is_directed_set(sn.EMPTY)


def test_directed_sups():
    assert sn.directed_sup(sn.sideset(nats=[0, 3])) == 3
    assert sn.directed_sup(sn.sideset(tail=0)) == TOP
    assert sn.directed_sup(sn.side_set_of((A,))) == A
    assert sn.directed_sup(sn.sideset(nats=[1], has_top=True)) == TOP


def test_antichains():
    assert sn.antichain_of((5, 2, A)) == (2, A)
    assert sn.antichain_of((3, TOP)) == (3,)
    chains = set(sn.iter_antichains_upto(2))
    assert (0,) in chains and (1, A) in chains and (TOP,) in chains
    assert all(len(c) <= 2 for c in chains)


def test_truncation():
    p = sn.truncate_side_nat(2)
    assert p.elements == ("0", "1", "2", "a", "inf")
    assert p.leq("0", "2") and p.leq("a", "inf") and not p.leq("a", "2")
    assert p.leq("2", "inf")


_elems = st.lists(
    st.one_of(st.integers(0, 8), st.just(A), st.just(TOP)), max_size=6
)
_tails = st.one_of(st.none(), st.integers(0, 8))


@st.composite
def sidesets(draw):
    return sn.sideset(
        nats=[e for e in draw(_elems) if isinstance(e, int)],
        tail=draw(_tails),
        has_a=draw(st.booleans()),
        has_top=draw(st.booleans()),
    )


def _window(s, k=24):
    out = {n for n in range(k) if n in s}
    if A in s:
        out.add(A)
    if TOP in s:
        out.add(TOP)
    return out


def test_subset_matches_window_inclusion():
    """``_subset`` reads inclusion from the canonical fields; on every
    canonical set with naturals below 5, a tail ``None`` or 0 to 6 and
    either flag, it is inclusion on a window past every natural."""
    sets = {
        sn.sideset(nats=[n for n in range(5) if bits >> n & 1], tail=tail, has_a=a, has_top=top)
        for bits in range(1 << 5)
        for tail in (None, *range(7))
        for a in (False, True)
        for top in (False, True)
    }
    windows = {s: _window(s) for s in sets}
    for s, ws in windows.items():
        for t, wt in windows.items():
            assert sn._subset(s, t) == (ws <= wt), (s, t)


@given(sidesets(), sidesets())
def test_algebra_pointwise(s, t):
    assert _window(sn.union(s, t)) == _window(s) | _window(t)
    assert _window(sn.inter(s, t)) == _window(s) & _window(t)
    assert _window(sn.diff(s, t)) == _window(s) - _window(t)


@given(sidesets())
def test_closures_idempotent_and_extensive(s):
    up = sn.up_closure(s)
    dn = sn.down_closure(s)
    assert sn.up_closure(up) == up
    assert sn.down_closure(dn) == dn
    assert _window(s) <= _window(up)
    assert _window(s) <= _window(dn)
    assert sn.is_upper(up)


@given(sidesets(), sidesets())
def test_canonical_equality_is_extensional(s, t):
    # two canonical sets agreeing on a window past every explicit natural
    # are the same set
    if _window(s, 20) == _window(t, 20) and (s.tail is None) == (t.tail is None):
        assert s == t
