"""Ideal convergence: omega sets, nets, the four modes, derived topologies.

The expected values in this file were computed by independent slow paths
(pointwise window enumeration for omega sets, exhaustive quantification
for the finite reductions) and then frozen.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from domaincheck import convergence as cv
from domaincheck import sidenat as sn
from domaincheck import topology as tp
from domaincheck.corpus import generate_all_posets
from domaincheck.errors import (
    BackendUnsupported,
    IndexMismatch,
    NetClassTooSmall,
    NotDirected,
    PreconditionFailed,
    UnknownElement,
)
from domaincheck.order import build_finite_poset
from domaincheck.sidenat import A, TOP, SIDE_NAT

DIAMOND = build_finite_poset(
    "diamond",
    ["bot", "l", "r", "top"],
    [("bot", "l"), ("bot", "r"), ("l", "top"), ("r", "top")],
)

CHAIN2 = build_finite_poset("chain2", ["c0", "c1"], [("c0", "c1")])

EVENTUAL = cv.ideal("eventual")

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


def test_omega_membership_and_density():
    odds = cv.omega_set(2, [1])
    assert odds.member(3) and not odds.member(4)
    assert odds.density() == Fraction(1, 2)
    assert not odds.is_finite
    assert cv.finite_omega([0, 2, 4]).is_finite
    assert cv.OMEGA_EMPTY.density() == 0


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
    assert set(cv.omega_diff(s, t).members_upto(window)) == su - tu


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
    assert cv.exception_set(SIDE_NAT, INTERLEAVED, up_pair) == cv.finite_omega([0, 2, 4, 6, 8])
    # frozen: outside up(5) additionally every odd position (the side
    # point is not above 5), so the exceptional set is infinite
    exc = cv.exception_set(SIDE_NAT, INTERLEAVED, sn.up_set(5))
    assert not exc.is_finite
    assert set(exc.members_upto(12)) == {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11}
    assert cv.level_set(SIDE_NAT, INTERLEAVED, sn.up_set(5)) == cv.omega_complement(exc)


def test_exception_set_finite_index():
    net = cv.finite_net(CHAIN2, ["bot", "top"])
    exc = cv.exception_set(DIAMOND, net, DIAMOND.mask_of(["top"]))
    assert exc == 1  # only index point c0 escapes
    assert cv.ideal_member(cv.ideal("eventual", CHAIN2), exc)


def test_index_mismatch_guard():
    with pytest.raises(IndexMismatch):
        cv.converges_liminf(DIAMOND, INTERLEAVED, "top", cv.ideal("eventual", CHAIN2))


# -- convergence modes on the side-point dcpo -----------------------------------


def test_interleaved_family_but_not_liminf():
    assert cv.converges_family_liminf(SIDE_NAT, INTERLEAVED, A, EVENTUAL).holds
    assert not cv.converges_liminf(SIDE_NAT, INTERLEAVED, A, EVENTUAL).holds


def test_interleaved_family_witness_is_pair_schema():
    v = cv.converges_family_liminf(SIDE_NAT, INTERLEAVED, A, EVENTUAL)
    assert v.witness["shape"] == "pair_schema"


def test_interleaved_topological():
    assert cv.converges_topological(SIDE_NAT, INTERLEAVED, A, EVENTUAL, "scott").holds
    assert not cv.converges_topological(SIDE_NAT, INTERLEAVED, A, EVENTUAL, "lawson").holds


def test_interleaved_converges_nowhere_else():
    for x in (0, 1, 5, TOP):
        assert not cv.converges_family_liminf(SIDE_NAT, INTERLEAVED, x, EVENTUAL).holds


def test_interleaved_eventual_family_frozen():
    gi = cv.eventual_family(SIDE_NAT, INTERLEAVED, EVENTUAL)
    assert gi.singles == ("upto", 0)
    assert gi.pairs == ("all", 0)
    assert not gi.has_side_single and not gi.has_top_single
    assert gi.contains((5, A)) and not gi.contains((5,)) and not gi.contains((A,))


def test_interleaved_eventual_liminf_only_at_side_point():
    assert cv.is_eventual_liminf(SIDE_NAT, INTERLEAVED, A, EVENTUAL).holds
    for x in (0, 3, TOP):
        assert not cv.is_eventual_liminf(SIDE_NAT, INTERLEAVED, x, EVENTUAL).holds


def test_ascending_net_converges_everywhere():
    # the naturals form a directed set with supremum top that the net
    # eventually enters at every level, and the top dominates every point
    net = cv.track_net(cv.ascend_track())
    for x in (0, 7, A, TOP):
        v = cv.converges_liminf(SIDE_NAT, net, x, EVENTUAL)
        assert v.holds
        assert cv.converges_family_liminf(SIDE_NAT, net, x, EVENTUAL).holds
    assert cv.converges_liminf(SIDE_NAT, net, A, EVENTUAL).witness["shape"] == "natural_chain"


def test_constant_net_converges_below_value():
    net = cv.track_net(cv.const_track(4))
    for x in (0, 4):
        assert cv.converges_liminf(SIDE_NAT, net, x, EVENTUAL).holds
    for x in (5, A, TOP):
        assert not cv.converges_liminf(SIDE_NAT, net, x, EVENTUAL).holds


# -- convergence modes on finite posets ----------------------------------------


def _diamond_alternating(v1, v2):
    return cv.track_net(cv.const_track(v1), cv.const_track(v2))


def test_diamond_alternating_l_top_frozen():
    """The pinned periodic-net gap: eventual lim-inf at l without Lawson
    convergence there."""
    net = _diamond_alternating("l", "top")
    gi = cv.eventual_family(DIAMOND, net, EVENTUAL)
    assert {DIAMOND.ids_of(f) for f in gi} == {("bot",), ("l",), ("l", "r")}
    winners = [x for x in DIAMOND.elements if cv.is_eventual_liminf(DIAMOND, net, x, EVENTUAL).holds]
    assert winners == ["l"]
    law = tp.lawson_topology(DIAMOND)
    assert not cv.converges_topological(DIAMOND, net, "l", EVENTUAL, law).holds
    assert cv.converges_topological(DIAMOND, net, "l", EVENTUAL, tp.scott_topology(DIAMOND)).holds


def test_diamond_alternating_l_r_frozen():
    net = _diamond_alternating("l", "r")
    gi = cv.eventual_family(DIAMOND, net, EVENTUAL)
    assert {DIAMOND.ids_of(f) for f in gi} == {("bot",), ("l", "r")}
    assert not any(
        cv.is_eventual_liminf(DIAMOND, net, x, EVENTUAL).holds for x in DIAMOND.elements
    )


def test_finite_exhaustive_agrees_with_principal():
    idl = cv.ideal("eventual", CHAIN2)
    for values in product(DIAMOND.elements, repeat=2):
        net = cv.finite_net(CHAIN2, values)
        for x in DIAMOND.elements:
            fast = cv.converges_liminf(DIAMOND, net, x, idl).holds
            slow = cv.converges_liminf(DIAMOND, net, x, idl, exhaustive=True).holds
            assert fast == slow
            fast_f = cv.converges_family_liminf(DIAMOND, net, x, idl).holds
            slow_f = cv.converges_family_liminf(DIAMOND, net, x, idl, exhaustive=True).holds
            assert fast_f == slow_f


def test_finite_eventual_liminf_is_tail_value():
    idl = cv.ideal("eventual", CHAIN2)
    for values in product(DIAMOND.elements, repeat=2):
        net = cv.finite_net(CHAIN2, values)
        tail = values[1]  # c1 is the greatest index point
        for x in DIAMOND.elements:
            assert cv.is_eventual_liminf(DIAMOND, net, x, idl).holds == (x == tail)


def test_trivial_ideal_converges_everywhere():
    idl = cv.ideal("trivial", CHAIN2)
    net = cv.finite_net(CHAIN2, ["top", "bot"])
    for x in DIAMOND.elements:
        assert cv.converges_family_liminf(DIAMOND, net, x, idl).holds


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


ORACLE_IDEAL_KINDS = [
    ("eventual",),
    ("trivial",),
    ("finite",),
    ("eventual", "density0", "trivial"),
    (),
]

ORACLE_NET_CLASSES = [
    cv.NetClass(),
    cv.NetClass(omega_tracks=False),
    cv.NetClass(max_index_size=1, max_track_period=2),
    cv.NetClass(max_track_period=0),
]


def test_derived_naive_matches_reduced():
    """The trap-set derivation equals the net-by-net definition on every
    poset of size at most 3, in every mode, ideal mix and net class."""
    posets = [p for n in (1, 2, 3) for p in generate_all_posets(n)]
    for p, mode, kinds, netclass in product(
        posets, ("liminf", "family", "eventual"), ORACLE_IDEAL_KINDS, ORACLE_NET_CLASSES
    ):
        naive = cv.derive_convergence_topology(
            p, mode, ideal_kinds=kinds, netclass=netclass, method="naive"
        )
        reduced = cv.derive_convergence_topology(p, mode, ideal_kinds=kinds, netclass=netclass)
        assert naive.opens == reduced.opens, (p.name, mode, kinds, netclass)


def test_reduced_derivation_rejects_bad_input():
    with pytest.raises(UnknownElement):
        cv.derive_convergence_topology(DIAMOND, "family", ideal_kinds=("eventual", "cofinite"))
    with pytest.raises(NetClassTooSmall):
        cv.derive_convergence_topology(DIAMOND, "family", netclass=cv.NetClass(max_index_size=0))


def test_netclass_generation():
    nets = list(cv.generate_nets(DIAMOND, cv.NetClass(max_index_size=1, omega_tracks=False)))
    assert len(nets) == 4  # one singleton index, one net per element
    with_tracks = list(
        cv.generate_nets(DIAMOND, cv.NetClass(max_index_size=1, max_track_period=1))
    )
    assert len(with_tracks) == 8


def test_eventual_netclass_excludes_tracks():
    assert not cv.default_net_class("eventual").omega_tracks
    assert cv.default_net_class("family").omega_tracks
