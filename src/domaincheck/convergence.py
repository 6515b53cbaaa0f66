"""Ideal convergence of nets: pointwise, along families, and topological.

A net is a map from a directed index into a poset; an ideal on the index
collects the sets of positions considered negligible.  A net converges in
lim-inf style when some directed set of approximants traps it up to
negligible exceptions; along families when a Smyth-directed family of
finite sets does the trapping; topologically when every neighborhood of
the limit catches it up to negligible exceptions.  The eventually-below
family of a net collects every finite set whose upper closure traps the
net, and the eventual lim-inf notion asks the limit to sit inside all of
them.

Index sets come in two flavors: finite directed posets, where level sets
are masks, and the naturals, where level sets live in :class:`OmegaSet`,
an exact algebra of residue classes with finitely many corrections.
Periodic track nets keep every level set representable, so the infinite
quantifiers in the definitions reduce to finite windows plus a
stabilization argument: past the largest natural mentioned by the net,
growing a region's cut point changes level sets by finite sets only, and
every ideal here is invariant under finite modifications.

On a finite poset a (net, ideal) pair enters the predicates only as its
trap mask (:func:`trap_mask`), the one int that decides in which regions
the net is trapped.  The predicates take the poset, that mask, the limit
as the index of a point and, for topological convergence, a
:class:`Topology` object; element ids and topology names are resolved by
the command line.  The definitional oracles and :func:`_derive_naive`
read nets through :func:`exception_set` and :func:`ideal_member`
instead.  :mod:`~domaincheck.sidenat` has the predicates of the
side-point dcpo; its lim-inf ones take a pair's eventually-below family
(``sidenat.eventual_family``), its topological one the net and ideal.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import product
from math import lcm
from typing import NamedTuple

from . import topology as tp
from .errors import (
    BackendUnsupported,
    IndexMismatch,
    NetClassTooSmall,
    NotDirected,
    PreconditionFailed,
    UnknownElement,
)
from .oplog import logged
from .order import FinitePoset, bits, json_field, poset_from_doc
from .topology import Topology

IDEAL_KINDS = ("eventual", "finite", "density0", "trivial")
CONST = "const"
ASCEND = "ascend"


@dataclass(frozen=True)
class OmegaIndex:
    """The naturals as a directed index set."""

    name: str = "omega"


OMEGA = OmegaIndex()


# -- subsets of the naturals ------------------------------------------------


@dataclass(frozen=True)
class OmegaSet:
    """An eventually periodic subset of the naturals, in canonical form.

    Membership of ``j`` follows ``residues`` modulo ``modulus`` except at
    the finitely many corrections: ``plus`` forces members outside the
    periodic part and ``minus`` removes members inside it.  The factory
    reduces the modulus to the minimal period, so equal sets have equal
    representations.
    """

    modulus: int
    residues: frozenset[int]
    plus: frozenset[int]
    minus: frozenset[int]

    def member(self, j: int) -> bool:
        if j in self.plus:
            return True
        if j in self.minus:
            return False
        return j % self.modulus in self.residues

    @property
    def is_finite(self) -> bool:
        return not self.residues

    def members_upto(self, k: int) -> tuple[int, ...]:
        return tuple(j for j in range(k) if self.member(j))


def omega_set(
    modulus: int = 1,
    residues: Iterable[int] = (),
    plus: Iterable[int] = (),
    minus: Iterable[int] = (),
) -> OmegaSet:
    if modulus < 1:
        raise ValueError("modulus must be positive")
    res = {r % modulus for r in residues}
    for d in range(1, modulus + 1):
        if modulus % d:
            continue
        base = {r % d for r in res}
        if res == {x for x in range(modulus) if x % d in base}:
            modulus, res = d, base
            break
    pl, mi = {int(j) for j in plus}, {int(j) for j in minus}
    if pl & mi:
        raise ValueError("a position cannot be both forced in and forced out")
    if any(j < 0 for j in pl | mi):
        raise ValueError("positions must be nonnegative")
    pl = {j for j in pl if j % modulus not in res}
    mi = {j for j in mi if j % modulus in res}
    return OmegaSet(modulus, frozenset(res), frozenset(pl), frozenset(mi))


OMEGA_EMPTY = omega_set()


def finite_omega(js: Iterable[int]) -> OmegaSet:
    return omega_set(plus=js)


def _omega_pointwise(a: OmegaSet, b: OmegaSet, op) -> OmegaSet:
    m = lcm(a.modulus, b.modulus)
    res = [r for r in range(m) if op(r % a.modulus in a.residues, r % b.modulus in b.residues)]
    cut = max([*a.plus, *a.minus, *b.plus, *b.minus, -1]) + 1
    pl, mi = [], []
    for j in range(cut):
        actual = op(a.member(j), b.member(j))
        if actual != (j % m in res):
            (pl if actual else mi).append(j)
    return omega_set(m, res, pl, mi)


def omega_union(a: OmegaSet, b: OmegaSet) -> OmegaSet:
    return _omega_pointwise(a, b, lambda p, q: p or q)


def omega_inter(a: OmegaSet, b: OmegaSet) -> OmegaSet:
    return _omega_pointwise(a, b, lambda p, q: p and q)


def omega_complement(a: OmegaSet) -> OmegaSet:
    return omega_set(a.modulus, set(range(a.modulus)) - set(a.residues), a.minus, a.plus)


# -- nets -------------------------------------------------------------------


@dataclass(frozen=True)
class TrackNet:
    """A periodic net on the naturals.

    Position ``j`` belongs to track ``j % period``.  A ``("const", v)``
    track holds ``v`` forever; an ``("ascend",)`` track walks up the
    naturals of the side-point dcpo, taking value ``k`` at its ``k``-th
    occurrence.
    """

    period: int
    tracks: tuple[tuple, ...]

    def value_at(self, j: int):
        kind = self.tracks[j % self.period]
        if kind[0] == CONST:
            return kind[1]
        return j // self.period

    def values_upto(self, k: int) -> tuple:
        return tuple(self.value_at(j) for j in range(k))


def const_track(value) -> tuple:
    return (CONST, value)


def ascend_track() -> tuple:
    return (ASCEND,)


def track_net(*tracks: tuple) -> TrackNet:
    if not tracks:
        raise PreconditionFailed("a track net needs at least one track")
    for t in tracks:
        if t[0] not in (CONST, ASCEND) or (t[0] == CONST) != (len(t) == 2):
            raise PreconditionFailed(f"malformed track {t!r}")
    return TrackNet(len(tracks), tuple(tracks))


@dataclass(frozen=True)
class FiniteNet:
    """A net over a finite directed index poset."""

    index: FinitePoset
    values: tuple


def finite_net(index: FinitePoset, values: Iterable) -> FiniteNet:
    vals = tuple(values)
    if len(vals) != index.n:
        raise IndexMismatch(f"expected {index.n} values for index {index.name!r}")
    if not index.is_directed_mask(index.universe):
        raise NotDirected(f"index poset {index.name!r} is not directed")
    return FiniteNet(index, vals)


Net = TrackNet | FiniteNet


def net_index(net: Net) -> OmegaIndex | FinitePoset:
    return OMEGA if isinstance(net, TrackNet) else net.index


def stabilization_bound(net: Net) -> int:
    """Past this bound, raising a region's natural cut point no longer
    changes the ideal status of the net's level sets."""
    if isinstance(net, TrackNet):
        nats = [t[1] for t in net.tracks if t[0] == CONST and isinstance(t[1], int)]
    else:
        nats = [v for v in net.values if isinstance(v, int)]
    return max(nats, default=0) + 1


# -- ideals -----------------------------------------------------------------


@dataclass(frozen=True)
class Ideal:
    kind: str
    index: OmegaIndex | FinitePoset


def ideal(kind: str, index: OmegaIndex | FinitePoset = OMEGA) -> Ideal:
    if kind not in IDEAL_KINDS:
        raise UnknownElement(f"unknown ideal kind {kind!r}")
    if isinstance(index, FinitePoset):
        if kind in ("finite", "density0"):
            raise BackendUnsupported(f"the {kind} ideal is only defined on the naturals")
        if not index.is_directed_mask(index.universe):
            raise NotDirected(f"ideal index {index.name!r} is not directed")
    return Ideal(kind, index)


@logged("convergence.ideal_member")
def ideal_member(idl: Ideal, level: OmegaSet | int) -> bool:
    """Membership of a level set in the ideal.

    On the naturals the eventual ideal (sets missed by some upper tail)
    contains exactly the finite sets.  The density-zero ideal is decided
    by the periodic part, and an eventually periodic set has density zero
    iff it is finite, so on representable sets all three proper ideals
    agree; they differ only on sets this algebra cannot express.
    """
    if isinstance(idl.index, OmegaIndex):
        if not isinstance(level, OmegaSet):
            raise IndexMismatch("level sets over the naturals must be OmegaSets")
        return idl.kind == "trivial" or level.is_finite
    if not isinstance(level, int):
        raise IndexMismatch("level sets over a finite index must be masks")
    if idl.kind == "trivial":
        return True
    p = idl.index
    return any(level & p.up[j] == 0 for j in range(p.n))


# -- exception sets ----------------------------------------------------------


def _exceptions(net: Net, inside) -> OmegaSet | int:
    """The positions of a finite-index net whose value ``inside`` rejects,
    or the residues of a track net's constant tracks whose value it
    rejects.  Ascending tracks are left to the caller."""
    if isinstance(net, FiniteNet):
        return sum(1 << j for j, v in enumerate(net.values) if not inside(v))
    consts = [t for t, track in enumerate(net.tracks) if track[0] == CONST and not inside(track[1])]
    return omega_set(net.period, consts)


@logged("convergence.exception_set")
def exception_set(p: FinitePoset, net: Net, region: int) -> OmegaSet | int:
    """Positions where the net's value lies outside ``region``.  A value
    that is not an element of ``p`` raises :class:`UnknownElement`, and an
    ascending track :class:`BackendUnsupported`."""
    exc = _exceptions(net, lambda v: bool(region >> p.index(v) & 1))
    if isinstance(net, TrackNet) and any(track[0] != CONST for track in net.tracks):
        raise BackendUnsupported("ascending tracks only exist on the side-point dcpo")
    return exc


def _eventually_inside(p: FinitePoset, net: Net, region: int, idl: Ideal) -> bool:
    return ideal_member(idl, exception_set(p, net, region))


def _check_compat(net: Net, idl: Ideal) -> None:
    index = OMEGA if isinstance(net, TrackNet) else net.index
    if index is not idl.index and index != idl.index:
        raise IndexMismatch("net and ideal must share an index set")


def trap_mask(p: FinitePoset, net: Net, idl: Ideal) -> int:
    """The one int through which the finite predicates read a (net,
    ideal) pair: the net is trapped in ``region`` up to ``idl`` iff
    ``mask & ~region == 0``.

    Under the trivial ideal every exception set is negligible, so the
    mask is ``0``.  A finite-index net under the eventual ideal is
    trapped iff it stays inside on some upper set ``index.up[j]``.  A
    finite directed index has a top ``t``, whose upper set ``{t}`` lies
    inside every other, so the net is trapped iff its value at ``t`` is
    inside: the mask is that value alone.  A constant-track net under a
    proper ideal is trapped iff its exception set, a union of residue
    classes, is finite, that is, empty: the mask is the union of its
    track values.  ``test_trap_masks_match_exception_sets`` checks the
    mask against ``ideal_member(idl, exception_set(...))`` on every
    directed index of at most 4 points.

    A net and an ideal on different indexes raise :class:`IndexMismatch`.
    Values are validated as :func:`exception_set` validates them, so a
    foreign value raises :class:`UnknownElement` and an ascending track
    :class:`BackendUnsupported`, whatever the ideal.
    """
    _check_compat(net, idl)
    if isinstance(net, FiniteNet):
        points = [p.index(v) for v in net.values]
        if idl.kind == "trivial":
            return 0
        return 1 << points[net.index.directed_sup_mask(net.index.universe)]
    union = 0
    for track in net.tracks:
        if track[0] == CONST:
            union |= 1 << p.index(track[1])
    if any(track[0] != CONST for track in net.tracks):
        raise BackendUnsupported("ascending tracks only exist on the side-point dcpo")
    return 0 if idl.kind == "trivial" else union


# -- verdicts ---------------------------------------------------------------


class Verdict(NamedTuple):
    """A predicate's answer and the witness that supports it.

    A named tuple, because a run builds one per predicate call (14,835
    finite ones for ``verify --suite all --max-size 4 --seed 0``) and a
    tuple is the cheapest immutable record to build.  :meth:`to_dict` is
    the CLI's JSON form; ``test_verdict_to_dict_is_holds_and_witness``
    pins it.
    """

    holds: bool
    witness: dict

    def to_dict(self) -> dict:
        return {"holds": self.holds, "witness": self.witness}


# -- lim-inf convergence ----------------------------------------------------


@logged("convergence.liminf")
def converges_liminf(p: FinitePoset, trap: int, ix: int) -> Verdict:
    """Lim-inf convergence to the point of index ``ix`` of a net with trap
    mask ``trap`` (:func:`trap_mask`): some directed set below the limit
    traps the net.

    This tests the principal witness, the singleton of the limit itself,
    which subsumes every other directed set: the trap condition for a
    directed set with supremum above ``ix`` is at least as strong at the
    supremum, whose upper set sits inside the limit's.  Oracle:
    ``test_finite_exhaustive_agrees_with_principal`` compares it with
    :func:`_converges_liminf_definitional` on every poset of size at
    most 3.
    """
    if trap & ~p.up[ix] == 0:
        return Verdict(True, {"directed_set": [p.elements[ix]], "shape": "principal"})
    return Verdict(False, {"point": p.elements[ix]})


def _converges_liminf_definitional(p: FinitePoset, net: Net, ix: int, idl: Ideal) -> Verdict:
    """Lim-inf convergence on a finite poset, by the definition: some
    directed subset with supremum above index ``ix`` traps the net at each
    of its points."""
    for d, sup in p.directed_sups:
        if not p.leq_ix(ix, sup):
            continue
        if all(_eventually_inside(p, net, p.up[j], idl) for j in bits(d)):
            return Verdict(True, {"directed_set": list(p.ids_of(d))})
    return Verdict(False, {"point": p.elements[ix]})


@logged("convergence.family_liminf")
def converges_family_liminf(p: FinitePoset, trap: int, ix: int) -> Verdict:
    """Lim-inf convergence to the point of index ``ix``, along a
    Smyth-directed family of finite sets, of a net with trap mask
    ``trap``.

    The family's upper sets must intersect inside the limit's upper set,
    and each member must trap the net up to the ideal.  The principal
    family over the limit again dominates.  Oracle:
    ``test_finite_exhaustive_agrees_with_principal`` compares it with
    :func:`_converges_family_definitional` on every poset of size at
    most 3.
    """
    if trap & ~p.up[ix] == 0:
        return Verdict(True, {"family": [[p.elements[ix]]], "shape": "principal"})
    return Verdict(False, {"point": p.elements[ix]})


def _converges_family_definitional(p: FinitePoset, net: Net, ix: int, idl: Ideal) -> Verdict:
    """Family lim-inf convergence on a finite poset, by the definition:
    some Smyth-directed family of at most ``topology.FAMILY_BOUND``
    antichains, whose upper sets meet inside ``up(ix)``, traps the net at
    each member."""
    for fam, ups in tp._directed_antichain_families(p, tp.FAMILY_BOUND):
        meet = p.universe
        for u in ups:
            meet &= u
        if meet & ~p.up[ix]:
            continue
        if all(_eventually_inside(p, net, u, idl) for u in ups):
            return Verdict(True, {"family": [list(p.ids_of(f)) for f in fam]})
    return Verdict(False, {"point": p.elements[ix]})


@logged("convergence.topological")
def converges_topological(p: FinitePoset, trap: int, ix: int, topo: Topology) -> Verdict:
    """Ideal convergence in the topology ``topo``, of a net with trap mask
    ``trap``: every neighborhood of the point of index ``ix`` traps the
    net up to the ideal.

    A finite topology is closed under intersections, so every open around
    ``ix`` contains the minimal neighbourhood ``m(ix)``
    (:attr:`Topology.neighborhoods`), and trapping is monotone in the
    region: the net converges iff it is trapped in ``m(ix)``.  The
    witness is the same as that of a scan of the opens in increasing mask
    order: every open around ``ix`` is a superset of ``m(ix)``, hence no
    smaller as a mask, so ``m(ix)`` comes first and fails whenever any of
    them fails.  ``test_topological_matches_open_scan`` compares the two.
    A family of opens whose ``m(ix)`` is not open raises
    :class:`PreconditionFailed`.
    """
    m = topo.neighborhoods[ix]
    if trap & ~m == 0:
        return Verdict(True, {"kind": topo.kind})
    return Verdict(False, {"open": list(p.ids_of(m))})


# -- the eventually-below family and eventual lim-inf ------------------------


@logged("convergence.eventual_family")
def eventual_family(p: FinitePoset, trap: int) -> tuple[int, ...]:
    """Every finite set whose upper closure traps a net with trap mask
    ``trap``, as antichain masks, each tested through its cached upper set
    (:attr:`FinitePoset.antichain_ups`); ``test_eventual_witness_matches_antichain_loop``
    checks it.  A poset of more than :data:`topology.MAX_TOPOLOGY_ELEMENTS`
    elements is refused before its antichains are enumerated.
    """
    tp._guard_size(p, "antichain enumeration")
    return tuple(f for f, u in zip(p.antichain_masks, p.antichain_ups) if trap & ~u == 0)


@logged("convergence.eventual_liminf")
def is_eventual_liminf(p: FinitePoset, trap: int, ix: int) -> Verdict:
    """Eventual lim-inf to the point of index ``ix`` of a net with trap
    mask ``trap``: the limit of some family trap, lying in the upper
    closure of every member of the eventually-below family.

    Both conditions are taken literally.  The first is family lim-inf
    convergence to ``ix``; the second reads :func:`eventual_family` member
    by member, in antichain order, with ``ix in up(f)`` tested as
    ``f & down[ix] != 0``.  Oracles: the ``eventual-liminf-lawson`` suite
    (Lawson convergence) and ``test_eventual_witness_matches_antichain_loop``.
    """
    first = converges_family_liminf(p, trap, ix)
    if not first.holds:
        return Verdict(False, {"failed": "family_liminf", **first.witness})
    family = eventual_family(p, trap)
    for f in family:
        if not f & p.down[ix]:
            return Verdict(False, {"failed": "membership", "member": list(p.ids_of(f))})
    return Verdict(True, {"family_size": len(family)})


# -- net classes and induced topologies --------------------------------------


# The longest period of the constant-track nets a net class holds by
# default, and so the largest value set a derivation traps on.
TRACK_PERIOD = 3


@dataclass(frozen=True)
class NetClass:
    """The nets a derivation quantifies over (no track net at period 0).

    Always contains every constant net (one-point indexes come first);
    shrinking the class can only enlarge the derived topology, and the
    constant nets alone already force derived opens to be upper sets.
    """

    max_index_size: int = 4
    max_track_period: int = TRACK_PERIOD

    def traps(self, p: FinitePoset) -> list[int]:
        """The trap masks (:func:`trap_mask`) of the class's nets
        on ``p`` under the eventual ideal, in increasing order: a
        finite-index net gives the singleton of its value at the index's
        top, and a constant-track net its value set, so the masks are the
        nonempty ones of at most ``max(1, max_track_period)`` points
        (``test_net_class_traps_match_built_masks``)."""
        width = max(1, self.max_track_period)
        return [m for m in range(1, p.universe + 1) if bin(m).count("1") <= width]


def generate_nets(p: FinitePoset, netclass: NetClass) -> Iterator[Net]:
    from .corpus import directed_index_posets

    if netclass.max_index_size < 1:
        raise NetClassTooSmall("net classes must include one-point indexes (constant nets)")
    for idx in directed_index_posets(netclass.max_index_size):
        for values in product(p.elements, repeat=idx.n):
            yield FiniteNet(idx, values)
    for period in range(1, netclass.max_track_period + 1):
        for combo in product(p.elements, repeat=period):
            yield track_net(*(const_track(v) for v in combo))


_MODE_PREDICATES = {
    "liminf": converges_liminf,
    "family": converges_family_liminf,
    "eventual": is_eventual_liminf,
}


def _limits_of_trap(p: FinitePoset, trap: int, antichain_ups: tuple[int, ...]) -> int:
    """The mode-limits of a net whose trap regions are the supersets of
    ``trap``: the principal witness ``up(x)`` must contain the trap, and
    ``x`` must lie in every given antichain upper set that contains it
    (the eventual mode passes them all, the other modes none)."""
    limits = 0
    for ix in range(p.n):
        if trap & ~p.up[ix] == 0:
            limits |= 1 << ix
    for u in antichain_ups:
        if trap & ~u == 0:
            limits &= u
    return limits


@logged("convergence.derive_topology")
def derive_convergence_topology(p: FinitePoset, mode: str) -> Topology:
    """The finest topology in which every mode-convergent net converges.

    A set is open iff for every net in the class, under the eventual
    ideal, and every mode-limit of the net inside the set, the net is
    trapped in the set up to the ideal.  The class holds every net over a
    finite directed index and, unless ``mode`` is ``"eventual"``, every
    constant-track net on the naturals of period at most
    :data:`TRACK_PERIOD`.  The eventual mode leaves the periodic
    nets out: its conclusion is sensitive to them, and the verification
    suites record those as explicit findings (``eventual-liminf-lawson``)
    instead of burying them in a derived topology.
    :func:`_derive_naive` replays the convergence predicates and
    exception sets definitionally over every net of the class.

    This function enumerates the class's trap masks
    (:meth:`NetClass.traps`) instead of its nets.  The condition "for
    every trap ``t`` with limits ``L``, either ``L`` misses ``U`` or ``t``
    lies inside ``U``" holds exactly when ``mins[x]`` lies inside ``U``
    for every ``x`` in ``U``, where ``mins[x]`` is the OR of the traps
    whose limits contain ``x``; so the opens come from those
    neighbourhood masks.
    ``test_derived_naive_matches_reduced`` compares this function with
    :func:`_derive_naive` in every mode on every poset of size at most 4.
    """
    if mode not in _MODE_PREDICATES:
        raise UnknownElement(f"unknown convergence mode {mode!r}")
    antichain_ups = p.antichain_ups if mode == "eventual" else ()
    mins = [0] * p.n
    for t in _derivation_class(mode).traps(p):
        for x in bits(_limits_of_trap(p, t, antichain_ups)):
            mins[x] |= t
    return tp._from_neighborhoods(p, mins, f"net_{mode}")


def _derivation_class(mode: str) -> NetClass:
    return NetClass(max_track_period=0 if mode == "eventual" else TRACK_PERIOD)


def _derive_naive(p: FinitePoset, mode: str) -> Topology:
    predicate = _MODE_PREDICATES[mode]
    constraints = []
    for net in generate_nets(p, _derivation_class(mode)):
        idl = ideal("eventual", net_index(net))
        trap = trap_mask(p, net, idl)
        limits = 0
        for ix in range(p.n):
            if predicate(p, trap, ix).holds:
                limits |= 1 << ix
        if limits:
            constraints.append((limits, net, idl))
    opens = [
        mask
        for mask in range(p.universe + 1)
        if all(
            not limits & mask or _eventually_inside(p, net, mask, idl)
            for limits, net, idl in constraints
        )
    ]
    return Topology(p, f"net_{mode}", frozenset(opens))


# -- serialization ------------------------------------------------------------


def net_to_json(net: Net) -> str:
    if isinstance(net, TrackNet):
        tracks = [
            {"kind": CONST, "value": t[1]} if t[0] == CONST else {"kind": ASCEND}
            for t in net.tracks
        ]
        return json.dumps({"index": "omega", "period": net.period, "tracks": tracks}, indent=2)
    from .order import poset_to_json

    return json.dumps(
        {
            "index": json.loads(poset_to_json(net.index)),
            "map": {e: v for e, v in zip(net.index.elements, net.values)},
        },
        indent=2,
    )


def _net_value(v):
    if isinstance(v, bool) or not isinstance(v, (str, int)):
        raise PreconditionFailed(f"net values must be element ids or naturals, got {v!r}")
    return v


def net_from_json(text: str) -> Net:
    data = json.loads(text)
    if not isinstance(data, dict):
        raise PreconditionFailed("a net JSON document must be an object")
    if data.get("index") == "omega":
        docs = json_field(data, "tracks", "the net JSON document")
        if not isinstance(docs, list) or not all(isinstance(t, dict) for t in docs):
            raise PreconditionFailed("'tracks' must be a list of objects")
        if "period" in data and data["period"] != len(docs):
            raise IndexMismatch(f"declared period {data['period']} but {len(docs)} tracks")
        tracks = []
        for t in docs:
            what = f"track {t!r} of the net JSON document"
            kind = json_field(t, "kind", what)
            if kind == CONST:
                tracks.append(const_track(_net_value(json_field(t, "value", what))))
            elif kind == ASCEND:
                tracks.append(ascend_track())
            else:
                raise UnknownElement(f"unknown track kind {kind!r}")
        return track_net(*tracks)
    what = "the net JSON document"
    index = poset_from_doc(json_field(data, "index", what), f"the 'index' of {what}")
    mapping = json_field(data, "map", what)
    if not isinstance(mapping, dict):
        raise PreconditionFailed("'map' must be an object from index points to values")
    missing = [e for e in index.elements if e not in mapping]
    if missing:
        raise IndexMismatch(f"net map is missing index points {missing}")
    return finite_net(index, [_net_value(mapping[e]) for e in index.elements])
