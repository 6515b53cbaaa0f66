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
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm

from . import sidenat as sn
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
from .order import FinitePoset, bits
from .sidenat import A, TOP, SideElement, SideNat, SideSet, sideset
from .topology import Topology

Backend = FinitePoset | SideNat

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

    def density(self) -> Fraction:
        return Fraction(len(self.residues), self.modulus)

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
OMEGA_FULL = omega_set(residues=[0])


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


def omega_diff(a: OmegaSet, b: OmegaSet) -> OmegaSet:
    return _omega_pointwise(a, b, lambda p, q: p and not q)


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

    def value_at_ix(self, j: int):
        return self.values[j]


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
        if idl.kind == "trivial":
            return True
        if idl.kind == "density0":
            return level.density() == 0 and level.is_finite
        return level.is_finite
    if not isinstance(level, int):
        raise IndexMismatch("level sets over a finite index must be masks")
    if idl.kind == "trivial":
        return True
    p = idl.index
    return any(level & p.up[j] == 0 for j in range(p.n))


# -- level and exception sets ------------------------------------------------


def _finite_region_test(p: FinitePoset, region: int):
    def inside(v) -> bool:
        return bool(region >> p.index(v) & 1)

    return inside


def _side_region_test(region: SideSet):
    def inside(v) -> bool:
        return v in region

    return inside


@logged("convergence.exception_set")
def exception_set(p: Backend, net: Net, region) -> OmegaSet | int:
    """Positions where the net's value lies outside ``region``."""
    if isinstance(p, SideNat):
        if not isinstance(region, SideSet):
            raise IndexMismatch("regions of the side-point dcpo must be SideSets")
        inside = _side_region_test(region)
    else:
        inside = _finite_region_test(p, region)
    if isinstance(net, FiniteNet):
        out = 0
        for j in range(net.index.n):
            if not inside(net.values[j]):
                out |= 1 << j
        return out
    const_residues = [
        t for t, track in enumerate(net.tracks) if track[0] == CONST and not inside(track[1])
    ]
    acc = omega_set(net.period, const_residues)
    for t, track in enumerate(net.tracks):
        if track[0] == CONST:
            continue
        if not isinstance(p, SideNat):
            raise BackendUnsupported("ascending tracks only exist on the side-point dcpo")
        if region.tail is None:
            part = omega_set(
                net.period,
                [t],
                minus=(t + k * net.period for k in region.nats),
            )
        else:
            part = finite_omega(
                t + k * net.period for k in range(region.tail) if k not in region.nats
            )
        acc = omega_union(acc, part)
    return acc


@logged("convergence.level_set")
def level_set(p: Backend, net: Net, region) -> OmegaSet | int:
    """Positions where the net's value lies inside ``region``."""
    exc = exception_set(p, net, region)
    if isinstance(exc, int):
        return net.index.universe & ~exc  # type: ignore[union-attr]
    return omega_complement(exc)


def _eventually_inside(p: Backend, net: Net, region, idl: Ideal) -> bool:
    return ideal_member(idl, exception_set(p, net, region))


# -- verdicts ---------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    holds: bool
    witness: dict
    note: str = ""

    def to_dict(self) -> dict:
        out = {"holds": self.holds, "witness": self.witness}
        if self.note:
            out["note"] = self.note
        return out


def _check_compat(net: Net, idl: Ideal) -> None:
    if net_index(net) != idl.index:
        raise IndexMismatch("net and ideal must share an index set")


# -- lim-inf convergence ----------------------------------------------------


def _side_chain_cond(p: SideNat, net: Net, idl: Ideal) -> bool:
    s = stabilization_bound(net)
    return all(_eventually_inside(p, net, sn.up_set(n), idl) for n in range(s + 1))


@logged("convergence.liminf")
def converges_liminf(p: Backend, net: Net, x, idl: Ideal, *, exhaustive: bool = False) -> Verdict:
    """Lim-inf convergence: some directed set below the limit traps the net.

    The finite backend's default path tests the principal witness, the
    singleton of the limit itself, which subsumes every other directed
    set: the trap condition for a directed set with supremum above ``x``
    is at least as strong at the supremum, whose upper set sits inside
    the limit's.  ``exhaustive=True`` quantifies over every directed
    subset instead; the suites assert the two always agree.

    On the side-point dcpo the only shapes that are not dominated by the
    principal witness are unbounded sets of naturals, handled by the
    stabilized chain check.
    """
    _check_compat(net, idl)
    if isinstance(p, SideNat):
        if _eventually_inside(p, net, sn.up_set(x), idl):
            return Verdict(True, {"directed_set": [str(x)], "shape": "principal"})
        if _side_chain_cond(p, net, idl):
            return Verdict(True, {"shape": "natural_chain", "checked_upto": stabilization_bound(net)})
        return Verdict(False, {"point": str(x)})
    ix = p.index(x) if isinstance(x, str) else x
    if not exhaustive:
        if _eventually_inside(p, net, p.up[ix], idl):
            return Verdict(True, {"directed_set": [p.elements[ix]], "shape": "principal"})
        return Verdict(False, {"point": p.elements[ix]})
    for d in p.iter_directed_masks():
        if not p.leq_ix(ix, p.directed_sup_mask(d)):
            continue
        if all(_eventually_inside(p, net, p.up[j], idl) for j in bits(d)):
            return Verdict(True, {"directed_set": list(p.ids_of(d))})
    return Verdict(False, {"point": p.elements[ix]})


@logged("convergence.family_liminf")
def converges_family_liminf(p: Backend, net: Net, x, idl: Ideal, *, exhaustive: bool = False) -> Verdict:
    """Lim-inf convergence along a Smyth-directed family of finite sets.

    The family's upper sets must intersect inside the limit's upper set,
    and each member must trap the net up to the ideal.  The principal
    family over the limit again dominates on finite backends.  The side
    backend has two extra undominated shapes, the all-singletons schema
    (whose upper sets intersect in the top alone, hence work for any
    limit) and, for the side point, the pair schema.
    """
    _check_compat(net, idl)
    if isinstance(p, SideNat):
        if _eventually_inside(p, net, sn.up_set(x), idl):
            return Verdict(True, {"family": [[str(x)]], "shape": "principal"})
        if _side_chain_cond(p, net, idl):
            return Verdict(True, {"shape": "singleton_schema", "checked_upto": stabilization_bound(net)})
        if x == A:
            s = stabilization_bound(net)
            if all(
                _eventually_inside(p, net, sn.up_closure(sn.side_set_of((n, A))), idl)
                for n in range(s + 1)
            ):
                return Verdict(True, {"shape": "pair_schema", "checked_upto": s})
        return Verdict(False, {"point": str(x)})
    ix = p.index(x) if isinstance(x, str) else x
    if not exhaustive:
        if _eventually_inside(p, net, p.up[ix], idl):
            return Verdict(True, {"family": [[p.elements[ix]]], "shape": "principal"})
        return Verdict(False, {"point": p.elements[ix]})
    for fam, ups in tp._directed_antichain_families(p, 4):
        meet = p.universe
        for u in ups:
            meet &= u
        if meet & ~p.up[ix]:
            continue
        if all(_eventually_inside(p, net, u, idl) for u in ups):
            return Verdict(True, {"family": [list(p.ids_of(f)) for f in fam]})
    return Verdict(False, {"point": p.elements[ix]})


@logged("convergence.topological")
def converges_topological(p: Backend, net: Net, x, idl: Ideal, topo: Topology | str) -> Verdict:
    """Ideal convergence in a topology: every neighborhood of ``x`` traps
    the net up to the ideal.

    Finite backends take an explicit :class:`Topology`; the side-point
    backend takes a kind name and checks the binding neighborhood family,
    which decides all neighborhoods once level sets are stable."""
    _check_compat(net, idl)
    if isinstance(p, SideNat):
        if not isinstance(topo, str):
            raise BackendUnsupported("side-point topologies are selected by kind name")
        stab = stabilization_bound(net)
        for region in tp.side_binding_opens(topo, x, stab):
            if not _eventually_inside(p, net, region, idl):
                return Verdict(False, {"open": sorted(map(str, region.members_upto(stab + 2)))})
        return Verdict(True, {"kind": topo, "checked_opens": len(tp.side_binding_opens(topo, x, stab))})
    if isinstance(topo, str):
        topo = tp.finite_topology(p, topo)
    bit = 1 << (p.index(x) if isinstance(x, str) else x)
    for u in sorted(topo.opens):
        if u & bit and not _eventually_inside(p, net, u, idl):
            return Verdict(False, {"open": list(p.ids_of(u))})
    return Verdict(True, {"kind": topo.kind})


# -- the eventually-below family and eventual lim-inf ------------------------


@dataclass(frozen=True)
class SideGiFamily:
    """Closed form of the eventually-below family on the side-point dcpo.

    Singleton members ``{n}`` and pair members ``{n, a}`` always form a
    downward-closed pattern in ``n`` (regions shrink as ``n`` grows), so
    each is either an initial segment ``n < bound`` or everything.
    """

    singles: tuple[str, int]
    pairs: tuple[str, int]
    has_side_single: bool
    has_top_single: bool

    def contains(self, member: Iterable[SideElement]) -> bool:
        m = sn.antichain_of(member)
        if m == (A,):
            return self.has_side_single
        if m == (TOP,):
            return self.has_top_single
        if len(m) == 1 and isinstance(m[0], int):
            mode, bound = self.singles
            return mode == "all" or m[0] < bound
        if len(m) == 2 and isinstance(m[0], int) and m[1] == A:
            mode, bound = self.pairs
            return mode == "all" or m[0] < bound
        return False

    def members_upto(self, k: int) -> tuple[tuple[SideElement, ...], ...]:
        out: list[tuple[SideElement, ...]] = []
        mode, bound = self.singles
        out.extend((n,) for n in range(k if mode == "all" else min(k, bound)))
        if self.has_side_single:
            out.append((A,))
        if self.has_top_single:
            out.append((TOP,))
        mode, bound = self.pairs
        out.extend((n, A) for n in range(k if mode == "all" else min(k, bound)))
        return tuple(out)

    def to_dict(self) -> dict:
        return {
            "singles": list(self.singles),
            "pairs": list(self.pairs),
            "side_single": self.has_side_single,
            "top_single": self.has_top_single,
        }


def _side_schema_modes(p: SideNat, net: Net, idl: Ideal, pair: bool) -> tuple[str, int]:
    s = stabilization_bound(net)
    statuses = []
    for n in range(s + 1):
        region = sn.up_closure(sn.side_set_of((n, A))) if pair else sn.up_set(n)
        statuses.append(_eventually_inside(p, net, region, idl))
    for earlier, later in zip(statuses, statuses[1:]):
        if later and not earlier:
            raise PreconditionFailed("level statuses must shrink as regions shrink")
    if all(statuses):
        return ("all", 0)
    return ("upto", statuses.index(False))


@logged("convergence.eventual_family")
def eventual_family(p: Backend, net: Net, idl: Ideal):
    """Every finite set whose upper closure traps the net up to the ideal.

    Finite backends return antichain masks.  The side-point backend
    returns the :class:`SideGiFamily` closed form, decided on the net's
    stabilization window.
    """
    _check_compat(net, idl)
    if isinstance(p, SideNat):
        return SideGiFamily(
            singles=_side_schema_modes(p, net, idl, pair=False),
            pairs=_side_schema_modes(p, net, idl, pair=True),
            has_side_single=_eventually_inside(p, net, sn.up_set(A), idl),
            has_top_single=_eventually_inside(p, net, sn.up_set(TOP), idl),
        )
    return tuple(
        f for f in p.iter_antichain_masks() if _eventually_inside(p, net, p.up_of_mask(f), idl)
    )


@logged("convergence.eventual_liminf")
def is_eventual_liminf(p: Backend, net: Net, x, idl: Ideal) -> Verdict:
    """Eventual lim-inf: the limit of some family trap, lying in the upper
    closure of every member of the eventually-below family.

    Both conditions are taken literally.  The first is family lim-inf
    convergence to ``x``; the second quantifies over the whole
    eventually-below family, closed-form on the side backend.
    """
    _check_compat(net, idl)
    first = converges_family_liminf(p, net, x, idl)
    if not first.holds:
        return Verdict(False, {"failed": "family_liminf", **first.witness})
    if isinstance(p, SideNat):
        gi = eventual_family(p, net, idl)
        requirements: list[tuple[str, bool]] = []
        mode, bound = gi.singles
        if mode == "all":
            requirements.append(("all naturals", x == TOP))
        elif bound > 0:
            requirements.append((f"naturals below {bound}", sn.side_leq(bound - 1, x)))
        if gi.has_side_single:
            requirements.append(("side singleton", sn.side_leq(A, x)))
        if gi.has_top_single:
            requirements.append(("top singleton", x == TOP))
        mode, bound = gi.pairs
        if mode == "all":
            requirements.append(("all pairs", x in sideset(has_a=True, has_top=True)))
        elif bound > 0:
            requirements.append(
                ("pairs below " + str(bound), x in sn.up_closure(sn.side_set_of((bound - 1, A))))
            )
        for label, ok in requirements:
            if not ok:
                return Verdict(False, {"failed": label, "family": gi.to_dict()})
        return Verdict(True, {"family": gi.to_dict()})
    ix = p.index(x) if isinstance(x, str) else x
    family = eventual_family(p, net, idl)
    for f in family:
        if not (p.up_of_mask(f) >> ix) & 1:
            return Verdict(False, {"failed": "membership", "member": list(p.ids_of(f))})
    return Verdict(True, {"family_size": len(family)})


# -- net classes and induced topologies --------------------------------------


@dataclass(frozen=True)
class NetClass:
    """The family of nets a derivation quantifies over.

    Always contains every constant net (one-point indexes come first);
    shrinking the class can only enlarge the derived topology, and the
    constant nets alone already force derived opens to be upper sets.
    """

    max_index_size: int = 4
    omega_tracks: bool = True
    max_track_period: int = 3


def generate_nets(p: FinitePoset, netclass: NetClass) -> Iterator[Net]:
    from .corpus import directed_index_posets

    if netclass.max_index_size < 1:
        raise NetClassTooSmall("net classes must include one-point indexes (constant nets)")
    for idx in directed_index_posets(netclass.max_index_size):
        for values in product(p.elements, repeat=idx.n):
            yield FiniteNet(idx, values)
    if netclass.omega_tracks:
        for period in range(1, netclass.max_track_period + 1):
            for combo in product(p.elements, repeat=period):
                yield track_net(*(const_track(v) for v in combo))


def _net_ideals(net: Net, ideal_kinds: tuple[str, ...]) -> Iterator[Ideal]:
    for kind in ideal_kinds:
        if isinstance(net, FiniteNet) and kind in ("finite", "density0"):
            continue
        yield ideal(kind, net_index(net))


_MODE_PREDICATES = {
    "liminf": converges_liminf,
    "family": converges_family_liminf,
    "eventual": is_eventual_liminf,
}


def default_net_class(mode: str) -> NetClass:
    """The class each mode's topology derivation quantifies over.

    The eventual mode is restricted to finite-index nets: its conclusion
    is sensitive to periodic nets on the naturals, and the verification
    suites record those as explicit findings instead of burying them in
    a derived topology.
    """
    if mode == "eventual":
        return NetClass(omega_tracks=False)
    return NetClass()


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
def derive_convergence_topology(
    p: FinitePoset,
    mode: str,
    *,
    ideal_kinds: tuple[str, ...] = ("eventual",),
    netclass: NetClass | None = None,
    method: str = "reduced",
) -> Topology:
    """The finest topology in which every mode-convergent net converges.

    A set is open iff for every net in the class, every compatible ideal,
    and every mode-limit of the net inside the set, the net is trapped in
    the set up to the ideal.  The naive method replays the convergence
    predicates and exception sets definitionally over every net.

    The reduced method enumerates trap sets instead of nets, using two
    facts.  A finite directed index has a greatest element, whose upper
    set lies inside every other upper set, so under the eventual ideal a
    finite-index net is trapped in a region iff its value at the top is:
    it behaves exactly as the constant net at that value.  A constant-
    track net on the naturals under any proper ideal is trapped iff all
    of its track values are.  The trivial ideal traps everything.  So
    the class contributes the singletons (with the eventual ideal) and
    every nonempty value set of at most ``max_track_period`` points (with
    omega tracks and a proper ideal), each a region that traps its nets
    exactly when it contains the set.  ``test_derived_naive_matches_reduced``
    checks the two methods against each other on every poset of size at
    most 3.
    """
    if mode not in _MODE_PREDICATES:
        raise UnknownElement(f"unknown convergence mode {mode!r}")
    if netclass is None:
        netclass = default_net_class(mode)
    if method == "naive":
        return _derive_naive(p, mode, ideal_kinds, netclass)
    if method != "reduced":
        raise UnknownElement(f"unknown derivation method {method!r}")
    if netclass.max_index_size < 1:
        raise NetClassTooSmall("net classes must include one-point indexes (constant nets)")
    for kind in ideal_kinds:
        ideal(kind)  # rejects unknown kinds
    traps: set[int] = set()
    if "eventual" in ideal_kinds:
        traps.update(1 << ix for ix in range(p.n))
    if netclass.omega_tracks and any(kind != "trivial" for kind in ideal_kinds):
        traps.update(
            m for m in range(1, p.universe + 1) if bin(m).count("1") <= netclass.max_track_period
        )
    antichain_ups = (
        tuple(p.up_of_mask(f) for f in p.iter_antichain_masks()) if mode == "eventual" else ()
    )
    constraints = [(t, _limits_of_trap(p, t, antichain_ups)) for t in traps]
    opens = [
        mask
        for mask in range(p.universe + 1)
        if all(not limits & mask or trap & ~mask == 0 for trap, limits in constraints)
    ]
    return Topology(p, f"net_{mode}", frozenset(opens))


def _derive_naive(
    p: FinitePoset, mode: str, ideal_kinds: tuple[str, ...], netclass: NetClass
) -> Topology:
    predicate = _MODE_PREDICATES[mode]
    constraints = []
    for net in generate_nets(p, netclass):
        for idl in _net_ideals(net, ideal_kinds):
            limits = 0
            for ix in range(p.n):
                if predicate(p, net, ix, idl).holds:
                    limits |= 1 << ix
            if limits:
                constraints.append((limits, net, idl))
    opens = []
    for mask in range(p.universe + 1):
        ok = True
        for limits, net, idl in constraints:
            if limits & mask and not _eventually_inside(p, net, mask, idl):
                ok = False
                break
        if ok:
            opens.append(mask)
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


def net_from_json(text: str) -> Net:
    data = json.loads(text)
    if data.get("index") == "omega":
        if "period" in data and data["period"] != len(data["tracks"]):
            raise IndexMismatch(
                f"declared period {data['period']} but {len(data['tracks'])} tracks"
            )
        tracks = []
        for t in data["tracks"]:
            if t["kind"] == CONST:
                tracks.append(const_track(t["value"]))
            elif t["kind"] == ASCEND:
                tracks.append(ascend_track())
            else:
                raise UnknownElement(f"unknown track kind {t['kind']!r}")
        return track_net(*tracks)
    from .order import poset_from_json

    index = poset_from_json(json.dumps(data["index"]))
    mapping = data["map"]
    missing = [e for e in index.elements if e not in mapping]
    if missing:
        raise IndexMismatch(f"net map is missing index points {missing}")
    return finite_net(index, [mapping[e] for e in index.elements])
