"""Scott, lower, Lawson, and convergence-derived topologies on finite posets.

A topology is an explicit open-set family, a frozenset of masks.
Every finite topological space is closed under arbitrary intersections,
so a subbasis generates its topology through minimal neighborhoods:
``m(x)`` is the intersection of the subbasic sets containing ``x``, and a
set is open iff it contains the minimal neighborhood of each of its
points.

The side-point dcpo's predicate versions of the same topologies live in
:mod:`~domaincheck.sidenat`.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .errors import PreconditionFailed, TooLarge, UnknownElement
from .oplog import logged
from .order import FinitePoset, bits

MAX_TOPOLOGY_ELEMENTS = 14

TOPOLOGY_KINDS = ("scott", "lower", "lawson")


@dataclass(frozen=True)
class Topology:
    """A topology on a finite poset.

    Construction checks only that the empty set and the carrier are
    present.  Closure under union and intersection is not re-checked
    here; the ``topology-axioms`` suite checks it once per kind and
    poset (see its docstring for how every kind is covered).
    """

    poset: FinitePoset
    kind: str
    opens: frozenset[int]

    def __post_init__(self) -> None:
        if 0 not in self.opens or self.poset.universe not in self.opens:
            raise PreconditionFailed(f"{self.kind} on {self.poset.name!r}: missing empty set or carrier")

    @cached_property
    def neighborhoods(self) -> tuple[int, ...]:
        """The minimal open neighbourhood ``m(x)`` of each point: the
        intersection of the opens containing it.

        A finite topology is closed under intersections, so ``m(x)`` is
        itself open.  Raises :class:`PreconditionFailed` when it is not,
        i.e. for a family not closed under intersection, which is how the
        ``topology-axioms`` suite reads it.
        """
        out = []
        for x in range(self.poset.n):
            m = self.poset.universe
            for u in self.opens:
                if u >> x & 1:
                    m &= u
            if m not in self.opens:
                raise PreconditionFailed(
                    f"{self.kind} on {self.poset.name!r}: the opens around "
                    f"{self.poset.elements[x]!r} intersect to a set that is not open"
                )
            out.append(m)
        return tuple(out)

    @logged("topology.interior")
    def interior(self, mask: int) -> int:
        out = 0
        for u in self.opens:
            if u & ~mask == 0:
                out |= u
        return out

    @logged("topology.closure")
    def closure(self, mask: int) -> int:
        return self.poset.universe & ~self.interior(self.poset.universe & ~mask)


def _guard_size(p: FinitePoset, operation: str = "topology enumeration") -> None:
    if p.n > MAX_TOPOLOGY_ELEMENTS:
        raise TooLarge(
            f"{operation} over {p.n} elements is not supported;"
            f" the limit is {MAX_TOPOLOGY_ELEMENTS} elements"
        )


def _from_neighborhoods(p: FinitePoset, mins: list[int], kind: str) -> Topology:
    """The topology whose opens are the sets ``U`` with ``mins[x]``
    inside ``U`` for every ``x`` in ``U``."""
    _guard_size(p)
    opens = [
        mask
        for mask in range(p.universe + 1)
        if all(mins[x] & ~mask == 0 for x in bits(mask))
    ]
    return Topology(p, kind, frozenset(opens))


def topology_from_subbasis(p: FinitePoset, subbasis: Iterable[int], kind: str) -> Topology:
    """Generate the topology with the given subbasis via minimal neighborhoods."""
    subs = tuple(subbasis)
    mins = []
    for i in range(p.n):
        m = p.universe
        for s in subs:
            if s >> i & 1:
                m &= s
        mins.append(m)
    return _from_neighborhoods(p, mins, kind)


def _scott_open_definitional(p: FinitePoset, mask: int) -> bool:
    """Upper, and inaccessible by suprema of directed sets."""
    if p.up_of_mask(mask) != mask:
        return False
    for d, sup in p.directed_sups:
        if mask >> sup & 1 and d & mask == 0:
            return False
    return True


@logged("topology.scott")
def scott_topology(p: FinitePoset) -> Topology:
    """Scott opens of a finite poset: its upper sets.

    On a finite poset every directed set contains its supremum, so the
    inaccessibility condition is automatic and the opens are exactly the
    upper sets.  The ``finite-collapse`` suite compares these with
    :func:`_scott_open_definitional` on every corpus poset.
    """
    _guard_size(p)
    return Topology(p, "scott", frozenset(p.iter_upper_masks()))


@logged("topology.lower")
def lower_topology(p: FinitePoset) -> Topology:
    """Topology generated by the complements of principal upper sets."""
    return topology_from_subbasis(p, (p.universe & ~u for u in p.up), "lower")


@logged("topology.lawson")
def lawson_topology(p: FinitePoset) -> Topology:
    """Join of the Scott and lower topologies.  On a finite poset the
    principal upper sets ``p.up`` generate the Scott opens, so they and
    their complements form the subbasis (``test_lawson_discrete_on_finite``)."""
    return topology_from_subbasis(p, [*p.up, *(p.universe & ~u for u in p.up)], "lawson")


def finite_topology(p: FinitePoset, kind: str) -> Topology:
    if kind == "scott":
        return scott_topology(p)
    if kind == "lower":
        return lower_topology(p)
    if kind == "lawson":
        return lawson_topology(p)
    raise UnknownElement(f"unknown topology kind {kind!r}")


def indiscrete_topology(p: FinitePoset) -> Topology:
    return Topology(p, "indiscrete", frozenset({0, p.universe}))


def discrete_topology(p: FinitePoset) -> Topology:
    _guard_size(p)
    return Topology(p, "discrete", frozenset(range(p.universe + 1)))


# -- topology induced by family convergence -------------------------------


# The largest family of antichains that the definitional family lim-inf
# check (``convergence._converges_family_definitional``) enumerates.
FAMILY_BOUND = 4


def _directed_antichain_families(p: FinitePoset, family_bound: int):
    """Smyth-directed families of at most ``family_bound`` antichains,
    each with its members' upper sets, generated by greatest member.

    A finite family is Smyth-directed iff it owns a greatest member ``g``,
    one whose upper set is the meet of all members' upper sets (the
    meet :func:`~domaincheck.order.smyth_meet` returns), and an antichain
    is fixed by its upper set, so ``g`` is unique.  The directed families
    with greatest member ``g`` are therefore exactly ``(g, *rest)`` for
    each set ``rest`` of at most ``family_bound - 1`` other antichains
    whose upper sets contain ``up(g)``: each family is yielded once, ``g``
    first, so the first upper set ``up(g)`` is the family's
    ``smyth_meet``, which the ``rudin`` suite reads as its meet.
    ``test_directed_family_matches_pairwise_smyth_definition`` compares
    the output with the ``combinations`` scan filtered by the pairwise
    definition."""
    for g, up_g, above in _greatest_members(p):
        yield from _families_with_greatest(g, up_g, above, family_bound)


def _greatest_members(p: FinitePoset):
    """Each antichain ``g`` as a greatest member: ``(g, up(g), above)``,
    where ``above`` lists the other antichains ``(f, up(f))`` whose upper
    sets contain ``up(g)``, in antichain order."""
    chains = list(zip(p.antichain_masks, p.antichain_ups))
    for g, up_g in chains:
        yield g, up_g, [(f, u) for f, u in chains if f != g and up_g & ~u == 0]


def _families_with_greatest(g: int, up_g: int, above: list, family_bound: int):
    """The families of at most ``family_bound`` antichains with greatest
    member ``g`` (one step of :func:`_greatest_members`), each with its
    members' upper sets, by size and then in ``combinations`` order."""
    for size in range(family_bound):
        for rest in combinations(above, size):
            fs, us = zip(*rest) if rest else ((), ())
            yield (g, *fs), (up_g, *us)


@logged("topology.family_liminf")
def family_liminf_topology(p: FinitePoset) -> Topology:
    """The topology induced by lim-inf convergence along directed families.

    A set ``U`` is open iff for every Smyth-directed family and every
    point ``x`` whose upper set absorbs the meet of the family's upper
    sets, ``x`` in ``U`` forces some member's upper set inside ``U``.  A
    net converging along the family is trapped in each member's upper set
    up to an ideal-small exception, and adversarial nets realize exactly
    those traps, so this is the net-free reduction of the convergence
    topology.

    A Smyth-directed family owns a greatest member ``g``, whose upper set
    is the meet (:func:`_directed_antichain_families`), so "some member's
    upper set lies inside ``U``" is "``up(g)`` lies inside ``U``": every
    family with greatest member ``g`` adds the same constraint, and the
    singleton family ``{g}`` is one of them.  So no family is enumerated:
    ``up(g)`` is ORed into the neighbourhood mask of each ``x`` with
    ``up(g) ⊆ up(x)``, once per antichain ``g``.
    ``test_family_topology_meets_match_member_scan`` compares the opens
    with the literal scan of every set against every family's members.
    """
    _guard_size(p)
    mins = [0] * p.n
    for up_g in p.antichain_ups:
        for x in range(p.n):
            if up_g & ~p.up[x] == 0:
                mins[x] |= up_g
    return _from_neighborhoods(p, mins, "glim")
