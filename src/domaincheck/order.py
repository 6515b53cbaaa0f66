"""Finite partial orders over explicit element sets.

Elements are referred to by string ids.  A poset stores, for every element
index ``i``, the bitmask of indices weakly above it (``up``) and weakly
below it (``down``), both reflexively and transitively closed.  Subsets of
a poset are plain ints throughout the package, so set algebra is bitwise
arithmetic and enumeration loops stay tight.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property

from .oplog import logged
from .errors import CycleError, DuplicateElement, NotDirected, PreconditionFailed, UnknownElement

# The largest poset for which the library builds artefacts exponential in
# its size: per-mask tables, antichain families and topologies.
MAX_TOPOLOGY_ELEMENTS = 14


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def smyth_meet(ups: Sequence[int]) -> int | None:
    """The meet of a Smyth-directed family's upper sets, or None when the
    family (given by its members' upper sets) is not directed.

    ``f <= k`` in the Smyth preorder iff ``up(k) <= up(f)``.  A finite
    family is directed iff the meet of the upper sets is one of them: such
    an ``up(k)`` lies inside ``u & v`` for every pair, and conversely a
    member above all others (found by induction on pairs) has the meet as
    its upper set.  The empty family is not directed.  Checked against the
    pairwise definition by ``test_directed_family_matches_pairwise_smyth_definition``.
    """
    meet = -1
    for u in ups:
        meet &= u
    return meet if meet in ups else None


@dataclass(frozen=True)
class FinitePoset:
    """An immutable finite poset with precomputed reachability masks.

    ``up[i]`` and ``down[i]`` include ``i`` itself.  Instances are built
    through :func:`build_finite_poset`, which closes and validates the
    relation; the constructor trusts its inputs.

    The poset is immutable, so its antichains, their upper sets and its
    upper sets are computed once, on first use, as cached tuples
    (:attr:`antichain_masks`, :attr:`antichain_ups`, :attr:`upper_masks`);
    ``test_cached_artefacts_match_literal_scans`` compares them with the
    literal scans over all ``2**n`` masks.  So is the table of directed
    subsets and their suprema (:attr:`directed_sups`), which
    ``test_scott_is_upper_family`` compares with the pairwise scan.  So
    are two tables over all ``2**n`` masks, indexed by the mask: the
    upper set of each mask (:attr:`up_table`, read by :meth:`up_of_mask`)
    and the common lower bounds of each mask (:attr:`lb_table`, read by
    ``convergence.limits``).  They exist only up to
    :data:`MAX_TOPOLOGY_ELEMENTS` points; ``test_mask_tables_match_the_rows``
    compares them with folds of the rows ``up`` and ``down``.
    """

    name: str
    elements: tuple[str, ...]
    up: tuple[int, ...]
    down: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_index", {e: i for i, e in enumerate(self.elements)})

    # -- element level ------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.elements)

    @property
    def universe(self) -> int:
        """Mask of the whole carrier set."""
        return (1 << self.n) - 1

    def index(self, element: str) -> int:
        try:
            return self._index[element]  # type: ignore[attr-defined]
        except KeyError:
            raise UnknownElement(f"{element!r} is not an element of {self.name!r}") from None

    @logged("order.leq")
    def leq(self, x: str, y: str) -> bool:
        return bool(self.up[self.index(x)] >> self.index(y) & 1)

    def leq_ix(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    # -- masks <-> ids ------------------------------------------------

    def mask_of(self, ids: Iterable[str]) -> int:
        mask = 0
        for e in ids:
            mask |= 1 << self.index(e)
        return mask

    def ids_of(self, mask: int) -> tuple[str, ...]:
        return tuple(self.elements[i] for i in bits(mask))

    # -- upper sets ----------------------------------------------------

    @cached_property
    def up_table(self) -> tuple[int, ...] | None:
        """The upper set of every mask, indexed by the mask, or None over
        :data:`MAX_TOPOLOGY_ELEMENTS` points.  Built in one pass from
        ``up(m | 1 << i) = up(m) | up[i]`` for ``m < 2**i``."""
        if self.n > MAX_TOPOLOGY_ELEMENTS:
            return None
        table = [0]
        for u in self.up:
            table += [t | u for t in table]
        return tuple(table)

    @cached_property
    def lb_table(self) -> tuple[int, ...] | None:
        """The common lower bounds ``{x : m <= up[x]}`` of every mask
        ``m``, indexed by the mask, or None over
        :data:`MAX_TOPOLOGY_ELEMENTS` points.  Built in one pass from
        ``lb(m | 1 << i) = lb(m) & down[i]`` for ``m < 2**i``, with
        ``lb(0)`` the whole carrier."""
        if self.n > MAX_TOPOLOGY_ELEMENTS:
            return None
        table = [self.universe]
        for d in self.down:
            table += [t & d for t in table]
        return tuple(table)

    def up_of_mask(self, mask: int) -> int:
        """The upper set of ``mask``: its entry in :attr:`up_table`, or
        over :data:`MAX_TOPOLOGY_ELEMENTS` points, where no table is
        built, the OR of the rows ``up[i]`` over its bits."""
        table = self.up_table
        if table is not None:
            return table[mask]
        up, out = self.up, 0
        while mask:
            low = mask & -mask
            out |= up[low.bit_length() - 1]
            mask ^= low
        return out

    def is_upper_mask(self, mask: int) -> bool:
        return self.up_of_mask(mask) == mask

    # -- directedness --------------------------------------------------

    def greatest_of_mask(self, mask: int) -> int | None:
        """Index of the greatest member of ``mask``, or None."""
        for i in bits(mask):
            if mask & ~self.down[i] == 0:
                return i
        return None

    def is_directed_mask(self, mask: int) -> bool:
        """Nonempty and every pair has an upper bound inside the set.

        On a finite poset that is equivalent to having a greatest member,
        which is what this checks.  ``is_directed_mask_pairwise`` is the
        literal definition, kept as an independent oracle.
        """
        return mask != 0 and self.greatest_of_mask(mask) is not None

    def is_directed_mask_pairwise(self, mask: int) -> bool:
        if mask == 0:
            return False
        members = list(bits(mask))
        for i in members:
            for j in members:
                if not any(self.leq_ix(i, k) and self.leq_ix(j, k) for k in members):
                    return False
        return True

    def directed_sup_mask(self, mask: int) -> int:
        """Index of the supremum of a directed subset (its greatest member)."""
        g = self.greatest_of_mask(mask) if mask else None
        if g is None:
            raise NotDirected(f"mask {mask:#x} is not directed in {self.name!r}")
        return g

    # -- enumeration ---------------------------------------------------

    @logged("order.enumerate_directed")
    def iter_directed_masks(self) -> Iterator[int]:
        """All directed subsets, grouped by their greatest element.

        For greatest element ``g`` the directed subsets are exactly
        ``{g} | S`` with ``S`` ranging over subsets of the strict
        down-set of ``g``, so each subset is produced once.
        """
        for g in range(self.n):
            below = self.down[g] & ~(1 << g)
            sub = below
            while True:
                yield sub | 1 << g
                if sub == 0:
                    break
                sub = (sub - 1) & below

    @cached_property
    def directed_sups(self) -> tuple[tuple[int, int], ...]:
        """Each directed subset with the index of its supremum, as
        ``(d, directed_sup_mask(d))`` in :meth:`iter_directed_masks`
        order, so the definitional checks that quantify over every
        directed subset enumerate them once per poset."""
        return tuple((d, self.directed_sup_mask(d)) for d in self.iter_directed_masks())

    @cached_property
    def antichain_masks(self) -> tuple[int, ...]:
        """All nonempty antichains, in increasing mask order.

        Built by highest element: the antichains whose highest element is
        ``i`` are ``{i}`` and ``a | {i}`` for each earlier antichain ``a``
        of elements incomparable with ``i``.  Each such block is sorted and
        lies above every earlier one, so the tuple is sorted.
        """
        out: list[int] = []
        for i in range(self.n):
            comparable = self.up[i] | self.down[i]
            bit = 1 << i
            out += [bit] + [a | bit for a in out if a & comparable == 0]
        return tuple(out)

    @cached_property
    def antichain_ups(self) -> tuple[int, ...]:
        """``up_of_mask`` of each member of :attr:`antichain_masks`, in the same order."""
        return tuple(self.up_of_mask(a) for a in self.antichain_masks)

    @cached_property
    def upper_masks(self) -> tuple[int, ...]:
        """All upper sets, in increasing mask order.

        A nonempty upper set is the upper set of its minimal elements, an
        antichain, and distinct antichains have distinct upper sets, so
        these are exactly the empty set and :attr:`antichain_ups`.
        """
        return tuple(sorted((0, *self.antichain_ups)))

    def iter_upper_masks(self) -> Iterator[int]:
        return iter(self.upper_masks)

    def iter_antichain_masks(self) -> Iterator[int]:
        """All nonempty antichains."""
        return iter(self.antichain_masks)


@logged("order.build_poset")
def build_finite_poset(name: str, elements: Iterable[str], le: Iterable[tuple[str, str]]) -> FinitePoset:
    """Construct a poset from generating pairs ``x <= y``.

    The pairs may be any relation whose reflexive-transitive closure is
    antisymmetric; covers are enough.  Raises :class:`DuplicateElement`
    for repeated ids and :class:`CycleError` if the closure identifies
    two distinct elements.
    """
    elems = tuple(elements)
    if len(set(elems)) != len(elems):
        raise DuplicateElement(f"duplicate element ids in {name!r}")
    index = {e: i for i, e in enumerate(elems)}
    n = len(elems)
    up = [1 << i for i in range(n)]
    for x, y in le:
        if x not in index:
            raise UnknownElement(f"{x!r} is not an element of {name!r}")
        if y not in index:
            raise UnknownElement(f"{y!r} is not an element of {name!r}")
        up[index[x]] |= 1 << index[y]
    for k in range(n):
        kbit = 1 << k
        for i in range(n):
            if up[i] & kbit:
                up[i] |= up[k]
    for i in range(n):
        for j in bits(up[i]):
            if i != j and up[j] >> i & 1:
                raise CycleError(f"{elems[i]!r} and {elems[j]!r} are equivalent under closure in {name!r}")
    down = [0] * n
    for i in range(n):
        for j in bits(up[i]):
            down[j] |= 1 << i
    return FinitePoset(name, elems, tuple(up), tuple(down))


def poset_to_json(p: FinitePoset) -> str:
    """Serialize as the full closed relation, sorted, reflexive pairs included."""
    le = sorted((x, p.elements[j]) for i, x in enumerate(p.elements) for j in bits(p.up[i]))
    return json.dumps({"name": p.name, "elements": list(p.elements), "le": le}, indent=2)


def json_field(doc: dict, key: str, what: str):
    """``doc[key]``, or :class:`PreconditionFailed` naming ``key`` and ``what``."""
    if key not in doc:
        raise PreconditionFailed(f"{what} has no {key!r} field")
    return doc[key]


def poset_from_json(text: str) -> FinitePoset:
    return poset_from_doc(json.loads(text), "the poset JSON document")


def poset_from_doc(data, what: str) -> FinitePoset:
    """The poset a parsed JSON object describes; errors name the object ``what``."""
    if not isinstance(data, dict):
        raise PreconditionFailed(f"{what} must be an object")
    name, elements, le = (json_field(data, key, what) for key in ("name", "elements", "le"))
    if not isinstance(name, str):
        raise PreconditionFailed(f"{what}: 'name' must be a string")
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        raise PreconditionFailed(f"{what}: 'elements' must be a list of element ids")
    if not isinstance(le, list) or not all(
        isinstance(pair, list) and len(pair) == 2 and all(isinstance(e, str) for e in pair)
        for pair in le
    ):
        raise PreconditionFailed(f"{what}: 'le' must be a list of [x, y] pairs of element ids")
    return build_finite_poset(name, elements, [tuple(pair) for pair in le])
