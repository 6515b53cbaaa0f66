"""The side-point dcpo: an infinite dcpo with one point beside the naturals.

The carrier is ``{0, 1, 2, ...} | {a, inf}`` ordered by ``x <= y`` iff
``y = inf``, or ``x = y``, or both are naturals with the usual order.  So
the naturals form a chain with supremum ``inf``, and ``a`` is comparable
to nothing but itself and ``inf``.  The point of this domain is that it is
quasi-continuous but not continuous and not meet-continuous, so it
separates properties that coincide on finite posets.

Everything here is computed symbolically.  Subsets are represented by
:class:`SideSet`, a canonical form with a finite scatter of naturals, an
optional cofinite tail, and flags for the two extra points.  Membership
beyond the represented data is eventually constant, which makes the whole
boolean algebra decidable by inspecting a finite window.

This module is the whole side-point backend: its operations carry the
names of their finite counterparts in ``waybelow``, ``topology`` and
``convergence``, without the backend argument, and each is logged as
``sidenat.<function>``, so the coverage gate sees it apart.  Of the
topological operations it keeps openness in three topologies, the open
that decides convergence at a point, and the Scott interior.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from . import convergence as cv
from . import waybelow as wb
from .convergence import CONST, FiniteNet, Ideal, Net, OmegaSet, TrackNet, Verdict
from .errors import IndexMismatch, NotDirected, PreconditionFailed, UnknownElement
from .oplog import logged
from .order import FinitePoset, build_finite_poset

SideElement = int | str

A = "a"
TOP = "inf"


def side_leq(x: SideElement, y: SideElement) -> bool:
    return y == TOP or x == y or (isinstance(x, int) and isinstance(y, int) and x <= y)


def parse_side_element(text: str) -> SideElement:
    if text == A or text == TOP:
        return text
    if text.isdigit():
        return int(text)
    raise UnknownElement(f"{text!r} is not an element of side_nat")


def check_side_element(v) -> SideElement:
    """Return ``v`` if it is an element of the carrier: a natural, ``a`` or
    ``inf``; raise :class:`UnknownElement` otherwise."""
    if v == A or v == TOP or (type(v) is int and v >= 0):
        return v
    raise UnknownElement(f"{v!r} is not an element of side_nat")


def element_sort_key(e: SideElement) -> tuple[int, int]:
    if isinstance(e, int):
        return (0, e)
    return (1, 0) if e == A else (2, 0)


@dataclass(frozen=True)
class SideSet:
    """Canonical subset of the side-point dcpo.

    ``nats`` is a finite scatter of naturals strictly below ``tail`` (when
    a tail is present), and ``tail = t`` means every natural ``>= t`` is a
    member.  Canonically the tail is pulled down as far as possible, so
    ``tail - 1`` is never in ``nats``.  Two equal subsets therefore have
    equal representations and dataclass equality is set equality.
    """

    nats: frozenset[int]
    tail: int | None
    has_a: bool
    has_top: bool

    def __contains__(self, e: SideElement) -> bool:
        if e == A:
            return self.has_a
        if e == TOP:
            return self.has_top
        if self.tail is not None and e >= self.tail:
            return True
        return e in self.nats

    @property
    def is_empty(self) -> bool:
        return not self.nats and self.tail is None and not self.has_a and not self.has_top

    def span(self) -> int:
        """A bound past which natural-number membership is constant."""
        b = max(self.nats) + 1 if self.nats else 0
        if self.tail is not None:
            b = max(b, self.tail)
        return b

    def members_upto(self, k: int) -> tuple[SideElement, ...]:
        """The members among ``0..k-1, a, inf``, in canonical order."""
        out: list[SideElement] = [n for n in range(k) if n in self]
        if self.has_a:
            out.append(A)
        if self.has_top:
            out.append(TOP)
        return tuple(out)


def sideset(
    nats: Iterable[int] = (),
    tail: int | None = None,
    has_a: bool = False,
    has_top: bool = False,
) -> SideSet:
    """Build a :class:`SideSet` in canonical form."""
    ns = {int(n) for n in nats}
    if any(n < 0 for n in ns) or (tail is not None and tail < 0):
        raise ValueError("naturals in a SideSet must be nonnegative")
    if tail is not None:
        ns = {n for n in ns if n < tail}
        while tail > 0 and tail - 1 in ns:
            tail -= 1
            ns.discard(tail)
    return SideSet(frozenset(ns), tail, bool(has_a), bool(has_top))


EMPTY = sideset()
FULL = sideset(tail=0, has_a=True, has_top=True)
NATS = sideset(tail=0)


def side_set_of(elements: Iterable[SideElement]) -> SideSet:
    """The finite set of ``elements``; a member that is not an element of
    the carrier raises :class:`UnknownElement`."""
    es = [check_side_element(e) for e in elements]
    return sideset(
        nats=(e for e in es if isinstance(e, int)),
        has_a=A in es,
        has_top=TOP in es,
    )


def _pointwise(x: SideSet, y: SideSet, op) -> SideSet:
    b = max(x.span(), y.span())
    tail_member = op(x.tail is not None, y.tail is not None)
    return sideset(
        nats=(n for n in range(b) if op(n in x, n in y)),
        tail=b if tail_member else None,
        has_a=op(x.has_a, y.has_a),
        has_top=op(x.has_top, y.has_top),
    )


def union(x: SideSet, y: SideSet) -> SideSet:
    return _pointwise(x, y, lambda p, q: p or q)


def inter(x: SideSet, y: SideSet) -> SideSet:
    return _pointwise(x, y, lambda p, q: p and q)


def diff(x: SideSet, y: SideSet) -> SideSet:
    return _pointwise(x, y, lambda p, q: p and not q)


def up_set(e: SideElement) -> SideSet:
    """Principal upper set of one element."""
    if e == TOP:
        return sideset(has_top=True)
    if e == A:
        return sideset(has_a=True, has_top=True)
    return sideset(tail=e, has_top=True)


def down_set(e: SideElement) -> SideSet:
    if e == TOP:
        return FULL
    if e == A:
        return sideset(has_a=True)
    return sideset(nats=range(e + 1))


@logged("sidenat.up_closure")
def up_closure(s: SideSet) -> SideSet:
    if s.is_empty:
        return EMPTY
    # canonical sets keep explicit naturals only below the tail, so the
    # closure starts at the least natural mentioned by either part
    cands = [*s.nats] + ([s.tail] if s.tail is not None else [])
    natpart = min(cands) if cands else None
    return sideset(tail=natpart, has_a=s.has_a, has_top=True)


@logged("sidenat.down_closure")
def down_closure(s: SideSet) -> SideSet:
    if s.has_top:
        return FULL
    if s.tail is not None:
        return sideset(tail=0, has_a=s.has_a)
    if s.nats:
        return sideset(nats=range(max(s.nats) + 1), has_a=s.has_a)
    return sideset(has_a=s.has_a)


def is_upper(s: SideSet) -> bool:
    return up_closure(s) == s or s.is_empty


@logged("sidenat.is_directed_set")
def is_directed_set(s: SideSet) -> bool:
    """Directed means nonempty with internal upper bounds for all pairs.

    With the top present everything is bounded inside the set.  Otherwise
    ``a`` can only coexist with itself, since an upper bound of ``a`` and
    any natural is the top.  A nonempty set of naturals is a chain, hence
    directed.
    """
    if s.is_empty:
        return False
    if s.has_top:
        return True
    if s.has_a:
        return s == sideset(has_a=True)
    return True


@logged("sidenat.directed_sup")
def directed_sup(s: SideSet) -> SideElement:
    if not is_directed_set(s):
        raise NotDirected("set is not directed in side_nat")
    if s.has_top or s.tail is not None:
        return TOP
    if s.has_a:
        return A
    return max(s.nats)


def min_elements(s: SideSet) -> tuple[SideElement, ...]:
    """The minimal members, as a canonical antichain.

    Any nonempty subset has minimal ones here: at most one natural (the
    least member), possibly ``a``, and ``inf`` alone when it is the only
    member.  The result generates the same upper closure as ``s``.
    """
    out: list[SideElement] = []
    if s.nats or s.tail is not None:
        out.append(min(s.nats) if s.nats else s.tail)  # type: ignore[arg-type]
    if s.has_a:
        out.append(A)
    if s.has_top and not out:
        out.append(TOP)
    return tuple(out)


def antichain_of(elements: Iterable[SideElement]) -> tuple[SideElement, ...]:
    """Minimal elements of a finite set, sorted canonically."""
    return min_elements(side_set_of(elements))


def iter_antichains_upto(bound: int) -> Iterable[tuple[SideElement, ...]]:
    """Every nonempty antichain whose naturals are below ``bound``.

    Antichains in this domain are tiny: a single element, or ``a``
    paired with one natural.
    """
    for n in range(bound):
        yield (n,)
    yield (A,)
    yield (TOP,)
    for n in range(bound):
        yield (n, A)


@dataclass(frozen=True)
class SideNat:
    """Backend marker for the side-point dcpo, which the CLI resolves
    ``--poset side_nat`` to; the domain is fixed, so it carries no state."""

    name: str = "side_nat"


SIDE_NAT = SideNat()


@logged("sidenat.truncate_side_nat")
def truncate_side_nat(k: int) -> FinitePoset:
    """The finite sub-poset on ``{0..k, a, inf}``, with the same order.

    Useful as a corpus member: it keeps the side point and the top but is
    small enough for the brute-force backend.
    """
    nats = [str(i) for i in range(k + 1)]
    le = [(str(i), str(i + 1)) for i in range(k)] + [(str(k), TOP), (A, TOP)]
    return build_finite_poset(f"side_nat_to_{k}", nats + [A, TOP], le)


# -- way-below ---------------------------------------------------------------


def _as_elems(s: Iterable[SideElement]) -> tuple[SideElement, ...]:
    return tuple(sorted({check_side_element(e) for e in s}, key=element_sort_key))


def _upset(elems: Iterable[SideElement]) -> SideSet:
    return up_closure(side_set_of(elems))


def _subset(x: SideSet, y: SideSet) -> bool:
    """``x`` is inside ``y``, read from the canonical fields without
    building ``diff(x, y)``.  True iff each flag of ``x`` is one of
    ``y``, every natural of ``x.nats`` is in ``y``, and, when ``x`` has a
    tail, ``y`` has one no later: a canonical ``y`` never holds
    ``y.tail - 1``, so a later tail would leave ``y.tail - 1 >= x.tail``
    outside ``y``.  ``test_subset_matches_window_inclusion`` compares it
    with inclusion on a window; :func:`way_below_oracle` tests membership
    with ``in`` and never calls it."""
    if (x.has_a and not y.has_a) or (x.has_top and not y.has_top):
        return False
    if x.tail is not None and (y.tail is None or y.tail > x.tail):
        return False
    return all(n in y for n in x.nats)


@logged("sidenat.set_way_below")
def set_way_below(g: Iterable[SideElement], h: Iterable[SideElement]) -> bool:
    """``g`` is way below ``h``: every directed set whose supremum lands
    in ``up(h)`` already meets ``up(g)``.

    The closed rule: ``up(h)`` inside ``up(g)``, and ``g`` must contain a
    natural, because an unbounded set of naturals is directed with
    supremum at the top and only a natural in ``g`` puts its upper set in
    the way.  The ``sidenat`` suite checks it against
    :func:`way_below_oracle`.
    """
    ge, he = _as_elems(g), _as_elems(h)
    if not he:
        return True
    return any(isinstance(e, int) for e in ge) and _subset(_upset(he), _upset(ge))


def way_below_oracle(g: Iterable[SideElement], h: Iterable[SideElement]) -> bool:
    """Decide way-below by enumerating shapes.

    Every directed set is a finite set of naturals, an unbounded set of
    naturals, the singleton of the side point, or a set containing the
    top.  They are checked one shape class at a time, with naturals
    drawn from a window two past every natural mentioned in the
    arguments; beyond the window membership in either upper set is
    constant, so the window decides the general case.  This is the
    independent slow path used to validate :func:`set_way_below`.
    """
    ge, he = _as_elems(g), _as_elems(h)
    if not he:
        return True
    upg, uph = _upset(ge), _upset(he)
    nats = [e for e in list(ge) + list(he) if isinstance(e, int)]
    bound = max(nats, default=0) + 2

    def violated(sup: SideElement, meets_upg: bool) -> bool:
        return sup in uph and not meets_upg

    for m in range(bound + 1):
        if violated(m, m in upg):
            return False
        for m2 in range(m):
            if violated(m, m2 in upg or m in upg):
                return False
    if violated(A, A in upg):
        return False
    # any unbounded set of naturals: supremum is the top, and it meets
    # up(g) iff up(g) contains arbitrarily large naturals
    if violated(TOP, upg.tail is not None):
        return False
    # sets containing the top meet up(g) at the top itself
    if violated(TOP, TOP in upg):
        return False
    return True


@logged("sidenat.way_up")
def way_up(f: Iterable[SideElement]) -> SideSet:
    """All points that ``f`` is way below."""
    fe = _as_elems(f)
    if not any(isinstance(e, int) for e in fe):
        return EMPTY
    return _upset(fe)


@logged("sidenat.waydown_of")
def waydown_of(x: SideElement) -> SideSet:
    """All points way below ``x`` (the pointwise approximants of ``x``)."""
    check_side_element(x)
    if x == A:
        return EMPTY
    if x == TOP:
        return sideset(tail=0)
    return sideset(nats=range(x + 1))


# -- families of finite sets -------------------------------------------------


@dataclass(frozen=True)
class SideFamily:
    """A family of finite antichains, held by shape.

    Every antichain here is ``{n}``, ``{n, a}``, ``{a}`` or ``{inf}``.
    ``singles`` and ``pairs`` hold the ``n`` of the members ``{n}`` and
    ``{n, a}``, each a canonical :class:`SideSet` of naturals whose tail
    is an infinite schema; ``has_a`` and ``has_top`` flag ``{a}`` and
    ``{inf}``.  So dataclass equality is family equality.  Equality and
    :meth:`to_dict` ignore ``checked_upto``, the net's stabilization bound.
    """

    singles: SideSet = EMPTY
    pairs: SideSet = EMPTY
    has_a: bool = False
    has_top: bool = False
    checked_upto: int | None = field(default=None, compare=False)

    def contains(self, member: Iterable[SideElement]) -> bool:
        m = antichain_of(member)
        if len(m) == 2:
            return m[0] in self.pairs
        if m == (A,):
            return self.has_a
        if m == (TOP,):
            return self.has_top
        return len(m) == 1 and m[0] in self.singles

    def members_upto(self, k: int) -> tuple[tuple[SideElement, ...], ...]:
        """The members outside the schemas, ``{n}`` before ``{n, a}`` by
        ascending ``n``, then ``{a}`` and ``{inf}``; then the schema
        members whose natural is below ``k``."""
        out: list[tuple[SideElement, ...]] = []
        for n in sorted(self.singles.nats | self.pairs.nats):
            if n in self.singles.nats:
                out.append((n,))
            if n in self.pairs.nats:
                out.append((n, A))
        out += [(e,) for e, flag in ((A, self.has_a), (TOP, self.has_top)) if flag]
        if self.singles.tail is not None:
            out += [(n,) for n in range(self.singles.tail, k)]
        if self.pairs.tail is not None:
            out += [(n, A) for n in range(self.pairs.tail, k)]
        return tuple(out)

    def includes(self, other: SideFamily) -> bool:
        """Is every member of ``other`` a member of this family?  Shape by
        shape: each set of naturals inside ours, each flag implying ours.
        Oracle: ``test_side_family_includes_matches_prefixes``."""
        flags = (self.has_a or not other.has_a) and (self.has_top or not other.has_top)
        return flags and _subset(other.singles, self.singles) and _subset(other.pairs, self.pairs)

    def first_outside(self, x: SideElement) -> tuple[SideElement, ...] | None:
        """The first member, in :meth:`members_upto` order, whose upper set
        misses ``x``; ``None`` when ``x`` is in the meet of the upper
        sets.  A schema member ``{n}`` or ``{n, a}`` past ``x`` misses a
        natural ``x``, and ``{n}`` misses ``a``, so the scan stops one
        past ``x`` and both tails.  Oracle:
        ``test_side_family_upset_intersection``."""
        k = max(self.singles.span(), self.pairs.span(), x + 1 if isinstance(x, int) else 0) + 1
        return next((m for m in self.members_upto(k) if not any(side_leq(e, x) for e in m)), None)

    def to_dict(self) -> dict:
        """The family's shape: how many members lie outside the schemas,
        and where the two schemas start.  A count, not a member list, so
        the size does not grow with the net's values."""
        return {
            "explicit_members": len(self.singles.nats) + len(self.pairs.nats) + self.has_a + self.has_top,
            "singletons_from": self.singles.tail,
            "pairs_from": self.pairs.tail,
        }

    def is_directed(self) -> bool:
        """Smyth-directedness in closed form: each two members' upper sets
        meet around some member's.  ``{inf}`` fits in every meet, and two
        members of one shape, or ``{n, a}`` and ``{a}``, meet in one of
        their upper sets.  ``{n}`` and ``{a}`` meet in ``{inf}``.
        ``up(n) ∩ up({m, a})`` is ``up(max(n, m))``, which for ``n < m``
        only a ``{k}`` with ``k >= m`` fits: no pair lies past every single.
        Oracle: ``test_side_family_is_directed_matches_prefixes``, the
        literal pairwise definition on finite prefixes.
        """
        s, p = self.singles, self.pairs
        if self.has_top:
            return True
        if s.is_empty:
            return self.has_a or not p.is_empty
        return not self.has_a and (s.tail is not None or (p.tail is None and p.span() <= s.span()))

    def upset_intersection(self) -> SideSet:
        """Intersection of the members' upper sets, schemas included.

        Every upper set holds the top; ``a`` stays unless some ``{n}`` or
        ``{inf}`` is a member.  Since ``up(n) ∩ up({m, a})`` is
        ``up(max(n, m))``, the naturals from the largest ``n`` of a member
        ``{n}`` or ``{n, a}`` stay, and none when a schema is present or
        ``{a}`` or ``{inf}`` is a member.  ``test_side_family_upset_intersection``
        compares this with the fold through :func:`inter`.
        """
        bounded = self.singles.tail is None and self.pairs.tail is None
        bounded = bounded and not (self.has_a or self.has_top)
        return sideset(
            tail=max([*self.singles.nats, *self.pairs.nats], default=0) if bounded else None,
            has_a=self.singles.is_empty and not self.has_top,
            has_top=True,
        )


def side_family(
    explicit: Iterable[Iterable[SideElement]] = (),
    singletons_from: int | None = None,
    pairs_from: int | None = None,
    checked_upto: int | None = None,
) -> SideFamily:
    """Build a :class:`SideFamily` from a member list and the starts of the
    singleton and pair schemas, each member filed under its shape."""
    ms = [antichain_of(m) for m in explicit]
    if not all(ms):
        raise PreconditionFailed("family members must be nonempty")
    singles = sideset((m[0] for m in ms if len(m) == 1 and isinstance(m[0], int)), singletons_from)
    pairs = sideset((m[0] for m in ms if len(m) == 2), pairs_from)
    return SideFamily(singles, pairs, (A,) in ms, (TOP,) in ms, checked_upto)


@logged("sidenat.fin_of")
def fin_of(x: SideElement) -> SideFamily:
    """The approximating family of ``x``: finite sets way below it."""
    check_side_element(x)
    if x == A:
        return SideFamily(pairs=NATS)
    if x == TOP:
        return SideFamily(NATS, NATS)
    below = sideset(nats=range(x + 1))
    return SideFamily(below, below)


@logged("sidenat.interpolate")
def interpolate(h: Iterable[SideElement], x: SideElement) -> tuple[SideElement, ...]:
    """Given ``h`` way below ``x``, produce ``e`` with ``h << e << x``.

    The witness depends only on which of the three regions ``x`` lies in.
    Raises :class:`PreconditionFailed` when ``h`` is not way below ``x``.
    The ``interpolation`` suite checks both relations of every witness.
    """
    he = _as_elems(h)
    if not set_way_below(he, (x,)):
        raise PreconditionFailed(f"{he!r} is not way below {x!r}")
    if x == A:
        return (min(e for e in he if isinstance(e, int)) + 1, A)
    if x == TOP:
        return (min(e for e in he if isinstance(e, int)),)
    return (x,)


# -- topologies ---------------------------------------------------------------


@logged("sidenat.is_open")
def is_open(kind: str, s: SideSet) -> bool:
    """Decide openness of a canonical subset.

    Scott opens are the upper sets that contain a tail of the naturals
    whenever they contain the top, since the chain of naturals has the
    top as its supremum.  Lawson opens drop the upperness requirement:
    every point except the top is isolated because ``{n}`` and ``{a}``
    are differences of Scott opens and principal upper sets.  Lower opens
    are the whole space, or any down-closed set of naturals together
    with an optional ``{a}``.
    """
    if kind == "scott":
        return is_upper(s) and (not s.has_top or s.tail is not None)
    if kind == "lawson":
        return not s.has_top or s.tail is not None
    if kind == "lower":
        if s == FULL:
            return True
        if s.has_top:
            return False
        all_nats = s.tail == 0 and not s.nats
        initial = s.tail is None and s.nats == frozenset(range(len(s.nats)))
        return all_nats or initial
    raise UnknownElement(f"unknown topology kind {kind!r}")


def scott_interior(s: SideSet) -> SideSet:
    """The largest Scott open inside ``s``: empty unless ``s`` holds the top
    and a tail, else the top, that tail and ``a`` if ``s`` holds it."""
    if s.has_top and s.tail is not None:
        return sideset(tail=s.tail, has_a=s.has_a, has_top=True)
    return EMPTY


def binding_open(kind: str, x: SideElement, stab: int) -> SideSet:
    """The open around ``x`` that decides convergence, the side analogue
    of the finite minimal neighbourhood ``m(x)``.

    Every open neighborhood of ``x`` contains one of the cuts at ``t <=
    stab`` up to a set of naturals below ``stab``, so once exception sets
    are stable past ``stab`` (the caller derives that bound from the
    net), checking the cuts is equivalent to checking all neighborhoods.
    Trapping is monotone in the region, and the cut at ``stab`` lies
    inside every other, so it alone decides.  For isolated points the
    singleton neighborhood is the whole answer.
    """
    if kind == "scott":
        if isinstance(x, int):
            return up_set(x)
        return sideset(tail=stab, has_a=x == A, has_top=True)
    if kind == "lawson":
        if isinstance(x, int):
            return sideset(nats=[x])
        if x == A:
            return sideset(has_a=True)
        return sideset(tail=stab, has_top=True)
    if kind == "lower":
        if isinstance(x, int):
            return sideset(nats=range(x + 1))
        if x == A:
            return sideset(has_a=True)
        return FULL
    raise UnknownElement(f"unknown topology kind {kind!r}")


# -- classification ----------------------------------------------------------


# The naturals below this bound stand in for all of them in :func:`classify`.
CLASSIFY_SAMPLE = 8


@logged("sidenat.classify")
def classify() -> wb.ClassifyReport:
    """Classify the side-point dcpo as dcpo / continuous / quasi-continuous
    / meet-continuous, with witnesses for every negative answer."""
    witnesses: dict = {}

    shapes = [
        sideset(nats=[0, 3]),
        sideset(nats=range(CLASSIFY_SAMPLE)),
        sideset(tail=2),
        sideset(has_a=True),
        sideset(nats=[1], tail=4, has_top=True),
        FULL,
    ]
    witnesses["dcpo"] = {
        "checked_shapes": [sorted(map(str, s.members_upto(CLASSIFY_SAMPLE + 2))) for s in shapes],
        "sups": [str(directed_sup(s)) for s in shapes],
    }
    dcpo = all(directed_sup(s) in up_closure(s) for s in shapes)

    continuous = True
    for x in [A, TOP, *range(CLASSIFY_SAMPLE)]:
        wd = waydown_of(x)
        if not is_directed_set(wd) or directed_sup(wd) != x:
            continuous = False
            witnesses["continuous"] = {
                "point": str(x),
                "waydown": sorted(map(str, wd.members_upto(CLASSIFY_SAMPLE))),
            }
            break

    quasi = True
    for x in [A, TOP, *range(CLASSIFY_SAMPLE)]:
        fam = fin_of(x)
        if not fam.is_directed() or fam.upset_intersection() != up_set(x):
            quasi = False
            witnesses["quasi_continuous"] = {"point": str(x)}
            break

    hull = up_closure(inter(FULL, down_set(A)))
    meet = is_open("scott", hull)
    if not meet:
        witnesses["meet_continuous"] = {
            "point": A,
            "open": "whole space",
            "hull": sorted(map(str, hull.members_upto(2))),
        }

    return wb.ClassifyReport(SIDE_NAT.name, dcpo, continuous, quasi, meet, witnesses)


# -- convergence of nets -----------------------------------------------------


@logged("sidenat.exception_set")
def exception_set(net: Net, region: SideSet) -> OmegaSet | int:
    """Positions where the net's value lies outside ``region``.  A value
    that is not an element of the carrier raises :class:`UnknownElement`."""
    if not isinstance(region, SideSet):
        raise IndexMismatch("regions of the side-point dcpo must be SideSets")
    acc = cv._exceptions(net, lambda v: check_side_element(v) in region)
    if isinstance(net, FiniteNet):
        return acc
    for t, track in enumerate(net.tracks):
        if track[0] == CONST:
            continue
        if region.tail is None:
            part = cv.omega_set(net.period, [t], minus=(t + k * net.period for k in region.nats))
        else:
            part = cv.finite_omega(t + k * net.period for k in range(region.tail) if k not in region.nats)
        acc = cv.omega_union(acc, part)
    return acc


@logged("sidenat.level_set")
def level_set(net: TrackNet, region: SideSet) -> OmegaSet:
    """Positions of a net on the naturals where its value is in ``region``."""
    return cv.omega_complement(exception_set(net, region))


def _eventually_inside(net: Net, region: SideSet, idl: Ideal) -> bool:
    return cv.ideal_member(idl, exception_set(net, region))


@logged("sidenat.converges_liminf")
def converges_liminf(fam: SideFamily, x: SideElement) -> Verdict:
    """Lim-inf convergence: some directed set below ``x`` traps the net
    whose eventually-below family (:func:`eventual_family`) is ``fam``.

    The only shapes that are not dominated by the principal witness are
    unbounded sets of naturals: ``{x}`` or every ``{n}`` is in ``fam``.
    Oracle: ``test_side_predicates_on_small_track_nets``.
    """
    if fam.contains((x,)):
        return Verdict(True, {"directed_set": [str(x)], "shape": "principal"})
    if fam.singles == NATS:
        return Verdict(True, {"shape": "natural_chain", "checked_upto": fam.checked_upto})
    return Verdict(False, {"point": str(x)})


@logged("sidenat.converges_family_liminf")
def converges_family_liminf(fam: SideFamily, x: SideElement) -> Verdict:
    """Lim-inf convergence along a Smyth-directed family of finite sets.

    Besides the principal family there are two undominated shapes, the
    all-singletons schema (whose upper sets meet in the top alone, hence
    work for any limit) and, for the side point, the pair schema, each
    read from the net's eventually-below family ``fam``.  Oracle:
    ``test_side_predicates_on_small_track_nets``.
    """
    if fam.contains((x,)):
        return Verdict(True, {"family": [[str(x)]], "shape": "principal"})
    if fam.singles == NATS:
        return Verdict(True, {"shape": "singleton_schema", "checked_upto": fam.checked_upto})
    if x == A and fam.pairs == NATS:
        return Verdict(True, {"shape": "pair_schema", "checked_upto": fam.checked_upto})
    return Verdict(False, {"point": str(x)})


@logged("sidenat.converges_topological")
def converges_topological(net: Net, x: SideElement, idl: Ideal, kind: str) -> Verdict:
    """Ideal convergence in the topology named ``kind``: every
    neighborhood of ``x`` traps the net up to the ideal, decided by the
    binding neighborhood (:func:`binding_open`) once level sets are
    stable."""
    cv._check_compat(net, idl)
    check_side_element(x)
    stab = cv.stabilization_bound(net)
    region = binding_open(kind, x, stab)
    if not _eventually_inside(net, region, idl):
        return Verdict(False, {"open": sorted(map(str, region.members_upto(stab + 2)))})
    return Verdict(True, {"kind": kind})


@logged("sidenat.eventual_family")
def eventual_family(net: Net, idl: Ideal) -> SideFamily:
    """The eventually-below family: every antichain ``{n}``, ``{a}``,
    ``{inf}`` or ``{n, a}`` whose upper set traps the net up to the ideal.

    The lim-inf predicates read a (net, ideal) pair only through it.  The
    regions of ``{n}`` and ``{n, a}`` shrink as ``n`` grows, so their
    statuses must shrink too.  Raising ``n`` to ``n + 1`` drops the
    natural ``n``, which leaves the exceptions' ideal status alone unless
    ``n`` is a constant value of the net (an ascending track's exceptions
    stay finite, and every ideal on the naturals holds the finite sets).
    So each status is read through :func:`exception_set` at ``0`` and at
    ``v + 1`` for each natural value ``v``: each kind is an initial
    segment or every natural.  Oracles: ``test_eventual_family_matches_per_natural_window``
    (every ``n`` up to the stabilization bound), and
    ``test_side_predicates_on_small_track_nets`` for the predicates.
    """
    cv._check_compat(net, idl)
    values = net.values if isinstance(net, FiniteNet) else [t[1] for t in net.tracks if t[0] == CONST]
    cuts = sorted({0} | {v + 1 for v in map(check_side_element, values) if isinstance(v, int)})

    def initial(region_of) -> SideSet:
        statuses = [_eventually_inside(net, region_of(n), idl) for n in cuts]
        if any(later and not earlier for earlier, later in zip(statuses, statuses[1:])):
            raise PreconditionFailed("level statuses must shrink as regions shrink")
        return NATS if all(statuses) else sideset(nats=range(cuts[statuses.index(False)]))

    singles, pairs = initial(up_set), initial(lambda n: up_closure(side_set_of((n, A))))
    flags = [_eventually_inside(net, up_set(e), idl) for e in (A, TOP)]
    return SideFamily(singles, pairs, *flags, cv.stabilization_bound(net))


@logged("sidenat.is_eventual_liminf")
def is_eventual_liminf(fam: SideFamily, x: SideElement) -> Verdict:
    """Eventual lim-inf: family lim-inf convergence to ``x``, with ``x`` in
    the meet of the upper sets of the eventually-below family ``fam``.  A
    failure of the second names the first member whose upper set misses
    ``x`` (:meth:`SideFamily.first_outside`), as the finite backend does.
    Oracle: ``test_side_predicates_on_small_track_nets`` checks that the
    verdicts imply family convergence and pins their count."""
    first = converges_family_liminf(fam, x)
    if not first.holds:
        return Verdict(False, {"failed": "family_liminf", **first.witness})
    member = fam.first_outside(x)
    if member is not None:
        return Verdict(False, {"failed": "membership", "member": [str(e) for e in member]})
    return Verdict(True, {"family": fam.to_dict()})
