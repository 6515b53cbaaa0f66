"""An infinite dcpo with one point sitting beside the naturals.

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
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .errors import NotDirected, UnknownElement
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


def format_side_element(e: SideElement) -> str:
    return str(e)


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


def side_set_of(elements: Iterable[SideElement]) -> SideSet:
    es = list(elements)
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


def complement(x: SideSet) -> SideSet:
    return diff(FULL, x)


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


@logged("order.up_closure")
def up_closure(s: SideSet) -> SideSet:
    if s.is_empty:
        return EMPTY
    # canonical sets keep explicit naturals only below the tail, so the
    # closure starts at the least natural mentioned by either part
    cands = [*s.nats] + ([s.tail] if s.tail is not None else [])
    natpart = min(cands) if cands else None
    return sideset(tail=natpart, has_a=s.has_a, has_top=True)


@logged("order.down_closure")
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


def is_lower(s: SideSet) -> bool:
    return down_closure(s) == s or s.is_empty


@logged("order.is_directed")
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


@logged("order.directed_sup")
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
    """Backend marker for the side-point dcpo.

    The domain is a fixed mathematical object, so this carries no state;
    operations dispatch on the type and call the module functions.
    """

    name: str = "side_nat"


SIDE_NAT = SideNat()


@logged("order.truncate_side")
def truncate_side_nat(k: int) -> FinitePoset:
    """The finite sub-poset on ``{0..k, a, inf}``, with the same order.

    Useful as a corpus member: it keeps the side point and the top but is
    small enough for the brute-force backend.
    """
    nats = [str(i) for i in range(k + 1)]
    le = [(str(i), str(i + 1)) for i in range(k)] + [(str(k), TOP), (A, TOP)]
    return build_finite_poset(f"side_nat_to_{k}", nats + [A, TOP], le)
