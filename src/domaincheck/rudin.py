"""Extracting a directed set from a Smyth-directed family of finite sets.

Given finitely many nonempty finite sets, pairwise bounded below in the
Smyth preorder by members of the family, some directed subset of their
union meets every one of them.  On finite posets the construction is
elementary: the family owns a member whose upper set is the meet of all
(:func:`~domaincheck.order.smyth_meet` returns that meet), and a
least-indexed pick below one of its points, one pick per member, already
forms a directed set with that point on top.  The ``rudin`` suite checks
every extracted transversal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotDirectedFamily, PreconditionFailed
from .oplog import logged
from .order import FinitePoset, bits, smyth_meet
from .waybelow import smyth_leq  # noqa: F401  (perfbench/tracer.py wraps rudin.smyth_leq)


@logged("rudin.family_directed")
def is_directed_family(p: FinitePoset, fam: tuple[int, ...]) -> bool:
    """Smyth-directedness of a family of masks (see :func:`smyth_meet`)."""
    return smyth_meet([p.up_of_mask(f) for f in fam]) is not None


def _directed_members(p: FinitePoset, fam: tuple[int, ...]) -> tuple[tuple[int, ...], list[int], int]:
    """The family's distinct members, their upper sets and the meet of
    those, once the family is checked to be Smyth-directed with nonempty
    members.

    Raises :class:`PreconditionFailed` when a member is empty, since
    nothing can meet the empty member, and :class:`NotDirectedFamily`
    when the family is not Smyth-directed.
    """
    fam = tuple(dict.fromkeys(fam))
    if any(f == 0 for f in fam):
        raise PreconditionFailed("family members must be nonempty")
    ups = [p.up_of_mask(f) for f in fam]
    meet = smyth_meet(ups)
    if meet is None:
        raise NotDirectedFamily("the family is not directed under the Smyth preorder")
    return fam, ups, meet


@dataclass(frozen=True)
class RudinReport:
    family: tuple[int, ...]
    tightest: int
    peak: int
    picks: tuple[int, ...]
    directed_set: int

    def to_dict(self, p: FinitePoset) -> dict:
        return {
            "family": [list(p.ids_of(f)) for f in self.family],
            "tightest": list(p.ids_of(self.tightest)),
            "peak": p.elements[self.peak],
            "picks": [p.elements[i] for i in self.picks],
            "directed_set": list(p.ids_of(self.directed_set)),
        }


@logged("rudin.extract")
def extract_directed(p: FinitePoset, fam: tuple[int, ...]) -> RudinReport:
    """Build the directed transversal of a Smyth-directed family.

    The tightest member is the smallest one whose upper set is the meet.
    Every member has a point below the peak, since the tightest member's
    upper set lies inside every member's; so the transversal is directed,
    meets every member and stays inside their union, which the ``rudin``
    suite checks on every result.

    Raises as :func:`_directed_members` does.
    """
    fam, ups, meet = _directed_members(p, fam)
    tight = min(f for f, u in zip(fam, ups) if u == meet)
    peak = next(bits(tight))
    picks = tuple(next(i for i in bits(f) if p.leq_ix(i, peak)) for f in fam)
    d = 1 << peak
    for pick in picks:
        d |= 1 << pick
    return RudinReport(fam, tight, peak, picks, d)


@logged("rudin.corollary")
def rudin_corollary(p: FinitePoset, fam: tuple[int, ...], open_mask: int) -> int:
    """A member whose upper set enters an upper-closed target.

    Preconditions: the family is Smyth-directed with nonempty members
    (:func:`_directed_members`), the target is an upper set, and the
    intersection of the members' upper sets lies inside the target.  Some
    member's whole upper set is then inside the target: the intersection
    is the meet, which :func:`_directed_members` returns only when it is
    some member's upper set, so the search below always finds a member.
    """
    fam, ups, meet = _directed_members(p, fam)
    if not p.is_upper_mask(open_mask):
        raise PreconditionFailed("the target must be an upper set")
    if meet & ~open_mask:
        raise PreconditionFailed("the upper sets must intersect inside the target")
    return next(f for f, u in zip(fam, ups) if u & ~open_mask == 0)
