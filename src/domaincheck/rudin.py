"""Extracting a directed set from a Smyth-directed family of finite sets.

Given finitely many nonempty finite sets, pairwise bounded below in the
Smyth preorder by members of the family, some directed subset of their
union meets every one of them.  On finite posets the construction is
elementary: the family owns a member whose upper set is the meet of all
(:func:`~domaincheck.order.smyth_meet` returns that meet), and a
least-indexed pick below one of its points, one pick per member, already
forms a directed set with that point on top.  The open-set corollary
reads the extracted report.

A family is decided by its (greatest member, member) pairs.  The
greatest member ``g``, whose upper set is the meet, is the tightest
member, and the peak is ``g``'s least point; each pick depends only on
(peak, member).  So a family's transversal is the union of its pairs'
transversals, and its verdict is the AND of its pairs' verdicts: the
``rudin`` suite decides the singleton ``(g,)`` and each pair ``(g, f)``
and counts the larger families from them
(``test_family_verdict_is_the_and_of_its_pairs``).
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


@dataclass(frozen=True)
class RudinReport:
    family: tuple[int, ...]
    ups: tuple[int, ...]  # each member's upper set, in ``family`` order
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
    """Build the directed transversal of a Smyth-directed family; the
    report keeps the distinct members' upper sets.

    The tightest member is the smallest one whose upper set is the meet.
    Every member has a point below the peak, since the tightest member's
    upper set lies inside every member's; so the transversal is directed,
    meets every member and stays inside their union, which the ``rudin``
    suite checks on every result.

    Raises :class:`PreconditionFailed` for an empty member, which nothing
    meets, and :class:`NotDirectedFamily` for an undirected family.
    """
    fam = tuple(dict.fromkeys(fam))
    if any(f == 0 for f in fam):
        raise PreconditionFailed("family members must be nonempty")
    ups = tuple(p.up_of_mask(f) for f in fam)
    meet = smyth_meet(ups)
    if meet is None:
        raise NotDirectedFamily("the family is not directed under the Smyth preorder")
    tight = min(f for f, u in zip(fam, ups) if u == meet)
    peak = next(bits(tight))
    picks = tuple(next(i for i in bits(f) if p.leq_ix(i, peak)) for f in fam)
    d = 1 << peak
    for pick in picks:
        d |= 1 << pick
    return RudinReport(fam, ups, tight, peak, picks, d)


@logged("rudin.corollary")
def rudin_corollary(p: FinitePoset, rep: RudinReport, open_mask: int) -> int:
    """The first member of ``rep.family`` whose upper set in ``rep.ups``
    lies inside an upper-closed target.

    A report exists only for a Smyth-directed family of nonempty members,
    so the checks left are the target's: it is an upper set and holds the
    meet of the members' upper sets, ``up(rep.tightest)``.  The meet is a
    member's upper set, so the search below always finds a member.
    """
    if not p.is_upper_mask(open_mask):
        raise PreconditionFailed("the target must be an upper set")
    if rep.ups[rep.family.index(rep.tightest)] & ~open_mask:
        raise PreconditionFailed("the upper sets must intersect inside the target")
    return next(f for f, u in zip(rep.family, rep.ups) if u & ~open_mask == 0)
