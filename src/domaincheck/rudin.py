"""Extracting a directed set from a Smyth-directed family of finite sets.

Given finitely many nonempty finite sets, pairwise bounded below in the
Smyth preorder by members of the family, some directed subset of their
union meets every one of them.  On finite posets the construction is
elementary: the family owns a member with the smallest upper set, and a
least-indexed pick below one of its points, one pick per member, already
forms a directed set with that point on top.  The point of building it
explicitly is that every step is checkable, and the suites replay the
checks on randomized families.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import NotDirectedFamily, NoWitness, PreconditionFailed
from .oplog import logged
from .order import FinitePoset, bits
from .waybelow import smyth_leq  # noqa: F401  (perfbench/tracer.py wraps rudin.smyth_leq)


@logged("rudin.family_directed")
def is_directed_family(p: FinitePoset, fam: tuple[int, ...]) -> bool:
    """Smyth-directedness: each pair of members dominates a third.

    ``f <= k`` in the Smyth preorder iff ``up(k) <= up(f)``, so a pair
    ``f, g`` is dominated by ``k`` iff ``up(k) <= up(f) & up(g)``.  Each
    member's upper set is computed once, and a member dominates itself,
    so only distinct pairs are tested.
    """
    if not fam:
        return False
    ups = [p.up_of_mask(f) for f in fam]
    return all(any(k & ~(u & v) == 0 for k in ups) for u, v in combinations(ups, 2))


def _tightest_member(p: FinitePoset, fam: tuple[int, ...]) -> int:
    """The member with the unique smallest upper set, smallest mask first."""
    best = None
    for f in sorted(fam):
        if best is None or p.up_of_mask(f) & ~p.up_of_mask(best) == 0:
            if best is None or p.up_of_mask(f) != p.up_of_mask(best):
                best = f
    assert best is not None
    return best


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
    """Build and verify the directed transversal of a Smyth-directed family.

    Raises :class:`NotDirectedFamily` when the family is not
    Smyth-directed and :class:`PreconditionFailed` when a member is empty,
    since nothing can meet the empty member.
    """
    fam = tuple(dict.fromkeys(fam))
    if any(f == 0 for f in fam):
        raise PreconditionFailed("family members must be nonempty")
    if not is_directed_family(p, fam):
        raise NotDirectedFamily("the family is not directed under the Smyth preorder")
    tight = _tightest_member(p, fam)
    for f in fam:
        if p.up_of_mask(tight) & ~p.up_of_mask(f):
            raise NotDirectedFamily("no member has the smallest upper set")
    peak = next(bits(tight))
    picks = []
    for f in fam:
        pick = next(i for i in bits(f) if p.leq_ix(i, peak))
        picks.append(pick)
    d = 1 << peak
    for pick in picks:
        d |= 1 << pick
    if not p.is_directed_mask_pairwise(d):
        raise NoWitness("the constructed transversal failed its directedness check")
    for f in fam:
        if d & f == 0:
            raise NoWitness("the constructed transversal missed a family member")
    union = 0
    for f in fam:
        union |= f
    if d & ~union:
        raise NoWitness("the constructed transversal left the family's union")
    return RudinReport(fam, tight, peak, tuple(picks), d)


@logged("rudin.corollary")
def rudin_corollary(p: FinitePoset, fam: tuple[int, ...], open_mask: int) -> int:
    """A member whose upper set enters an upper-closed target.

    Preconditions: the family is Smyth-directed with nonempty members,
    the target is an upper set, and the intersection of the members'
    upper sets lies inside the target.  Some member's whole upper set is
    then inside the target; the proof is the extraction above applied to
    a family this size, and on finite posets the tightest member already
    realizes the intersection.
    """
    fam = tuple(dict.fromkeys(fam))
    if any(f == 0 for f in fam):
        raise PreconditionFailed("family members must be nonempty")
    if not is_directed_family(p, fam):
        raise NotDirectedFamily("the family is not directed under the Smyth preorder")
    if not p.is_upper_mask(open_mask):
        raise PreconditionFailed("the target must be an upper set")
    meet = p.universe
    for f in fam:
        meet &= p.up_of_mask(f)
    if meet & ~open_mask:
        raise PreconditionFailed("the upper sets must intersect inside the target")
    for f in fam:
        if p.up_of_mask(f) & ~open_mask == 0:
            return f
    raise NoWitness("no family member lands inside the target")
