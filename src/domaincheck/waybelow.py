"""Way-below relations, approximating families, and domain classification.

On a finite poset everything here is literal brute force: the way-below
condition quantifies over all directed subsets, and those are enumerated
outright.  On the side-point dcpo the quantifier runs over infinitely
many directed sets, but every directed set falls into one of a handful
of shapes (a finite set of naturals, an unbounded set of naturals, the
singleton of the side point, or anything containing the top), and each
shape's contribution is decidable from the finite data of the arguments.
:func:`side_way_below_oracle` spells that shape analysis out; the closed
rule used by :func:`set_way_below` is checked against it by the suites.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import combinations

from . import sidenat as sn
from . import topology as tp
from .errors import NotDirected, PreconditionFailed
from .oplog import logged
from .order import FinitePoset, bits
from .sidenat import (
    A,
    EMPTY,
    FULL,
    SIDE_NAT,
    TOP,
    SideElement,
    SideNat,
    SideSet,
    sideset,
)

Backend = FinitePoset | SideNat
FiniteSetArg = int | Iterable[str]


def _as_mask(p: FinitePoset, s: FiniteSetArg) -> int:
    return s if isinstance(s, int) else p.mask_of(s)


def _as_elems(s: Iterable[SideElement]) -> tuple[SideElement, ...]:
    return tuple(sorted(set(s), key=sn.element_sort_key))


def _side_upset(elems: Iterable[SideElement]) -> SideSet:
    return sn.up_closure(sn.side_set_of(elems))


def _side_subset(x: SideSet, y: SideSet) -> bool:
    return sn.diff(x, y).is_empty


@logged("waybelow.smyth")
def smyth_leq(p: Backend, g, h) -> bool:
    """The Smyth preorder on finite sets: ``g <= h`` iff ``up(h) <= up(g)``."""
    if isinstance(p, SideNat):
        return _side_subset(_side_upset(h), _side_upset(g))
    gm, hm = _as_mask(p, g), _as_mask(p, h)
    return p.up_of_mask(hm) & ~p.up_of_mask(gm) == 0


@logged("waybelow.set")
def set_way_below(p: Backend, g, h) -> bool:
    """``g`` is way below ``h``: every directed set whose supremum lands
    in ``up(h)`` already meets ``up(g)``.

    The finite backend checks the definition against every directed
    subset.  The side-point backend applies the closed rule: ``up(h)``
    inside ``up(g)``, and ``g`` must contain a natural, because an
    unbounded set of naturals is directed with supremum at the top and
    only a natural in ``g`` puts its upper set in the way.
    """
    if isinstance(p, SideNat):
        ge, he = _as_elems(g), _as_elems(h)
        if not he:
            return True
        return any(isinstance(e, int) for e in ge) and _side_subset(_side_upset(he), _side_upset(ge))
    gm, hm = _as_mask(p, g), _as_mask(p, h)
    upg, uph = p.up_of_mask(gm), p.up_of_mask(hm)
    for d in p.iter_directed_masks():
        if uph >> p.directed_sup_mask(d) & 1 and d & upg == 0:
            return False
    return True


@logged("waybelow.point")
def point_way_below(p: Backend, x, y) -> bool:
    return set_way_below(p, (x,), (y,))


def side_way_below_oracle(g: Iterable[SideElement], h: Iterable[SideElement], *, margin: int = 2) -> bool:
    """Decide way-below on the side-point dcpo by enumerating shapes.

    Directed sets are checked one shape class at a time, with naturals
    drawn from a window that exceeds every natural mentioned in the
    arguments; beyond the window membership in either upper set is
    constant, so the window decides the general case.  This is the
    independent slow path used to validate :func:`set_way_below`.
    """
    ge, he = _as_elems(g), _as_elems(h)
    if not he:
        return True
    upg, uph = _side_upset(ge), _side_upset(he)
    nats = [e for e in list(ge) + list(he) if isinstance(e, int)]
    bound = max(nats, default=0) + margin

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


@logged("waybelow.way_up")
def way_up(p: Backend, f) -> int | SideSet:
    """All points that ``f`` is way below."""
    if isinstance(p, SideNat):
        fe = _as_elems(f)
        if not any(isinstance(e, int) for e in fe):
            return EMPTY
        return _side_upset(fe)
    fm = _as_mask(p, f)
    out = 0
    for x in range(p.n):
        if set_way_below(p, fm, 1 << x):
            out |= 1 << x
    return out


@logged("waybelow.waydown")
def waydown_of(p: Backend, x) -> int | SideSet:
    """All points way below ``x`` (the pointwise approximants of ``x``)."""
    if isinstance(p, SideNat):
        if x == A:
            return EMPTY
        if x == TOP:
            return sideset(tail=0)
        return sideset(nats=range(x + 1))
    ix = p.index(x) if isinstance(x, str) else x
    out = 0
    for y in range(p.n):
        if set_way_below(p, 1 << y, 1 << ix):
            out |= 1 << y
    return out


# -- families of finite sets on the side-point dcpo ------------------------


@dataclass(frozen=True)
class SideFamily:
    """A family of finite antichains, possibly with two infinite schemas.

    ``explicit`` lists concrete members.  ``singletons_from = s`` adds
    every ``{n}`` with ``n >= s``; ``pairs_from = q`` adds every
    ``{n, a}`` with ``n >= q``.  These schemas are the only infinite
    families the workbench needs: approximating families and ideal-level
    families on the side-point dcpo all take this form.
    """

    explicit: tuple[tuple[SideElement, ...], ...] = ()
    singletons_from: int | None = None
    pairs_from: int | None = None

    def _schema_covers(self, m: tuple[SideElement, ...]) -> bool:
        if len(m) == 1 and isinstance(m[0], int) and self.singletons_from is not None:
            return m[0] >= self.singletons_from
        if len(m) == 2 and isinstance(m[0], int) and m[1] == A and self.pairs_from is not None:
            return m[0] >= self.pairs_from
        return False

    @property
    def is_empty(self) -> bool:
        return not self.explicit and self.singletons_from is None and self.pairs_from is None

    def contains(self, member: Iterable[SideElement]) -> bool:
        m = sn.antichain_of(member)
        return m in self.explicit or self._schema_covers(m)

    def members_upto(self, k: int) -> tuple[tuple[SideElement, ...], ...]:
        out = list(self.explicit)
        if self.singletons_from is not None:
            out.extend((n,) for n in range(self.singletons_from, k))
        if self.pairs_from is not None:
            out.extend((n, A) for n in range(self.pairs_from, k))
        seen: list[tuple[SideElement, ...]] = []
        for m in out:
            if m not in seen:
                seen.append(m)
        return tuple(seen)

    def _stab(self) -> int:
        data = [e for m in self.explicit for e in m if isinstance(e, int)]
        for t in (self.singletons_from, self.pairs_from):
            if t is not None:
                data.append(t)
        return max(data, default=0) + 2

    def _has_member_below(self, target: SideSet) -> bool:
        """Is some member's upper set contained in ``target``?

        Schema members have arbitrarily late tails, so a schema witness
        exists iff ``target`` holds the top and a full tail of naturals
        (plus the side point, for the pair schema).
        """
        for m in self.explicit:
            if _side_subset(_side_upset(m), target):
                return True
        if self.singletons_from is not None and target.has_top and target.tail is not None:
            return True
        if self.pairs_from is not None and target.has_top and target.has_a and target.tail is not None:
            return True
        return False

    def is_directed(self) -> bool:
        """Smyth-directedness, decided exactly.

        Concrete members are checked pairwise.  Schema members with
        parameters beyond the stabilization bound produce intersections
        of a fixed shape, so a single representative at the bound covers
        every larger parameter; see the suite that cross-checks this
        against sampled concrete prefixes.
        """
        k = self._stab()
        ms = self.members_upto(k + 2)
        if not ms:
            return False
        ups = [_side_upset(m) for m in ms]
        for u1, u2 in combinations(ups, 2):
            if not self._has_member_below(sn.inter(u1, u2)):
                return False
        return True

    def upset_intersection(self) -> SideSet:
        """Intersection of the members' upper sets, schemas included.

        Tails with arbitrarily late cut points intersect to nothing, so
        the singleton schema contributes exactly the top and the pair
        schema exactly the side point with the top.
        """
        out = FULL
        for m in self.explicit:
            out = sn.inter(out, _side_upset(m))
        if self.singletons_from is not None:
            out = sn.inter(out, sideset(has_top=True))
        if self.pairs_from is not None:
            out = sn.inter(out, sideset(has_a=True, has_top=True))
        return out


def side_family(
    explicit: Iterable[Iterable[SideElement]] = (),
    singletons_from: int | None = None,
    pairs_from: int | None = None,
) -> SideFamily:
    """Build a :class:`SideFamily` with normalized, deduplicated members."""
    fam = SideFamily((), singletons_from, pairs_from)
    norm: list[tuple[SideElement, ...]] = []
    for m in explicit:
        mm = sn.antichain_of(m)
        if not mm:
            raise PreconditionFailed("family members must be nonempty")
        if mm not in norm and not fam._schema_covers(mm):
            norm.append(mm)
    return SideFamily(tuple(sorted(norm)), singletons_from, pairs_from)


@logged("waybelow.fin")
def fin_of(p: Backend, x) -> tuple[int, ...] | SideFamily:
    """The approximating family of ``x``: finite sets way below it.

    Finite backends return antichain masks (every finite set generates
    the same upper set as its minimal elements, so antichains are a
    canonical choice of representatives).  The side-point backend
    returns the closed-form :class:`SideFamily`.
    """
    if isinstance(p, SideNat):
        if x == A:
            return side_family(pairs_from=0)
        if x == TOP:
            return side_family(singletons_from=0, pairs_from=0)
        return side_family([(m,) for m in range(x + 1)] + [(m, A) for m in range(x + 1)])
    ix = p.index(x) if isinstance(x, str) else x
    return tuple(f for f in p.iter_antichain_masks() if set_way_below(p, f, 1 << ix))


@logged("waybelow.interpolate")
def interpolate(p: Backend, h, x):
    """Given ``h`` way below ``x``, produce ``e`` with ``h << e << x``.

    On a finite poset ``{x}`` itself interpolates.  On the side-point
    dcpo the witness depends only on which of the three regions ``x``
    lies in.  Raises :class:`PreconditionFailed` when ``h`` is not way
    below ``x``, and double-checks the returned witness.
    """
    if isinstance(p, SideNat):
        he = _as_elems(h)
        if not set_way_below(p, he, (x,)):
            raise PreconditionFailed(f"{he!r} is not way below {x!r}")
        if x == A:
            n = min(e for e in he if isinstance(e, int))
            e: tuple[SideElement, ...] = (n + 1, A)
        elif x == TOP:
            e = (min(i for i in he if isinstance(i, int)),)
        else:
            e = (x,)
        if not (set_way_below(p, he, e) and set_way_below(p, e, (x,))):
            raise PreconditionFailed(f"interpolant {e!r} failed revalidation")
        return e
    hm = _as_mask(p, h)
    ix = p.index(x) if isinstance(x, str) else x
    if not set_way_below(p, hm, 1 << ix):
        raise PreconditionFailed(f"{p.ids_of(hm)!r} is not way below {p.elements[ix]!r}")
    return 1 << ix


# -- classification --------------------------------------------------------


@dataclass(frozen=True)
class ClassifyReport:
    backend: str
    is_dcpo: bool
    is_continuous: bool
    is_quasi_continuous: bool
    is_meet_continuous: bool
    witnesses: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "backend": self.backend,
            "is_dcpo": self.is_dcpo,
            "is_continuous": self.is_continuous,
            "is_quasi_continuous": self.is_quasi_continuous,
            "is_meet_continuous": self.is_meet_continuous,
            "witnesses": self.witnesses,
        }


def _classify_finite(p: FinitePoset) -> ClassifyReport:
    witnesses: dict = {}
    dcpo = True  # a finite directed set has a greatest element, its supremum

    continuous = True
    for x in range(p.n):
        wd = waydown_of(p, x)
        if not p.is_directed_mask(wd) or p.directed_sup_mask(wd) != x:
            continuous = False
            witnesses["continuous"] = {"point": p.elements[x], "waydown": p.ids_of(wd)}
            break

    quasi = True
    for x in range(p.n):
        fam = fin_of(p, x)
        meet_ups = p.universe
        ok = bool(fam)
        for f, g in combinations(fam, 2):
            bound = p.up_of_mask(f) & p.up_of_mask(g)
            if not any(p.up_of_mask(e) & ~bound == 0 for e in fam):
                ok = False
                break
        for f in fam:
            meet_ups &= p.up_of_mask(f)
        if not ok or meet_ups != p.up[x]:
            quasi = False
            witnesses["quasi_continuous"] = {"point": p.elements[x]}
            break

    meet = True
    scott = tp.scott_topology(p)
    for x in range(p.n):
        for u in scott.opens:
            if p.up_of_mask(u & p.down[x]) not in scott.opens:
                meet = False
                witnesses["meet_continuous"] = {"point": p.elements[x], "open": p.ids_of(u)}
                break
        if not meet:
            break

    return ClassifyReport(p.name, dcpo, continuous, quasi, meet, witnesses)


def _classify_side(p: SideNat, sample: int = 8) -> ClassifyReport:
    witnesses: dict = {}

    shapes = [
        sideset(nats=[0, 3]),
        sideset(nats=range(sample)),
        sideset(tail=2),
        sideset(has_a=True),
        sideset(nats=[1], tail=4, has_top=True),
        FULL,
    ]
    witnesses["dcpo"] = {
        "checked_shapes": [sorted(map(str, s.members_upto(sample + 2))) for s in shapes],
        "sups": [str(sn.directed_sup(s)) for s in shapes],
    }
    dcpo = all(sn.directed_sup(s) in sn.up_closure(s) for s in shapes)

    continuous = True
    for x in [A, TOP, *range(sample)]:
        wd = waydown_of(p, x)
        if not sn.is_directed_set(wd) or sn.directed_sup(wd) != x:
            continuous = False
            witnesses["continuous"] = {
                "point": str(x),
                "waydown": sorted(map(str, wd.members_upto(sample))),
            }
            break

    quasi = True
    for x in [A, TOP, *range(sample)]:
        fam = fin_of(p, x)
        if not fam.is_directed() or fam.upset_intersection() != sn.up_set(x):
            quasi = False
            witnesses["quasi_continuous"] = {"point": str(x)}
            break

    u = FULL
    hull = sn.up_closure(sn.inter(u, sn.down_set(A)))
    meet = tp.side_is_open("scott", hull)
    if not meet:
        witnesses["meet_continuous"] = {
            "point": A,
            "open": "whole space",
            "hull": sorted(map(str, hull.members_upto(2))),
        }

    return ClassifyReport(p.name, dcpo, continuous, quasi, meet, witnesses)


@logged("waybelow.classify")
def classify(p: Backend) -> ClassifyReport:
    """Classify a backend as dcpo / continuous / quasi-continuous /
    meet-continuous, with witnesses for every negative answer."""
    if isinstance(p, SideNat):
        return _classify_side(p)
    return _classify_finite(p)
