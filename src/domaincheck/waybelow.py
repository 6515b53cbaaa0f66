"""Way-below relations, approximating families, and domain classification
on finite posets.

On a finite poset every directed set contains its supremum, so the
way-below condition collapses to the Smyth preorder: ``g << h`` iff
``up(h) <= up(g)``, and :func:`set_way_below` decides it in closed form.
:func:`_set_way_below_definitional` keeps the literal quantification over
all directed subsets, read once per ``g`` as a row of escaping suprema
(:func:`_escape_mask`); the ``finite-collapse`` suite and
``test_finite_set_way_below_matches_definition`` check the closed form
against it.  The side-point dcpo's counterparts, with their shape oracle,
live in :mod:`~domaincheck.sidenat`.

Points are indexes and finite sets are masks; the command line resolves
element ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import topology as tp
from .errors import PreconditionFailed
from .oplog import logged
from .order import FinitePoset, smyth_meet


@logged("waybelow.smyth")
def smyth_leq(p: FinitePoset, g: int, h: int) -> bool:
    """The Smyth preorder on finite sets, given as masks: ``g <= h`` iff
    ``up(h) <= up(g)``.  Decided from both upper sets, independently of
    :func:`set_way_below`, which the ``finite-collapse`` suite compares
    with it."""
    return p.up_of_mask(h) & ~p.up_of_mask(g) == 0


@logged("waybelow.set")
def set_way_below(p: FinitePoset, g: int, h: int) -> bool:
    """The set of mask ``g`` is way below that of mask ``h``: every
    directed set whose supremum lands in ``up(h)`` already meets ``up(g)``.

    On a finite poset every directed set contains its supremum, so the
    condition is the Smyth preorder ``up(h) <= up(g)``: a singleton
    ``{y}`` with ``y`` in ``up(h)`` is directed and must meet ``up(g)``,
    and conversely a directed set whose supremum is in ``up(h)`` contains
    that supremum.  ``up(g)`` is an upper set, so ``up(h) <= up(g)`` iff
    ``h <= up(g)``, and only ``up(g)`` is built.
    :func:`_set_way_below_definitional` enumerates every directed subset
    instead; the ``finite-collapse`` suite and
    ``test_finite_set_way_below_matches_definition`` compare the two.
    """
    return h & ~p.up_of_mask(g) == 0


def _escape_mask(p: FinitePoset, upg: int) -> int:
    """The mask of suprema of the directed subsets that miss ``upg``,
    quantifying over every directed subset in ``p.directed_sups``."""
    out = 0
    for d, sup in p.directed_sups:
        if d & upg == 0:
            out |= 1 << sup
    return out


def _set_way_below_definitional(p: FinitePoset, g: int, h: int) -> bool:
    """Way-below of masks on a finite poset, by the definition: no
    directed subset with supremum in ``up(h)`` misses ``up(g)``.

    Grouped by ``g``, the definition reads ``up(h)`` against one row,
    :func:`_escape_mask` of ``up(g)``, the suprema of the directed subsets
    that miss ``up(g)``: ``g << h`` iff ``up(h)`` holds none of them.  A
    caller comparing many ``h`` with one ``g`` builds the row once."""
    return p.up_of_mask(h) & _escape_mask(p, p.up_of_mask(g)) == 0


@logged("waybelow.waydown")
def waydown_of(p: FinitePoset, ix: int) -> int:
    """The mask of all points way below the point of index ``ix`` (its
    pointwise approximants)."""
    out = 0
    for y in range(p.n):
        if set_way_below(p, 1 << y, 1 << ix):
            out |= 1 << y
    return out


@logged("waybelow.fin")
def fin_of(p: FinitePoset, ix: int) -> tuple[int, ...]:
    """The approximating family of the point of index ``ix``: the
    antichain masks way below it (a finite set generates the upper set of
    its minimal elements)."""
    return tuple(f for f in p.iter_antichain_masks() if set_way_below(p, f, 1 << ix))


@logged("waybelow.interpolate")
def interpolate(p: FinitePoset, h: int, ix: int) -> int:
    """Given the mask ``h`` way below the point of index ``ix``, produce
    a mask ``e`` with ``h << e << ix``: on a finite poset ``{ix}`` itself
    interpolates.  Raises :class:`PreconditionFailed` when ``h`` is not
    way below ``ix``.
    """
    if not set_way_below(p, h, 1 << ix):
        raise PreconditionFailed(f"{p.ids_of(h)!r} is not way below {p.elements[ix]!r}")
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


@logged("waybelow.classify")
def classify(p: FinitePoset) -> ClassifyReport:
    """Classify a finite poset as dcpo / continuous / quasi-continuous /
    meet-continuous, with witnesses for every negative answer."""
    # The meet-continuity check walks the Scott opens, so refuse a poset
    # too large to enumerate them before any other work.
    tp._guard_size(p)
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
        if smyth_meet([p.up_of_mask(f) for f in fin_of(p, x)]) != p.up[x]:
            quasi = False
            witnesses["quasi_continuous"] = {"point": p.elements[x]}
            break

    meet = True
    scott = frozenset(p.upper_masks)  # the Scott opens, as ``scott_topology`` states
    for x in range(p.n):
        for u in scott:
            if p.up_of_mask(u & p.down[x]) not in scott:
                meet = False
                witnesses["meet_continuous"] = {"point": p.elements[x], "open": p.ids_of(u)}
                break
        if not meet:
            break

    return ClassifyReport(p.name, dcpo, continuous, quasi, meet, witnesses)
