"""Way-below relations, approximating families, and domain classification
on finite posets.

On a finite poset every directed set contains its supremum, so the
way-below condition collapses to the Smyth preorder: ``g << h`` iff
``up(h) <= up(g)``, and :func:`set_way_below` decides it in closed form.
:func:`_set_way_below_definitional` keeps the literal quantification over
all directed subsets; the ``finite-collapse`` suite and
``test_finite_set_way_below_matches_definition`` check the closed form
against it.  The side-point dcpo's counterparts, with their shape oracle,
live in :mod:`~domaincheck.sidenat`.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from . import topology as tp
from .errors import PreconditionFailed
from .oplog import logged
from .order import FinitePoset, smyth_meet

def _as_mask(p: FinitePoset, s: int | Iterable[str]) -> int:
    return s if isinstance(s, int) else p.mask_of(s)


@logged("waybelow.smyth")
def smyth_leq(p: FinitePoset, g, h) -> bool:
    """The Smyth preorder on finite sets: ``g <= h`` iff ``up(h) <= up(g)``."""
    return set_way_below(p, g, h)


@logged("waybelow.set")
def set_way_below(p: FinitePoset, g, h) -> bool:
    """``g`` is way below ``h``: every directed set whose supremum lands
    in ``up(h)`` already meets ``up(g)``.

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
    return _as_mask(p, h) & ~p.up_of_mask(_as_mask(p, g)) == 0


def _set_way_below_definitional(p: FinitePoset, g, h) -> bool:
    """Way-below on a finite poset, by the definition: no directed subset
    with supremum in ``up(h)`` misses ``up(g)``."""
    gm, hm = _as_mask(p, g), _as_mask(p, h)
    upg, uph = p.up_of_mask(gm), p.up_of_mask(hm)
    for d, sup in p.directed_sups:
        if uph >> sup & 1 and d & upg == 0:
            return False
    return True


@logged("waybelow.waydown")
def waydown_of(p: FinitePoset, x) -> int:
    """All points way below ``x`` (the pointwise approximants of ``x``)."""
    ix = p.index(x) if isinstance(x, str) else x
    out = 0
    for y in range(p.n):
        if set_way_below(p, 1 << y, 1 << ix):
            out |= 1 << y
    return out


@logged("waybelow.fin")
def fin_of(p: FinitePoset, x) -> tuple[int, ...]:
    """The approximating family of ``x``: the antichain masks way below it
    (a finite set generates the upper set of its minimal elements)."""
    ix = p.index(x) if isinstance(x, str) else x
    return tuple(f for f in p.iter_antichain_masks() if set_way_below(p, f, 1 << ix))


@logged("waybelow.interpolate")
def interpolate(p: FinitePoset, h, x) -> int:
    """Given ``h`` way below ``x``, produce ``e`` with ``h << e << x``:
    on a finite poset ``{x}`` itself interpolates.  Raises
    :class:`PreconditionFailed` when ``h`` is not way below ``x``.
    """
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
