"""Order-theoretic verification workbench.

Finite posets are checked by brute force; the side-point dcpo (the
naturals with a top and an incomparable side point) is checked by exact
closed forms.  The suites in :mod:`domaincheck.suites` replay every
verified statement across both backends.
"""

from __future__ import annotations

from .convergence import (
    FiniteNet,
    Ideal,
    OmegaSet,
    TrackNet,
    ascend_track,
    const_track,
    converges_family_liminf,
    converges_liminf,
    converges_topological,
    derive_convergence_topology,
    eventual_family,
    exception_set,
    finite_net,
    ideal,
    is_eventual_liminf,
    net_from_json,
    net_to_json,
    omega_set,
    track_net,
    trap_mask,
)
from .corpus import all_corpus, generate_all_posets, named_posets, resolve_poset
from .errors import DomainCheckError
from .order import FinitePoset, build_finite_poset, poset_from_json, poset_to_json
from .rudin import extract_directed, is_directed_family, rudin_corollary
from .sidenat import SIDE_NAT, SideNat, SideSet, sideset
from .suites import SuiteReport, emit_report, parse_report, run_suite, suite_names
from .topology import (
    Topology,
    family_liminf_topology,
    lawson_topology,
    lower_topology,
    scott_topology,
)
from .waybelow import (
    classify,
    fin_of,
    interpolate,
    set_way_below,
    smyth_leq,
    waydown_of,
)

__version__ = "0.1.0"

__all__ = [
    "DomainCheckError",
    "FiniteNet",
    "FinitePoset",
    "Ideal",
    "OmegaSet",
    "SIDE_NAT",
    "SideNat",
    "SideSet",
    "SuiteReport",
    "Topology",
    "TrackNet",
    "all_corpus",
    "ascend_track",
    "build_finite_poset",
    "classify",
    "const_track",
    "converges_family_liminf",
    "converges_liminf",
    "converges_topological",
    "derive_convergence_topology",
    "emit_report",
    "eventual_family",
    "exception_set",
    "extract_directed",
    "family_liminf_topology",
    "fin_of",
    "finite_net",
    "generate_all_posets",
    "ideal",
    "interpolate",
    "is_directed_family",
    "is_eventual_liminf",
    "lawson_topology",
    "lower_topology",
    "named_posets",
    "net_from_json",
    "net_to_json",
    "omega_set",
    "parse_report",
    "poset_from_json",
    "poset_to_json",
    "resolve_poset",
    "rudin_corollary",
    "run_suite",
    "scott_topology",
    "set_way_below",
    "sideset",
    "smyth_leq",
    "suite_names",
    "track_net",
    "trap_mask",
    "waydown_of",
]
