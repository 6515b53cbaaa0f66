"""Command line entry points.

Subcommands cover the whole workbench: running verification suites,
listing the poset corpus, classifying a poset, tabulating the way-below
relation, printing a topology, checking a single convergence instance,
and extracting a directed transversal from a family of sets.

This is the one place that resolves element ids and topology names: the
finite library takes points as indexes, sets as masks and topologies as
:class:`~domaincheck.topology.Topology` objects.

Exit codes: 0 on success, 1 when a verification suite reports failures
or the reader closes standard output before the output is written, 2 on
usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import convergence as cv
from . import corpus as cp
from . import rudin as rd
from . import suites
from . import topology as tp
from . import waybelow as wb
from . import sidenat as sn
from .errors import DomainCheckError, UnknownElement
from .order import FinitePoset, json_field, poset_from_json
from .sidenat import SIDE_NAT, A, TOP, SideNat

Backend = FinitePoset | SideNat


def _resolve_backend(spec: str) -> Backend:
    """A poset argument is ``side_nat``, a corpus name, or a JSON file.
    A :class:`SideNat` runs the functions of :mod:`~domaincheck.sidenat`."""
    if spec == "side_nat":
        return SIDE_NAT
    if spec.endswith(".json") or os.path.sep in spec:
        path = Path(spec)
        if not path.exists():
            raise UnknownElement(f"poset file {spec!r} does not exist")
        return poset_from_json(path.read_text())
    return cp.resolve_poset(spec)


def _require_finite(p: Backend, what: str) -> FinitePoset:
    if isinstance(p, SideNat):
        raise DomainCheckError(f"{what} needs a finite poset; the side-point dcpo is infinite")
    return p


def _opens_as_lists(p: FinitePoset, opens) -> list[list]:
    rendered = [sorted(p.ids_of(u)) for u in opens]
    rendered.sort(key=lambda ids: (len(ids), ids))
    return rendered


def _parse_point(p: Backend, raw: str):
    """A side-point element, or the index of an element id of a finite poset."""
    if isinstance(p, SideNat):
        return sn.parse_side_element(raw)
    return p.index(raw)


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _check_max_size(max_size: int) -> int:
    if max_size < 1:
        raise DomainCheckError(f"--max-size must be at least 1, not {max_size}")
    return max_size


def _cmd_verify(args: argparse.Namespace) -> int:
    max_size = _check_max_size(args.max_size)
    seed = args.seed
    if seed is None:
        raw = os.environ.get("DOMAINCHECK_SEED", "0")
        try:
            seed = int(raw)
        except ValueError:
            raise DomainCheckError(f"DOMAINCHECK_SEED must be an integer, not {raw!r}") from None
    report = suites.run_suite(args.suite, max_size=max_size, seed=seed)
    sys.stdout.write(suites.emit_report(report, args.format).decode())
    return 0 if report.ok else 1


def _cmd_corpus(args: argparse.Namespace) -> int:
    # argparse admits only "list".
    for name, p in cp.all_corpus(_check_max_size(args.max_size)).items():
        sys.stdout.write(f"{name} {p.n}\n")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    p = _resolve_backend(args.poset)
    _emit((sn.classify() if isinstance(p, SideNat) else wb.classify(p)).to_dict())
    return 0


def _cmd_waybelow(args: argparse.Namespace) -> int:
    p = _resolve_backend(args.poset)
    if isinstance(p, SideNat):
        points = [0, 1, 2, 3, 4, 5, A, TOP]
        out = {
            "poset": "side_nat",
            "note": f"naturals shown up to {points[-3]}",
            "points": [[str(x), str(y)] for x in points for y in points if sn.set_way_below((x,), (y,))],
        }
        if args.sets:
            chains = list(sn.iter_antichains_upto(4))
            out["sets"] = [
                [[str(e) for e in g], [str(e) for e in h]]
                for g in chains
                for h in chains
                if sn.set_way_below(g, h)
            ]
        _emit(out)
        return 0
    out = {
        "poset": p.name,
        "points": [
            [x, y]
            for i, x in enumerate(p.elements)
            for j, y in enumerate(p.elements)
            if wb.set_way_below(p, 1 << i, 1 << j)
        ],
    }
    if args.sets:
        # The set table compares every pair of antichains; refuse a poset
        # too large for it, as ``classify`` does, before enumerating any.
        tp._guard_size(p, "antichain enumeration")
        chains = list(p.iter_antichain_masks())
        out["sets"] = [
            [sorted(p.ids_of(g)), sorted(p.ids_of(h))]
            for g in chains
            for h in chains
            if wb.set_way_below(p, g, h)
        ]
    _emit(out)
    return 0


def _cmd_topology(args: argparse.Namespace) -> int:
    p = _require_finite(_resolve_backend(args.poset), "the topology table")
    topo = tp.family_liminf_topology(p) if args.kind == "glim" else tp.finite_topology(p, args.kind)
    _emit({"poset": p.name, "kind": args.kind, "opens": _opens_as_lists(p, topo.opens)})
    return 0


def _cmd_converge(args: argparse.Namespace) -> int:
    p = _resolve_backend(args.poset)
    net = cv.net_from_json(Path(args.net).read_text())
    ideal_spec = json.loads(Path(args.ideal).read_text())
    if not isinstance(ideal_spec, dict):
        raise DomainCheckError("the ideal JSON must be an object with a 'kind' field")
    idl = cv.ideal(json_field(ideal_spec, "kind", "the ideal JSON document"), cv.net_index(net))
    x = _parse_point(p, args.point)
    # The predicates of both backends share names.  The lim-inf ones read a
    # (net, ideal) pair as one value, the side-point eventually-below family
    # or the finite trap mask; side-point topology reads the net and ideal.
    if isinstance(p, SideNat):
        lib, head = sn, (net, x, idl) if args.mode == "topo" else (sn.eventual_family(net, idl), x)
    else:
        lib, head = cv, (p, cv.trap_mask(p, net, idl), x)
    if args.mode == "liminf":
        verdict = lib.converges_liminf(*head)
    elif args.mode == "family":
        verdict = lib.converges_family_liminf(*head)
    elif args.mode == "eventual":
        verdict = lib.is_eventual_liminf(*head)
    else:  # "topo", the last of argparse's choices
        topo = args.topology if isinstance(p, SideNat) else tp.finite_topology(p, args.topology)
        verdict = lib.converges_topological(*head, topo)
    out = {"mode": args.mode, "point": args.point, "ideal": idl.kind}
    if args.mode == "topo":
        out["topology"] = args.topology
    out.update(verdict.to_dict())
    _emit(out)
    return 0


def _cmd_rudin(args: argparse.Namespace) -> int:
    p = _require_finite(_resolve_backend(args.poset), "directed transversal extraction")
    fam_spec = json.loads(Path(args.family).read_text())
    sets = fam_spec.get("sets") if isinstance(fam_spec, dict) else None
    if not isinstance(sets, list) or not all(
        isinstance(s, list) and all(isinstance(e, str) for e in s) for s in sets
    ):
        raise DomainCheckError("the family JSON must be an object whose 'sets' is a list of id lists")
    members = [p.mask_of(s) for s in sets]
    report = rd.extract_directed(p, members)
    _emit(report.to_dict(p))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="domaincheck",
        description="Order-theoretic verification workbench for finite posets "
        "and the side-point dcpo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", required=True, help="suite name or 'all'")
    v.add_argument("--max-size", type=int, default=5, help="largest exhaustive poset size")
    v.add_argument(
        "--seed",
        type=int,
        help="seed recorded in the report; no suite reads it (default: $DOMAINCHECK_SEED or 0)",
    )
    v.add_argument("--format", choices=("json", "text"), default="json")
    v.set_defaults(fn=_cmd_verify)

    c = sub.add_parser("corpus", help="inspect the poset corpus")
    c.add_argument("action", choices=("list",))
    c.add_argument("--max-size", type=int, default=5)
    c.set_defaults(fn=_cmd_corpus)

    cl = sub.add_parser("classify", help="dcpo / continuity classification")
    cl.add_argument("--poset", required=True)
    cl.set_defaults(fn=_cmd_classify)

    w = sub.add_parser("waybelow", help="tabulate the way-below relation")
    w.add_argument("--poset", required=True)
    w.add_argument("--sets", action="store_true", help="include the finite-set relation")
    w.set_defaults(fn=_cmd_waybelow)

    t = sub.add_parser("topology", help="print a topology's open sets")
    t.add_argument("--poset", required=True)
    t.add_argument("--kind", required=True, choices=(*tp.TOPOLOGY_KINDS, "glim"))
    t.set_defaults(fn=_cmd_topology)

    g = sub.add_parser("converge", help="check one convergence instance")
    g.add_argument("--mode", required=True, choices=("liminf", "family", "eventual", "topo"))
    g.add_argument("--poset", required=True)
    g.add_argument("--net", required=True, help="net JSON file")
    g.add_argument("--ideal", required=True, help="ideal JSON file")
    g.add_argument("--point", required=True)
    g.add_argument("--topology", choices=tp.TOPOLOGY_KINDS, default="scott")
    g.set_defaults(fn=_cmd_converge)

    r = sub.add_parser("rudin", help="extract a directed transversal")
    r.add_argument("--poset", required=True)
    r.add_argument("--family", required=True, help="family JSON file with a 'sets' list")
    r.set_defaults(fn=_cmd_rudin)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed stdout raises here, inside the try
        return code
    except BrokenPipeError:
        # The reader stopped early (``domaincheck corpus list | head -1``).
        # Point stdout at devnull so the flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except (DomainCheckError, OSError, json.JSONDecodeError, KeyError, ValueError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
