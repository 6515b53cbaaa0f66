"""Command line interface: outputs, exit codes, environment seeding."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

from domaincheck import convergence as cv
from domaincheck import sidenat as sn
from domaincheck import topology as tp
from domaincheck.cli import main
from domaincheck.corpus import named_posets


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_corpus_list(capsys):
    code, out, _ = run_cli(capsys, "corpus", "list")
    lines = out.strip().splitlines()
    assert code == 0
    assert "diamond 4" in lines and "p1_0 1" in lines
    assert len(lines) == 104


def test_classify_side_nat(capsys):
    code, out, _ = run_cli(capsys, "classify", "--poset", "side_nat")
    d = json.loads(out)
    assert code == 0
    assert d["is_quasi_continuous"] and not d["is_continuous"]


def test_classify_named(capsys):
    code, out, _ = run_cli(capsys, "classify", "--poset", "diamond")
    d = json.loads(out)
    assert code == 0 and d["is_continuous"]


def test_classify_from_file(tmp_path, capsys):
    path = tmp_path / "vee.json"
    path.write_text(
        json.dumps({"name": "vee", "elements": ["z", "x", "y"], "le": [["z", "x"], ["z", "y"]]})
    )
    code, out, _ = run_cli(capsys, "classify", "--poset", str(path))
    assert code == 0 and json.loads(out)["is_dcpo"]


def test_topology_scott_diamond(capsys):
    code, out, _ = run_cli(capsys, "topology", "--poset", "diamond", "--kind", "scott")
    d = json.loads(out)
    assert code == 0
    assert d["opens"][0] == [] and d["opens"][-1] == ["bot", "l", "r", "top"]
    assert ["top"] in d["opens"]
    assert len(d["opens"]) == 6


def test_topology_glim_prints_scott_opens(capsys):
    """``--kind glim`` prints the opens of the family lim-inf topology,
    which are the Scott opens, for every named poset of size at most 5."""
    named = {name: p for name, p in named_posets().items() if p.n <= 5}
    assert len(named) > 10
    for name, p in named.items():
        printed = {}
        for kind in ("glim", "scott"):
            code, out, _ = run_cli(capsys, "topology", "--poset", name, "--kind", kind)
            assert code == 0, (name, kind)
            printed[kind] = json.loads(out)["opens"]
        assert printed["glim"] == printed["scott"], name
        family = {tuple(sorted(p.ids_of(u))) for u in tp.family_liminf_topology(p).opens}
        assert {tuple(ids) for ids in printed["glim"]} == family, name


def test_topology_glim_rejects_oversized_poset(tmp_path, capsys):
    elements = [f"e{i}" for i in range(15)]
    path = tmp_path / "antichain15.json"
    path.write_text(json.dumps({"name": "antichain15", "elements": elements, "le": []}))
    code, out, err = run_cli(capsys, "topology", "--poset", str(path), "--kind", "glim")
    assert code == 2 and out == ""
    assert err.startswith("error: topology enumeration over 15 elements")
    assert "the limit is 14 elements" in err


def test_classify_rejects_oversized_poset_fast(tmp_path):
    """``classify`` refuses a poset too large for its Scott opens before
    doing any other work: a 24-element antichain exits 2 with an
    ``error:`` line well inside the timeout."""
    path = tmp_path / "antichain24.json"
    elements = [f"e{i}" for i in range(24)]
    path.write_text(json.dumps({"name": "antichain24", "elements": elements, "le": []}))
    code, err = _cli_to(subprocess.PIPE, "classify", "--poset", str(path), timeout=10)
    assert code == 2 and err.decode().startswith("error:") and "24 elements" in err.decode()
    assert "the limit is 14 elements" in err.decode()


def test_waybelow_sets_rejects_oversized_poset_fast(tmp_path):
    """``waybelow --sets`` refuses a poset too large for its table of
    antichain pairs before enumerating them: a 15-element antichain exits
    2 with an ``error:`` line well inside the timeout."""
    path = tmp_path / "antichain15.json"
    elements = [f"e{i}" for i in range(15)]
    path.write_text(json.dumps({"name": "antichain15", "elements": elements, "le": []}))
    code, err = _cli_to(subprocess.PIPE, "waybelow", "--poset", str(path), "--sets", timeout=10)
    assert code == 2 and err.decode().startswith("error: antichain enumeration over 15 elements")
    assert "the limit is 14 elements" in err.decode()


def test_converge_eventual_rejects_oversized_poset_fast(tmp_path):
    """``converge --mode eventual`` refuses a poset too large for its
    eventually-below family before enumerating the antichains: a
    15-element antichain exits 2 with an ``error:`` line well inside the
    timeout."""
    path = tmp_path / "antichain15.json"
    elements = [f"e{i}" for i in range(15)]
    path.write_text(json.dumps({"name": "antichain15", "elements": elements, "le": []}))
    net = tmp_path / "net.json"
    net.write_text(json.dumps({"index": "omega", "tracks": [{"kind": "const", "value": "e0"}]}))
    ideal = tmp_path / "ideal.json"
    ideal.write_text(json.dumps({"kind": "eventual"}))
    argv = ("converge", "--mode", "eventual", "--poset", str(path), "--net", str(net))
    code, err = _cli_to(
        subprocess.PIPE, *argv, "--ideal", str(ideal), "--point", "e0", timeout=10
    )
    assert code == 2 and err.decode().startswith("error: antichain enumeration over 15 elements")
    assert "the limit is 14 elements" in err.decode()


def test_topology_rejects_side_nat(capsys):
    code, _, err = run_cli(capsys, "topology", "--poset", "side_nat", "--kind", "scott")
    assert code == 2 and "finite" in err


def test_rudin_rejects_side_nat_before_reading_the_family(tmp_path, capsys):
    missing = tmp_path / "no-such-family.json"
    code, out, err = run_cli(capsys, "rudin", "--poset", "side_nat", "--family", str(missing))
    assert code == 2 and not out
    assert "needs a finite poset" in err and "No such file" not in err


def test_waybelow_table(capsys):
    code, out, _ = run_cli(capsys, "waybelow", "--poset", "p2_1", "--sets")
    d = json.loads(out)
    assert code == 0
    assert ["e0", "e1"] in d["points"]
    assert [["e0"], ["e1"]] in d["sets"]


def test_converge_family_interleaved(tmp_path, capsys):
    net = tmp_path / "net.json"
    net.write_text(
        json.dumps(
            {
                "index": "omega",
                "period": 2,
                "tracks": [{"kind": "ascend"}, {"kind": "const", "value": "a"}],
            }
        )
    )
    ideal = tmp_path / "ideal.json"
    ideal.write_text(json.dumps({"kind": "eventual"}))
    code, out, _ = run_cli(
        capsys,
        "converge",
        "--mode",
        "family",
        "--poset",
        "side_nat",
        "--net",
        str(net),
        "--ideal",
        str(ideal),
        "--point",
        "a",
    )
    d = json.loads(out)
    assert code == 0 and d["holds"] and d["witness"]["shape"] == "pair_schema"
    code, out, _ = run_cli(
        capsys,
        "converge",
        "--mode",
        "topo",
        "--topology",
        "lawson",
        "--poset",
        "side_nat",
        "--net",
        str(net),
        "--ideal",
        str(ideal),
        "--point",
        "a",
    )
    d = json.loads(out)
    assert code == 0 and not d["holds"]


# sha256 of ``waybelow --poset side_nat --sets`` on stdout.  A change that
# alters the table on purpose updates this value.
SIDE_WAYBELOW_SETS_SHA256 = "fe8613331d54de8f4210a4a6c555e47e98cdb66810335d33241d5a3401ac28ae"


def test_waybelow_side_nat_table_is_pinned(capsys):
    """The side-point table comes from ``sidenat``: the pairs ``{n, a}``
    are way below ``a``, nothing is way below ``a`` pointwise, and the
    bytes are pinned."""
    code, out, _ = run_cli(capsys, "waybelow", "--poset", "side_nat", "--sets")
    d = json.loads(out)
    assert code == 0 and d["poset"] == "side_nat"
    assert ["0", "inf"] in d["points"] and not any(y == "a" for _, y in d["points"])
    assert [["0", "a"], ["a"]] in d["sets"] and [["a"], ["a"]] not in d["sets"]
    assert hashlib.sha256(out.encode()).hexdigest() == SIDE_WAYBELOW_SETS_SHA256


# The predicate each ``converge --mode`` runs, on the side-point dcpo and
# on a finite poset.  The side-point lim-inf predicates take the net's
# eventually-below family, and topological convergence the net and ideal.
CONVERGE_PREDICATES = {
    "liminf": (sn.converges_liminf, cv.converges_liminf),
    "family": (sn.converges_family_liminf, cv.converges_family_liminf),
    "eventual": (sn.is_eventual_liminf, cv.is_eventual_liminf),
    "topo": (sn.converges_topological, cv.converges_topological),
}

# The interleaved and the ascending net on the naturals, and a net over a
# two-point chain, each with the points it is asked about.
CONVERGE_NETS = {
    "side_nat": {
        "interleaved": (
            {"index": "omega", "tracks": [{"kind": "ascend"}, {"kind": "const", "value": "a"}]},
            ("a", "inf", "0"),
        ),
        "ascending": ({"index": "omega", "tracks": [{"kind": "ascend"}]}, ("a", "inf", "0")),
    },
    "diamond": {
        "chain2": (
            {
                "index": {"name": "chain2", "elements": ["c0", "c1"], "le": [["c0", "c1"]]},
                "map": {"c0": "bot", "c1": "l"},
            },
            ("bot", "l", "r", "top"),
        ),
    },
}

# Witnesses at ``a`` that report the window the net's eventually-below
# family was decided on, written out so that a wrong carried bound fails.
SIDE_WITNESSES_AT_A = {
    ("ascending", "liminf"): {"shape": "natural_chain", "checked_upto": 1},
    ("ascending", "family"): {"shape": "singleton_schema", "checked_upto": 1},
    ("interleaved", "family"): {"shape": "pair_schema", "checked_upto": 1},
}


@pytest.mark.parametrize(
    "mode, topology",
    [("liminf", None), ("family", None), ("eventual", None), ("topo", "scott"), ("topo", "lawson")],
    ids=["liminf", "family", "eventual", "topo-scott", "topo-lawson"],
)
@pytest.mark.parametrize("poset", sorted(CONVERGE_NETS))
def test_converge_prints_the_backend_predicate(tmp_path, capsys, poset, mode, topology):
    """``converge`` resolves the backend once and prints the verdict of
    that backend's predicate: ``holds`` and ``witness`` equal the direct
    library call's ``to_dict()`` at every listed point, and the side-point
    witnesses of :data:`SIDE_WITNESSES_AT_A` are the literal ones."""
    ideal_path = tmp_path / "ideal.json"
    ideal_path.write_text(json.dumps({"kind": "eventual"}))
    side, finite = CONVERGE_PREDICATES[mode]
    pinned = set()
    for label, (doc, points) in CONVERGE_NETS[poset].items():
        net_path = tmp_path / f"{label}.json"
        net_path.write_text(json.dumps(doc))
        net = cv.net_from_json(net_path.read_text())
        idl = cv.ideal("eventual", cv.net_index(net))
        argv = ["converge", "--mode", mode, "--poset", poset, "--net", str(net_path)]
        argv += ["--ideal", str(ideal_path)] + (["--topology", topology] if topology else [])
        for point in points:
            code, out, err = run_cli(capsys, *argv, "--point", point)
            assert code == 0, err
            printed = json.loads(out)
            if poset == "side_nat" and topology:
                direct = side(net, sn.parse_side_element(point), idl, topology)
            elif poset == "side_nat":
                direct = side(sn.eventual_family(net, idl), sn.parse_side_element(point))
            else:
                p = named_posets()[poset]
                extra = (tp.finite_topology(p, topology),) if topology else ()
                direct = finite(p, cv.trap_mask(p, net, idl), p.index(point), *extra)
            expected = json.loads(json.dumps(direct.to_dict()))
            assert {k: printed[k] for k in ("holds", "witness")} == expected, (label, point)
            if point == "a" and (label, mode) in SIDE_WITNESSES_AT_A:
                assert printed["witness"] == SIDE_WITNESSES_AT_A[label, mode], label
                pinned.add((label, mode))
    assert pinned == {key for key in SIDE_WITNESSES_AT_A if key[1] == mode and poset == "side_nat"}


def test_converge_finite_net(tmp_path, capsys):
    net = tmp_path / "net.json"
    net.write_text(
        json.dumps(
            {
                "index": {"name": "chain2", "elements": ["c0", "c1"], "le": [["c0", "c1"]]},
                "map": {"c0": "bot", "c1": "top"},
            }
        )
    )
    ideal = tmp_path / "ideal.json"
    ideal.write_text(json.dumps({"kind": "eventual"}))
    code, out, _ = run_cli(
        capsys,
        "converge",
        "--mode",
        "eventual",
        "--poset",
        "diamond",
        "--net",
        str(net),
        "--ideal",
        str(ideal),
        "--point",
        "top",
    )
    assert code == 0 and json.loads(out)["holds"]


def test_rudin_extraction(tmp_path, capsys):
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({"sets": [["l", "r"], ["top"]]}))
    code, out, _ = run_cli(capsys, "rudin", "--poset", "diamond", "--family", str(fam))
    d = json.loads(out)
    assert code == 0
    assert d["directed_set"] == ["l", "top"]


@pytest.mark.parametrize(
    "fam_doc",
    [[1], {"sets": [5]}, {"sets": "l"}, {"sets": [["l"], "r"]}, {"sets": [["l", 5]]}, {}],
    ids=[
        "not-object",
        "member-not-list",
        "sets-not-list",
        "member-is-string",
        "id-not-string",
        "sets-missing",
    ],
)
def test_rudin_malformed_family_is_usage_error(tmp_path, capsys, fam_doc):
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps(fam_doc))
    code, out, err = run_cli(capsys, "rudin", "--poset", "diamond", "--family", str(fam))
    assert code == 2 and err.startswith("error:") and not out


def test_verify_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "sidenat", "--format", "json")
    assert code == 0 and json.loads(out)["failures"] == []
    code, out, _ = run_cli(capsys, "verify", "--suite", "_inject-failure")
    assert code == 1 and json.loads(out)["passed"] == 0
    code, _, err = run_cli(capsys, "verify", "--suite", "bogus")
    assert code == 2 and "unknown suite" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--suite", "rudin", "--max-size", "-1"),
        ("verify", "--suite", "rudin", "--max-size", "0"),
        ("corpus", "list", "--max-size", "0"),
        ("corpus", "list", "--max-size", "-3"),
    ],
)
def test_max_size_below_one_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and err.startswith("error:") and "--max-size" in err and not out


def _cli_to(stdout, *argv, timeout=120):
    """Run the CLI in a fresh interpreter with ``stdout`` as its standard
    output; return the exit code and the standard error bytes."""
    code = f"from domaincheck.cli import main; raise SystemExit(main({list(argv)!r}))"
    cmd = [sys.executable, "-c", code]
    proc = subprocess.run(cmd, stdout=stdout, stderr=subprocess.PIPE, timeout=timeout)
    return proc.returncode, proc.stderr


@pytest.mark.parametrize(
    "argv", [("corpus", "list"), ("verify", "--suite", "sidenat", "--max-size", "2")]
)
def test_closed_stdout_is_not_an_error(argv):
    """A reader that stops early, as in ``domaincheck corpus list | head -1``,
    gets no ``error:`` line: the read end is closed before the child writes."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        code, err = _cli_to(write_end, *argv)
    finally:
        os.close(write_end)
    assert code == 1 and err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that refuses writes")
def test_other_stdout_errors_stay_usage_errors():
    with open("/dev/full", "wb") as full:
        code, err = _cli_to(full, "corpus", "list")
    assert code == 2 and err.startswith(b"error:")


def test_verify_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("DOMAINCHECK_SEED", "99")
    code, out, _ = run_cli(capsys, "verify", "--suite", "_inject-failure")
    assert code == 1 and json.loads(out)["seed"] == 99
    code, out, _ = run_cli(capsys, "verify", "--suite", "_inject-failure", "--seed", "3")
    assert json.loads(out)["seed"] == 3


def test_verify_bad_env_seed_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("DOMAINCHECK_SEED", "abc")
    code, out, err = run_cli(capsys, "verify", "--suite", "sidenat", "--max-size", "2")
    assert code == 2 and err.startswith("error:") and "DOMAINCHECK_SEED" in err and not out


@pytest.mark.parametrize(
    "net_doc, ideal_doc",
    [
        ({"index": "omega", "tracks": [{"kind": "const", "value": "top"}]}, ["eventual"]),
        (["omega"], {"kind": "eventual"}),
    ],
    ids=["ideal-not-object", "net-not-object"],
)
def test_converge_non_object_json_is_usage_error(tmp_path, capsys, net_doc, ideal_doc):
    net = tmp_path / "net.json"
    net.write_text(json.dumps(net_doc))
    ideal = tmp_path / "ideal.json"
    ideal.write_text(json.dumps(ideal_doc))
    code, out, err = run_cli(
        capsys,
        "converge",
        "--mode",
        "family",
        "--poset",
        "diamond",
        "--net",
        str(net),
        "--ideal",
        str(ideal),
        "--point",
        "top",
    )
    assert code == 2 and err.startswith("error:") and "object" in err and not out


CHAIN2_DOC = {"name": "chain2", "elements": ["c0", "c1"], "le": [["c0", "c1"]]}


@pytest.mark.parametrize(
    "net_doc",
    [
        {"index": "omega", "tracks": [1]},
        {"index": CHAIN2_DOC, "map": 5},
        {"index": "omega", "tracks": [{"value": "top"}]},
        {"index": {"name": "bad", "elements": ["c0"], "le": [5]}, "map": {"c0": "top"}},
        {"index": "omega", "tracks": [{"kind": "const", "value": ["top"]}]},
    ],
    ids=[
        "track-not-object",
        "map-not-object",
        "track-without-kind",
        "index-pair-not-list",
        "value-not-scalar",
    ],
)
def test_converge_malformed_net_is_usage_error(tmp_path, capsys, net_doc):
    net = tmp_path / "net.json"
    net.write_text(json.dumps(net_doc))
    ideal = tmp_path / "ideal.json"
    ideal.write_text(json.dumps({"kind": "eventual"}))
    code, out, err = run_cli(
        capsys,
        "converge",
        "--mode",
        "family",
        "--poset",
        "diamond",
        "--net",
        str(net),
        "--ideal",
        str(ideal),
        "--point",
        "top",
    )
    assert code == 2 and err.startswith("error:") and not out


@pytest.mark.parametrize("value", ["l", -1])
@pytest.mark.parametrize("mode", ["family", "topo"])
def test_converge_side_nat_rejects_foreign_net_values(tmp_path, capsys, mode, value):
    """A track value that is not an element of the side-point dcpo is a
    usage error, not a traceback or a verdict."""
    net = tmp_path / "net.json"
    net.write_text(json.dumps({"index": "omega", "tracks": [{"kind": "const", "value": value}]}))
    ideal = tmp_path / "ideal.json"
    ideal.write_text(json.dumps({"kind": "eventual"}))
    code, out, err = run_cli(
        capsys,
        "converge",
        "--mode",
        mode,
        "--poset",
        "side_nat",
        "--net",
        str(net),
        "--ideal",
        str(ideal),
        "--point",
        "a",
    )
    assert code == 2 and err.startswith("error:") and "side_nat" in err and not out


def test_missing_file_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys,
        "converge",
        "--mode",
        "family",
        "--poset",
        "diamond",
        "--net",
        "/nonexistent/net.json",
        "--ideal",
        "/nonexistent/ideal.json",
        "--point",
        "top",
    )
    assert code == 2 and err.startswith("error:")


def test_unknown_poset_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "classify", "--poset", "wat")
    assert code == 2 and "wat" in err


@pytest.mark.parametrize("name", ["p0_0", "p7_0", "p2_01"])
def test_unlisted_corpus_name_is_unknown(capsys, name):
    """An enumerated poset resolves only under the name ``corpus list``
    prints: no size outside 1 to 6, no index with a leading zero."""
    code, out, err = run_cli(capsys, "classify", "--poset", name)
    assert (code, out, err) == (2, "", f"error: no corpus poset named {name!r}\n")


def test_unknown_point_is_usage_error(tmp_path, capsys):
    """``--point`` is resolved to an index by the poset's own id lookup,
    whose error names the point and the poset."""
    net = tmp_path / "net.json"
    net.write_text(json.dumps({"index": "omega", "tracks": [{"kind": "const", "value": "top"}]}))
    ideal = tmp_path / "ideal.json"
    ideal.write_text(json.dumps({"kind": "eventual"}))
    argv = ["converge", "--mode", "liminf", "--poset", "diamond", "--net", str(net)]
    code, out, err = run_cli(capsys, *argv, "--ideal", str(ideal), "--point", "zz")
    assert (code, out, err) == (2, "", "error: 'zz' is not an element of 'diamond'\n")


GOOD_NET = {"index": "omega", "tracks": [{"kind": "const", "value": "top"}]}


@pytest.mark.parametrize(
    "doc, field, document",
    [
        ({"net": {"index": "omega"}}, "tracks", "net"),
        ({"net": {"index": "omega", "tracks": [{"kind": "const"}]}}, "value", "net"),
        ({"net": {"map": {"c0": "top"}}}, "index", "net"),
        ({"net": {"index": CHAIN2_DOC}}, "map", "net"),
        ({"net": {"index": {"name": "c", "elements": ["c0"]}, "map": {"c0": "top"}}}, "le", "net"),
        ({"net": {"index": 5, "map": {}}}, "index", "net"),
        ({"ideal": {"name": "eventual"}}, "kind", "ideal"),
        ({"poset": {"name": "p", "elements": ["x"]}}, "le", "poset"),
        ({"net": {"index": {**CHAIN2_DOC, "name": 5}, "map": {"c0": "top"}}}, "name", "net"),
        ({"poset": {"name": "p", "elements": "x", "le": []}}, "elements", "poset"),
    ],
    ids=[
        "net-tracks",
        "net-value",
        "net-index",
        "net-map",
        "net-index-le",
        "net-index-not-object",
        "ideal-kind",
        "poset-le",
        "net-index-name-not-string",
        "poset-elements-not-list",
    ],
)
def test_missing_field_names_field_and_document(tmp_path, capsys, doc, field, document):
    """A JSON input that lacks a field exits 2 with a message naming the
    field and the document it is missing from."""
    if "poset" in doc:
        path = tmp_path / "poset.json"
        path.write_text(json.dumps(doc["poset"]))
        code, out, err = run_cli(capsys, "classify", "--poset", str(path))
    else:
        net, ideal = tmp_path / "net.json", tmp_path / "ideal.json"
        net.write_text(json.dumps(doc.get("net", GOOD_NET)))
        ideal.write_text(json.dumps(doc.get("ideal", {"kind": "eventual"})))
        code, out, err = run_cli(
            capsys,
            "converge",
            "--mode",
            "family",
            "--poset",
            "diamond",
            "--net",
            str(net),
            "--ideal",
            str(ideal),
            "--point",
            "top",
        )
    assert code == 2 and not out
    assert err.startswith("error:") and f"{field!r}" in err and document in err, err
