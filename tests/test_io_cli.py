import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from graphcake.cli import main
from graphcake.generate import FAMILIES, GeneratorSpec, fig1_instance, generate
from graphcake.io import (
    dumps_canonical,
    instance_to_dict,
    load_allocation,
    load_instance,
    parse_rational,
    save_allocation,
    save_instance,
)
from graphcake.iterative import identical_four_ef, iterative_divide
from graphcake.fairness import fairness_report, prop1_check
from graphcake.model import (
    Allocation,
    ContractViolation,
    Edge,
    EdgeInterval,
    Graph,
    Instance,
    Share,
    StepDensity,
    full_cake,
)
from graphcake.psn import psn_certificate
from graphcake.rational import Rational
from graphcake.solvers import SOLVERS

from conftest import F, path_instance, single_edge_instance, star_instance, triangle_instance


def test_parse_rational_strict():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-2") == -2
    for bad in ("0.5", "1e3", "a/b", "", "1/0x", "1/0", "-3/0"):
        with pytest.raises(ValueError):
            parse_rational(bad)


@given(
    st.text()
    | st.from_regex(r"^-?\d+(/\d+)?$")
    | st.builds("{}/{}".format, st.integers(-99, 99), st.integers(0, 20))
)
@example("007/014")
@example("-0")
@example("1/2\n")  # the regex's $ admits one trailing newline
@example("1/0")
@example("1/-2")
@settings(max_examples=300, deadline=None)
def test_parse_rational_agrees_with_fraction(text):
    try:
        value = parse_rational(text)
    except ValueError:
        return
    assert value == Fraction(text)


# ---------------------------------------------------------------------------
# Loader fuzzing: mutated valid JSON is either accepted or rejected with
# ValueError, never another exception.

SCALAR_JUNK = (
    st.none() | st.booleans() | st.integers(-3, 9) | st.floats() | st.text(max_size=4)
    | st.sampled_from(["1/0", "-1/2", "3/2", "0", "1", "e1", "zz", "c", "v1"])
)
JUNK = st.recursive(
    SCALAR_JUNK,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)


def _paths(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, path + (key,))


def _id_kind(path):
    """The kind of id at ``path``: "vertex" for a graph vertex or an edge
    endpoint, "agent" for an agent id, else None."""
    if len(path) >= 2 and path[-2] in ("vertices", "endpoints"):
        return "vertex"
    if len(path) >= 3 and path[-3] == "agents" and path[-1] == "id":
        return "agent"
    return None


def _parent_of(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def rename_id(doc, kind, old, new):
    """Rename, in place, every ``kind`` id of ``doc`` equal to ``old``."""
    for path in list(_paths(doc)):
        if _id_kind(path) == kind:
            parent = _parent_of(doc, path)
            if parent[path[-1]] == old:
                parent[path[-1]] = new
    return doc


@st.composite
def mutated(draw, document):
    """``document`` with one to three mutations: a dropped key or item, a
    junk or foreign value, a reversed list or interval, one vertex or agent
    id renamed to scalar junk wherever it is named, or a list retyped as a
    string of its items or an object keyed by them (an edge's endpoints may
    instead gain an item)."""
    doc = copy.deepcopy(document)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        path = draw(st.sampled_from(paths))
        if not path:
            doc = draw(JUNK)
            continue
        parent = _parent_of(doc, path)
        key = path[-1]
        kind = draw(st.sampled_from(["drop", "replace", "reverse", "rename", "retype"]))
        if kind == "rename":
            ids = [(_id_kind(p), _parent_of(doc, p)[p[-1]]) for p in paths if _id_kind(p)]
            if ids:
                rename_id(doc, *draw(st.sampled_from(ids)), draw(SCALAR_JUNK))
        elif kind == "retype":
            lists = [p for p in paths if p and isinstance(_parent_of(doc, p)[p[-1]], list)]
            if lists:
                path = draw(st.sampled_from(lists))
                parent, key = _parent_of(doc, path), path[-1]
                forms = ["string", "object"] + (["extra"] if key == "endpoints" else [])
                form = draw(st.sampled_from(forms))
                if form == "string":
                    parent[key] = "".join(map(str, parent[key]))
                elif form == "object":
                    parent[key] = dict.fromkeys(map(str, parent[key]))
                else:
                    parent[key].append(draw(SCALAR_JUNK))
        elif kind == "drop":
            del parent[key]
        elif kind == "replace":
            parent[key] = draw(JUNK)
        elif isinstance(parent[key], list):
            parent[key].reverse()
        elif isinstance(parent[key], dict) and {"from", "to"} <= parent[key].keys():
            parent[key]["from"], parent[key]["to"] = parent[key]["to"], parent[key]["from"]
    return doc


FUZZ_INSTANCE = generate(GeneratorSpec("random-connected", m=4, n=3, pieces=2, seed=5))
FUZZ_ALLOCATION = iterative_divide(FUZZ_INSTANCE)


@given(mutated(json.loads(save_instance(FUZZ_INSTANCE))))
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_load_instance_rejects_mutations_with_value_error(document):
    try:
        instance = load_instance(json.dumps(document))
    except ValueError:
        return
    assert all(type(v) is str for v in instance.graph.vertices)
    assert all(type(a) is int for a in instance.agents)
    graph = document["graph"]
    assert all(type(x) is list for x in (graph["vertices"], graph["edges"], document["agents"]))
    assert all(type(e["endpoints"]) is list and len(e["endpoints"]) == 2 for e in graph["edges"])
    assert all(
        type(dens[key]) is list
        for entry in document["agents"]
        for dens in entry["valuation"].values()
        for key in ("breakpoints", "densities")
    )


# The second file gives agents 2 and 3 empty shares, which a retyped
# ``share`` string or object could pass for.
FUZZ_ALLOCATION_DOCS = [
    json.loads(save_allocation(FUZZ_INSTANCE, FUZZ_ALLOCATION, {"note": "1/2"})),
    json.loads(save_allocation(FUZZ_INSTANCE, Allocation((full_cake(FUZZ_INSTANCE.graph), Share(()), Share(()))))),
]


@given(st.sampled_from(FUZZ_ALLOCATION_DOCS).flatmap(mutated))
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_load_allocation_rejects_mutations_with_value_error(document):
    try:
        _, metrics = load_allocation(FUZZ_INSTANCE, json.dumps(document))
    except ValueError:
        return
    assert isinstance(metrics, dict)
    assert type(document["agents"]) is list
    assert all(type(entry["share"]) is list for entry in document["agents"])


def _cli_document(instance, *args):
    """The JSON file a CLI command writes for ``instance``."""
    with tempfile.TemporaryDirectory() as tmp:
        inst_file, out_file = Path(tmp) / "i.json", Path(tmp) / "o.json"
        inst_file.write_bytes(save_instance(instance))
        assert main([*args, "--instance", str(inst_file), "--output", str(out_file)]) == 0
        return json.loads(out_file.read_text())


FUZZ_INSTANCE_DOC = json.loads(save_instance(FUZZ_INSTANCE))
FUZZ_ALLOCATION_DOC = FUZZ_ALLOCATION_DOCS[0]
FUZZ_IDENTICAL = generate(GeneratorSpec("random-connected", m=4, n=3, pieces=2, identical=True, seed=5))
# (instance, allocation) pairs to mutate: metrics that name no algorithm, a
# solve output with and without ε, and a psn-lift output.
FUZZ_FILES = [
    (FUZZ_INSTANCE_DOC, FUZZ_ALLOCATION_DOC),
    (FUZZ_INSTANCE_DOC, _cli_document(FUZZ_INSTANCE, "solve", "--algorithm", "iterative-divide")),
    (FUZZ_INSTANCE_DOC, _cli_document(FUZZ_INSTANCE, "psn-lift")),
    (
        json.loads(save_instance(FUZZ_IDENTICAL)),
        _cli_document(FUZZ_IDENTICAL, "solve", "--algorithm", "identical-2eps", "--epsilon", "1/2"),
    ),
]


@given(
    st.sampled_from(["solve", "verify", "psn"]),
    st.sampled_from(tuple(SOLVERS)),
    st.sampled_from(FUZZ_FILES).flatmap(
        lambda docs: st.tuples(*(st.just(doc) | mutated(doc) for doc in docs))
    ),
)
@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_cli_mutated_files_exit_cleanly(command, algorithm, files):
    """Malformed files get exit 2 and one stderr line; verify may also
    report a loadable but invalid allocation, or a stored claim that
    recomputation contradicts, with exit 1."""
    instance_doc, allocation_doc = files
    with tempfile.TemporaryDirectory() as tmp:
        inst_file, alloc_file, out_file = (Path(tmp) / name for name in ("i.json", "a.json", "o.json"))
        inst_file.write_text(json.dumps(instance_doc))
        alloc_file.write_text(json.dumps(allocation_doc))
        args = {
            "solve": ["solve", "--algorithm", algorithm, "--epsilon", "1/2", "--instance", str(inst_file)],
            "verify": ["verify", "--instance", str(inst_file), "--allocation", str(alloc_file)],
            "psn": ["psn", "--instance", str(inst_file)],
        }[command]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(args + ["--output", str(out_file)])
        err = err.getvalue()
        assert "Traceback" not in err
        if code == 2:
            assert err.count("\n") == 1 and err.endswith("\n")
        elif code == 1:
            assert command == "verify" and json.loads(out_file.read_text())["failures"]
        else:
            assert code == 0


def test_io_round_trip_shares_equal_valuations():
    spec = GeneratorSpec("random-connected", m=6, n=4, pieces=3, identical=True, seed=3)
    identical = load_instance(save_instance(generate(spec)))
    first = identical.valuations[1]
    assert all(identical.valuations[a] is first for a in identical.agents)
    assert identical.identical_valuations()

    spec = GeneratorSpec("random-connected", m=6, n=4, pieces=3, seed=3)
    distinct = load_instance(save_instance(generate(spec)))
    assert len({id(v) for v in distinct.valuations.values()}) == distinct.n
    assert not distinct.identical_valuations()


def test_instance_to_dict_formats_a_shared_valuation_once():
    spec = GeneratorSpec("random-connected", m=5, n=3, pieces=3, identical=True, seed=3)
    agents = instance_to_dict(generate(spec))["agents"]
    assert all(entry["valuation"] is agents[0]["valuation"] for entry in agents)
    agents = instance_to_dict(generate(dataclasses.replace(spec, identical=False)))["agents"]
    assert len({id(entry["valuation"]) for entry in agents}) == 3


def _instance_from_texts(document: dict) -> Instance:
    """The instance a document describes, built with ``Fraction(text)`` and
    the model classes only."""
    graph = Graph(
        tuple(document["graph"]["vertices"]),
        tuple(Edge(e["id"], tuple(e["endpoints"])) for e in document["graph"]["edges"]),
    )
    valuations = {
        entry["id"]: {
            edge_id: StepDensity(
                tuple(Fraction(b) for b in d["breakpoints"]),
                tuple(Fraction(v) for v in d["densities"]),
            )
            for edge_id, d in entry["valuation"].items()
        }
        for entry in document["agents"]
    }
    return Instance(graph, tuple(sorted(valuations)), valuations)


@pytest.mark.parametrize("identical", [False, True])
@pytest.mark.parametrize("family", FAMILIES)
def test_load_instance_matches_a_fraction_build(family, identical):
    for seed in range(4):
        spec = GeneratorSpec(family, m=3 + seed, n=1 + seed, pieces=1 + seed, identical=identical, seed=seed)
        raw = save_instance(generate(spec))
        loaded = load_instance(raw)
        assert loaded == _instance_from_texts(json.loads(raw))
        for valuation in loaded.valuations.values():
            for density in valuation.values():
                assert all(type(x) is Rational for x in density.breakpoints + density.values)


def _fig1_with(**fields) -> str:
    """fig1's document with the given fields of agent 1's ``e1`` density replaced."""
    document = json.loads(save_instance(fig1_instance()))
    document["agents"][0]["valuation"]["e1"].update(fields)
    return json.dumps(document)


@pytest.mark.parametrize("fields, message", [
    ({"breakpoints": ["0", "1/2", "3/4"], "densities": ["1/3", "1/3"]}, "breakpoints must run from 0 to 1"),
    ({"breakpoints": ["1/4", "1/2", "1"], "densities": ["1/3", "1/3"]}, "breakpoints must run from 0 to 1"),
    ({"breakpoints": ["0", "1/2", "1/2", "1"], "densities": ["1/3", "1/3", "1/3"]},
     "breakpoints must strictly increase"),
    ({"densities": ["1/3", "1/3"]}, "need one density value per piece"),
    ({"breakpoints": ["0", "1/2", "1"], "densities": ["-1/3", "1"]}, "densities must be nonnegative"),
    ({"breakpoints": ["0", "1/0", "1"]}, "zero denominator in '1/0'"),
    ({"densities": ["2/0"]}, "zero denominator in '2/0'"),
    ({"densities": [0.5]}, "not a rational p/q string: 0.5"),
    ({"breakpoints": ["0", 1]}, "not a rational p/q string: 1"),
    # Two faults: the pieces are checked in order, and every text parses
    # before any density is checked.
    ({"breakpoints": ["0", "1/2", "1/2", "1"], "densities": ["-1", "1", "1"]},
     "breakpoints must strictly increase"),
    ({"breakpoints": ["0", "1/2", "1/2", "1"], "densities": ["1", "1", "1/0"]}, "zero denominator in '1/0'"),
])
def test_load_instance_density_faults_keep_their_messages(fields, message):
    with pytest.raises(ValueError) as caught:
        load_instance(_fig1_with(**fields))
    assert str(caught.value) == message


def test_instance_round_trip_is_byte_stable(fig1):
    raw = save_instance(fig1)
    again = save_instance(load_instance(raw))
    assert raw == again


def test_fixture_file_loads(fig1):
    data = json.loads(save_instance(fig1))
    assert len(data["agents"]) == 2
    assert len(data["graph"]["edges"]) == 3


def test_load_reports_bad_normalization(fig1):
    data = json.loads(save_instance(fig1))
    data["agents"][0]["valuation"]["e1"]["densities"] = ["33/100"]
    with pytest.raises(ValueError, match="agent 1"):
        load_instance(json.dumps(data))


def test_load_rejects_disconnected_graph(fig1):
    data = json.loads(save_instance(fig1))
    data["graph"]["vertices"].append("stranded")
    with pytest.raises(ValueError, match="connected"):
        load_instance(json.dumps(data))


def test_load_rejects_malformed_json():
    with pytest.raises(ValueError, match="malformed"):
        load_instance(b"{not json")


def test_allocation_round_trip(fig1):
    alloc = identical_four_ef(fig1)
    raw = save_allocation(fig1, alloc, {"note": 1})
    loaded, metrics = load_allocation(fig1, raw)
    assert loaded == alloc
    assert metrics == {"note": 1}
    assert save_allocation(fig1, loaded, {"note": 1}) == raw


# (which document, edit, message): the faults the fuzz tests above reach
# only by chance, each with the message it must keep.
@pytest.mark.parametrize("kind, edit, message", [
    ("instance", lambda d: d.pop("graph"), "malformed instance JSON: 'graph'"),
    ("instance", lambda d: d["graph"]["edges"][0].update(endpoints=["c", "zz"]),
     "edge 'e1' references unknown vertex 'zz'"),
    ("instance", lambda d: d["agents"][0].update(id=3), "agents must be exactly 1..n"),
    ("instance", lambda d: d["agents"][0]["valuation"].pop("e1"), "agent 1 must value every edge exactly once"),
    ("allocation", lambda d: d.pop("agents"), "malformed allocation JSON: 'agents'"),
    ("allocation", lambda d: d["agents"].pop(1), "allocation missing agents [2]"),
    ("allocation", lambda d: d.update(metrics=[1]), "allocation metrics must be a JSON object, got [1]"),
])
def test_load_faults_keep_their_messages(fig1, kind, edit, message):
    raw = save_instance(fig1) if kind == "instance" else save_allocation(fig1, identical_four_ef(fig1))
    document = json.loads(raw)
    edit(document)
    with pytest.raises(ValueError) as caught:
        if kind == "instance":
            load_instance(json.dumps(document))
        else:
            load_allocation(fig1, json.dumps(document))
    assert str(caught.value) == message


def test_generate_deterministic_bytes():
    spec = GeneratorSpec("star", m=5, n=3, pieces=3, seed=7)
    assert save_instance(generate(spec)) == save_instance(generate(spec))
    other = GeneratorSpec("star", m=5, n=3, pieces=3, seed=8)
    assert save_instance(generate(spec)) != save_instance(generate(other))


# Every random family, identical and not, pieces 1-4 and n 1-5, then fig1,
# then a draw whose weights are all 0, so that it takes the fallback.
PINNED_SPECS = [
    GeneratorSpec(family, m=1 + k % 6, n=1 + k % 5, pieces=pieces, identical=identical, seed=100 + k)
    for k, (family, identical, pieces) in enumerate(
        (family, identical, pieces)
        for family in ("star", "tree", "random-connected")
        for identical in (False, True)
        for pieces in (1, 2, 3, 4)
    )
] + [GeneratorSpec("fig1"), GeneratorSpec("random-connected", m=2, n=1, pieces=3, seed=7922)]


def test_generated_bytes_are_pinned():
    """The generator's bytes do not change from one version to the next."""
    digest = hashlib.sha256()
    for spec in PINNED_SPECS:
        digest.update(save_instance(generate(spec)))
    assert digest.hexdigest() == "252463991d826e51a093d34d6b5013811ec09600ff5c38dea424560a6d06087c"


def test_worthless_draw_falls_back_to_the_first_piece():
    valuation = generate(PINNED_SPECS[-1]).valuations[1]
    first, *rest = sorted(valuation)
    assert len(valuation[first].values) == 3 and rest
    assert valuation[first].values[0] > 0
    assert not any(valuation[first].values[1:])
    assert not any(v for e in rest for v in valuation[e].values)


def test_generated_families_are_valid():
    for family in ("star", "tree", "random-connected"):
        inst = generate(GeneratorSpec(family, m=6, n=3, pieces=3, seed=13))
        assert inst.n == 3
        assert len(inst.graph.edges) == 6


def test_generator_spec_validation():
    with pytest.raises(ValueError, match="unknown family 'wheel'"):
        GeneratorSpec("wheel")
    for sizes in ({"m": 0}, {"n": 0}, {"pieces": 0}):
        with pytest.raises(ValueError, match="need m >= 1, n >= 1, pieces >= 1"):
            GeneratorSpec("tree", **sizes)


# ---------------------------------------------------------------------------
# command line


def run_cli(*args):
    return main(list(args))


def test_cli_gen_solve_verify(tmp_path):
    inst_file = tmp_path / "fig1.json"
    out_file = tmp_path / "alloc.json"
    assert run_cli("gen", "--family", "fig1", "--output", str(inst_file)) == 0
    assert run_cli(
        "solve", "--algorithm", "identical-4ef",
        "--instance", str(inst_file), "--output", str(out_file),
    ) == 0
    payload = json.loads(out_file.read_text())
    assert payload["metrics"]["contract"]["satisfied"] is True
    assert payload["metrics"]["fairness"]["envy_factor"] == "2"
    assert payload["metrics"]["queries"]["evals"] > 0
    assert run_cli("verify", "--instance", str(inst_file), "--allocation", str(out_file)) == 0


def test_cli_verify_flags_corruption(tmp_path, capsys):
    inst_file = tmp_path / "fig1.json"
    out_file = tmp_path / "alloc.json"
    run_cli("gen", "--family", "fig1", "--output", str(inst_file))
    run_cli("solve", "--algorithm", "identical-4ef", "--instance", str(inst_file),
            "--output", str(out_file))
    payload = json.loads(out_file.read_text())
    payload["agents"][0]["share"][0]["to"] = "1/2"  # uncovers half of e1
    out_file.write_text(json.dumps(payload))
    assert run_cli("verify", "--instance", str(inst_file), "--allocation", str(out_file)) == 1
    assert "uncovered" in capsys.readouterr().out


def test_cli_solve_all_algorithms(tmp_path):
    star_file = tmp_path / "star.json"
    ident_file = tmp_path / "ident.json"
    run_cli("gen", "--family", "star", "--edges", "4", "--agents", "3",
            "--seed", "2", "--output", str(star_file))
    run_cli("gen", "--family", "star", "--edges", "4", "--agents", "3",
            "--seed", "2", "--identical", "--output", str(ident_file))
    out = tmp_path / "out.json"
    assert run_cli("solve", "--algorithm", "iterative-divide",
                   "--instance", str(star_file), "--output", str(out)) == 0
    assert run_cli("solve", "--algorithm", "star-3eps", "--epsilon", "1/2",
                   "--instance", str(star_file), "--output", str(out)) == 0
    assert run_cli("solve", "--algorithm", "identical-2eps", "--epsilon", "1/2",
                   "--instance", str(ident_file), "--output", str(out)) == 0
    assert run_cli("solve", "--algorithm", "star-identical-2ef",
                   "--instance", str(ident_file), "--output", str(out)) == 0


def test_cli_rejects_algorithm_graph_mismatch(tmp_path, capsys):
    tree_file = tmp_path / "tree.json"
    run_cli("gen", "--family", "tree", "--edges", "6", "--agents", "2",
            "--seed", "3", "--output", str(tree_file))
    inst = load_instance(tree_file.read_bytes())
    from graphcake.star_eps import find_star_center

    if find_star_center(inst.graph) is None:
        code = run_cli("solve", "--algorithm", "star-3eps",
                       "--instance", str(tree_file), "--output", str(tmp_path / "x.json"))
        assert code == 2
        assert "star" in capsys.readouterr().err


@pytest.mark.parametrize("algorithm", ["star-3eps", "star-identical-2ef"])
def test_cli_star_solvers_reject_a_single_agent_non_star(tmp_path, capsys, algorithm):
    tree_file = tmp_path / "tree.json"
    assert run_cli("gen", "--family", "tree", "--edges", "4", "--agents", "1",
                   "--seed", "3", "--output", str(tree_file)) == 0
    from graphcake.star_eps import find_star_center

    assert find_star_center(load_instance(tree_file.read_bytes()).graph) is None
    capsys.readouterr()
    code, err = _exit_and_stderr(capsys, "solve", "--algorithm", algorithm,
                                 "--instance", str(tree_file), "--output", str(tmp_path / "x.json"))
    assert code == 2
    assert err.count("\n") == 1 and "not a star" in err


def test_cli_zero_denominator_in_instance_exits_2(tmp_path, capsys):
    inst_file = tmp_path / "fig1.json"
    run_cli("gen", "--family", "fig1", "--output", str(inst_file))
    data = json.loads(inst_file.read_text())
    data["agents"][0]["valuation"]["e1"]["densities"] = ["1/0"]
    inst_file.write_text(json.dumps(data))
    code = run_cli("solve", "--algorithm", "identical-4ef", "--instance", str(inst_file),
                   "--output", str(tmp_path / "out.json"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "zero denominator" in err


def test_cli_zero_denominator_epsilon_exits_2(tmp_path, capsys):
    # An ε of 1 or more is outside every solver's rule, (0, 1): rejected
    # while parsing, like a zero denominator.
    inst_file = tmp_path / "fig1.json"
    run_cli("gen", "--family", "fig1", "--output", str(inst_file))
    commands = [("solve", "--algorithm", "star-3eps"), ("solve", "--algorithm", "identical-2eps"),
                ("psn-lift", "--algorithm", "identical-2eps")]
    for command in commands:
        for epsilon in ("1/0", "1", "2"):
            capsys.readouterr()
            with pytest.raises(SystemExit) as exc:
                run_cli(*command, "--epsilon", epsilon,
                        "--instance", str(inst_file), "--output", str(tmp_path / "out.json"))
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "--epsilon" in err
            assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("epsilon", ["1/0", "abc", "0.5", "1e-3", "0", "-1"])
def test_cli_every_bad_epsilon_prints_the_rule(tmp_path, capsys, epsilon):
    # No rational, a zero denominator and a value outside (0, 1) all print
    # the same rule with the text given, never the parser's function name.
    inst_file = tmp_path / "fig1.json"
    run_cli("gen", "--family", "fig1", "--output", str(inst_file))
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run_cli("solve", "--algorithm", "star-3eps", "--epsilon", epsilon,
                "--instance", str(inst_file), "--output", str(tmp_path / "out.json"))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.rstrip().endswith(f"argument --epsilon: epsilon must be a rational in (0, 1), got {epsilon!r}")
    assert "_epsilon" not in err
    assert not (tmp_path / "out.json").exists()


def _verify_edited_allocation(tmp_path, edit):
    inst_file = tmp_path / "fig1.json"
    out_file = tmp_path / "alloc.json"
    run_cli("gen", "--family", "fig1", "--output", str(inst_file))
    run_cli("solve", "--algorithm", "identical-4ef", "--instance", str(inst_file),
            "--output", str(out_file))
    payload = json.loads(out_file.read_text())
    edit(payload["agents"])
    out_file.write_text(json.dumps(payload))
    return run_cli("verify", "--instance", str(inst_file), "--allocation", str(out_file))


def test_cli_verify_rejects_unknown_agent(tmp_path, capsys):
    whole_e1 = {"edge": "e1", "from": "0", "to": "1"}
    code = _verify_edited_allocation(
        tmp_path, lambda agents: agents.append({"id": 7, "share": [whole_e1]})
    )
    assert code == 2
    assert "agent 7" in capsys.readouterr().err


def test_cli_verify_rejects_duplicate_agent(tmp_path, capsys):
    code = _verify_edited_allocation(
        tmp_path, lambda agents: agents.append({"id": 1, "share": agents[0]["share"]})
    )
    assert code == 2
    assert "agent 1 twice" in capsys.readouterr().err


def _exit_and_stderr(capsys, *args):
    code = run_cli(*args)
    return code, capsys.readouterr().err


SOLVE_COMMANDS = {
    "iterative-divide": ("solve", "--algorithm", "iterative-divide"),
    "identical-2eps": ("solve", "--algorithm", "identical-2eps"),
    "star-identical-2ef": ("solve", "--algorithm", "star-identical-2ef"),
    "psn": ("psn",),
    "psn-lift": ("psn-lift",),
}


@pytest.mark.parametrize(
    "instance, renames, command",
    [
        (instance, renames, command)
        for instance, renames, commands in [
            (path_instance(2), {"u0": 0}, ("iterative-divide", "identical-2eps", "psn", "psn-lift")),
            (triangle_instance(), {"a": 0}, ("iterative-divide", "identical-2eps", "psn", "psn-lift")),
            (path_instance(2), {"u0": None}, ("iterative-divide", "identical-2eps", "psn", "psn-lift")),
            (triangle_instance(), {"a": 1.5}, ("iterative-divide", "psn")),
            (star_instance(2), {"c": None}, ("star-identical-2ef",)),
            (star_instance(2), {"c": 1.5}, ("star-identical-2ef",)),
            (triangle_instance(), {"a": 0, "b": 1, "c": 2}, ("psn", "psn-lift")),
        ]
        for command in commands
    ],
)
def test_cli_non_string_vertex_ids_exit_2(tmp_path, capsys, instance, renames, command):
    doc = json.loads(save_instance(instance))
    for old, new in renames.items():
        rename_id(doc, "vertex", old, new)
    inst_file = tmp_path / "i.json"
    inst_file.write_text(json.dumps(doc))
    code, err = _exit_and_stderr(
        capsys, *SOLVE_COMMANDS[command], "--instance", str(inst_file), "--output", str(tmp_path / "o.json")
    )
    assert code == 2
    assert err.count("\n") == 1 and "vertex id must be a string" in err


def test_cli_non_string_edge_ids_exit_2(tmp_path, capsys):
    doc = json.loads(save_instance(path_instance(2)))
    doc["graph"]["edges"][0]["id"] = 1
    doc["agents"][0]["valuation"]["1"] = doc["agents"][0]["valuation"].pop("e1")
    inst_file = tmp_path / "i.json"
    inst_file.write_text(json.dumps(doc))
    code, err = _exit_and_stderr(capsys, "psn", "--instance", str(inst_file))
    assert code == 2
    assert err.count("\n") == 1 and "edge id must be a string" in err


NON_LIST_INSTANCE_EDITS = {
    "vertices as a string": (("graph",), "vertices", "ab"),
    "vertices as an object": (("graph",), "vertices", {"a": None, "b": None}),
    "endpoints as a string": (("graph", "edges", 0), "endpoints", "ab"),
    "three endpoints": (("graph", "edges", 0), "endpoints", ["a", "b", "a"]),
    "breakpoints as a string": (("agents", 0, "valuation", "e1"), "breakpoints", "01"),
    "breakpoints as an object": (("agents", 0, "valuation", "e1"), "breakpoints", {"0": None, "1": None}),
    "densities as a string": (("agents", 0, "valuation", "e1"), "densities", "1"),
    "densities as an object": (("agents", 0, "valuation", "e1"), "densities", {"1": None}),
}


@pytest.mark.parametrize("command", ["iterative-divide", "psn"])
@pytest.mark.parametrize("edit", NON_LIST_INSTANCE_EDITS)
def test_cli_non_list_instance_containers_exit_2(tmp_path, capsys, edit, command):
    """A string or object iterates as characters or keys, and a third
    endpoint was dropped; each of these single-edge files used to solve."""
    doc = json.loads(save_instance(single_edge_instance()))
    path, key, value = NON_LIST_INSTANCE_EDITS[edit]
    _parent_of(doc, path + (key,))[key] = value
    inst_file = tmp_path / "i.json"
    inst_file.write_text(json.dumps(doc))
    code, err = _exit_and_stderr(
        capsys, *SOLVE_COMMANDS[command], "--instance", str(inst_file), "--output", str(tmp_path / "o.json")
    )
    assert code == 2
    assert err.count("\n") == 1
    assert ("must be a JSON list" in err) != (edit == "three endpoints")
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("share", [{}, ""])
def test_cli_verify_rejects_non_list_share(tmp_path, capsys, share):
    """An empty share written as an object or a string used to load as empty."""
    instance = path_instance(2)
    inst_file, alloc_file = tmp_path / "i.json", tmp_path / "a.json"
    inst_file.write_bytes(save_instance(instance))
    doc = json.loads(save_allocation(instance, Allocation((full_cake(instance.graph), Share(())))))
    doc["agents"][1]["share"] = share
    alloc_file.write_text(json.dumps(doc))
    code, err = _exit_and_stderr(capsys, "verify", "--instance", str(inst_file), "--allocation", str(alloc_file))
    assert code == 2
    assert err.count("\n") == 1 and "share must be a JSON list" in err


def test_cli_boolean_agent_id_exits_2(tmp_path, capsys):
    doc = json.loads(save_instance(path_instance(2)))
    rename_id(doc, "agent", 1, True)
    inst_file = tmp_path / "i.json"
    inst_file.write_text(json.dumps(doc))
    code, err = _exit_and_stderr(
        capsys, "solve", "--algorithm", "iterative-divide", "--instance", str(inst_file),
        "--output", str(tmp_path / "o.json"),
    )
    assert code == 2
    assert err.count("\n") == 1 and "agent id must be an integer" in err
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("agent", [True, 1.0])
def test_cli_verify_rejects_non_integer_agent_id(tmp_path, capsys, agent):
    def edit(agents):
        agents[0]["id"] = agent

    assert _verify_edited_allocation(tmp_path, edit) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "agent id must be an integer" in err


@pytest.mark.parametrize("edge", [[], 1, None])
def test_cli_verify_rejects_non_string_share_edge(tmp_path, capsys, edge):
    """A one-interval share on a list-valued edge used to reach validation
    and raise TypeError there."""
    def edit(agents):
        agents[0]["share"] = [{"edge": edge, "from": "0", "to": "1"}]

    assert _verify_edited_allocation(tmp_path, edit) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "allocation edge id must be a string" in err


def test_cli_psn_certificate(tmp_path):
    tree_file = tmp_path / "tree.json"
    cert_file = tmp_path / "cert.json"
    run_cli("gen", "--family", "tree", "--edges", "6", "--agents", "2",
            "--seed", "4", "--output", str(tree_file))
    assert run_cli("psn", "--instance", str(tree_file), "--output", str(cert_file)) == 0
    cert = json.loads(cert_file.read_text())
    assert cert["construction"] == "tree-dfs"
    assert cert["bound"] == cert["height"] + 1
    assert len(cert["edges"]) == 6


def test_cli_psn_lift(tmp_path):
    inst_file = tmp_path / "fig1.json"
    out_file = tmp_path / "lift.json"
    run_cli("gen", "--family", "fig1", "--output", str(inst_file))
    assert run_cli("psn-lift", "--instance", str(inst_file),
                   "--output", str(out_file)) == 0
    payload = json.loads(out_file.read_text())
    assert payload["metrics"]["certificate"]["bound"] == 2
    assert set(payload["metrics"]["pieces"]) == {"1", "2"}


def test_cli_oracle(tmp_path, capsys):
    inst_file = tmp_path / "fig1.json"
    run_cli("gen", "--family", "fig1", "--output", str(inst_file))
    assert run_cli("oracle", "--instance", str(inst_file)) == 0
    assert json.loads(capsys.readouterr().out)["egalitarian"] == "1/3"


def test_cli_trace_emits_jsonl(tmp_path, capsys):
    inst_file = tmp_path / "fig1.json"
    out_file = tmp_path / "alloc.json"
    run_cli("gen", "--family", "fig1", "--output", str(inst_file))
    assert run_cli("solve", "--algorithm", "star-3eps", "--epsilon", "1/2",
                   "--instance", str(inst_file), "--output", str(out_file),
                   "--trace") == 0
    lines = [l for l in capsys.readouterr().err.splitlines() if l.strip()]
    assert lines
    first = json.loads(lines[0])
    assert first["iteration"] == 1 and first["phase"] in ("2a", "2b")


def test_cli_solve_deterministic_bytes(tmp_path):
    inst_file = tmp_path / "star.json"
    run_cli("gen", "--family", "star", "--edges", "5", "--agents", "3",
            "--seed", "11", "--output", str(inst_file))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run_cli("solve", "--algorithm", "iterative-divide",
                       "--instance", str(inst_file), "--output", str(out)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_solve_rejects_max_calls(tmp_path, capsys):
    inst_file = tmp_path / "ident.json"
    run_cli("gen", "--family", "random-connected", "--edges", "4", "--agents", "3",
            "--identical", "--seed", "1", "--output", str(inst_file))
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run_cli("solve", "--algorithm", "identical-2eps", "--max-calls", "0",
                "--instance", str(inst_file), "--output", str(tmp_path / "out.json"))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--max-calls" in err


# ---------------------------------------------------------------------------
# Byte pins and verify's contract check for every solver

PIN_INSTANCES = {
    "star": ["--family", "star", "--edges", "4", "--agents", "3", "--seed", "2"],
    "star-identical": ["--family", "star", "--edges", "4", "--agents", "3", "--seed", "2", "--identical"],
    "graph": ["--family", "random-connected", "--edges", "5", "--agents", "3", "--seed", "4"],
    "graph-identical": ["--family", "random-connected", "--edges", "5", "--agents", "3", "--seed", "4",
                        "--identical"],
}
SOLVE_INSTANCE = {
    "iterative-divide": "graph",
    "identical-4ef": "graph-identical",
    "star-3eps": "star",
    "identical-2eps": "graph-identical",
    "star-identical-2ef": "star-identical",
}


@pytest.fixture(scope="module")
def pin_instances(tmp_path_factory):
    root = tmp_path_factory.mktemp("pins")
    files = {}
    for name, args in PIN_INSTANCES.items():
        files[name] = root / f"{name}.json"
        assert run_cli("gen", *args, "--output", str(files[name])) == 0
    return files


@pytest.mark.parametrize("command, algorithm, instance, digest", [
    ("solve", "iterative-divide", "graph", "f782a96a900904fe662743c34037bcaf8b22b664dff3e95835d8da0cd2a07653"),
    ("solve", "identical-4ef", "graph-identical", "1d2b174b37b59e4b4dda59304f580942d2b227b7a936173c8f2e497d9c6a905b"),
    ("solve", "star-3eps", "star", "0e04f4badd04e6a9fc61743fd2cdab436844ad9ca4922e749824a441c527929f"),
    ("solve", "identical-2eps", "graph-identical", "48083095f4ad3ffe94044423408e33fd99283c02062bc456aa3a14b1a786c897"),
    ("solve", "star-identical-2ef", "star-identical", "337cdedfebeb3b3989dae09664b5cb803f18005e826c9167fbc07607ca9c5531"),
    ("psn-lift", "iterative-divide", "graph", "a9b59ec1e660513d71529b43270816f1cabdb092117df02231caaff951062035"),
    ("psn-lift", "identical-4ef", "graph-identical", "4035e37849968ca1d61c6323e7d0817e46203f0d4eaf60d356aa578308327085"),
    ("psn-lift", "identical-2eps", "graph-identical", "6ecff43d6346f7b4066c647062d353e05fef9dede82e8e528bd8999843167ef3"),
    ("psn-lift", "auto", "graph", "5bf93e299d8107755ded3cfffb78f2aa596da43cbd06f162ed8bdc4ba412db32"),
    ("psn-lift", "auto", "graph-identical", "25e261da4636df51db68d7d3233c6d3a5d8e1473ce1d1c70dc086c5e1427cc32"),
])
def test_cli_output_bytes_pinned(pin_instances, tmp_path, command, algorithm, instance, digest):
    """The sha256 of each solver's allocation file, metrics block included,
    at ε = 1/2 where ε applies."""
    out = tmp_path / "out.json"
    assert run_cli(command, "--algorithm", algorithm, "--epsilon", "1/2",
                   "--instance", str(pin_instances[instance]), "--output", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_cli_trace_keeps_output_bytes(pin_instances, tmp_path, capsys):
    """``--trace`` streams star-3eps's trading steps, numbered 1..k, and
    writes the same allocation file as a run without it."""
    digests = []
    for extra in ((), ("--trace",)):
        out = tmp_path / "out.json"
        capsys.readouterr()
        assert run_cli("solve", "--algorithm", "star-3eps", "--epsilon", "1/2",
                       "--instance", str(pin_instances["star"]), "--output", str(out), *extra) == 0
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    iterations = [json.loads(line)["iteration"] for line in capsys.readouterr().err.splitlines()]
    assert iterations == list(range(1, len(iterations) + 1)) and iterations
    assert digests[0] == digests[1]


def test_cli_trace_lines_pinned(pin_instances, tmp_path, capsys):
    """The sha256 of star-3eps's ``--trace`` stream, every trade's
    ``"value"`` string included."""
    capsys.readouterr()
    assert run_cli("solve", "--algorithm", "star-3eps", "--epsilon", "1/2", "--trace",
                   "--instance", str(pin_instances["star"]), "--output", str(tmp_path / "out.json")) == 0
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 328
    assert hashlib.sha256(err.encode()).hexdigest() == "a0679d26384b5b849cacc24597351a166f2ac9051abafdec1ff2df5547a17bb1"


def _verify_file(inst_file, alloc_file, tmp_path):
    report = tmp_path / "report.json"
    code = run_cli("verify", "--instance", str(inst_file), "--allocation", str(alloc_file),
                   "--output", str(report))
    return code, json.loads(report.read_text())["failures"] if report.exists() else None


def test_cli_verify_rejects_tampered_contract(tmp_path):
    inst_file, alloc_file = tmp_path / "inst.json", tmp_path / "alloc.json"
    run_cli("gen", "--family", "random-connected", "--edges", "6", "--agents", "3",
            "--seed", "5", "--output", str(inst_file))
    assert run_cli("solve", "--algorithm", "iterative-divide", "--instance", str(inst_file),
                   "--output", str(alloc_file)) == 0
    payload = json.loads(alloc_file.read_text())
    assert payload["metrics"]["fairness"]["additive_envy"] == "489/1024"
    payload["metrics"]["contract"] = {"kind": "additive-envy", "bound": "0", "satisfied": True}
    alloc_file.write_text(json.dumps(payload))
    code, failures = _verify_file(inst_file, alloc_file, tmp_path)
    assert code == 1
    assert any(f.startswith("stored contract does not match") for f in failures)


def test_cli_verify_rejects_an_edited_fairness_matrix(pin_instances, tmp_path):
    """One stored value of one agent for another's share is changed; only
    the comparison with the recomputed report can tell."""
    inst_file, alloc_file = pin_instances["graph"], tmp_path / "alloc.json"
    assert run_cli("solve", "--algorithm", "iterative-divide", "--instance", str(inst_file),
                   "--output", str(alloc_file)) == 0
    payload = json.loads(alloc_file.read_text())
    row = payload["metrics"]["fairness"]["matrix"][0]
    row[1] = str(parse_rational(row[1]) + Fraction(1, 100))
    alloc_file.write_text(json.dumps(payload))
    assert _verify_file(inst_file, alloc_file, tmp_path) == (
        1, ["stored fairness metrics do not match recomputation"]
    )


def _flip_satisfied(metrics):
    metrics["contract"]["satisfied"] = not metrics["contract"]["satisfied"]


def _lower_bound(metrics):
    bound = parse_rational(metrics["contract"]["bound"])
    metrics["contract"]["bound"] = str(bound - Fraction(1, 100))


SWAPPED = {
    "iterative-divide": "identical-4ef",
    "identical-4ef": "iterative-divide",
    "star-3eps": "identical-2eps",
    "identical-2eps": "star-3eps",
    "star-identical-2ef": "identical-4ef",
}


def _swap_algorithm(metrics):
    metrics["algorithm"] = SWAPPED[metrics["algorithm"]]


@pytest.mark.parametrize("tamper", [_flip_satisfied, _lower_bound, _swap_algorithm])
@pytest.mark.parametrize("algorithm", sorted(SOLVE_INSTANCE))
def test_cli_verify_rejects_tampered_claims(pin_instances, tmp_path, algorithm, tamper):
    inst_file, alloc_file = pin_instances[SOLVE_INSTANCE[algorithm]], tmp_path / "alloc.json"
    assert run_cli("solve", "--algorithm", algorithm, "--epsilon", "1/2",
                   "--instance", str(inst_file), "--output", str(alloc_file)) == 0
    assert _verify_file(inst_file, alloc_file, tmp_path) == (0, [])
    payload = json.loads(alloc_file.read_text())
    tamper(payload["metrics"])
    alloc_file.write_text(json.dumps(payload))
    code, failures = _verify_file(inst_file, alloc_file, tmp_path)
    assert code == 1
    assert any(f.startswith("stored contract does not match") for f in failures)


def test_cli_verify_rejects_stored_valid_and_epsilon(pin_instances, tmp_path):
    inst_file, alloc_file = pin_instances["star"], tmp_path / "alloc.json"
    run_cli("solve", "--algorithm", "star-3eps", "--epsilon", "1/2",
            "--instance", str(inst_file), "--output", str(alloc_file))
    original = json.loads(alloc_file.read_text())
    for key, value in (("valid", False), ("valid", 1), ("epsilon", "2/4")):
        payload = copy.deepcopy(original)
        payload["metrics"][key] = value
        alloc_file.write_text(json.dumps(payload))
        code, failures = _verify_file(inst_file, alloc_file, tmp_path)
        assert code == 1
        assert any(f.startswith(f"stored {key} does not match") for f in failures)


def test_cli_verify_rejects_a_bound_that_fails(pin_instances, tmp_path):
    """Stored claims that match recomputation still fail when the recomputed
    bound does not hold: one agent takes the whole cake."""
    inst_file, alloc_file = pin_instances["graph"], tmp_path / "alloc.json"
    instance = load_instance(inst_file.read_bytes())
    allocation = Allocation((full_cake(instance.graph),) + (Share.empty(),) * (instance.n - 1))
    metrics = {
        "algorithm": "iterative-divide",
        "epsilon": None,
        "fairness": fairness_report(instance, allocation).as_dict(),
        "queries": {"evals": 0, "cuts": 0},
        "contract": {"kind": "additive-envy", "bound": "1/2", "satisfied": False},
        "valid": True,
    }
    alloc_file.write_bytes(save_allocation(instance, allocation, metrics))
    code, failures = _verify_file(inst_file, alloc_file, tmp_path)
    assert code == 1
    assert len(failures) == 1 and failures[0].startswith("contracted bound violated")


@pytest.mark.parametrize("field, value", [
    ("algorithm", "no-such-solver"),
    ("algorithm", ["star-3eps"]),
    ("algorithm", None),
    ("algorithm", "psn-lift/star-3eps"),
    ("epsilon", None),
    ("epsilon", "0"),
    ("epsilon", "-1/2"),
    ("epsilon", "0.5"),
    ("epsilon", ["1/2"]),
    ("epsilon", "1"),
])
def test_cli_verify_malformed_metrics_exit_2(pin_instances, tmp_path, capsys, field, value):
    inst_file, alloc_file = pin_instances["star"], tmp_path / "alloc.json"
    run_cli("solve", "--algorithm", "star-3eps", "--epsilon", "1/2",
            "--instance", str(inst_file), "--output", str(alloc_file))
    payload = json.loads(alloc_file.read_text())
    payload["metrics"][field] = value
    alloc_file.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run_cli("verify", "--instance", str(inst_file), "--allocation", str(alloc_file)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "metrics" in err


@pytest.mark.parametrize("algorithm", ["auto", "iterative-divide"])
def test_cli_verify_accepts_psn_lift_partition(tmp_path, algorithm):
    inst_file, alloc_file = tmp_path / "fig1.json", tmp_path / "lift.json"
    run_cli("gen", "--family", "fig1", "--output", str(inst_file))
    assert run_cli("psn-lift", "--algorithm", algorithm, "--instance", str(inst_file),
                   "--output", str(alloc_file)) == 0
    assert _verify_file(inst_file, alloc_file, tmp_path) == (0, [])


# ---------------------------------------------------------------------------
# verify's piece-count check for psn-lift outputs

def _lift_file(tmp_path, seed):
    inst_file, alloc_file = tmp_path / "inst.json", tmp_path / "lift.json"
    run_cli("gen", "--family", "random-connected", "--edges", "12", "--agents", "4",
            "--seed", str(seed), "--output", str(inst_file))
    assert run_cli("psn-lift", "--algorithm", "iterative-divide", "--instance", str(inst_file),
                   "--output", str(alloc_file)) == 0
    return inst_file, alloc_file


@pytest.mark.parametrize("seed", [5, 6, 7, 8])
def test_cli_verify_accepts_multi_piece_lifts(tmp_path, seed):
    inst_file, alloc_file = _lift_file(tmp_path, seed)
    metrics = json.loads(alloc_file.read_text())["metrics"]
    assert max(metrics["pieces"].values()) > 1
    assert _verify_file(inst_file, alloc_file, tmp_path) == (0, [])


def test_cli_verify_rejects_a_swapped_lift_interval(tmp_path):
    """Agents 1 and 4 trade one interval; the stored fairness is recomputed
    so that only the piece counts can tell."""
    inst_file, alloc_file = _lift_file(tmp_path, 5)
    payload = json.loads(alloc_file.read_text())
    first, last = payload["agents"][0]["share"], payload["agents"][3]["share"]
    first[-1], last[0] = last[0], first[-1]
    instance = load_instance(inst_file.read_bytes())
    allocation, _ = load_allocation(instance, json.dumps(payload))
    payload["metrics"]["fairness"] = fairness_report(instance, allocation).as_dict()
    alloc_file.write_text(json.dumps(payload))
    code, failures = _verify_file(inst_file, alloc_file, tmp_path)
    assert code == 1
    assert failures and all(f.startswith("stored pieces does not match") for f in failures)


@pytest.mark.parametrize("field", ["pieces", "certificate"])
def test_cli_verify_rejects_lowered_lift_claims(tmp_path, field):
    inst_file, alloc_file = _lift_file(tmp_path, 5)
    payload = json.loads(alloc_file.read_text())
    if field == "pieces":
        payload["metrics"]["pieces"]["1"] -= 1
    else:
        payload["metrics"]["certificate"]["bound"] -= 1
    alloc_file.write_text(json.dumps(payload))
    code, failures = _verify_file(inst_file, alloc_file, tmp_path)
    assert code == 1
    assert failures and all(f.startswith(f"stored {field} does not match") for f in failures)


def test_cli_verify_rejects_pieces_above_the_bound(tmp_path):
    """Stored claims that match recomputation still fail when a share has
    more pieces than the certificate allows: on fig1 (bound 2) agent 1 takes
    the leaf half of all three edges."""
    inst_file, alloc_file = tmp_path / "fig1.json", tmp_path / "lift.json"
    run_cli("gen", "--family", "fig1", "--output", str(inst_file))
    instance = load_instance(inst_file.read_bytes())
    allocation = Allocation((
        Share(tuple(EdgeInterval(e, F(0), F(1, 2)) for e in ("e1", "e2", "e3"))),
        Share(tuple(EdgeInterval(e, F(1, 2), F(1)) for e in ("e1", "e2", "e3"))),
    ))
    metrics = {
        "algorithm": "psn-lift/auto",
        "certificate": psn_certificate(instance.graph)[1].as_dict(),
        "pieces": {"1": 3, "2": 1},
        "fairness": fairness_report(instance, allocation).as_dict(),
        "epsilon": None,
        "contract": {"kind": "envy-factor", "bound": "2", "satisfied": True},
    }
    assert metrics["certificate"]["bound"] == 2
    alloc_file.write_bytes(save_allocation(instance, allocation, metrics))
    code, failures = _verify_file(inst_file, alloc_file, tmp_path)
    assert code == 1
    assert failures == ["pieces {'1': 3} above the certified bound 2"]


@pytest.mark.parametrize("tamper", [_flip_satisfied, _lower_bound])
@pytest.mark.parametrize("algorithm, instance", [("auto", "graph"), ("identical-2eps", "graph-identical")])
def test_cli_verify_rejects_a_tampered_lift_contract(pin_instances, tmp_path, algorithm, instance, tamper):
    """A psn-lift file claims its path solver's ε and contract, on the
    graph's fairness report; verify recomputes both."""
    inst_file, alloc_file = pin_instances[instance], tmp_path / "lift.json"
    assert run_cli("psn-lift", "--algorithm", algorithm, "--epsilon", "1/2",
                   "--instance", str(inst_file), "--output", str(alloc_file)) == 0
    assert _verify_file(inst_file, alloc_file, tmp_path) == (0, [])
    payload = json.loads(alloc_file.read_text())
    tamper(payload["metrics"])
    alloc_file.write_text(json.dumps(payload))
    code, failures = _verify_file(inst_file, alloc_file, tmp_path)
    assert code == 1
    assert failures and all(f.startswith("stored contract does not match") for f in failures)


def test_cli_verify_rejects_a_lift_bound_that_fails(pin_instances, tmp_path):
    """A psn-lift file whose stored claims match recomputation still fails
    when its path solver's bound does not hold: one agent takes the whole
    cake."""
    inst_file, alloc_file = pin_instances["graph"], tmp_path / "lift.json"
    instance = load_instance(inst_file.read_bytes())
    allocation = Allocation((full_cake(instance.graph),) + (Share.empty(),) * (instance.n - 1))
    metrics = {
        "algorithm": "psn-lift/auto",
        "certificate": psn_certificate(instance.graph)[1].as_dict(),
        "pieces": {"1": 1, "2": 0, "3": 0},
        "fairness": fairness_report(instance, allocation).as_dict(),
        "epsilon": None,
        "contract": {"kind": "additive-envy", "bound": "1/2", "satisfied": False},
    }
    alloc_file.write_bytes(save_allocation(instance, allocation, metrics))
    code, failures = _verify_file(inst_file, alloc_file, tmp_path)
    assert code == 1
    assert len(failures) == 1 and failures[0].startswith("contracted bound violated")


# ---------------------------------------------------------------------------
# The canonical emitter, the module entry point and verify's messages

_json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4)
    | st.dictionaries(st.integers(-20, 20), inner, max_size=4),
    max_leaves=24,
)


class _Text(str):
    pass


_SHARED = {"breakpoints": ["0", "1"], "densities": ["1"]}


@given(_json_values)
@example({"b": [], "a": {}, "é\n\"": [float("inf"), -0.0, True, None, "\u2603\t"]})
@example({10: "x", 2: ("y", [1.5])})
# Lists and tuples of strings: the leaves of every instance and allocation.
@example(["0", "1/4", "1"])
@example(("a", "b"))
@example({"breakpoints": ["0", "1"], "densities": ("3/2",), "id": "e1"})
@example([])
@example(["a", ["b", "c"], "d", []])
@example([_Text("sub"), "plain"])
@example(["plain", {"k": _Text("v")}])
@example(["é", "☃", "\U0001f600", "\ud800", "\n\t\"\\/", "\x00\x1f\x7f"])
# One dict held twice at one indent and once more at another, as
# instance_to_dict shares one valuation between agents.
@example({"a": _SHARED, "b": _SHARED, "c": [_SHARED, {"d": _SHARED}]})
@settings(max_examples=300, deadline=None)
def test_dumps_canonical_matches_json_dumps(value):
    assert dumps_canonical(value) == (json.dumps(value, sort_keys=True, indent=2) + "\n").encode("utf-8")


@pytest.mark.parametrize("value", [{(1, 2): "tuple key"}, [Fraction(1, 2)], {"a": object()}])
def test_dumps_canonical_rejects_what_json_dumps_rejects(value):
    with pytest.raises(TypeError):
        json.dumps(value, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        dumps_canonical(value)


def test_python_m_graphcake_runs_the_cli(tmp_path):
    """``python -m graphcake`` from a source checkout writes what ``main`` writes."""
    args = ["gen", "--family", "star", "--edges", "3", "--agents", "2", "--seed", "1"]
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-m", "graphcake", *args], cwd=tmp_path, capture_output=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 0, done.stderr
    out = tmp_path / "star.json"
    assert run_cli(*args, "--output", str(out)) == 0
    assert done.stdout == out.read_bytes()


@pytest.mark.parametrize("algorithm", tuple(SOLVERS))
def test_solve_output_does_not_depend_on_the_hash_seed(tmp_path, algorithm):
    """Two ``solve`` processes with different string-hash seeds write the
    same bytes: no set or dict order of strings reaches an allocation."""
    inst_file = tmp_path / "star.json"
    assert run_cli("gen", "--family", "star", "--edges", "4", "--agents", "3", "--seed", "2",
                   "--identical", "--output", str(inst_file)) == 0
    src = Path(__file__).resolve().parent.parent / "src"
    outputs = []
    for hash_seed in ("0", "12345"):
        done = subprocess.run(
            [sys.executable, "-m", "graphcake", "solve", "--algorithm", algorithm, "--instance", str(inst_file)],
            cwd=tmp_path, capture_output=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": hash_seed},
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] and outputs[0] == outputs[1]


def _verify_star_shares(tmp_path, shares):
    """``verify`` on a 3-edge star (leaves at position 0, the centre at 1)
    against a metrics-free allocation listing each agent's segments."""
    inst_file, alloc_file = tmp_path / "star.json", tmp_path / "alloc.json"
    assert run_cli("gen", "--family", "star", "--edges", "3", "--agents", "2", "--seed", "1",
                   "--output", str(inst_file)) == 0
    alloc_file.write_text(json.dumps({"agents": [
        {"id": agent, "share": [{"edge": e, "from": lo, "to": hi} for e, lo, hi in share]}
        for agent, share in enumerate(shares, start=1)
    ]}))
    return _verify_file(inst_file, alloc_file, tmp_path)


@pytest.mark.parametrize("shares, failures", [
    # e02 is left over; a cake that is not a partition is no metric bug.
    ([[("e01", "0", "1")], [("e03", "0", "1")]], ["uncovered segments: e02 [0, 1]"]),
    ([[("e01", "0", "1"), ("e02", "0", "1")], [("e02", "1/2", "1"), ("e03", "0", "1")]],
     ["overlapping shares: e02 [1/2, 1] held by agents 1 and 2"]),
    # Agent 1's leaf halves of e01 and e03 do not meet.
    ([[("e01", "0", "1/2"), ("e03", "0", "1/2")], [("e01", "1/2", "1"), ("e02", "0", "1"), ("e03", "1/2", "1")]],
     ["disconnected shares for agents 1"]),
])
def test_cli_verify_names_faults_in_plain_positions(tmp_path, shares, failures):
    code, found = _verify_star_shares(tmp_path, shares)
    assert code == 1
    assert found == failures


@pytest.mark.parametrize("edit, message", [
    (lambda graph: graph["vertices"].append(graph["vertices"][0]), "duplicate vertex ids"),
    (lambda graph: graph["edges"].append(dict(graph["edges"][0])), "duplicate edge id 'e1'"),
])
def test_cli_duplicate_graph_ids_exit_2(tmp_path, capsys, edit, message):
    inst_file = tmp_path / "fig1.json"
    run_cli("gen", "--family", "fig1", "--output", str(inst_file))
    document = json.loads(inst_file.read_text())
    edit(document["graph"])
    inst_file.write_text(json.dumps(document))
    capsys.readouterr()
    code, err = _exit_and_stderr(capsys, "solve", "--algorithm", "iterative-divide",
                                 "--instance", str(inst_file), "--output", str(tmp_path / "out.json"))
    assert code == 2
    assert err == f"error: {message}\n"


def test_cli_verify_malformed_allocation_json_exits_2(tmp_path, capsys):
    inst_file, alloc_file = tmp_path / "fig1.json", tmp_path / "alloc.json"
    run_cli("gen", "--family", "fig1", "--output", str(inst_file))
    alloc_file.write_text('{"agents": [')
    capsys.readouterr()
    code, err = _exit_and_stderr(capsys, "verify", "--instance", str(inst_file),
                                 "--allocation", str(alloc_file))
    assert code == 2
    assert err.startswith("error: malformed JSON: ") and err.count("\n") == 1


DEEPLY_NESTED = "[" * 100_000 + "]" * 100_000


def test_cli_solve_deeply_nested_instance_json_exits_2(tmp_path, capsys):
    inst_file = tmp_path / "nested.json"
    inst_file.write_text(DEEPLY_NESTED)
    code, err = _exit_and_stderr(capsys, "solve", "--algorithm", "iterative-divide",
                                 "--instance", str(inst_file), "--output", str(tmp_path / "out.json"))
    assert code == 2
    assert err.startswith("error: malformed JSON: ") and err.count("\n") == 1
    assert not (tmp_path / "out.json").exists()


def test_cli_verify_deeply_nested_allocation_json_exits_2(tmp_path, capsys):
    inst_file, alloc_file = tmp_path / "fig1.json", tmp_path / "alloc.json"
    run_cli("gen", "--family", "fig1", "--output", str(inst_file))
    alloc_file.write_text(DEEPLY_NESTED)
    capsys.readouterr()
    code, err = _exit_and_stderr(capsys, "verify", "--instance", str(inst_file),
                                 "--allocation", str(alloc_file))
    assert code == 2
    assert err.startswith("error: malformed JSON: ") and err.count("\n") == 1


def _everything_to_agent_1(instance, epsilon, ledger, trace):
    """A valid allocation that breaks iterative-divide's 1/2 additive-envy bound."""
    return Allocation((full_cake(instance.graph),) + (Share.empty(),) * (instance.n - 1))


def _broken_guarantee(instance, epsilon, ledger, trace):
    raise ContractViolation("divide must partition values")


@pytest.mark.parametrize("run, output, err", [
    (_everything_to_agent_1, True, "contracted bound violated; this is a bug\n"),
    (_broken_guarantee, False, "internal contract violated (bug): divide must partition values\n"),
])
def test_cli_solve_reports_a_solver_bug_with_exit_1(tmp_path, capsys, monkeypatch, run, output, err):
    """A solver that breaks its bound still writes its allocation; one whose
    internal check fails writes nothing.  Both exit 1 with one stderr line."""
    inst_file, out = tmp_path / "fig1.json", tmp_path / "out.json"
    run_cli("gen", "--family", "fig1", "--output", str(inst_file))
    monkeypatch.setitem(SOLVERS, "iterative-divide", dataclasses.replace(SOLVERS["iterative-divide"], run=run))
    capsys.readouterr()
    code, got = _exit_and_stderr(capsys, "solve", "--algorithm", "iterative-divide",
                                 "--instance", str(inst_file), "--output", str(out))
    assert code == 1
    assert got == err
    assert out.exists() == output


@pytest.mark.parametrize("family, seed, algorithm", [
    ("tree", 1, "iterative-divide"),         # the Cut in divide._divide
    ("star", 3, "star-identical-2ef"),       # the Cut in star_identical._peel
])
def test_cli_solve_reports_a_cut_that_overshoots_as_a_bug(tmp_path, capsys, monkeypatch, family, seed, algorithm):
    """With a kernel fault (a whole-edge integral returning the last piece's
    density), a solver asks for a Cut worth more than its interval.  That is
    a program fault, not bad input: exit 1 with the internal-contract line,
    and no output file."""
    inst_file, out = tmp_path / "inst.json", tmp_path / "out.json"
    run_cli("gen", "--family", family, "--edges", "5", "--agents", "3", "--seed", str(seed),
            "--identical", "--output", str(inst_file))
    integral_pair = StepDensity.integral_pair

    def faulty(density, lo, hi):
        if lo == 0 and hi == 1:
            return density._pieces[-1][2:4]
        return integral_pair(density, lo, hi)

    monkeypatch.setattr(StepDensity, "integral_pair", faulty)
    capsys.readouterr()
    code, err = _exit_and_stderr(capsys, "solve", "--algorithm", algorithm,
                                 "--instance", str(inst_file), "--output", str(out))
    assert code == 1
    assert err.startswith("internal contract violated (bug): Cut for agent ") and err.count("\n") == 1
    assert err.endswith(": cut target exceeds interval value\n")
    assert not out.exists()


def test_cli_psn_lift_reports_a_broken_bound_with_exit_1(tmp_path, capsys, monkeypatch):
    """A path solver that breaks its bound: psn-lift still writes the lifted
    allocation, claiming the contract unsatisfied, and exits 1 with one
    stderr line."""
    inst_file, out = tmp_path / "fig1.json", tmp_path / "lift.json"
    run_cli("gen", "--family", "fig1", "--output", str(inst_file))
    monkeypatch.setitem(SOLVERS, "iterative-divide",
                        dataclasses.replace(SOLVERS["iterative-divide"], run=_everything_to_agent_1))
    capsys.readouterr()
    code, err = _exit_and_stderr(capsys, "psn-lift", "--algorithm", "iterative-divide",
                                 "--instance", str(inst_file), "--output", str(out))
    assert (code, err) == (1, "contracted bound violated; this is a bug\n")
    assert json.loads(out.read_text())["metrics"]["contract"]["satisfied"] is False


def test_cli_verify_reports_a_metric_bug_with_exit_1(tmp_path, monkeypatch):
    """A partition whose metrics break their implications is a bug in the
    metrics: verify lists it and exits 1."""
    inst_file, alloc_file = tmp_path / "fig1.json", tmp_path / "alloc.json"
    run_cli("gen", "--family", "fig1", "--output", str(inst_file))
    assert run_cli("solve", "--algorithm", "identical-4ef", "--instance", str(inst_file),
                   "--output", str(alloc_file)) == 0
    monkeypatch.setattr(
        "graphcake.cli.prop1_check",
        lambda report, n: dataclasses.replace(prop1_check(report, n), ef_implies_prop=False),
    )
    assert _verify_file(inst_file, alloc_file, tmp_path) == (1, ["metric implications failed (metric bug)"])


def test_cli_psn_lift_and_verify_with_empty_shares(tmp_path):
    """Seven identical agents on a four-edge tree: the path solver leaves
    agents 5-7 with nothing, the lift keeps their shares empty, and verify
    accepts the partition."""
    inst_file, alloc_file = tmp_path / "tree.json", tmp_path / "lift.json"
    run_cli("gen", "--family", "tree", "--edges", "4", "--agents", "7", "--identical",
            "--seed", "0", "--output", str(inst_file))
    assert run_cli("psn-lift", "--algorithm", "iterative-divide", "--instance", str(inst_file),
                   "--output", str(alloc_file)) == 0
    payload = json.loads(alloc_file.read_text())
    assert [payload["metrics"]["pieces"][str(a)] for a in (5, 6, 7)] == [0, 0, 0]
    assert [agent["share"] for agent in payload["agents"][4:]] == [[], [], []]
    assert _verify_file(inst_file, alloc_file, tmp_path) == (0, [])


def test_cli_star_protocol_rejects_a_one_edge_star(tmp_path, capsys):
    inst_file = tmp_path / "star.json"
    run_cli("gen", "--family", "star", "--edges", "1", "--agents", "2", "--output", str(inst_file))
    capsys.readouterr()
    code, err = _exit_and_stderr(capsys, "solve", "--algorithm", "star-3eps",
                                 "--instance", str(inst_file), "--output", str(tmp_path / "out.json"))
    assert code == 2
    assert err.count("\n") == 1 and "star protocol needs at least two edges" in err
