import contextlib
import copy
import hashlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from graphcake.cli import main
from graphcake.generate import GeneratorSpec, generate
from graphcake.io import (
    load_allocation,
    load_instance,
    parse_rational,
    save_allocation,
    save_instance,
)
from graphcake.iterative import identical_four_ef, iterative_divide
from graphcake.fairness import fairness_report
from graphcake.model import Allocation, EdgeInterval, Share, eval_share, full_cake
from graphcake.psn import psn_certificate
from graphcake.solvers import SOLVERS

from conftest import F, path_instance, star_instance, triangle_instance


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
    junk or foreign value, a reversed list or interval, or one vertex or
    agent id renamed to scalar junk wherever it is named."""
    doc = copy.deepcopy(document)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        path = draw(st.sampled_from(paths))
        if not path:
            doc = draw(JUNK)
            continue
        parent = _parent_of(doc, path)
        key = path[-1]
        kind = draw(st.sampled_from(["drop", "replace", "reverse", "rename"]))
        if kind == "rename":
            ids = [(_id_kind(p), _parent_of(doc, p)[p[-1]]) for p in paths if _id_kind(p)]
            if ids:
                rename_id(doc, *draw(st.sampled_from(ids)), draw(SCALAR_JUNK))
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


@given(mutated(json.loads(save_allocation(FUZZ_INSTANCE, FUZZ_ALLOCATION, {"note": "1/2"}))))
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_load_allocation_rejects_mutations_with_value_error(document):
    try:
        _, metrics = load_allocation(FUZZ_INSTANCE, json.dumps(document))
    except ValueError:
        return
    assert isinstance(metrics, dict)


def _cli_document(instance, *args):
    """The JSON file a CLI command writes for ``instance``."""
    with tempfile.TemporaryDirectory() as tmp:
        inst_file, out_file = Path(tmp) / "i.json", Path(tmp) / "o.json"
        inst_file.write_bytes(save_instance(instance))
        assert main([*args, "--instance", str(inst_file), "--output", str(out_file)]) == 0
        return json.loads(out_file.read_text())


FUZZ_INSTANCE_DOC = json.loads(save_instance(FUZZ_INSTANCE))
FUZZ_ALLOCATION_DOC = json.loads(save_allocation(FUZZ_INSTANCE, FUZZ_ALLOCATION, {"note": "1/2"}))
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


def test_generate_deterministic_bytes():
    spec = GeneratorSpec("star", m=5, n=3, pieces=3, seed=7)
    assert save_instance(generate(spec)) == save_instance(generate(spec))
    other = GeneratorSpec("star", m=5, n=3, pieces=3, seed=8)
    assert save_instance(generate(spec)) != save_instance(generate(other))


def test_generated_families_are_valid():
    for family in ("star", "tree", "random-connected"):
        inst = generate(GeneratorSpec(family, m=6, n=3, pieces=3, seed=13))
        assert inst.n == 3
        assert len(inst.graph.edges) == 6


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
    inst_file = tmp_path / "fig1.json"
    run_cli("gen", "--family", "fig1", "--output", str(inst_file))
    with pytest.raises(SystemExit) as exc:
        run_cli("solve", "--algorithm", "star-3eps", "--epsilon", "1/0",
                "--instance", str(inst_file), "--output", str(tmp_path / "out.json"))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--epsilon" in err


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
    ("solve", "iterative-divide", "graph", "46e783cdf0602d3310371811b8c34d64ceb9b003ca00f7b686aeac7ad2c3203a"),
    ("solve", "identical-4ef", "graph-identical", "ee770a107f0c537464237942fafb1e53aae6c4b3b6dc146e54a7e76fa4cb1507"),
    ("solve", "star-3eps", "star", "0e04f4badd04e6a9fc61743fd2cdab436844ad9ca4922e749824a441c527929f"),
    ("solve", "identical-2eps", "graph-identical", "55db748f04d3d9ac27977603d5848ee31c0cb5dc55278fb58757df4f386b00ad"),
    ("solve", "star-identical-2ef", "star-identical", "ab3c52e50c3a33ebe4cc7549af90c20ddfabb4361c1c6750c844c0201bc3b0ee"),
    ("psn-lift", "iterative-divide", "graph", "71b3decf37adc2139fe64639d08f14eab278e9d644622e1413bba82fae5a9141"),
    ("psn-lift", "identical-4ef", "graph-identical", "5f6ad58aec44406172ede5826670e0f11d1f4fd86130285c4f239dae3d46a04d"),
    ("psn-lift", "identical-2eps", "graph-identical", "f8dccc0a44c74dd9e060da22cfb31fcf9618ef4b506ffa43073e8d68113f5cdc"),
    ("psn-lift", "auto", "graph", "5ca60510aa667969adc7498118d0e4ff4085b4bcb3812467bfb04abf7890670e"),
    ("psn-lift", "auto", "graph-identical", "d39e8f7a53f08202580c85e39bd0caf42b6cafe19f407050dc6a5e4eb9f45334"),
])
def test_cli_output_bytes_pinned(pin_instances, tmp_path, command, algorithm, instance, digest):
    """The sha256 of each solver's allocation file, metrics block included,
    at ε = 1/2 where ε applies."""
    out = tmp_path / "out.json"
    assert run_cli(command, "--algorithm", algorithm, "--epsilon", "1/2",
                   "--instance", str(pin_instances[instance]), "--output", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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
    }
    assert metrics["certificate"]["bound"] == 2
    alloc_file.write_bytes(save_allocation(instance, allocation, metrics))
    code, failures = _verify_file(inst_file, alloc_file, tmp_path)
    assert code == 1
    assert failures == ["pieces {'1': 3} above the certified bound 2"]
