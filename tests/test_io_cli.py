import contextlib
import copy
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from graphcake.cli import ALGORITHMS, main
from graphcake.generate import GeneratorSpec, generate
from graphcake.io import (
    load_allocation,
    load_instance,
    parse_rational,
    save_allocation,
    save_instance,
)
from graphcake.iterative import identical_four_ef, iterative_divide
from graphcake.model import eval_share

from conftest import F


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

JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.floats() | st.text(max_size=4)
    | st.sampled_from(["1/0", "-1/2", "3/2", "0", "1", "e1", "zz", "c", "v1"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)


def _paths(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, path + (key,))


@st.composite
def mutated(draw, document):
    """``document`` with one to three mutations: a dropped key or item, a
    junk or foreign value, or a reversed list or interval."""
    doc = copy.deepcopy(document)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        path = draw(st.sampled_from(paths))
        if not path:
            doc = draw(JUNK)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        kind = draw(st.sampled_from(["drop", "replace", "reverse"]))
        if kind == "drop":
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
        load_instance(json.dumps(document))
    except ValueError:
        pass


@given(mutated(json.loads(save_allocation(FUZZ_INSTANCE, FUZZ_ALLOCATION, {"note": "1/2"}))))
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_load_allocation_rejects_mutations_with_value_error(document):
    try:
        _, metrics = load_allocation(FUZZ_INSTANCE, json.dumps(document))
    except ValueError:
        return
    assert isinstance(metrics, dict)


FUZZ_INSTANCE_DOC = json.loads(save_instance(FUZZ_INSTANCE))
FUZZ_ALLOCATION_DOC = json.loads(save_allocation(FUZZ_INSTANCE, FUZZ_ALLOCATION, {"note": "1/2"}))


@given(
    st.sampled_from(["solve", "verify", "psn"]),
    st.sampled_from(ALGORITHMS),
    st.just(FUZZ_INSTANCE_DOC) | mutated(FUZZ_INSTANCE_DOC),
    st.just(FUZZ_ALLOCATION_DOC) | mutated(FUZZ_ALLOCATION_DOC),
)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_cli_mutated_files_exit_cleanly(command, algorithm, instance_doc, allocation_doc):
    """Malformed files get exit 2 and one stderr line; verify may also
    report a loadable but invalid allocation with exit 1."""
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
