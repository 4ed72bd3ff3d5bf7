"""The maintenance scripts run end to end on small inputs, so a change to the
solver table or the psn API that breaks them fails the suite."""

import json
import re
import subprocess
import sys
from pathlib import Path

from graphcake.solvers import SOLVERS

ROOT = Path(__file__).resolve().parents[1]


def run_script(*args):
    result = subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def test_run_matrix_tabulates_every_solver():
    lines = run_script("scripts/run_matrix.py", "--count", "2")
    assert lines[0].split() == [
        "algorithm", "worst", "envy", "worst", "additive", "avg", "evals", "avg", "cuts", "time"
    ]
    assert sorted(line.split()[0] for line in lines[1:]) == sorted(SOLVERS)


def test_psn_census_reports_both_families():
    lines = run_script("scripts/psn_census.py", "--max-tree-vertices", "5", "--graphs", "3")
    assert lines[0] == "rooted trees: certificate bound minus exact value"
    assert "random connected graphs: certificate bound minus exact value" in lines


def test_line_census_lists_unreached_lines_and_a_total():
    lines = run_script("scripts/line_census.py", "-q", "-p", "no:cacheprovider", "tests/test_iterative.py")
    listed = [line for line in lines if line.startswith("src/graphcake/")]
    assert all(re.fullmatch(r"src/graphcake/\w+\.py:\d+: \S.*", line) for line in listed)
    assert lines[-1] == f"{len(listed)} function-body lines unreached; pytest exit code 0"
    # test_iterative.py never runs the star protocol, and always runs the carving loop.
    assert any(line.endswith(": star, flipped = leaf_first(instance)") for line in listed)
    assert not any(line.startswith("src/graphcake/iterative.py:") and "for i in range(1, n):" in line
                   for line in listed)


def test_xver_prints_one_digest_per_interpreter():
    lines = run_script("scripts/xver.py", "--specs", "2", sys.executable, sys.executable)
    assert len(lines) == 2
    digests = {re.fullmatch(rf"([0-9a-f]{{64}})  \S+ +29 commands  {re.escape(sys.executable)}", line)[1]
               for line in lines}
    assert len(digests) == 1
    missing = subprocess.run([sys.executable, "scripts/xver.py", "--specs", "1", str(ROOT / "no-such-python")],
                             cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert missing.returncode == 1 and "no-such-python" in missing.stderr


def test_workcount_prints_the_same_counts_twice():
    args = ("scripts/workcount.py", "--workload", "psn-layout", "--seed", "1", "--smoke")
    first = run_script(*args)
    assert run_script(*args) == first
    calls = json.loads("\n".join(first))["calls"]
    assert calls["psn.lift_segment"] > 0 and calls["model.piece_count"] > calls["psn.lift_segment"]
    assert calls["star_eps.Trading.step"] == 0


def test_workcount_audits_integral_repeats_per_solver():
    lines = run_script("scripts/workcount.py", "--workload", "graph-carve", "--seed", "1", "--smoke", "--repeats")
    audit = json.loads("\n".join(lines))["integral_pair_repeats"]
    assert sorted(audit) == ["identical-2eps", "identical-4ef", "iterative-divide", "star-identical-2ef"]
    for row in audit.values():
        assert 0 <= row["repeats"] <= row["calls"]
        assert sum(row["repeat_callers"].values()) == row["repeats"]
