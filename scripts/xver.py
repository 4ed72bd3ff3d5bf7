#!/usr/bin/env python3
"""Check that graphcake writes the same bytes under several CPython versions.

Each interpreter given runs one fixed batch in a fresh isolated process
(``-I``, with only this checkout's ``src`` added to its path): for every
generator spec below, ``gen``, ``solve`` with every solver, ``psn`` and
``psn-lift`` with every lift choice, through the command-line front end,
and ``verify`` on every file that ``solve`` and ``psn-lift`` write.  The
batch's digest is the sha256 of every command line, its exit code and the
bytes it wrote.  A solver that refuses an instance (a star solver on a
non-star, an identical-valuation solver on distinct valuations) exits 2 and
writes nothing, which the digest records too.

Prints one line per interpreter, digest first, and exits 1 unless every
digest is the same.

Usage: python scripts/xver.py [--specs N] PYTHON [PYTHON ...]
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# (family, edges, agents, pieces, identical, seed)
SPECS = (
    ("random-connected", 5, 3, 2, False, 4),
    ("star", 4, 3, 2, False, 2),
    ("random-connected", 5, 3, 2, True, 4),
    ("star", 4, 3, 2, True, 2),
    ("fig1", 3, 2, 2, False, 0),
    ("tree", 6, 3, 3, False, 1),
    ("tree", 6, 3, 3, True, 1),
    ("random-connected", 7, 4, 3, False, 7),
    ("random-connected", 7, 4, 3, True, 7),
    ("star", 6, 4, 3, False, 11),
    ("star", 3, 2, 1, True, 5),
    ("random-connected", 4, 2, 1, False, 9),
)


def batch(count):
    """The digest and command count of the first ``count`` specs, run in
    this process from a temporary working directory."""
    sys.path.insert(0, str(SRC))
    from graphcake.cli import _lift_choices, main
    from graphcake.solvers import SOLVERS

    digest = hashlib.sha256()
    commands = 0

    def run(argv, out):
        nonlocal commands
        argv = argv + ["--output", out.name]
        code = main(argv)
        payload = out.read_bytes() if out.exists() else b""
        digest.update(f"{' '.join(argv)} -> {code} {len(payload)}\n".encode())
        digest.update(payload)
        commands += 1
        return payload

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()):
        os.chdir(tmp)
        try:
            for k, (family, edges, agents, pieces, identical, seed) in enumerate(SPECS[:count]):
                inst = Path(f"inst{k}.json")
                runs = [(["gen", "--family", family, "--edges", str(edges), "--agents", str(agents),
                          "--pieces", str(pieces), "--seed", str(seed)] + (["--identical"] if identical else []),
                         inst)]
                runs += [(["solve", "--algorithm", name, "--instance", inst.name], Path("out.json"))
                         for name in SOLVERS]
                runs.append((["psn", "--instance", inst.name], Path("out.json")))
                runs += [(["psn-lift", "--algorithm", name, "--instance", inst.name], Path("out.json"))
                         for name in _lift_choices()]
                for argv, out in runs:
                    if run(argv, out) and argv[0] in ("solve", "psn-lift"):
                        run(["verify", "--instance", inst.name, "--allocation", out.name], Path("verify.json"))
                        Path("verify.json").unlink(missing_ok=True)
                    if out != inst:
                        out.unlink(missing_ok=True)
        finally:
            os.chdir(cwd)
    return digest.hexdigest(), commands


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("pythons", nargs="*", metavar="PYTHON")
    parser.add_argument("--specs", type=int, default=len(SPECS), help="run only the first N specs")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        digest, commands = batch(args.specs)
        print(json.dumps({"digest": digest, "commands": commands, "version": sys.version.split()[0]}))
        return 0
    if not args.pythons:
        parser.error("name at least one interpreter")

    digests = set()
    for python in args.pythons:
        try:
            result = subprocess.run(
                [python, "-I", str(Path(__file__).resolve()), "--worker", "--specs", str(args.specs)],
                capture_output=True, text=True,
            )
        except OSError as exc:
            print(f"{python}: {exc}", file=sys.stderr)
            return 1
        if result.returncode != 0:
            print(f"{python}: worker failed with exit code {result.returncode}\n{result.stderr}", file=sys.stderr)
            return 1
        run = json.loads(result.stdout)
        digests.add(run["digest"])
        print(f"{run['digest']}  {run['version']:<8} {run['commands']} commands  {python}")
    if len(digests) > 1:
        print(f"MISMATCH: {len(digests)} different digests", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
