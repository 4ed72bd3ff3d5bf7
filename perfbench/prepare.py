"""Set-up of one benchmark run, timed in a fresh interpreter.

``python3 -I perfbench/prepare.py WORKLOAD SEED [--smoke]`` imports graphcake
from the checkout's ``src/``, generates and serializes the workload's
instances, and prints one JSON line: the import, generate and serialize
times in seconds and the sha256 of all instance bytes.  ``run.py`` starts it
several times per run and reports the median wall time as ``setup_s``.
"""

from __future__ import annotations

import hashlib
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_graphcake():
    """Import graphcake from the checkout, never from an installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import graphcake

    if SRC not in Path(graphcake.__file__).resolve().parents:
        raise ImportError(f"graphcake imported from {graphcake.__file__}, not from {SRC}")
    return graphcake


def instances_digest(tasks) -> str:
    digest = hashlib.sha256()
    for task in tasks:
        digest.update(task.instance)
    return digest.hexdigest()


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    import_graphcake()
    imported = time.perf_counter()
    sys.path.insert(0, str(HERE))
    import json

    from workloads import build_tasks

    tasks, spent = build_tasks(argv[0], int(argv[1]), smoke="--smoke" in argv[2:])
    print(json.dumps({"setup.import": imported - start, **spent, "sha256": instances_digest(tasks)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
