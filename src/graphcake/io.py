"""Canonical JSON serialization for instances and allocations.

All rationals travel as reduced ``"p/q"`` strings (integers without the
denominator), keys are sorted, and no floats appear anywhere, so equal
objects serialize to identical bytes.
"""

from __future__ import annotations

import json

from .rational import Rational, rational
import re
from typing import Any

from .model import (
    Allocation,
    Edge,
    EdgeInterval,
    Graph,
    Instance,
    StepDensity,
    canonical_share,
)

_RATIONAL_RE = re.compile(r"^-?\d+(/\d+)?$")


def parse_rational(text: str) -> Rational:
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational p/q string: {text!r}")
    # The regex has vetted both parts, so int() parses them without a second
    # pass through the rational type's own string parser.
    numerator, _, denominator = text.partition("/")
    try:
        return Rational(int(numerator), int(denominator or 1))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def format_rational(value: Rational) -> str:
    return str(rational(value))


def _json_id(value: Any, expected: type, what: str) -> Any:
    """``value`` if its type is exactly ``expected``: JSON ``true`` is a bool,
    and must not pass for agent 1."""
    if type(value) is not expected:
        noun = "a string" if expected is str else "an integer"
        raise ValueError(f"{what} must be {noun}, got {value!r}")
    return value


def dumps_canonical(payload: Any) -> bytes:
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# Instances


def instance_to_dict(instance: Instance) -> dict:
    return {
        "graph": {
            "vertices": sorted(instance.graph.vertices),
            "edges": [
                {"id": e.id, "endpoints": [e.endpoints[0], e.endpoints[1]]}
                for e in sorted(instance.graph.edges, key=lambda e: e.id)
            ],
        },
        "agents": [
            {
                "id": agent,
                "valuation": {
                    edge_id: {
                        "breakpoints": [format_rational(b) for b in d.breakpoints],
                        "densities": [format_rational(v) for v in d.values],
                    }
                    for edge_id, d in sorted(instance.valuations[agent].items())
                },
            }
            for agent in instance.agents
        ],
    }


def instance_from_dict(data: dict) -> Instance:
    try:
        gdata = data["graph"]
        graph = Graph(
            tuple(_json_id(v, str, "vertex id") for v in gdata["vertices"]),
            tuple(
                Edge(
                    _json_id(e["id"], str, "edge id"),
                    tuple(_json_id(e["endpoints"][k], str, "edge endpoint") for k in (0, 1)),
                )
                for e in gdata["edges"]
            ),
        )
        valuations = {}
        agents = []
        densities: dict[tuple, StepDensity] = {}  # equal texts parse once
        for entry in data["agents"]:
            agent = _json_id(entry["id"], int, "agent id")
            agents.append(agent)
            valuation = {}
            for edge_id, dens in entry["valuation"].items():
                key = (tuple(dens["breakpoints"]), tuple(dens["densities"]))
                if key not in densities:
                    densities[key] = StepDensity(
                        tuple(parse_rational(b) for b in key[0]),
                        tuple(parse_rational(v) for v in key[1]),
                    )
                valuation[edge_id] = densities[key]
            valuations[agent] = valuation
    except (AttributeError, IndexError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed instance JSON: {exc}") from exc
    return Instance(graph, tuple(sorted(agents)), valuations)


def save_instance(instance: Instance) -> bytes:
    return dumps_canonical(instance_to_dict(instance))


def load_instance(raw: bytes | str) -> Instance:
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON: {exc}") from exc
    return instance_from_dict(data)


# ---------------------------------------------------------------------------
# Allocations


def allocation_to_dict(instance: Instance, allocation: Allocation, metrics: dict | None = None) -> dict:
    return {
        "agents": [
            {
                "id": agent,
                "share": [
                    {"edge": iv.edge, "from": format_rational(iv.lo), "to": format_rational(iv.hi)}
                    for iv in allocation.share_of(agent).intervals
                ],
            }
            for agent in instance.agents
        ],
        "metrics": metrics or {},
    }


def allocation_from_dict(instance: Instance, data: dict) -> tuple[Allocation, dict]:
    try:
        shares = {}
        for entry in data["agents"]:
            agent = _json_id(entry["id"], int, "allocation agent id")
            if agent not in instance.agents:
                raise ValueError(f"allocation names agent {agent!r}, which the instance lacks")
            if agent in shares:
                raise ValueError(f"allocation lists agent {agent!r} twice")
            intervals = [
                EdgeInterval(t["edge"], parse_rational(t["from"]), parse_rational(t["to"]))
                for t in entry["share"]
            ]
            shares[agent] = canonical_share(instance.graph, intervals)
        metrics = data.get("metrics", {})
    except (AttributeError, IndexError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed allocation JSON: {exc}") from exc
    if not isinstance(metrics, dict):
        raise ValueError(f"allocation metrics must be a JSON object, got {metrics!r}")
    missing = [a for a in instance.agents if a not in shares]
    if missing:
        raise ValueError(f"allocation missing agents {missing}")
    return Allocation(tuple(shares[a] for a in instance.agents)), metrics


def save_allocation(instance: Instance, allocation: Allocation, metrics: dict | None = None) -> bytes:
    return dumps_canonical(allocation_to_dict(instance, allocation, metrics))


def load_allocation(instance: Instance, raw: bytes | str) -> tuple[Allocation, dict]:
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON: {exc}") from exc
    return allocation_from_dict(instance, data)
