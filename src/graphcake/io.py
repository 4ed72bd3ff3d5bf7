"""Canonical JSON serialization for instances and allocations.

All rationals travel as reduced ``"p/q"`` strings (integers without the
denominator), keys are sorted, and no floats appear anywhere, so equal
objects serialize to identical bytes.

``dumps_canonical`` writes the layout of ``json.dumps(..., sort_keys=True,
indent=2)`` itself: ``json`` runs its C encoder only without an indent, so
the emitter walks the containers and leaves each string to the C string
encoder and each other scalar to ``json.dumps``.

The loaders parse each distinct rational text of a document once: a
document repeats the same breakpoints and cut positions many times, and
every repeat reuses the first parse's (immutable) value.
"""

from __future__ import annotations

import json
import re
from typing import Any, Callable

from .rational import Rational, as_pair, rational

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
        return rational(int(numerator), int(denominator or 1))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _document_parser() -> Callable[[Any], Rational]:
    """``parse_rational`` that parses each distinct text once; one per document."""
    parsed: dict[str, Rational] = {}

    def parse(text: Any) -> Rational:
        if type(text) is not str:
            return parse_rational(text)  # raises its error for a non-string
        value = parsed.get(text)
        if value is None:
            value = parsed[text] = parse_rational(text)
        return value

    return parse


def format_rational(value: Rational) -> str:
    """``value`` as ``"p/q"`` in lowest terms, or ``"p"`` for an integer."""
    numerator, denominator = as_pair(value)
    return str(numerator) if denominator == 1 else f"{numerator}/{denominator}"


def _json_id(value: Any, expected: type, what: str) -> Any:
    """``value`` if its type is exactly ``expected``: JSON ``true`` is a bool,
    and must not pass for agent 1."""
    if type(value) is not expected:
        noun = "a string" if expected is str else "an integer"
        raise ValueError(f"{what} must be {noun}, got {value!r}")
    return value


def _json_list(value: Any, what: str) -> list:
    """``value`` if it is a JSON list: a string or object would otherwise
    iterate as its characters or keys."""
    if type(value) is not list:
        raise ValueError(f"{what} must be a JSON list, got {value!r}")
    return value


def _endpoints(edge: dict) -> tuple[str, str]:
    ends = _json_list(edge["endpoints"], "edge endpoints")
    if len(ends) != 2:
        raise ValueError(f"an edge has exactly two endpoints, got {ends!r}")
    return tuple(_json_id(v, str, "edge endpoint") for v in ends)


def dumps_canonical(payload: Any) -> bytes:
    """``json.dumps(payload, sort_keys=True, indent=2)`` plus a newline, as
    UTF-8 bytes, without ``json``'s pure-Python indenting encoder."""
    out: list[str] = []
    _emit(payload, "\n", out)
    out.append("\n")
    return "".join(out).encode("utf-8")


_quote = json.encoder.encode_basestring_ascii


def _emit(value: Any, newline: str, out: list[str]) -> None:
    """Append ``value`` to ``out`` in ``dumps_canonical``'s layout;
    ``newline`` is the line break and indent of the line ``value`` is on."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _emit(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            out.append(sep)
            out.append(_quote(_json_key(key)))
            out.append(": ")
            _emit(value[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:
        out.append(json.dumps(value))


def _json_key(key: Any) -> str:
    """An object key as ``json`` writes it: ``1`` as ``"1"``, ``None`` as ``"null"``."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


# ---------------------------------------------------------------------------
# Instances


def instance_to_dict(instance: Instance) -> dict:
    formatted: dict[int, dict] = {}  # one text per valuation mapping, shared by its agents
    for valuation in instance.valuations.values():
        if id(valuation) not in formatted:
            formatted[id(valuation)] = {
                edge_id: {
                    "breakpoints": [format_rational(b) for b in d.breakpoints],
                    "densities": [format_rational(v) for v in d.values],
                }
                for edge_id, d in sorted(valuation.items())
            }
    return {
        "graph": {
            "vertices": sorted(instance.graph.vertices),
            "edges": [
                {"id": e.id, "endpoints": [e.endpoints[0], e.endpoints[1]]}
                for e in sorted(instance.graph.edges, key=lambda e: e.id)
            ],
        },
        "agents": [
            {"id": agent, "valuation": formatted[id(instance.valuations[agent])]}
            for agent in instance.agents
        ],
    }


def instance_from_dict(data: dict) -> Instance:
    try:
        gdata = data["graph"]
        graph = Graph(
            tuple(_json_id(v, str, "vertex id") for v in _json_list(gdata["vertices"], "vertices")),
            tuple(
                Edge(_json_id(e["id"], str, "edge id"), _endpoints(e))
                for e in _json_list(gdata["edges"], "edges")
            ),
        )
        valuations = {}
        agents = []
        parse = _document_parser()
        densities: dict[tuple, StepDensity] = {}  # equal texts build one density
        for entry in _json_list(data["agents"], "agents"):
            agent = _json_id(entry["id"], int, "agent id")
            agents.append(agent)
            valuation = {}
            for edge_id, dens in entry["valuation"].items():
                key = (
                    tuple(_json_list(dens["breakpoints"], "breakpoints")),
                    tuple(_json_list(dens["densities"], "densities")),
                )
                if key not in densities:
                    densities[key] = StepDensity(
                        tuple(map(parse, key[0])), tuple(map(parse, key[1]))
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
    except (json.JSONDecodeError, RecursionError) as exc:
        # A RecursionError is nesting deeper than the decoder's stack allows.
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
        parse = _document_parser()
        for entry in _json_list(data["agents"], "allocation agents"):
            agent = _json_id(entry["id"], int, "allocation agent id")
            if agent not in instance.agents:
                raise ValueError(f"allocation names agent {agent!r}, which the instance lacks")
            if agent in shares:
                raise ValueError(f"allocation lists agent {agent!r} twice")
            intervals = [
                EdgeInterval(_json_id(t["edge"], str, "allocation edge id"), parse(t["from"]), parse(t["to"]))
                for t in _json_list(entry["share"], "share")
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
    except (json.JSONDecodeError, RecursionError) as exc:
        # A RecursionError is nesting deeper than the decoder's stack allows.
        raise ValueError(f"malformed JSON: {exc}") from exc
    return allocation_from_dict(instance, data)
