"""JSON and DOT serialization for quivers, sequences, and decompositions.

File formats, with every accepted key:

* quiver: ``{"vertices": [...], "arrows": [{"from":, "to":, "mult":}],
  "frozen": [...]}`` with ``arrows``, ``mult`` and ``frozen`` optional,
* sequence: ``{"steps": [...], "order": "execution" | "composition"}``
  with ``order`` optional,
* decomposition: ``{"chains": [[labels, position 1 first], ...],
  "oblique": [{"from":, "to":}, ...]}``.

Labels are strings on output; numeric labels on input are accepted and
canonicalized to strings.  Input of any other shape (a string where a list
is due, an arrow without both endpoints, a multiplicity that is not a
positive integer, a sequence without ``steps``, a key not listed above)
raises QuiverError, or DecompositionError for a decomposition.  DOT output
is sorted so exports are stable.
"""

from __future__ import annotations

from typing import Any, Union

from .quiver import (
    Color,
    IceQuiver,
    MutationSequence,
    Quiver,
    QuiverError,
    ZeroRowError,
    NotSignCoherentError,
    color,
    make_quiver,
)


def _json_labels(
    values: Any, what: str, error: type[QuiverError] = QuiverError
) -> list[str]:
    """A JSON list of vertex labels as strings; raises ``error`` on any other shape.

    Strings and numbers are labels; booleans, null, lists and objects are not.
    """
    if not isinstance(values, list):
        raise error(f"{what} must be a list of labels, got {type(values).__name__}")
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (str, int, float)):
            raise error(f"{what} has a label that is not a string or number: {v!r}")
    return [str(v) for v in values]


def _known_keys(
    data: dict,
    keys: tuple[str, ...],
    prefix: str = "",
    error: type[QuiverError] = QuiverError,
) -> None:
    """Raise ``error`` naming the first key of ``data`` outside ``keys``.

    ``prefix`` locates the object, such as ``arrows[0].``.
    """
    for key in data:
        if key not in keys:
            raise error(f"unknown key {prefix}{key}; expected one of {', '.join(keys)}")


def quiver_to_dict(q: Union[Quiver, IceQuiver]) -> dict[str, Any]:
    frozen: list[str] = []
    if isinstance(q, IceQuiver):
        frozen = sorted(q.frozen)
        q = q.quiver
    return {
        "vertices": list(q.vertices),
        "arrows": [
            {"from": u, "to": v, "mult": m} for u, v, m in q.arrows()
        ],
        "frozen": frozen,
    }


def quiver_from_dict(data: dict[str, Any]) -> Union[Quiver, IceQuiver]:
    """Parse a quiver dict; returns an IceQuiver when ``frozen`` is non-empty."""
    if not isinstance(data, dict) or "vertices" not in data:
        raise QuiverError("quiver JSON must be an object with a 'vertices' field")
    _known_keys(data, ("vertices", "arrows", "frozen"))
    arrows = data.get("arrows", [])
    if not isinstance(arrows, list):
        raise QuiverError("quiver 'arrows' must be a list")
    parsed = _arrows_of(arrows)
    q = make_quiver(_json_labels(data["vertices"], "quiver 'vertices'"), parsed)
    frozen = frozenset(_json_labels(data.get("frozen", []), "quiver 'frozen'"))
    if frozen:
        return IceQuiver(q, frozen)
    return q


_ARROW_KEYS = ("from", "to", "mult")


def _arrows_of(arrows: list) -> list[tuple[str, str, int]]:
    """The (from, to, mult) triples of a JSON arrow list.

    A well-formed list is admitted by whole-list scans of the key sets,
    the multiplicities and the label types; any other list takes the
    per-arrow checks, which raise at its first offence.
    """
    if (
        set(map(type, arrows)) <= {dict}
        and set().union(*arrows) <= set(_ARROW_KEYS)
        and all("from" in a and "to" in a for a in arrows)
    ):
        sources, targets = [a["from"] for a in arrows], [a["to"] for a in arrows]
        mults = [a.get("mult", 1) for a in arrows]
        if (
            set(map(type, mults)) <= {int}
            and min(mults, default=1) >= 1
            and set(map(type, sources + targets)) <= {str, int, float}
        ):
            return list(zip(map(str, sources), map(str, targets), mults))
    parsed = []
    for i, a in enumerate(arrows):
        if not isinstance(a, dict) or "from" not in a or "to" not in a:
            raise QuiverError(f"arrow needs 'from' and 'to': {a!r}")
        _known_keys(a, _ARROW_KEYS, f"arrows[{i}].")
        mult = a.get("mult", 1)
        if isinstance(mult, bool) or not isinstance(mult, int) or mult < 1:
            raise QuiverError(f"arrow 'mult' must be a positive integer: {a!r}")
        parsed.append((*_json_labels([a["from"], a["to"]], "arrow"), mult))
    return parsed


def sequence_to_dict(seq: MutationSequence, order: str = "execution") -> dict[str, Any]:
    if order == "execution":
        return {"steps": list(seq.steps), "order": "execution"}
    if order == "composition":
        return {"steps": list(seq.to_composition()), "order": "composition"}
    raise QuiverError(f"unknown sequence order {order!r}")


def sequence_from_dict(
    data: dict[str, Any], default_order: str = "execution"
) -> MutationSequence:
    if not isinstance(data, dict):
        raise QuiverError("sequence JSON must be an object")
    if "steps" not in data:
        raise QuiverError("sequence JSON must have a 'steps' field")
    _known_keys(data, ("steps", "order"))
    steps = _json_labels(data["steps"], "sequence 'steps'")
    order = data.get("order", default_order)
    if order == "execution":
        return MutationSequence.from_execution(steps)
    if order == "composition":
        return MutationSequence.from_composition(steps)
    raise QuiverError(f"unknown sequence order {order!r}")


def _dot_quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(q: Union[Quiver, IceQuiver], name: str = "quiver") -> str:
    """Render to Graphviz DOT with stable (sorted) node and edge order.

    Mutable vertices are circles filled green or red according to the
    current ice-quiver state; frozen vertices are boxes.  Arrows with
    multiplicity above one carry the multiplicity as a label.
    """
    if isinstance(q, IceQuiver):
        iq: IceQuiver | None = q
        plain = q.quiver
    else:
        iq = None
        plain = q
    lines = [f"digraph {name} {{"]
    for v in plain.vertices:
        if iq is not None and v in iq.frozen:
            lines.append(f"  {_dot_quote(v)} [shape=box];")
            continue
        fill = ""
        if iq is not None:
            try:
                c = color(iq, v)
                fill = (
                    ' style=filled fillcolor="green"'
                    if c is Color.GREEN
                    else ' style=filled fillcolor="red"'
                )
            except (ZeroRowError, NotSignCoherentError):
                fill = ' style=filled fillcolor="gray"'
        lines.append(f"  {_dot_quote(v)} [shape=circle{fill}];")
    for u, v, m in plain.arrows():
        label = f' [label="{m}"]' if m > 1 else ""
        lines.append(f"  {_dot_quote(u)} -> {_dot_quote(v)}{label};")
    lines.append("}")
    return "\n".join(lines) + "\n"
