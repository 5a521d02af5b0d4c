"""JSON round-trips and stable DOT output."""

from __future__ import annotations

import re

import pytest

from greenseq.decomposition import (
    DecompositionError,
    build_decomposition,
    decomposition_from_dict,
    decomposition_to_dict,
)
from greenseq.quiver import (
    IceQuiver,
    MutationSequence,
    QuiverError,
    final_state,
    frame,
    make_quiver,
)
from greenseq.serialize import (
    quiver_from_dict,
    quiver_to_dict,
    sequence_from_dict,
    sequence_to_dict,
    to_dot,
)


def test_quiver_round_trip():
    q = make_quiver(["1", "2", "3"], [("2", "1"), ("3", "2", 2)])
    data = quiver_to_dict(q)
    assert data["arrows"] == [
        {"from": "2", "to": "1", "mult": 1},
        {"from": "3", "to": "2", "mult": 2},
    ]
    assert quiver_from_dict(data) == q
    # fixpoint: export of the import equals the export
    assert quiver_to_dict(quiver_from_dict(data)) == data


def test_numeric_labels_canonicalized():
    data = {"vertices": [1, 2], "arrows": [{"from": 2, "to": 1}]}
    q = quiver_from_dict(data)
    assert q.vertices == ("1", "2")


def test_frozen_round_trip():
    iq = frame(make_quiver(["1", "2"], [("2", "1")]))
    data = quiver_to_dict(iq)
    assert data["frozen"] == ["1'", "2'"]
    assert quiver_from_dict(data) == iq


def test_missing_vertices_rejected():
    with pytest.raises(QuiverError):
        quiver_from_dict({"arrows": []})


def test_sequence_orders():
    seq = MutationSequence(("1", "2", "1"))
    assert sequence_to_dict(seq) == {"steps": ["1", "2", "1"], "order": "execution"}
    comp = sequence_to_dict(seq, order="composition")
    assert comp["steps"] == ["1", "2", "1"][::-1]
    assert sequence_from_dict(comp) == seq
    assert sequence_from_dict({"steps": ["2", "1"]}) == MutationSequence(("2", "1"))
    assert sequence_from_dict(
        {"steps": ["2", "1"]}, default_order="composition"
    ) == MutationSequence(("1", "2"))


def test_numeric_steps_accepted():
    assert sequence_from_dict({"steps": [1, 2]}) == MutationSequence(("1", "2"))


@pytest.mark.parametrize(
    "data",
    [
        {"vertices": "ab"},
        {"vertices": ["a", None]},
        {"vertices": ["a", "b"], "frozen": "b"},
        {"vertices": ["a", "b"], "arrows": {"from": "a", "to": "b"}},
        ["a", "b"],
    ],
)
def test_malformed_quiver_rejected(data):
    with pytest.raises(QuiverError):
        quiver_from_dict(data)


def test_malformed_sequence_rejected():
    for data in ({"steps": "ab"}, {"steps": [["a"]]}, {"steps": [True]}, ["a"]):
        with pytest.raises(QuiverError):
            sequence_from_dict(data)


def test_missing_steps_rejected():
    with pytest.raises(QuiverError, match="steps"):
        sequence_from_dict({"step": ["a", "b", "a"]})


def test_malformed_decomposition_rejected():
    for data in (
        {"chains": "a1"},
        {"chains": ["a1"]},
        {"chains": [["a"], ["b"]], "oblique": [{"from": "a"}]},
        {"chains": [["a"], ["b"]], "oblique": {"from": "a", "to": "b"}},
        [["a"]],
    ):
        with pytest.raises(DecompositionError):
            decomposition_from_dict(data)


@pytest.mark.parametrize(
    "parse, data, error, path",
    [
        (quiver_from_dict, {"vertices": ["a"], "extra": 1}, QuiverError, "extra"),
        (
            quiver_from_dict,
            {"vertices": ["a", "b"], "arrows": [{"from": "a", "to": "b", "mlt": 3}]},
            QuiverError,
            "arrows[0].mlt",
        ),
        (sequence_from_dict, {"steps": ["a"], "ordre": "execution"}, QuiverError, "ordre"),
        (
            decomposition_from_dict,
            {"chains": [["a"]], "obliques": []},
            DecompositionError,
            "obliques",
        ),
        (
            decomposition_from_dict,
            {"chains": [["a"], ["b"]], "oblique": [{"from": "a", "to": "b", "m": 1}]},
            DecompositionError,
            "oblique[0].m",
        ),
    ],
    ids=["quiver", "arrow", "sequence", "decomposition", "oblique"],
)
def test_unknown_key_rejected(parse, data, error, path):
    with pytest.raises(error, match=f"unknown key {re.escape(path)};"):
        parse(data)


def test_decomposition_round_trip():
    dec = build_decomposition([["x1", "x2"], ["y"]], [("x1", "y"), ("y", "x2")])
    data = decomposition_to_dict(dec)
    assert data["chains"] == [["x1", "x2"], ["y"]]
    back = decomposition_from_dict(data)
    assert back.chains == dec.chains
    assert back.obliques == dec.obliques


def test_dot_framed_state():
    q = make_quiver(["1", "2"], [("2", "1")])
    dot = to_dot(frame(q))
    assert dot.count("shape=box") == 2
    assert dot.count('fillcolor="green"') == 2
    assert '"2" -> "1";' in dot


def test_dot_colors_follow_state():
    q = make_quiver(["1", "2"], [("2", "1")])
    final = final_state(frame(q), ["2", "1"])
    dot = to_dot(final)
    assert dot.count('fillcolor="red"') == 2
    assert 'fillcolor="green"' not in dot


def test_dot_stable_and_labels_multiplicity():
    q = make_quiver(["b", "a", "c"], [("b", "a", 3), ("c", "b")])
    first = to_dot(IceQuiver(q, frozenset(["c"])))
    second = to_dot(IceQuiver(q, frozenset(["c"])))
    assert first == second
    assert '"b" -> "a" [label="3"];' in first
    lines = first.splitlines()
    node_lines = [l for l in lines if "shape=" in l]
    assert node_lines == sorted(node_lines)
