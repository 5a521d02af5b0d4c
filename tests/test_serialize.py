"""JSON round-trips and stable DOT output."""

from __future__ import annotations

import re
from enum import IntEnum

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


GOOD_ARROW = {"from": "a", "to": "b"}


@pytest.mark.parametrize(
    "arrows, message",
    [
        (
            [GOOD_ARROW, {"from": "b", "to": "c", "mlt": 2}],
            "unknown key arrows[1].mlt; expected one of from, to, mult",
        ),
        ([{"to": "b", "x": 1, "from": "a"}], "unknown key arrows[0].x; expected one of from, to, mult"),
        (
            [GOOD_ARROW, {"from": "b", "to": "c", "mult": 0}],
            "arrow 'mult' must be a positive integer: {'from': 'b', 'to': 'c', 'mult': 0}",
        ),
        (
            [{"from": "a", "to": "b", "mult": True}],
            "arrow 'mult' must be a positive integer: {'from': 'a', 'to': 'b', 'mult': True}",
        ),
        (
            [{"from": "a", "to": "b", "mult": 2.0}],
            "arrow 'mult' must be a positive integer: {'from': 'a', 'to': 'b', 'mult': 2.0}",
        ),
        ([GOOD_ARROW, {"from": True, "to": "c"}], "arrow has a label that is not a string or number: True"),
        ([{"from": "a", "to": None}], "arrow has a label that is not a string or number: None"),
        ([GOOD_ARROW, {"from": ["b"], "to": "c"}], "arrow has a label that is not a string or number: ['b']"),
        ([GOOD_ARROW, {"from": "b"}], "arrow needs 'from' and 'to': {'from': 'b'}"),
        ([GOOD_ARROW, ["b", "c"]], "arrow needs 'from' and 'to': ['b', 'c']"),
        # the first arrow at fault is named, whatever its fault
        (
            [GOOD_ARROW, {"from": "b", "to": None}, {"from": "a", "to": "c", "m": 1}],
            "arrow has a label that is not a string or number: None",
        ),
    ],
    ids=[
        "key", "key-first", "zero-mult", "bool-mult", "float-mult", "bool-label",
        "null-label", "list-label", "missing-to", "not-an-object", "first-offence",
    ],
)
def test_malformed_arrows_named(arrows, message):
    with pytest.raises(QuiverError) as err:
        quiver_from_dict({"vertices": ["a", "b", "c"], "arrows": arrows})
    assert type(err.value) is QuiverError
    assert str(err.value) == message


def test_arrows_that_only_the_per_arrow_checks_admit():
    # JSON gives only plain types, but a Python caller may pass a str
    # subclass or an IntEnum: the whole-list type scans refuse both, and
    # the per-arrow isinstance checks admit them
    class Label(str):
        pass

    class Mult(IntEnum):
        TWO = 2

    for arrow in (
        {"from": Label("a"), "to": "b", "mult": 2},
        {"from": "a", "to": "b", "mult": Mult.TWO},
    ):
        q = quiver_from_dict({"vertices": ["a", "b"], "arrows": [arrow]})
        assert q == make_quiver(["a", "b"], [("a", "b", 2)])
        assert [tuple(map(type, a)) for a in q.arrows()] == [(str, str, int)]


def test_arrows_are_checked_before_vertices():
    with pytest.raises(QuiverError, match="arrow needs 'from' and 'to'"):
        quiver_from_dict({"vertices": "ab", "arrows": [{"from": "a"}]})


def test_numeric_arrow_labels_canonicalized():
    q = quiver_from_dict(
        {"vertices": [1, 2.5, "c"], "arrows": [{"from": 1, "to": 2.5, "mult": 2}, {"from": "c", "to": 1}]}
    )
    assert q == make_quiver(["1", "2.5", "c"], [("1", "2.5", 2), ("c", "1")])


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


NOT_A_LABEL = "has a label that is not a string or number"


@pytest.mark.parametrize(
    "data, error, message",
    [
        (
            {"chains": [["a", True], ["b"]], "oblique": [{"from": "a", "to": "b"}]},
            DecompositionError,
            f"a chain {NOT_A_LABEL}: True",
        ),
        ({"chains": [["a"], [None]]}, DecompositionError, f"a chain {NOT_A_LABEL}: None"),
        ({"chains": [["a", ["b"]]]}, DecompositionError, f"a chain {NOT_A_LABEL}: ['b']"),
        (
            {"chains": [["a"], [{"v": "b"}]]},
            DecompositionError,
            f"a chain {NOT_A_LABEL}: {{'v': 'b'}}",
        ),
        ({"chains": [["a"], "b"]}, DecompositionError, "a chain must be a list of labels, got str"),
        (
            {"chains": [["a"], ["b"]], "oblique": [{"from": "a", "to": False}]},
            DecompositionError,
            f"an oblique {NOT_A_LABEL}: False",
        ),
        (
            {"chains": [["a"], ["b"]], "oblique": [{"from": None, "to": "b"}]},
            DecompositionError,
            f"an oblique {NOT_A_LABEL}: None",
        ),
        (
            {"chains": [["a"], ["b"]], "oblique": [{"from": "a", "to": ["b"]}]},
            DecompositionError,
            f"an oblique {NOT_A_LABEL}: ['b']",
        ),
        (
            {"chains": [["a"], ["b"]], "oblique": [{"from": {"a": 1}, "to": "b"}]},
            DecompositionError,
            f"an oblique {NOT_A_LABEL}: {{'a': 1}}",
        ),
        (
            {"chains": [["a"], ["b"]], "oblique": [{"from": "a", "to": "zz"}]},
            QuiverError,
            "oblique endpoint not in any chain: 'zz'",
        ),
        (
            {"chains": [[1], [2]], "oblique": [{"from": 1, "to": 3}]},
            QuiverError,
            "oblique endpoint not in any chain: '3'",
        ),
        (
            {"chains": [["a"], [None]], "oblique": [{"from": "a", "to": True}]},
            DecompositionError,
            f"a chain {NOT_A_LABEL}: None",
        ),
    ],
    ids=[
        "bool-in-chain",
        "null-in-chain",
        "list-in-chain",
        "object-in-chain",
        "chain-not-a-list",
        "bool-end",
        "null-end",
        "list-end",
        "object-end",
        "unknown-end",
        "unknown-numeric-end",
        "chain-reported-before-oblique",
    ],
)
def test_malformed_decomposition_labels(data, error, message):
    with pytest.raises(error) as err:
        decomposition_from_dict(data)
    assert type(err.value) is error
    assert str(err.value) == message


def test_numeric_decomposition_labels_canonicalized():
    data = {
        "chains": [[1, 2.5], ["3"]],
        "oblique": [{"from": 1, "to": "3"}, {"from": 3, "to": 2.5}],
    }
    dec = decomposition_from_dict(data)
    assert dec.chains == (("1", "2.5"), ("3",))
    assert decomposition_to_dict(dec) == {
        "chains": [["1", "2.5"], ["3"]],
        "oblique": [{"from": "1", "to": "3"}, {"from": "3", "to": "2.5"}],
    }
    assert {type(v) for chain in dec.chains for v in chain} == {str}
    # str chains with a numeric end: only the obliques take the per-label check
    mixed = decomposition_from_dict(
        {"chains": [["1", "2"], ["3"]], "oblique": [{"from": 1, "to": "3"}]}
    )
    assert decomposition_to_dict(mixed)["oblique"] == [{"from": "1", "to": "3"}]


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
        (
            decomposition_from_dict,
            {
                "chains": [["a"], ["b"], ["c"]],
                "oblique": [{"from": "a", "to": "b"}, {"to": "c", "via": 1, "from": "b"}],
            },
            DecompositionError,
            "oblique[1].via",
        ),
    ],
    ids=["quiver", "arrow", "sequence", "decomposition", "oblique", "later-oblique"],
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


def test_dot_plain_quiver_has_unfilled_circles():
    # a quiver without a framing has no colours to draw
    dot = to_dot(make_quiver(["1", "2"], [("2", "1", 2)]), name="plain")
    assert dot.splitlines() == [
        "digraph plain {",
        '  "1" [shape=circle];',
        '  "2" [shape=circle];',
        '  "2" -> "1" [label="2"];',
        "}",
    ]


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
