"""Argument checks of the public API: the exact error type and message of
each refused call that no other test makes."""

from __future__ import annotations

import pytest

from greenseq.families import linear_a
from greenseq.oracle import min_mgs_length
from greenseq.quiver import (
    IceQuiver,
    MutationSequence,
    QuiverError,
    UnknownVertexError,
    color,
    frame,
)
from greenseq.serialize import sequence_from_dict, sequence_to_dict


def a2():
    return linear_a(2)[0]


CALLS = {
    "min-unknown-engine": (
        lambda: min_mgs_length(a2(), engine="astar"),
        QuiverError,
        "unknown engine 'astar'",
    ),
    "min-dfs-without-max-len": (
        lambda: min_mgs_length(a2(), engine="dfs"),
        QuiverError,
        "dfs engine needs max_len to be able to answer None",
    ),
    "ice-unknown-frozen-vertex": (
        lambda: IceQuiver(a2(), frozenset({"zz"})),
        UnknownVertexError,
        "frozen vertex 'zz' not in quiver",
    ),
    "color-of-frozen-vertex": (
        lambda: color(frame(a2()), "1'"),
        QuiverError,
        "color is defined for mutable vertices only: \"1'\"",
    ),
    "sequence-to-dict-unknown-order": (
        lambda: sequence_to_dict(MutationSequence.from_execution(["1"]), "sideways"),
        QuiverError,
        "unknown sequence order 'sideways'",
    ),
    "sequence-from-dict-unknown-order": (
        lambda: sequence_from_dict({"steps": ["1"], "order": "sideways"}),
        QuiverError,
        "unknown sequence order 'sideways'",
    ),
    "linear-a-of-zero": (lambda: linear_a(0), QuiverError, "need n >= 1"),
}


@pytest.mark.parametrize("case", sorted(CALLS))
def test_refused_call(case):
    call, error, message = CALLS[case]
    with pytest.raises(QuiverError) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message
