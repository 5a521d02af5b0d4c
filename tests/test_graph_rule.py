"""The three-step graph rule agrees with the matrix rule everywhere."""

from __future__ import annotations

import random

import pytest
from conftest import random_ice_quiver
from greenseq.graph_rule import arrows_of, mutate_arrows, mutate_by_graph_rule
from greenseq.quiver import FrozenVertexMutationError, IceQuiver, frame, make_quiver, mutate


def test_sink_reversal():
    q = make_quiver(["1", "2"], [("2", "1")])
    iq = IceQuiver(q, frozenset())
    assert mutate_by_graph_rule(iq, "1") == mutate(iq, "1")


def test_composite_and_cancellation():
    tri = make_quiver([1, 2, 3], [(1, 2), (2, 3), (3, 1)])
    iq = IceQuiver(tri, frozenset())
    out = mutate_by_graph_rule(iq, "1")
    assert out.quiver.arrows() == [("1", "3", 1), ("2", "1", 1)]


def test_frozen_frozen_composites_skipped():
    # path f -> k -> g with f, g frozen must not create an f -> g arrow
    q = make_quiver(["f", "g", "k", "m"], [("f", "k"), ("k", "g"), ("m", "k")])
    iq = IceQuiver(q, frozenset(["f", "g"]))
    new = mutate_arrows(arrows_of(iq.quiver), iq.frozen, "k")
    assert ("f", "g") not in new
    assert new[("m", "g")] == 1
    assert mutate_by_graph_rule(iq, "k") == mutate(iq, "k")


def test_frozen_vertex_refused():
    # like the matrix rule, the graph rule mutates no frozen vertex
    iq = IceQuiver(make_quiver(["1", "2"], [("2", "1")]), frozenset(["2"]))
    for rule in (mutate_by_graph_rule, mutate):
        with pytest.raises(FrozenVertexMutationError, match="cannot mutate frozen vertex '2'"):
            rule(iq, "2")


def test_agreement_on_random_mutations():
    rng = random.Random(31415)
    for _ in range(1000):
        n = rng.randint(2, 7)
        iq = random_ice_quiver(rng, n, rng.randint(0, min(3, n - 1)))
        k = rng.choice(iq.mutable)
        assert mutate_by_graph_rule(iq, k) == mutate(iq, k)


def test_agreement_along_framed_runs():
    # iterated mutations from framed quivers, including multiplicity growth
    rng = random.Random(2718)
    for _ in range(40):
        from conftest import random_quiver

        iq = frame(random_quiver(rng, rng.randint(2, 5)))
        for _ in range(8):
            k = rng.choice(iq.mutable)
            by_graph = mutate_by_graph_rule(iq, k)
            iq = mutate(iq, k)
            assert by_graph == iq
