"""Biconnected blocks and oriented-cycle-glued decompositions."""

from __future__ import annotations

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_quiver, random_type_a_quiver, reference_cycles
from greenseq.cycles import all_cycles_oriented_decompose, blocks, oriented_cycle
from greenseq.decomposition import (
    check_step_shapes,
    construct_mgs,
    expected_mgs_length,
    underlying_quiver,
)
from greenseq.fixtures import fig7_quiver, fig8_quiver, oriented_cycles_example
from greenseq.quiver import Quiver, is_maximal_green_sequence, make_quiver
from greenseq.type_a import is_type_a, triangles


def triangle():
    return make_quiver([1, 2, 3], [(1, 2), (2, 3), (3, 1)])


class TestEnumeration:
    """``blocks`` lists the biconnected blocks of the underlying graph."""

    def test_tree_has_no_cycles(self):
        q = make_quiver([1, 2, 3], [(2, 1), (3, 2)])
        assert blocks(q) == [("1", "2"), ("2", "3")]

    def test_oriented_triangle(self):
        assert blocks(triangle()) == [("1", "2", "3")]
        assert oriented_cycle(triangle(), ("1", "2", "3")) == ("1", "2", "3")
        reversed_triangle = make_quiver([1, 2, 3], [(2, 1), (3, 2), (1, 3)])
        assert oriented_cycle(reversed_triangle, ("1", "2", "3")) == ("1", "3", "2")

    def test_non_oriented_cycle_tagged(self):
        q = make_quiver([1, 2, 3], [(1, 2), (3, 2), (3, 1)])
        assert blocks(q) == [("1", "2", "3")]
        assert oriented_cycle(q, ("1", "2", "3")) is None

    def test_chained_triangles_have_three_cycles(self):
        q = fig8_quiver()
        found = blocks(q)
        assert [len(b) for b in found] == [3, 3, 3]
        assert len(set().union(*found)) == len(q.vertices)
        assert all(oriented_cycle(q, b) is not None for b in found)
        assert triangles(q) == sorted(c for c, _ in reference_cycles(q))

    def test_isolated_vertex_is_in_no_block(self):
        q = make_quiver([1, 2, 3], [(1, 2)])
        assert blocks(q) == [("1", "2")]

    def test_two_disjoint_cycles_are_not_one_cycle(self):
        q = make_quiver([1, 2, 3, 4, 5, 6], [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4)])
        assert oriented_cycle(q, q.vertices) is None
        assert oriented_cycle(q, ("4", "5", "6")) == ("4", "5", "6")

    def test_two_cycles_sharing_an_arrow_are_one_block(self):
        q = make_quiver([1, 2, 3, 4], [(1, 2), (2, 3), (3, 1), (2, 4), (4, 1)])
        assert blocks(q) == [("1", "2", "3", "4")]
        assert oriented_cycle(q, blocks(q)[0]) is None


class TestIrreducible:
    """Every arrow lies on an oriented cycle when every block is one."""

    def test_triangle_irreducible(self):
        (block,) = blocks(triangle())
        assert oriented_cycle(triangle(), block) is not None

    def test_pendant_arrow_not_irreducible(self):
        q = make_quiver([1, 2, 3, 4], [(1, 2), (2, 3), (3, 1), (3, 4)])
        assert blocks(q) == [("3", "4"), ("1", "2", "3")]
        assert all_cycles_oriented_decompose(q) is None


def random_cactus(rng: random.Random, n: int) -> Quiver:
    """Oriented cycles and pendant arrows glued at single vertices.

    Then one arrow may be reversed or one arrow added, so both sides of
    each characterisation are drawn.
    """
    b = np.zeros((n, n), dtype=np.int64)
    placed = 1
    while placed < n:
        size = min(rng.randint(1, 4), n - placed)
        cycle = [rng.randrange(placed), *range(placed, placed + size)]
        pairs = zip(cycle, cycle[1:] + cycle[:1]) if size > 1 else [cycle]
        for u, v in pairs:
            b[u, v], b[v, u] = 1, -1
        placed += size
    if n > 1 and rng.random() < 0.5:
        u, v = rng.sample(range(n), 2)
        # reverse the arrow between u and v, or add one where there is none
        b[u, v], b[v, u] = (b[v, u], b[u, v]) if b[u, v] else (1, -1)
    return Quiver(tuple(f"v{i}" for i in range(n)), b)


@st.composite
def simple_quivers(draw):
    rng = random.Random(draw(st.integers(0, 10**6)))
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["random", "cactus", "type_a"]))
    if kind == "cactus":
        return random_cactus(rng, n)
    if kind == "type_a":
        return random_type_a_quiver(rng, n // 3)
    return random_quiver(rng, n, draw(st.sampled_from([0.2, 0.35, 0.5, 0.8])), 1)


class TestBlocksAgainstCycleEnumeration:
    """Both block characterisations against networkx's simple cycles."""

    @settings(max_examples=60, deadline=None)
    @given(q=simple_quivers())
    def test_oriented_cycle_family(self, q):
        reference = reference_cycles(q)
        on_cycle = {
            frozenset(pair)
            for c, _ in reference
            for pair in zip(c, c[1:] + c[:1])
        }
        expected = all(oriented for _, oriented in reference) and all(
            frozenset((u, v)) in on_cycle for u, v, _ in q.arrows()
        )
        cycles = [oriented_cycle(q, b) for b in blocks(q)]
        assert (None not in cycles) == expected
        if expected:
            assert sorted(cycles) == sorted(c for c, _ in reference)

    @settings(max_examples=60, deadline=None)
    @given(q=simple_quivers())
    def test_triangle_family(self, q):
        reference = reference_cycles(q)
        expected = all(oriented and len(c) == 3 for c, oriented in reference)
        found = blocks(q)
        trivial = all(
            len(b) == 2 or (len(b) == 3 and oriented_cycle(q, b) is not None)
            for b in found
        )
        assert trivial == expected
        if is_type_a(q):
            assert triangles(q) == sorted(c for c, _ in reference)


class TestDecompose:
    def test_single_triangle(self):
        dec = all_cycles_oriented_decompose(triangle())
        assert sorted(dec.chain_lengths) == [1, 2]
        assert is_maximal_green_sequence(triangle(), construct_mgs(dec))

    def test_tree_of_cycles_reference(self):
        q = fig7_quiver()
        dec = all_cycles_oriented_decompose(q)
        assert dec is not None
        assert dec.n_chains == 6
        assert sorted(dec.chain_lengths) == [1, 2, 3, 3, 4, 4]
        seq = construct_mgs(dec)
        assert len(seq) == expected_mgs_length(dec) == 36
        assert is_maximal_green_sequence(q, seq)
        assert check_step_shapes(dec, seq) == []

    def test_reference_chain_presentation_round_trips(self):
        from greenseq.decomposition import decompose_with_chains
        from greenseq.fixtures import FIG7_CHAINS

        q = fig7_quiver()
        dec = decompose_with_chains(q, FIG7_CHAINS)
        assert underlying_quiver(dec) == q
        assert expected_mgs_length(dec) == 36
        assert is_maximal_green_sequence(q, construct_mgs(dec))

    def test_several_cycles_at_one_vertex(self):
        q = oriented_cycles_example()
        dec = all_cycles_oriented_decompose(q)
        assert dec is not None
        assert underlying_quiver(dec) == q
        assert is_maximal_green_sequence(q, construct_mgs(dec))

    def test_non_oriented_cycle_returns_none(self):
        q = make_quiver([1, 2, 3, 4], [(1, 2), (2, 3), (4, 3), (4, 1)])
        assert all_cycles_oriented_decompose(q) is None

    def test_tree_quiver_returns_none(self):
        q = make_quiver([1, 2, 3], [(2, 1), (3, 2)])
        assert all_cycles_oriented_decompose(q) is None

    def test_disconnected_returns_none(self):
        q = make_quiver([1, 2, 3, 4, 5, 6], [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4)])
        assert all_cycles_oriented_decompose(q) is None
