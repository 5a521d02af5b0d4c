"""Biconnected blocks and oriented-cycle-glued decompositions."""

from __future__ import annotations

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import golden_quivers, random_quiver, random_type_a_quiver, reference_cycles
from greenseq.cycles import all_cycles_oriented_decompose
from greenseq.decomposition import (
    check_step_shapes,
    construct_mgs,
    expected_mgs_length,
    underlying_quiver,
)
from greenseq.fixtures import fig7_quiver, fig8_quiver, oriented_cycles_example
from greenseq.quiver import Quiver, full_subquiver, is_maximal_green_sequence, make_quiver
from greenseq.type_a import NotTypeAError, triangles


def triangle():
    return make_quiver([1, 2, 3], [(1, 2), (2, 3), (3, 1)])


def walk(q: Quiver, vertices) -> tuple[str, ...] | None:
    """``Quiver._cycle_on`` on labels: the one walk that the type-D
    recognizer runs on vertex sets that need not be blocks."""
    return q._cycle_on({q.index(v) for v in vertices})


class TestEnumeration:
    """``Quiver._blocks`` lists the biconnected blocks of the underlying
    graph, each with its oriented cycle or None."""

    def test_tree_has_no_cycles(self):
        q = make_quiver([1, 2, 3], [(2, 1), (3, 2)])
        assert list(q._blocks) == [("1", "2"), ("2", "3")]

    def test_oriented_triangle(self):
        assert list(triangle()._blocks) == [("1", "2", "3")]
        assert triangle()._blocks[("1", "2", "3")] == ("1", "2", "3")
        reversed_triangle = make_quiver([1, 2, 3], [(2, 1), (3, 2), (1, 3)])
        assert reversed_triangle._blocks[("1", "2", "3")] == ("1", "3", "2")

    def test_non_oriented_cycle_tagged(self):
        q = make_quiver([1, 2, 3], [(1, 2), (3, 2), (3, 1)])
        assert list(q._blocks) == [("1", "2", "3")]
        assert q._blocks[("1", "2", "3")] is None

    def test_chained_triangles_have_three_cycles(self):
        q = fig8_quiver()
        found = list(q._blocks)
        assert [len(b) for b in found] == [3, 3, 3]
        assert len(set().union(*found)) == len(q.vertices)
        assert all(q._blocks[b] is not None for b in found)
        assert triangles(q) == sorted(c for c, _ in reference_cycles(q))

    def test_isolated_vertex_is_in_no_block(self):
        q = make_quiver([1, 2, 3], [(1, 2)])
        assert list(q._blocks) == [("1", "2")]

    def test_two_disjoint_cycles_are_not_one_cycle(self):
        q = make_quiver([1, 2, 3, 4, 5, 6], [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4)])
        assert walk(q, q.vertices) is None
        assert q._blocks[("4", "5", "6")] == ("4", "5", "6")

    def test_two_cycles_sharing_an_arrow_are_one_block(self):
        q = make_quiver([1, 2, 3, 4], [(1, 2), (2, 3), (3, 1), (2, 4), (4, 1)])
        assert list(q._blocks) == [("1", "2", "3", "4")]
        assert q._blocks[("1", "2", "3", "4")] is None


class TestIrreducible:
    """Every arrow lies on an oriented cycle when every block is one."""

    def test_triangle_irreducible(self):
        ((block, cycle),) = triangle()._blocks.items()
        assert cycle is not None

    def test_pendant_arrow_not_irreducible(self):
        q = make_quiver([1, 2, 3, 4], [(1, 2), (2, 3), (3, 1), (3, 4)])
        assert list(q._blocks) == [("3", "4"), ("1", "2", "3")]
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
    labels = [f"v{i}" for i in range(n)]
    return make_quiver(labels, [(labels[i], labels[j], b[i, j]) for i, j in zip(*np.nonzero(b > 0))])


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
        cycles = list(q._blocks.values())
        assert (None not in cycles) == expected
        if expected:
            assert sorted(cycles) == sorted(c for c, _ in reference)

    @settings(max_examples=60, deadline=None)
    @given(q=simple_quivers())
    def test_triangle_family(self, q):
        reference = reference_cycles(q)
        expected = all(oriented and len(c) == 3 for c, oriented in reference)
        trivial = all(
            len(b) == 2 or (len(b) == 3 and c is not None) for b, c in q._blocks.items()
        )
        assert trivial == expected
        try:
            found = triangles(q)
        except NotTypeAError:
            return
        assert found == sorted(c for c, _ in reference)


def label_cycle(q: Quiver, vertices) -> tuple[str, ...] | None:
    """Reference for ``Quiver._cycle_on``, on labels: every vertex needs one
    in- and one out-neighbour inside, and the walk from the smallest label
    must visit them all before it returns."""
    inside = set(vertices)
    if len(inside) < 3:
        return None
    succ = {}
    for v in inside:
        outs = [w for w in q.out_neighbors(v) if w in inside]
        ins = [w for w in q.in_neighbors(v) if w in inside]
        if len(outs) != 1 or len(ins) != 1:
            return None
        succ[v] = outs[0]
    cycle = [min(inside)]
    while len(cycle) < len(inside):
        cycle.append(succ[cycle[-1]])
        if cycle[-1] == cycle[0]:
            return None
    return tuple(cycle)


def reference_census(q: Quiver) -> dict[tuple[str, ...], tuple[str, ...] | None]:
    """Each biconnected block by networkx, mapped to its directed cycle
    from the smallest label when its induced arrows form exactly one."""
    import networkx as nx

    graph = nx.Graph((u, v) for u, v, _ in q.arrows())
    out = {}
    for component in nx.biconnected_components(graph):
        block = tuple(sorted(component))
        induced = nx.DiGraph((u, v) for u, v, _ in q.arrows() if u in component and v in component)
        cycles = list(nx.simple_cycles(induced))
        one = (
            len(block) >= 3
            and induced.number_of_edges() == len(block)
            and len(cycles) == 1
            and len(cycles[0]) == len(block)
        )
        cycle = None
        if one:
            start = cycles[0].index(block[0])
            cycle = tuple(cycles[0][start:] + cycles[0][:start])
        out[block] = cycle
    return out


@st.composite
def census_quivers(draw):
    """Random quivers on up to 12 vertices, multiplicity up to 2, or cacti."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        return random_cactus(rng, n)
    density = draw(st.sampled_from([0.15, 0.3, 0.5]))
    labels = [f"v{i}" for i in range(n)]
    arrows = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                u, v = (labels[i], labels[j])[:: rng.choice((1, -1))]
                arrows.append((u, v, rng.randint(1, 2)))
    return make_quiver(labels, arrows)


class TestCensus:
    """The block census and the one oriented-cycle walk, against networkx
    and a label-level reference."""

    @settings(max_examples=150, deadline=None)
    @given(q=census_quivers())
    def test_census_matches_networkx(self, q):
        census = q._blocks
        assert census == reference_census(q)
        assert list(census) == sorted(census, key=lambda b: (len(b), b))

    def test_census_matches_networkx_on_golden_inputs(self):
        for kind, q in golden_quivers():
            assert q._blocks == reference_census(q), kind

    @settings(max_examples=150, deadline=None)
    @given(q=census_quivers(), data=st.data())
    def test_walk_on_any_subset_matches_labels(self, q, data):
        subset = data.draw(st.sets(st.sampled_from(q.vertices)))
        assert walk(q, subset) == label_cycle(q, subset)
        for block, cycle in q._blocks.items():
            assert cycle == label_cycle(q, block)
            assert walk(q, block) == label_cycle(q, block)

    def test_block_answers_are_read_off_the_census(self, monkeypatch):
        q = fig7_quiver()
        census = dict(q._blocks)
        walked = []
        real = Quiver._cycle_on
        monkeypatch.setattr(
            Quiver, "_cycle_on", lambda self, inside: walked.append(inside) or real(self, inside)
        )
        dec = all_cycles_oriented_decompose(q)
        assert sorted(dec.chain_lengths) == [1, 2, 3, 3, 4, 4]
        assert list(q._blocks.values()) == list(census.values())
        assert not walked
        walk(q, q.vertices)
        assert walked == [set(range(len(q.vertices)))]

    def test_walk_on_golden_subsets_matches_labels(self):
        rng = random.Random(5)
        for kind, q in golden_quivers():
            for _ in range(5):
                subset = rng.sample(q.vertices, rng.randint(0, len(q.vertices)))
                assert walk(q, subset) == label_cycle(q, subset), kind
                sub = full_subquiver(q, subset)
                assert sub._blocks == reference_census(sub), kind


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
