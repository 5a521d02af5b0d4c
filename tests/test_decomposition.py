"""Chain decompositions: validation, the vertex order, and constructed MGS."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenseq import quiver
from greenseq.decomposition import (
    ChainGraphCycleError,
    ChainVertex,
    DisconnectedError,
    MultiplePathsBetweenChainsError,
    NonAlternatingPathError,
    NonIncreasingPositionsError,
    ObliqueWithinChainError,
    OrderCycleDetectedError,
    OrderRelation,
    ValidationFailedError,
    _Layout,
    associated_sequence,
    build_decomposition,
    check_step_shapes,
    construct_mgs,
    cover_relations,
    decompose_with_chains,
    decomposition_from_dict,
    decomposition_to_dict,
    descending_order,
    expected_mgs_length,
    is_greater,
    random_decomposition,
    two_chain_mgs,
    underlying_quiver,
    validate_chains,
)
from greenseq.fixtures import (
    THREE_CHAIN_CHAINS,
    THREE_CHAIN_ORDER_AB,
    THREE_CHAIN_ORDER_BC,
    three_chain_quiver,
)
from greenseq.quiver import (
    Quiver,
    full_subquiver,
    is_maximal_green_sequence,
    make_quiver,
    restrict_sequence,
)


def triangle_decomposition():
    return build_decomposition([["x1", "x2"], ["y"]], [("x1", "y"), ("y", "x2")])


class TestBuildAndValidate:
    def test_single_chain_is_linear_quiver(self):
        dec = build_decomposition([["1", "2", "3"]])
        q = underlying_quiver(dec)
        assert q.arrows() == [("2", "1", 1), ("3", "2", 1)]

    def test_oblique_within_chain_rejected(self):
        with pytest.raises(ObliqueWithinChainError):
            build_decomposition([["1", "2", "3"], ["4"]], [("1", "3"), ("1", "4")])

    def test_decreasing_zigzag_rejected(self):
        # second landing position on the right chain is not above the first
        chains = [["a1", "a2", "a3"], ["b1", "b2", "b3"]]
        with pytest.raises(NonIncreasingPositionsError):
            build_decomposition(chains, [("a1", "b2"), ("b2", "a2"), ("a2", "b1")])

    def test_multiple_paths_rejected(self):
        chains = [["a1", "a2", "a3"], ["b1", "b2", "b3"]]
        with pytest.raises(MultiplePathsBetweenChainsError):
            build_decomposition(chains, [("a1", "b1"), ("a3", "b3")])

    def test_cyclic_zigzag_rejected(self):
        # a closed zigzag has no source to start the path from
        chains = [["a1", "a2", "a3"], ["b1", "b2", "b3"]]
        with pytest.raises(MultiplePathsBetweenChainsError):
            build_decomposition(
                chains, [("a1", "b1"), ("b1", "a2"), ("a2", "b2"), ("b2", "a1")]
            )

    def test_triangle_adjacency_rejected(self):
        chains = [["a"], ["b"], ["c"]]
        with pytest.raises(ChainGraphCycleError):
            build_decomposition(chains, [("a", "b"), ("b", "c"), ("c", "a")])

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedError):
            build_decomposition([["a"], ["b"]], [])

    def test_violation_report_names_clause(self):
        chains = (("a",), ("b",), ("c",))
        obliques = build_decomposition(
            [["a"], ["b"], ["c"]], [("a", "b"), ("b", "c")]
        ).obliques
        extra = obliques + ((ChainVertex(3, 1), ChainVertex(1, 1)),)
        report = validate_chains(chains, extra)
        assert [v.code for v in report] == ["chain-graph-cycle"]
        assert report[0].clause == "chain-tree"
        assert report[0].to_dict()["code"] == "chain-graph-cycle"

    def test_fuzzed_corruptions_report_not_crash(self):
        import random as _random

        rng = _random.Random(2026)
        for seed in range(60):
            dec = random_decomposition(seed, seed % 4 + 1, 9)
            obliques = list(dec.obliques)
            for _ in range(rng.randint(1, 3)):
                kind = rng.randrange(4)
                if kind == 0 and obliques:
                    src, dst = obliques[rng.randrange(len(obliques))]
                    obliques.append((dst, src))
                elif kind == 1 and obliques:
                    obliques.append(obliques[rng.randrange(len(obliques))])
                elif kind == 2:
                    chain = rng.randrange(dec.n_chains) + 1
                    top = len(dec.chains[chain - 1])
                    obliques.append(
                        (ChainVertex(chain, rng.randint(1, top)),
                         ChainVertex(chain, rng.randint(1, top)))
                    )
                elif obliques:
                    obliques.pop(rng.randrange(len(obliques)))
            report = validate_chains(dec.chains, obliques)
            for violation in report:
                assert violation.code and violation.clause and violation.message

    # (chains, obliques as (chain, position) pairs, typed error of the first
    # violation, whether the case can be written as a quiver)
    ONE_CASE_PER_CODE = {
        "duplicate-vertex": ([["a1", "a2"], ["a1"]], [], ValidationFailedError, False),
        "unknown-vertex": ([["a1"], ["b1"]], [((1, 1), (3, 1))], ValidationFailedError, False),
        "oblique-within-chain": (
            [["a1", "a2", "a3"], ["b1"]],
            [((1, 1), (1, 3)), ((1, 1), (2, 1))],
            ObliqueWithinChainError,
            True,
        ),
        "two-obliques-leave": (
            [["a1", "a2"], ["b1", "b2"]],
            [((1, 1), (2, 1)), ((1, 1), (2, 2))],
            NonAlternatingPathError,
            True,
        ),
        "two-obliques-enter": (
            [["a1", "a2"], ["b1", "b2"]],
            [((1, 1), (2, 1)), ((1, 2), (2, 1))],
            NonAlternatingPathError,
            True,
        ),
        "split-paths": (
            [["a1", "a2"], ["b1", "b2"]],
            [((1, 1), (2, 1)), ((1, 2), (2, 2))],
            MultiplePathsBetweenChainsError,
            True,
        ),
        "non-increasing-positions": (
            [["a1", "a2"], ["b1", "b2"]],
            [((1, 2), (2, 1)), ((2, 1), (1, 1))],
            NonIncreasingPositionsError,
            True,
        ),
        "chain-graph-cycle": (
            [["a"], ["b"], ["c"]],
            [((1, 1), (2, 1)), ((2, 1), (3, 1)), ((3, 1), (1, 1))],
            ChainGraphCycleError,
            True,
        ),
        "disconnected": ([["a"], ["b"]], [], DisconnectedError, True),
    }

    @pytest.mark.parametrize("case", sorted(ONE_CASE_PER_CODE))
    def test_one_checker_three_entry_points(self, case):
        chains, pairs, error, as_quiver = self.ONE_CASE_PER_CODE[case]
        obliques = [(ChainVertex(*s), ChainVertex(*d)) for s, d in pairs]
        report = validate_chains(chains, obliques)
        code = {
            "two-obliques-leave": "non-alternating-path",
            "two-obliques-enter": "non-alternating-path",
            "split-paths": "multiple-paths-between-chains",
        }.get(case, case)
        assert [v.code for v in report] == [code]
        with pytest.raises(error) as built:
            build_decomposition(chains, obliques)
        assert type(built.value) is error
        assert built.value.violations == tuple(report)
        if as_quiver:
            label = lambda cv: chains[cv.chain - 1][cv.position - 1]
            vertical = [(high, low) for c in chains for low, high in zip(c, c[1:])]
            q = make_quiver(
                [v for c in chains for v in c],
                vertical + [(label(s), label(d)) for s, d in obliques],
            )
            with pytest.raises(ValidationFailedError) as presented:
                decompose_with_chains(q, chains)
            assert presented.value.violations == tuple(report)

    def test_valid_three_chain_example(self):
        q = three_chain_quiver()
        dec = decompose_with_chains(q, THREE_CHAIN_CHAINS)
        assert validate_chains(dec.chains, dec.obliques) == []
        assert underlying_quiver(dec) == q


@st.composite
def decomposition_params(draw):
    """(seed, chains, max_vertices) for :func:`random_decomposition`: 1-20 chains, n <= 200."""
    n_chains = draw(st.integers(1, 20))
    n = draw(st.integers(n_chains, 200))
    return draw(st.integers(0, 2**32)), n_chains, n


class TestLazyQuiver:
    @settings(max_examples=40, deadline=None)
    @given(params=decomposition_params())
    def test_matches_make_quiver_and_round_trips(self, params):
        dec = random_decomposition(*params)
        vertical = [
            (high, low) for chain in dec.chains for low, high in zip(chain, chain[1:])
        ]
        obliques = [(dec.label_of(src), dec.label_of(dst)) for src, dst in dec.obliques]
        q = underlying_quiver(dec)
        assert q == make_quiver([v for c in dec.chains for v in c], vertical + obliques)
        assert dec.vertices() == q.vertices
        again = decompose_with_chains(q, dec.chains)
        assert again.chains == dec.chains
        assert again.obliques == dec.obliques
        assert underlying_quiver(again) == q
        assert construct_mgs(again) == construct_mgs(dec)

    def test_construct_never_builds_the_quiver(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a dense quiver was built")

        data = decomposition_to_dict(random_decomposition(11, 8, 80))
        monkeypatch.setattr(quiver, "make_quiver", refuse)
        monkeypatch.setattr(Quiver, "__post_init__", refuse)
        dec = decomposition_from_dict(data)
        assert len(construct_mgs(dec)) == expected_mgs_length(dec)
        assert descending_order(dec) and dec.vertices()


class TestOrder:
    def test_single_chain_total_order(self):
        dec = build_decomposition([["1", "2", "3"]])
        order = descending_order(dec)
        assert [dec.label_of(cv) for cv in order] == ["1", "2", "3"]

    def test_three_chain_stated_orders_hold(self):
        dec = decompose_with_chains(three_chain_quiver(), THREE_CHAIN_CHAINS)
        for stated in (THREE_CHAIN_ORDER_AB, THREE_CHAIN_ORDER_BC):
            for hi, lo in zip(stated, stated[1:]):
                assert is_greater(dec, hi, lo), (hi, lo)

    def test_three_chain_transitive_and_negative_cases(self):
        dec = decompose_with_chains(three_chain_quiver(), THREE_CHAIN_CHAINS)
        assert is_greater(dec, "c1", "b2")  # via c1 > b1 > b2
        assert not is_greater(dec, "a6", "c1")
        assert not is_greater(dec, "c1", "c1")  # irreflexive

    def test_zigzag_into_other_chain_with_both_tails(self):
        # zigzag x2 -> y1 -> x4 -> y2 ends in the other chain; below it,
        # the x tail comes before the y tail
        dec = build_decomposition(
            [["x1", "x2", "x3", "x4", "x5"], ["y1", "y2", "y3", "y4"]],
            [("x2", "y1"), ("y1", "x4"), ("x4", "y2")],
        )
        order = [dec.label_of(cv) for cv in descending_order(dec)]
        assert order == ["x1", "x2", "y1", "x3", "x4", "y2", "x5", "y3", "y4"]
        seq = construct_mgs(dec)
        assert len(seq) == 25
        assert is_maximal_green_sequence(underlying_quiver(dec), seq)
        assert two_chain_mgs(dec) == seq

    def test_cover_relations_antisymmetric_on_random_suite(self):
        for seed in range(120):
            dec = random_decomposition(seed, seed % 4 + 1, 12)
            cover_relations(dec)  # raises OrderCycleDetectedError on failure

    def test_descending_order_never_inverts(self):
        for seed in range(40):
            dec = random_decomposition(500 + seed, seed % 4 + 1, 10)
            order = descending_order(dec)
            rel = dec.order()
            for earlier, later in zip(order, order[1:]):
                assert not rel.greater(later, earlier)


def floyd_warshall_closure(rel) -> dict:
    """Brute-force reachability over the covers: closure[u][v] is u > v."""
    closure = {u: {v: False for v in rel.vertices} for u in rel.vertices}
    for hi, lo in rel.covers:
        closure[hi][lo] = True
    for k in rel.vertices:
        for u in rel.vertices:
            if closure[u][k]:
                row_k, row_u = closure[k], closure[u]
                for v in rel.vertices:
                    if row_k[v]:
                        row_u[v] = True
    return closure


class TestOrderAgainstBruteForce:
    SUITE = [(700 + s, 1 + s % 6, 10 + 5 * s) for s in range(11)]  # up to 60 vertices

    def test_is_greater_matches_floyd_warshall(self):
        for seed, k, n in self.SUITE:
            dec = random_decomposition(seed, k, n)
            rel = dec.order()
            closure = floyd_warshall_closure(rel)
            for u in rel.vertices:
                for v in rel.vertices:
                    assert is_greater(dec, u, v) == closure[u][v], (seed, u, v)

    def test_descending_order_is_the_smallest_first_extension(self):
        # reference: repeatedly list the smallest vertex that no unlisted
        # vertex lies above
        for seed, k, n in self.SUITE:
            dec = random_decomposition(seed, k, n)
            closure = floyd_warshall_closure(dec.order())
            left = sorted(dec.order().vertices)
            want = []
            while left:
                top = next(v for v in left if not any(closure[u][v] for u in left))
                want.append(top)
                left.remove(top)
            assert descending_order(dec) == want, seed

    def test_every_cover_listed_high_before_low(self):
        for seed in range(80):
            dec = random_decomposition(3000 + seed, seed % 8 + 1, 40)
            place = {cv: i for i, cv in enumerate(descending_order(dec))}
            assert len(place) == len(dec.vertices())
            for hi, lo in dec.order().covers:
                assert place[hi] < place[lo], (seed, hi, lo)

    @pytest.mark.parametrize(
        "covers",
        [
            [(0, 0)],
            [(0, 1), (1, 0)],
            [(0, 1), (1, 2), (2, 0), (2, 3)],
        ],
        ids=["self-cover", "two-cycle", "three-cycle"],
    )
    def test_cycle_detected(self, covers):
        # two chains of two vertices: ints 0, 1 on chain 1 and 2, 3 on chain 2
        with pytest.raises(OrderCycleDetectedError):
            OrderRelation(_Layout((2, 2)), covers)

    def test_construct_at_1600_vertices(self):
        dec = random_decomposition(1600, 160, 1600)
        steps = construct_mgs(dec).steps
        assert len(steps) == expected_mgs_length(dec)
        seen = Counter(steps)
        for chain in dec.chains:
            for position, label in enumerate(chain, start=1):
                assert seen[label] == len(chain) - position + 1


class TestAssociatedSequences:
    def test_bottom_vertex_single_step(self):
        dec = build_decomposition([["1", "2", "3"]])
        assert associated_sequence(dec, ChainVertex(1, 3)).steps == ("1",)

    def test_top_vertex_full_run(self):
        dec = build_decomposition([["1", "2", "3"]])
        assert associated_sequence(dec, ChainVertex(1, 1)).steps == ("1", "2", "3")

    def test_concatenation_reproduces_single_chain_mgs(self):
        dec = build_decomposition([["1", "2", "3"]])
        assert construct_mgs(dec).steps == ("1", "2", "3", "1", "2", "1")


class TestConstructMgs:
    def test_a2_single_chain(self):
        dec = build_decomposition([["1", "2"]])
        seq = construct_mgs(dec)
        assert seq.steps == ("1", "2", "1")
        assert is_maximal_green_sequence(underlying_quiver(dec), seq)

    def test_expected_length_arithmetic(self):
        assert expected_mgs_length(build_decomposition([["1", "2"]])) == 3
        dec = random_decomposition(3, 3, 12)
        assert expected_mgs_length(dec) == sum(
            k * (k + 1) // 2 for k in dec.chain_lengths
        )

    def test_triangle(self):
        dec = triangle_decomposition()
        seq = construct_mgs(dec)
        assert seq.steps == ("x1", "x2", "y", "x1")
        assert is_maximal_green_sequence(underlying_quiver(dec), seq)

    def test_random_suite_verifies_with_shapes_and_restriction(self):
        for seed in range(60):
            dec = random_decomposition(9000 + seed, seed % 4 + 1, 12)
            q = underlying_quiver(dec)
            seq = construct_mgs(dec)
            assert len(seq) == expected_mgs_length(dec)
            assert is_maximal_green_sequence(q, seq)
            assert check_step_shapes(dec, seq) == []
            for chain in dec.chains:
                sub = full_subquiver(q, chain)
                assert is_maximal_green_sequence(sub, restrict_sequence(seq, chain))

    def test_chain_restriction_is_the_single_chain_pattern(self):
        # deleting other chains' steps from the constructed sequence leaves
        # exactly the single-chain expansion of that chain
        for seed in (2, 5, 8, 13):
            dec = random_decomposition(seed, 3, 10)
            seq = construct_mgs(dec)
            for chain in dec.chains:
                single = build_decomposition([chain])
                assert restrict_sequence(seq, chain) == construct_mgs(single)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        n_chains=st.integers(1, 6),
        n=st.integers(1, 12),
    )
    def test_final_state_is_a_permutation_of_the_start(self, seed, n_chains, n):
        """Brüstle–Dupont–Pérotin: after an MGS, C = -P for a permutation
        matrix P and B = P B0 P^T."""
        dec = random_decomposition(seed, min(n_chains, n), n)
        q = underlying_quiver(dec)
        state = quiver.final_state(quiver.frame(q), construct_mgs(dec)).quiver
        rows = [state.index(v) for v in q.vertices]
        frozen = [state.index(v + "'") for v in q.vertices]
        b = state.matrix[np.ix_(rows, rows)]
        p = -state.matrix[np.ix_(rows, frozen)]
        assert ((p == 0) | (p == 1)).all()
        assert (p.sum(axis=0) == 1).all() and (p.sum(axis=1) == 1).all()
        assert (b == p @ q.matrix @ p.T).all()

    def test_strict_prefix_green_but_not_maximal(self):
        dec = random_decomposition(77, 3, 9)
        q = underlying_quiver(dec)
        seq = construct_mgs(dec)
        for cut in range(len(seq)):
            from greenseq.quiver import MutationSequence, is_green_sequence

            prefix = MutationSequence(seq.steps[:cut])
            assert is_green_sequence(q, prefix)
            assert not is_maximal_green_sequence(q, prefix)


class TestTwoChain:
    def test_smallest_instance_matches_triangle(self):
        dec = triangle_decomposition()
        assert two_chain_mgs(dec).steps == ("x1", "x2", "y", "x1")

    def test_equals_general_construction_on_random_pairs(self):
        for seed in range(100):
            dec = random_decomposition(40_000 + seed, 2, 11)
            assert two_chain_mgs(dec) == construct_mgs(dec)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32), n=st.integers(2, 60))
    def test_equals_general_construction_hypothesis(self, seed, n):
        dec = random_decomposition(seed, 2, n)
        assert two_chain_mgs(dec) == construct_mgs(dec)

    def test_rejects_other_chain_counts(self):
        from greenseq.decomposition import NotTwoChainsError

        with pytest.raises(NotTwoChainsError):
            two_chain_mgs(build_decomposition([["1", "2"]]))
