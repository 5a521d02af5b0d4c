"""Chain decompositions: validation, the vertex order, and constructed MGS."""

from __future__ import annotations

import heapq
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenseq import decomposition, quiver
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
from greenseq.families import auto_decompose
from greenseq.fixtures import (
    FIXTURE_QUIVERS,
    THREE_CHAIN_CHAINS,
    THREE_CHAIN_ORDER_AB,
    THREE_CHAIN_ORDER_BC,
    three_chain_quiver,
)
from greenseq.quiver import (
    MutationSequence,
    Quiver,
    UnknownVertexError,
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

    def test_chain_vertex_and_label_ends_mix(self):
        chains = [["a", "b"], ["c"]]
        for ends in (
            [(ChainVertex(1, 1), ChainVertex(2, 1))],
            [("a", ChainVertex(2, 1))],
            [(ChainVertex(1, 1), "c")],
        ):
            dec = build_decomposition(chains, ends)
            assert dec.obliques == ((ChainVertex(1, 1), ChainVertex(2, 1)),)

    def test_unknown_oblique_end_messages(self):
        chains = [["a", "b"], ["c"]]
        with pytest.raises(ValidationFailedError) as outside:
            build_decomposition(chains, [(ChainVertex(1, 1), ChainVertex(3, 1))])
        assert str(outside.value) == "no such chain vertex ChainVertex(chain=3, position=1)"
        for end in ("zz", ["a"], 7):
            with pytest.raises(quiver.QuiverError) as unknown:
                build_decomposition(chains, [(end, "c")])
            assert type(unknown.value) is quiver.QuiverError
            assert str(unknown.value) == f"oblique endpoint not in any chain: {end!r}"

    def test_valid_three_chain_example(self):
        q = three_chain_quiver()
        dec = decompose_with_chains(q, THREE_CHAIN_CHAINS)
        assert validate_chains(dec.chains, dec.obliques) == []
        assert underlying_quiver(dec) == q


def cv(chain: int, position: int) -> str:
    return repr(ChainVertex(chain, position))


class TestViolationOrder:
    """Several rules broken at once: the whole report, in order.

    ``build_decomposition`` sorts the obliques by (chain, position) before
    the check; ``decompose_with_chains`` hands them on in the quiver's
    arrow order, by label.  Chain 1 lists its labels in descending order
    and sorts after chain 2, so the two orders differ, and with them the
    order of the within-chain violations and which fault of pair (1, 2)
    is named.
    """

    CHAINS = [["zc", "zb", "za"], ["y1", "y2", "y3"], ["x1", "x2"], ["w1"], ["v1"]]
    OBLIQUES = [
        ("za", "zc"),  # inside chain 1
        ("y1", "y3"),  # inside chain 2
        ("zb", "y1"), ("zc", "y1"), ("zb", "y2"),  # two enter (2, 1), two leave (1, 2)
        ("y1", "x1"), ("y3", "x2"),  # pair (2, 3) splits
        ("zb", "x2"), ("x2", "zc"),  # pair (1, 3) falls back on chain 1
        ("x1", "w1"),  # pair (3, 4) is fine; chain 5 has no oblique
    ]
    WITHIN = [
        ("oblique-within-chain", f"oblique {cv(1, 3)} -> {cv(1, 1)} stays inside chain 1"),
        ("oblique-within-chain", f"oblique {cv(2, 1)} -> {cv(2, 3)} stays inside chain 2"),
    ]
    REST = [
        (
            "non-increasing-positions",
            f"chains (1, 3): zigzag positions not strictly increasing at {cv(1, 1)}",
        ),
        ("multiple-paths-between-chains", "chains (2, 3): obliques split into several paths"),
        ("chain-graph-cycle", "chains 2 and 3 close a cycle in the chain-adjacency graph"),
        ("disconnected", "chain-adjacency graph has 2 components"),
    ]

    @staticmethod
    def report(error) -> list[tuple[str, str]]:
        return [(v.code, v.message) for v in error.violations]

    def test_build_decomposition(self):
        want = self.WITHIN + [
            ("non-alternating-path", f"chains (1, 2): two obliques enter {cv(2, 1)}")
        ] + self.REST
        chain_vertex = {
            v: ChainVertex(c, p)
            for c, chain in enumerate(self.CHAINS, 1)
            for p, v in enumerate(chain, 1)
        }
        ends = [(chain_vertex[s], chain_vertex[d]) for s, d in self.OBLIQUES]
        for obliques in (self.OBLIQUES, ends, self.OBLIQUES[::-1]):
            with pytest.raises(ObliqueWithinChainError) as built:
                build_decomposition(self.CHAINS, obliques)
            assert type(built.value) is ObliqueWithinChainError
            assert str(built.value) == want[0][1]  # the typed error names the first
            assert self.report(built.value) == want
        assert [(v.code, v.message) for v in validate_chains(self.CHAINS, ends)] == want

    def test_decompose_with_chains(self):
        want = self.WITHIN[::-1] + [
            ("non-alternating-path", f"chains (1, 2): two obliques leave {cv(1, 2)}")
        ] + self.REST
        vertical = [(high, low) for c in self.CHAINS for low, high in zip(c, c[1:])]
        q = make_quiver([v for c in self.CHAINS for v in c], vertical + self.OBLIQUES)
        with pytest.raises(ValidationFailedError) as presented:
            decompose_with_chains(q, self.CHAINS)
        assert type(presented.value) is ValidationFailedError
        assert str(presented.value) == "; ".join(message for _, message in want)
        assert self.report(presented.value) == want


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
            raise AssertionError("a quiver was built")

        data = decomposition_to_dict(random_decomposition(11, 8, 80))
        monkeypatch.setattr(quiver, "make_quiver", refuse)
        monkeypatch.setattr(Quiver, "_trusted", refuse)
        monkeypatch.setattr(Quiver, "__init__", refuse)
        dec = decomposition_from_dict(data)
        assert len(construct_mgs(dec)) == expected_mgs_length(dec)
        assert descending_order(dec) and dec.vertices()


class TestUnknownVertex:
    """Every lookup by label or chain vertex names what it could not find."""

    def test_is_greater(self):
        dec = random_decomposition(1, 2, 6)
        with pytest.raises(UnknownVertexError, match="unknown vertex 'nope'"):
            is_greater(dec, "nope", "c1p1")
        with pytest.raises(UnknownVertexError, match="unknown vertex 'nope'"):
            is_greater(dec, "c1p1", "nope")

    def test_chain_vertex_of(self):
        with pytest.raises(UnknownVertexError, match="unknown vertex 'nope'"):
            random_decomposition(1, 2, 6).chain_vertex_of("nope")

    def test_label_of(self):
        dec = random_decomposition(1, 2, 6)
        for cv in (ChainVertex(3, 1), ChainVertex(1, 99), ChainVertex(0, 1)):
            with pytest.raises(UnknownVertexError) as err:
                dec.label_of(cv)
            assert str(err.value) == f"unknown vertex {cv!r}"

    def test_order_greater(self):
        rel = random_decomposition(1, 2, 6).order()
        with pytest.raises(UnknownVertexError, match=r"ChainVertex\(chain=9, position=1\)"):
            rel.greater(ChainVertex(9, 1), ChainVertex(1, 1))
        with pytest.raises(UnknownVertexError, match=r"ChainVertex\(chain=1, position=0\)"):
            rel.greater(ChainVertex(1, 1), ChainVertex(1, 0))


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
        "lengths, covers",
        [
            ((2, 2), [(0, 0)]),
            ((2, 2), [(0, 1), (1, 0)]),
            ((2, 2), [(0, 1), (1, 2), (2, 0), (2, 3)]),
            ((1, 3, 2), [(2, 4), (5, 1)]),
            ((1, 3, 2), [(3, 1)]),
        ],
        ids=["self-cover", "two-cycle", "three-cycle", "through-chain-steps", "up-a-chain"],
    )
    def test_cycle_detected(self, lengths, covers):
        # (2, 2): ints 0, 1 on chain 1 and 2, 3 on chain 2; (1, 3, 2): 0 on
        # chain 1, 1-3 on chain 2 and 4, 5 on chain 3.  The last two cycles
        # close only through the implied chain covers (i, i + 1).
        with pytest.raises(OrderCycleDetectedError):
            OrderRelation(_Layout(lengths), covers)

    def test_construct_at_1600_vertices(self):
        dec = random_decomposition(1600, 160, 1600)
        steps = construct_mgs(dec).steps
        assert len(steps) == expected_mgs_length(dec)
        seen = Counter(steps)
        for chain in dec.chains:
            for position, label in enumerate(chain, start=1):
                assert seen[label] == len(chain) - position + 1


def full_run_covers(dec) -> list[tuple[int, int]]:
    """The covers as whole descending runs gave them, deduplicated, in first-seen order.

    Each chain pair's zigzag is walked afresh from the obliques.  Every run
    read off it contributes all its consecutive pairs, within-chain steps
    included, after the within-chain covers (i, i + 1).
    """
    layout = dec._layout
    chain_of = layout.chain_of
    covers = [(i, i + 1) for i in range(len(chain_of) - 1) if chain_of[i] == chain_of[i + 1]]
    by_pair: dict[tuple[int, int], dict[int, int]] = {}
    for src, dst in dec._obliques:
        pair = tuple(sorted((chain_of[src], chain_of[dst])))
        by_pair.setdefault(pair, {})[src] = dst
    for _, outgoing in sorted(by_pair.items()):
        path = [next(v for v in outgoing if v not in outgoing.values())]
        while path[-1] in outgoing:
            path.append(outgoing[path[-1]])
        ci, cj = chain_of[path[0]], chain_of[path[1]]
        a = [x for x in path if chain_of[x] == ci]
        b = [x for x in path if chain_of[x] == cj]
        end_i, end_j = layout.offsets[ci], layout.offsets[cj]
        prev_b = layout.offsets[cj - 1] - 1
        lines = []
        if chain_of[path[-1]] == cj:
            for x, y in zip(a, b):
                lines.append([x, *range(prev_b + 1, y + 1)])
                prev_b = y
            for l in range(len(b) - 1):
                lines.append([b[l], *range(a[l] + 1, a[l + 1] + 1)])
            lines.append([b[-1], *range(a[-1] + 1, end_i), *range(b[-1] + 1, end_j)])
        else:
            for l, y in enumerate(b):
                lines.append([a[l], *range(prev_b + 1, y + 1)])
                lines.append([y, *range(a[l] + 1, a[l + 1] + 1)])
                prev_b = y
            lines.append([a[-1], *range(b[-1] + 1, end_j), *range(a[-1] + 1, end_i)])
        for line in lines:
            covers.extend(zip(line, line[1:]))
    return list(dict.fromkeys(covers))


def heap_kahn_extension(layout, covers) -> tuple[int, ...]:
    """The descending extension by Kahn's algorithm with a heap over every cover.

    The chain covers (i, i + 1) are added to ``covers`` explicitly, and every
    ready int goes through the heap, so ties break by smallest int.  Raises
    OrderCycleDetectedError, naming the smallest int never listed, as
    :class:`OrderRelation` does.
    """
    n = len(layout.chain_of)
    below: list[list[int]] = [[] for _ in range(n)]
    above = [0] * n
    for hi, lo in [(i, i + 1) for i in layout.chain_steps()] + list(covers):
        below[hi].append(lo)
        above[lo] += 1
    ready = [i for i in range(n) if above[i] == 0]
    out: list[int] = []
    while ready:
        i = heapq.heappop(ready)
        out.append(i)
        for j in below[i]:
            above[j] -= 1
            if above[j] == 0:
                heapq.heappush(ready, j)
    if len(out) != n:
        stuck = next(i for i in range(n) if above[i])
        raise OrderCycleDetectedError(f"order cycle through {layout.vertex(stuck)}")
    return tuple(out)


def assert_order_matches_full_runs(dec) -> None:
    want = OrderRelation(dec._layout, full_run_covers(dec))
    rel = dec.order()
    assert rel.covers == want.covers
    assert rel.extension == want.extension


class TestOrderAgainstFullRuns:
    """The junction covers give the order the whole runs gave, cover for cover."""

    @settings(max_examples=60, deadline=None)
    @given(params=decomposition_params())
    def test_random_decompositions(self, params):
        assert_order_matches_full_runs(random_decomposition(*params))

    @settings(max_examples=30, deadline=None)
    @given(params=decomposition_params())
    def test_presented_random_decompositions(self, params):
        dec = random_decomposition(*params)
        assert_order_matches_full_runs(decompose_with_chains(underlying_quiver(dec), dec.chains))

    @pytest.mark.parametrize("name", sorted(FIXTURE_QUIVERS))
    def test_auto_decomposed_fixtures(self, name):
        _, dec = auto_decompose(FIXTURE_QUIVERS[name]())
        assert_order_matches_full_runs(dec)

    def test_both_zigzag_endings(self):
        # x2 -> y1 -> x4 ends on chain y; x2 -> y1 -> x4 -> y2 -> x5 on chain x
        chains = [["x1", "x2", "x3", "x4", "x5"], ["y1", "y2", "y3", "y4"]]
        for obliques in (
            [("x2", "y1"), ("y1", "x4")],
            [("x2", "y1"), ("y1", "x4"), ("x4", "y2"), ("y2", "x5")],
        ):
            assert_order_matches_full_runs(build_decomposition(chains, obliques))


def assert_merge_matches_heap_kahn(layout, covers) -> None:
    """Same extension, or the same cycle error, as Kahn over every cover."""
    try:
        want = heap_kahn_extension(layout, covers)
    except OrderCycleDetectedError as err:
        with pytest.raises(OrderCycleDetectedError) as got:
            OrderRelation(layout, covers)
        assert str(got.value) == str(err)
    else:
        assert OrderRelation(layout, covers)._extension == want


class TestChainMergeAgainstHeapKahn:
    """Merging chain heads lists what a heap over every ready int lists."""

    @settings(max_examples=60, deadline=None)
    @given(params=decomposition_params())
    def test_random_decompositions(self, params):
        dec = random_decomposition(*params)
        assert dec.order()._extension == heap_kahn_extension(dec._layout, full_run_covers(dec))

    @pytest.mark.parametrize("name", sorted(FIXTURE_QUIVERS))
    def test_auto_decomposed_fixtures(self, name):
        _, dec = auto_decompose(FIXTURE_QUIVERS[name]())
        assert dec.order()._extension == heap_kahn_extension(dec._layout, full_run_covers(dec))

    # _Layout((2, 2)): ints 0, 1 on chain 1 and 2, 3 on chain 2.
    # _Layout((1, 3, 2)): 0 on chain 1, 1, 2, 3 on chain 2 and 4, 5 on chain 3.
    HAND_MADE = {
        "no-covers": ((2, 2), []),
        "chain-covers-listed": ((2, 2), [(0, 1), (2, 3), (1, 2)]),
        "chain-covers-only": ((1, 3, 2), [(1, 2), (2, 3), (4, 5)]),
        "repeated-covers": ((2, 2), [(1, 2), (1, 2), (0, 1), (0, 1)]),
        "repeated-cross": ((1, 3, 2), [(4, 0), (4, 0), (0, 2), (0, 2)]),
        "skip-down-other-chain": ((1, 3, 2), [(0, 3), (5, 0)]),
        "skip-down-own-chain": ((1, 3, 2), [(1, 3), (0, 2), (4, 1)]),
        "heads-unblocked-late": ((1, 3, 2), [(5, 0), (3, 4)]),
        "cycle-over-three-chains": ((1, 3, 2), [(3, 0), (5, 1), (2, 4)]),
        "self-cover": ((2, 2), [(0, 0)]),
        "two-cycle": ((2, 2), [(0, 1), (1, 0)]),
        "three-cycle": ((2, 2), [(0, 1), (1, 2), (2, 0), (2, 3)]),
        "cycle-through-chain-step": ((1, 3, 2), [(2, 4), (5, 1)]),
        "upward-in-chain": ((1, 3, 2), [(3, 1)]),
    }

    @pytest.mark.parametrize("case", sorted(HAND_MADE))
    def test_hand_made_covers(self, case):
        lengths, covers = self.HAND_MADE[case]
        assert_merge_matches_heap_kahn(_Layout(lengths), covers)

    def test_covers_lists_chain_covers_then_cross_covers_as_given(self):
        rel = OrderRelation(_Layout((1, 3, 2)), [(4, 0), (2, 3), (0, 2), (4, 0)])
        ints = [(rel._layout.find(hi), rel._layout.find(lo)) for hi, lo in rel.covers]
        assert ints == [(1, 2), (2, 3), (4, 5), (4, 0), (0, 2), (4, 0)]


class CountingHeapq:
    """``heapq`` with its push and pop calls counted."""

    def __init__(self):
        self.pushes = self.pops = 0

    def heappush(self, heap, item):
        self.pushes += 1
        heapq.heappush(heap, item)

    def heappop(self, heap):
        self.pops += 1
        return heapq.heappop(heap)


class TestOrderWork:
    @pytest.mark.parametrize(
        "params, pops, pushes",
        [((1, 1, 1000), 1, 0), ((5, 30, 400), 72, 63), ((1600, 160, 1600), 436, 378)],
        ids=["one-chain", "30-chains", "160-chains"],
    )
    def test_heap_work_pinned(self, monkeypatch, params, pops, pushes):
        # a walk stays on its chain while it can, so the heap sees about one
        # push per cross cover, not one per vertex
        dec = random_decomposition(*params)
        counted = CountingHeapq()
        monkeypatch.setattr(decomposition, "heapq", counted)
        dec.order()
        assert (counted.pops, counted.pushes) == (pops, pushes)

    @settings(max_examples=60, deadline=None)
    @given(params=decomposition_params())
    def test_pushes_at_most_twice_the_cross_covers(self, params):
        dec = random_decomposition(*params)
        counted = CountingHeapq()
        real = decomposition.heapq
        decomposition.heapq = counted
        try:
            rel = dec.order()
        finally:
            decomposition.heapq = real
        assert counted.pushes <= 2 * len(rel._cross)
        assert counted.pops == counted.pushes + sum(
            1 for start in dec._layout.offsets[:-1] if start not in {lo for _, lo in rel._cross}
        )

    def test_each_zigzag_walked_once(self, monkeypatch):
        # from a JSON dict to the constructed MGS, each chain pair's zigzag
        # is walked once, by the validation; the per-arrow scan that names
        # a broken rule runs once per broken pair, and never on valid input
        dec = random_decomposition(5, 30, 400)
        pairs = {frozenset((src.chain, dst.chain)) for src, dst in dec.obliques}
        data = decomposition_to_dict(dec)
        walked, scanned = Counter(), Counter()

        def counting(name, counter):
            real = getattr(decomposition, name)

            def counted(layout, arrows):
                counter[frozenset(layout.chain_of[x] for x in arrows[0])] += 1
                return real(layout, arrows)

            monkeypatch.setattr(decomposition, name, counted)

        counting("_zigzag", walked)
        counting("_zigzag_fault", scanned)
        construct_mgs(decomposition_from_dict(data))
        assert len(pairs) == 29  # the edges of a tree on 30 chains
        assert walked == Counter(dict.fromkeys(pairs, 1))
        assert not scanned
        with pytest.raises(ObliqueWithinChainError):
            build_decomposition(TestViolationOrder.CHAINS, TestViolationOrder.OBLIQUES)
        broken = {frozenset((1, 2)), frozenset((1, 3)), frozenset((2, 3))}
        assert scanned == Counter(dict.fromkeys(broken, 1))

    def test_cover_list_has_no_repeats(self, monkeypatch):
        handed = []
        real = decomposition.OrderRelation

        def recorded(layout, covers):
            handed.append(list(covers))
            return real(layout, handed[-1])

        monkeypatch.setattr(decomposition, "OrderRelation", recorded)
        for seed in range(40):
            construct_mgs(random_decomposition(900 + seed, seed % 10 + 1, 120))
        assert len(handed) == 40
        for covers in handed:
            assert len(set(covers)) == len(covers)


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
        b = np.array(state.matrix)[np.ix_(rows, rows)]
        p = -np.array(state.matrix)[np.ix_(rows, frozen)]
        assert ((p == 0) | (p == 1)).all()
        assert (p.sum(axis=0) == 1).all() and (p.sum(axis=1) == 1).all()
        assert (b == p @ np.array(q.matrix) @ p.T).all()

    @settings(max_examples=60, deadline=None)
    @given(params=decomposition_params())
    def test_matches_the_checked_constructor(self, params):
        # construct_mgs hands its str steps over unconverted; the checked
        # constructor, which converts and checks them, gives the same value
        seq = construct_mgs(random_decomposition(*params))
        assert all(a != b for a, b in zip(seq.steps, seq.steps[1:]))
        assert {type(v) for v in seq.steps} == {str}
        assert seq == MutationSequence(list(seq.steps))
        assert type(seq.steps) is tuple

    def test_trusted_steps_keep_the_repeat_check(self):
        with pytest.raises(quiver.ConsecutiveRepeatError, match="consecutive repeat at 'b'"):
            MutationSequence._trusted(("a", "b", "b", "a"))

    @settings(max_examples=60, deadline=None)
    @given(params=decomposition_params(), data=st.data())
    def test_repeat_check_where_runs_meet(self, params, data):
        # the check where runs meet fires exactly when the check over
        # every step does, on the extension and on a shuffled one
        dec = random_decomposition(*params)
        assert_repeat_verdicts_agree(dec, dec.order()._extension)
        assert_repeat_verdicts_agree(dec, data.draw(st.permutations(dec.order()._extension)))

    @pytest.mark.parametrize("name", sorted(FIXTURE_QUIVERS))
    def test_repeat_check_where_runs_meet_on_fixtures(self, name):
        _, dec = auto_decompose(FIXTURE_QUIVERS[name]())
        extension = dec.order()._extension
        assert_repeat_verdicts_agree(dec, extension)
        assert_repeat_verdicts_agree(dec, extension[::-1])

    def test_forged_extension_repeats_where_runs_meet(self, monkeypatch):
        # chain 1 is a1 <- a2 <- a3; listing its bottom vertex a3 (run a1)
        # right before its top a1 (run a1 a2 a3) repeats a1 where they meet
        dec = build_decomposition([["a1", "a2", "a3"], ["b1"]], [("a1", "b1")])
        rel = dec.order()
        assert rel._extension == (0, 3, 1, 2)
        monkeypatch.setattr(rel, "_extension", (3, 2, 0, 1))
        steps = ("b1", "a1", "a1", "a2", "a3", "a1", "a2")
        with pytest.raises(quiver.ConsecutiveRepeatError) as full:
            MutationSequence(steps)
        with pytest.raises(quiver.ConsecutiveRepeatError) as joined:
            construct_mgs(dec)
        assert type(joined.value) is quiver.ConsecutiveRepeatError
        assert str(joined.value) == str(full.value) == "consecutive repeat at 'a1'"

    def test_concatenation_checks_the_join(self):
        a, b = MutationSequence(("x", "y")), MutationSequence(("z", "x"))
        assert (a + b).steps == ("x", "y", "z", "x")
        with pytest.raises(quiver.ConsecutiveRepeatError, match="consecutive repeat at 'x'"):
            b + a

    def test_strict_prefix_green_but_not_maximal(self):
        dec = random_decomposition(77, 3, 9)
        q = underlying_quiver(dec)
        seq = construct_mgs(dec)
        for cut in range(len(seq)):
            from greenseq.quiver import MutationSequence, is_green_sequence

            prefix = MutationSequence(seq.steps[:cut])
            assert is_green_sequence(q, prefix)
            assert not is_maximal_green_sequence(q, prefix)


def assert_repeat_verdicts_agree(dec, extension) -> None:
    """``construct_mgs`` over ``extension`` raises exactly the error that the
    full repeat check raises on the concatenated runs, or gives those runs."""
    steps = []
    for i in extension:
        cv = dec._layout.vertex(i)
        steps += dec.chains[cv.chain - 1][: dec.chain_lengths[cv.chain - 1] - cv.position + 1]
    try:
        quiver._check_no_repeat(tuple(steps))
        want = None
    except quiver.ConsecutiveRepeatError as err:
        want = str(err)
    rel = dec.order()
    kept, rel._extension = rel._extension, tuple(extension)
    try:
        assert construct_mgs(dec).steps == tuple(steps)
        got = None
    except quiver.ConsecutiveRepeatError as err:
        got = str(err)
    finally:
        rel._extension = kept
    assert got == want


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
