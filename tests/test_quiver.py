"""Core quiver types: construction, mutation, colors, sequences, verdicts."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_ice_quiver
from greenseq.quiver import (
    Color,
    ConsecutiveRepeatAfterRestrictionError,
    ConsecutiveRepeatError,
    DuplicateVertexError,
    FrozenVertexMutationError,
    IceQuiver,
    LoopArrowError,
    MutationSequence,
    NotSignCoherentError,
    Quiver,
    QuiverError,
    TwoCycleError,
    UnknownEndpointError,
    UnknownVertexError,
    ZeroRowError,
    coframe,
    color,
    colors,
    final_state,
    frame,
    full_subquiver,
    is_green_sequence,
    is_maximal_green_sequence,
    make_quiver,
    mutate,
    restrict_sequence,
)


def a2() -> Quiver:
    return make_quiver(["1", "2"], [("2", "1")])


class TestMakeQuiver:
    def test_direct_construction(self):
        q = make_quiver([1, 2], [(2, 1, 1)])
        assert q.b("2", "1") == 1
        assert q.b("1", "2") == -1
        assert q.arrows() == [("2", "1", 1)]

    def test_loop_rejected(self):
        with pytest.raises(LoopArrowError):
            make_quiver([1], [(1, 1, 1)])

    def test_two_cycle_rejected(self):
        with pytest.raises(TwoCycleError):
            make_quiver([1, 2], [(1, 2, 1), (2, 1, 1)])

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(DuplicateVertexError):
            make_quiver([1, 1], [])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(UnknownEndpointError):
            make_quiver([1, 2], [(1, 3)])

    def test_multiplicity_sums_up_to_int64(self):
        top = 2**63 - 1
        assert make_quiver("ab", [("a", "b", top - 1), ("a", "b")]).b("b", "a") == -top
        with pytest.raises(QuiverError, match="int64"):
            make_quiver("ab", [("a", "b", 2**63)])
        with pytest.raises(QuiverError, match="int64"):
            make_quiver("ab", [("a", "b", 5 * 10**18)] * 2)

    def test_zero_multiplicity_rejected(self):
        with pytest.raises(Exception):
            make_quiver([1, 2], [(1, 2, 0)])

    def test_vertices_sorted_lexicographically(self):
        q = make_quiver(["b", "a", "10", "2"], [])
        assert q.vertices == ("10", "2", "a", "b")


class TestCheckedConstructor:
    """``Quiver(vertices, matrix)`` validates a matrix from outside the library."""

    @pytest.mark.parametrize(
        "vertices, matrix, error, message",
        [
            (("a", "a"), [[0, 0], [0, 0]], DuplicateVertexError, "duplicate vertex labels"),
            (("b", "a"), [[0, 0], [0, 0]], QuiverError, "vertices must be sorted"),
            (("a", "b"), [[0, 0, 0], [0, 0, 0]], QuiverError, "matrix shape does not match"),
            (("a", "b"), [[1, 0], [0, 0]], LoopArrowError, "nonzero diagonal entry"),
            (("a", "b"), [[0, 1], [0, 0]], QuiverError, "matrix is not skew-symmetric"),
        ],
        ids=["duplicate", "unsorted", "shape", "diagonal", "not-skew"],
    )
    def test_rejections(self, vertices, matrix, error, message):
        with pytest.raises(error, match=message) as info:
            Quiver(vertices, np.array(matrix))
        assert info.type is error

    @pytest.mark.parametrize(
        "entry, partner, message",
        [
            (1.5, -1.5, "not an integer: 1.5"),
            (True, -1, "not an integer: True"),
            ("1", "-1", "not an integer: '1'"),
            (np.float64(1.0), -1, "not an integer"),
            (np.True_, -1, "not an integer"),
            (2**63, -(2**63), "exceeds the int64 range: 9223372036854775808"),
            (-(2**63), 2**63, "exceeds the int64 range: -9223372036854775808"),
        ],
        ids=["float", "bool", "str", "float64", "numpy-bool", "above-int64", "below-int64"],
    )
    def test_entries_must_be_int64_integers(self, entry, partner, message):
        """An entry that is not an integer, or beyond the multiplicity bound
        of ``make_quiver``, is refused as a QuiverError, never read as an
        arrow or raised as OverflowError."""
        with pytest.raises(QuiverError, match=message) as info:
            Quiver(("a", "b"), [[0, entry], [partner, 0]])
        assert info.type is QuiverError

    def test_int64_bound_accepted(self):
        top = 2**63 - 1
        q = Quiver(("a", "b"), [[0, -top], [top, 0]])
        assert q.arrows() == [("b", "a", top)] == make_quiver("ab", [("b", "a", top)]).arrows()
        assert q.matrix == ((0, -top), (top, 0))

    @pytest.mark.parametrize(
        "matrix",
        [
            [[0, 1], [-1, 0]],
            ((0, 1), (-1, 0)),
            np.array([[0, 1], [-1, 0]], dtype=np.int64),
            np.array([[0, 1], [-1, 0]], dtype=np.int8),
            [np.array([0, 1]), (-1, 0)],
        ],
        ids=["lists", "tuples", "int64-array", "int8-array", "mixed-rows"],
    )
    def test_any_nested_integer_sequence(self, matrix):
        q = Quiver(("a", "b"), matrix)
        assert q == make_quiver("ab", [("a", "b")])
        assert q.matrix == ((0, 1), (-1, 0))
        assert all(type(x) is int for row in q.matrix for x in row)
        assert all(type(m) is int for _, _, m in q.arrows())

    @pytest.mark.parametrize(
        "matrix",
        [[[0, 1], [-1]], [[0, 1]], [0, 0], 5, [[0, 1], [-1, 0], [0, 0]]],
        ids=["ragged", "short", "flat", "scalar", "long"],
    )
    def test_shape(self, matrix):
        with pytest.raises(QuiverError, match="matrix shape does not match") as info:
            Quiver(("a", "b"), matrix)
        assert info.type is QuiverError

    def test_matrix_is_immutable(self):
        q = Quiver(("a", "b", "c"), [[0, 2, 0], [-2, 0, -1], [0, 1, 0]])
        assert q.matrix == ((0, 2, 0), (-2, 0, -1), (0, 1, 0))
        with pytest.raises(TypeError):
            q.matrix[0][1] = 5
        assert q.b("a", "b") == 2


class TestFraming:
    def test_frame_single_vertex(self):
        iq = frame(make_quiver(["1"], []))
        assert iq.frozen == {"1'"}
        assert iq.quiver.arrows() == [("1", "1'", 1)]
        assert color(iq, "1") is Color.GREEN

    def test_frame_a2(self):
        iq = frame(a2())
        assert sorted(iq.quiver.arrows()) == [
            ("1", "1'", 1),
            ("2", "1", 1),
            ("2", "2'", 1),
        ]
        assert all(c is Color.GREEN for c in colors(iq).values())

    def test_coframe_single_vertex(self):
        iq = coframe(make_quiver(["1"], []))
        assert iq.quiver.arrows() == [("1'", "1", 1)]
        assert color(iq, "1") is Color.RED

    def test_coframe_a2(self):
        iq = coframe(a2())
        assert iq.quiver.arrows() == [
            ("1'", "1", 1),
            ("2", "1", 1),
            ("2'", "2", 1),
        ]
        assert all(c is Color.RED for c in colors(iq).values())

    def test_frozen_frozen_arrows_rejected(self):
        q = make_quiver(["1", "2", "3"], [("1", "2")])
        with pytest.raises(QuiverError, match="arrows between frozen vertices"):
            IceQuiver(q, frozenset(["1", "2"]))

    def test_all_frozen_rejected(self):
        q = make_quiver(["1", "2"], [])
        with pytest.raises(Exception):
            IceQuiver(q, frozenset(["1", "2"]))


class TestMutate:
    def test_sink_reversal(self):
        iq = IceQuiver(a2(), frozenset())
        assert mutate(iq, "1").quiver.arrows() == [("1", "2", 1)]

    def test_oriented_triangle_becomes_path(self):
        # the composite arrow cancels the opposite existing one
        tri = make_quiver([1, 2, 3], [(1, 2), (2, 3), (3, 1)])
        out = mutate(IceQuiver(tri, frozenset()), "1")
        assert out.quiver.arrows() == [("1", "3", 1), ("2", "1", 1)]

    def test_frozen_vertex_rejected(self):
        iq = frame(a2())
        with pytest.raises(FrozenVertexMutationError):
            mutate(iq, "1'")

    def test_mutated_vertex_turns_red(self):
        iq = mutate(frame(a2()), "2")
        assert color(iq, "2") is Color.RED
        assert color(iq, "1") is Color.GREEN

    def test_two_chain_window_mutation_state(self):
        # two chains x1<-x2<-x3<-x4 and y1<-y2, zigzag x1->y1->x3; mutating
        # the framed quiver at x1 reverses its arrows and adds exactly the
        # two composites through x1.
        q = make_quiver(
            ["x1", "x2", "x3", "x4", "y1", "y2"],
            [
                ("x2", "x1"),
                ("x3", "x2"),
                ("x4", "x3"),
                ("y2", "y1"),
                ("x1", "y1"),
                ("y1", "x3"),
            ],
        )
        after = mutate(frame(q), "x1")
        expected = sorted(
            [
                ("x1", "x2", 1),
                ("x3", "x2", 1),
                ("x4", "x3", 1),
                ("y2", "y1", 1),
                ("x2", "y1", 1),
                ("y1", "x1", 1),
                ("y1", "x3", 1),
                ("x1'", "x1", 1),
                ("x2", "x1'", 1),
                ("x2", "x2'", 1),
                ("x3", "x3'", 1),
                ("x4", "x4'", 1),
                ("y1", "y1'", 1),
                ("y2", "y2'", 1),
            ]
        )
        assert after.quiver.arrows() == expected
        assert color(after, "x1") is Color.RED
        assert all(
            color(after, v) is Color.GREEN for v in after.mutable if v != "x1"
        )

    def test_involution_on_random_quivers(self):
        rng = random.Random(20240)
        for _ in range(500):
            n = rng.randint(2, 7)
            iq = random_ice_quiver(rng, n, rng.randint(0, min(2, n - 1)))
            k = rng.choice(iq.mutable)
            assert mutate(mutate(iq, k), k) == iq

    def test_oversized_multiplicities_refused(self):
        # doubly-exponential growth must hit a hard error, not wrap around
        q = make_quiver(["1", "2", "3"], [("1", "2", 2**31), ("2", "3", 3)])
        with pytest.raises(Exception, match="safe mutation range"):
            mutate(IceQuiver(q, frozenset()), "2")

    def test_skew_symmetry_and_frozen_block_preserved(self):
        rng = random.Random(7)
        iq = random_ice_quiver(rng, 6, 2)
        for _ in range(30):
            k = rng.choice(iq.mutable)
            iq = mutate(iq, k)
            m = np.array(iq.quiver.matrix)
            assert (m == -m.T).all()
            idx = [iq.quiver.index(f) for f in sorted(iq.frozen)]
            assert not m[idx][:, idx].any()


class TestColor:
    def test_zero_row_raises(self):
        q = make_quiver(["1", "2", "f"], [("2", "1")])
        iq = IceQuiver(q, frozenset(["f"]))
        with pytest.raises(ZeroRowError):
            color(iq, "1")

    def test_mixed_signs_raise(self):
        q = make_quiver(["1", "f", "g"], [("1", "f"), ("g", "1")])
        iq = IceQuiver(q, frozenset(["f", "g"]))
        with pytest.raises(NotSignCoherentError):
            color(iq, "1")

    def test_sign_coherent_along_random_green_runs(self):
        # every state reachable by green mutations classifies cleanly
        rng = random.Random(99)
        for _ in range(50):
            from conftest import random_quiver

            q = random_quiver(rng, rng.randint(2, 5), max_mult=1)
            iq = frame(q)
            for _ in range(12):
                greens = [v for v, c in colors(iq).items() if c is Color.GREEN]
                if not greens:
                    break
                iq = mutate(iq, rng.choice(greens))
                colors(iq)  # raises on a sign-coherence failure


class TestSequences:
    def test_consecutive_repeat_rejected(self):
        with pytest.raises(ConsecutiveRepeatError):
            MutationSequence(("1", "1"))

    def test_composition_order_reversed(self):
        seq = MutationSequence.from_composition(("1", "2", "1"))
        assert seq.steps == ("1", "2", "1")
        assert MutationSequence.from_composition(("3", "2", "1")).steps == ("1", "2", "3")

    def test_empty_sequence_trace(self):
        iq = frame(a2())
        assert final_state(iq, MutationSequence(())) == iq

    def test_require_green_on_a2(self):
        state, before = frame(a2()), []
        for v in ("2", "1"):
            before.append(color(state, v))
            state = mutate(state, v)
        assert before == [Color.GREEN, Color.GREEN]
        assert all(c is Color.RED for c in colors(state).values())
        assert is_maximal_green_sequence(a2(), ["2", "1"])

    def test_require_green_halts(self):
        verdict = is_green_sequence(a2(), ["2", "1", "2"])
        assert (verdict.ok, verdict.step_index, verdict.vertex) == (False, 2, "2")

    def test_unchecked_executes_anyway(self):
        state = frame(a2())
        for v in ("2", "1", "2"):
            state = mutate(state, v)
        assert final_state(frame(a2()), ["2", "1", "2"]) == state


class TestVerdicts:
    def test_green_single_step(self):
        assert is_green_sequence(a2(), ["1"])

    def test_malformed_folds_to_false(self):
        verdict = is_green_sequence(a2(), ["1", "1"])
        assert not verdict
        assert "malformed" in verdict.reason

    def test_a2_maximal_sequences(self):
        assert is_maximal_green_sequence(a2(), ["1", "2", "1"])
        assert is_maximal_green_sequence(a2(), ["2", "1"])

    def test_prefix_is_green_but_not_maximal(self):
        verdict = is_maximal_green_sequence(a2(), ["1"])
        assert not verdict
        assert verdict.vertex == "2"
        assert is_green_sequence(a2(), ["1"])

    def test_non_green_step_reported(self):
        verdict = is_maximal_green_sequence(a2(), ["2", "1", "2"])
        assert not verdict
        assert verdict.step_index == 2

    def test_reference_eleven_step_is_green(self):
        from greenseq.fixtures import fig8_quiver

        steps = ["2", "1", "3", "5", "7", "4", "2", "3", "5", "6", "3"]
        assert is_green_sequence(fig8_quiver(), steps)


class TestSubquiverAndRestriction:
    def test_full_subquiver_identity(self):
        q = make_quiver([1, 2, 3], [(2, 1), (3, 2)])
        assert full_subquiver(q, q.vertices) == q

    def test_full_subquiver_chain(self):
        q = make_quiver([1, 2, 3], [(2, 1), (3, 2), (1, 3)])
        sub = full_subquiver(q, ["1", "2"])
        assert sub.arrows() == [("2", "1", 1)]

    def test_full_subquiver_unknown_vertex(self):
        q = make_quiver([1, 2], [(2, 1)])
        with pytest.raises(UnknownVertexError):
            full_subquiver(q, ["3"])

    def test_ice_subquiver_intersects_frozen(self):
        iq = frame(a2())
        sub = full_subquiver(iq, ["1", "1'", "2"])
        assert sub.frozen == {"1'"}

    def test_restrict_identity_and_empty(self):
        seq = MutationSequence(("1", "2", "1"))
        assert restrict_sequence(seq, ["1", "2"]) == seq
        assert restrict_sequence(seq, []).steps == ()

    def test_restrict_repeat_detected(self):
        seq = MutationSequence(("1", "2", "1"))
        with pytest.raises(ConsecutiveRepeatAfterRestrictionError):
            restrict_sequence(seq, ["1"])


@st.composite
def quivers_three_ways(draw):
    """A quiver on 0-8 vertices with multiplicities up to 2, built by the
    checked constructor, by ``Quiver._trusted``, or as a full subquiver."""
    n = draw(st.integers(0, 8))
    labels = tuple(f"v{i}" for i in range(n))
    b = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            b[i, j] = draw(st.integers(-2, 2))
            b[j, i] = -b[i, j]
    how = draw(st.sampled_from(["checked", "trusted", "subquiver"]))
    if how == "trusted":
        arrows = [(i, j, int(b[i, j])) for i in range(n) for j in range(n) if b[i, j] > 0]
        return Quiver._trusted(labels, arrows, {v: i for i, v in enumerate(labels)})
    q = Quiver(labels, b)
    if how == "subquiver":
        return full_subquiver(q, draw(st.sets(st.sampled_from(labels))) if n else ())
    return q


@settings(max_examples=40, deadline=None)
@given(quivers_three_ways())
def test_adjacency_reads_the_matrix(q):
    """The cached adjacency agrees with a direct reading of the matrix, and
    the block census is computed once and kept."""
    m, names = np.array(q.matrix).tolist(), q.vertices
    n = len(names)
    for i, v in enumerate(names):
        assert q.out_neighbors(v) == [names[j] for j in range(n) if m[i][j] > 0]
        assert q.in_neighbors(v) == [names[j] for j in range(n) if m[i][j] < 0]
        assert q.neighbors(v) == [names[j] for j in range(n) if m[i][j] != 0]
    assert q.arrows() == sorted(
        (names[i], names[j], m[i][j]) for i in range(n) for j in range(n) if m[i][j] > 0
    )
    assert q.max_multiplicity() == max((x for row in m for x in row), default=0)
    reached, stack = set(), [0] if n else []
    while stack:
        i = stack.pop()
        if i not in reached:
            reached.add(i)
            stack.extend(j for j in range(n) if m[i][j])
    assert q.is_connected() == (len(reached) == n)
    census = q._blocks
    assert q._blocks is census
    assert census == Quiver(names, q.matrix)._blocks
    assert q == Quiver(names, q.matrix) and hash(q) == hash(Quiver(names, q.matrix))
