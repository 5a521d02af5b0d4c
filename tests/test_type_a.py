"""Type-A mutation class: recognizer, connecting vertices, decomposer."""

from __future__ import annotations

import random

import pytest

from conftest import mutation_walk, reference_cycles
from greenseq.decomposition import (
    construct_mgs,
    expected_mgs_length,
    underlying_quiver,
)
from greenseq.families import linear_a
from greenseq.fixtures import fig8_quiver, type_a_samples
from greenseq.oracle import min_mgs_length
from greenseq.quiver import is_maximal_green_sequence, make_quiver
from greenseq.type_a import (
    NotTypeAError,
    PinnedNotConnectingError,
    _connecting,
    triangles,
    type_a_decompose,
)


def triangle():
    return make_quiver([1, 2, 3], [(1, 2), (2, 3), (3, 1)])


class TestRecognizer:
    # ``triangles`` raises NotTypeAError on any quiver outside type A

    def test_reference_quiver(self):
        triangles(fig8_quiver())

    def test_sample_block(self):
        for q in type_a_samples():
            triangles(q)

    def test_linear_quivers(self):
        for n in range(1, 6):
            triangles(linear_a(n)[0])

    def test_non_oriented_triangle_rejected(self):
        q = make_quiver([1, 2, 3], [(1, 2), (3, 2), (3, 1)])
        with pytest.raises(NotTypeAError, match="oriented"):
            triangles(q)

    def test_empty_quiver_rejected(self):
        empty = make_quiver([], [])
        with pytest.raises(NotTypeAError, match="^no vertices$"):
            triangles(empty)
        with pytest.raises(NotTypeAError, match="no vertices"):
            type_a_decompose(empty)

    def test_long_cycle_rejected(self):
        q = make_quiver([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (4, 1)])
        with pytest.raises(NotTypeAError):
            triangles(q)

    def test_degree_five_rejected(self):
        arrows = [("0", str(i)) for i in range(1, 6)]
        q = make_quiver(["0", "1", "2", "3", "4", "5"], arrows)
        with pytest.raises(NotTypeAError):
            triangles(q)

    def test_degree_three_needs_free_arrow(self):
        # two triangles sharing an arrow is already a non-triangle cycle,
        # but a triangle with a chord-free extra arrow inside no triangle is fine
        q = make_quiver([1, 2, 3, 4], [(1, 2), (2, 3), (3, 1), (3, 4)])
        assert triangles(q) == [("1", "2", "3")]

    def test_relabeling_invariance(self):
        rng = random.Random(5)
        base = fig8_quiver()
        labels = list(base.vertices)
        for _ in range(5):
            perm = labels[:]
            rng.shuffle(perm)
            mapping = dict(zip(labels, perm))
            q = make_quiver(perm, [(mapping[u], mapping[v]) for u, v, _ in base.arrows()])
            triangles(q)


def star(centre, leaves):
    return [(centre, leaf) for leaf in leaves]


class TestRejectionMessages:
    """The exact text of each type-A rejection, in the order the checks run.

    One clause can never fire once the blocks are arrows and oriented
    triangles: two triangle blocks share at most one vertex, so a degree-4
    vertex in two of them sees four others.  Its message is not pinned.  A
    degree-3 vertex in one triangle has exactly one arrow outside it, so
    that case needs no check at all.
    """

    @pytest.mark.parametrize(
        "vertices, arrows, message",
        [
            ([], [], "no vertices"),
            # connectivity is checked before multiplicity
            ([1, 2, 3], [(1, 2, 2)], "not connected"),
            ([1, 2], [(1, 2, 2)], "arrow multiplicity above 1"),
            (
                [1, 2, 3],
                [(1, 2), (3, 2), (3, 1)],
                "block ('1', '2', '3') is neither an arrow nor an oriented triangle",
            ),
            # the 4-cycle block fails before its vertex 1 of degree 5
            (
                [1, 2, 3, 4, 5, 6, 7],
                [(1, 2), (2, 3), (3, 4), (4, 1), *star(1, [5, 6, 7])],
                "block ('1', '2', '3', '4') is neither an arrow nor an oriented triangle",
            ),
            (list("012345"), star("0", "12345"), "vertex '0' has 5 neighbors"),
            (
                list("01234"),
                star("0", "1234"),
                "degree-4 vertex '0' not covered by two disjoint triangles",
            ),
            (
                list("01234"),
                [("0", "1"), ("1", "2"), ("2", "0"), *star("0", "34")],
                "degree-4 vertex '0' not covered by two disjoint triangles",
            ),
            (list("0123"), star("0", "123"), "degree-3 vertex '0' needs exactly one triangle"),
            # vertices are checked in label order: a before b of degree 5
            (
                ["a", "b", "x1", "x2", "y1", "y2", "y3", "y4"],
                [*star("a", ["x1", "x2", "b"]), *star("b", ["y1", "y2", "y3", "y4"])],
                "degree-3 vertex 'a' needs exactly one triangle",
            ),
        ],
        ids=[
            "empty",
            "disconnected-and-doubled",
            "doubled",
            "non-oriented-triangle",
            "long-block-before-degree",
            "degree-five",
            "degree-four-no-triangle",
            "degree-four-one-triangle",
            "degree-three-no-triangle",
            "first-vertex-in-label-order",
        ],
    )
    def test_exact_message(self, vertices, arrows, message):
        q = make_quiver(vertices, arrows)
        with pytest.raises(NotTypeAError) as err:
            triangles(q)
        assert str(err.value) == message


class TestConnecting:
    """``_connecting`` on the triangles that ``triangles`` found, as the
    type-D rule reads it for each part."""

    def test_a2_both_connecting(self):
        q = linear_a(2)[0]
        assert _connecting(q, triangles(q)) == {"1", "2"}

    def test_triangle_all_connecting(self):
        assert _connecting(triangle(), triangles(triangle())) == {"1", "2", "3"}

    def test_path_midpoint_not_connecting(self):
        q = linear_a(3)[0]
        assert _connecting(q, triangles(q)) == {"1", "3"}

    def test_not_type_a_raises(self):
        q = make_quiver([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (4, 1)])
        with pytest.raises(NotTypeAError):
            _connecting(q, triangles(q))


class TestDecompose:
    def test_reference_quiver_lengths(self):
        dec = type_a_decompose(fig8_quiver())
        assert sorted(dec.chain_lengths) == [1, 2, 2, 2]
        assert expected_mgs_length(dec) == 10

    def test_triangle_pinned(self):
        dec = type_a_decompose(triangle(), pinned=["3"])
        assert set(dec.chains) == {("3",), ("2", "1")}

    def test_single_vertex_pinned(self):
        q = make_quiver(["v"], [])
        dec = type_a_decompose(q, pinned=["v"])
        assert dec.chains == (("v",),)

    def test_pinned_must_be_connecting(self):
        with pytest.raises(PinnedNotConnectingError):
            type_a_decompose(fig8_quiver(), pinned=["3"])  # degree 4

    def test_two_pins_in_one_triangle_infeasible(self):
        from greenseq.type_a import PinningInfeasibleError

        with pytest.raises(PinningInfeasibleError):
            type_a_decompose(triangle(), pinned=["1", "2"])

    def test_two_pins_in_one_glued_block_infeasible(self):
        from greenseq.type_a import PinningInfeasibleError

        # triangles 1, 2, 3 and 3, 4, 5 glued at 3; 1 and 5 are connecting
        q = make_quiver([1, 2, 3, 4, 5], [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 3)])
        with pytest.raises(PinningInfeasibleError, match="one glued triangle block"):
            type_a_decompose(q, pinned=["1", "5"])
        dec = type_a_decompose(q, pinned=["5"])
        assert dec.chains[0] == ("5",) and is_maximal_green_sequence(q, construct_mgs(dec))

    def test_linear_shapes(self):
        assert linear_a(1)[0].arrows() == []
        assert linear_a(2)[0].arrows() == [("2", "1", 1)]

    def test_every_sample_verifies(self):
        for q in type_a_samples() + [fig8_quiver()]:
            dec = type_a_decompose(q)
            assert underlying_quiver(dec) == q
            assert is_maximal_green_sequence(q, construct_mgs(dec))

    def test_pinned_samples_verify(self):
        # the fixtures, then every member of seeded A4-A9 mutation walks
        rng = random.Random(26)
        walks = [q for n in range(4, 10) for _ in range(3) for q in mutation_walk(rng, "A", n)]
        for q in type_a_samples() + walks:
            for pin in sorted(_connecting(q, triangles(q))):
                dec = type_a_decompose(q, pinned=[pin])
                assert (pin,) in dec.chains
                assert is_maximal_green_sequence(q, construct_mgs(dec))

    def test_random_glued_quivers(self):
        from conftest import random_type_a_quiver
        from greenseq.decomposition import check_step_shapes, validate_chains

        rng = random.Random(314)
        for _ in range(40):
            q = random_type_a_quiver(rng, rng.randint(0, 6))
            triangles(q)
            dec = type_a_decompose(q)
            assert validate_chains(dec.chains, dec.obliques) == []
            seq = construct_mgs(dec)
            assert is_maximal_green_sequence(q, seq)
            assert check_step_shapes(dec, seq) == []
            tri_count = len([c for c, _ in reference_cycles(q) if len(c) == 3])
            assert expected_mgs_length(dec) == len(q.vertices) + tri_count

    def test_length_formula_matches_oracle(self):
        # constructed length equals vertex count plus triangle count, which
        # brute-force search confirms as the minimum
        cases = [triangle(), linear_a(3)[0], linear_a(4)[0]] + [
            q for q in type_a_samples() if len(q.vertices) <= 7
        ]
        for q in cases:
            dec = type_a_decompose(q)
            triangles = [c for c, _ in reference_cycles(q) if len(c) == 3]
            formula = len(q.vertices) + len(triangles)
            assert expected_mgs_length(dec) == formula
            assert min_mgs_length(q) == formula
