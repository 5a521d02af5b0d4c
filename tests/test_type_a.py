"""Type-A mutation class: recognizer, connecting vertices, decomposer."""

from __future__ import annotations

import random

import pytest

from conftest import reference_cycles
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
    connecting_vertices,
    is_type_a,
    type_a_decompose,
)


def triangle():
    return make_quiver([1, 2, 3], [(1, 2), (2, 3), (3, 1)])


class TestRecognizer:
    def test_reference_quiver(self):
        assert is_type_a(fig8_quiver())

    def test_sample_block(self):
        for q in type_a_samples():
            assert is_type_a(q), q

    def test_linear_quivers(self):
        for n in range(1, 6):
            assert is_type_a(linear_a(n)[0])

    def test_non_oriented_triangle_rejected(self):
        q = make_quiver([1, 2, 3], [(1, 2), (3, 2), (3, 1)])
        verdict = is_type_a(q)
        assert not verdict
        assert "oriented" in verdict.reason

    def test_long_cycle_rejected(self):
        q = make_quiver([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (4, 1)])
        assert not is_type_a(q)

    def test_degree_five_rejected(self):
        arrows = [("0", str(i)) for i in range(1, 6)]
        q = make_quiver(["0", "1", "2", "3", "4", "5"], arrows)
        assert not is_type_a(q)

    def test_degree_three_needs_free_arrow(self):
        # two triangles sharing an arrow is already a non-triangle cycle,
        # but a triangle with a chord-free extra arrow inside no triangle is fine
        q = make_quiver([1, 2, 3, 4], [(1, 2), (2, 3), (3, 1), (3, 4)])
        assert is_type_a(q)

    def test_relabeling_invariance(self):
        rng = random.Random(5)
        base = fig8_quiver()
        labels = list(base.vertices)
        for _ in range(5):
            perm = labels[:]
            rng.shuffle(perm)
            mapping = dict(zip(labels, perm))
            q = make_quiver(perm, [(mapping[u], mapping[v]) for u, v, _ in base.arrows()])
            assert is_type_a(q)


class TestConnecting:
    def test_a2_both_connecting(self):
        assert connecting_vertices(linear_a(2)[0]) == {"1", "2"}

    def test_triangle_all_connecting(self):
        assert connecting_vertices(triangle()) == {"1", "2", "3"}

    def test_path_midpoint_not_connecting(self):
        assert connecting_vertices(linear_a(3)[0]) == {"1", "3"}

    def test_not_type_a_raises(self):
        q = make_quiver([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (4, 1)])
        with pytest.raises(NotTypeAError):
            connecting_vertices(q)


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

    def test_linear_shapes(self):
        assert linear_a(1)[0].arrows() == []
        assert linear_a(2)[0].arrows() == [("2", "1", 1)]

    def test_every_sample_verifies(self):
        for q in type_a_samples() + [fig8_quiver()]:
            dec = type_a_decompose(q)
            assert underlying_quiver(dec) == q
            assert is_maximal_green_sequence(q, construct_mgs(dec))

    def test_pinned_samples_verify(self):
        for q in type_a_samples():
            for pin in sorted(connecting_vertices(q)):
                dec = type_a_decompose(q, pinned=[pin])
                assert (pin,) in dec.chains
                assert is_maximal_green_sequence(q, construct_mgs(dec))

    def test_random_glued_quivers(self):
        from conftest import random_type_a_quiver
        from greenseq.decomposition import check_step_shapes, validate_chains

        rng = random.Random(314)
        for _ in range(40):
            q = random_type_a_quiver(rng, rng.randint(0, 6))
            assert is_type_a(q), q.arrows()
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
