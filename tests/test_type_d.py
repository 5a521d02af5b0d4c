"""Type-D mutation class: four-type classification and decomposition."""

from __future__ import annotations

from greenseq.decomposition import construct_mgs, underlying_quiver, validate_chains
from greenseq.families import auto_decompose, linear_a
from greenseq.fixtures import fig7_quiver, fig8_quiver, fig10_quiver, oriented_cycles_example
from greenseq.quiver import is_maximal_green_sequence, make_quiver
from greenseq.type_d import classify_type_d, type_d_decompose


class TestClassification:
    def test_fixture_kinds(self):
        assert classify_type_d(fig10_quiver("a")).kind == "I"
        assert classify_type_d(fig10_quiver("b")).kind == "II"
        assert classify_type_d(fig10_quiver("c")).kind == "III"
        assert classify_type_d(fig10_quiver("d")).kind == "IV"

    def test_type_i_details(self):
        cls = classify_type_d(fig10_quiver("a"))
        assert {cls.a, cls.b} == {"1", "3"}
        assert cls.c == "2"

    def test_type_ii_details(self):
        cls = classify_type_d(fig10_quiver("b"))
        assert (cls.c, cls.d) == ("7", "6")
        assert {cls.a, cls.b} == {"5", "8"}

    def test_type_iii_details(self):
        cls = classify_type_d(fig10_quiver("c"))
        assert (cls.c, cls.a, cls.d, cls.b) == ("3", "6", "5", "4")

    def test_type_iv_details(self):
        cls = classify_type_d(fig10_quiver("d"))
        assert set(cls.central) == {"4", "5", "6", "7", "8"}
        assert cls.spikes == (("6", "5", "3"),)

    def test_linear_quivers_not_classified(self):
        assert classify_type_d(linear_a(3)[0]) is None
        assert classify_type_d(linear_a(4)[0]) is None

    def test_small_and_unrelated_quivers(self):
        assert classify_type_d(make_quiver([1, 2], [(2, 1)])) is None
        assert classify_type_d(fig8_quiver()) is None  # pure type A
        assert classify_type_d(fig7_quiver()) is None

    def test_bare_oriented_square_is_type_iv(self):
        q = make_quiver([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (4, 1)])
        cls = classify_type_d(q)
        assert cls is not None and cls.kind == "IV"
        assert cls.spikes == ()
        dec = type_d_decompose(q, cls)
        assert is_maximal_green_sequence(q, construct_mgs(dec))

    def test_apex_over_two_cycle_arrows_is_not_type_iv(self):
        # p sits over a -> b and over c -> d of the square; this quiver is
        # outside the D5 mutation class (a search of the class's 26 quivers
        # does not find it), so no type applies
        q = make_quiver(
            ["a", "b", "c", "d", "p"],
            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"),
             ("b", "p"), ("p", "a"), ("d", "p"), ("p", "c")],
        )
        assert classify_type_d(q) is None
        assert auto_decompose(q) is None

    def test_two_blocks_beyond_triangles_are_rejected(self):
        # two oriented squares sharing a vertex: neither is a centre with
        # type-A components attached through spikes
        q = make_quiver(
            list("abcdefg"),
            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"),
             ("a", "e"), ("e", "f"), ("f", "g"), ("g", "a")],
        )
        assert classify_type_d(q) is None

    def test_deterministic(self):
        for kind in "abcd":
            q = fig10_quiver(kind)
            assert classify_type_d(q) == classify_type_d(q)


class TestDecomposition:
    def test_all_fixtures_validate_and_verify(self):
        for kind in "abcd":
            q = fig10_quiver(kind)
            cls = classify_type_d(q)
            dec = type_d_decompose(q, cls)
            assert validate_chains(dec.chains, dec.obliques) == []
            assert underlying_quiver(dec) == q
            assert is_maximal_green_sequence(q, construct_mgs(dec))

    def test_type_ii_merged_chain(self):
        dec = type_d_decompose(fig10_quiver("b"), classify_type_d(fig10_quiver("b")))
        assert ("6", "7") in dec.chains  # shared arrow c -> d with d at the sink end

    def test_type_iii_three_vertex_chain(self):
        dec = type_d_decompose(fig10_quiver("c"), classify_type_d(fig10_quiver("c")))
        assert ("5", "6", "3") in dec.chains  # the path c -> a -> d as one chain

    def test_type_iv_central_split(self):
        cls = classify_type_d(fig10_quiver("d"))
        dec = type_d_decompose(fig10_quiver("d"), cls)
        central = set(cls.central)
        singles = [c for c in dec.chains if len(c) == 1 and c[0] in central]
        big = [c for c in dec.chains if len(c) == 4 and set(c) <= central]
        assert len(singles) == 1 and len(big) == 1

    def test_spikes_at_the_solo_vertex_merge_into_its_chain(self):
        # spikes over two opposite arrows of a 4-cycle: every central vertex
        # touches a spiked arrow, so some apex must join the solo chain
        q = make_quiver(
            ["w1", "w2", "w3", "w4", "s1", "s2"],
            [
                ("w1", "w2"), ("w2", "w3"), ("w3", "w4"), ("w4", "w1"),
                ("w2", "s1"), ("s1", "w1"),
                ("w4", "s2"), ("s2", "w3"),
            ],
        )
        cls = classify_type_d(q)
        assert cls is not None and cls.kind == "IV"
        assert cls.spikes == (("w1", "w2", "s1"), ("w3", "w4", "s2"))
        dec = type_d_decompose(q, cls)
        assert ("w1", "s1") in dec.chains
        assert is_maximal_green_sequence(q, construct_mgs(dec))

    def test_fully_spiked_triangle(self):
        # a spike over every central arrow: the solo chain absorbs the
        # apexes of both arrows at the solo vertex
        q = make_quiver(
            ["w1", "w2", "w3", "c12", "c23", "c31"],
            [
                ("w1", "w2"), ("w2", "w3"), ("w3", "w1"),
                ("w2", "c12"), ("c12", "w1"),
                ("w3", "c23"), ("c23", "w2"),
                ("w1", "c31"), ("c31", "w3"),
            ],
        )
        cls = classify_type_d(q)
        assert cls is not None and cls.kind == "IV"
        dec = type_d_decompose(q, cls)
        assert ("c31", "w1", "c12") in dec.chains
        assert is_maximal_green_sequence(q, construct_mgs(dec))

    def test_auto_decompose_routes_to_type_d(self):
        for kind in "abcd":
            q = fig10_quiver(kind)
            tag, dec = auto_decompose(q)
            assert tag == "mu_d"
            assert is_maximal_green_sequence(q, construct_mgs(dec))

    def test_auto_decompose_other_families(self):
        assert auto_decompose(fig8_quiver())[0] == "mu_a"
        assert auto_decompose(fig7_quiver())[0] == "oriented_cycles"
        assert auto_decompose(oriented_cycles_example())[0] == "oriented_cycles"
        bad = make_quiver([1, 2, 3, 4], [(1, 2), (2, 3), (4, 3), (4, 1)])
        assert auto_decompose(bad) is None
