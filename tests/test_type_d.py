"""Type-D mutation class: four-type classification and decomposition."""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from greenseq import families, type_a, type_d
from greenseq.decomposition import (
    ValidationFailedError,
    construct_mgs,
    underlying_quiver,
    validate_chains,
)
from greenseq.families import auto_decompose, linear_a
from greenseq.fixtures import fig7_quiver, fig8_quiver, fig10_quiver, oriented_cycles_example
from greenseq.quiver import QuiverError, is_maximal_green_sequence, make_quiver
from greenseq.type_d import TypeDClassification, classify_type_d, type_d_decompose


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

    def test_two_apexes_over_one_arrow_is_not_type_iv(self):
        # x and y both close a triangle over w1 -> w2 of the square, which
        # is therefore no type-IV centre; the quiver is outside the D6
        # mutation class (a search of the class's 80 quivers), and the two
        # triangles over w1 -> w2 fail type II, since w1 and w2 stay joined
        q = make_quiver(
            ["w1", "w2", "w3", "w4", "x", "y"],
            [("w1", "w2"), ("w2", "w3"), ("w3", "w4"), ("w4", "w1"),
             ("w2", "x"), ("x", "w1"), ("w2", "y"), ("y", "w1")],
        )
        assert classify_type_d(q) is None

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

    def test_auto_decompose_empty_quiver_is_none(self):
        assert auto_decompose(make_quiver([], [])) is None

    def test_auto_decompose_other_families(self):
        assert auto_decompose(fig8_quiver())[0] == "mu_a"
        assert auto_decompose(fig7_quiver())[0] == "oriented_cycles"
        assert auto_decompose(oriented_cycles_example())[0] == "oriented_cycles"
        bad = make_quiver([1, 2, 3, 4], [(1, 2), (2, 3), (4, 3), (4, 1)])
        assert auto_decompose(bad) is None


class TestTrianglesOnce:
    """``classify_type_d`` finds the triangles of each type-A part when it
    checks that part, and ``type_d_decompose`` peels from them."""

    GOLDEN = Path(__file__).parent / "data" / "auto_decompose_golden.json"

    def test_no_subquiver_gets_triangles_twice(self, monkeypatch):
        calls: list[tuple] = []
        original = type_a.triangles

        def counting(q):
            calls.append((q.vertices, tuple(q.arrows())))
            return original(q)

        for module in (families, type_a, type_d):
            monkeypatch.setattr(module, "triangles", counting)
        kinds = set()
        for record in json.loads(self.GOLDEN.read_text()):
            labels = record["labels"]
            arrows = [(labels[a[0]], labels[a[1]], *a[2:]) for a in record["arrows"]]
            calls.clear()
            answer = auto_decompose(make_quiver(labels, arrows))
            assert len(set(calls)) == len(calls), record["kind"]
            if answer is not None and answer[0] == "mu_d":
                kinds.add(classify_type_d(make_quiver(labels, arrows)).kind)
        assert kinds == {"I", "II", "III", "IV"}

    def test_carried_triangles_are_not_part_of_the_value(self):
        cls = classify_type_d(fig10_quiver("d"))
        assert cls.parts
        bare = type_d.TypeDClassification(cls.kind, central=cls.central, spikes=cls.spikes)
        assert bare == cls and hash(bare) == hash(cls) and repr(bare) == repr(cls)
        assert bare.to_dict() == cls.to_dict()
        # a classification made by hand still decomposes
        q = fig10_quiver("d")
        by_hand, carried = type_d_decompose(q, bare), type_d_decompose(q, cls)
        assert (by_hand.chains, by_hand.obliques) == (carried.chains, carried.obliques)

    @pytest.mark.parametrize("kind", "abcd")
    def test_hand_made_classification_finds_the_same_parts(self, kind):
        q = fig10_quiver(kind)
        cls = classify_type_d(q)
        bare = replace(cls, parts=None)
        assert type_d._parts(q, bare).keys() == cls.parts.keys()
        by_hand, carried = type_d_decompose(q, bare), type_d_decompose(q, cls)
        assert (by_hand.chains, by_hand.obliques) == (carried.chains, carried.obliques)


class TestCutAndPinRule:
    """Every component of the quiver without a type's cut holds exactly one
    pin, and is type A with that pin connecting.  Each quiver here passes
    the structural checks of its type's candidate and breaks that rule; a
    search of the A_n and D_n mutation classes (n = 5, 6) finds none of
    them, so no type applies."""

    CASES = {
        # two triangles over c -> d, whose ends are joined again by c -> x -> d
        "two-pins": (
            make_quiver(
                list("abcdx"),
                [("c", "d"), ("d", "a"), ("a", "c"), ("d", "b"), ("b", "c"),
                 ("c", "x"), ("x", "d")],
            ),
            TypeDClassification("II", a="a", b="b", c="c", d="d"),
            type_d._type_ii,
        ),
        # a pendant pair at c, and c leads into an acyclic triangle
        "part-not-type-a": (
            make_quiver(
                list("abcxyz"),
                [("a", "c"), ("b", "c"), ("c", "x"), ("x", "y"), ("y", "z"), ("x", "z")],
            ),
            TypeDClassification("I", a="a", b="b", c="c"),
            type_d._type_i,
        ),
        # four pendants at c: every pair leaves c inside a path of three
        "pin-not-connecting": (
            make_quiver(list("abcxy"), [("a", "c"), ("b", "c"), ("x", "c"), ("c", "y")]),
            TypeDClassification("I", a="a", b="b", c="c"),
            type_d._type_i,
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_candidate_that_breaks_the_rule(self, case):
        q, cls, candidates = self.CASES[case]
        assert cls in list(candidates(q))
        assert type_d._parts(q, cls) is None
        assert classify_type_d(q) is None
        # made by hand, the classification is refused with a typed error
        with pytest.raises(QuiverError) as err:
            type_d_decompose(q, cls)
        assert type(err.value) is ValidationFailedError
        assert [v.code for v in err.value.violations] == ["type-d-parts"]

    # a connected quiver's candidate always has a pin in each component,
    # since every component reaches the cut through one, and two pins in
    # one component also break its type-A check; made by hand, each fault
    # breaks only the pin count
    HAND_MADE = {
        # fig10 (d) without its spike leaves the apex's component unpinned
        "no-pin": (
            fig10_quiver("d"),
            TypeDClassification("IV", central=("4", "8", "7", "6", "5")),
        ),
        # c -> d joins the pins of this type-III cut into one A2 component
        "two-pins": (
            make_quiver(
                list("abcd"), [("c", "a"), ("a", "d"), ("d", "b"), ("b", "c"), ("c", "d")]
            ),
            TypeDClassification("III", a="a", b="b", c="c", d="d"),
        ),
    }

    @pytest.mark.parametrize("case", sorted(HAND_MADE))
    def test_hand_made_cut_that_breaks_the_rule(self, case):
        q, cls = self.HAND_MADE[case]
        assert type_d._parts(q, cls) is None
        with pytest.raises(ValidationFailedError) as err:
            type_d_decompose(q, cls)
        assert [v.code for v in err.value.violations] == ["type-d-parts"]
