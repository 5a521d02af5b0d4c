"""Cartan data and the spectral-parameter quiver generator/decomposer."""

from __future__ import annotations

import time

import numpy as np
import pytest

from greenseq.cartan import UnsupportedTypeError, cartan_data
from greenseq.decomposition import construct_mgs, expected_mgs_length, underlying_quiver
from greenseq.families import auto_decompose
from greenseq.fixtures import FIG4_WINDOW, fig4_mgs, fig4_quiver
from greenseq.hl import (
    EmptyWindowError,
    InconsistentLabelsError,
    hl_arrows,
    hl_ball,
    hl_decompose,
    hl_label,
    hl_quiver,
    parse_hl_label,
)
from greenseq.quiver import is_maximal_green_sequence, make_quiver


class TestCartanData:
    def test_a2_simply_laced(self):
        data = cartan_data("A", 2)
        assert data.symmetrizer == (1, 1)
        assert max(data.symmetrizer) == 1
        assert data.b(1, 2) == -1

    def test_b2_pinned_convention(self):
        data = cartan_data("B", 2)
        assert data.symmetrizer == (2, 1)
        assert max(data.symmetrizer) == 2
        assert np.array_equal(data.symmetrized, [[4, -2], [-2, 2]])

    def test_g2(self):
        assert max(cartan_data("G", 2).symmetrizer) == 3

    def test_max_symmetrizer_table(self):
        expected = {
            ("A", 5): 1, ("D", 6): 1, ("E", 6): 1, ("E", 7): 1, ("E", 8): 1,
            ("B", 3): 2, ("C", 4): 2, ("F", 4): 2, ("G", 2): 3,
        }
        for (letter, rank), r in expected.items():
            data = cartan_data(letter, rank)
            assert max(data.symmetrizer) == r
            assert min(data.symmetrizer) == 1
            sym = np.array(data.symmetrized)
            assert np.array_equal(sym, sym.T)

    def test_unsupported(self):
        with pytest.raises(UnsupportedTypeError):
            cartan_data("H", 3)
        with pytest.raises(UnsupportedTypeError):
            cartan_data("E", 9)
        with pytest.raises(UnsupportedTypeError):
            cartan_data("D", 3)


class TestCartanCache:
    """``cartan_data`` builds each (type, rank) once and shares it, read-only."""

    def test_repeat_builds_nothing_new(self):
        assert cartan_data("B", 3) is cartan_data("b", 3)
        assert cartan_data("B", 3) is not cartan_data("C", 3)

    def test_shared_matrix_is_read_only(self):
        data = cartan_data("B", 3)
        with pytest.raises(TypeError, match="does not support item assignment"):
            data.cartan[2][1] = 0
        fresh = cartan_data("B", 3)
        assert np.array_equal(fresh.cartan, [[2, -1, 0], [-1, 2, -1], [0, -2, 2]])
        assert np.array_equal(fresh.symmetrized, [[4, -2, 0], [-2, 4, -2], [0, -2, 2]])
        assert [fresh.b(3, j) for j in (1, 2, 3)] == [0, -2, 2]
        assert [fresh.d(i) for i in (1, 2, 3)] == [2, 2, 1]
        # ``symmetrized`` is computed afresh, so a caller may change a copy
        sym = np.array(fresh.symmetrized)
        sym[0, 0] = 7
        assert fresh.b(1, 1) == 4

    def test_unsupported_raises_on_every_call(self):
        for _ in range(3):
            with pytest.raises(UnsupportedTypeError, match="rank 9 not supported for type E"):
                cartan_data("E", 9)


def _matrix(text: str) -> list[list[int]]:
    return [[int(x) for x in line.split()] for line in text.strip().splitlines()]


# Cartan matrices of rank 8 (A-D) or of every rank (E, F, G), with their
# symmetrizers.  Under the module's labelling conventions the rank-n matrix
# of A, B, C or D is the trailing n x n block of the rank-8 one.
DENSE = {
    "A": (
        (1, 1, 1, 1, 1, 1, 1, 1),
        """
         2 -1  0  0  0  0  0  0
        -1  2 -1  0  0  0  0  0
         0 -1  2 -1  0  0  0  0
         0  0 -1  2 -1  0  0  0
         0  0  0 -1  2 -1  0  0
         0  0  0  0 -1  2 -1  0
         0  0  0  0  0 -1  2 -1
         0  0  0  0  0  0 -1  2
        """,
    ),
    "B": (
        (2, 2, 2, 2, 2, 2, 2, 1),
        """
         2 -1  0  0  0  0  0  0
        -1  2 -1  0  0  0  0  0
         0 -1  2 -1  0  0  0  0
         0  0 -1  2 -1  0  0  0
         0  0  0 -1  2 -1  0  0
         0  0  0  0 -1  2 -1  0
         0  0  0  0  0 -1  2 -1
         0  0  0  0  0  0 -2  2
        """,
    ),
    "C": (
        (1, 1, 1, 1, 1, 1, 1, 2),
        """
         2 -1  0  0  0  0  0  0
        -1  2 -1  0  0  0  0  0
         0 -1  2 -1  0  0  0  0
         0  0 -1  2 -1  0  0  0
         0  0  0 -1  2 -1  0  0
         0  0  0  0 -1  2 -1  0
         0  0  0  0  0 -1  2 -2
         0  0  0  0  0  0 -1  2
        """,
    ),
    "D": (
        (1, 1, 1, 1, 1, 1, 1, 1),
        """
         2 -1  0  0  0  0  0  0
        -1  2 -1  0  0  0  0  0
         0 -1  2 -1  0  0  0  0
         0  0 -1  2 -1  0  0  0
         0  0  0 -1  2 -1  0  0
         0  0  0  0 -1  2 -1 -1
         0  0  0  0  0 -1  2  0
         0  0  0  0  0 -1  0  2
        """,
    ),
    "E6": (
        (1, 1, 1, 1, 1, 1),
        """
         2 -1  0  0  0  0
        -1  2 -1  0  0  0
         0 -1  2 -1  0 -1
         0  0 -1  2 -1  0
         0  0  0 -1  2  0
         0  0 -1  0  0  2
        """,
    ),
    "E7": (
        (1, 1, 1, 1, 1, 1, 1),
        """
         2 -1  0  0  0  0  0
        -1  2 -1  0  0  0  0
         0 -1  2 -1  0  0  0
         0  0 -1  2 -1  0 -1
         0  0  0 -1  2 -1  0
         0  0  0  0 -1  2  0
         0  0  0 -1  0  0  2
        """,
    ),
    "E8": (
        (1, 1, 1, 1, 1, 1, 1, 1),
        """
         2 -1  0  0  0  0  0  0
        -1  2 -1  0  0  0  0  0
         0 -1  2 -1  0  0  0  0
         0  0 -1  2 -1  0  0  0
         0  0  0 -1  2 -1  0 -1
         0  0  0  0 -1  2 -1  0
         0  0  0  0  0 -1  2  0
         0  0  0  0 -1  0  0  2
        """,
    ),
    "F4": (
        (2, 2, 1, 1),
        """
         2 -1  0  0
        -1  2 -1  0
         0 -2  2 -1
         0  0 -1  2
        """,
    ),
    "G2": ((3, 1), " 2 -1\n-3  2"),
}


def _dense_cases():
    for letter, low in (("A", 1), ("B", 2), ("C", 2), ("D", 4)):
        d, text = DENSE[letter]
        full = _matrix(text)
        for rank in range(low, 9):
            yield letter, rank, d[8 - rank:], [row[8 - rank:] for row in full[8 - rank:]]
    for name in ("E6", "E7", "E8", "F4", "G2"):
        d, text = DENSE[name]
        yield name[0], int(name[1]), d, _matrix(text)


class TestDenseMatrices:
    """The sparse rows agree with the Cartan matrices written out above."""

    @pytest.mark.parametrize(
        "letter, rank, d, cartan",
        list(_dense_cases()),
        ids=[f"{letter}{rank}" for letter, rank, _, _ in _dense_cases()],
    )
    def test_every_supported_type_up_to_rank_8(self, letter, rank, d, cartan):
        data = cartan_data(letter, rank)
        sym = [[d[i] * c for c in row] for i, row in enumerate(cartan)]
        assert sym == [list(row) for row in zip(*sym)]
        assert data.symmetrizer == d
        assert data.cartan == tuple(map(tuple, cartan))
        assert data.symmetrized == tuple(map(tuple, sym))
        for i in data.nodes:
            assert [data.b(i, j) for j in data.nodes] == sym[i - 1]
            assert list(data.support(i)) == [j for j in data.nodes if sym[i - 1][j - 1]]

    def test_cases_are_the_supported_types(self):
        cases = {(letter, rank) for letter, rank, _, _ in _dense_cases()}
        assert len(cases) == 32
        for letter in "ABCDEFG":
            for rank in range(1, 9):
                if (letter, rank) not in cases:
                    with pytest.raises(UnsupportedTypeError):
                        cartan_data(letter, rank)


class TestLargeRank:
    """A label of large rank costs O(rank): the Cartan data is sparse."""

    def test_one_vertex_of_rank_20000_is_hl(self):
        q = make_quiver(["(20000,0)"])
        start = time.perf_counter()
        found = auto_decompose(q)
        assert time.perf_counter() - start < 5.0
        assert found is not None and found[0] == "hl"
        assert found[1].chains == (("(20000,0)",),)

    def test_large_rank_rows(self):
        a, d = cartan_data("A", 20000), cartan_data("D", 20000)
        assert a.b(20000, 19999) == -1 and a.b(1, 20000) == 0
        assert list(a.support(20000)) == [19999, 20000]
        assert list(d.support(19998)) == [19997, 19998, 19999, 20000]
        assert d.b(19999, 20000) == 0


class TestLabels:
    def test_round_trip(self):
        assert parse_hl_label(hl_label((2, -1))) == (2, -1)
        assert parse_hl_label("(1, 10)") == (1, 10)

    def test_bad_label(self):
        with pytest.raises(InconsistentLabelsError):
            parse_hl_label("x7")


class TestGenerator:
    def test_window_reproduces_reference_arrows(self):
        assert hl_quiver(cartan_data("B", 2), FIG4_WINDOW) == fig4_quiver()

    def test_named_arrows_present(self):
        q = hl_quiver(cartan_data("B", 2), FIG4_WINDOW)
        assert q.b("(1,10)", "(2,7)") == 1
        assert q.b("(2,9)", "(1,8)") == 1
        assert q.b("(1,4)", "(1,8)") == 1

    def test_empty_window(self):
        with pytest.raises(EmptyWindowError):
            hl_quiver(cartan_data("B", 2), [])

    def test_arrow_rule_brute_force(self):
        # independent double loop re-derives the arrow set from the rule
        cartan = cartan_data("B", 2)
        window = sorted(set(FIG4_WINDOW))
        expected = set()
        for i, r in window:
            for j, s in window:
                if cartan.b(i, j) != 0 and s - cartan.d(j) == r - cartan.d(i) + cartan.b(i, j):
                    expected.add((hl_label((i, r)), hl_label((j, s))))
        got = {(hl_label(u), hl_label(v)) for u, v in hl_arrows(cartan, window)}
        assert got == expected
        q = hl_quiver(cartan, window)
        assert {(u, v) for u, v, _ in q.arrows()} == expected

    def test_ball_is_connected(self):
        cartan = cartan_data("A", 3)
        window = hl_ball(cartan, (2, 0), 3)
        assert (2, 0) in window
        assert hl_quiver(cartan, window).is_connected()

    def test_reference_window_is_full_subquiver_of_larger_window(self):
        from greenseq.quiver import full_subquiver

        cartan = cartan_data("B", 2)
        big = hl_quiver(cartan, hl_ball(cartan, (1, 6), 6))
        labels = [f"({i},{r})" for i, r in FIG4_WINDOW]
        assert all(big.has_vertex(v) for v in labels)
        assert full_subquiver(big, labels) == fig4_quiver()


class TestDecompose:
    def test_reference_window_chains(self):
        dec = hl_decompose(fig4_quiver(), cartan_data("B", 2))
        assert sorted(dec.chain_lengths) == [3, 3, 6]
        chains = {flatten for flatten in dec.chains}
        assert ("(1,10)", "(1,6)", "(1,2)") in chains
        assert ("(1,8)", "(1,4)", "(1,0)") in chains
        assert ("(2,9)", "(2,7)", "(2,5)", "(2,3)", "(2,1)", "(2,-1)") in chains

    def test_reference_window_mgs(self):
        dec = hl_decompose(fig4_quiver(), cartan_data("B", 2))
        seq = construct_mgs(dec)
        assert len(seq) == expected_mgs_length(dec) == 33
        assert is_maximal_green_sequence(fig4_quiver(), seq)
        # the total order leaves no ties, so the constructed sequence is
        # exactly the reference one
        assert seq == fig4_mgs()

    def test_single_vertex_window(self):
        cartan = cartan_data("A", 2)
        q = hl_quiver(cartan, [(1, 0)])
        dec = hl_decompose(q, cartan)
        assert dec.chain_lengths == (1,)

    def test_a2_window_is_two_chains(self):
        cartan = cartan_data("A", 2)
        window = [(1, 0), (1, 2), (1, 4), (2, -1), (2, 1), (2, 3)]
        q = hl_quiver(cartan, window)
        dec = hl_decompose(q, cartan)
        assert dec.n_chains == 2
        assert is_maximal_green_sequence(q, construct_mgs(dec))

    def test_inconsistent_labels(self):
        with pytest.raises(InconsistentLabelsError):
            hl_decompose(make_quiver(["a", "b"], [("a", "b")]), cartan_data("B", 2))

    def test_wrong_arrows_detected(self):
        # right labels, wrong arrow direction
        q = make_quiver(["(1,0)", "(1,4)"], [("(1,4)", "(1,0)")])
        with pytest.raises(InconsistentLabelsError):
            hl_decompose(q, cartan_data("B", 2))

    # an A2 window (1,0) -> (1,2) -> (2,1) -> (1,0), (2,1) -> (2,3) -> (1,2)
    A2_WINDOW = [(1, 0), (1, 2), (2, 1), (2, 3)]

    @pytest.mark.parametrize(
        "window, relabel, extra_vertices, edit",
        [
            # one vertex, so the arrow comparison cannot catch the label
            ([(1, 0)], {"(1,0)": "(1, 0)"}, [], None),
            (A2_WINDOW, {}, ["(1, 0)"], None),
            (A2_WINDOW, {}, ["(3,0)"], None),
            (A2_WINDOW, {}, [], ("double", ("(1,0)", "(1,2)"))),
            (A2_WINDOW, {}, [], ("add", ("(1,0)", "(2,3)"))),
            (A2_WINDOW, {}, [], ("drop", ("(2,1)", "(2,3)"))),
        ],
        ids=[
            "non-canonical-label",
            "two-labels-one-vertex",
            "node-above-rank",
            "rule-arrow-doubled",
            "extra-arrow",
            "missing-arrow",
        ],
    )
    def test_rejections_raise_inconsistent_labels(self, window, relabel, extra_vertices, edit):
        cartan = cartan_data("A", 2)
        base = hl_quiver(cartan, window)
        name = lambda v: relabel.get(v, v)
        arrows = [(name(u), name(v), m) for u, v, m in base.arrows()]
        if edit is not None:
            how, (u, v) = edit
            if how == "double":
                arrows = [(a, b, 2 if (a, b) == (u, v) else m) for a, b, m in arrows]
            elif how == "add":
                arrows.append((u, v, 1))
            else:
                arrows = [a for a in arrows if a[:2] != (u, v)]
        q = make_quiver([name(v) for v in base.vertices] + extra_vertices, arrows)
        with pytest.raises(InconsistentLabelsError):
            hl_decompose(q, cartan)

    def test_round_trip_underlying(self):
        dec = hl_decompose(fig4_quiver(), cartan_data("B", 2))
        assert underlying_quiver(dec) == fig4_quiver()

    def test_disconnected_window_rejected(self):
        cartan = cartan_data("A", 2)
        q = hl_quiver(cartan, [(1, 0), (1, 100)])
        with pytest.raises(InconsistentLabelsError):
            hl_decompose(q, cartan)

    def test_random_windows_decompose_and_verify(self):
        from greenseq.quiver import is_maximal_green_sequence

        cases = [
            ("A", 3, (2, 0), 3),
            ("B", 2, (1, 6), 3),
            ("C", 3, (2, 1), 2),
            ("D", 4, (2, 0), 2),
            ("E", 6, (3, 0), 2),
            ("F", 4, (2, 0), 2),
            ("G", 2, (1, 0), 3),
        ]
        for letter, rank, seed, radius in cases:
            cartan = cartan_data(letter, rank)
            q = hl_quiver(cartan, hl_ball(cartan, seed, radius))
            dec = hl_decompose(q, cartan)
            assert underlying_quiver(dec) == q
            seq = construct_mgs(dec)
            assert len(seq) == expected_mgs_length(dec)
            assert is_maximal_green_sequence(q, seq), (letter, rank, radius)


# every supported type, by rank
TYPES = [
    ("A", 1), ("A", 2), ("B", 2), ("C", 2), ("G", 2),
    ("A", 3), ("B", 3), ("C", 3),
    ("A", 4), ("B", 4), ("C", 4), ("D", 4), ("F", 4),
    ("A", 6), ("D", 6), ("E", 6), ("E", 7), ("E", 8),
]
RULE = "arrow set does not match the arrow rule"


def rule_arrows(cartan, vertices):
    """The arrow rule by a double loop over the window, as (label, label, 1)."""
    return sorted(
        (hl_label((i, r)), hl_label((j, s)), 1)
        for i, r in vertices
        for j, s in vertices
        if cartan.b(i, j) != 0 and s - cartan.d(j) == r - cartan.d(i) + cartan.b(i, j)
    )


def edited_windows(q):
    """``q``, each single-arrow edit of it (drop, reverse, and an added
    arrow between unjoined vertices) and one non-canonical label."""
    arrows = q.arrows()
    out = [q]
    for k, (u, v, m) in enumerate(arrows):
        rest = arrows[:k] + arrows[k + 1 :]
        out.append(make_quiver(q.vertices, rest))
        out.append(make_quiver(q.vertices, rest + [(v, u, m)]))
    unjoined = [
        (u, v) for u in q.vertices for v in q.vertices if u < v and q.b(u, v) == 0
    ]
    for u, v in unjoined[:: max(1, len(unjoined) // 6)]:
        out.append(make_quiver(q.vertices, arrows + [(u, v, 1)]))
    spaced = {q.vertices[0]: q.vertices[0].replace(",", ", ")}
    name = lambda x: spaced.get(x, x)
    out.append(make_quiver([name(v) for v in q.vertices], [(name(a), name(b), m) for a, b, m in arrows]))
    return out


class TestRuleCheck:
    """``hl_decompose`` accepts exactly the windows whose labels are
    canonical and whose arrows equal the full rule comparison, against
    every type of the same rank, and rejects the rest with the same text."""

    @pytest.mark.parametrize("letter, rank", TYPES, ids=[f"{x}{r}" for x, r in TYPES])
    def test_acceptance_equals_full_comparison(self, letter, rank):
        cartan = cartan_data(letter, rank)
        peers = [cartan_data(x, r) for x, r in TYPES if r == rank]
        accepted = 0
        for radius in (1, 2, 3):
            base = hl_quiver(cartan, hl_ball(cartan, (rank, 0), radius))
            for q in edited_windows(base):
                vertices = [parse_hl_label(v) for v in q.vertices]
                canonical = [hl_label(v) for v in vertices] == list(q.vertices)
                for other in peers:
                    matches = canonical and rule_arrows(other, vertices) == q.arrows()
                    if matches and q.is_connected():
                        dec = hl_decompose(q, other)
                        assert underlying_quiver(dec) == q
                        accepted += 1
                        continue
                    with pytest.raises(InconsistentLabelsError) as err:
                        hl_decompose(q, other)
                    assert str(err.value) == (RULE if not matches else "window is not connected")
        assert accepted >= 3  # at least the unedited windows

    def test_window_messages_come_first(self):
        cartan = cartan_data("A", 2)
        with pytest.raises(InconsistentLabelsError, match=r"^node index 3 outside 1\.\.2$"):
            hl_decompose(make_quiver(["(1,0)", "(3,0)", "(3, 1)"]), cartan)
        with pytest.raises(EmptyWindowError, match="^empty vertex window$"):
            hl_decompose(make_quiver([]), cartan)
