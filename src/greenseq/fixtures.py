"""Built-in example quivers and reference mutation sequences.

These are the worked examples used by the test suite and exposed through the
CLI as named fixtures (``fig4``, ``fig7``, ``fig8``, ``fig10a`` .. ``fig10d``).
Reference sequences are stored in composition order (rightmost factor first),
exactly as usually printed, and converted on access.
"""

from __future__ import annotations

from .quiver import MutationSequence, Quiver, make_quiver

# 12-vertex type-B2 window: two rank-1 chains of three vertices each and one
# rank-2 chain of six, glued by zigzags.
FIG4_WINDOW: tuple[tuple[int, int], ...] = tuple(
    [(1, r) for r in (10, 8, 6, 4, 2, 0)] + [(2, r) for r in (9, 7, 5, 3, 1, -1)]
)

# Arrow set of the window above, transcribed independently of the arrow rule.
FIG4_ARROWS: tuple[tuple[str, str], ...] = (
    ("(1,0)", "(1,4)"),
    ("(1,2)", "(1,6)"),
    ("(1,2)", "(2,-1)"),
    ("(1,4)", "(1,8)"),
    ("(1,4)", "(2,1)"),
    ("(1,6)", "(1,10)"),
    ("(1,6)", "(2,3)"),
    ("(1,8)", "(2,5)"),
    ("(1,10)", "(2,7)"),
    ("(2,-1)", "(2,1)"),
    ("(2,1)", "(1,0)"),
    ("(2,1)", "(2,3)"),
    ("(2,3)", "(1,2)"),
    ("(2,3)", "(2,5)"),
    ("(2,5)", "(1,4)"),
    ("(2,5)", "(2,7)"),
    ("(2,7)", "(1,6)"),
    ("(2,7)", "(2,9)"),
    ("(2,9)", "(1,8)"),
)

# Reference 33-step maximal green sequence for the window, composition order.
FIG4_MGS_COMPOSITION: tuple[str, ...] = (
    "(2,9)", "(1,8)", "(2,7)", "(2,9)", "(1,10)", "(2,5)", "(2,7)", "(2,9)",
    "(1,4)", "(1,8)", "(2,3)", "(2,5)", "(2,7)", "(2,9)", "(1,6)", "(1,10)",
    "(2,1)", "(2,3)", "(2,5)", "(2,7)", "(2,9)", "(1,0)", "(1,4)", "(1,8)",
    "(2,-1)", "(2,1)", "(2,3)", "(2,5)", "(2,7)", "(2,9)", "(1,2)", "(1,6)",
    "(1,10)",
)


def fig4_quiver() -> Quiver:
    return make_quiver([f"({i},{r})" for i, r in FIG4_WINDOW], FIG4_ARROWS)


def fig4_mgs() -> MutationSequence:
    return MutationSequence.from_composition(FIG4_MGS_COMPOSITION)


# Three-chain example quiver used to pin down the vertex partial order.
THREE_CHAIN_CHAINS: tuple[tuple[str, ...], ...] = (
    tuple(f"a{i}" for i in range(1, 7)),
    tuple(f"b{i}" for i in range(1, 7)),
    tuple(f"c{i}" for i in range(1, 6)),
)
THREE_CHAIN_OBLIQUES: tuple[tuple[str, str], ...] = (
    ("b2", "a2"),
    ("a2", "b5"),
    ("b5", "a5"),
    ("c1", "b3"),
    ("b3", "c3"),
    ("c3", "b4"),
    ("b4", "c4"),
)

# Stated order chains for the example above, each listed greatest first.
THREE_CHAIN_ORDER_AB: tuple[str, ...] = (
    "b1", "b2", "a1", "a2", "b3", "b4", "b5", "a3", "a4", "a5", "b6", "a6",
)
THREE_CHAIN_ORDER_BC: tuple[str, ...] = (
    "c1", "b1", "b2", "b3", "c2", "c3", "b4", "c4", "b5", "b6", "c5",
)


def three_chain_quiver() -> Quiver:
    arrows = []
    for chain in THREE_CHAIN_CHAINS:
        for low, high in zip(chain, chain[1:]):
            arrows.append((high, low))
    arrows.extend(THREE_CHAIN_OBLIQUES)
    return make_quiver([v for c in THREE_CHAIN_CHAINS for v in c], arrows)


# 17-vertex tree of oriented cycles (cycles of lengths 4, 5, 3, 5, 4).
FIG7_ARROWS: tuple[tuple[str, str], ...] = (
    ("6", "2"), ("1", "5"), ("7", "6"), ("2", "1"), ("2", "8"), ("9", "5"),
    ("11", "3"), ("8", "7"), ("5", "4"), ("5", "10"), ("15", "13"),
    ("12", "11"), ("3", "14"), ("3", "2"), ("10", "9"), ("16", "15"),
    ("13", "17"), ("13", "12"), ("4", "3"), ("17", "16"), ("14", "13"),
)

# Chain presentation matching the reference sequence below.
FIG7_CHAINS: tuple[tuple[str, ...], ...] = (
    ("15", "16", "17"),
    ("11", "12", "13", "14"),
    ("6", "7", "8"),
    ("1", "2", "3", "4"),
    ("9", "10"),
    ("5",),
)

# Reference 36-step maximal green sequence, composition order.
FIG7_MGS_COMPOSITION: tuple[str, ...] = (
    "1", "11", "15", "16", "15", "12", "11", "13", "12", "11", "2", "1",
    "6", "7", "6", "3", "2", "1", "9", "5", "10", "9", "4", "3", "2", "1",
    "8", "7", "6", "14", "13", "12", "11", "17", "16", "15",
)


def fig7_quiver() -> Quiver:
    return make_quiver([str(i) for i in range(1, 18)], FIG7_ARROWS)


def fig7_mgs() -> MutationSequence:
    return MutationSequence.from_composition(FIG7_MGS_COMPOSITION)


# 7-vertex chain of three oriented triangles.
FIG8_ARROWS: tuple[tuple[str, str], ...] = (
    ("1", "2"), ("2", "3"), ("3", "1"),
    ("3", "4"), ("4", "5"), ("5", "3"),
    ("5", "6"), ("6", "7"), ("7", "5"),
)


def fig8_quiver() -> Quiver:
    return make_quiver([str(i) for i in range(1, 8)], FIG8_ARROWS)


# Reference sequences for the quiver above, composition order:
# an 11-step chain-order sequence and two published 12/13-step sequences.
FIG8_ELEVEN_COMPOSITION: tuple[str, ...] = (
    "3", "6", "5", "3", "2", "4", "7", "5", "3", "1", "2",
)
FIG8_TWELVE_COMPOSITION: tuple[str, ...] = (
    "3", "6", "2", "1", "6", "5", "4", "3", "6", "5", "7", "6",
)
FIG8_THIRTEEN_COMPOSITION: tuple[str, ...] = (
    "1", "3", "5", "7", "6", "1", "3", "5", "4", "1", "3", "2", "1",
)


def fig8_eleven_step() -> MutationSequence:
    return MutationSequence.from_composition(FIG8_ELEVEN_COMPOSITION)


def fig8_twelve_step() -> MutationSequence:
    return MutationSequence.from_composition(FIG8_TWELVE_COMPOSITION)


def fig8_thirteen_step() -> MutationSequence:
    return MutationSequence.from_composition(FIG8_THIRTEEN_COMPOSITION)


# Four quivers mutation-equivalent to type-D orientations, one per
# structure type of the classification.
FIG10A_ARROWS = (("1", "2"), ("4", "2"), ("2", "3"), ("2", "5"), ("5", "4"))
FIG10B_ARROWS = (
    ("1", "6"), ("6", "2"), ("6", "5"), ("6", "8"), ("2", "1"),
    ("5", "7"), ("8", "7"), ("3", "7"), ("7", "6"), ("7", "4"), ("4", "3"),
)
FIG10C_ARROWS = (
    ("4", "3"), ("1", "3"), ("7", "5"), ("3", "2"), ("3", "6"),
    ("5", "4"), ("5", "8"), ("2", "1"), ("8", "7"), ("6", "5"),
)
FIG10D_ARROWS = (
    ("4", "8"), ("1", "3"), ("5", "4"), ("5", "3"), ("3", "6"),
    ("3", "2"), ("2", "1"), ("6", "5"), ("8", "7"), ("7", "6"),
)


def fig10_quiver(kind: str) -> Quiver:
    arrows = {
        "a": FIG10A_ARROWS,
        "b": FIG10B_ARROWS,
        "c": FIG10C_ARROWS,
        "d": FIG10D_ARROWS,
    }[kind]
    labels = sorted({v for arrow in arrows for v in arrow})
    return make_quiver(labels, arrows)


# Four sample quivers mutation-equivalent to type-A orientations.
TYPE_A_SAMPLE_ARROWS: tuple[tuple[tuple[str, str], ...], ...] = (
    (
        ("1", "3"), ("4", "3"), ("3", "2"), ("3", "5"), ("6", "5"),
        ("2", "1"), ("5", "4"), ("5", "7"), ("7", "6"),
    ),
    (("1", "3"), ("3", "2"), ("3", "4"), ("5", "4"), ("2", "1")),
    (("2", "1"), ("2", "4"), ("1", "3"), ("3", "2"), ("5", "4")),
    (("1", "2"), ("2", "3"), ("4", "3"), ("4", "5")),
)


def type_a_samples() -> list[Quiver]:
    out = []
    for arrows in TYPE_A_SAMPLE_ARROWS:
        labels = sorted({v for arrow in arrows for v in arrow})
        out.append(make_quiver(labels, arrows))
    return out


# 13-vertex irreducible quiver whose cycles are all oriented, with three
# cycles meeting at one vertex (not a tree of oriented cycles).
ORIENTED_CYCLES_ARROWS: tuple[tuple[str, str], ...] = (
    ("1", "6"), ("5", "9"), ("12", "9"), ("3", "6"), ("6", "5"), ("6", "4"),
    ("6", "2"), ("10", "9"), ("4", "3"), ("9", "13"), ("9", "8"), ("9", "11"),
    ("2", "1"), ("7", "6"), ("11", "10"), ("8", "7"), ("13", "12"),
)


def oriented_cycles_example() -> Quiver:
    return make_quiver([str(i) for i in range(1, 14)], ORIENTED_CYCLES_ARROWS)


FIXTURE_QUIVERS = {
    "fig4": fig4_quiver,
    "fig7": fig7_quiver,
    "fig8": fig8_quiver,
    "fig10a": lambda: fig10_quiver("a"),
    "fig10b": lambda: fig10_quiver("b"),
    "fig10c": lambda: fig10_quiver("c"),
    "fig10d": lambda: fig10_quiver("d"),
}
