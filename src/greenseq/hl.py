"""Hernandez-Leclerc quivers on (node, spectral parameter) vertices.

For Cartan data with symmetrized matrix B = (b_ij) and weights d_i, the
infinite quiver has vertex set I x Z and an arrow

    (i, r) -> (j, s)   iff   b_ij != 0 and s - d_j = r - d_i + b_ij.

Finite windows of it decompose into vertical chains (i, a) <- (i, a - 2 d_i)
<- ... joined by oblique zigzags, one per adjacent Dynkin node pair, and the
chain-adjacency graph mirrors the Dynkin diagram, hence is a tree.

A quiver's labels are parsed once (:func:`parse_window`); one helper then
checks the parsed window against the arrow rule of a given Cartan type and
cuts it into those chains.  ``hl_decompose`` runs it for one type, and
``families.auto_decompose`` for each type in turn on one parse.
"""

from __future__ import annotations

import re
from typing import Iterable

from .cartan import CartanData
from .decomposition import ChainDecomposition, decompose_with_chains
from .quiver import Label, Quiver, QuiverError, make_quiver

HLVertex = tuple[int, int]

_LABEL_RE = re.compile(r"^\((-?\d+),(-?\d+)\)$")


class EmptyWindowError(QuiverError):
    pass


class InconsistentLabelsError(QuiverError):
    pass


def hl_label(vertex: HLVertex) -> Label:
    return f"({vertex[0]},{vertex[1]})"


def parse_hl_label(label: Label) -> HLVertex:
    match = _LABEL_RE.match(label.replace(" ", ""))
    if not match:
        raise InconsistentLabelsError(f"not an (i,r) label: {label!r}")
    return int(match.group(1)), int(match.group(2))


def _shifts(cartan: CartanData) -> list[list[tuple[int, int]]]:
    """The arrow rule by node: (i, r) -> (j, r + shift) for each (j, shift)
    in entry i - 1, one per j with b_ij != 0."""
    return [
        [(j, cartan.b(i, j) - cartan.d(i) + cartan.d(j)) for j in cartan.support(i)]
        for i in cartan.nodes
    ]


def hl_arrows(
    cartan: CartanData, window: Iterable[HLVertex]
) -> list[tuple[HLVertex, HLVertex]]:
    """All rule arrows with both endpoints inside the window."""
    vertices = sorted(set(window))
    present = set(vertices)
    shifts = _shifts(cartan)
    out = []
    for i, r in vertices:
        for j, shift in shifts[i - 1]:
            if (j, r + shift) in present:
                out.append(((i, r), (j, r + shift)))
    return out


def _check_window(cartan: CartanData, vertices: list[HLVertex]) -> None:
    if not vertices:
        raise EmptyWindowError("empty vertex window")
    for i, _ in vertices:
        if not 1 <= i <= cartan.rank:
            raise InconsistentLabelsError(f"node index {i} outside 1..{cartan.rank}")


def hl_quiver(cartan: CartanData, window: Iterable[HLVertex]) -> Quiver:
    """Full subquiver of the infinite quiver on the given finite window."""
    vertices = sorted(set(window))
    _check_window(cartan, vertices)
    arrows = [(hl_label(u), hl_label(v)) for u, v in hl_arrows(cartan, vertices)]
    return make_quiver([hl_label(v) for v in vertices], arrows)


def hl_ball(cartan: CartanData, seed: HLVertex, radius: int) -> list[HLVertex]:
    """Connected window: vertices within ``radius`` arrow steps of ``seed``.

    Step candidates are generated from the arrow rule in both directions, so
    the result is always a connected full subquiver of one component.
    """
    seen = {seed}
    frontier = [seed]
    for _ in range(radius):
        nxt = []
        for i, r in frontier:
            for j in cartan.support(i):
                bij = cartan.b(i, j)
                forward = (j, r - cartan.d(i) + cartan.d(j) + bij)
                backward = (j, r - cartan.d(i) + cartan.d(j) - cartan.b(j, i))
                for cand in (forward, backward):
                    if cand not in seen:
                        seen.add(cand)
                        nxt.append(cand)
        frontier = nxt
    return sorted(seen)


def parse_window(q: Quiver) -> tuple[dict[HLVertex, int], bool]:
    """Each vertex of ``q`` as a parsed (i, r) label mapped to its index, and
    whether every label is canonical (as :func:`hl_label` writes it).

    Raises InconsistentLabelsError at the first label that does not parse.
    Two labels of one vertex, such as "(1,0)" and "(1, 0)", share one key;
    neither is canonical.
    """
    window, canonical = {}, True
    for k, label in enumerate(q.vertices):
        vertex = parse_hl_label(label)
        window[vertex] = k
        canonical = canonical and hl_label(vertex) == label
    return window, canonical


def _follows_rule(q: Quiver, cartan: CartanData, window: dict[HLVertex, int]) -> bool:
    """Whether the arrows of ``q`` are exactly the rule arrows of its window.

    Walks the rule arrows vertex by vertex and stops at the first one that
    ``q`` lacks or carries more than once; then an equal count means that
    ``q`` has no other arrow.
    """
    weight = q._adjacency.weight
    shifts = _shifts(cartan)
    count = 0
    for (i, r), k in window.items():
        for j, shift in shifts[i - 1]:
            target = window.get((j, r + shift))
            if target is not None:
                if weight.get((k, target)) != 1:
                    return False
                count += 1
    return count == len(weight)


def rule_chains(
    q: Quiver, cartan: CartanData, window: dict[HLVertex, int], canonical: bool
) -> list[list[Label]]:
    """The vertical runs of a window that follows the arrow rule, as chains.

    ``window`` and ``canonical`` are what :func:`parse_window` returns for
    ``q``.  Raises as :func:`hl_decompose` does, in the same order: an empty
    or out-of-rank window, then labels or arrows that do not match the
    rule, then a window that is not connected.
    """
    _check_window(cartan, window)
    # a non-canonical label such as "(1, 0)", and so also two labels of one
    # vertex, fails as the arrows do
    if not (canonical and _follows_rule(q, cartan, window)):
        raise InconsistentLabelsError("arrow set does not match the arrow rule")
    if not q.is_connected():
        raise InconsistentLabelsError("window is not connected")

    by_node: dict[int, set[int]] = {}
    for i, r in window:
        by_node.setdefault(i, set()).add(r)
    names = q.vertices
    chains: list[list[Label]] = []
    for i in sorted(by_node):
        step = 2 * cartan.d(i)
        params = by_node[i]
        tops = sorted((r for r in params if r + step not in params), reverse=True)
        for top in tops:
            run = []
            r = top
            while r in params:
                run.append(names[window[i, r]])
                r -= step
            chains.append(run)
    return chains


def hl_decompose(q: Quiver, cartan: CartanData) -> ChainDecomposition:
    """Chain decomposition of a connected window with (i,r) vertex labels.

    Chains are the maximal vertical runs (i, a) <- (i, a - 2 d_i) <- ...;
    everything else becomes oblique.  Raises InconsistentLabelsError when the
    labels do not parse or the arrow set does not match the arrow rule.
    """
    return decompose_with_chains(q, rule_chains(q, cartan, *parse_window(q)))
