"""Hernandez-Leclerc quivers on (node, spectral parameter) vertices.

For Cartan data with symmetrized matrix B = (b_ij) and weights d_i, the
infinite quiver has vertex set I x Z and an arrow

    (i, r) -> (j, s)   iff   b_ij != 0 and s - d_j = r - d_i + b_ij.

Finite windows of it decompose into vertical chains (i, a) <- (i, a - 2 d_i)
<- ... joined by oblique zigzags, one per adjacent Dynkin node pair, and the
chain-adjacency graph mirrors the Dynkin diagram, hence is a tree.
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


def hl_arrows(
    cartan: CartanData, window: Iterable[HLVertex]
) -> list[tuple[HLVertex, HLVertex]]:
    """All rule arrows with both endpoints inside the window."""
    vertices = sorted(set(window))
    present = set(vertices)
    out = []
    for i, r in vertices:
        for j in cartan.nodes:
            bij = cartan.b(i, j)
            if bij == 0:
                continue
            s = r - cartan.d(i) + bij + cartan.d(j)
            if (j, s) in present:
                out.append(((i, r), (j, s)))
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
            for j in cartan.nodes:
                bij = cartan.b(i, j)
                if bij == 0:
                    continue
                forward = (j, r - cartan.d(i) + cartan.d(j) + bij)
                backward = (j, r - cartan.d(i) + cartan.d(j) - cartan.b(j, i))
                for cand in (forward, backward):
                    if cand not in seen:
                        seen.add(cand)
                        nxt.append(cand)
        frontier = nxt
    return sorted(seen)


def hl_decompose(q: Quiver, cartan: CartanData) -> ChainDecomposition:
    """Chain decomposition of a connected window with (i,r) vertex labels.

    Chains are the maximal vertical runs (i, a) <- (i, a - 2 d_i) <- ...;
    everything else becomes oblique.  Raises InconsistentLabelsError when the
    labels do not parse or the arrow set does not match the arrow rule.
    """
    vertices = [parse_hl_label(v) for v in q.vertices]
    _check_window(cartan, vertices)
    # a non-canonical label such as "(1, 0)", and so also two labels of one
    # vertex, fails the label comparison
    if [hl_label(v) for v in vertices] != list(q.vertices) or sorted(
        (hl_label(u), hl_label(v), 1) for u, v in hl_arrows(cartan, vertices)
    ) != q.arrows():
        raise InconsistentLabelsError("arrow set does not match the arrow rule")
    if not q.is_connected():
        raise InconsistentLabelsError("window is not connected")

    by_node: dict[int, set[int]] = {}
    for i, r in vertices:
        by_node.setdefault(i, set()).add(r)
    chains: list[list[Label]] = []
    for i in sorted(by_node):
        step = 2 * cartan.d(i)
        params = by_node[i]
        tops = sorted((r for r in params if r + step not in params), reverse=True)
        for top in tops:
            run = []
            r = top
            while r in params:
                run.append(hl_label((i, r)))
                r -= step
            chains.append(run)
    return decompose_with_chains(q, chains)
