"""Biconnected blocks and decomposition of oriented-cycle-glued quivers.

A block is a maximal biconnected piece of the underlying undirected graph:
either a single arrow (a bridge) or three or more vertices any two of which
lie on a common simple cycle.  Every simple cycle lies inside one block, and
a block is an induced subgraph, so the family recognizers read their
conditions off the blocks in linear time instead of listing cycles.  The
blocks are computed once per quiver and stored on it, so the recognizers
that ``families.auto_decompose`` runs in turn share one pass.

Every simple cycle is oriented and every arrow lies on one exactly when
every block is a single oriented cycle: two cycles sharing an arrow span a
theta subgraph, which always contains a non-oriented cycle, and a bridge
lies on no cycle.  Such a connected quiver decomposes into chains by
peeling the block cycles: the first contributes a path chain plus a
singleton, every later one meets the placed vertices in exactly one cut
vertex and contributes its remaining path as a fresh chain.
"""

from __future__ import annotations

from typing import Iterable

from .decomposition import ChainDecomposition, decompose_with_chains
from .quiver import Label, Quiver


def blocks(q: Quiver) -> list[tuple[Label, ...]]:
    """Biconnected blocks of the underlying graph, sorted by (size, vertices).

    Each block is a sorted vertex tuple; an isolated vertex is in no block.
    One linear Hopcroft–Tarjan pass computes them the first time they are
    asked for; the quiver stores them, and each call returns a fresh list.
    """
    return list(q._blocks)


def oriented_cycle(q: Quiver, vertices: Iterable[Label]) -> tuple[Label, ...] | None:
    """The induced subquiver on ``vertices`` as one oriented cycle, else None.

    The cycle is listed in arrow direction from its smallest label.  None
    when there are fewer than three vertices, a chord, a reversed arrow or
    more than one cycle.
    """
    inside = set(vertices)
    if len(inside) < 3:
        return None
    succ = {}
    for v in inside:
        outs = [w for w in q.out_neighbors(v) if w in inside]
        ins = [w for w in q.in_neighbors(v) if w in inside]
        if len(outs) != 1 or len(ins) != 1:
            return None
        succ[v] = outs[0]
    cycle = [min(inside)]
    while len(cycle) < len(inside):
        cycle.append(succ[cycle[-1]])
        if cycle[-1] == cycle[0]:
            return None
    return tuple(cycle)


def all_cycles_oriented_decompose(q: Quiver) -> ChainDecomposition | None:
    """Chain decomposition by cycle peeling, or None when preconditions fail.

    Preconditions: connected, every simple cycle oriented, every arrow on
    some cycle, that is, every block an oriented cycle.  Covers trees of
    oriented cycles and, more generally, any number of oriented cycles
    meeting pairwise in at most one vertex.
    """
    if not q.is_connected() or len(q.vertices) == 0:
        return None
    if q.max_multiplicity() > 1:
        return None
    cycles = [oriented_cycle(q, block) for block in blocks(q)]
    if None in cycles:
        return None
    if not cycles:
        # no arrows at all: a single vertex is the only connected case
        return decompose_with_chains(q, [[v] for v in q.vertices])

    # a directed path u1 -> ... -> um becomes a chain with um at position 1
    first, *remaining = sorted(cycles, key=lambda c: (len(c), c))
    chains = [list(reversed(first[1:])), [first[0]]]
    placed = set(first)
    while remaining:
        pick = next(c for c in remaining if placed.intersection(c))
        remaining.remove(pick)
        (v,) = placed.intersection(pick)
        idx = pick.index(v)
        chains.append(list(reversed(pick[idx + 1 :] + pick[:idx])))
        placed.update(pick)
    return decompose_with_chains(q, chains)
