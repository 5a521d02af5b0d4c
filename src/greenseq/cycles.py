"""Decomposition of oriented-cycle-glued quivers, read off their blocks.

A block is a maximal biconnected piece of the underlying undirected graph:
either a single arrow (a bridge) or three or more vertices any two of which
lie on a common simple cycle.  Every simple cycle lies inside one block, and
a block is an induced subgraph, so the family recognizers read their
conditions off the blocks in linear time instead of listing cycles.  The
blocks come from ``Quiver._blocks``, the block census: each block, a
sorted vertex tuple, mapped to its oriented cycle or None.  A quiver
computes it once, by one pass over its int adjacency, and keeps it, so the
recognizers that ``families.auto_decompose`` runs in turn (type A, type D
and the cycle peeling below) walk each block at most once between them.

Every simple cycle is oriented and every arrow lies on one exactly when
every block is a single oriented cycle: two cycles sharing an arrow span a
theta subgraph, which always contains a non-oriented cycle, and a bridge
lies on no cycle.  Such a connected quiver decomposes into chains by
peeling the block cycles: the first contributes a path chain plus a
singleton, every later one meets the placed vertices in exactly one cut
vertex and contributes its remaining path as a fresh chain.
"""

from __future__ import annotations

from .decomposition import ChainDecomposition, decompose_with_chains
from .quiver import Quiver


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
    cycles = list(q._blocks.values())
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
