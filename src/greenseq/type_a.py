"""Recognizer and chain decomposer for quivers mutation-equivalent to type A.

Such quivers are characterized locally: every cycle is an oriented triangle,
no vertex has more than four neighbors, a degree-four vertex sits in two
arrow-disjoint triangles, and a degree-three vertex has exactly one triangle
plus one arrow lying on no triangle.  Every cycle is an oriented triangle
exactly when every biconnected block (see ``Quiver._blocks``) is a single
arrow or an oriented triangle, so the recognizer reads the triangles off
the quiver's block census and checks the degree conditions on its int
adjacency lists.  Structurally such quivers are oriented triangles glued at
shared vertices (each vertex in at most two triangles) with tree-like
appendages.

The decomposer peels each triangle into a two-vertex chain plus one vertex
kept elsewhere and makes every non-triangle vertex a singleton chain, which
gives a constructed green sequence of the minimal possible length
(vertex count plus triangle count).  One connecting vertex may be pinned
into a singleton chain, which the type-D decomposition needs for each of
its type-A parts.
"""

from __future__ import annotations

from .decomposition import ChainDecomposition, decompose_with_chains
from .quiver import Label, Quiver, QuiverError

Triangle = tuple[Label, Label, Label]


class NotTypeAError(QuiverError):
    pass


class PinnedNotConnectingError(QuiverError):
    pass


def triangles(q: Quiver) -> list[Triangle]:
    """Oriented triangles of a type-A quiver, each from its smallest vertex, sorted.

    They are its triangle blocks and all of its cycles.  Raises NotTypeAError
    naming the failed condition when ``q`` is not mutation-equivalent to type A.
    """
    if not q.vertices:
        raise NotTypeAError("no vertices")
    if not q.is_connected():
        raise NotTypeAError("not connected")
    if q.max_multiplicity() > 1:
        raise NotTypeAError("arrow multiplicity above 1")
    tris = []
    for block, cycle in q._blocks.items():
        if len(block) > 3 or (len(block) == 3 and cycle is None):
            raise NotTypeAError(
                f"block {block} is neither an arrow nor an oriented triangle"
            )
        if cycle is not None:
            tris.append(cycle)
    tris.sort()
    tri_at: dict[Label, list[Triangle]] = {}
    for t in tris:
        for v in t:
            tri_at.setdefault(v, []).append(t)
    names = q.vertices
    for v, nbrs in zip(names, q._adjacency.nbrs):
        if len(nbrs) > 4:
            raise NotTypeAError(f"vertex {v!r} has {len(nbrs)} neighbors")
        local = tri_at.get(v, [])
        if len(nbrs) == 4:
            others = {w for t in local for w in t if w != v}
            if len(local) != 2 or len(others) != 4:
                raise NotTypeAError(
                    f"degree-4 vertex {v!r} not covered by two disjoint triangles"
                )
        elif len(nbrs) == 3 and len(local) != 1:
            # v's one triangle holds two of its three neighbours, so the
            # third arrow lies on no triangle without a further check
            raise NotTypeAError(f"degree-3 vertex {v!r} needs exactly one triangle")
    return tris


def _connecting(q: Quiver, tris: list[Triangle]) -> frozenset[Label]:
    """Vertices with at most two neighbors, in a triangle when exactly two."""
    in_triangle = {v for t in tris for v in t}
    return frozenset(
        v
        for v, nbrs in zip(q.vertices, q._adjacency.nbrs)
        if len(nbrs) <= 1 or (len(nbrs) == 2 and v in in_triangle)
    )


def type_a_decompose(q: Quiver, pin: Label | None = None) -> ChainDecomposition:
    """Peel triangles into chains; the pin, when given, lands in a singleton."""
    return decompose_with_chains(q, _peel(q, triangles(q), pin))


def _peel(q: Quiver, tris: list[Triangle], pin: Label | None = None) -> list[list[Label]]:
    """The chains of :func:`type_a_decompose`, given the triangles of ``q``.

    The triangle-adjacency graph of a type-A quiver is a forest; each
    component is walked breadth first from a root triangle (the pin's one
    when present, else its first) so that every later triangle still has
    two unplaced vertices.  A connecting pin lies in at most one triangle,
    so it is the solo vertex of its component's root, or else in no
    triangle and a singleton anyway.  The chains are not validated here.
    """
    if pin is not None:
        pin = str(pin)
        if pin not in _connecting(q, tris):
            raise PinnedNotConnectingError(f"pinned vertex {pin!r} is not connecting")

    tri_at: dict[Label, list[int]] = {}
    for i, t in enumerate(tris):
        for v in t:
            tri_at.setdefault(v, []).append(i)

    def glued(root: int) -> list[int]:
        """The triangles glued to ``root``, breadth first from it, the
        neighbours of each in index order."""
        order, seen = [root], {root}
        for node in order:
            for other in sorted({j for v in tris[node] for j in tri_at[v]} - seen):
                seen.add(other)
                order.append(other)
        return order

    chains: list[list[Label]] = []
    placed: set[Label] = set()

    def pair_chain(x: Label, y: Label) -> None:
        # exactly one arrow joins the two leftover triangle vertices
        if q.b(x, y) > 0:
            chains.append([y, x])
        else:
            chains.append([x, y])
        placed.update((x, y))

    seen: set[int] = set()
    for first in range(len(tris)):
        if first in seen:
            continue
        order = glued(first)
        seen.update(order)
        root = next((i for i in order if pin in tris[i]), first)
        if root != first:
            order = glued(root)
        solo = pin if pin in tris[root] else min(tris[root])
        rest = [v for v in tris[root] if v != solo]
        chains.append([solo])
        placed.add(solo)
        pair_chain(*rest)

        # a vertex lies in at most two triangles and they form a forest, so
        # each later triangle shares exactly one placed vertex, the one it
        # shares with its parent in the walk
        for idx in order[1:]:
            pair_chain(*(v for v in tris[idx] if v not in placed))

    for v in q.vertices:
        if v not in placed:
            chains.append([v])
    return chains
