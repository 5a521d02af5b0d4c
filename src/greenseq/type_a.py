"""Recognizer and chain decomposer for quivers mutation-equivalent to type A.

Such quivers are characterized locally: every cycle is an oriented triangle,
no vertex has more than four neighbors, a degree-four vertex sits in two
arrow-disjoint triangles, and a degree-three vertex has exactly one triangle
plus one arrow lying on no triangle.  Every cycle is an oriented triangle
exactly when every biconnected block (see ``cycles.blocks``) is a single
arrow or an oriented triangle, so the recognizer reads the triangles off
the blocks.  Structurally such quivers are oriented triangles glued at
shared vertices (each vertex in at most two triangles) with tree-like
appendages.

The decomposer peels each triangle into a two-vertex chain plus one vertex
kept elsewhere and makes every non-triangle vertex a singleton chain, which
gives a constructed green sequence of the minimal possible length
(vertex count plus triangle count).  Pinned vertices are forced into
singleton chains, which the type-D decomposition needs.
"""

from __future__ import annotations

from typing import Iterable

from .cycles import blocks, oriented_cycle
from .decomposition import ChainDecomposition, decompose_with_chains
from .quiver import Label, Quiver, QuiverError, Verdict

Triangle = tuple[Label, Label, Label]


class NotTypeAError(QuiverError):
    pass


class PinnedNotConnectingError(QuiverError):
    pass


class PinningInfeasibleError(QuiverError):
    pass


def triangles(q: Quiver) -> list[Triangle]:
    """Oriented triangles of a type-A quiver, each from its smallest vertex, sorted.

    They are its triangle blocks and all of its cycles.  Raises NotTypeAError
    naming the failed condition when ``q`` is not mutation-equivalent to type A.
    """
    if not q.is_connected():
        raise NotTypeAError("not connected")
    if (q.matrix > 1).any():
        raise NotTypeAError("arrow multiplicity above 1")
    tris = []
    for block in blocks(q):
        cycle = oriented_cycle(q, block)
        if len(block) > 3 or (len(block) == 3 and cycle is None):
            raise NotTypeAError(
                f"block {block} is neither an arrow nor an oriented triangle"
            )
        if cycle is not None:
            tris.append(cycle)
    tris.sort()
    tri_arrows = {(t[i], t[(i + 1) % 3]) for t in tris for i in range(3)}
    tri_at: dict[Label, list[Triangle]] = {}
    for t in tris:
        for v in t:
            tri_at.setdefault(v, []).append(t)
    for v in q.vertices:
        nbrs = q.neighbors(v)
        if len(nbrs) > 4:
            raise NotTypeAError(f"vertex {v!r} has {len(nbrs)} neighbors")
        local = tri_at.get(v, [])
        if len(nbrs) == 4:
            others = {w for t in local for w in t if w != v}
            if len(local) != 2 or len(others) != 4:
                raise NotTypeAError(
                    f"degree-4 vertex {v!r} not covered by two disjoint triangles"
                )
        elif len(nbrs) == 3:
            if len(local) != 1:
                raise NotTypeAError(f"degree-3 vertex {v!r} needs exactly one triangle")
            spare = [
                w
                for w in nbrs
                if (v, w) not in tri_arrows and (w, v) not in tri_arrows
            ]
            if len(spare) != 1:
                raise NotTypeAError(
                    f"degree-3 vertex {v!r}: third arrow lies on a triangle"
                )
    return tris


def is_type_a(q: Quiver) -> Verdict:
    """Check the four local characterization conditions."""
    try:
        triangles(q)
    except NotTypeAError as err:
        return Verdict(False, str(err))
    return Verdict(True)


def _connecting(q: Quiver, tris: list[Triangle]) -> frozenset[Label]:
    in_triangle = {v for t in tris for v in t}
    out = set()
    for v in q.vertices:
        deg = len(q.neighbors(v))
        if deg <= 1 or (deg == 2 and v in in_triangle):
            out.add(v)
    return frozenset(out)


def connecting_vertices(q: Quiver) -> frozenset[Label]:
    """Vertices with at most two neighbors, in a triangle when exactly two.

    Raises NotTypeAError when ``q`` is not mutation-equivalent to type A.
    """
    return _connecting(q, triangles(q))


def type_a_decompose(q: Quiver, pinned: Iterable[Label] = ()) -> ChainDecomposition:
    """Peel triangles into chains; every pinned vertex lands in a singleton.

    The triangle-adjacency graph of a type-A quiver is a forest; each
    component is processed from a root triangle (the pinned one when
    present) so that every later triangle still has two unplaced vertices.
    """
    tris = triangles(q)
    pinned = {str(v) for v in pinned}
    connecting = _connecting(q, tris)
    for p in pinned:
        if p not in connecting:
            raise PinnedNotConnectingError(f"pinned vertex {p!r} is not connecting")

    adjacency: dict[int, set[int]] = {i: set() for i in range(len(tris))}
    for i in range(len(tris)):
        for j in range(i + 1, len(tris)):
            if set(tris[i]) & set(tris[j]):
                adjacency[i].add(j)
                adjacency[j].add(i)

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
    for comp_root in range(len(tris)):
        if comp_root in seen:
            continue
        component = []
        stack = [comp_root]
        comp_seen = {comp_root}
        while stack:
            node = stack.pop()
            component.append(node)
            for other in adjacency[node]:
                if other not in comp_seen:
                    comp_seen.add(other)
                    stack.append(other)
        seen.update(comp_seen)

        pinned_tris = [i for i in component if pinned.intersection(tris[i])]
        if len(pinned_tris) > 1:
            raise PinningInfeasibleError(
                "two pinned vertices inside one glued triangle block"
            )
        root = pinned_tris[0] if pinned_tris else min(component)
        root_pins = sorted(pinned.intersection(tris[root]))
        if len(root_pins) > 1:
            raise PinningInfeasibleError("two pinned vertices in one triangle")
        solo = root_pins[0] if root_pins else min(tris[root])
        rest = [v for v in tris[root] if v != solo]
        chains.append([solo])
        placed.add(solo)
        pair_chain(*rest)

        order = [root]
        frontier = [root]
        visited = {root}
        while frontier:
            nxt = []
            for node in frontier:
                for other in sorted(adjacency[node]):
                    if other in visited or other not in comp_seen:
                        continue
                    visited.add(other)
                    order.append(other)
                    nxt.append(other)
            frontier = nxt
        for idx in order[1:]:
            free = [v for v in tris[idx] if v not in placed]
            if len(free) != 2:
                raise PinningInfeasibleError(
                    f"triangle {tris[idx]} has {len(free)} unplaced vertices"
                )
            if pinned.intersection(free):
                raise PinningInfeasibleError(
                    f"pinned vertex inside shared triangle {tris[idx]}"
                )
            pair_chain(*free)

    for v in q.vertices:
        if v not in placed:
            chains.append([v])
    return decompose_with_chains(q, chains)
