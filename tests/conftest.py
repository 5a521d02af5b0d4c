"""Shared seeded generators for randomized tests."""

from __future__ import annotations

import random

import numpy as np

from greenseq.quiver import IceQuiver, Quiver


def random_quiver(rng: random.Random, n: int, density: float = 0.5, max_mult: int = 2) -> Quiver:
    """Random quiver in matrix form (no loops or 2-cycles by construction)."""
    labels = tuple(f"v{i}" for i in range(n))
    b = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                mult = rng.randint(1, max_mult)
                if rng.random() < 0.5:
                    mult = -mult
                b[i, j] = mult
                b[j, i] = -mult
    return Quiver(labels, b)


def random_ice_quiver(
    rng: random.Random, n: int, n_frozen: int, density: float = 0.5, max_mult: int = 2
) -> IceQuiver:
    """Random ice quiver; the frozen-frozen block is cleared to keep it legal."""
    assert 0 <= n_frozen < n
    q = random_quiver(rng, n, density, max_mult)
    frozen = frozenset(rng.sample(q.vertices, n_frozen))
    idx = [q.vertices.index(f) for f in sorted(frozen)]
    b = q.matrix.copy()
    b[np.ix_(idx, idx)] = 0
    return IceQuiver(Quiver(q.vertices, b), frozen)


def random_acyclic_quiver(rng: random.Random, n: int, density: float = 0.5) -> Quiver:
    """Random acyclic orientation: arrows only from higher to lower index."""
    labels = tuple(f"v{i}" for i in range(n))
    b = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                b[j, i] = 1
                b[i, j] = -1
    return Quiver(labels, b)


def random_type_a_quiver(rng: random.Random, steps: int):
    """Random quiver mutation-equivalent to a type-A orientation.

    Grows by gluing oriented triangles and attaching free arrows, only at
    vertices where the local degree conditions stay satisfiable: a vertex
    accepts a new triangle while it has at most one triangle and no second
    free arrow, and accepts a free arrow while it has degree at most one or
    sits in a triangle with degree two.
    """
    from greenseq.quiver import make_quiver

    arrows: list[tuple[str, str]] = [("t0a", "t0b"), ("t0b", "t0c"), ("t0c", "t0a")]
    triangles_at = {"t0a": 1, "t0b": 1, "t0c": 1}
    free_at = {"t0a": 0, "t0b": 0, "t0c": 0}
    counter = 0
    for _ in range(steps):
        counter += 1
        grow_triangle = rng.random() < 0.5
        if grow_triangle:
            targets = [
                v
                for v in sorted(triangles_at)
                if (triangles_at[v] == 0 and free_at[v] <= 1)
                or (triangles_at[v] == 1 and free_at[v] == 0)
            ]
        else:
            targets = [
                v
                for v in sorted(triangles_at)
                if (triangles_at[v] == 0 and free_at[v] <= 1)
                or (triangles_at[v] == 1 and free_at[v] == 0)
            ]
        if not targets:
            continue
        v = rng.choice(targets)
        if grow_triangle:
            x, y = f"g{counter}x", f"g{counter}y"
            # orient the new triangle v -> x -> y -> v
            arrows.extend([(v, x), (x, y), (y, v)])
            triangles_at[v] += 1
            triangles_at[x] = triangles_at[y] = 1
            free_at[x] = free_at[y] = 0
        else:
            w = f"p{counter}"
            arrows.append((v, w) if rng.random() < 0.5 else (w, v))
            free_at[v] += 1
            triangles_at[w] = 0
            free_at[w] = 1
    return make_quiver(sorted(triangles_at), arrows)


def reference_cycles(q: Quiver) -> list[tuple[tuple[str, ...], bool]]:
    """Every simple cycle of the underlying graph, listed by networkx.

    Each is (vertices, oriented).  An oriented cycle is listed in arrow
    direction from its smallest label, so triangles compare with
    ``type_a.triangles``; any other cycle is listed as networkx walks it.
    This is an independent reference for the block recognizers; the library
    itself does not use networkx.
    """
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(q.vertices)
    graph.add_edges_from((u, v) for u, v, _ in q.arrows())
    out = []
    for raw in nx.simple_cycles(graph):
        pairs = list(zip(raw, raw[1:] + raw[:1]))
        if all(q.b(u, v) > 0 for u, v in pairs):
            cycle = raw
        elif all(q.b(v, u) > 0 for u, v in pairs):
            cycle = raw[::-1]
        else:
            out.append((tuple(raw), False))
            continue
        start = cycle.index(min(cycle))
        out.append((tuple(cycle[start:] + cycle[:start]), True))
    return out
