"""Three-step graph-rule mutation on explicit arrow multisets.

This is an independent implementation of quiver mutation used to cross-check
the matrix rule in :mod:`greenseq.quiver`.  Arrows are kept as a mapping
``(source, target) -> multiplicity``; mutation at k

1. adds one arrow u -> w per pair of arrows u -> k -> w, unless both u and w
   are frozen,
2. reverses every arrow incident to k,
3. cancels oriented 2-cycles until none remain.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .quiver import FrozenVertexMutationError, IceQuiver, Label, Quiver, make_quiver

ArrowMap = dict[tuple[Label, Label], int]


def arrows_of(q: Quiver) -> ArrowMap:
    return {(u, v): m for u, v, m in q.arrows()}


def mutate_arrows(
    arrows: Mapping[tuple[Label, Label], int],
    frozen: Iterable[Label],
    k: Label,
) -> ArrowMap:
    frozen = set(frozen)
    if k in frozen:
        raise FrozenVertexMutationError(f"cannot mutate frozen vertex {k!r}")
    into_k = {u: m for (u, v), m in arrows.items() if v == k and m}
    out_of_k = {w: m for (u, w), m in arrows.items() if u == k and m}

    new: ArrowMap = {}
    for (u, v), m in arrows.items():
        if u == k or v == k:
            new[(v, u)] = new.get((v, u), 0) + m
        else:
            new[(u, v)] = new.get((u, v), 0) + m
    for u, m_in in into_k.items():
        for w, m_out in out_of_k.items():
            if u in frozen and w in frozen:
                continue
            new[(u, w)] = new.get((u, w), 0) + m_in * m_out

    cancelled: ArrowMap = {}
    for (u, v), m in new.items():
        if not m or (v, u) in cancelled or (u, v) in cancelled:
            continue
        back = new.get((v, u), 0)
        if m > back:
            cancelled[(u, v)] = m - back
        elif back > m:
            cancelled[(v, u)] = back - m
    return {arrow: m for arrow, m in cancelled.items() if m}


def mutate_by_graph_rule(iq: IceQuiver, k: Label) -> IceQuiver:
    """Mutation via the arrow-multiset rule, returned as an ice quiver."""
    new = mutate_arrows(arrows_of(iq.quiver), iq.frozen, k)
    arrows = [(u, v, m) for (u, v), m in new.items()]
    return IceQuiver(make_quiver(iq.quiver.vertices, arrows), iq.frozen)
