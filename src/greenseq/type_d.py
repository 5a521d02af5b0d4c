"""Recognizer and chain decomposer for quivers mutation-equivalent to type D.

The classification distinguishes four structure types (rank at least 4):

* Type I: a pendant pair a, b hanging off a common neighbor c; the rest is
  mutation-equivalent to type A with c a connecting vertex.
* Type II: two oriented triangles sharing one arrow c -> d, with apexes a
  and b of degree two; deleting a, b and the shared arrow leaves two type-A
  components with c and d connecting.
* Type III: an oriented chordless 4-cycle c -> a -> d -> b -> c with a and b
  of degree two; deleting a and b leaves two type-A components with c and d
  connecting.
* Type IV: a chordless oriented central cycle, optionally one spike
  (an oriented triangle over a cycle arrow) per arrow, no other arrows at
  central vertices; deleting the central cycle leaves type-A components,
  each attached through exactly one spike apex, connecting in its component.

``classify`` searches candidates in the fixed order IV, III, II, I and the
first match wins.  Every type has at most one biconnected block that is
neither a single arrow nor an oriented triangle (the central cycle with
its spikes, the 4-cycle, or the two triangles sharing an arrow), so a
quiver with two such blocks is rejected at once, and the type-IV and
type-III centres are read off that one block.  The decomposer follows the
per-type recipe and validates the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .decomposition import (
    ChainDecomposition,
    ValidationFailedError,
    Violation,
    decompose_with_chains,
)
from .quiver import Label, Quiver, full_subquiver
from .type_a import NotTypeAError, Triangle, _connecting, _peel, triangles

# the triangles of each type-A part, keyed by its vertex set
Parts = dict[frozenset[Label], list[Triangle]]


@dataclass(frozen=True)
class TypeDClassification:
    kind: str  # "I", "II", "III", "IV"
    a: Label | None = None
    b: Label | None = None
    c: Label | None = None
    d: Label | None = None
    central: tuple[Label, ...] | None = None
    # spikes: (cycle arrow source, cycle arrow target, apex)
    spikes: tuple[tuple[Label, Label, Label], ...] = ()
    # the triangles the classification found, so the decomposer peels
    # them without recomputing; not part of the result's value
    parts: Parts = field(default_factory=dict, compare=False, repr=False)

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        for name in ("a", "b", "c", "d"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        if self.central is not None:
            out["central"] = list(self.central)
        if self.spikes:
            out["spikes"] = [
                {"from": s, "to": t, "apex": apex} for s, t, apex in self.spikes
            ]
        return out


def _components(
    q: Quiver, removed: set[Label], skip: tuple[Label, Label] | None = None
) -> list[list[Label]]:
    """Components of ``q`` without ``removed`` and the arrow ``skip``.

    Each component is sorted, and they come in order of smallest vertex.
    """
    nbrs = q._adjacency.nbrs
    seen = [False] * len(nbrs)
    for v in removed:
        seen[q.index(v)] = True
    cut = set()
    if skip is not None:
        i, j = q.index(skip[0]), q.index(skip[1])
        cut = {(i, j), (j, i)}
    names = q.vertices
    comps = []
    for root in range(len(nbrs)):
        if seen[root]:
            continue
        comp = [root]
        seen[root] = True
        stack = [root]
        while stack:
            u = stack.pop()
            for w in nbrs[u]:
                if not seen[w] and (u, w) not in cut:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        comps.append([names[i] for i in sorted(comp)])
    return comps


def _centres(q: Quiver) -> list[tuple[Label, ...]] | None:
    """Oriented chordless cycles that may be a type-IV or type-III centre.

    Sorted by (length, vertices); None when two or more blocks are neither
    an arrow nor an oriented triangle, which no type allows.  Without such
    a block the candidates are the triangle blocks.  With one, B, they are
    B when it is one oriented cycle, the triangle of each ear (a vertex with
    two B-neighbours that close an oriented triangle with it), and B
    without its ears when that is one oriented cycle.  Every block's cycle
    is read off the block census.
    """
    census = q._blocks
    nontrivial = [
        b for b, c in census.items() if len(b) > 3 or (len(b) == 3 and c is None)
    ]
    if len(nontrivial) > 1:
        return None
    if not nontrivial:
        return sorted(c for c in census.values() if c is not None)
    (block,) = nontrivial
    centres = {census[block]}
    inside = {q.index(v) for v in block}
    nbrs = q._adjacency.nbrs
    ears = set()
    # a three-vertex block's only ear would be the block itself, already read
    if len(inside) > 3:
        for v in inside:
            near = [w for w in nbrs[v] if w in inside]
            ear = q._cycle_on({v, *near}) if len(near) == 2 else None
            if ear is not None:
                centres.add(ear)
                ears.add(v)
    if ears:
        centres.add(q._cycle_on(inside - ears))
    centres.discard(None)
    return sorted(centres, key=lambda c: (len(c), c))


def _type_a_parts(q: Quiver, pins: list[tuple[list[Label], Label]]) -> Parts | None:
    """The triangles of the full subquiver on each ``comp`` of ``pins``, or
    None at the first that is not mutation-equivalent to type A with its
    ``pin`` connecting."""
    parts: Parts = {}
    for comp, pin in pins:
        sub = full_subquiver(q, comp)
        try:
            tris = triangles(sub)
        except NotTypeAError:
            return None
        if pin not in _connecting(sub, tris):
            return None
        parts[frozenset(comp)] = tris
    return parts


def _try_type_iv(
    q: Quiver, centres: list[tuple[Label, ...]]
) -> TypeDClassification | None:
    for cycle in centres:
        central = set(cycle)
        spikes: list[tuple[Label, Label, Label]] = []
        apexes: set[Label] = set()
        arrows = list(zip(cycle, cycle[1:] + cycle[:1]))
        allowed: set[tuple[Label, Label]] = set(arrows)
        ok = True
        for a, b in arrows:
            candidates = [
                x
                for x in q.out_neighbors(b)
                if x not in central and q.b(x, a) > 0
            ]
            if len(candidates) > 1:
                ok = False
                break
            if candidates:
                apex = candidates[0]
                spikes.append((a, b, apex))
                apexes.add(apex)
                allowed.update([(b, apex), (apex, a)])
        if not ok:
            continue
        for v in central:
            for w in q.out_neighbors(v):
                if (v, w) not in allowed:
                    ok = False
            for w in q.in_neighbors(v):
                if (w, v) not in allowed:
                    ok = False
        if not ok:
            continue
        comps = _components(q, central)
        comp_of_apex: dict[Label, list[Label]] = {}
        used: set[int] = set()
        for apex in apexes:
            for idx, comp in enumerate(comps):
                if apex in comp:
                    if idx in used:
                        ok = False
                    used.add(idx)
                    comp_of_apex[apex] = comp
        if not ok or len(used) != len(comps):
            continue
        parts = _type_a_parts(q, [(comp, apex) for apex, comp in comp_of_apex.items()])
        if parts is not None:
            return TypeDClassification(
                "IV", central=cycle, spikes=tuple(sorted(spikes)), parts=parts
            )
    return None


def _try_type_iii(
    q: Quiver, centres: list[tuple[Label, ...]]
) -> TypeDClassification | None:
    for vs in (c for c in centres if len(c) == 4):
        for r in range(4):
            c, a, d, b = (vs[(r + i) % 4] for i in range(4))
            if len(q.neighbors(a)) != 2 or len(q.neighbors(b)) != 2:
                continue
            comps = _components(q, {a, b})
            if len(comps) != 2 or (c in comps[0]) == (d in comps[0]):
                continue
            comp_c, comp_d = comps if c in comps[0] else comps[::-1]
            parts = _type_a_parts(q, [(comp_c, c), (comp_d, d)])
            if parts is not None:
                return TypeDClassification("III", a=a, b=b, c=c, d=d, parts=parts)
    return None


def _try_type_ii(q: Quiver) -> TypeDClassification | None:
    outs, _, nbrs, weight = q._adjacency
    for ci, di, _ in q._arrows:
        # the apexes x of the triangles c -> d -> x -> c, in label order
        apexes = [x for x in outs[di] if (x, ci) in weight]
        if len(apexes) != 2:
            continue
        ai, bi = apexes
        if (ai, bi) in weight or (bi, ai) in weight:
            continue
        if len(nbrs[ai]) != 2 or len(nbrs[bi]) != 2:
            continue
        a, b, c, d = (q.vertices[i] for i in (ai, bi, ci, di))
        comps = _components(q, {a, b}, (c, d))
        if len(comps) != 2 or (c in comps[0]) == (d in comps[0]):
            continue
        comp_c, comp_d = comps if c in comps[0] else comps[::-1]
        # c and d lie in different components, so neither holds the arrow c -> d
        parts = _type_a_parts(q, [(comp_c, c), (comp_d, d)])
        if parts is not None:
            return TypeDClassification("II", a=a, b=b, c=c, d=d, parts=parts)
    return None


def _try_type_i(q: Quiver) -> TypeDClassification | None:
    pendants = [v for v in q.vertices if len(q.neighbors(v)) == 1]
    for i in range(len(pendants)):
        for j in range(i + 1, len(pendants)):
            a, b = pendants[i], pendants[j]
            (ca,) = q.neighbors(a)
            (cb,) = q.neighbors(b)
            if ca != cb:
                continue
            c = ca
            comps = _components(q, {a, b})
            if len(comps) != 1:
                continue
            parts = _type_a_parts(q, [(comps[0], c)])
            if parts is not None:
                return TypeDClassification("I", a=a, b=b, c=c, parts=parts)
    return None


def classify_type_d(q: Quiver) -> TypeDClassification | None:
    """First matching structure type in the order IV, III, II, I, else None.

    Quivers with fewer than four vertices are never classified (ranks below
    four collapse into type A).
    """
    if len(q.vertices) < 4 or not q.is_connected():
        return None
    if q.max_multiplicity() > 1:
        return None
    centres = _centres(q)
    if centres is None:
        return None
    return (
        _try_type_iv(q, centres)
        or _try_type_iii(q, centres)
        or _try_type_ii(q)
        or _try_type_i(q)
    )


def _type_a_chains(
    q: Quiver, comp: list[Label], pinned: list[Label], parts: Parts
) -> list[list[Label]]:
    """Type-A chains of the full subquiver on ``comp``, each pinned vertex a singleton.

    The triangles come from ``parts`` when the classification found them.
    Not validated: only the decomposition of the whole quiver is.
    """
    sub = full_subquiver(q, comp)
    tris = parts.get(frozenset(comp))
    return _peel(sub, triangles(sub) if tris is None else tris, pinned)


def type_d_decompose(q: Quiver, cls: TypeDClassification) -> ChainDecomposition:
    """Chain decomposition following the per-type recipe; validates the result."""
    if cls.kind == "I":
        comp = [v for v in q.vertices if v not in (cls.a, cls.b)]
        chains = _type_a_chains(q, comp, [cls.c], cls.parts) + [[cls.a], [cls.b]]
        return decompose_with_chains(q, chains)

    if cls.kind in ("II", "III"):
        comps = _components(q, {cls.a, cls.b}, (cls.c, cls.d) if cls.kind == "II" else None)
        comp_c = next(x for x in comps if cls.c in x)
        comp_d = next(x for x in comps if cls.d in x)
        chains = [
            chain
            for comp, pin in ((comp_c, cls.c), (comp_d, cls.d))
            for chain in _type_a_chains(q, comp, [pin], cls.parts)
            if chain not in ([cls.c], [cls.d])
        ]
        if cls.kind == "II":
            chains.append([cls.d, cls.c])  # the shared arrow c -> d, d at the sink end
            chains.extend([[cls.a], [cls.b]])
        else:
            chains.append([cls.d, cls.a, cls.c])  # the path c -> a -> d as one chain
            chains.append([cls.b])
        return decompose_with_chains(q, chains)

    assert cls.kind == "IV" and cls.central is not None
    central = list(cls.central)
    apex_over: dict[tuple[Label, Label], Label] = {
        (a, b): apex for a, b, apex in cls.spikes
    }
    all_apexes = {apex for _, _, apex in cls.spikes}
    outer_chains = [
        chain
        for comp in _components(q, set(central))
        for chain in _type_a_chains(
            q, comp, [x for x in comp if x in all_apexes], cls.parts
        )
    ]

    failures: list[Violation] = []
    for solo in sorted(central):
        idx = central.index(solo)
        around = central[idx + 1 :] + central[:idx]
        # an apex whose spike sits over a cycle arrow at the solo vertex
        # would link three chains; merging it into the solo chain turns its
        # spike arrow into a vertical instead (entering arrow: apex goes
        # below the solo; leaving arrow: apex goes above)
        entering = apex_over.get((central[idx - 1], solo))
        leaving = apex_over.get((solo, around[0]))
        solo_chain = [v for v in (entering, solo, leaving) if v is not None]
        merged = {entering, leaving} - {None}
        chains = [list(reversed(around)), solo_chain] + [
            c for c in outer_chains if not (len(c) == 1 and c[0] in merged)
        ]
        try:
            return decompose_with_chains(q, chains)
        except ValidationFailedError as err:
            failures.extend(err.violations)
    raise ValidationFailedError(
        failures
        or [Violation("central-split", "chain-tree", "no central vertex split validates")]
    )
