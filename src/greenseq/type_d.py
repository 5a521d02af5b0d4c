"""Recognizer and chain decomposer for quivers mutation-equivalent to type D.

The classification distinguishes four structure types (rank at least 4).
Each removes a cut from the quiver and pins one vertex in each part left:

* Type I: a pendant pair a, b hanging off a common neighbor c.  The cut is
  {a, b} and the pin is c.
* Type II: two oriented triangles sharing one arrow c -> d, with apexes a
  and b of degree two.  The cut is {a, b} and the shared arrow, and the
  pins are c and d.
* Type III: an oriented chordless 4-cycle c -> a -> d -> b -> c with a and b
  of degree two.  The cut is {a, b} and the pins are c and d.
* Type IV: a chordless oriented central cycle, optionally one spike
  (an oriented triangle over a cycle arrow) per arrow, no other arrows at
  central vertices.  The cut is the central cycle and the pins are the
  spike apexes.

One rule then decides every type (:func:`_parts`): each component of the
quiver without the cut holds exactly one pin, and is mutation-equivalent to
type A with that pin connecting.  ``classify_type_d`` tries candidates in
the fixed order IV, III, II, I and the first that keeps the rule wins.
Every type has at most one biconnected block that is neither a single arrow
nor an oriented triangle (the central cycle with its spikes, the 4-cycle,
or the two triangles sharing an arrow), so a quiver with two such blocks is
rejected at once, and the type-IV and type-III centres are read off that
one block.  The decomposer peels the type-A parts the rule found, each with
its pin a singleton chain, adds the cut's chains per type, and validates
the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
import itertools
from typing import Iterator

from .decomposition import (
    ChainDecomposition,
    ValidationFailedError,
    Violation,
    decompose_with_chains,
)
from .quiver import Label, Quiver, full_subquiver
from .type_a import NotTypeAError, Triangle, _connecting, _peel, triangles

# each type-A part's subquiver and triangles, keyed by its pin
Parts = dict[Label, tuple[Quiver, list[Triangle]]]


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
    # the type-A parts the cut leaves, found when the rule was checked, so
    # the decomposer peels them without recomputing; None on a
    # classification made by hand, and not part of the result's value
    parts: Parts | None = field(default=None, compare=False, repr=False)

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


def _cut(
    cls: TypeDClassification,
) -> tuple[set[Label], list[Label], tuple[Label, Label] | None]:
    """What the type of ``cls`` removes to leave its type-A parts: the cut
    vertices, the pins (one per part, connecting in it) and an arrow that
    the cut skips."""
    if cls.kind == "IV":
        return set(cls.central or ()), [apex for *_, apex in cls.spikes], None
    pins = [cls.c] if cls.kind == "I" else [cls.c, cls.d]
    return {cls.a, cls.b}, pins, (cls.c, cls.d) if cls.kind == "II" else None


def _parts(q: Quiver, cls: TypeDClassification) -> Parts | None:
    """The type-A parts that the cut of ``cls`` leaves, keyed by their pins
    in component order, or None unless the cut is not empty and every
    component of ``q`` without it holds exactly one pin and is type A with
    that pin connecting."""
    removed, pins, skip = _cut(cls)
    if not removed:  # a type-IV classification made by hand without a cycle
        return None
    comps = _components(q, removed, skip)
    comp_of = {v: i for i, comp in enumerate(comps) for v in comp}
    owner = {comp_of.get(pin): pin for pin in pins}
    if len(owner) != len(pins) or owner.keys() != set(range(len(comps))):
        return None
    parts: Parts = {}
    for i, comp in enumerate(comps):
        sub = full_subquiver(q, comp)
        try:
            tris = triangles(sub)
        except NotTypeAError:
            return None
        if owner[i] not in _connecting(sub, tris):
            return None
        parts[owner[i]] = (sub, tris)
    return parts


def _type_iv(
    q: Quiver, centres: list[tuple[Label, ...]]
) -> Iterator[TypeDClassification]:
    for cycle in centres:
        central = set(cycle)
        arrows = list(zip(cycle, cycle[1:] + cycle[:1]))
        # the apexes x of the triangles a -> b -> x -> a over each cycle arrow
        over = [
            [x for x in q.out_neighbors(b) if x not in central and q.b(x, a) > 0]
            for a, b in arrows
        ]
        if any(len(xs) > 1 for xs in over):
            continue
        spikes = sorted((a, b, xs[0]) for (a, b), xs in zip(arrows, over) if xs)
        allowed = set(arrows).union(*(((b, x), (x, a)) for a, b, x in spikes))
        at_centre = [(v, w) for v in central for w in q.out_neighbors(v)]
        at_centre += [(w, v) for v in central for w in q.in_neighbors(v)]
        if allowed.issuperset(at_centre):
            yield TypeDClassification("IV", central=cycle, spikes=tuple(spikes))


def _type_iii(
    q: Quiver, centres: list[tuple[Label, ...]]
) -> Iterator[TypeDClassification]:
    for vs in (c for c in centres if len(c) == 4):
        for r in range(4):
            c, a, d, b = (vs[(r + i) % 4] for i in range(4))
            if len(q.neighbors(a)) == 2 and len(q.neighbors(b)) == 2:
                yield TypeDClassification("III", a=a, b=b, c=c, d=d)


def _type_ii(q: Quiver) -> Iterator[TypeDClassification]:
    outs, _, nbrs, weight = q._adjacency
    for ci, di, _ in q._arrows:
        # the apexes x of the triangles c -> d -> x -> c, in label order
        apexes = [x for x in outs[di] if (x, ci) in weight]
        if len(apexes) != 2:
            continue
        ai, bi = apexes
        if (ai, bi) in weight or (bi, ai) in weight:
            continue
        if len(nbrs[ai]) == 2 and len(nbrs[bi]) == 2:
            a, b, c, d = (q.vertices[i] for i in (ai, bi, ci, di))
            yield TypeDClassification("II", a=a, b=b, c=c, d=d)


def _type_i(q: Quiver) -> Iterator[TypeDClassification]:
    pendants = [v for v in q.vertices if len(q.neighbors(v)) == 1]
    for i, a in enumerate(pendants):
        (c,) = q.neighbors(a)
        for b in pendants[i + 1 :]:
            if q.neighbors(b) == [c]:
                yield TypeDClassification("I", a=a, b=b, c=c)


def classify_type_d(q: Quiver) -> TypeDClassification | None:
    """First matching structure type in the order IV, III, II, I, else None.

    Each type lists the candidates that pass its structural checks, and the
    first whose cut keeps the rule of :func:`_parts` wins, carrying the
    parts it found.  Quivers with fewer than four vertices are never
    classified (ranks below four collapse into type A).
    """
    if len(q.vertices) < 4 or not q.is_connected():
        return None
    if q.max_multiplicity() > 1:
        return None
    centres = _centres(q)
    if centres is None:
        return None
    for cls in itertools.chain(
        _type_iv(q, centres), _type_iii(q, centres), _type_ii(q), _type_i(q)
    ):
        parts = _parts(q, cls)
        if parts is not None:
            return replace(cls, parts=parts)
    return None


def type_d_decompose(q: Quiver, cls: TypeDClassification) -> ChainDecomposition:
    """Chain decomposition following the per-type recipe; validates the result.

    Each type-A part is peeled with its pin a singleton chain.  The parts
    are the ones the classification found, or :func:`_parts` of a
    classification made by hand; when its cut breaks the rule, this raises
    ValidationFailedError.

    Type IV takes one split of the central cycle: its smallest vertex is
    the solo chain and the rest of the cycle one path chain.  Every split
    validated on each of the 2,565 type-IV members of seeded D4-D10
    mutation walks, so a search over the other splits would never run; a
    split that fails raises ValidationFailedError.
    """
    parts = _parts(q, cls) if cls.parts is None else cls.parts
    if parts is None:
        why = f"the type-{cls.kind} cut does not leave type-A parts, one pin each"
        raise ValidationFailedError([Violation("type-d-parts", "type-d-cut", why)])
    peeled = {pin: _peel(sub, tris, pin) for pin, (sub, tris) in parts.items()}
    if cls.kind == "I":
        return decompose_with_chains(q, peeled[cls.c] + [[cls.a], [cls.b]])

    if cls.kind in ("II", "III"):
        chains = [
            chain
            for pin in (cls.c, cls.d)
            for chain in peeled[pin]
            if chain not in ([cls.c], [cls.d])
        ]
        if cls.kind == "II":
            chains.append([cls.d, cls.c])  # the shared arrow c -> d, d at the sink end
            chains.extend([[cls.a], [cls.b]])
        else:
            chains.append([cls.d, cls.a, cls.c])  # the path c -> a -> d as one chain
            chains.append([cls.b])
        return decompose_with_chains(q, chains)

    central = list(cls.central or ())
    solo = min(central)
    idx = central.index(solo)
    around = central[idx + 1 :] + central[:idx]
    apex_over = {(a, b): apex for a, b, apex in cls.spikes}
    # an apex whose spike sits over a cycle arrow at the solo vertex would
    # link three chains; merging it into the solo chain turns its spike
    # arrow into a vertical instead (entering arrow: apex goes below the
    # solo; leaving arrow: apex goes above)
    entering = apex_over.get((central[idx - 1], solo))
    leaving = apex_over.get((solo, around[0]))
    solo_chain = [v for v in (entering, solo, leaving) if v is not None]
    merged = {entering, leaving} - {None}
    chains = [list(reversed(around)), solo_chain] + [
        c
        for part in peeled.values()
        for c in part
        if not (len(c) == 1 and c[0] in merged)
    ]
    return decompose_with_chains(q, chains)
