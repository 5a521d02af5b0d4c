"""Chain decompositions of quivers and their maximal green sequences.

A chain decomposition presents a connected quiver as N vertical chains
(linearly oriented type-A runs ``v1 <- v2 <- ... <- vk``, position 1 at the
sink end) plus oblique arrows between chains.  The obliques joining any two
chains must form a single directed zigzag path that alternates between the
chains with strictly increasing positions on each, and the chain-adjacency
graph must be a tree.

On such a quiver a partial order on vertices is generated by

* within each chain, position 1 is greatest, and
* for each connected chain pair, interleaving relations read off the zigzag
  (two variants, depending on whether the zigzag's last arrow enters the
  chain it started from or the other one).

Listing vertices in any descending linear extension and concatenating each
vertex's associated down-chain run yields a maximal green sequence of the
underlying quiver; :func:`construct_mgs` builds it.
"""

from __future__ import annotations

import heapq
import itertools
import operator
import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Sequence

from .quiver import (
    Label,
    MutationSequence,
    Quiver,
    QuiverError,
    UnknownVertexError,
    _check_no_repeat,
    _framed_rows,
    _replay,
)
from .serialize import _json_labels, _known_keys


class DecompositionError(QuiverError):
    pass


class ObliqueWithinChainError(DecompositionError):
    pass


class NonAlternatingPathError(DecompositionError):
    pass


class NonIncreasingPositionsError(DecompositionError):
    pass


class MultiplePathsBetweenChainsError(DecompositionError):
    pass


class ChainGraphCycleError(DecompositionError):
    pass


class DisconnectedError(DecompositionError):
    pass


class OrderCycleDetectedError(DecompositionError):
    pass


class NotTwoChainsError(DecompositionError):
    pass


class ValidationFailedError(DecompositionError):
    def __init__(self, violations: Sequence["Violation"]):
        super().__init__("; ".join(v.message for v in violations))
        self.violations = tuple(violations)


_ERROR_BY_CODE = {
    "oblique-within-chain": ObliqueWithinChainError,
    "non-alternating-path": NonAlternatingPathError,
    "non-increasing-positions": NonIncreasingPositionsError,
    "multiple-paths-between-chains": MultiplePathsBetweenChainsError,
    "chain-graph-cycle": ChainGraphCycleError,
    "disconnected": DisconnectedError,
}


@dataclass(frozen=True, order=True)
class ChainVertex:
    """Position of a vertex inside a decomposition: chain and position, 1-based."""

    chain: int
    position: int


@dataclass(frozen=True)
class Violation:
    code: str
    clause: str
    message: str

    def to_dict(self) -> dict[str, str]:
        return {"code": self.code, "clause": self.clause, "message": self.message}


Oblique = tuple[ChainVertex, ChainVertex]


def _as_chain_tuples(chains: Iterable[Iterable[Label]]) -> tuple[tuple[Label, ...], ...]:
    return tuple(tuple(str(v) for v in chain) for chain in chains)


class _Layout:
    """Chain vertices as ints: vertex (c, p) is ``offsets[c - 1] + p - 1``.

    Ascending int order is (chain, position) order.
    """

    __slots__ = ("lengths", "offsets", "chain_of")

    def __init__(self, lengths: Iterable[int]):
        self.lengths = tuple(lengths)
        self.offsets = list(accumulate(self.lengths, initial=0))
        self.chain_of = [c for c, k in enumerate(self.lengths, 1) for _ in range(k)]

    def vertex(self, i: int) -> ChainVertex:
        chain = self.chain_of[i]
        return ChainVertex(chain, i - self.offsets[chain - 1] + 1)

    def find(self, cv: ChainVertex) -> int | ChainVertex:
        """The int of a chain vertex, or ``cv`` itself when the layout has none."""
        if 1 <= cv.chain <= len(self.lengths) and 1 <= cv.position <= self.lengths[cv.chain - 1]:
            return self.offsets[cv.chain - 1] + cv.position - 1
        return cv

    def index(self, cv: ChainVertex) -> int:
        """The int of a chain vertex; UnknownVertexError when the layout has none."""
        i = self.find(cv)
        if isinstance(i, ChainVertex):
            raise UnknownVertexError(f"unknown vertex {cv!r}")
        return i

    def chain_steps(self) -> list[int]:
        """The ints i whose chain goes on at i + 1, in ascending order."""
        chain_of = self.chain_of
        return [i for i in range(len(chain_of) - 1) if chain_of[i] == chain_of[i + 1]]


class ChainDecomposition:
    """Validated chains-plus-obliques presentation of a quiver.

    ``chains[i]`` lists chain i+1 from position 1 (sink end) upward.  Oblique
    ends may be vertex labels or ChainVertex pairs; the constructor resolves
    them to ints (see :class:`_Layout`) and checks every rule once, on the
    ints, keeping the chain pairs' zigzag paths that the check walks for
    the vertex order.  ``obliques`` builds its ChainVertex pairs when read.
    The vertex partial order and the underlying quiver are computed on
    first use and cached; instances are immutable by convention.
    """

    def __init__(self, chains: Iterable[Iterable[Label]], obliques: Iterable[tuple]):
        self._place(_as_chain_tuples(chains))
        self._attach(obliques)

    @classmethod
    def _of_labels(
        cls, chains: tuple[tuple[Label, ...], ...], obliques: Iterable[tuple]
    ) -> "ChainDecomposition":
        """The decomposition of chains whose labels are all str already."""
        dec = cls.__new__(cls)
        dec._place(chains)
        dec._attach(obliques)
        return dec

    def _attach(self, obliques: Iterable[tuple]) -> None:
        """Resolve the oblique ends to ints and check every rule."""
        obliques = tuple(obliques)  # read again when a lookup below fails
        index = self._index
        try:
            ends = [(index[src], index[dst]) for src, dst in obliques]
            unknown = None  # every end is a label's int
        except (KeyError, TypeError):  # a ChainVertex, numeric or unknown end
            ends = [(self._resolve(src), self._resolve(dst)) for src, dst in obliques]
            unknown = _unknown_end(ends)
        if unknown is None:
            ends.sort()  # ascending ints are (chain, position) order
        else:  # the end the check meets first, in ChainVertex order
            vertex = self._layout.vertex
            unknown = _unknown_end(
                sorted(ends, key=lambda p: [vertex(e) if isinstance(e, int) else e for e in p])
            )
        violations, self._paths = _violations(self._layout, len(self._index), ends, unknown)
        if violations:
            first = violations[0]
            if first.code not in _ERROR_BY_CODE:
                raise ValidationFailedError(violations)
            error = _ERROR_BY_CODE[first.code](first.message)
            error.violations = tuple(violations)
            raise error
        self._obliques = tuple(ends)

    def _place(self, chains: tuple[tuple[Label, ...], ...]) -> None:
        self.chains = chains
        self._layout = _Layout(map(len, chains))
        self._labels = tuple(itertools.chain.from_iterable(chains))
        self._index = dict(zip(self._labels, range(len(self._labels))))
        self._quiver: Quiver | None = None
        self._order: OrderRelation | None = None

    def _resolve(self, end) -> int | ChainVertex:
        """The int of an oblique end; a ChainVertex outside the layout stays as it is."""
        if isinstance(end, ChainVertex):
            return self._layout.find(end)
        i = self._index.get(str(end))
        if i is None:
            raise QuiverError(f"oblique endpoint not in any chain: {end!r}")
        return i

    @property
    def obliques(self) -> tuple[Oblique, ...]:
        vertex = self._layout.vertex
        return tuple((vertex(src), vertex(dst)) for src, dst in self._obliques)

    @property
    def chain_lengths(self) -> tuple[int, ...]:
        return self._layout.lengths

    @property
    def n_chains(self) -> int:
        return len(self.chains)

    def vertices(self) -> tuple[Label, ...]:
        """The vertex labels, sorted as in the underlying quiver."""
        return tuple(sorted(self._labels))

    def label_of(self, cv: ChainVertex) -> Label:
        return self._labels[self._layout.index(cv)]

    def chain_vertex_of(self, label: Label) -> ChainVertex:
        i = self._index.get(str(label))
        if i is None:
            raise UnknownVertexError(f"unknown vertex {label!r}")
        return self._layout.vertex(i)

    def order(self) -> "OrderRelation":
        if self._order is None:
            self._order = cover_relations(self)
        return self._order

    def __repr__(self) -> str:
        return f"ChainDecomposition(lengths={self.chain_lengths})"


def build_decomposition(
    chains: Iterable[Iterable[Label]],
    obliques: Iterable[tuple] = (),
) -> ChainDecomposition:
    """Build and validate a decomposition.

    ``obliques`` may use vertex labels or ChainVertex pairs; all structural
    rules are checked and the first violation is raised as a typed error.
    """
    return ChainDecomposition(chains, obliques)


def validate_chains(
    chains: Iterable[Iterable[Label]],
    obliques: Iterable[tuple],
) -> list[Violation]:
    """Check all decomposition rules; empty result means valid.

    The report is the one :class:`ChainDecomposition` raises for the same
    chains and obliques, in the same order.  Violations name the broken
    rule: oblique arrows staying inside a chain, pair obliques not forming
    a single alternating path, positions not strictly increasing, several
    paths between one chain pair, a cycle in the chain-adjacency graph, or
    a disconnected quiver.
    """
    try:
        ChainDecomposition(chains, obliques)
    except DecompositionError as err:
        return list(err.violations)
    return []


def _unknown_end(ends: list[tuple]) -> ChainVertex | None:
    """The first oblique end that is no int, that is, lies outside the layout."""
    return next((e for pair in ends for e in pair if not isinstance(e, int)), None)


def _violations(
    layout: _Layout,
    distinct: int,
    ends: list[tuple[int, int]],
    unknown: ChainVertex | None = None,
) -> tuple[list[Violation], list[list[int]]]:
    """Every broken rule of the int obliques ``ends`` over ``layout``, and the zigzags.

    ``distinct`` counts the distinct vertex labels; fewer than the layout's
    vertices means a label repeats.  ``unknown`` is an oblique end outside
    the layout; after a repeated label and an empty decomposition it is the
    only violation reported.  Every other message names its vertices as
    ChainVertex values.  The violations come in this order: obliques inside
    one chain, in the order of ``ends``; broken zigzags, by (smaller, larger)
    chain pair; chain pairs that close a cycle, by pair; a disconnected
    chain graph.  The zigzags are the valid chain pairs' paths, in pair
    order; :func:`cover_relations` reads them off a valid decomposition.
    """
    n_chains = len(layout.lengths)
    if distinct != len(layout.chain_of):
        return [Violation("duplicate-vertex", "vertex-map", "chains repeat a vertex label")], []
    if not distinct:
        return [Violation("disconnected", "connected", "no vertices")], []
    if unknown is not None:
        return [Violation("unknown-vertex", "vertex-map", f"no such chain vertex {unknown}")], []
    chain_of, vertex = layout.chain_of, layout.vertex
    out: list[Violation] = []
    by_pair: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for arrow in ends:
        ci, cj = chain_of[arrow[0]], chain_of[arrow[1]]
        if ci == cj:
            src, dst = arrow
            out.append(
                Violation(
                    "oblique-within-chain",
                    "oblique-zigzag",
                    f"oblique {vertex(src)} -> {vertex(dst)} stays inside chain {ci}",
                )
            )
            continue
        pair = (ci, cj) if ci < cj else (cj, ci)
        arrows = by_pair.get(pair)
        if arrows is None:
            by_pair[pair] = [arrow]
        else:
            arrows.append(arrow)
    pairs = sorted(by_pair)
    paths = []
    for pair in pairs:
        path = _zigzag(layout, by_pair[pair])
        if type(path) is tuple:
            code, what = path
            out.append(Violation(code, "oblique-zigzag", f"chains {pair}: {what}"))
        else:
            paths.append(path)

    # Chain-adjacency graph must be a forest; with connectivity, a tree.
    parent = list(range(n_chains + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = n_chains
    for x, y in pairs:
        rx, ry = find(x), find(y)
        if rx == ry:
            out.append(
                Violation(
                    "chain-graph-cycle",
                    "chain-tree",
                    f"chains {x} and {y} close a cycle in the chain-adjacency graph",
                )
            )
        else:
            parent[rx] = ry
            components -= 1
    if components > 1:
        out.append(
            Violation(
                "disconnected",
                "connected",
                f"chain-adjacency graph has {components} components",
            )
        )
    return out, paths


def _zigzag(layout: _Layout, arrows: list[tuple[int, int]]) -> list[int] | tuple[str, str]:
    """One chain pair's obliques walked from their source, or the rule they break.

    They must form a single path, alternating between the two chains, whose
    positions strictly increase on each chain.  One pass through the arrows,
    in the given order, stops at the first that leaves or enters a vertex
    another arrow already left or entered.  Then the walk from the one
    source must take every arrow, or the obliques split into several paths.
    Last, each vertex of the walk must lie above the one two steps before
    it, which is on the same chain since every arrow crosses to the other
    one.  A broken rule comes back as its (code, message).
    """
    if len(arrows) == 1:
        return list(arrows[0])
    vertex = layout.vertex
    outgoing: dict[int, int] = {}
    entered: set[int] = set()
    for src, dst in arrows:
        if src in outgoing:
            return "non-alternating-path", f"two obliques leave {vertex(src)}"
        outgoing[src] = dst
        if dst in entered:
            return "non-alternating-path", f"two obliques enter {vertex(dst)}"
        entered.add(dst)
    path = list(outgoing.keys() - entered)  # the sources
    if len(path) == 1:
        # every in-degree is at most 1, so the walk from the source never
        # revisits; it takes every arrow only when they form one path
        step = outgoing.get
        v = step(path[0])
        while v is not None:
            path.append(v)
            v = step(v)
    if len(path) != len(arrows) + 1:
        return "multiple-paths-between-chains", "obliques split into several paths"
    # the first vertex not above the one two steps before it
    low = next(itertools.compress(path[2:], map(operator.ge, path, path[2:])), None)
    if low is not None:
        what = f"zigzag positions not strictly increasing at {vertex(low)}"
        return "non-increasing-positions", what
    return path


def underlying_quiver(dec: ChainDecomposition) -> Quiver:
    """The quiver presented by the decomposition (all multiplicities 1).

    Built on first use straight from the chains and obliques, then cached.
    Validation already ruled out loops, 2-cycles and repeated labels, so
    the arrows are taken without the checks of :func:`make_quiver`.
    """
    if dec._quiver is None:
        order = tuple(sorted(dec._labels))
        index = {v: i for i, v in enumerate(order)}
        place = [index[v] for v in dec._labels]
        ends = [(i + 1, i) for i in dec._layout.chain_steps()] + list(dec._obliques)
        arrows = sorted((place[src], place[dst], 1) for src, dst in ends)
        dec._quiver = Quiver._trusted(order, arrows, index)
    return dec._quiver


def decompose_with_chains(
    q: Quiver, chains: Iterable[Iterable[Label]]
) -> ChainDecomposition:
    """Present an existing quiver with the given chains; obliques are inferred.

    Checks that the chains partition the vertex set, that every consecutive
    chain pair is joined by exactly one arrow in the downward direction, and
    that the leftover arrows satisfy all decomposition rules.
    """
    dec = ChainDecomposition.__new__(ChainDecomposition)
    dec._place(_as_chain_tuples(chains))
    if sorted(dec._labels) != list(q.vertices):
        raise ValidationFailedError(
            [Violation("vertex-map", "vertex-map", "chains do not partition the vertex set")]
        )
    if q.max_multiplicity() > 1:
        raise ValidationFailedError(
            [Violation("multiplicity", "vertical-chains", "arrow multiplicity above 1")]
        )
    vertical = set()
    for chain in dec.chains:
        for low, high in zip(chain, chain[1:]):
            if q.b(high, low) != 1:
                raise ValidationFailedError(
                    [
                        Violation(
                            "missing-vertical",
                            "vertical-chains",
                            f"no arrow {high!r} -> {low!r} inside a chain",
                        )
                    ]
                )
            vertical.add((high, low))
    index = dec._index
    ends = [(index[u], index[v]) for u, v, _ in q.arrows() if (u, v) not in vertical]
    violations, dec._paths = _violations(dec._layout, len(dec._index), ends)
    if violations:
        raise ValidationFailedError(violations)
    dec._obliques = tuple(sorted(ends))
    return dec


class OrderRelation:
    """Cover pairs over a decomposition's vertex ints and one descending linear extension.

    The vertices are the ints 0..n-1 of a :class:`_Layout`, in (chain,
    position) order: a vertex's int is its chain offset plus its position
    minus 1.  The chain covers (i, i + 1) within each chain are implied by
    the layout and never stored; a chain cover in ``covers`` is dropped.
    The other covers, the cross covers, are stored as given, in the given
    order, so a repeated cross cover is stored twice (it changes no answer);
    the ones :func:`cover_relations` gives are distinct.  ``covers`` lists
    the chain covers in int order, then the cross covers; ``vertices``,
    ``covers`` and ``extension`` build their ChainVertex tuples when read.

    The extension is computed once by Kahn's algorithm, always listing the
    smallest ready int, so ties break by smallest chain, then smallest
    position.  Only the first unlisted vertex of a chain can be ready, since
    the chain covers put every other one below it; so the ready ints are
    at most one head per chain, kept in a heap.  After listing an int the
    walk releases its cross covers and goes on down the same chain without
    touching the heap while the next vertex is ready and smaller than the
    heap's top; otherwise it pushes that vertex, if ready, and pops the
    top.  A cycle among the covers (a self-cover, or one through an
    implied chain cover, included) leaves vertices that never become ready
    and raises OrderCycleDetectedError.  No closure is stored:
    :meth:`greater` searches the covers when called, over below-lists it
    builds on its first call.
    """

    def __init__(self, layout: _Layout, covers: Iterable[tuple[int, int]]):
        chain_of, offsets = layout.chain_of, layout.offsets
        n = len(chain_of)
        self._layout = layout
        self._cross = tuple(
            (hi, lo) for hi, lo in covers if lo != hi + 1 or chain_of[hi] != chain_of[lo]
        )
        self._below: list[list[int]] | None = None
        released: dict[int, list[int]] = {}  # the cross covers below each int
        above = [1] * n  # the chain cover into each vertex below a chain head
        heads = [start for start, k in zip(offsets, layout.lengths) if k]
        for start in heads:
            above[start] = 0
        for hi, lo in self._cross:
            released.setdefault(hi, []).append(lo)
            above[lo] += 1
        ready = [i for i in heads if above[i] == 0]  # ascending, so a heap
        out: list[int] = []
        while ready:
            i = heapq.heappop(ready)
            end = offsets[chain_of[i]]  # one past i's chain
            while True:
                out.append(i)
                for j in released.get(i, ()):
                    above[j] -= 1
                    if above[j] == 0:
                        heapq.heappush(ready, j)
                i += 1
                if i == end:
                    break
                above[i] -= 1
                if above[i]:
                    break
                if ready and ready[0] < i:
                    heapq.heappush(ready, i)
                    break
        if len(out) != n:
            stuck = next(i for i in range(n) if above[i])
            raise OrderCycleDetectedError(f"order cycle through {layout.vertex(stuck)}")
        self._extension = tuple(out)

    @property
    def vertices(self) -> tuple[ChainVertex, ...]:
        return tuple(map(self._layout.vertex, range(len(self._layout.chain_of))))

    @property
    def covers(self) -> tuple[tuple[ChainVertex, ChainVertex], ...]:
        vertex = self._layout.vertex
        steps = [(i, i + 1) for i in self._layout.chain_steps()]
        return tuple((vertex(hi), vertex(lo)) for hi, lo in steps + list(self._cross))

    @property
    def extension(self) -> tuple[ChainVertex, ...]:
        return tuple(map(self._layout.vertex, self._extension))

    def greater(self, u: ChainVertex, v: ChainVertex) -> bool:
        """Whether a chain of covers leads down from u to v (depth-first search)."""
        target = self._layout.index(v)
        start = self._layout.index(u)
        if self._below is None:
            self._below = [[] for _ in self._layout.chain_of]
            for i in self._layout.chain_steps():
                self._below[i].append(i + 1)
            for hi, lo in self._cross:
                self._below[hi].append(lo)
        below = self._below
        stack = list(below[start])
        seen = set(stack)
        while stack:
            i = stack.pop()
            if i == target:
                return True
            for j in below[i]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return False


def _junction_covers(layout: _Layout, path: list[int]) -> list[tuple[int, int]]:
    """The covers where the order crosses between one chain pair's chains.

    ``path`` is the pair's zigzag; it leaves chain i first and alternates,
    so ``path[0::2]`` lies on chain i and ``path[1::2]`` on chain j.  The
    order descends in runs read off the zigzag.  When its last arrow enters
    chain j, the tail of chain i below the zigzag precedes the tail of
    chain j; when it re-enters chain i, the roles of the tails swap.  Inside
    a run, each step within one chain is a chain cover (i, i + 1), which
    :class:`OrderRelation` implies for all chains.  Only the steps from
    one chain to the other are returned, in run order; none repeats.
    """
    chain_of, offsets = layout.chain_of, layout.offsets
    a, b = path[0::2], path[1::2]
    below_b = [offsets[chain_of[b[0]] - 1] - 1, *b]  # the int below each run on chain j
    if len(path) % 2 == 0:  # the last arrow enters chain j
        covers = [(x, y + 1) for x, y in zip(a, below_b)]
        covers += [(y, x + 1) for x, y in zip(a, b[:-1])]
    else:
        covers = [c for x, y, z in zip(a, below_b, b) for c in ((x, y + 1), (z, x + 1))]
    # the last run: the path's end, then the other chain's tail, then its own
    top, other = path[-1], path[-2]
    end_other = offsets[chain_of[other]]  # one past the other chain
    if other + 1 < end_other:
        covers.append((top, other + 1))
        if top + 1 < offsets[chain_of[top]]:
            covers.append((end_other - 1, top + 1))
    return covers


def cover_relations(dec: ChainDecomposition) -> OrderRelation:
    """The vertex partial order from its covers, each listed once.

    Only the cross covers are handed over: each chain pair's junction covers
    (:func:`_junction_covers`), in (smaller, larger) chain order.  The
    within-chain covers (i, i + 1) are implied by the layout, so
    :class:`OrderRelation` merges the chains' runs at the junctions alone.
    The zigzags are the paths the decomposition's validation walked; none
    is walked again here.
    """
    layout = dec._layout
    covers: list[tuple[int, int]] = []
    for path in dec._paths:
        covers += _junction_covers(layout, path)
    return OrderRelation(layout, covers)


def is_greater(dec: ChainDecomposition, u, v) -> bool:
    """Whether u lies above v in the vertex order; accepts labels or chain vertices."""
    if not isinstance(u, ChainVertex):
        u = dec.chain_vertex_of(u)
    if not isinstance(v, ChainVertex):
        v = dec.chain_vertex_of(v)
    return dec.order().greater(u, v)


def descending_order(dec: ChainDecomposition) -> list[ChainVertex]:
    """A deterministic descending linear extension of the vertex order.

    Each listed element is maximal among those not yet listed; ties break by
    smallest chain index, then smallest position.  This is the extension
    Kahn's algorithm computed when the order was built.
    """
    return list(dec.order().extension)


def associated_sequence(dec: ChainDecomposition, cv: ChainVertex) -> MutationSequence:
    """The down-chain run for one vertex: positions 1 .. k - position + 1."""
    chain = dec.chains[cv.chain - 1]
    count = len(chain) - cv.position + 1
    return MutationSequence(tuple(chain[:count]))


def expected_mgs_length(dec: ChainDecomposition) -> int:
    """Total length of the constructed sequence: sum of k(k+1)/2 over chains."""
    return sum(k * (k + 1) // 2 for k in dec.chain_lengths)


def construct_mgs(dec: ChainDecomposition) -> MutationSequence:
    """Concatenate associated sequences along a descending linear extension.

    The result is a maximal green sequence of the underlying quiver, of
    length :func:`expected_mgs_length`.  The extension is the one
    :class:`OrderRelation` merged from the chain heads.  The steps are the
    chain tuples' labels, str already, so the sequence takes them without
    converting them again.  Chain labels are distinct and each run is a
    prefix of its chain, so a consecutive repeat can only sit where two runs
    meet: only there is it checked, with the message of the full check.
    """
    chains, layout = dec.chains, dec._layout
    lengths, chain_of, offsets = layout.lengths, layout.chain_of, layout.offsets
    steps: list[Label] = []
    last = None
    for i in dec.order()._extension:
        c = chain_of[i] - 1
        # vertex i sits at position i - offset + 1, so its run has
        # length - i + offset steps
        run = chains[c][: lengths[c] - i + offsets[c]]
        if run[0] == last:
            _check_no_repeat((last, run[0]))  # raises, as the full check would
        last = run[-1]
        steps.extend(run)
    return MutationSequence._unchecked(tuple(steps))


def two_chain_mgs(dec: ChainDecomposition) -> MutationSequence:
    """Explicit two-chain construction, expanded block by block.

    Equals :func:`construct_mgs` on every valid two-chain decomposition,
    where the vertex order is total; kept as an independent route for
    cross-checking.
    """
    if dec.n_chains != 2:
        raise NotTwoChainsError(f"need exactly 2 chains, got {dec.n_chains}")
    path = [dec._layout.vertex(x) for x in dec._paths[0]]  # the one zigzag
    ci, cj = path[0].chain, path[1].chain
    a = [cv.position for cv in path if cv.chain == ci]
    b = [cv.position for cv in path if cv.chain == cj]
    k_i = len(dec.chains[ci - 1])
    k_j = len(dec.chains[cj - 1])

    blocks: list[ChainVertex] = []

    def block(chain: int, lo: int, hi: int) -> None:
        blocks.extend(ChainVertex(chain, p) for p in range(lo, hi + 1))

    if path[-1].chain == cj:
        n = len(b)
        prev_a, prev_b = 0, 0
        for l in range(n):
            block(ci, prev_a + 1, a[l])
            block(cj, prev_b + 1, b[l])
            prev_a, prev_b = a[l], b[l]
        block(ci, prev_a + 1, k_i)
        block(cj, prev_b + 1, k_j)
    else:
        m = len(b)
        prev_a, prev_b = 0, 0
        for l in range(m):
            block(ci, prev_a + 1, a[l])
            block(cj, prev_b + 1, b[l])
            prev_a, prev_b = a[l], b[l]
        block(ci, prev_a + 1, a[m])
        block(cj, prev_b + 1, k_j)
        block(ci, a[m] + 1, k_i)

    steps: list[Label] = []
    for cv in blocks:
        steps.extend(associated_sequence(dec, cv))
    return MutationSequence(tuple(steps))


def check_step_shapes(dec: ChainDecomposition, seq: MutationSequence) -> list[str]:
    """Verify the local arrow shape at every step of ``seq``, a sequence built from ``dec``.

    Before each mutation the vertex about to be mutated must have
    (1) every arrow to a mutable vertex of its own chain pointing toward it,
    (2) every arrow to a mutable vertex of another chain pointing away, and
    (3) every arrow to a frozen vertex pointing away.
    Returns a list of human-readable violations (empty when all steps pass).
    """
    chain_of = {v: dec._layout.chain_of[i] for v, i in dec._index.items()}
    q = underlying_quiver(dec)
    frozen, rows = _framed_rows(q)
    n = len(q.vertices)
    labels = q.vertices + tuple(frozen)
    problems: list[str] = []
    for idx, v, k in _replay(rows, q.vertices, frozen, seq, require_green=False):
        # the arrows at v in the framed quiver's vertex order
        for j, entry in sorted(rows[k].items(), key=lambda item: labels[item[0]]):
            w = labels[j]
            if j >= n:
                if entry < 0:
                    problems.append(f"step {idx}: frozen arrow into {v!r} from {w!r}")
            elif chain_of[w] == chain_of[v]:
                if entry > 0:
                    problems.append(f"step {idx}: same-chain arrow out of {v!r} to {w!r}")
            else:
                if entry < 0:
                    problems.append(f"step {idx}: cross-chain arrow into {v!r} from {w!r}")
    return problems


def decomposition_to_dict(dec: ChainDecomposition) -> dict:
    return {
        "chains": [list(chain) for chain in dec.chains],
        "oblique": [
            {"from": dec._labels[src], "to": dec._labels[dst]}
            for src, dst in dec._obliques
        ],
    }


def decomposition_from_dict(data: dict) -> ChainDecomposition:
    """Parse the JSON form; a malformed field raises DecompositionError."""
    if not isinstance(data, dict):
        raise DecompositionError("decomposition JSON must be an object")
    _known_keys(data, ("chains", "oblique"), error=DecompositionError)
    chains = data.get("chains", [])
    if not isinstance(chains, list):
        raise DecompositionError(f"'chains' must be a list of label lists, got {type(chains).__name__}")
    obliques = data.get("oblique", [])
    if not isinstance(obliques, list) or not all(
        isinstance(o, dict) and "from" in o and "to" in o for o in obliques
    ):
        raise DecompositionError("'oblique' must be a list of objects with 'from' and 'to'")
    if set(map(len, obliques)) - {2}:  # some object has a key besides 'from' and 'to'
        for i, o in enumerate(obliques):
            _known_keys(o, ("from", "to"), f"oblique[{i}].", DecompositionError)
    # one type scan admits all-str labels as they are; any other label
    # takes the per-label check, which converts numbers and names the rest
    if all(type(c) is list for c in chains) and _all_str(chains):
        labels = tuple(map(tuple, chains))
    else:
        labels = tuple(tuple(_json_labels(c, "a chain", DecompositionError)) for c in chains)
    ends = [(o["from"], o["to"]) for o in obliques]
    if not _all_str(ends):
        ends = [tuple(_json_labels(list(e), "an oblique", DecompositionError)) for e in ends]
    return ChainDecomposition._of_labels(labels, ends)


def _all_str(groups: Iterable[Iterable]) -> bool:
    """Whether every label in the groups is a str and not a subclass of it."""
    return set(map(type, itertools.chain.from_iterable(groups))) <= {str}


def random_decomposition(
    seed: int, n_chains: int, max_vertices: int
) -> ChainDecomposition:
    """Seeded random valid decomposition: random chain lengths on a random
    chain tree with random zigzags.  Deterministic for a given seed."""
    if n_chains < 1 or max_vertices < n_chains:
        raise QuiverError("need max_vertices >= n_chains >= 1")
    rng = random.Random(seed)
    lengths = [1] * n_chains
    for _ in range(max_vertices - n_chains):
        if rng.random() < 0.8:
            lengths[rng.randrange(n_chains)] += 1
    chains = [
        [f"c{i + 1}p{l + 1}" for l in range(lengths[i])] for i in range(n_chains)
    ]
    obliques: list[tuple[str, str]] = []
    for y in range(2, n_chains + 1):
        x = rng.randint(1, y - 1)
        first = rng.choice((x, y))
        second = y if first == x else x
        high_water = {x: 0, y: 0}
        cur_chain = first
        cur_pos = rng.randint(1, lengths[first - 1])
        high_water[first] = cur_pos
        while True:
            nxt_chain = second if cur_chain == first else first
            lo = high_water[nxt_chain] + 1
            hi = lengths[nxt_chain - 1]
            if lo > hi:
                break
            nxt_pos = rng.randint(lo, hi)
            obliques.append(
                (chains[cur_chain - 1][cur_pos - 1], chains[nxt_chain - 1][nxt_pos - 1])
            )
            high_water[nxt_chain] = nxt_pos
            cur_chain, cur_pos = nxt_chain, nxt_pos
            if rng.random() < 0.45:
                break
    return build_decomposition(chains, obliques)
