"""Quivers, ice quivers, Fomin-Zelevinsky mutation, and green-sequence checks.

A quiver is a finite directed graph without loops or 2-cycles.  It is stored
as its sorted (source, target, multiplicity) arrow triples over a
lexicographically sorted vertex list, by vertex index; between any pair at
most one direction carries arrows.  Its skew-symmetric exchange matrix
(``b[u][v]`` = arrows u -> v minus arrows v -> u) is built only when a
caller reads ``Quiver.matrix``.  An ice quiver additionally distinguishes a
frozen vertex subset with no arrows between frozen vertices.

The public values are immutable; every public operation returns a new value,
which makes them safe to share across threads or executors.  So a quiver
reads its arrows once, on first use, into int adjacency lists that the
neighbour accessors, ``b``, ``is_connected`` and the biconnected blocks
(``Quiver._blocks``) share.  It keeps the blocks, each with its oriented
cycle (the block census), and whether it is connected and its largest
multiplicity, so the family recognizers that run in turn on one quiver
each read them once.

Underneath, one private kernel (:func:`_mutate_rows`) mutates the extended
exchange matrix [B | C] in sparse form: a list with one ``dict`` per mutable
vertex, mapping a column to its nonzero entry, exact Python ints throughout.
Columns 0..n-1 are the mutable vertices in row order (the B block) and the
columns after them the frozen vertices (the C block, the arrows to the
frozen vertices).  For a framed quiver C starts as the identity and its rows
are the c-vectors.  The frozen rows of the full matrix are minus the
transpose of C, and the frozen-frozen block is zero, so [B | C] is the whole
state.  A quiver of the Q^N kind is sparse, so one step costs
O(deg(k) * nnz(row k)).  The kernel writes the rows it changes in place,
and reads whether row k was green (a positive c-vector) off the split of
row k by sign that the step makes anyway; a caller that keeps the old state
copies those rows first.
:func:`mutate`, the sequence checks, :func:`final_state`,
``decomposition.check_step_shapes`` and the search oracle all run this
kernel; ``graph_rule`` is the one independent implementation, kept as a
cross-check.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

Label = str


class QuiverError(Exception):
    """Base class for quiver construction and mutation errors."""


class LoopArrowError(QuiverError):
    pass


class TwoCycleError(QuiverError):
    pass


class DuplicateVertexError(QuiverError):
    pass


class UnknownEndpointError(QuiverError):
    pass


class UnknownVertexError(QuiverError):
    pass


class FrozenVertexMutationError(QuiverError):
    pass


class NotSignCoherentError(QuiverError):
    """A mutable vertex has arrows both to and from frozen vertices."""


class ZeroRowError(QuiverError):
    """A mutable vertex has no arrows to or from any frozen vertex."""


class ConsecutiveRepeatError(QuiverError):
    pass


class ConsecutiveRepeatAfterRestrictionError(ConsecutiveRepeatError):
    pass


class NotGreenAtStepError(QuiverError):
    def __init__(self, index: int, vertex: Label, reason: str = "vertex is not green"):
        super().__init__(f"step {index}: {reason}: {vertex!r}")
        self.index = index
        self.vertex = vertex


_NO_MUTABLE = "ice quiver has no mutable vertices"


class Color(enum.Enum):
    GREEN = "green"
    RED = "red"


Arrow = tuple[int, int, int]


class _Adjacency(NamedTuple):
    """A quiver's neighbours and arrow weights, by vertex index.

    ``outs``, ``ins`` and ``nbrs`` hold each vertex's ascending out-, in-
    and undirected neighbour indices; ``weight`` maps (i, j) to the
    multiplicity of the arrow i -> j.
    """

    outs: list[list[int]]
    ins: list[list[int]]
    nbrs: list[list[int]]
    weight: dict[tuple[int, int], int]


@dataclass(frozen=True, eq=False, init=False)
class Quiver:
    """Finite quiver without loops or 2-cycles, stored as its arrows.

    ``vertices`` is sorted lexicographically and fixes all iteration order.
    Equality is labeled equality: same vertex labels, same arrows.
    """

    vertices: tuple[Label, ...]
    _arrows: tuple[Arrow, ...]
    _index: dict[Label, int]

    def __init__(self, vertices: Sequence[Label], matrix: Sequence[Sequence[int]]) -> None:
        """The checked constructor, from a skew-symmetric integer matrix.

        ``matrix`` is any n x n nested sequence of integers (read with
        ``operator.index``, so ``bool``, ``float`` and ``str`` entries are
        refused), each of absolute value at most 2**63 - 1, the multiplicity
        bound of :func:`make_quiver`.  Validates it as input from outside,
        in O(n^2), and reads the arrows off it once; the library itself
        builds quivers from arrows (:func:`make_quiver`).
        """
        vertices = tuple(vertices)
        n = len(vertices)
        if len(set(vertices)) != n:
            raise DuplicateVertexError("duplicate vertex labels")
        if list(vertices) != sorted(vertices):
            raise QuiverError("vertices must be sorted lexicographically")
        try:
            rows = [tuple(row) for row in matrix]
        except TypeError:
            rows = None
        if rows is None or len(rows) != n or any(len(row) != n for row in rows):
            raise QuiverError("matrix shape does not match vertex count")
        rows = [[_matrix_entry(x) for x in row] for row in rows]
        if any(row[i] for i, row in enumerate(rows)):
            raise LoopArrowError("nonzero diagonal entry")
        if any(a != -b for row, col in zip(rows, zip(*rows)) for a, b in zip(row, col)):
            raise QuiverError("matrix is not skew-symmetric")
        arrows = [(i, j, b) for i, row in enumerate(rows) for j, b in enumerate(row) if b > 0]
        index = {v: i for i, v in enumerate(vertices)}
        vars(self).update(vertices=vertices, _arrows=tuple(arrows), _index=index)

    @classmethod
    def _trusted(
        cls, vertices: tuple[Label, ...], arrows: Iterable[Arrow], index: dict[Label, int]
    ) -> "Quiver":
        """A quiver from parts known to be valid; takes ``arrows``, sorted
        (source, target, multiplicity) index triples, over unchecked."""
        q = object.__new__(cls)
        vars(q).update(vertices=vertices, _arrows=tuple(arrows), _index=index)
        return q

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Quiver):
            return NotImplemented
        return self.vertices == other.vertices and self._arrows == other._arrows

    def __hash__(self) -> int:
        return hash((self.vertices, self._arrows))

    def __repr__(self) -> str:
        return f"Quiver({len(self.vertices)} vertices, {len(self._arrows)} arrows)"

    @cached_property
    def matrix(self) -> tuple[tuple[int, ...], ...]:
        """The skew-symmetric exchange matrix as a tuple of rows, built on first use."""
        n = len(self.vertices)
        b = [[0] * n for _ in range(n)]
        for i, j, m in self._arrows:
            b[i][j], b[j][i] = m, -m
        return tuple(map(tuple, b))

    def max_multiplicity(self) -> int:
        """The largest arrow multiplicity, 0 when there are no arrows."""
        return self._max_multiplicity

    @cached_property
    def _max_multiplicity(self) -> int:
        return max((m for _, _, m in self._arrows), default=0)

    def index(self, v: Label) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {v!r}") from None

    def has_vertex(self, v: Label) -> bool:
        return v in self._index

    def b(self, u: Label, v: Label) -> int:
        """The exchange-matrix entry: arrows u -> v minus arrows v -> u."""
        i, j, weight = self.index(u), self.index(v), self._adjacency.weight
        return weight.get((i, j), 0) - weight.get((j, i), 0)

    @cached_property
    def _adjacency(self) -> _Adjacency:
        """The neighbour indices of each vertex and the arrow weights.

        One pass over the arrows, on first use.  The arrows never change,
        so the lists never go stale; callers must not change them.
        """
        n = len(self.vertices)
        outs: list[list[int]] = [[] for _ in range(n)]
        ins: list[list[int]] = [[] for _ in range(n)]
        for i, j, _ in self._arrows:  # sorted, so every list ascends
            outs[i].append(j)
            ins[j].append(i)
        weight = {(i, j): m for i, j, m in self._arrows}
        return _Adjacency(outs, ins, [sorted(o + i) for o, i in zip(outs, ins)], weight)

    @cached_property
    def _blocks(self) -> dict[tuple[Label, ...], tuple[Label, ...] | None]:
        """The block census: each biconnected block of the underlying graph,
        mapped to its oriented cycle or None, sorted by (size, vertices).

        Each block is a sorted vertex tuple; an isolated vertex is in no block.
        One iterative depth-first search (Hopcroft–Tarjan) keeps each vertex's
        discovery time and low point.  When a child's subtree reaches no higher
        than its parent, the vertices stacked since the child and the parent
        form a block.  Each block of three or more vertices is then walked
        once by :meth:`_cycle_on`.  Computed on first use, like the adjacency
        it reads; callers must not change it.
        """
        adjacency = self._adjacency.nbrs
        disc = [-1] * len(adjacency)
        low = [0] * len(adjacency)
        clock = 0
        found = []
        for root in range(len(adjacency)):
            if disc[root] >= 0:
                continue
            disc[root] = low[root] = clock
            clock += 1
            stack = [root]
            work = [(root, iter(adjacency[root]))]
            while work:
                v, rest = work[-1]
                for w in rest:
                    if disc[w] < 0:
                        disc[w] = low[w] = clock
                        clock += 1
                        stack.append(w)
                        work.append((w, iter(adjacency[w])))
                        break
                    if disc[w] < low[v]:
                        low[v] = disc[w]
                else:
                    work.pop()
                    if not work:
                        continue
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                    if low[v] >= disc[parent]:
                        block = [parent]
                        while block[-1] != v:
                            block.append(stack.pop())
                        found.append(sorted(block))
        # vertices are sorted, so index order is label order
        found.sort(key=lambda b: (len(b), b))
        names = self.vertices
        return {
            tuple(names[i] for i in block): self._cycle_on(set(block))
            for block in found
        }

    def _cycle_on(self, inside: set[int]) -> tuple[Label, ...] | None:
        """The induced subquiver on the vertex indices ``inside`` as one
        oriented cycle, listed in arrow direction from its smallest label;
        None when there are fewer than three vertices, a chord, a reversed
        arrow or more than one cycle.

        Each vertex needs exactly one out-neighbour inside.  Then the
        induced arrows are as many as the vertices, so they form one cycle
        exactly when the walk from the smallest vertex first returns to it
        after visiting them all.
        """
        if len(inside) < 3:
            return None
        outs = self._adjacency.outs
        succ = {}
        for v in inside:
            nxt = [w for w in outs[v] if w in inside]
            if len(nxt) != 1:
                return None
            succ[v] = nxt[0]
        start = v = min(inside)
        cycle = [start]
        for _ in range(len(inside) - 1):
            v = succ[v]
            if v == start:
                return None
            cycle.append(v)
        if succ[v] != start:
            return None
        names = self.vertices
        return tuple(names[i] for i in cycle)

    def _labels(self, indices: list[int]) -> list[Label]:
        return [self.vertices[j] for j in indices]

    def arrows(self) -> list[tuple[Label, Label, int]]:
        """All arrows as (source, target, multiplicity), sorted."""
        names = self.vertices
        return [(names[i], names[j], m) for i, j, m in self._arrows]

    def out_neighbors(self, v: Label) -> list[Label]:
        return self._labels(self._adjacency.outs[self.index(v)])

    def in_neighbors(self, v: Label) -> list[Label]:
        return self._labels(self._adjacency.ins[self.index(v)])

    def neighbors(self, v: Label) -> list[Label]:
        return self._labels(self._adjacency.nbrs[self.index(v)])

    def is_connected(self) -> bool:
        return self._connected

    @cached_property
    def _connected(self) -> bool:
        n = len(self.vertices)
        if not n:
            return True
        adjacent = self._adjacency.nbrs
        seen = [False] * n
        seen[0] = True
        stack = [0]
        while stack:
            for j in adjacent[stack.pop()]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        return all(seen)


@dataclass(frozen=True, eq=False)
class IceQuiver:
    """A quiver together with a frozen vertex subset.

    Frozen vertices carry no arrows among themselves and are never mutated.
    The mutable set must be non-empty.
    """

    quiver: Quiver
    frozen: frozenset[Label]

    def __post_init__(self):
        object.__setattr__(self, "frozen", frozenset(self.frozen))
        for f in self.frozen:
            if not self.quiver.has_vertex(f):
                raise UnknownVertexError(f"frozen vertex {f!r} not in quiver")
        idx = {self.quiver.index(f) for f in self.frozen}
        if any(i in idx and j in idx for i, j, _ in self.quiver._arrows):
            raise QuiverError("arrows between frozen vertices")
        if len(self.frozen) == len(self.quiver.vertices):
            raise QuiverError(_NO_MUTABLE)

    @classmethod
    def _trusted(cls, quiver: Quiver, frozen: frozenset[Label]) -> "IceQuiver":
        """An ice quiver from parts known to be valid, unchecked."""
        iq = object.__new__(cls)
        object.__setattr__(iq, "quiver", quiver)
        object.__setattr__(iq, "frozen", frozen)
        return iq

    @property
    def mutable(self) -> tuple[Label, ...]:
        return tuple(v for v in self.quiver.vertices if v not in self.frozen)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IceQuiver):
            return NotImplemented
        return self.quiver == other.quiver and self.frozen == other.frozen

    def __hash__(self) -> int:
        return hash((self.quiver, self.frozen))

    def __repr__(self) -> str:
        return (
            f"IceQuiver({len(self.mutable)} mutable, {len(self.frozen)} frozen)"
        )


# the largest multiplicity a quiver may carry; make_quiver says why
_INT64_MAX = 2**63 - 1


def _matrix_entry(x: object) -> int:
    """An entry given to the checked constructor, as a Python int."""
    try:
        value = operator.index(x)
    except TypeError:
        value = None
    if value is None or isinstance(x, bool):
        raise QuiverError(f"matrix entry is not an integer: {x!r}")
    if abs(value) > _INT64_MAX:
        raise QuiverError(f"matrix entry exceeds the int64 range: {value}")
    return value


def make_quiver(
    vertices: Iterable[Label],
    arrows: Iterable[tuple] = (),
) -> Quiver:
    """Build a quiver from vertex labels and (source, target[, multiplicity]) arrows.

    Rejects loops, duplicate vertices, unknown endpoints, pairs of arrows
    in both directions (2-cycles) and a total multiplicity beyond int64:
    the quiver keeps exact ints, but its exchange matrix is to fit a
    fixed-width int64 array, and the checked :class:`Quiver` constructor,
    which reads such arrays, takes the same bound, so both constructors
    accept the same quivers.
    """
    labels = [str(v) for v in vertices]
    if len(set(labels)) != len(labels):
        raise DuplicateVertexError("duplicate vertex labels")
    order = tuple(sorted(labels))
    index = {v: i for i, v in enumerate(order)}
    # running totals in Python ints, so a sum beyond int64 raises, never wraps
    totals: dict[tuple[int, int], int] = {}
    for arrow in arrows:
        if len(arrow) == 2:
            u, v, mult = str(arrow[0]), str(arrow[1]), 1
        else:
            u, v, mult = str(arrow[0]), str(arrow[1]), int(arrow[2])
        if mult < 1:
            raise QuiverError(f"arrow multiplicity must be >= 1, got {mult}")
        if u == v:
            raise LoopArrowError(f"loop arrow at {u!r}")
        if u not in index or v not in index:
            raise UnknownEndpointError(f"arrow endpoint not a vertex: {u!r}->{v!r}")
        i, j = index[u], index[v]
        if (j, i) in totals:
            raise TwoCycleError(f"arrows in both directions between {u!r} and {v!r}")
        total = totals.get((i, j), 0) + mult
        if total > _INT64_MAX:
            raise QuiverError(
                f"multiplicity of {u!r}->{v!r} exceeds the int64 range: {total}"
            )
        totals[i, j] = total
    arrows = sorted((i, j, m) for (i, j), m in totals.items())
    return Quiver._trusted(order, arrows, index)


def frame(q: Quiver) -> IceQuiver:
    """Add one frozen copy v' per vertex with an arrow v -> v'."""
    return _assemble(q.vertices, *_framed_rows(q, 1))


def coframe(q: Quiver) -> IceQuiver:
    """Add one frozen copy v' per vertex with an arrow v' -> v."""
    return _assemble(q.vertices, *_framed_rows(q, -1))


Rows = list[dict[int, int]]


def _framed_rows(q: Quiver, sign: int = 1) -> tuple[list[Label], Rows]:
    """The frozen labels v' in vertex order and [B | sign * I] of the framing.

    Raises as :func:`frame` does when some v' is already a vertex label or
    the quiver has no vertices.
    """
    frozen = [v + "'" for v in q.vertices]
    for f in frozen:
        if q.has_vertex(f):
            raise DuplicateVertexError(f"frozen label {f!r} collides with a vertex")
    if not frozen:
        raise QuiverError(_NO_MUTABLE)
    n = len(q.vertices)
    rows = _rows(q, range(n), n)
    for i, row in enumerate(rows):
        row[n + i] = sign
    return frozen, rows


def _rows(q: Quiver, col: Sequence[int], n: int) -> Rows:
    """The first ``n`` rows of the exchange matrix of ``q`` with vertex i
    moved to column ``col[i]``: one dict per row, mapping a column to its
    nonzero entry.  Row r is the vertex in column r."""
    rows: Rows = [{} for _ in range(n)]
    for i, j, m in q._arrows:
        a, b = col[i], col[j]
        if a < n:
            rows[a][b] = m
        if b < n:
            rows[b][a] = -m
    return rows


def _rows_of(iq: IceQuiver) -> tuple[tuple[Label, ...], list[Label], Rows]:
    """The mutable labels, the frozen labels and the rows of [B | C] of ``iq``."""
    mutable, frozen = iq.mutable, sorted(iq.frozen)
    col = {v: c for c, v in enumerate((*mutable, *frozen))}
    rows = _rows(iq.quiver, [col[v] for v in iq.quiver.vertices], len(mutable))
    return mutable, frozen, rows


def _assemble(mutable: Sequence[Label], frozen: Sequence[Label], rows: Rows) -> IceQuiver:
    """The ice quiver whose [B | C] is ``rows``, in ``mutable`` order, with C
    columns in ``frozen`` order.

    Frozen rows are minus the transpose of C, so C gives every arrow at a
    frozen vertex; the frozen-frozen block is zero.
    """
    order = tuple(sorted((*mutable, *frozen)))
    index = {v: i for i, v in enumerate(order)}
    at, n = [index[v] for v in (*mutable, *frozen)], len(rows)
    arrows = []
    for i, row in enumerate(rows):
        for j, b in row.items():
            if b > 0:
                arrows.append((at[i], at[j], b))
            elif j >= n:  # an arrow from a frozen vertex; B's are in their source row
                arrows.append((at[j], at[i], -b))
    quiver = Quiver._trusted(order, sorted(arrows), index)
    return IceQuiver._trusted(quiver, frozenset(frozen))


# multiplicities can grow doubly exponentially under mutation; refusing
# beyond this bound keeps the work of a step small, and keeps every entry
# one more step can make below 2^31 + 2^62, within the int64 bound of the
# quiver constructors, so every state the kernel makes is a quiver that
# ``make_quiver`` accepts back
MAX_SAFE_ENTRY = 2**31
_UNSAFE = "arrow multiplicities exceed the safe mutation range"


def _mutate_rows(rows: Rows, k: int) -> tuple[bool, bool]:
    """Mutate [B | C] in place at the vertex of row ``k``.

    Row k and column k change sign; column k is read from row k, since
    b_ik = -b_ki.  Of the other rows only those of k's neighbours change:
    b_ij gains |b_ik| * b_kj where b_kj has the sign of b_ik.  That is the
    rule b_ij + sign(b_ik) * max(b_ik * b_kj, 0), in O(deg(k) * nnz(row k))
    work, written into row k and the rows of k's neighbours.  Returns
    whether row k was green before the step, as :func:`_row_color` says,
    read off the C part of the split of row k by sign; and whether a changed
    entry has reached MAX_SAFE_ENTRY, so that another step could overflow.
    """
    row, n = rows[k], len(rows)
    pos, neg = [], []
    for j, b_kj in row.items():  # split row k by sign and negate it
        (pos if b_kj > 0 else neg).append((j, b_kj))
        row[j] = -b_kj
    was_pos = was_neg = unsafe = False
    for i, b_ik in row.items():  # column i of row k now holds b_ik
        if i >= n:  # a C entry: b_ki = -b_ik before the step
            was_pos, was_neg = was_pos or b_ik < 0, was_neg or b_ik > 0
            continue
        row_i = rows[i]
        row_i[k] = -b_ik
        a, part = (b_ik, pos) if b_ik > 0 else (-b_ik, neg)
        for j, b_kj in part:
            b_ij = row_i.get(j, 0) + a * b_kj
            if b_ij:
                row_i[j] = b_ij
                if not -MAX_SAFE_ENTRY < b_ij < MAX_SAFE_ENTRY:
                    unsafe = True
            else:
                del row_i[j]
    return was_pos and not was_neg, unsafe


def _unsafe(rows: Rows) -> bool:
    """Whether some entry of [B | C] has reached MAX_SAFE_ENTRY."""
    return any(abs(b) >= MAX_SAFE_ENTRY for row in rows for b in row.values())


def _row_color(row: dict[int, int], n: int) -> Color | None:
    """Colour of a row from its entries in columns n and up (its C part):
    GREEN when none is negative and one is positive, RED for the mirror
    case, None when they are all zero or of mixed sign."""
    pos = neg = False
    for j, b in row.items():
        if j >= n:
            if b > 0:
                pos = True
            elif b < 0:
                neg = True
    if pos == neg:
        return None
    return Color.GREEN if pos else Color.RED


def mutate(iq: IceQuiver, k: Label) -> IceQuiver:
    """Fomin-Zelevinsky mutation at a mutable vertex, in matrix form.

    b'[u][v] = -b[u][v] when u = k or v = k, and otherwise
    b[u][v] + sign(b[u][k]) * max(b[u][k] * b[k][v], 0); entries between two
    frozen vertices stay zero.  Mutation is an involution.  The kernel runs
    on [B | C], and the arrows are read back off it.
    """
    iq.quiver.index(k)
    if k in iq.frozen:
        raise FrozenVertexMutationError(f"cannot mutate frozen vertex {k!r}")
    mutable, frozen, rows = _rows_of(iq)
    if _unsafe(rows):
        raise QuiverError(_UNSAFE)
    _mutate_rows(rows, mutable.index(k))
    return _assemble(mutable, frozen, rows)


def color(iq: IceQuiver, v: Label) -> Color:
    """Classify a mutable vertex by the signs of its arrows to frozen vertices.

    Green: every frozen entry >= 0 (no arrows from frozen into v).
    Red: every frozen entry <= 0 with at least one arrow.  A mixed-sign row
    raises NotSignCoherentError (impossible along green sequences from a
    framed quiver); an all-zero row raises ZeroRowError.
    """
    if v in iq.frozen:
        raise QuiverError(f"color is defined for mutable vertices only: {v!r}")
    q = iq.quiver
    row = [q.b(v, f) for f in q.neighbors(v) if f in iq.frozen]
    c = _row_color(dict(enumerate(row)), 0)
    if c is None and not any(row):
        raise ZeroRowError(f"vertex {v!r} has no arrows to frozen vertices")
    if c is None:
        raise NotSignCoherentError(f"vertex {v!r} has mixed frozen arrow signs")
    return c


def colors(iq: IceQuiver) -> dict[Label, Color]:
    return {v: color(iq, v) for v in iq.mutable}


@dataclass(frozen=True)
class MutationSequence:
    """Ordered list of vertices to mutate; index 0 is executed first.

    Stored in execution order.  Use ``from_composition`` for sequences
    written as function composition (rightmost factor applied first).
    Two consecutive equal steps are rejected.
    """

    steps: tuple[Label, ...]

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(str(s) for s in self.steps))
        _check_no_repeat(self.steps)

    @classmethod
    def _trusted(cls, steps: tuple[Label, ...]) -> "MutationSequence":
        """A sequence of steps known to be str labels; only the repeat check runs."""
        _check_no_repeat(steps)
        return cls._unchecked(steps)

    @classmethod
    def _unchecked(cls, steps: tuple[Label, ...]) -> "MutationSequence":
        """A sequence of str steps that the caller knows has no consecutive repeat."""
        seq = object.__new__(cls)
        object.__setattr__(seq, "steps", steps)
        return seq

    @classmethod
    def from_execution(cls, steps: Iterable[Label]) -> "MutationSequence":
        return cls(tuple(steps))

    @classmethod
    def from_composition(cls, steps: Iterable[Label]) -> "MutationSequence":
        return cls(tuple(reversed(tuple(steps))))

    def to_composition(self) -> tuple[Label, ...]:
        return tuple(reversed(self.steps))

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[Label]:
        return iter(self.steps)

    def __add__(self, other: "MutationSequence") -> "MutationSequence":
        return MutationSequence._trusted(self.steps + other.steps)


def _check_no_repeat(steps: tuple[Label, ...]) -> None:
    if any(map(operator.eq, steps, islice(steps, 1, None))):
        a = next(a for a, b in zip(steps, steps[1:]) if a == b)
        raise ConsecutiveRepeatError(f"consecutive repeat at {a!r}")


Steps = Union[MutationSequence, Sequence[Label]]


def as_sequence(steps: Steps) -> MutationSequence:
    if isinstance(steps, MutationSequence):
        return steps
    return MutationSequence(tuple(steps))


def _replay(
    rows: Rows,
    mutable: Sequence[Label],
    frozen: Iterable[Label],
    seq: MutationSequence,
    require_green: bool,
) -> Iterator[tuple[int, Label, int]]:
    """Run ``seq`` through the kernel on the rows of [B | C], one step at a time.

    ``mutable`` labels the rows and ``frozen`` is the frozen label set.
    Yields (step index, vertex, row) before each mutation, so a caller can
    read the state the step starts from.  With ``require_green`` the run
    halts with NotGreenAtStepError after the first step whose vertex the
    kernel reports not green.  A frozen or unknown vertex and an unsafe
    state raise at their step, a vertex not green ahead of an unsafe state.
    """
    index = {v: i for i, v in enumerate(mutable)}
    frozen = frozenset(frozen)
    unsafe = _unsafe(rows)
    for idx, v in enumerate(seq):
        if v in frozen:
            raise FrozenVertexMutationError(f"step {idx} mutates frozen vertex {v!r}")
        k = index.get(v)
        if k is None:
            raise UnknownVertexError(f"unknown vertex {v!r}")
        yield idx, v, k
        if unsafe:
            if require_green and _row_color(rows[k], len(rows)) is not Color.GREEN:
                raise NotGreenAtStepError(idx, v)
            raise QuiverError(_UNSAFE)
        green, unsafe = _mutate_rows(rows, k)
        if require_green and not green:
            raise NotGreenAtStepError(idx, v)


def final_state(iq: IceQuiver, seq: Steps) -> IceQuiver:
    """The state after mutating ``iq`` at each step of ``seq`` in turn.

    Equals one :func:`mutate` call per step, but runs the kernel on [B | C]
    directly and keeps no intermediate state.
    """
    mutable, frozen, rows = _rows_of(iq)
    for _ in _replay(rows, mutable, frozen, as_sequence(seq), require_green=False):
        pass
    return _assemble(mutable, frozen, rows)


@dataclass(frozen=True)
class Verdict:
    """Boolean verdict with the first violation, if any."""

    ok: bool
    reason: str | None = None
    step_index: int | None = None
    vertex: Label | None = None

    def __bool__(self) -> bool:
        return self.ok


# the one reason a green sequence fails to be maximal
STILL_GREEN = "vertex still green"


def _green_run(q: Quiver, seq: Steps) -> tuple[Verdict, Rows | None]:
    """Stream ``seq`` from the framed quiver, checking that every step is green.

    Returns the verdict and, when it holds, the rows of the final [B | C].
    """
    try:
        sequence = as_sequence(seq)
    except ConsecutiveRepeatError as err:
        return Verdict(False, f"malformed sequence: {err}"), None
    try:
        frozen, rows = _framed_rows(q)
        for _ in _replay(rows, q.vertices, frozen, sequence, require_green=True):
            pass
    except NotGreenAtStepError as err:
        return Verdict(False, "vertex not green", err.index, err.vertex), None
    except QuiverError as err:
        return Verdict(False, str(err)), None
    return Verdict(True), rows


def is_green_sequence(q: Quiver, seq: Steps) -> Verdict:
    """True iff the sequence mutates only green vertices, starting framed."""
    return _green_run(q, seq)[0]


def is_maximal_green_sequence(q: Quiver, seq: Steps) -> Verdict:
    """True iff green sequence and every mutable vertex is red afterwards."""
    verdict, rows = _green_run(q, seq)
    if not verdict:
        return verdict
    n = len(rows)
    for i, row in enumerate(rows):
        if _row_color(row, n) is not Color.RED:
            return Verdict(False, STILL_GREEN, None, q.vertices[i])
    return Verdict(True)


def full_subquiver(q: Union[Quiver, IceQuiver], keep: Iterable[Label]):
    """Induced subquiver on a vertex subset.

    For an ice quiver the frozen set is intersected with ``keep``.
    """
    kept = sorted({str(v) for v in keep})
    if isinstance(q, IceQuiver):
        return IceQuiver(full_subquiver(q.quiver, kept), q.frozen & set(kept))
    new = {q.index(v): i for i, v in enumerate(kept)}  # ascending, so arrows stay sorted
    arrows = [(new[i], new[j], m) for i, j, m in q._arrows if i in new and j in new]
    return Quiver._trusted(tuple(kept), arrows, {v: i for i, v in enumerate(kept)})


def restrict_sequence(seq: Steps, keep: Iterable[Label]) -> MutationSequence:
    """Subsequence of steps whose vertex lies in ``keep``.

    Raises ConsecutiveRepeatAfterRestrictionError when deleting the other
    vertices leaves two equal steps adjacent.
    """
    kept = {str(v) for v in keep}
    steps = tuple(v for v in as_sequence(seq) if v in kept)
    try:
        return MutationSequence(steps)
    except ConsecutiveRepeatError as err:
        raise ConsecutiveRepeatAfterRestrictionError(str(err)) from None
