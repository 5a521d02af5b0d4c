"""Quivers, ice quivers, Fomin-Zelevinsky mutation, and green-sequence checks.

A quiver is a finite directed graph without loops or 2-cycles.  It is stored
as a skew-symmetric integer matrix over a lexicographically sorted vertex
list: ``b[u][v]`` equals the number of arrows u -> v minus the number of
arrows v -> u, so between any ordered pair at most one direction carries
arrows.  An ice quiver additionally distinguishes a frozen vertex subset with
no arrows between frozen vertices.

The public values are immutable; every public operation returns a new value,
which makes them safe to share across threads or executors.

Underneath, one private kernel (:func:`_mutate_rows`) mutates an int64 array
in place.  The array has one row per mutable vertex and one column per
vertex, mutable columns first in row order: the extended exchange matrix
[B | C], whose C block holds the arrows to the frozen vertices.  For a framed
quiver C starts as the identity and its rows are the c-vectors.  The frozen
rows of the full matrix are minus the transpose of C, and the frozen-frozen
block is zero, so [B | C] is the whole state.  :func:`mutate`, the
sequence checks, :func:`final_state`, ``decomposition.check_step_shapes``
and the search oracle all run this kernel; ``graph_rule`` is the one
independent implementation, kept as a cross-check.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

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


class Policy(enum.Enum):
    UNCHECKED = "unchecked"
    REQUIRE_GREEN = "require_green"


def _freeze(matrix: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(matrix, dtype=np.int64)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Quiver:
    """Finite quiver without loops or 2-cycles, in exchange-matrix form.

    ``vertices`` is sorted lexicographically and fixes all iteration order.
    Equality is labeled equality: same vertex labels, same matrix.
    """

    vertices: tuple[Label, ...]
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _freeze(self.matrix))
        n = len(self.vertices)
        if len(set(self.vertices)) != n:
            raise DuplicateVertexError("duplicate vertex labels")
        if list(self.vertices) != sorted(self.vertices):
            raise QuiverError("vertices must be sorted lexicographically")
        if self.matrix.shape != (n, n):
            raise QuiverError("matrix shape does not match vertex count")
        if np.any(np.diagonal(self.matrix) != 0):
            raise LoopArrowError("nonzero diagonal entry")
        if np.any(self.matrix != -self.matrix.T):
            raise QuiverError("matrix is not skew-symmetric")
        object.__setattr__(
            self, "_index", {v: i for i, v in enumerate(self.vertices)}
        )

    @classmethod
    def _trusted(
        cls, vertices: tuple[Label, ...], matrix: np.ndarray, index: dict[Label, int]
    ) -> "Quiver":
        """A quiver from parts known to be valid; takes ``matrix`` over unchecked."""
        q = object.__new__(cls)
        matrix.setflags(write=False)
        object.__setattr__(q, "vertices", vertices)
        object.__setattr__(q, "matrix", matrix)
        object.__setattr__(q, "_index", index)
        return q

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Quiver):
            return NotImplemented
        return self.vertices == other.vertices and np.array_equal(
            self.matrix, other.matrix
        )

    def __hash__(self) -> int:
        return hash((self.vertices, self.matrix.tobytes()))

    def __repr__(self) -> str:
        return f"Quiver({len(self.vertices)} vertices, {len(self.arrows())} arrows)"

    def index(self, v: Label) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {v!r}") from None

    def has_vertex(self, v: Label) -> bool:
        return v in self._index

    def b(self, u: Label, v: Label) -> int:
        return int(self.matrix[self.index(u), self.index(v)])

    def arrows(self) -> list[tuple[Label, Label, int]]:
        """All arrows as (source, target, multiplicity), sorted."""
        out = []
        for i, u in enumerate(self.vertices):
            row = self.matrix[i]
            for j in np.nonzero(row > 0)[0]:
                out.append((u, self.vertices[j], int(row[j])))
        return sorted(out)

    def out_neighbors(self, v: Label) -> list[Label]:
        i = self.index(v)
        return [self.vertices[j] for j in np.nonzero(self.matrix[i] > 0)[0]]

    def in_neighbors(self, v: Label) -> list[Label]:
        i = self.index(v)
        return [self.vertices[j] for j in np.nonzero(self.matrix[i] < 0)[0]]

    def neighbors(self, v: Label) -> list[Label]:
        i = self.index(v)
        return [self.vertices[j] for j in np.nonzero(self.matrix[i] != 0)[0]]

    def is_connected(self) -> bool:
        n = len(self.vertices)
        if not n:
            return True
        adjacent: list[list[int]] = [[] for _ in range(n)]
        rows, cols = np.nonzero(self.matrix)
        for i, j in zip(rows.tolist(), cols.tolist()):
            adjacent[i].append(j)
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
        idx = [self.quiver.index(f) for f in sorted(self.frozen)]
        if idx and np.any(self.quiver.matrix[np.ix_(idx, idx)] != 0):
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


def make_quiver(
    vertices: Iterable[Label],
    arrows: Iterable[tuple] = (),
) -> Quiver:
    """Build a quiver from vertex labels and (source, target[, multiplicity]) arrows.

    Rejects loops, duplicate vertices, unknown endpoints, and pairs of
    arrows in both directions (2-cycles).
    """
    labels = [str(v) for v in vertices]
    if len(set(labels)) != len(labels):
        raise DuplicateVertexError("duplicate vertex labels")
    order = tuple(sorted(labels))
    index = {v: i for i, v in enumerate(order)}
    n = len(order)
    b = np.zeros((n, n), dtype=np.int64)
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
        if b[j, i] > 0:
            raise TwoCycleError(f"arrows in both directions between {u!r} and {v!r}")
        b[i, j] += mult
        b[j, i] -= mult
    return Quiver(order, b)


def frame(q: Quiver) -> IceQuiver:
    """Add one frozen copy v' per vertex with an arrow v -> v'."""
    return _assemble(q.vertices, *_framed_rows(q, 1))


def coframe(q: Quiver) -> IceQuiver:
    """Add one frozen copy v' per vertex with an arrow v' -> v."""
    return _assemble(q.vertices, *_framed_rows(q, -1))


def _framed_rows(q: Quiver, sign: int = 1) -> tuple[list[Label], np.ndarray]:
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
    n = len(frozen)
    m = np.zeros((n, 2 * n), dtype=np.int64)
    m[:, :n] = q.matrix
    np.fill_diagonal(m[:, n:], sign)
    return frozen, m


def _rows_of(iq: IceQuiver) -> tuple[tuple[Label, ...], list[Label], np.ndarray]:
    """The mutable labels, the frozen labels and a writable [B | C] of ``iq``."""
    q = iq.quiver
    mutable, frozen = iq.mutable, sorted(iq.frozen)
    rows = [q.index(v) for v in mutable]
    cols = rows + [q.index(f) for f in frozen]
    return mutable, frozen, q.matrix[np.ix_(rows, cols)]


def _assemble(
    mutable: Sequence[Label], frozen: Sequence[Label], m: np.ndarray
) -> IceQuiver:
    """The ice quiver whose [B | C] is ``m``, with rows in ``mutable`` order
    and C columns in ``frozen`` order.

    Frozen rows are minus the transpose of C; the frozen-frozen block is zero.
    """
    order = tuple(sorted((*mutable, *frozen)))
    index = {v: i for i, v in enumerate(order)}
    rows = [index[v] for v in mutable]
    cols = [index[f] for f in frozen]
    b = np.zeros((len(order), len(order)), dtype=np.int64)
    b[np.ix_(rows, rows + cols)] = m
    b[np.ix_(cols, rows)] = -m[:, len(rows) :].T
    return IceQuiver._trusted(Quiver._trusted(order, b, index), frozenset(frozen))


# multiplicities can grow doubly exponentially under mutation; refusing
# beyond this bound keeps every int64 intermediate product exact
MAX_SAFE_ENTRY = 2**31
_UNSAFE = "arrow multiplicities exceed the safe mutation range"


def _mutate_rows(m: np.ndarray, k: int) -> bool:
    """Mutate [B | C] in place at the vertex of row ``k``.

    Row k and column k change sign.  Of the other rows only those of k's
    neighbours change: row i gains b_ik * max(row_k, 0) when b_ik > 0 and
    loses b_ik * min(row_k, 0) when b_ik < 0.  That is the rule
    b_ij + sign(b_ik) * max(b_ik * b_kj, 0) on the mutable rows, in
    O(deg(k) * columns) work.  Returns True when a changed entry has reached
    MAX_SAFE_ENTRY, so that mutating the result again could overflow.
    """
    row, col = m[k], m[:, k]
    pos, neg = np.maximum(row, 0), np.minimum(row, 0)
    touched = col.nonzero()[0]
    for i, b_ik in zip(touched.tolist(), col[touched].tolist()):
        if b_ik > 0:
            m[i] += b_ik * pos
        else:
            m[i] -= b_ik * neg
    # not np.negative(col, out=col): NumPy 2.4 reads a strided int64 view
    # as if it were contiguous there
    col *= -1
    row *= -1
    return bool(touched.size) and bool(np.abs(m[touched]).max() >= MAX_SAFE_ENTRY)


def _row_color(c: np.ndarray) -> Color | None:
    """Colour of a C-row: GREEN when no entry is negative and one is positive,
    RED for the mirror case, None when the row is zero or of mixed sign."""
    pos, neg = c.max(initial=0) > 0, c.min(initial=0) < 0
    if pos == neg:
        return None
    return Color.GREEN if pos else Color.RED


def _green_rows(m: np.ndarray) -> np.ndarray:
    """Mask of the green rows of [B | C]."""
    c = m[:, len(m) :]
    return (c >= 0).all(axis=1) & (c > 0).any(axis=1)


def _red_rows(m: np.ndarray) -> np.ndarray:
    """Mask of the red rows of [B | C]."""
    c = m[:, len(m) :]
    return (c <= 0).all(axis=1) & (c < 0).any(axis=1)


def mutate(iq: IceQuiver, k: Label) -> IceQuiver:
    """Fomin-Zelevinsky mutation at a mutable vertex, in matrix form.

    b'[u][v] = -b[u][v] when u = k or v = k, and otherwise
    b[u][v] + sign(b[u][k]) * max(b[u][k] * b[k][v], 0); entries between two
    frozen vertices stay zero.  Mutation is an involution.  The kernel runs
    on [B | C], and the full matrix is rebuilt from it.
    """
    iq.quiver.index(k)
    if k in iq.frozen:
        raise FrozenVertexMutationError(f"cannot mutate frozen vertex {k!r}")
    mutable, frozen, m = _rows_of(iq)
    if np.abs(m).max(initial=0) >= MAX_SAFE_ENTRY:
        raise QuiverError(_UNSAFE)
    _mutate_rows(m, mutable.index(k))
    return _assemble(mutable, frozen, m)


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
    row = q.matrix[q.index(v), [q.index(f) for f in iq.frozen]]
    c = _row_color(row)
    if c is None and not row.any():
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
        for a, b in zip(self.steps, self.steps[1:]):
            if a == b:
                raise ConsecutiveRepeatError(f"consecutive repeat at {a!r}")

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
        return MutationSequence(self.steps + other.steps)


Steps = Union[MutationSequence, Sequence[Label]]


def as_sequence(steps: Steps) -> MutationSequence:
    if isinstance(steps, MutationSequence):
        return steps
    return MutationSequence(tuple(steps))


@dataclass(frozen=True)
class TraceStep:
    vertex: Label
    color_before: Color | None
    state_after: IceQuiver


@dataclass(frozen=True)
class Trace:
    initial: IceQuiver
    records: tuple[TraceStep, ...]

    @property
    def final(self) -> IceQuiver:
        return self.records[-1].state_after if self.records else self.initial

    def final_colors(self) -> dict[Label, Color]:
        return colors(self.final)


def apply_sequence(
    iq: IceQuiver, seq: Steps, policy: Policy = Policy.UNCHECKED
) -> Trace:
    """Execute a mutation sequence, recording each intermediate state.

    Under REQUIRE_GREEN the run halts with NotGreenAtStepError at the first
    step whose vertex is not currently green.
    """
    seq = as_sequence(seq)
    state = iq
    records = []
    for idx, v in enumerate(seq):
        if v in state.frozen:
            raise FrozenVertexMutationError(f"step {idx} mutates frozen vertex {v!r}")
        try:
            before: Color | None = color(state, v)
        except (NotSignCoherentError, ZeroRowError):
            before = None
        if policy is Policy.REQUIRE_GREEN and before is not Color.GREEN:
            raise NotGreenAtStepError(idx, v)
        state = mutate(state, v)
        records.append(TraceStep(v, before, state))
    return Trace(iq, tuple(records))


def _replay(
    m: np.ndarray,
    mutable: Sequence[Label],
    frozen: Iterable[Label],
    seq: MutationSequence,
    policy: Policy,
) -> Iterator[tuple[int, Label, int]]:
    """Run ``seq`` through the kernel on [B | C] in place, one step at a time.

    ``mutable`` labels the rows of ``m`` and ``frozen`` is the frozen label
    set.  Yields (step index, vertex, row) before each mutation, so a caller
    can read the state the step starts from.  Raises what
    :func:`apply_sequence` raises, at the same step; no state is kept.
    """
    rows = {v: i for i, v in enumerate(mutable)}
    frozen = frozenset(frozen)
    n = len(m)
    unsafe = bool(np.abs(m).max(initial=0) >= MAX_SAFE_ENTRY)
    for idx, v in enumerate(seq):
        if v in frozen:
            raise FrozenVertexMutationError(f"step {idx} mutates frozen vertex {v!r}")
        k = rows.get(v)
        if k is None:
            raise UnknownVertexError(f"unknown vertex {v!r}")
        if policy is Policy.REQUIRE_GREEN and _row_color(m[k, n:]) is not Color.GREEN:
            raise NotGreenAtStepError(idx, v)
        yield idx, v, k
        if unsafe:
            raise QuiverError(_UNSAFE)
        unsafe = _mutate_rows(m, k)


def final_state(iq: IceQuiver, seq: Steps) -> IceQuiver:
    """``apply_sequence(iq, seq).final``, keeping no intermediate state."""
    mutable, frozen, m = _rows_of(iq)
    for _ in _replay(m, mutable, frozen, as_sequence(seq), Policy.UNCHECKED):
        pass
    return _assemble(mutable, frozen, m)


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


def _green_run(q: Quiver, seq: Steps) -> tuple[Verdict, np.ndarray | None]:
    """Stream ``seq`` from the framed quiver, checking that every step is green.

    Returns the verdict and, when it holds, the final [B | C].
    """
    try:
        sequence = as_sequence(seq)
    except ConsecutiveRepeatError as err:
        return Verdict(False, f"malformed sequence: {err}"), None
    try:
        frozen, m = _framed_rows(q)
        for _ in _replay(m, q.vertices, frozen, sequence, Policy.REQUIRE_GREEN):
            pass
    except NotGreenAtStepError as err:
        return Verdict(False, "vertex not green", err.index, err.vertex), None
    except QuiverError as err:
        return Verdict(False, str(err)), None
    return Verdict(True), m


def is_green_sequence(q: Quiver, seq: Steps) -> Verdict:
    """True iff the sequence mutates only green vertices, starting framed."""
    return _green_run(q, seq)[0]


def is_maximal_green_sequence(q: Quiver, seq: Steps) -> Verdict:
    """True iff green sequence and every mutable vertex is red afterwards."""
    verdict, m = _green_run(q, seq)
    if not verdict:
        return verdict
    red = _red_rows(m)
    if not red.all():
        return Verdict(False, STILL_GREEN, None, q.vertices[int(np.argmin(red))])
    return Verdict(True)


def full_subquiver(q: Union[Quiver, IceQuiver], keep: Iterable[Label]):
    """Induced subquiver on a vertex subset.

    For an ice quiver the frozen set is intersected with ``keep``.
    """
    kept = sorted({str(v) for v in keep})
    if isinstance(q, IceQuiver):
        return IceQuiver(full_subquiver(q.quiver, kept), q.frozen & set(kept))
    idx = [q.index(v) for v in kept]
    return Quiver(tuple(kept), q.matrix[np.ix_(idx, idx)])


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
