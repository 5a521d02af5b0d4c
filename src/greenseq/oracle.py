"""Ground truth by exhaustive search over green mutation sequences.

Starting from the framed quiver, the search branches only on currently green
vertices.  Green moves never revisit a state, so the green states form a
directed acyclic graph, finite whenever the reachable state space is;
explicit budgets guard the infinite cases and overrunning them is always an
error, never a silent truncation, because these answers are used as ground
truth elsewhere.

Counts and minimal lengths come from one dynamic programme over that graph:
the number of maximal green sequences from a state is the sum over its green
children, so each state is solved once.  Path enumeration, which costs one
mutation per green sequence, is kept for listing the sequences themselves
and as the independent cross-check of the counts in the tests.  Both walk
on an explicit stack, so an infinite green path ends at the budget, never
in ``RecursionError``.

A state is the extended exchange matrix [B | C] in the sparse form of
:mod:`greenseq.quiver`, one dict of nonzero entries per mutable vertex,
together with the overflow flag the shared kernel returned when it made the
state.  The kernel writes in place, and the engines use it by one rule.
The depth-first engines, :func:`_walk` (enumeration and the iterative
deepening) and :func:`_count_dp`, step one copy in place and undo: they
keep only the state at the end of their path, in one copy of the start
rows, step forward by mutating it, and back by mutating it again at the
same row, since mutation is an involution.  Only the breadth-first search,
which holds whole levels of states, copies on write: a child it keeps gets
copies of the rows the kernel writes and shares the others with its parent
(:func:`_child`).  One pass over the C entries of a state gives its green
and its red rows.

The memo of the dynamic programme and the visited sets of the breadth-first
search key a state by its c-vectors alone, sorted (:meth:`_Search.key`), so
they solve each cluster once, not once per labelling of its seed; counts
and minimal lengths do not depend on the labels.  Those two engines carry
each open state's c-vectors as a list of int tuples and key a child before
they make it: the kernel's rule on the C columns gives the child's
c-vectors from the parent's and row k (:func:`_step_cvectors`), and the
kernel runs only for a child whose key is new.  A child that is made shares
the tuples of its unchanged c-vectors with its parent and with its key.

Minimal lengths come from a breadth-first search run from both ends:
forward from the framed quiver by green moves, and backward by red moves
from the coframed quiver [B | -I], where every maximal green sequence ends
up to relabelling (Brüstle-Dupont-Pérotin).  A red move read backwards is a
green one, so a state both sides reach splits a maximal green sequence.

The node budget counts the children every engine considers, made or only
keyed (:meth:`_Search.spend`), on both sides of the breadth-first search;
a step back along a depth-first path is not counted.  A child of a state
flagged unsafe is refused with the same error whether or not it would be
made.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .quiver import (
    Color,
    MutationSequence,
    Quiver,
    QuiverError,
    Rows,
    _framed_rows,
    _mutate_rows,
    _row_color,
    _unsafe,
)

DEFAULT_NODE_CAP = 500_000
DEFAULT_MUTABLE_CAP = 8


class BudgetExceededError(QuiverError):
    pass


# the rows of [B | C] and whether an entry has reached the safe bound
State = tuple[Rows, bool]
# the c-vectors of a state in row order, and sorted as its key
CVectors = list[tuple[int, ...]]
Key = tuple[tuple[int, ...], ...]


def _child(rows: Rows, k: int) -> State:
    """The child at row ``k``, made by the kernel on a copy of the list of
    rows, row k and k's neighbour rows; ``rows`` is left unchanged."""
    child = rows.copy()
    n = len(rows)
    for i in (k, *rows[k]):
        if i < n:
            child[i] = rows[i].copy()
    return child, _mutate_rows(child, k)[1]


def _step_cvectors(cs: CVectors, row: dict[int, int], k: int) -> CVectors:
    """The c-vectors after a mutation at a green or a red row ``k``, from
    the c-vectors ``cs`` and row k of [B | C] before it, without running
    the kernel.

    This is the kernel's rule on the C columns: c_k turns to -c_k, and a
    neighbour row i gains sign(b_ik) * max(b_ik * c_kj, 0) in column j.
    At a green row c_k >= 0, so with b_ik = -b_ki only the rows with
    b_ik > 0 change, by b_ik * c_k; at a red row c_k <= 0, and only the
    rows with b_ik < 0 change, by |b_ik| * c_k.  Every other row keeps
    the tuple of ``cs``.
    """
    n = len(cs)
    ck = cs[k]
    child = cs.copy()
    child[k] = tuple([-c for c in ck])
    if max(ck) > 0:
        for i, b_ki in row.items():
            if b_ki < 0 and i < n:
                child[i] = tuple([x - b_ki * y for x, y in zip(cs[i], ck)])
    else:
        for i, b_ki in row.items():
            if b_ki > 0 and i < n:
                child[i] = tuple([x + b_ki * y for x, y in zip(cs[i], ck)])
    return child


class _Search:
    """Matrix-level search state shared by the engines."""

    def __init__(self, q: Quiver, max_len: int | None, node_cap: int, mutable_cap: int):
        limits = {"max_len": max_len, "node_cap": node_cap, "mutable_cap": mutable_cap}
        for name, value in limits.items():
            if value is not None and value < 0:
                raise QuiverError(f"{name} must not be negative, got {value}")
        if len(q.vertices) > mutable_cap:
            raise BudgetExceededError(
                f"{len(q.vertices)} mutable vertices exceeds cap {mutable_cap}"
            )
        rows = _framed_rows(q)[1]
        self.start: State = (rows, _unsafe(rows))
        # the coframed end [B | -I], where every MGS stops up to relabelling
        rows = _framed_rows(q, -1)[1]
        self.end: State = (rows, _unsafe(rows))
        self._labels = q.vertices
        self.max_len = max_len
        self.node_cap = node_cap
        self.nodes = 0

    def spend(self, unsafe: bool) -> None:
        """Count one child of a state against the node budget, and refuse
        it when the state is flagged unsafe."""
        self.nodes += 1
        if self.nodes > self.node_cap:
            raise BudgetExceededError(f"search exceeded {self.node_cap} nodes")
        if unsafe:
            # overflow must surface as an error, never as a wrong answer
            raise BudgetExceededError(
                "arrow multiplicities exceed the safe search range"
            )

    def colors(self, state: State) -> tuple[list[int], list[int]]:
        """The green rows and the red rows, each in ascending order."""
        rows = state[0]
        n = len(rows)
        green, red = [], []
        for k, row in enumerate(rows):
            c = _row_color(row, n)
            if c is Color.GREEN:
                green.append(k)
            elif c is Color.RED:
                red.append(k)
        return green, red

    @staticmethod
    def cvectors(state: State) -> CVectors:
        """The c-vectors of a state: row i of C as a tuple, in row order."""
        rows = state[0]
        n = len(rows)
        cs = []
        for row in rows:
            c = [0] * n
            for j, b in row.items():
                if j >= n:
                    c[j - n] = b
            cs.append(tuple(c))
        return cs

    @classmethod
    def key(cls, state: State) -> Key:
        """The c-vectors (rows of C) of a state, sorted.

        C fixes B = C B0 C^T along green runs (Nakanishi-Zelevinsky tropical
        duality), and along red runs from the end, which are minus green
        runs of the opposite quiver; C has distinct rows, so two states
        share a key exactly when one relabels the other: C2 = P C1 and
        B2 = P B1 P^T for a permutation matrix P.
        """
        return tuple(sorted(cls.cvectors(state)))

    def steps(self, path: list[int]) -> list[str]:
        return [self._labels[k] for k in path]


def _walk(search: _Search, max_len: int | None) -> Iterator[tuple[list[int], bool]]:
    """Depth-first pre-order over the green tree, on an explicit stack, with
    no green move taken from a state ``max_len`` steps deep (None: no bound).

    Yields the path of row indices to each state, and whether that state is
    all red.  The path is one list, changed by the next step, so a caller
    copies what it keeps.  Each frame makes its next child only when the
    previous child's subtree is exhausted, so mutations happen, and the
    budget is spent, in the order of the yields; a caller that stops at a
    yield spends nothing past it.  Enumeration walks under the search's
    ``max_len``, and the iterative deepening of :func:`_min_iddfs` once
    under each bound up to it.

    Only the state at the end of the path is kept, in one copy of the start
    rows.  A step forward mutates it in place, and a step back mutates it
    again at the path's last vertex, which restores the parent exactly,
    since mutation is an involution; so a deep path costs one overflow flag
    and one iterator per state, not one state.
    """
    path: list[int] = []
    rows = [row.copy() for row in search.start[0]]
    unsafe = search.start[1]
    stack: list[tuple[bool, Iterator[int]]] = []
    while True:
        green, red = search.colors((rows, unsafe))
        if max_len is not None and len(path) >= max_len:
            green = []
        yield path, len(red) == len(rows)
        stack.append((unsafe, iter(green)))
        while (k := next(stack[-1][1], None)) is None:
            stack.pop()
            if not stack:  # the root frame has no step on the path
                return
            _mutate_rows(rows, path.pop())
        search.spend(stack[-1][0])
        unsafe = _mutate_rows(rows, k)[1]
        path.append(k)


@dataclass(slots=True)
class _Frame:
    """One state of the DP walk and the answer folded in from its children.

    A frame keeps the state's memo key (its sorted c-vectors and the steps
    left), its c-vectors in row order, its overflow flag and the move that
    made it, but not its rows.  The key and the c-vectors hold the same
    tuples, and a c-vector the move did not change is the parent's tuple,
    so a deep stack on an infinite green path costs about two lists of n
    references and the changed tuples per state.
    """

    key: tuple[Key, int | None]
    cs: CVectors
    unsafe: bool
    move: int | None
    pending: Iterator[int]
    count: int
    best: int | None


def _count_dp(search: _Search) -> tuple[int, int | None]:
    """(number of MGS, length of a shortest one or None) from the start state.

    Post-order over the green state DAG on an explicit stack.  A state with
    no green move left is worth (1, 0) when every row is red and (0, None)
    otherwise; any other state sums its children's counts and takes one more
    than their least length.  The memo key holds the steps left under
    ``max_len`` (None without a bound), because one state can be reached at
    different depths; relabelled states share it.  Every child, memo hit or
    not, is counted by ``search.spend``, so the budget and the overflow
    guard act as in enumeration, but the kernel runs only on a miss: a
    child is keyed by :func:`_step_cvectors` from its parent's c-vectors,
    so without ``max_len`` each state up to relabelling costs two kernel
    runs, one to open it and one to leave it.  Only the top frame's state
    is kept, in one copy of the start rows: a miss mutates it in place,
    and a finished frame is undone by mutating again at its move, as in
    :func:`_walk`.
    """
    memo: dict[tuple[Key, int | None], tuple[int, int | None]] = {}

    def open_frame(
        state: State, cs: CVectors, key: tuple[Key, int | None], move: int | None
    ) -> _Frame:
        green, red = search.colors(state)
        if len(red) == len(state[0]):
            return _Frame(key, cs, state[1], move, iter(()), 1, 0)
        moves = () if key[1] == 0 else green
        return _Frame(key, cs, state[1], move, iter(moves), 0, None)

    rows = [row.copy() for row in search.start[0]]
    cs = search.cvectors(search.start)
    key = (tuple(sorted(cs)), search.max_len)
    stack = [open_frame((rows, search.start[1]), cs, key, None)]
    while True:
        top = stack[-1]
        k = next(top.pending, None)
        if k is None:
            stack.pop()
            value = memo[top.key] = (top.count, top.best)
            if not stack:
                return value
            _mutate_rows(rows, top.move)  # back to the parent's state
        else:
            search.spend(top.unsafe)
            cs = _step_cvectors(top.cs, rows[k], k)
            left = None if top.key[1] is None else top.key[1] - 1
            key = (tuple(sorted(cs)), left)
            value = memo.get(key)
            if value is None:
                unsafe = _mutate_rows(rows, k)[1]
                stack.append(open_frame((rows, unsafe), cs, key, k))
                continue
        parent = stack[-1]
        count, best = value
        parent.count += count
        if best is not None and (parent.best is None or best + 1 < parent.best):
            parent.best = best + 1


def enumerate_green_sequences(
    q: Quiver,
    max_len: int | None = None,
    node_cap: int = DEFAULT_NODE_CAP,
    mutable_cap: int = DEFAULT_MUTABLE_CAP,
) -> Iterator[tuple[MutationSequence, bool]]:
    """Depth-first stream of every green sequence, flagged when maximal.

    The empty sequence is included, and every sequence comes before its
    extensions, in the order of the green moves.  With ``max_len=None``
    enumeration runs until the green tree is exhausted (finite whenever the
    reachable state space is); the node budget caps the total number of
    mutations performed.  This lists every path, so it costs as many
    mutations as there are green sequences: use :func:`count_mgs` for counts.
    Each sequence is a copy of the path, so one at depth d costs O(d).  The
    steps are the quiver's str labels, and a green path never repeats a
    step, since the vertex just mutated turns red; so the sequences are
    built without the checks of the public constructor.
    """
    search = _Search(q, max_len, node_cap, mutable_cap)
    for path, maximal in _walk(search, search.max_len):
        yield MutationSequence._unchecked(tuple(search.steps(path))), maximal


def count_mgs(
    q: Quiver,
    max_len: int | None = None,
    node_cap: int = DEFAULT_NODE_CAP,
    mutable_cap: int = DEFAULT_MUTABLE_CAP,
) -> int:
    """Number of distinct maximal green sequences of length <= max_len.

    Computed by dynamic programming over green states, not by listing the
    sequences; the node budget counts every green child, as a mutation
    would.
    """
    return _count_dp(_Search(q, max_len, node_cap, mutable_cap))[0]


def min_mgs_length(
    q: Quiver,
    max_len: int | None = None,
    node_cap: int = DEFAULT_NODE_CAP,
    mutable_cap: int = DEFAULT_MUTABLE_CAP,
    engine: str = "bfs",
) -> int | None:
    """Length of a shortest maximal green sequence, or None when none exists.

    The default engine is a breadth-first search from both the framed and
    the coframed end, which stops where the two sides first meet and visits
    each state once per side up to relabelling; the node budget counts the
    children of both sides.  ``engine="dfs"`` runs a memoization-free
    iterative-deepening search as an independent cross-check (it requires
    ``max_len`` to conclude None).
    """
    search = _Search(q, max_len, node_cap, mutable_cap)
    if engine == "bfs":
        return _min_bfs(search)
    if engine == "dfs":
        return _min_iddfs(search)
    raise QuiverError(f"unknown engine {engine!r}")


def _min_bfs(search: _Search) -> int | None:
    """Bidirectional breadth-first search for the least green distance from
    the start to the coframed end.

    The forward side mutates green rows from ``search.start``, the backward
    side red rows from ``search.end``; each side maps the keys it has seen
    to their depths.  A step expands the smaller frontier by one whole
    level, and the search ends at the first child whose key the other side
    holds.  A frontier entry is a state with its c-vectors, and each child
    is keyed by :func:`_step_cvectors` first: the kernel runs, on a
    copy-on-write child, only for a child the side keeps.

    That meet is a shortest one: a child made at depth d + 1 that meets the
    other side below its frontier would be a state that side has expanded,
    so it has made the parent, which this side has held at depth d since
    before, and that meet would have been found first.  Under ``max_len``
    the search answers None once the two depths add up to it.

    No frontier empties before the meet, with or without ``max_len``.  A
    forward side that empties has listed every state it reaches, finitely
    many, so a green path from the start ends at a state with no green row.  By
    sign-coherence every row of that state is red, and by
    Brüstle-Dupont-Pérotin its C is -P for a permutation P, which is the
    key of the backward start: the child that made it met the other side.
    The backward side is the mirror case: a red path from the end ends all
    green, at C = P, the key of the forward start.  So the last
    ``return None`` cannot be reached; it stays as the guard that ends the
    loop, which an empty frontier would otherwise spin.
    """
    levels: list[list[tuple[State, CVectors]]] = [
        [(state, search.cvectors(state))] for state in (search.start, search.end)
    ]
    seen = tuple({tuple(sorted(level[0][1])): 0} for level in levels)
    if seen[0].keys() & seen[1].keys():
        return 0
    depths = [0, 0]
    while levels[0] and levels[1]:
        if search.max_len is not None and sum(depths) >= search.max_len:
            return None
        side = 0 if len(levels[0]) <= len(levels[1]) else 1
        mine, other = seen[side], seen[1 - side]
        depth = depths[side] + 1
        level = []
        for state, cs in levels[side]:
            rows, unsafe = state
            for k in search.colors(state)[side]:  # green forward, red backward
                search.spend(unsafe)
                child_cs = _step_cvectors(cs, rows[k], k)
                key = tuple(sorted(child_cs))
                if key in other:
                    return depth + other[key]
                if key not in mine:
                    mine[key] = depth
                    level.append((_child(rows, k), child_cs))
        levels[side], depths[side] = level, depth
    return None


def _min_iddfs(search: _Search) -> int | None:
    """Iterative deepening: the least depth within ``max_len`` at which a
    green path from the start ends all red, or None.

    Each depth is one :func:`_walk` under that bound, without a memo, which
    stops at its first all-red state; the budget is spent across all of
    them.
    """
    max_len = search.max_len
    if max_len is None:
        raise QuiverError("dfs engine needs max_len to be able to answer None")
    for depth in range(max_len + 1):
        if any(all_red for _, all_red in _walk(search, depth)):
            return depth
    return None


def oracle_report(
    q: Quiver,
    max_len: int | None = None,
    node_cap: int = DEFAULT_NODE_CAP,
    mutable_cap: int = DEFAULT_MUTABLE_CAP,
    include_sequences: bool = False,
) -> dict:
    """JSON-ready summary: minimal length, count, and optionally the sequences.

    The count and minimal length come from the same dynamic programme as
    :func:`count_mgs`; only ``include_sequences`` enumerates paths, listing
    the maximal sequences in depth-first order.  Either way the node budget
    counts the green children the engine considers.
    """
    try:
        search = _Search(q, max_len, node_cap, mutable_cap)
        if include_sequences:
            walk = _walk(search, search.max_len)
            sequences = [search.steps(path) for path, maximal in walk if maximal]
            count, best = len(sequences), min(map(len, sequences), default=None)
        else:
            count, best = _count_dp(search)
    except BudgetExceededError:
        # no partial numbers: a blown budget must never look like an answer
        return {"min_length": None, "count": None, "budget_exhausted": True}
    report: dict = {"min_length": best, "count": count, "budget_exhausted": False}
    if include_sequences:
        report["sequences"] = sequences
    return report
