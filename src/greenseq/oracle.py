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
in ``RecursionError``.  The node budget counts mutations in every engine;
a step back along a depth-first path is not counted.

A state is the extended exchange matrix [B | C] in the sparse form of
:mod:`greenseq.quiver`, one dict of nonzero entries per mutable vertex,
together with the overflow flag the shared kernel returned when it made the
state.  A move copies the list of rows and runs the kernel on the copy, so
a child is copy-on-write: it shares every row with its parent except row k
and the rows of k's neighbours.  The depth-first walks keep only the state
at the end of their path and step back by mutating it again, since
mutation is an involution.  One pass over the C entries of a state
gives both its green moves and whether every row is red.  States are
deduplicated by a flat tuple of all 2n^2 entries of [B | C], zeros
included, which is about as small as the raw bytes of a dense matrix while
the entries stay small; the breadth-first frontier keeps a state as that
tuple alone.  No isomorphism
reduction is attempted; at the default cap of eight mutable vertices none
is needed.
"""

from __future__ import annotations

from collections import deque
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


@dataclass
class _Budget:
    node_cap: int
    nodes: int = 0

    def spend(self) -> None:
        self.nodes += 1
        if self.nodes > self.node_cap:
            raise BudgetExceededError(f"search exceeded {self.node_cap} nodes")


# the rows of [B | C] and whether an entry has reached the safe bound
State = tuple[Rows, bool]


class _Search:
    """Matrix-level search state shared by the engines."""

    def __init__(self, q: Quiver, node_cap: int, mutable_cap: int):
        if len(q.vertices) > mutable_cap:
            raise BudgetExceededError(
                f"{len(q.vertices)} mutable vertices exceeds cap {mutable_cap}"
            )
        rows = _framed_rows(q)[1]
        self.start: State = (rows, _unsafe(rows))
        self._labels = q.vertices
        self.budget = _Budget(node_cap)

    def mutate(self, state: State, k: int) -> State:
        self.budget.spend()
        rows, unsafe = state
        if unsafe:
            # overflow must surface as an error, never as a wrong answer
            raise BudgetExceededError(
                "arrow multiplicities exceed the safe search range"
            )
        child = rows.copy()
        return child, _mutate_rows(child, k)

    def colors(self, state: State) -> tuple[list[int], bool]:
        """The green rows in ascending order, and whether every row is red."""
        rows = state[0]
        n = len(rows)
        green, all_red = [], True
        for k, row in enumerate(rows):
            c = _row_color(row, n)
            if c is Color.GREEN:
                green.append(k)
            if c is not Color.RED:
                all_red = False
        return green, all_red

    def key(self, state: State) -> tuple[int, ...]:
        """Every entry of the framed [B | C], n x 2n, row by row: equal
        exactly for equal states."""
        rows = state[0]
        width = 2 * len(rows)
        flat = [0] * (width * len(rows))
        for i, row in enumerate(rows):
            base = i * width
            for j, b in row.items():
                flat[base + j] = b
        return tuple(flat)

    def rows(self, key: tuple[int, ...]) -> Rows:
        """The rows of the state whose :meth:`key` is ``key``."""
        width = 2 * len(self.start[0])
        return [
            {j: b for j, b in enumerate(key[base : base + width]) if b}
            for base in range(0, len(key), width)
        ]

    def steps(self, path: list[int]) -> list[str]:
        return [self._labels[k] for k in path]


def _walk(search: _Search, max_len: int | None) -> Iterator[tuple[list[int], bool]]:
    """Depth-first pre-order over the green tree, on an explicit stack.

    Yields the path of row indices to each state, and whether that state is
    all red.  The path is one list, changed by the next step, so a caller
    copies what it keeps.  Each frame makes its next child only when the
    previous child's subtree is exhausted, so mutations happen, and the
    budget is spent, in the order of the yields.

    Only the state at the end of the path is kept.  A step back mutates it
    again at the path's last vertex, which restores the parent exactly,
    since mutation is an involution; so a deep path costs one overflow flag
    and one iterator per state, not one state.
    """
    path: list[int] = []

    def visit(state: State) -> tuple[bool, Iterator[int]]:
        green, all_red = search.colors(state)
        if max_len is not None and len(path) >= max_len:
            green = []
        return all_red, iter(green)

    rows = search.start[0]
    all_red, moves = visit(search.start)
    yield path, all_red
    stack = [(search.start[1], moves)]
    while stack:
        unsafe, pending = stack[-1]
        k = next(pending, None)
        if k is None:
            stack.pop()
            if stack:  # the root frame has no step on the path
                _mutate_rows(rows, path.pop())
            continue
        child = search.mutate((rows, unsafe), k)
        rows = child[0]
        path.append(k)
        all_red, moves = visit(child)
        yield path, all_red
        stack.append((child[1], moves))


@dataclass(slots=True)
class _Frame:
    """One state of the DP walk and the answer folded in from its children.

    A frame keeps the state's memo key (the flat tuple of its entries and
    the steps left), its overflow flag and the move that made it, but not
    its rows, so a deep stack on an infinite green path costs about one
    key per state.
    """

    key: tuple[tuple[int, ...], int | None]
    unsafe: bool
    move: int | None
    pending: Iterator[int]
    count: int
    best: int | None


def _count_dp(search: _Search, max_len: int | None) -> tuple[int, int | None]:
    """(number of MGS, length of a shortest one or None) from the start state.

    Post-order over the green state DAG on an explicit stack.  A state with
    no green move left is worth (1, 0) when every row is red and (0, None)
    otherwise; any other state sums its children's counts and takes one more
    than their least length.  The memo key holds the steps left under
    ``max_len`` (None without a bound), because one state can be reached at
    different depths.  Every child, memo hit or not, is made by
    ``search.mutate``, so the budget and the overflow guard act as in
    enumeration.  As in :func:`_walk`, only the top frame's state is kept,
    and a finished frame is undone by mutating again at its move.
    """
    memo: dict[tuple[tuple[int, ...], int | None], tuple[int, int | None]] = {}

    def open_frame(
        state: State, key: tuple[tuple[int, ...], int | None], move: int | None
    ) -> _Frame:
        green, all_red = search.colors(state)
        if all_red:
            return _Frame(key, state[1], move, iter(()), 1, 0)
        moves = () if key[1] == 0 else green
        return _Frame(key, state[1], move, iter(moves), 0, None)

    rows = search.start[0]
    stack = [open_frame(search.start, (search.key(search.start), max_len), None)]
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
            child = search.mutate((rows, top.unsafe), k)
            left = None if top.key[1] is None else top.key[1] - 1
            key = (search.key(child), left)
            value = memo.get(key)
            if value is None:
                rows = child[0]
                stack.append(open_frame(child, key, k))
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
    """
    search = _Search(q, node_cap, mutable_cap)
    for path, maximal in _walk(search, max_len):
        yield MutationSequence(search.steps(path)), maximal


def count_mgs(
    q: Quiver,
    max_len: int | None = None,
    node_cap: int = DEFAULT_NODE_CAP,
    mutable_cap: int = DEFAULT_MUTABLE_CAP,
) -> int:
    """Number of distinct maximal green sequences of length <= max_len.

    Computed by dynamic programming over green states, not by listing the
    sequences; the node budget still counts mutations.
    """
    return _count_dp(_Search(q, node_cap, mutable_cap), max_len)[0]


def min_mgs_length(
    q: Quiver,
    max_len: int | None = None,
    node_cap: int = DEFAULT_NODE_CAP,
    mutable_cap: int = DEFAULT_MUTABLE_CAP,
    engine: str = "bfs",
) -> int | None:
    """Length of a shortest maximal green sequence, or None when none exists.

    The default engine is a breadth-first search with visited-state
    memoization on the flat tuple of matrix entries; ``engine="dfs"`` runs a
    memoization-free iterative-deepening search as an independent
    cross-check (it requires ``max_len`` to conclude None).
    """
    search = _Search(q, node_cap, mutable_cap)
    if engine == "bfs":
        return _min_bfs(search, max_len)
    if engine == "dfs":
        return _min_iddfs(search, max_len)
    raise QuiverError(f"unknown engine {engine!r}")


def _min_bfs(search: _Search, max_len: int | None) -> int | None:
    """Breadth-first search for the least depth of an all-red state.

    The frontier keeps a state as its key, which ``seen`` holds anyway, and
    its overflow flag, and rebuilds the rows when the state is dequeued; a
    queued state then costs no memory beyond its key.
    """
    start = search.key(search.start)
    seen = {start}
    frontier: deque[tuple[tuple[int, ...], bool, int]] = deque(
        [(start, search.start[1], 0)]
    )
    while frontier:
        key, unsafe, depth = frontier.popleft()
        state = (search.rows(key), unsafe)
        green, all_red = search.colors(state)
        if all_red:
            return depth
        if max_len is not None and depth >= max_len:
            continue
        for k in green:
            child = search.mutate(state, k)
            key = search.key(child)
            if key not in seen:
                seen.add(key)
                frontier.append((key, child[1], depth + 1))
    return None


def _min_iddfs(search: _Search, max_len: int | None) -> int | None:
    if max_len is None:
        raise QuiverError("dfs engine needs max_len to be able to answer None")

    def bounded(state: State, depth_left: int) -> bool:
        green, all_red = search.colors(state)
        if all_red:
            return True
        if depth_left == 0:
            return False
        return any(bounded(search.mutate(state, k), depth_left - 1) for k in green)

    for depth in range(max_len + 1):
        if bounded(search.start, depth):
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
    counts mutations.
    """
    try:
        search = _Search(q, node_cap, mutable_cap)
        if include_sequences:
            sequences = [
                search.steps(path) for path, maximal in _walk(search, max_len) if maximal
            ]
            count, best = len(sequences), min(map(len, sequences), default=None)
        else:
            count, best = _count_dp(search, max_len)
    except BudgetExceededError:
        # no partial numbers: a blown budget must never look like an answer
        return {"min_length": None, "count": None, "budget_exhausted": True}
    report: dict = {"min_length": best, "count": count, "budget_exhausted": False}
    if include_sequences:
        report["sequences"] = sequences
    return report
