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
gives both its green moves and whether every row is red.  The memo of the
dynamic programme and the visited set of the breadth-first search key a
state by its c-vectors alone, sorted (:meth:`_Search.key`), so they solve
each cluster once, not once per labelling of its seed; counts and minimal
lengths do not depend on the labels.
"""

from __future__ import annotations

from array import array
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
        self._labels = q.vertices
        self.max_len = max_len
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

    def key(self, state: State) -> bytes:
        """The c-vectors (rows of C), sorted and packed as int64 bytes.

        C fixes B = C B0 C^T along green runs (Nakanishi-Zelevinsky tropical
        duality) and has distinct rows, so two states share a key exactly
        when one relabels the other: C2 = P C1 and B2 = P B1 P^T for a
        permutation matrix P.  Entries fit in int64: a start state comes
        from an int64 matrix, and a child is made only from a parent not
        flagged unsafe, whose entries are below 2^31, so its own are below
        2^31 + 2^62.
        """
        rows = state[0]
        n = len(rows)
        cs = []
        for row in rows:
            c = [0] * n
            for j, b in row.items():
                if j >= n:
                    c[j - n] = b
            cs.append(c)
        cs.sort()
        return array("q", [x for c in cs for x in c]).tobytes()

    def steps(self, path: list[int]) -> list[str]:
        return [self._labels[k] for k in path]


def _walk(search: _Search) -> Iterator[tuple[list[int], bool]]:
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
        if search.max_len is not None and len(path) >= search.max_len:
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

    A frame keeps the state's memo key (its packed sorted c-vectors and
    the steps left), its overflow flag and the move that made it, but not
    its rows, so a deep stack on an infinite green path costs about one
    key of n^2 int64 entries per state.
    """

    key: tuple[bytes, int | None]
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
    different depths; relabelled states share it, so without ``max_len``
    each edge of the exchange graph costs one mutation.  Every child, memo
    hit or not, is made by ``search.mutate``, so the budget and the overflow
    guard act as in enumeration.  As in :func:`_walk`, only the top frame's
    state is kept, and a finished frame is undone by mutating again at its
    move.
    """
    memo: dict[tuple[bytes, int | None], tuple[int, int | None]] = {}

    def open_frame(state: State, key: tuple[bytes, int | None], move: int | None) -> _Frame:
        green, all_red = search.colors(state)
        if all_red:
            return _Frame(key, state[1], move, iter(()), 1, 0)
        moves = () if key[1] == 0 else green
        return _Frame(key, state[1], move, iter(moves), 0, None)

    rows = search.start[0]
    stack = [open_frame(search.start, (search.key(search.start), search.max_len), None)]
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
    search = _Search(q, max_len, node_cap, mutable_cap)
    for path, maximal in _walk(search):
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
    return _count_dp(_Search(q, max_len, node_cap, mutable_cap))[0]


def min_mgs_length(
    q: Quiver,
    max_len: int | None = None,
    node_cap: int = DEFAULT_NODE_CAP,
    mutable_cap: int = DEFAULT_MUTABLE_CAP,
    engine: str = "bfs",
) -> int | None:
    """Length of a shortest maximal green sequence, or None when none exists.

    The default engine is a breadth-first search that visits each state
    once up to relabelling; ``engine="dfs"`` runs a
    memoization-free iterative-deepening search as an independent
    cross-check (it requires ``max_len`` to conclude None).
    """
    search = _Search(q, max_len, node_cap, mutable_cap)
    if engine == "bfs":
        return _min_bfs(search)
    if engine == "dfs":
        return _min_iddfs(search)
    raise QuiverError(f"unknown engine {engine!r}")


def _min_bfs(search: _Search) -> int | None:
    """Breadth-first search for the least depth of an all-red state; ``seen``
    holds state keys, so of the states that relabel one another only the
    first reached is queued."""
    seen = {search.key(search.start)}
    frontier = deque([(search.start, 0)])
    while frontier:
        state, depth = frontier.popleft()
        green, all_red = search.colors(state)
        if all_red:
            return depth
        if search.max_len is not None and depth >= search.max_len:
            continue
        for k in green:
            child = search.mutate(state, k)
            key = search.key(child)
            if key not in seen:
                seen.add(key)
                frontier.append((child, depth + 1))
    return None


def _min_iddfs(search: _Search) -> int | None:
    max_len = search.max_len
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
        search = _Search(q, max_len, node_cap, mutable_cap)
        if include_sequences:
            sequences = [search.steps(path) for path, maximal in _walk(search) if maximal]
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
