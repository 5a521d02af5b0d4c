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
in ``RecursionError``.  The node budget counts mutations in every engine.

States are deduplicated by the raw bytes of the extended exchange matrix
[B | C], one row per mutable vertex.  No isomorphism reduction is attempted;
at the default cap of eight mutable vertices none is needed.  Each move
copies the state and runs the shared in-place kernel of
:mod:`greenseq.quiver` on the copy; the colours are read off the C block.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .quiver import (
    MAX_SAFE_ENTRY,
    MutationSequence,
    Quiver,
    QuiverError,
    _framed_rows,
    _green_rows,
    _mutate_rows,
    _red_rows,
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


class _Search:
    """Matrix-level search state shared by the engines."""

    def __init__(self, q: Quiver, node_cap: int, mutable_cap: int):
        if len(q.vertices) > mutable_cap:
            raise BudgetExceededError(
                f"{len(q.vertices)} mutable vertices exceeds cap {mutable_cap}"
            )
        self.start = _framed_rows(q)[1]
        self._labels = q.vertices
        self.budget = _Budget(node_cap)

    def mutate(self, b: np.ndarray, k: int) -> np.ndarray:
        self.budget.spend()
        if np.abs(b).max() >= MAX_SAFE_ENTRY:
            # overflow must surface as an error, never as a wrong answer
            raise BudgetExceededError(
                "arrow multiplicities exceed the safe search range"
            )
        new = b.copy()
        _mutate_rows(new, k)
        return new

    def green_moves(self, b: np.ndarray) -> list[int]:
        return np.flatnonzero(_green_rows(b)).tolist()

    def all_red(self, b: np.ndarray) -> bool:
        return bool(_red_rows(b).all())

    def steps(self, path: list[int]) -> list[str]:
        return [self._labels[k] for k in path]

    def state_of(self, key: bytes) -> np.ndarray:
        """The read-only state whose raw bytes are ``key``."""
        return np.frombuffer(key, dtype=self.start.dtype).reshape(self.start.shape)


def _walk(search: _Search, max_len: int | None) -> Iterator[tuple[list[int], bool]]:
    """Depth-first pre-order over the green tree, on an explicit stack.

    Yields the path of row indices to each state, and whether that state is
    all red.  The path is one list, changed by the next step, so a caller
    copies what it keeps.  Each frame makes its next child only when the
    previous child's subtree is exhausted, so mutations happen, and the
    budget is spent, in the order of the yields.
    """
    path: list[int] = []

    def moves(b: np.ndarray) -> Iterator[int]:
        if max_len is not None and len(path) >= max_len:
            return iter(())
        return iter(search.green_moves(b))

    yield path, search.all_red(search.start)
    stack = [(search.start, moves(search.start))]
    while stack:
        b, pending = stack[-1]
        k = next(pending, None)
        if k is None:
            stack.pop()
            if stack:  # the root frame has no step on the path
                path.pop()
            continue
        child = search.mutate(b, k)
        path.append(k)
        yield path, search.all_red(child)
        stack.append((child, moves(child)))


@dataclass(slots=True)
class _Frame:
    """One state of the DP walk and the answer folded in from its children.

    The state is kept only as the bytes of its memo key, which halves the
    memory of a deep stack on an infinite green path.
    """

    key: tuple[bytes, int | None]
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
    enumeration.
    """
    memo: dict[tuple[bytes, int | None], tuple[int, int | None]] = {}

    def open_frame(b: np.ndarray, key: tuple[bytes, int | None]) -> _Frame:
        if search.all_red(b):
            return _Frame(key, iter(()), 1, 0)
        moves = () if key[1] == 0 else search.green_moves(b)
        return _Frame(key, iter(moves), 0, None)

    stack = [open_frame(search.start, (search.start.tobytes(), max_len))]
    while True:
        top = stack[-1]
        k = next(top.pending, None)
        if k is None:
            stack.pop()
            value = memo[top.key] = (top.count, top.best)
            if not stack:
                return value
        else:
            child = search.mutate(search.state_of(top.key[0]), k)
            left = None if top.key[1] is None else top.key[1] - 1
            key = (child.tobytes(), left)
            value = memo.get(key)
            if value is None:
                stack.append(open_frame(child, key))
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
    memoization on canonical matrix bytes; ``engine="dfs"`` runs a
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
    seen = {search.start.tobytes()}
    frontier: deque[tuple[np.ndarray, int]] = deque([(search.start, 0)])
    while frontier:
        b, depth = frontier.popleft()
        if search.all_red(b):
            return depth
        if max_len is not None and depth >= max_len:
            continue
        for k in search.green_moves(b):
            nxt = search.mutate(b, k)
            key = nxt.tobytes()
            if key not in seen:
                seen.add(key)
                frontier.append((nxt, depth + 1))
    return None


def _min_iddfs(search: _Search, max_len: int | None) -> int | None:
    if max_len is None:
        raise QuiverError("dfs engine needs max_len to be able to answer None")

    def bounded(b: np.ndarray, depth_left: int) -> bool:
        if search.all_red(b):
            return True
        if depth_left == 0:
            return False
        return any(
            bounded(search.mutate(b, k), depth_left - 1)
            for k in search.green_moves(b)
        )

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
