"""Ground truth by exhaustive search over green mutation sequences.

Starting from the framed quiver, the search branches only on currently green
vertices.  Green moves never revisit a state, so enumeration terminates
whenever the reachable state space is finite; explicit budgets guard the
infinite cases and overrunning them is always an error, never a silent
truncation, because these answers are used as ground truth elsewhere.

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

    def label(self, k: int) -> str:
        return self._labels[k]


def enumerate_green_sequences(
    q: Quiver,
    max_len: int | None = None,
    node_cap: int = DEFAULT_NODE_CAP,
    mutable_cap: int = DEFAULT_MUTABLE_CAP,
) -> Iterator[tuple[MutationSequence, bool]]:
    """Depth-first stream of every green sequence, flagged when maximal.

    The empty sequence is included.  With ``max_len=None`` enumeration runs
    until the green tree is exhausted (finite whenever the reachable state
    space is); the node budget caps the total number of mutations performed.
    """
    search = _Search(q, node_cap, mutable_cap)

    def walk(b: np.ndarray, prefix: tuple[str, ...]):
        yield MutationSequence(prefix), search.all_red(b)
        if max_len is not None and len(prefix) >= max_len:
            return
        for k in search.green_moves(b):
            yield from walk(search.mutate(b, k), prefix + (search.label(k),))

    yield from walk(search.start, ())


def count_mgs(
    q: Quiver,
    max_len: int | None = None,
    node_cap: int = DEFAULT_NODE_CAP,
    mutable_cap: int = DEFAULT_MUTABLE_CAP,
) -> int:
    """Number of distinct maximal green sequences of length <= max_len."""
    return sum(
        1
        for _, maximal in enumerate_green_sequences(q, max_len, node_cap, mutable_cap)
        if maximal
    )


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
    """JSON-ready summary: minimal length, count, and optionally the sequences."""
    sequences: list[list[str]] = []
    try:
        best: int | None = None
        count = 0
        for seq, maximal in enumerate_green_sequences(q, max_len, node_cap, mutable_cap):
            if maximal:
                count += 1
                if best is None or len(seq) < best:
                    best = len(seq)
                if include_sequences:
                    sequences.append(list(seq.steps))
    except BudgetExceededError:
        # no partial numbers: a blown budget must never look like an answer
        return {"min_length": None, "count": None, "budget_exhausted": True}
    report: dict = {"min_length": best, "count": count, "budget_exhausted": False}
    if include_sequences:
        report["sequences"] = sequences
    return report
