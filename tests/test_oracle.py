"""Exhaustive search oracle: enumeration, counts, minimal lengths, budgets."""

from __future__ import annotations

import copy
import itertools
import random
import sys
import tracemalloc
from collections import deque
from math import comb

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import green_runs, green_steps, random_acyclic_quiver, small_quivers
from greenseq.decomposition import (
    construct_mgs,
    random_decomposition,
    underlying_quiver,
)
from greenseq.families import linear_a
from greenseq.fixtures import fig8_quiver
from greenseq import oracle
from greenseq.oracle import (
    BudgetExceededError,
    _child,
    _count_dp,
    _min_bfs,
    _min_iddfs,
    _Search,
    _step_cvectors,
    _walk,
    count_mgs,
    enumerate_green_sequences,
    min_mgs_length,
    oracle_report,
)
from greenseq.quiver import (
    MutationSequence,
    QuiverError,
    final_state,
    frame,
    is_maximal_green_sequence,
    make_quiver,
)


def triangle():
    return make_quiver([1, 2, 3], [(1, 2), (2, 3), (3, 1)])


KRONECKER = make_quiver(["1", "2"], [("1", "2", 2)])
TOURNAMENT5 = make_quiver(
    [str(i) for i in range(5)], [(str(j), str(i)) for i in range(5) for j in range(i + 1, 5)]
)
# three double arrows in a cycle: no maximal green sequence
MARKOV = make_quiver(["1", "2", "3"], [("1", "2", 2), ("2", "3", 2), ("3", "1", 2)])


def type_d(n):
    """D_n as v0 <- v1 <- ... <- v(n-2) with v(n-1) -> v(n-3)."""
    labels = [f"v{i}" for i in range(n)]
    arrows = [(labels[i + 1], labels[i]) for i in range(n - 2)]
    return make_quiver(labels, arrows + [(labels[n - 1], labels[n - 3])])


# a D5 tree whose green tree outgrows enumeration under any test budget
D5_TREE = make_quiver(
    [f"v{i}" for i in range(5)], [("v0", "v3"), ("v1", "v4"), ("v2", "v4"), ("v3", "v4")]
)


def oriented_cycle(n):
    labels = [f"v{i}" for i in range(n)]
    return make_quiver(labels, [(labels[i], labels[(i + 1) % n]) for i in range(n)])


def relabelled(q, perm):
    """``q`` with vertex ``v`` renamed ``perm[v]``."""
    arrows = [(perm[u], perm[v], m) for u, v, m in q.arrows()]
    return make_quiver([perm[v] for v in q.vertices], arrows)


def oracle_state(search, q, steps):
    """The oracle's own state after ``steps`` from the framing of ``q``."""
    state = search.start
    for v in steps:
        state = _child(state[0], q.index(v))
    return state


def red_run(search, picks):
    """The states of a run of red moves from the coframed end, taking the
    red row ``pick`` modulo their number at each step.  It stops where no
    row is red or an entry has reached the safe bound."""
    state, states = search.end, [search.end]
    for pick in picks:
        red = search.colors(state)[1]
        if state[1] or not red:
            break
        state = _child(state[0], red[pick % len(red)])
        states.append(state)
    return states


def reachable(search, side):
    """Every labelled state reached by green moves from the start (side 0)
    or by red moves from the end (side 1)."""
    first = (search.start, search.end)[side]
    states, todo, seen = [first], [first], {b_and_c(first)}
    while todo:
        state = todo.pop()
        for k in search.colors(state)[side]:
            child = _child(state[0], k)
            if b_and_c(child) not in seen:
                seen.add(b_and_c(child))
                states.append(child)
                todo.append(child)
    return states


def b_and_c(state):
    """B and C of an oracle state, as tuples of row tuples."""
    rows = state[0]
    n = len(rows)
    return tuple(
        tuple(tuple(row.get(j, 0) for j in cols) for row in rows)
        for cols in (range(n), range(n, 2 * n))
    )


def enumerated(q, max_len, node_cap):
    """(count, min length, maximal sequences) by listing every green path."""
    found = [
        list(seq.steps)
        for seq, maximal in enumerate_green_sequences(q, max_len, node_cap)
        if maximal
    ]
    return len(found), min(map(len, found), default=None), found


class TestEnumeration:
    def test_a2_exact_green_tree(self):
        seqs = {
            (tuple(s), m) for s, m in enumerate_green_sequences(linear_a(2)[0])
        }
        assert seqs == {
            ((), False),
            (("1",), False),
            (("2",), False),
            (("1", "2"), False),
            (("2", "1"), True),
            (("1", "2", "1"), True),
        }

    def test_single_vertex(self):
        q = make_quiver(["1"], [])
        maximal = [tuple(s) for s, m in enumerate_green_sequences(q) if m]
        assert maximal == [("1",)]

    def test_max_len_zero(self):
        out = list(enumerate_green_sequences(linear_a(2)[0], max_len=0))
        assert out == [(out[0][0], False)]
        assert len(out[0][0]) == 0

    def test_infinite_green_path_ends_at_the_budget(self):
        # the green path runs deeper than the interpreter's recursion limit
        with pytest.raises(BudgetExceededError):
            for _ in enumerate_green_sequences(KRONECKER, node_cap=2000):
                pass

    def test_emitted_maximal_flags_agree_with_verifier(self):
        q = linear_a(3)[0]
        for seq, maximal in enumerate_green_sequences(q):
            assert bool(is_maximal_green_sequence(q, seq)) == maximal

    @pytest.mark.parametrize(
        "q, max_len, node_cap",
        [
            (linear_a(3)[0], None, 1000),
            (linear_a(4)[0], None, 1000),
            (triangle(), None, 1000),
            (fig8_quiver(), 4, 5000),
            (fig8_quiver(), None, 500),
            (underlying_quiver(random_decomposition(11, 3, 5)), None, 1000),
            (KRONECKER, None, 300),
        ],
        ids=["a3", "a4", "triangle", "fig8-bounded", "fig8-budget", "decomposition", "kronecker"],
    )
    def test_sequences_equal_the_checked_constructor(self, q, max_len, node_cap):
        # the sequences are built without the public constructor's checks;
        # it would make the same ones, in the same order, with the same flags
        def listed(make):
            out = []
            try:
                for item in make():
                    out.append(item)
            except BudgetExceededError:
                out.append("budget")
            return out

        search = _Search(q, max_len, node_cap, 8)
        want = listed(
            lambda: (
                (MutationSequence(search.steps(path)), m) for path, m in _walk(search, max_len)
            )
        )
        got = listed(lambda: enumerate_green_sequences(q, max_len, node_cap))
        assert got == want
        for seq, _ in got[:-1] if got[-1] == "budget" else got:
            assert type(seq.steps) is tuple and {type(v) for v in seq.steps} <= {str}


class TestCounts:
    def test_a2(self):
        assert count_mgs(linear_a(2)[0], max_len=3) == 2

    def test_single_vertex(self):
        assert count_mgs(make_quiver(["1"], [])) == 1

    def test_linear_bound(self):
        # at least 2^(n-1) maximal green sequences on the linear quiver
        for n in range(1, 5):
            q, _ = linear_a(n)
            assert count_mgs(q, max_len=n * (n + 1) // 2) >= 2 ** (n - 1)


    def test_a6_under_the_default_budget(self):
        assert count_mgs(linear_a(6)[0]) == 340549

    def test_infinite_green_path_ends_at_the_budget(self):
        with pytest.raises(BudgetExceededError):
            count_mgs(KRONECKER, node_cap=2000)


class TestCountAgainstEnumeration:
    """The DP against a count over every green path, made here.

    The DP mutates once per edge of the green state DAG, counting states
    that relabel one another as one, and enumeration once
    per edge of the green tree, so under one budget the DP answers whenever
    enumeration does.  When only the DP answers, a larger budget checks it.
    Some trees are too large even for that (a D5 orientation has 435,864
    maximal green sequences); there the DP is checked under every shorter
    length bound that enumeration finishes, from 0 through the minimal
    length at least.
    """

    CAP = 1000

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(q=small_quivers(), max_len=st.none() | st.integers(0, 8))
    @example(q=D5_TREE, max_len=None)
    def test_dp_matches_enumeration(self, q, max_len):
        try:
            want = enumerated(q, max_len, self.CAP)
        except BudgetExceededError:
            want = None
        report = oracle_report(q, max_len, self.CAP)
        if report["budget_exhausted"]:
            assert want is None
            with pytest.raises(BudgetExceededError):
                count_mgs(q, max_len, self.CAP)
            return
        try:
            want = want or enumerated(q, max_len, 20 * self.CAP)
        except BudgetExceededError:
            pass
        if want is not None:
            self.assert_dp_agrees(q, max_len, want, self.CAP)
            return
        checked = -1
        for bound in range(max_len if max_len is not None else sys.maxsize):
            try:
                want = enumerated(q, bound, 20 * self.CAP)
            except BudgetExceededError:
                break
            self.assert_dp_agrees(q, bound, want, 20 * self.CAP)
            assert want[0] <= report["count"]
            checked = bound
        assert report["min_length"] is None or checked >= report["min_length"]

    def assert_dp_agrees(self, q, max_len, want, dp_cap):
        count, best, sequences = want
        report = oracle_report(q, max_len, dp_cap)
        assert report == {"min_length": best, "count": count, "budget_exhausted": False}
        assert count_mgs(q, max_len, dp_cap) == count
        listed = oracle_report(q, max_len, 20 * self.CAP, include_sequences=True)
        assert listed == dict(report, sequences=sequences)


class TestMinLength:
    def test_a2(self):
        assert min_mgs_length(linear_a(2)[0]) == 2

    def test_triangle(self):
        assert min_mgs_length(triangle()) == 4  # 3 vertices + 1 cycle

    def test_reference_seven_vertex(self):
        assert min_mgs_length(fig8_quiver()) == 10  # 7 vertices + 3 cycles

    def test_constructed_never_below_minimum(self):
        for seed in range(12):
            dec = random_decomposition(777 + seed, seed % 3 + 1, 6)
            q = underlying_quiver(dec)
            assert min_mgs_length(q) <= len(construct_mgs(dec))

    def test_constructed_appears_in_enumeration(self):
        # full enumeration is exponential in sequence count, so keep the
        # instances small enough to exhaust the whole green tree
        for seed in (3, 11, 19, 27):
            dec = random_decomposition(seed, 2 + seed % 2, 5)
            q = underlying_quiver(dec)
            target = tuple(construct_mgs(dec))
            found = any(
                maximal and tuple(seq) == target
                for seq, maximal in enumerate_green_sequences(q)
            )
            assert found

    def test_engines_agree(self):
        # both engines complete on families guaranteed to have an MGS
        rng = random.Random(424242)
        cases = []
        for i in range(25):
            cases.append(random_acyclic_quiver(rng, 5))
        for i in range(25):
            cases.append(underlying_quiver(random_decomposition(i, i % 3 + 1, 5)))
        for q in cases:
            bfs = min_mgs_length(q, engine="bfs")
            dfs = min_mgs_length(q, max_len=15, engine="dfs", node_cap=2_000_000)
            assert bfs == dfs


class TestBidirectional:
    """The breadth-first search meets the coframed end from both sides; it
    must answer as the count DP and the iterative-deepening search do."""

    CAP = 3000

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(q=small_quivers(), max_len=st.none() | st.integers(0, 10))
    def test_matches_the_dp_and_iddfs(self, q, max_len):
        def answer(engine):
            try:
                return [engine()]
            except BudgetExceededError:
                return []

        bfs = answer(lambda: min_mgs_length(q, max_len, self.CAP))
        report = oracle_report(q, max_len, self.CAP)
        dp = [] if report["budget_exhausted"] else [report["min_length"]]
        # without max_len, the answer itself bounds the iterative deepening
        bound = max_len if max_len is not None else next(iter(bfs + dp), None)
        dfs = []
        if bound is not None:
            dfs = answer(lambda: min_mgs_length(q, bound, self.CAP, engine="dfs"))
        assert len(set(bfs + dp + dfs)) <= 1, (bfs, dp, dfs)

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(n=st.integers(1, 8), seed=st.integers(0, 10**6), density=st.sampled_from([0.3, 0.6, 1]))
    def test_acyclic_gives_n(self, n, seed, density):
        # the sources in turn are an MGS (BDP), and none is shorter than n
        q = random_acyclic_quiver(random.Random(seed), n, density)
        assert min_mgs_length(q, node_cap=5_000) == n

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_oriented_cycle(self, n):
        assert min_mgs_length(oriented_cycle(n), node_cap=2_000) == 2 * n - 2

    def test_infinite_green_paths_still_have_short_mgs(self):
        # both have an infinite green path, which only the count runs into
        assert min_mgs_length(KRONECKER, node_cap=100) == 2
        assert min_mgs_length(TOURNAMENT5, node_cap=500) == 5

    def test_markov_has_no_mgs(self):
        # no state either side reaches is all red or all green, so only the
        # budget ends the search
        with pytest.raises(BudgetExceededError):
            min_mgs_length(MARKOV, node_cap=2000)

    def test_iddfs_deeper_than_the_recursion_limit_ends_at_the_budget(self):
        # the iterative deepening keeps its path on an explicit stack, so a
        # bound far deeper than the interpreter's recursion limit ends at
        # the node budget (Markov has infinite green paths and no MGS)
        depth, caller = 0, sys._getframe()
        while caller is not None:
            depth, caller = depth + 1, caller.f_back
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            with pytest.raises(BudgetExceededError, match="search exceeded 50000 nodes"):
                min_mgs_length(MARKOV, max_len=200, engine="dfs", node_cap=50_000)
        finally:
            sys.setrecursionlimit(old)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(q=small_quivers())
    def test_answers_a_length_or_runs_out_of_budget(self, q):
        # without max_len a side whose frontier empties has met the other
        # (sign-coherence and BDP), so None is never the answer
        try:
            least = min_mgs_length(q, node_cap=self.CAP)
        except BudgetExceededError:
            return
        assert type(least) is int

    def test_max_len_bounds_the_sum_of_the_depths(self):
        q = oriented_cycle(4)
        assert [min_mgs_length(q, max_len) for max_len in range(8)] == [None] * 6 + [6, 6]

    def test_start_already_at_the_end(self):
        search = _Search(linear_a(2)[0], 0, 10, 8)
        search.start = search.end
        assert _min_bfs(search) == 0 and search.nodes == 0


class TestIterativeDeepening:
    """The iterative deepening runs :func:`_walk` once per depth bound and
    stops at the first all-red state.  Its answers and node counts are
    pinned, so a change to the walk that changes how the budget is spent
    fails here."""

    @pytest.mark.parametrize(
        "q, max_len, least, nodes",
        [
            (linear_a(4)[0], 4, 4, 154),
            (type_d(4), 4, 4, 134),
            (oriented_cycle(4), 6, 6, 358),
            (oriented_cycle(5), 8, 8, 6018),
            (MARKOV, 6, None, 168),
        ],
        ids=["A4", "D4", "C4", "C5", "markov"],
    )
    def test_answer_and_nodes_spent(self, q, max_len, least, nodes):
        search = _Search(q, max_len, 20_000, 8)
        assert _min_iddfs(search) == least
        assert search.nodes == nodes
        assert min_mgs_length(q, max_len, node_cap=nodes, engine="dfs") == least
        with pytest.raises(BudgetExceededError, match=f"search exceeded {nodes - 1} nodes"):
            min_mgs_length(q, max_len, node_cap=nodes - 1, engine="dfs")


class TestBudgets:
    def test_mutable_cap(self):
        with pytest.raises(BudgetExceededError):
            min_mgs_length(linear_a(9)[0])
        # with the cap raised, a 9-vertex search is allowed again
        nine_isolated = make_quiver([str(i) for i in range(1, 10)], [])
        assert min_mgs_length(nine_isolated, mutable_cap=9) == 9

    def test_node_cap(self):
        with pytest.raises(BudgetExceededError):
            count_mgs(fig8_quiver(), node_cap=10)

    def test_report_shape(self):
        report = oracle_report(linear_a(2)[0], include_sequences=True)
        assert report == {
            "min_length": 2,
            "count": 2,
            "budget_exhausted": False,
            "sequences": [["1", "2", "1"], ["2", "1"]],
        }

    def test_report_budget_flag(self):
        report = oracle_report(fig8_quiver(), node_cap=10)
        assert report == {"min_length": None, "count": None, "budget_exhausted": True}

    @pytest.mark.parametrize("limit", ["max_len", "node_cap", "mutable_cap"])
    @pytest.mark.parametrize(
        "search",
        [
            lambda q, **kw: count_mgs(q, **kw),
            lambda q, **kw: list(enumerate_green_sequences(q, **kw)),
            lambda q, **kw: min_mgs_length(q, **kw),
            lambda q, **kw: min_mgs_length(q, engine="dfs", **dict({"max_len": 5}, **kw)),
            lambda q, **kw: oracle_report(q, **kw),
            lambda q, **kw: oracle_report(q, include_sequences=True, **kw),
        ],
        ids=["count", "enumerate", "min-bfs", "min-dfs", "report", "report-sequences"],
    )
    def test_negative_limit_is_invalid(self, search, limit):
        # every engine refuses it the same way, before any work
        with pytest.raises(QuiverError, match=f"{limit} must not be negative") as err:
            search(linear_a(3)[0], **{limit: -1})
        assert not isinstance(err.value, BudgetExceededError)


def catalan(n):
    return comb(2 * n, n) // (n + 1)


class TestWork:
    """The DP solves each cluster once: over the N clusters of a finite type,
    each with n green or red neighbours, it makes n * N / 2 mutations, one
    per edge of the exchange graph."""

    # (quiver, n, number of clusters N)
    FINITE = [(linear_a(n)[0], n, catalan(n + 1)) for n in range(3, 8)] + [
        (type_d(n), n, clusters) for n, clusters in ((4, 50), (5, 182), (6, 672))
    ]

    @pytest.mark.parametrize(
        "q, n, clusters", FINITE, ids=["A3", "A4", "A5", "A6", "A7", "D4", "D5", "D6"]
    )
    def test_one_mutation_per_exchange_edge(self, q, n, clusters):
        cap = n * clusters // 2
        count_mgs(q, node_cap=cap)
        with pytest.raises(BudgetExceededError):
            count_mgs(q, node_cap=cap - 1)

    def test_a7_and_d6(self):
        assert count_mgs(linear_a(7)[0]) == 216_569_887
        assert count_mgs(type_d(6)) == 781_075_298

    def test_min_meets_in_the_middle(self):
        # a one-sided search spends 5,005 and 1,519 mutations here
        assert min_mgs_length(linear_a(7)[0], node_cap=1_000) == 7
        assert min_mgs_length(type_d(6), node_cap=400) == 6

    @pytest.mark.parametrize(
        "q, n, clusters", FINITE[:4], ids=["A3", "A4", "A5", "A6"]
    )
    def test_kernel_runs_only_on_memo_misses(self, q, n, clusters, monkeypatch):
        # children are keyed from c-vectors; each of the N memo entries but
        # the start is opened by one kernel run and left by another
        runs = []
        kernel = oracle._mutate_rows

        def counted(rows, k):
            runs.append(k)
            return kernel(rows, k)

        monkeypatch.setattr(oracle, "_mutate_rows", counted)
        count_mgs(q)
        assert len(runs) == 2 * (clusters - 1)

    def test_a7_count_memory(self):
        # the peak read 0.81 MB when every child was made by the kernel
        q = linear_a(7)[0]
        tracemalloc.start()
        try:
            count = count_mgs(q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 216_569_887
        assert peak < 0.81e6


KEYS = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestStateKey:
    """The oracle's state key: equal exactly for states that relabel one another."""

    @KEYS
    @given(run=green_runs(max_n=5), data=st.data())
    def test_relabelling_keeps_the_key(self, run, data):
        q, steps = run
        search = _Search(q, None, 1000, 8)
        state = oracle_state(search, q, steps)
        n = len(q.vertices)
        p = data.draw(st.permutations(range(n)))
        where = {old: new for new, old in enumerate(p)}
        # row i of the relabelled state is row p[i], with B columns renamed
        rows = [
            {where[j] if j < n else j: b for j, b in state[0][old].items()} for old in p
        ]
        assert search.key((rows, state[1])) == search.key(state)

    @staticmethod
    def assert_keys_match_relabellings(search, states):
        """Over every pair of distinct states: equal keys exactly when some
        permutation matrix P gives C2 = P C1 and B2 = P B1 P^T, found by
        trying every permutation."""
        keys = {b_and_c(state): search.key(state) for state in states}
        n = len(search.start[0])
        perms = list(itertools.permutations(range(n)))
        for ((b1, c1), k1), ((b2, c2), k2) in itertools.combinations(keys.items(), 2):
            relabels = any(
                all(c2[i] == c1[p[i]] for i in range(n))
                and all(b2[i][j] == b1[p[i]][p[j]] for i in range(n) for j in range(n))
                for p in perms
            )
            assert (k1 == k2) == relabels

    @KEYS
    @given(run=green_runs(max_n=5), data=st.data())
    def test_equal_keys_exactly_for_relabellings(self, run, data):
        # two long runs sometimes end all red, where the states relabel one
        # another
        q, first = run
        second, third = (green_steps(data.draw, q, 20, 20) for _ in range(2))
        search = _Search(q, None, 1000, 8)
        states = [
            oracle_state(search, q, steps[:end])
            for steps in (first, second, third)
            for end in range(len(steps) + 1)
        ]
        self.assert_keys_match_relabellings(search, states)

    @pytest.mark.parametrize(
        "q", [linear_a(3)[0], oriented_cycle(3), linear_a(4)[0]], ids=["A3", "C3", "A4"]
    )
    def test_whole_green_graph(self, q):
        # every labelled green state: A4 has 118, in 42 clusters
        search = _Search(q, None, 10**4, 8)
        states = reachable(search, 0)
        assert len({search.key(s) for s in states}) < len(states)
        self.assert_keys_match_relabellings(search, states)

    @KEYS
    @given(run=green_runs(max_n=5), picks=st.lists(st.integers(0, 5), max_size=12))
    def test_keys_match_relabellings_across_both_ends(self, run, picks):
        # the bidirectional search compares keys of states reached forward
        # by green moves with keys of states reached backward by red moves
        q, steps = run
        search = _Search(q, None, 1000, 8)
        forward = [oracle_state(search, q, steps[:end]) for end in range(len(steps) + 1)]
        self.assert_keys_match_relabellings(search, forward + red_run(search, picks))

    @pytest.mark.parametrize("q", [linear_a(3)[0], oriented_cycle(3)], ids=["A3", "C3"])
    def test_whole_graph_from_both_ends(self, q):
        # every labelled state either side reaches; each cluster is met from
        # both ends, so keys repeat across the two sides
        search = _Search(q, None, 10**4, 8)
        forward, backward = reachable(search, 0), reachable(search, 1)
        keys = [{search.key(s) for s in side} for side in (forward, backward)]
        assert keys[0] == keys[1]
        self.assert_keys_match_relabellings(search, forward + backward)

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(q=small_quivers(), max_len=st.none() | st.integers(0, 8), data=st.data())
    def test_answers_ignore_labels(self, q, max_len, data):
        names = data.draw(st.permutations(q.vertices))
        shuffled = relabelled(q, dict(zip(q.vertices, names)))

        # the DP expands each state once, in any order, so it spends the
        # same budget on both
        reports = [oracle_report(x, max_len, node_cap=1000) for x in (q, shuffled)]
        assert reports[0] == reports[1]
        # the breadth-first search may stop at another point of its last
        # level, so only its answers are compared
        least = []
        for x in (q, shuffled):
            try:
                least.append(min_mgs_length(x, max_len, node_cap=20_000))
            except BudgetExceededError:
                pass
        assert len(set(least)) <= 1
        if least and not reports[0]["budget_exhausted"]:
            assert least[0] == reports[0]["min_length"]


class TestCVectorStep:
    """:func:`_step_cvectors` keys a child from its parent's c-vectors and
    row k, as the kernel would make it."""

    @staticmethod
    def assert_steps_match_the_kernel(search, state, moves):
        cs = search.cvectors(state)
        for k in moves:
            stepped = _step_cvectors(cs, state[0][k], k)
            child = _child(state[0], k)
            assert stepped == search.cvectors(child)
            assert tuple(sorted(stepped)) == search.key(child)
            # a c-vector the move leaves alone is the parent's tuple
            assert [a is b for a, b in zip(stepped, cs)] == [a == b for a, b in zip(stepped, cs)]
        assert search.cvectors(state) == cs  # the parent's list is not written

    @KEYS
    @given(run=green_runs(max_n=5), picks=st.lists(st.integers(0, 5), max_size=12))
    def test_green_moves_forward_and_red_moves_backward(self, run, picks):
        q, steps = run
        search = _Search(q, None, 10**4, 8)
        for end in range(len(steps) + 1):
            state = oracle_state(search, q, steps[:end])
            if not state[1]:
                self.assert_steps_match_the_kernel(search, state, search.colors(state)[0])
        for state in red_run(search, picks):
            if not state[1]:
                self.assert_steps_match_the_kernel(search, state, search.colors(state)[1])


class TestAllRedLeaves:
    """Brüstle-Dupont-Pérotin: a maximal green sequence ends at C = -P for a
    permutation matrix P, so every all-red state has the key of C = -I."""

    @pytest.mark.parametrize(
        "q, limit",
        [
            (linear_a(4)[0], None),
            (type_d(4), None),
            (oriented_cycle(4), None),
            # fig8 has 52,395,068 of them; the first 300 listed
            (fig8_quiver(), 300),
        ],
        ids=["A4", "D4", "C4", "fig8"],
    )
    def test_final_c_is_minus_a_permutation(self, q, limit):
        listed = (list(seq) for seq, maximal in enumerate_green_sequences(q) if maximal)
        sequences = list(itertools.islice(listed, limit))
        n = len(q.vertices)
        search = _Search(q, None, 10**6, 8)
        all_red = search.key(([{n + i: -1} for i in range(n)], False))
        for steps in sequences:
            end = final_state(frame(q), steps).quiver
            rows = [end.index(v) for v in q.vertices]
            frozen = [end.index(v + "'") for v in q.vertices]
            c = np.array(end.matrix)[np.ix_(rows, frozen)]
            assert sorted((-c).tolist(), reverse=True) == np.eye(n, dtype=int).tolist()
            assert search.key(oracle_state(search, q, steps)) == all_red
        assert limit is None or len(sequences) == limit


class TestCopyOnWrite:
    """:func:`_child` copies the rows the in-place kernel writes, so a parent
    state is never changed by making a child, and the depth-first engines,
    which step back in place, leave the start state as they found it."""

    ENGINES = {
        "count": _count_dp,
        "walk": lambda search: deque(_walk(search, search.max_len), maxlen=0),
        "bfs": _min_bfs,
        "iddfs": _min_iddfs,
    }

    @KEYS
    @given(green_runs())
    def test_mutate_leaves_its_input_unchanged(self, run):
        q, steps = run
        search = _Search(q, None, 10**4, 8)
        state = oracle_state(search, q, steps)
        before = copy.deepcopy(state)
        if not state[1]:  # an unsafe state has no children
            for k in range(len(q.vertices)):  # green or not
                _child(state[0], k)
                assert state == before

    @KEYS
    @given(green_runs())
    def test_engines_leave_the_start_unchanged(self, run):
        q, steps = run
        for name, engine in self.ENGINES.items():
            search = _Search(q, 4, 2000, 8)
            # start mid-run, so the start shares its rows with other states
            search.start = oracle_state(search, q, steps)
            before = copy.deepcopy((search.start, search.end))
            try:
                engine(search)
            except BudgetExceededError:
                pass
            assert (search.start, search.end) == before, name
