"""Exhaustive search oracle: enumeration, counts, minimal lengths, budgets."""

from __future__ import annotations

import itertools
import random
from math import comb

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import green_runs, green_steps, random_acyclic_quiver, small_quivers
from greenseq.decomposition import (
    construct_mgs,
    random_decomposition,
    underlying_quiver,
)
from greenseq.families import linear_a
from greenseq.fixtures import fig8_quiver
from greenseq.oracle import (
    BudgetExceededError,
    _Search,
    count_mgs,
    enumerate_green_sequences,
    min_mgs_length,
    oracle_report,
)
from greenseq.quiver import (
    QuiverError,
    final_state,
    frame,
    is_maximal_green_sequence,
    make_quiver,
)


def triangle():
    return make_quiver([1, 2, 3], [(1, 2), (2, 3), (3, 1)])


KRONECKER = make_quiver(["1", "2"], [("1", "2", 2)])


def type_d(n):
    """D_n as v0 <- v1 <- ... <- v(n-2) with v(n-1) -> v(n-3)."""
    labels = [f"v{i}" for i in range(n)]
    arrows = [(labels[i + 1], labels[i]) for i in range(n - 2)]
    return make_quiver(labels, arrows + [(labels[n - 1], labels[n - 3])])


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
        state = search.mutate(state, q.index(v))
    return state


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
    """

    CAP = 1000

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(q=small_quivers(), max_len=st.none() | st.integers(0, 8))
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
        count, best, sequences = want or enumerated(q, max_len, 20 * self.CAP)
        assert report == {"min_length": best, "count": count, "budget_exhausted": False}
        assert count_mgs(q, max_len, self.CAP) == count
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
        states, todo = [search.start], [search.start]
        seen = {b_and_c(search.start)}
        while todo:
            state = todo.pop()
            for k in search.colors(state)[0]:
                child = search.mutate(state, k)
                if b_and_c(child) not in seen:
                    seen.add(b_and_c(child))
                    states.append(child)
                    todo.append(child)
        assert len({search.key(s) for s in states}) < len(states)
        self.assert_keys_match_relabellings(search, states)

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
            c = end.matrix[np.ix_(rows, frozen)]
            assert sorted((-c).tolist(), reverse=True) == np.eye(n, dtype=int).tolist()
            assert search.key(oracle_state(search, q, steps)) == all_red
        assert limit is None or len(sequences) == limit
