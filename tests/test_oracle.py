"""Exhaustive search oracle: enumeration, counts, minimal lengths, budgets."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import random_acyclic_quiver
from greenseq.decomposition import (
    construct_mgs,
    random_decomposition,
    underlying_quiver,
)
from greenseq.families import linear_a
from greenseq.fixtures import fig8_quiver
from greenseq.oracle import (
    BudgetExceededError,
    count_mgs,
    enumerate_green_sequences,
    min_mgs_length,
    oracle_report,
)
from greenseq.quiver import Quiver, is_maximal_green_sequence, make_quiver


def triangle():
    return make_quiver([1, 2, 3], [(1, 2), (2, 3), (3, 1)])


KRONECKER = make_quiver(["1", "2"], [("1", "2", 2)])


def enumerated(q, max_len, node_cap):
    """(count, min length, maximal sequences) by listing every green path."""
    found = [
        list(seq.steps)
        for seq, maximal in enumerate_green_sequences(q, max_len, node_cap)
        if maximal
    ]
    return len(found), min(map(len, found), default=None), found


@st.composite
def small_quivers(draw):
    """Quivers on 1-5 vertices with arrow multiplicities up to 2."""
    n = draw(st.integers(1, 5))
    b = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            b[i, j] = draw(st.integers(-2, 2))
            b[j, i] = -b[i, j]
    return Quiver(tuple(f"v{i}" for i in range(n)), b)


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

    The DP mutates once per edge of the green state DAG, enumeration once
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
