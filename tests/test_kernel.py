"""The shared sparse mutation kernel, checked against independent references.

Streamed verification is compared with a step-by-step replay through the
arrow-multiset graph rule, written here without the kernel.  ``mutate`` is
compared with the graph rule, and ``final_state`` and ``check_step_shapes``
with the states of one public ``mutate`` call per step.  Example counts stay
small so the tier-1 run stays quick.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import green_runs, small_quivers
from greenseq.decomposition import (
    check_step_shapes,
    construct_mgs,
    random_decomposition,
    underlying_quiver,
)
from greenseq.families import linear_a
from greenseq.graph_rule import arrows_of, mutate_by_graph_rule
from greenseq.oracle import (
    BudgetExceededError,
    count_mgs,
    enumerate_green_sequences,
    min_mgs_length,
)
from greenseq.quiver import (
    Color,
    ConsecutiveRepeatError,
    IceQuiver,
    MutationSequence,
    Quiver,
    QuiverError,
    Verdict,
    final_state,
    frame,
    is_green_sequence,
    is_maximal_green_sequence,
    make_quiver,
    mutate,
    _assemble,
    _mutate_rows,
    _row_color,
    _rows_of,
)

FEW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def graph_rule_verdict(q: Quiver, steps: list[str], maximal: bool):
    """(ok, step_index, vertex) by replaying ``steps`` with the graph rule.

    A vertex is green when it has an arrow to a frozen vertex and none from
    one, and red in the mirror case.  Failures that name no step or vertex
    (malformed, frozen or unknown labels) come back as (False, None, None).
    """
    try:
        MutationSequence(tuple(steps))
    except ConsecutiveRepeatError:
        return False, None, None
    iq = frame(q)

    def arrows_with_frozen(v):
        arrows = arrows_of(iq.quiver)
        out = sum(m for (u, w), m in arrows.items() if u == v and w in iq.frozen)
        into = sum(m for (u, w), m in arrows.items() if w == v and u in iq.frozen)
        return out, into

    for idx, v in enumerate(steps):
        if v in iq.frozen or not iq.quiver.has_vertex(v):
            return False, None, None
        out, into = arrows_with_frozen(v)
        if into or not out:
            return False, idx, v
        iq = mutate_by_graph_rule(iq, v)
    if maximal:
        for v in iq.mutable:
            out, into = arrows_with_frozen(v)
            if out or not into:
                return False, None, v
    return True, None, None


@st.composite
def decomposition_and_steps(draw):
    """A random decomposition and a sequence of one of several kinds."""
    n = draw(st.integers(2, 24))
    dec = random_decomposition(
        draw(st.integers(0, 10**6)), draw(st.integers(1, min(4, n))), n
    )
    q = underlying_quiver(dec)
    mgs = list(construct_mgs(dec).steps)
    labels = list(q.vertices)
    kind = draw(st.sampled_from(["mgs", "prefix", "extended", "random", "odd label"]))
    if kind == "mgs":
        steps = mgs
    elif kind == "prefix":
        steps = mgs[: draw(st.integers(0, len(mgs)))]
    elif kind == "extended":
        steps = mgs + [draw(st.sampled_from(labels))]
    else:
        pool = labels + (["zz", labels[0] + "'"] if kind == "odd label" else [])
        steps = draw(st.lists(st.sampled_from(pool), max_size=30))
    return q, steps


class TestStreamedVerdicts:
    @FEW
    @given(decomposition_and_steps())
    def test_green_matches_graph_rule_replay(self, case):
        q, steps = case
        got = is_green_sequence(q, steps)
        assert (got.ok, got.step_index, got.vertex) == graph_rule_verdict(q, steps, False)

    @FEW
    @given(decomposition_and_steps())
    def test_maximal_matches_graph_rule_replay(self, case):
        q, steps = case
        got = is_maximal_green_sequence(q, steps)
        assert (got.ok, got.step_index, got.vertex) == graph_rule_verdict(q, steps, True)

    def test_label_failures_keep_their_messages(self):
        q = linear_a(3)[0]
        assert is_green_sequence(q, ["1", "2'"]) == Verdict(
            False, "step 1 mutates frozen vertex \"2'\""
        )
        assert is_green_sequence(q, ["1", "x"]) == Verdict(False, "unknown vertex 'x'")
        collide = make_quiver(["a", "a'"], [("a", "a'")])
        assert is_maximal_green_sequence(collide, ["a"]) == Verdict(
            False, "frozen label \"a'\" collides with a vertex"
        )
        assert is_green_sequence(make_quiver([], []), []) == Verdict(
            False, "ice quiver has no mutable vertices"
        )


@st.composite
def ice_quivers(draw):
    """A random ice quiver with 0-3 frozen vertices and multiplicities up to 3."""
    n = draw(st.integers(2, 7))
    frozen_count = draw(st.integers(0, min(3, n - 1)))
    labels = tuple(f"v{i}" for i in range(n))
    b = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            if i >= n - frozen_count and j >= n - frozen_count:
                continue  # no arrows between frozen vertices
            b[i, j] = draw(st.integers(-3, 3))
            b[j, i] = -b[i, j]
    return IceQuiver(Quiver(labels, b), frozenset(labels[n - frozen_count :]))


class TestMutate:
    @FEW
    @given(ice_quivers(), st.lists(st.integers(0, 6), min_size=1, max_size=6))
    def test_agrees_with_graph_rule(self, iq, picks):
        for pick in picks:
            k = iq.mutable[pick % len(iq.mutable)]
            by_graph = mutate_by_graph_rule(iq, k)
            iq = mutate(iq, k)
            assert iq == by_graph
            m = np.array(iq.quiver.matrix)
            assert (m == -m.T).all()

    @FEW
    @given(decomposition_and_steps())
    def test_final_state_is_the_last_traced_state(self, case):
        q, steps = case

        def run(replay):
            try:
                return replay(frame(q), steps)
            except QuiverError as err:
                return type(err)

        assert run(final_state) == run(lambda iq, s: stepwise_states(iq, s)[-1])


@FEW
@given(
    st.one_of(small_quivers().map(frame), ice_quivers()),
    st.lists(st.integers(0, 6), min_size=1, max_size=8),
)
def test_kernel_flag_is_the_colour_before_the_step(iq, picks):
    """On any step, green or not, the kernel's flag is the colour of row k
    before the step, and the rows after it are the graph rule's state."""
    mutable, frozen, rows = _rows_of(iq)
    n = len(rows)
    for pick in picks:
        k = pick % n
        want = _row_color(rows[k], n) is Color.GREEN
        green, unsafe = _mutate_rows(rows, k)
        assert green == want
        iq = mutate_by_graph_rule(iq, mutable[k])
        assert _assemble(mutable, frozen, rows) == iq
        if unsafe:
            break


def stepwise_states(iq: IceQuiver, steps) -> list[IceQuiver]:
    """The start state and the state after each step, one public ``mutate`` per step."""
    states = [iq]
    for v in MutationSequence(tuple(steps)):
        states.append(mutate(states[-1], v))
    return states


def step_shapes_by_trace(dec, seq):
    """The step-shape report computed on the states of a stepwise ``mutate`` trace."""
    chain_of = {v: dec.chain_vertex_of(v).chain for v in dec.vertices()}
    states = stepwise_states(frame(underlying_quiver(dec)), seq)
    problems = []
    for idx, (v, state) in enumerate(zip(seq, states)):
        for w in state.quiver.vertices:
            entry = state.quiver.b(v, w)
            if w == v or entry == 0:
                continue
            if w in state.frozen:
                if entry < 0:
                    problems.append(f"step {idx}: frozen arrow into {v!r} from {w!r}")
            elif chain_of[w] == chain_of[v]:
                if entry > 0:
                    problems.append(f"step {idx}: same-chain arrow out of {v!r} to {w!r}")
            elif entry < 0:
                problems.append(f"step {idx}: cross-chain arrow into {v!r} from {w!r}")
    return problems


@FEW
@given(st.integers(0, 10**6), st.integers(2, 20), st.data())
def test_step_shapes_match_trace_reference(seed, n, data):
    dec = random_decomposition(seed, 1 + n // 6, n)
    labels = sorted(dec.vertices())
    steps = data.draw(st.lists(st.sampled_from(labels), max_size=25))
    try:
        seq = MutationSequence(tuple(steps))
    except ConsecutiveRepeatError:
        seq = construct_mgs(dec)
    assert check_step_shapes(dec, seq) == step_shapes_by_trace(dec, seq)


def oriented_cycle(n: int) -> Quiver:
    labels = [str(i) for i in range(1, n + 1)]
    return make_quiver(labels, [(labels[i], labels[(i + 1) % n]) for i in range(n)])


@pytest.mark.parametrize(
    "q, count, shortest",
    [
        (linear_a(3)[0], 9, 3),
        (linear_a(4)[0], 98, 4),
        (linear_a(5)[0], 2981, 5),
        (make_quiver(["1", "2", "3", "4"], [("1", "2"), ("3", "2"), ("4", "2")]), 468, 4),
        (oriented_cycle(3), 9, 4),
        (oriented_cycle(4), 112, 6),
        (oriented_cycle(5), 3910, 8),
    ],
    ids=["A3", "A4", "A5", "D4", "C3", "C4", "C5"],
)
def test_oracle_answers_on_search_fixtures(q, count, shortest):
    assert count_mgs(q) == count
    assert min_mgs_length(q) == shortest
    assert min_mgs_length(q, max_len=shortest, engine="dfs") == shortest


class TestBounds:
    KRONECKER_3 = make_quiver(["1", "2"], [("1", "2", 3)])

    def test_overflow_guard_on_the_kronecker_quiver(self):
        unsafe = Verdict(False, "arrow multiplicities exceed the safe mutation range")
        steps = ["2", "1"] * 20
        assert is_green_sequence(self.KRONECKER_3, steps) == unsafe
        assert is_maximal_green_sequence(self.KRONECKER_3, steps) == unsafe
        assert is_green_sequence(self.KRONECKER_3, ["2", "1"] * 10)

    def test_not_green_is_named_ahead_of_the_unsafe_range(self):
        # the 3-Kronecker run flags the state before step 24 unsafe, and
        # vertex 3 is red there: the colour is named, not the bound
        q = make_quiver(["1", "2", "3"], [("1", "2", 3)])
        steps = ["3"] + ["2", "1"] * 11 + ["2", "3"]
        not_green = Verdict(False, "vertex not green", 24, "3")
        assert is_green_sequence(q, steps) == not_green
        assert is_maximal_green_sequence(q, steps) == not_green

    # an arrow of multiplicity 2**31 makes the start state itself unsafe;
    # on the 3-Kronecker quiver the breadth-first and iterative-deepening
    # minimum finds the length-2 MGS before the infinite path gets large
    HUGE = make_quiver(["1", "2"], [("1", "2", 2**31)])

    @pytest.mark.parametrize(
        "search",
        [
            lambda: count_mgs(TestBounds.KRONECKER_3, node_cap=10**4),
            lambda: list(enumerate_green_sequences(TestBounds.KRONECKER_3, node_cap=10**4)),
            lambda: count_mgs(TestBounds.HUGE, node_cap=10**4),
            lambda: min_mgs_length(TestBounds.HUGE, node_cap=10**4),
            lambda: min_mgs_length(TestBounds.HUGE, max_len=100, node_cap=10**4, engine="dfs"),
        ],
        ids=["count", "enumerate", "count-start", "min-bfs-start", "min-dfs-start"],
    )
    def test_oracle_overflow_guard(self, search):
        # the guard, not the node cap, ends the search
        with pytest.raises(BudgetExceededError, match="safe search range"):
            search()

    def test_mutate_refuses_an_unsafe_frozen_entry(self):
        q = make_quiver(["1", "2", "f"], [("1", "2"), ("1", "f", 2**31), ("f", "2")])
        with pytest.raises(QuiverError, match="exceed the safe mutation range"):
            mutate(IceQuiver(q, frozenset(["f"])), "2")

    def test_n800_verification_memory(self):
        dec = random_decomposition(5, 80, 800)
        q, seq = underlying_quiver(dec), construct_mgs(dec)
        tracemalloc.start()
        try:
            verdict = is_maximal_green_sequence(q, seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict == Verdict(True)
        assert peak < 50 * 2**20


@FEW
@given(green_runs())
def test_c_rows_are_sign_coherent_and_determine_b(run):
    """Along a green run every c-vector is sign-coherent, and B = C B0 C^T.

    The second identity is tropical duality (Nakanishi-Zelevinsky) with the
    c-vectors as the rows of C.  Both are read off the public states.
    """
    q, steps = run
    b0 = np.array(q.matrix, dtype=object)
    for end in range(len(steps) + 1):
        state = final_state(frame(q), steps[:end])
        m = np.array(state.quiver.matrix, dtype=object)
        rows = [state.quiver.index(v) for v in q.vertices]
        frozen = [state.quiver.index(v + "'") for v in q.vertices]
        b, c = m[np.ix_(rows, rows)], m[np.ix_(rows, frozen)]
        for row in c:
            assert (row >= 0).all() or (row <= 0).all()
            assert row.any()
        assert (c.dot(b0).dot(c.T) == b).all()
