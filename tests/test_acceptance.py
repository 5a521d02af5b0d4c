"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS line and
timing for every criterion.
"""

from __future__ import annotations

import random
import time

from conftest import random_ice_quiver, reference_cycles
from greenseq.cartan import cartan_data
from greenseq.cycles import all_cycles_oriented_decompose
from greenseq.decomposition import (
    check_step_shapes,
    construct_mgs,
    expected_mgs_length,
    random_decomposition,
    underlying_quiver,
    validate_chains,
)
from greenseq.families import linear_a
from greenseq.fixtures import (
    fig4_mgs,
    fig4_quiver,
    fig7_mgs,
    fig7_quiver,
    fig8_eleven_step,
    fig8_quiver,
    fig8_thirteen_step,
    fig8_twelve_step,
    fig10_quiver,
)
from greenseq.graph_rule import mutate_by_graph_rule
from greenseq.hl import hl_decompose
from greenseq.oracle import count_mgs, min_mgs_length
from greenseq.quiver import (
    full_subquiver,
    is_maximal_green_sequence,
    mutate,
    restrict_sequence,
)
from greenseq.type_a import type_a_decompose
from greenseq.type_d import classify_type_d, type_d_decompose


def report(number: int, started: float, budget: float, detail: str) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s (> {budget}s)"
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.2f}s) {detail}")


def test_criterion_1_single_chain_sequences():
    started = time.perf_counter()
    for n in range(1, 7):
        q, dec = linear_a(n)
        seq = construct_mgs(dec)
        assert len(seq) == n * (n + 1) // 2
        assert is_maximal_green_sequence(q, seq)
    report(1, started, 1.0, "single chains n=1..6, lengths n(n+1)/2")


def test_criterion_2_rank_two_window():
    started = time.perf_counter()
    q = fig4_quiver()
    dec = hl_decompose(q, cartan_data("B", 2))
    assert sorted(dec.chain_lengths) == [3, 3, 6]
    seq = construct_mgs(dec)
    assert len(seq) == 33
    assert is_maximal_green_sequence(q, seq)
    literal = fig4_mgs()
    assert len(literal) == 33
    assert is_maximal_green_sequence(q, literal)
    report(2, started, 1.0, "12-vertex window: chains (3,3,6), both 33-step sequences")


def test_criterion_3_tree_of_cycles():
    started = time.perf_counter()
    q = fig7_quiver()
    literal = fig7_mgs()
    assert len(literal) == 36
    assert is_maximal_green_sequence(q, literal)
    dec = all_cycles_oriented_decompose(q)
    assert dec is not None and dec.n_chains == 6
    assert validate_chains(dec.chains, dec.obliques) == []
    seq = construct_mgs(dec)
    assert len(seq) == 36
    assert is_maximal_green_sequence(q, seq)
    report(3, started, 1.0, "17-vertex tree of cycles: literal and constructed 36-step")


def test_criterion_4_seven_vertex_quiver():
    started = time.perf_counter()
    q = fig8_quiver()
    # (i) both published sequences
    twelve, thirteen = fig8_twelve_step(), fig8_thirteen_step()
    assert len(twelve) == 12 and is_maximal_green_sequence(q, twelve)
    assert len(thirteen) == 13 and is_maximal_green_sequence(q, thirteen)
    # (ii) constructed sequence from the triangle peel
    dec = type_a_decompose(q)
    seq = construct_mgs(dec)
    assert len(seq) == 10
    assert is_maximal_green_sequence(q, seq)
    # (iii) brute-force minimum matches vertices + triangles
    triangles = [c for c, _ in reference_cycles(q) if len(c) == 3]
    assert min_mgs_length(q) == 10 == len(q.vertices) + len(triangles)
    # (iv) the published 11-step sequence: record its verdict; it verifies
    # true but exceeds the minimum by one, and no valid chain decomposition
    # of this quiver has chain lengths summing to 11
    eleven = fig8_eleven_step()
    verdict = is_maximal_green_sequence(q, eleven)
    assert bool(verdict) is True
    print(
        "ACCEPTANCE 4 note: 11-step reference sequence verifies "
        f"{bool(verdict)}; minimal length is 10, so it is one step above "
        "minimal and not produced by the triangle-peel recipe"
    )
    report(4, started, 60.0, "12/13-step verify; constructed 10; minimum 10 = 7 + 3")


def test_criterion_5_randomized_construction_suite():
    started = time.perf_counter()
    for i in range(200):
        dec = random_decomposition(1000 + i, i % 4 + 1, 12)
        assert dec.n_chains <= 4 and sum(dec.chain_lengths) <= 12
        q = underlying_quiver(dec)
        seq = construct_mgs(dec)
        assert len(seq) == expected_mgs_length(dec)
        assert is_maximal_green_sequence(q, seq)
        assert check_step_shapes(dec, seq) == []
        for chain in dec.chains:
            sub = full_subquiver(q, chain)
            assert is_maximal_green_sequence(sub, restrict_sequence(seq, chain))
    report(5, started, 120.0, "200 seeded instances: verify, length, shapes, restriction")


def test_criterion_6_oracle_cross_checks():
    started = time.perf_counter()
    a2, _ = linear_a(2)
    assert count_mgs(a2) == 2
    for n in range(1, 5):
        q, _ = linear_a(n)
        assert count_mgs(q, max_len=n * (n + 1) // 2) >= 2 ** (n - 1)
    rng = random.Random(60_601)
    for _ in range(500):
        n = rng.randint(2, 7)
        iq = random_ice_quiver(rng, n, rng.randint(0, min(2, n - 1)))
        k = rng.choice(iq.mutable)
        assert mutate(mutate(iq, k), k) == iq
    for _ in range(1000):
        n = rng.randint(2, 7)
        iq = random_ice_quiver(rng, n, rng.randint(0, min(3, n - 1)))
        k = rng.choice(iq.mutable)
        assert mutate_by_graph_rule(iq, k) == mutate(iq, k)
    report(6, started, 120.0, "counts, 500 involutions, 1000 rule agreements")


def test_criterion_7_type_d_end_to_end():
    started = time.perf_counter()
    expected = {"a": "I", "b": "II", "c": "III", "d": "IV"}
    for kind, label in expected.items():
        q = fig10_quiver(kind)
        cls = classify_type_d(q)
        assert cls is not None and cls.kind == label
        dec = type_d_decompose(q, cls)
        assert validate_chains(dec.chains, dec.obliques) == []
        assert underlying_quiver(dec) == q
        assert is_maximal_green_sequence(q, construct_mgs(dec))
    report(7, started, 5.0, "four fixtures classify I-IV, decompose, verify")
