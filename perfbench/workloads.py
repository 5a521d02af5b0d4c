"""The four workloads: input generators, operations and output checks.

Every input is made from the workload seed by the generators below, is
written to files (CLI workloads) or kept as a plain dict (``construct``),
and carries the answer the program must give, fixed by how the input was
built.  An operation returns ``None`` when the program's output matches and
a short message otherwise; the runner counts messages and exceptions as
failures and keeps going.

All ``greenseq`` imports happen inside functions, after ``run.py`` has put
the checkout's ``src`` directory on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# One node budget for every ``search`` op, a few times above the largest
# finite input (the linear A5 and oriented 5-cycle counts spend about
# 12k and 15k mutations).
SEARCH_NODE_CAP = 60_000


@dataclass
class Workload:
    """Loop operations, known-defect probes run outside the loop, and the
    round length: a timed loop only ends after a whole number of rounds."""

    ops: list
    probes: list
    round: int


@dataclass
class Op:
    """One closed-loop request: ``call`` runs it and returns a failure message or None."""

    kind: str
    size: int
    call: Callable[[], str | None]


def stratified_sizes(lo: int, hi: int, strata: int, per: int) -> list[int]:
    """``strata * per`` distinct sizes filling [lo, hi] evenly in log scale.

    They come in rounds of one size per stratum (a ``1/strata`` share of the
    range), so every round holds every size; the place within each stratum
    is permuted from round to round, so the rounds cost about the same and
    a run's mix hardly depends on how many rounds it completes.  Distinct
    sizes keep latency quantiles off the edge of a cluster of equal sizes.
    """
    last = strata * per - 1
    return [
        round(lo * (hi / lo) ** ((s * per + (r + 7 * s) % per) / last))
        for r in range(per)
        for s in range(strata)
    ]


# ---------------------------------------------------------------- CLI calls


def run_cli(argv: list[str]) -> tuple[int, dict | None]:
    """``greenseq.cli.main(argv)`` in-process; returns (exit code, stdout JSON)."""
    from greenseq import cli  # looked up per call so a traced run sees the wrapper

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    text = out.getvalue().strip()
    return code, json.loads(text) if text else None


def expect(code: int, report: dict | None, want_code: int, **fields) -> str | None:
    if code != want_code:
        return f"exit {code}, expected {want_code}"
    for key, value in fields.items():
        got = (report or {}).get(key)
        if got != value:
            return f"{key}={got!r}, expected {value!r}"
    return None


def write_json(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def quiver_dict(labels: list[str], arrows: list[tuple[str, str, int]]) -> dict:
    return {
        "vertices": labels,
        "arrows": [{"from": u, "to": v, "mult": m} for u, v, m in arrows],
    }


def matrix_quiver_dict(labels: list[str], b: np.ndarray) -> dict:
    arrows = [
        (labels[i], labels[j], int(b[i, j]))
        for i in range(len(labels))
        for j in range(len(labels))
        if b[i, j] > 0
    ]
    return quiver_dict(labels, arrows)


def chain_lengths_sum(lengths) -> int:
    return sum(k * (k + 1) // 2 for k in lengths)


# ---------------------------------------------------------------- verify


def expected_verify_cost(n: int) -> float:
    """About the mean of steps x (2N)^2 over ``random_decomposition(_, n // 10, n)``.

    N is the vertex count and steps the MGS length; the result multiplies
    their means, which is close enough to centre a window.  The generator starts
    n // 10 chains at length 1 and adds each of the other n - n // 10
    vertices with probability 0.8 to a uniformly chosen chain.
    """
    chains = n // 10
    trials, p = n - chains, 0.8 / chains
    mean_k = 1 + trials * p
    mean_k2 = trials * p * (1 - p) + mean_k**2
    vertices = chains + 0.8 * trials
    return chains * (mean_k2 + mean_k) / 2 * (2 * vertices) ** 2


def steady_decomposition(seed: int, n: int):
    """First of up to 100 draws whose verify cost is within 6% of the mean.

    At a fixed n the cost of one draw varies by 15-40%, which would make a
    run's latency quantiles depend on the seed; this keeps the structure
    random and the cost steady.  Falls back to the closest draw.
    """
    from greenseq.decomposition import random_decomposition

    want, best = expected_verify_cost(n), None
    for attempt in range(100):
        dec = random_decomposition(seed * 100 + attempt, n // 10, n)
        lengths = [len(c) for c in dec.chains]
        miss = abs(chain_lengths_sum(lengths) * (2 * sum(lengths)) ** 2 / want - 1)
        if best is None or miss < best[0]:
            best = (miss, dec)
        if miss <= 0.06:
            break
    return best[1]


def build_verify(seed: int, workdir: Path, toy: bool) -> Workload:
    """``greenseq verify`` on random chain decompositions, n from 20 to 130.

    120 inputs, each with its own size (:func:`stratified_sizes`, rounds of
    12) and structure (:func:`steady_decomposition`).

    One input in five is negative and fails at a known point: ``early``
    (v, w, v with w not adjacent to v: step 2), ``late`` (a red vertex
    appended: the step after the MGS) or ``maximality`` (the last step
    dropped: green but not maximal).
    """
    from greenseq.decomposition import construct_mgs, underlying_quiver
    from greenseq.serialize import quiver_to_dict

    if toy:
        sizes, kinds = [20, 30] * 3, ["mgs", "early", "late", "maximality"]
    else:
        sizes = stratified_sizes(20, 130, 12, 10)
        kinds = ["mgs"] * 4 + ["early"] + ["mgs"] * 4 + ["late"] + ["mgs"] * 4 + ["maximality"]
    ops = []
    for idx, n in enumerate(sizes):
        kind = kinds[idx % len(kinds)]
        dec = steady_decomposition(seed * 1000 + idx, n)
        q = underlying_quiver(dec)
        mgs = list(construct_mgs(dec).steps)
        steps = mgs
        check: Callable[[int, dict | None], str | None]
        if kind == "mgs":
            want = chain_lengths_sum(len(c) for c in dec.chains)
            check = lambda c, r, L=want: expect(c, r, 0, length=L, maximal_green=True)
        elif kind == "early":
            v = q.vertices[0]
            w = next(x for x in q.vertices[1:] if q.b(v, x) == 0)
            steps = [v, w, v]
            check = lambda c, r: expect(c, r, 1, step_index=2, green=False)
        elif kind == "late":
            steps = mgs + [next(x for x in q.vertices if x != mgs[-1])]
            check = lambda c, r, L=len(mgs): expect(c, r, 1, step_index=L, green=False)
        else:
            steps = mgs[:-1]
            check = lambda c, r: expect(
                c, r, 1, green=True, maximal_green=False, step_index=None
            )
        qpath = write_json(workdir / f"q{idx}.json", quiver_to_dict(q))
        spath = write_json(
            workdir / f"s{idx}.json", {"steps": steps, "order": "execution"}
        )
        argv = ["verify", qpath, spath]
        ops.append(
            Op(f"verify:{kind}", len(q.vertices), lambda a=argv, ch=check: ch(*run_cli(a)))
        )
    return Workload(ops, [], 1 if toy else 12)


# ---------------------------------------------------------------- construct


def build_construct(seed: int, workdir: Path, toy: bool) -> Workload:
    """Library path on decomposition dicts: load, construct, check, n from 400 to 1600.

    39 inputs of distinct sizes (:func:`stratified_sizes`, rounds of 13).
    """
    from greenseq.decomposition import decomposition_to_dict, random_decomposition

    sizes = [40, 60] if toy else stratified_sizes(400, 1600, 13, 3)
    ops = []
    for idx, n in enumerate(sizes):
        data = decomposition_to_dict(random_decomposition(seed * 1000 + idx, n // 10, n))
        ops.append(Op("construct", sum(map(len, data["chains"])), lambda d=data: construct_op(d)))
    return Workload(ops, [], 1 if toy else 13)


def construct_op(data: dict) -> str | None:
    from greenseq import decomposition

    dec = decomposition.decomposition_from_dict(data)
    steps = decomposition.construct_mgs(dec).steps
    want = chain_lengths_sum(len(c) for c in data["chains"])
    if len(steps) != want:
        return f"length {len(steps)}, expected {want}"
    seen = Counter(steps)
    for chain in data["chains"]:
        k = len(chain)
        for j, v in enumerate(chain, start=1):
            if seen[v] != k - j + 1:
                return f"{v} appears {seen[v]} times, expected {k - j + 1}"
    return None


# ---------------------------------------------------------------- auto_mgs


def mutate_matrix(b: np.ndarray, k: int) -> np.ndarray:
    """Fomin-Zelevinsky mutation of a skew-symmetric matrix at index k."""
    col, row = b[:, k], b[k, :]
    new = b + np.outer(np.maximum(col, 0), np.maximum(row, 0)) - np.outer(
        np.maximum(-col, 0), np.maximum(-row, 0)
    )
    new[k, :] = -row
    new[:, k] = -col
    return new


def mutation_walk(b: np.ndarray, rng: random.Random, steps: int) -> np.ndarray:
    for _ in range(steps):
        b = mutate_matrix(b, rng.randrange(len(b)))
    return b


def oriented_triangles(b: np.ndarray) -> int:
    n = len(b)
    return sum(
        1
        for i in range(n)
        for j in range(i + 1, n)
        if b[i, j]
        for k in range(j + 1, n)
        if b[j, k] and b[k, i] and b[i, j] == b[j, k] == b[k, i]
    )


def linear_matrix(n: int, edges: list[tuple[int, int]]) -> np.ndarray:
    b = np.zeros((n, n), dtype=np.int64)
    for u, v in edges:
        b[u, v], b[v, u] = 1, -1
    return b


def type_a_walk(rng: random.Random, n: int) -> tuple[dict, int]:
    """Random quiver in the mutation class of linear A_n; MGS length n + triangles."""
    b = mutation_walk(linear_matrix(n, [(i + 1, i) for i in range(n - 1)]), rng, 3 * n)
    labels = [f"v{i:02d}" for i in range(n)]
    return matrix_quiver_dict(labels, b), n + oriented_triangles(b)


def type_d_walk(rng: random.Random, n: int) -> dict:
    """Random quiver in the mutation class of D_n (path 0..n-2 plus a fork)."""
    edges = [(i + 1, i) for i in range(n - 2)] + [(n - 1, n - 3)]
    b = mutation_walk(linear_matrix(n, edges), rng, 3 * n)
    return matrix_quiver_dict([f"v{i:02d}" for i in range(n)], b)


def cycle_tree(rng: random.Random, cycles: int) -> tuple[dict, int]:
    """Tree of oriented cycles, each glued at one vertex to a random earlier one.

    The cycle lengths run 5, 6, 3, 4, 5, 6, 3, ..., so a tree of a given
    size always has the same vertex count and MGS length (its verification
    cost and memory stay put) while its shape is random.  The first cycle
    has length 5, which rules out mutation types A and D, so the
    oriented-cycle decomposer must answer.  The constructed sequence has
    length sum over cycles of L(L-1)/2, plus one.
    """
    lengths = [(5, 6, 3, 4)[c % 4] for c in range(cycles)]
    labels = ["x0"]
    arrows = []
    for c, length in enumerate(lengths):
        start = labels[0] if c == 0 else rng.choice(labels)
        ring = [start] + [f"x{c}_{i}" for i in range(1, length)]
        labels.extend(ring[1:])
        arrows.extend((ring[i], ring[(i + 1) % length], 1) for i in range(length))
    return quiver_dict(labels, arrows), sum(L * (L - 1) // 2 for L in lengths) + 1


def hl_window(rng: random.Random) -> tuple[dict, int]:
    """Connected Hernandez-Leclerc window centred on the last Dynkin node.

    Centring on node ``rank`` puts every node index up to the rank in the
    window, so auto-detection sees the generating type.  The expected length
    sums k(k+1)/2 over the vertical runs (i, r), (i, r - 2 d_i), ...
    """
    from greenseq.cartan import cartan_data
    from greenseq.hl import hl_ball, hl_quiver
    from greenseq.serialize import quiver_to_dict

    letter, rank = rng.choice(
        [(x, r) for x in "ABC" for r in range(2, 7)]
        + [("D", r) for r in range(4, 7)]
        + [("E", 6), ("F", 4), ("G", 2)]
    )
    cartan = cartan_data(letter, rank)
    window = hl_ball(cartan, (rank, 0), rng.randint(2, 4))
    params: dict[int, set[int]] = {}
    for i, r in window:
        params.setdefault(i, set()).add(r)
    runs = []
    for i, rs in params.items():
        step = 2 * cartan.d(i)
        for top in (r for r in rs if r + step not in rs):
            k, r = 0, top
            while r in rs:
                k, r = k + 1, r - step
            runs.append(k)
    return quiver_to_dict(hl_quiver(cartan, window)), chain_lengths_sum(runs)


def chain_reject(rng: random.Random) -> dict:
    """Multi-chain random decomposition that no family recognizer may accept.

    Drawn until two biconnected blocks have four or more vertices (type A
    has none, type D at most one) and some zigzag has three or more
    obliques, which closes a non-oriented cycle (rules out the
    oriented-cycle family).  Labels are not (i, r) pairs, so HL is out too.
    """
    import networkx as nx
    from greenseq.decomposition import random_decomposition, underlying_quiver
    from greenseq.serialize import quiver_to_dict

    while True:
        n = rng.randint(30, 60)
        dec = random_decomposition(rng.randrange(10**9), n // 10, n)
        zigzags = Counter(tuple(sorted((u.chain, v.chain))) for u, v in dec.obliques)
        if max(zigzags.values(), default=0) < 3:
            continue
        q = underlying_quiver(dec)
        graph = nx.Graph((u, v) for u, v, _ in q.arrows())
        if sum(len(block) >= 4 for block in nx.biconnected_components(graph)) >= 2:
            return quiver_to_dict(q)


def dense_reject(rng: random.Random) -> dict:
    """Dense 9-10 vertex quiver with more than 10000 simple cycles.

    Recognition stops at the cycle budget (``CycleBudgetExceededError``),
    so every dense reject costs about the same.  The input is outside every
    family anyway: it has at least 2n arrows (types A and D have at most
    about 1.5n) and a non-oriented triangle (rules out the oriented-cycle
    family), and its labels rule out HL.
    """
    import networkx as nx

    while True:
        n = rng.randint(9, 10)
        b = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.8:
                    sign = 1 if rng.random() < 0.5 else -1
                    b[i, j], b[j, i] = sign, -sign
        b[0, 1], b[1, 2], b[0, 2] = 1, 1, 1
        b[1, 0], b[2, 1], b[2, 0] = -1, -1, -1
        graph = nx.Graph((i, j) for i in range(n) for j in range(n) if b[i, j] > 0)
        cycles = sum(1 for _ in itertools.islice(nx.simple_cycles(graph), 10001))
        if int((b > 0).sum()) >= 2 * n and cycles > 10000:
            return matrix_quiver_dict([f"v{i}" for i in range(n)], b)


def build_auto_mgs(seed: int, workdir: Path, toy: bool) -> Workload:
    """``greenseq mgs`` with no decomposition: every family recognizer in turn.

    Twenty rounds of 24 inputs, each round a fresh draw: five HL windows,
    type-A walks (n = 10, 18, 33, 60), type-D walks (n = 6, 17, 50) and the
    four fig10 fixtures, cycle trees of 10, 15 and 20 cycles, and five
    rejects (three chain, two dense).  A run takes about one op per input,
    so its latency quantiles rest on some 500 independent draws.  Trees stop
    at 20 cycles and two rejects are dense so that recognition, not the
    self-verification of accepted inputs, stays the largest share.
    """
    from greenseq.fixtures import fig10_quiver
    from greenseq.serialize import quiver_to_dict

    rng = random.Random(seed)
    if toy:
        rounds, hl_count, a_sizes, d_sizes, trees, rejects = 1, 1, [6], [6], [3], (1, 1)
    else:
        rounds, hl_count, a_sizes, d_sizes, trees, rejects = (
            20, 5, [10, 18, 33, 60], [6, 17, 50], [10, 15, 20], (3, 2)
        )
    # (kind, quiver dict, exit code, family, length)
    specs: list[tuple[str, dict, int, str | None, int | None]] = []
    for _ in range(rounds):
        for _ in range(hl_count):
            data, length = hl_window(rng)
            specs.append(("hl", data, 0, "hl", length))
        for n in a_sizes:
            data, length = type_a_walk(rng, n)
            specs.append(("type_a", data, 0, "mu_a", length))
        for n in d_sizes:
            specs.append(("type_d", type_d_walk(rng, n), 0, "mu_d", None))
        for kind in "abcd":
            specs.append(("type_d", quiver_to_dict(fig10_quiver(kind)), 0, "mu_d", None))
        for m in trees:
            data, length = cycle_tree(rng, m)
            specs.append(("cycles", data, 0, "oriented_cycles", length))
        specs.extend(("reject", chain_reject(rng), 2, None, None) for _ in range(rejects[0]))
        specs.extend(("reject", dense_reject(rng), 2, None, None) for _ in range(rejects[1]))

    ops = []
    for idx, (kind, data, code, family, length) in enumerate(specs):
        argv = ["mgs", write_json(workdir / f"q{idx}.json", data)]
        ops.append(
            Op(
                f"auto_mgs:{kind}",
                len(data["vertices"]),
                lambda a=argv, c=code, f=family, L=length: check_mgs(*run_cli(a), c, f, L),
            )
        )
    return Workload(ops, [], len(ops) // rounds)


def check_mgs(code, report, want_code, family, length) -> str | None:
    if want_code != 0:
        return expect(code, report, want_code)
    fields = {"family": family, "verified": True}
    if length is not None:
        fields["length"] = length
    bad = expect(code, report, 0, **fields)
    if bad is None and report["length"] != report["expected_length"]:
        return f"length {report['length']} != expected_length {report['expected_length']}"
    return bad


# ---------------------------------------------------------------- search


def green_dp(b: np.ndarray) -> tuple[int, int, int]:
    """(MGS count, min MGS length, green sequences) of a quiver, by memoised DP.

    Works on the framed n x 2n matrix [B | I]; a state's answers are sums
    over its green children, since green mutation never revisits a state.
    The green-sequence total equals the mutations a depth-first enumeration
    makes, which sizes the node budget.
    """
    n = len(b)
    start = np.zeros((2 * n, 2 * n), dtype=np.int64)
    start[:n, :n] = b
    start[:n, n:] = np.eye(n, dtype=np.int64)
    start[n:, :n] = -np.eye(n, dtype=np.int64)
    memo: dict[bytes, tuple[int, int, int]] = {}

    def solve(state: np.ndarray) -> tuple[int, int, int]:
        key = state.tobytes()
        if key in memo:
            return memo[key]
        frozen = state[:n, n:]
        green = [k for k in range(n) if (frozen[k] >= 0).all() and (frozen[k] > 0).any()]
        if not green:
            result = (1, 0, 0)
        else:
            count, best, paths = 0, math.inf, 0
            for k in green:
                c, m, p = solve(mutate_matrix(state, k))
                count, best, paths = count + c, min(best, m + 1), paths + p + 1
            result = (count, best, paths)
        memo[key] = result
        return result

    return solve(start)


def build_search(seed: int, workdir: Path, toy: bool) -> Workload:
    """``greenseq search`` in count mode, then min mode, on one quiver per op.

    The quivers are A3, A4, A5, D4, the oriented 3-, 4- and 5-cycles and
    two random samples of the A3 mutation class.  The samples are cheaper
    than A4, so the median op is always A4 and the p90 op always A5,
    whatever the seed.  Count answers come from :func:`green_dp`; min
    answers from the library's iterative-deepening engine, cross-checked
    against the DP.

    The probes count on quivers with an infinite green path (Kronecker,
    acyclic 5-tournament), whose documented answer is exit 3.  They run
    outside the timed loop because they crash with ``RecursionError``.
    """
    from greenseq.oracle import min_mgs_length
    from greenseq.quiver import Quiver

    rng = random.Random(seed)
    line = lambda n: linear_matrix(n, [(i + 1, i) for i in range(n - 1)])
    ring = lambda n: linear_matrix(n, [(i, (i + 1) % n) for i in range(n)])
    d4 = linear_matrix(4, [(1, 0), (1, 2), (1, 3)])
    finite = [
        ("A3", line(3)), ("A4", line(4)), ("A5", line(5)), ("D4", d4),
        ("C3", ring(3)), ("C4", ring(4)), ("C5", ring(5)),
        ("A3walk", mutation_walk(line(3), rng, 9)),
        ("A3walk", mutation_walk(line(3), rng, 9)),
    ]
    if toy:
        finite = [finite[0], finite[3], finite[-1]]

    ops = []
    for idx, (name, b) in enumerate(finite):
        labels = [f"v{i}" for i in range(len(b))]
        path = write_json(workdir / f"q{idx}.json", matrix_quiver_dict(labels, b))
        count, best, paths = green_dp(b)
        if paths * 3 > SEARCH_NODE_CAP:
            raise RuntimeError(f"{name}: {paths} green sequences, node cap too small")
        dfs = min_mgs_length(Quiver(tuple(labels), b), max_len=best, engine="dfs")
        if dfs != best:
            raise RuntimeError(f"{name}: dfs min {dfs} disagrees with DP min {best}")
        ops.append(
            Op(f"search:{name}", len(b), lambda p=path, c=count, m=best: search_pair(p, c, m))
        )

    probes = []
    kronecker = np.array([[0, 2], [-2, 0]], dtype=np.int64)
    tournament = linear_matrix(5, [(j, i) for i in range(5) for j in range(i + 1, 5)])
    for name, b in (("kronecker", kronecker), ("tournament5", tournament)):
        labels = [f"v{i}" for i in range(len(b))]
        path = write_json(workdir / f"{name}.json", matrix_quiver_dict(labels, b))
        argv = ["search", path, "--mode", "count", "--node-cap", str(SEARCH_NODE_CAP)]
        probes.append(
            Op(
                f"search:infinite:{name}",
                len(b),
                lambda a=argv: expect(*run_cli(a), 3, budget_exhausted=True),
            )
        )
    return Workload(ops, probes, len(ops))


def search_pair(path: str, count: int, best: int) -> str | None:
    cap = ["--node-cap", str(SEARCH_NODE_CAP)]
    bad = expect(*run_cli(["search", path, "--mode", "count", *cap]), 0, count=count, min_length=best)
    return bad or expect(*run_cli(["search", path, "--mode", "min", *cap]), 0, min_length=best)


BUILDERS = {
    "verify": build_verify,
    "construct": build_construct,
    "auto_mgs": build_auto_mgs,
    "search": build_search,
}
