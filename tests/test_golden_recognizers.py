"""Golden pin of ``auto_decompose``: (family, chains, obliques) on a seeded set.

The set holds type-A and type-D mutation walks, trees of oriented cycles,
Hernandez-Leclerc windows and random quivers (mostly rejects).  The inputs
and the answers live in ``data/auto_decompose_golden.json``, so the pin does
not depend on the generators below staying the same.  A change to which
decomposition a recognizer returns shows up as an edit of that file.

Regenerate it (only for a deliberate change of answers) with::

    PYTHONPATH=src python tests/test_golden_recognizers.py
"""

from __future__ import annotations

import json
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import golden_quivers
from greenseq import cartan, hl
from greenseq.families import auto_decompose
from greenseq.quiver import Quiver, make_quiver

GOLDEN = Path(__file__).parent / "data" / "auto_decompose_golden.json"


def _mutate(b: np.ndarray, k: int) -> np.ndarray:
    col, row = b[:, k], b[k, :]
    new = b + np.outer(np.maximum(col, 0), np.maximum(row, 0)) - np.outer(
        np.maximum(-col, 0), np.maximum(-row, 0)
    )
    new[k, :] = -row
    new[:, k] = -col
    return new


def _walk(n: int, edges: list[tuple[int, int]], rng: random.Random) -> Quiver:
    b = np.zeros((n, n), dtype=np.int64)
    for u, v in edges:
        b[u, v], b[v, u] = 1, -1
    for _ in range(3 * n):
        b = _mutate(b, rng.randrange(n))
    return Quiver(tuple(f"v{i}" for i in range(n)), b)


def _cycle_tree(rng: random.Random) -> Quiver:
    labels, arrows = ["x0"], []
    for c in range(rng.randint(1, 4)):
        length = rng.randint(3, 6)
        start = labels[0] if c == 0 else rng.choice(labels)
        ring = [start] + [f"x{c}_{i}" for i in range(1, length)]
        labels.extend(ring[1:])
        arrows.extend((ring[i], ring[(i + 1) % length]) for i in range(length))
    return make_quiver(labels, arrows)


def _random(rng: random.Random) -> Quiver:
    n = rng.randint(1, 7)
    b = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.45:
                m = rng.choice((1, 1, 1, 2)) * rng.choice((1, -1))
                b[i, j], b[j, i] = m, -m
    return Quiver(tuple(f"v{i}" for i in range(n)), b)


def golden_inputs() -> list[tuple[str, Quiver]]:
    """The seeded set: (kind, quiver) in a fixed order."""
    from greenseq.cartan import cartan_data
    from greenseq.hl import hl_ball, hl_quiver

    rng = random.Random(20261019)
    out: list[tuple[str, Quiver]] = []
    for n in range(3, 8):
        path = [(i + 1, i) for i in range(n - 1)]
        out += [("type_a", _walk(n, path, rng)) for _ in range(12)]
    for n in range(4, 9):
        fork = [(i + 1, i) for i in range(n - 2)] + [(n - 1, n - 3)]
        out += [("type_d", _walk(n, fork, rng)) for _ in range(24)]
    out += [("cycles", _cycle_tree(rng)) for _ in range(15)]
    for letter, rank in [("A", 3), ("B", 3), ("C", 2), ("D", 4), ("G", 2), ("F", 4)]:
        cartan = cartan_data(letter, rank)
        for radius in (1, 2, 3):
            out.append(("hl", hl_quiver(cartan, hl_ball(cartan, (rank, 0), radius))))
    out += [("random", _random(rng)) for _ in range(64)]
    return out


def _record(kind: str, q: Quiver) -> dict:
    """One input and its answer; vertices are indices into ``labels``."""
    index = {v: i for i, v in enumerate(q.vertices)}
    found = auto_decompose(q)
    answer = None
    if found is not None:
        family, dec = found
        answer = [
            family,
            [[index[v] for v in chain] for chain in dec.chains],
            [[index[dec.label_of(s)], index[dec.label_of(t)]] for s, t in dec.obliques],
        ]
    return {
        "kind": kind,
        "labels": list(q.vertices),
        "arrows": [[index[u], index[v], m] if m > 1 else [index[u], index[v]]
                   for u, v, m in q.arrows()],
        "answer": answer,
    }


def _load() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


# the regeneration run below starts without the file; the coverage test
# fails on a missing file
@pytest.mark.parametrize(
    "record", _load() if GOLDEN.exists() else [], ids=lambda r: r["kind"]
)
def test_auto_decompose_matches_golden(record):
    labels = record["labels"]
    arrows = [(labels[a[0]], labels[a[1]], *a[2:]) for a in record["arrows"]]
    q = make_quiver(labels, arrows)
    assert _record(record["kind"], q) == record


class TestReadOnce:
    """Within one ``auto_decompose`` call every recognizer reads the same
    facts of the quiver: each block is walked for its oriented cycle at
    most once, each label is parsed once, and Cartan data is built once
    per type and rank for the whole process."""

    def test_each_block_walked_at_most_once(self, monkeypatch):
        walked: Counter = Counter()
        real = Quiver._cycle_on

        def counting(self, inside):
            walked[id(self), frozenset(inside)] += 1
            return real(self, inside)

        monkeypatch.setattr(Quiver, "_cycle_on", counting)
        censused = 0
        for kind, q in golden_quivers():
            walked.clear()
            auto_decompose(q)
            # the type-D ears and the subquivers of type-A parts are walked
            # on their own; only walks of a block of q itself count here
            blocks = {frozenset(map(q.index, b)) for b in q._blocks}
            on_blocks = [n for (owner, s), n in walked.items() if owner == id(q) and s in blocks]
            assert all(n == 1 for n in on_blocks), kind
            censused += bool(on_blocks)
        assert censused > 200

    def test_each_label_parsed_once(self, monkeypatch):
        parsed: Counter = Counter()
        real = hl.parse_hl_label

        def counting(label):
            parsed[label] += 1
            return real(label)

        monkeypatch.setattr(hl, "parse_hl_label", counting)
        for kind, q in golden_quivers():
            parsed.clear()
            auto_decompose(q)
            assert all(n == 1 for n in parsed.values()), kind
            if kind == "hl":
                assert set(parsed) == set(q.vertices)

    def test_repeated_cartan_data_builds_nothing(self, monkeypatch):
        built = []
        real = cartan.CartanData

        def counting(*args):
            built.append(args[:2])
            return real(*args)

        monkeypatch.setattr(cartan, "CartanData", counting)
        windows = [q for kind, q in golden_quivers() if kind == "hl"]
        first = [auto_decompose(q) for q in windows]
        built.clear()
        again = [auto_decompose(q) for q in windows]
        assert not built
        assert [f[0] for f in first] == [a[0] for a in again] == ["hl"] * len(windows)


def test_golden_set_covers_every_family_and_type_d_kind():
    from greenseq.type_d import classify_type_d

    records = _load()
    families = {r["answer"][0] if r["answer"] else None for r in records}
    assert families == {"hl", "mu_a", "mu_d", "oriented_cycles", None}
    kinds = set()
    for r in records:
        if r["answer"] and r["answer"][0] == "mu_d":
            labels = r["labels"]
            q = make_quiver(labels, [(labels[a[0]], labels[a[1]], *a[2:]) for a in r["arrows"]])
            kinds.add(classify_type_d(q).kind)
    assert kinds == {"I", "II", "III", "IV"}


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    rows = [json.dumps(_record(kind, q), separators=(",", ":")) for kind, q in golden_inputs()]
    GOLDEN.write_text("[\n" + ",\n".join(rows) + "\n]\n", encoding="utf-8")
    print(f"wrote {len(rows)} records to {GOLDEN}")
