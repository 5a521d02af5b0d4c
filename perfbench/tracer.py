"""Span recorder for the traced run, installed from outside the program.

``Recorder.install`` wraps every public function of the ``greenseq``
modules and rebinds the wrapper in every module namespace that binds the
function, so calls between modules and inside one module are both seen
(``enumerate_simple_cycles`` is bound in ``cycles``, ``type_a`` and
``type_d``; ``is_maximal_green_sequence`` in ``quiver`` and ``cli``).
``uninstall`` puts the originals back.  Methods and private helpers are not
wrapped; their time counts towards the public function that called them.

A span is ``[id, parent, op, layer, name, start, end, error, info]``.  Spans
stay in memory and are written once, at the end of the run.  A layer's
self time is the time in its spans minus the time in their child spans.
Every layer runs on the caller's thread with no queue in between, so there
is no time spent waiting to record.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

LAYERS = (
    "cli",
    "serialize",
    "quiver",
    "decomposition",
    "families",
    "hl",
    "type_a",
    "type_d",
    "cycles",
    "cartan",
    "oracle",
)
# the family recognizers, whose combined share leads on ``auto_mgs``
RECOGNIZERS = ("families", "hl", "type_a", "type_d", "cycles", "cartan")

ID, PARENT, OP, LAYER, NAME, START, END, ERROR, INFO = range(9)

# what a span keeps of a call's arguments and result, for the counters
_INFO = {
    "cli.main": lambda args, result: [args[0][0] if args and args[0] else None, result],
    "cycles.enumerate_simple_cycles": lambda args, result: len(result),
    "families.auto_decompose": lambda args, result: int(result is not None),
}


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.op = -1
        self._bindings: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def begin(self, layer: str, name: str) -> list:
        span = [
            len(self.spans),
            self.stack[-1][ID] if self.stack else None,
            self.op,
            layer,
            name,
            time.perf_counter(),
            None,
            None,
            None,
        ]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[END] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def op_span(self, op_id: int):
        """Root span of one closed-loop operation; harness time is its self time."""
        self.op = op_id
        span = self.begin("bench", "bench.op")
        try:
            yield
        finally:
            self.end(span)

    # ------------------------------------------------------------ wrapping

    def _wrap(self, fn, layer: str):
        name = f"{layer}.{fn.__name__}"
        info = _INFO.get(name)
        rec = self

        if inspect.isgeneratorfunction(fn):
            # the span is on the stack only while the generator runs, so
            # calls made between two items land in the span of the consumer
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                span = rec.begin(layer, name)
                rec.stack.pop()
                items = maximal = 0
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        rec.stack.append(span)
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            rec.stack.pop()
                        items += 1
                        maximal += bool(item[1])
                        yield item
                except GeneratorExit:
                    raise
                except BaseException as exc:
                    span[ERROR] = type(exc).__name__
                    raise
                finally:
                    gen.close()
                    span[END] = time.perf_counter()
                    span[INFO] = [items, maximal]

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = rec.begin(layer, name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                rec.end(span)
            if info is not None:
                span[INFO] = info(args, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [importlib.import_module("greenseq")] + [
            importlib.import_module(f"greenseq.{layer}") for layer in LAYERS
        ]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith("greenseq") or layer not in LAYERS:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, layer)
                self._bindings.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._bindings):
            setattr(module, attr, obj)
        self._bindings.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------- analysis


class SpanIndex:
    """Durations, children and ancestry over a finished span list."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.by_id = {span[ID]: span for span in spans}
        self.children: dict[int, list[list]] = defaultdict(list)
        for span in spans:
            if span[PARENT] is not None:
                self.children[span[PARENT]].append(span)

    @staticmethod
    def duration(span: list) -> float:
        return span[END] - span[START]

    def self_time(self, span: list) -> float:
        return self.duration(span) - sum(
            self.duration(c) for c in self.children.get(span[ID], ())
        )

    def layer_self(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span[LAYER]] += self.self_time(span)
        return out

    def has_ancestor(self, span: list, names: set[str]) -> bool:
        parent = span[PARENT]
        while parent is not None:
            up = self.by_id[parent]
            if up[NAME] in names:
                return True
            parent = up[PARENT]
        return False

    def outermost(self, names: set[str]) -> list[list]:
        return [
            s for s in self.spans if s[NAME] in names and not self.has_ancestor(s, names)
        ]

    def inclusive(self, *names: str) -> float:
        return sum(self.duration(s) for s in self.outermost(set(names)))

    def exclusive(self, name: str, stages: set[str]) -> float:
        """Time in ``name`` minus the time in the other ``stages`` nested inside it."""
        others = stages - {name}
        total = 0.0
        for span in self.outermost({name}):
            total += self.duration(span)
            todo = list(self.children.get(span[ID], ()))
            while todo:
                child = todo.pop()
                if child[NAME] in others:
                    total -= self.duration(child)
                else:
                    todo.extend(self.children.get(child[ID], ()))
        return total

    def named(self, name: str) -> list[list]:
        return [s for s in self.spans if s[NAME] == name]


DECOMPOSITION_STAGES = {
    "decomposition.validate_chains",
    "decomposition.cover_relations",
    "decomposition.descending_order",
    "decomposition.construct_mgs",
    "decomposition.decompose_with_chains",
}
VERIFY_ENTRY = ("quiver.is_green_sequence", "quiver.is_maximal_green_sequence")


def layer_metrics(spans: list[list], ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as per-op means over ``ops`` traced operations."""
    idx = SpanIndex(spans)
    per_op = lambda value: value / ops
    ms = lambda seconds: 1000.0 * seconds / ops
    out: dict[str, tuple[float, str]] = {}

    layer_self = idx.layer_self()
    total = sum(layer_self.values()) or 1.0
    for layer in ("bench",) + LAYERS:
        out[f"{layer}.self_ms"] = (ms(layer_self.get(layer, 0.0)), "ms/op")
    out["recognizers.self_share"] = (
        sum(layer_self.get(layer, 0.0) for layer in RECOGNIZERS) / total,
        "ratio",
    )
    for layer in ("quiver", "decomposition", "oracle"):
        out[f"{layer}.self_share"] = (layer_self.get(layer, 0.0) / total, "ratio")

    mains = idx.named("cli.main")
    verify_ok = [s for s in mains if s[INFO] == ["verify", 0]]
    passes = sum(
        1
        for s in verify_ok
        for c in idx.children.get(s[ID], ())
        if c[NAME] in VERIFY_ENTRY
    )
    out["cli.sequence_passes_per_verify"] = (
        passes / len(verify_ok) if verify_ok else 0.0,
        "count/op",
    )
    out["serialize.load_ms"] = (
        ms(idx.inclusive("serialize.quiver_from_dict", "serialize.sequence_from_dict")),
        "ms/op",
    )

    out["quiver.verify_ms"] = (ms(idx.inclusive(*VERIFY_ENTRY)), "ms/op")
    for fn in ("mutate", "color"):
        calls = idx.named(f"quiver.{fn}")
        out[f"quiver.{fn}_calls"] = (per_op(len(calls)), "count/op")
        out[f"quiver.{fn}_ms"] = (ms(idx.inclusive(f"quiver.{fn}")), "ms/op")

    for metric, fn in (
        ("validate_ms", "validate_chains"),
        ("order_ms", "cover_relations"),
        ("extension_ms", "descending_order"),
        ("construct_ms", "construct_mgs"),
        ("present_ms", "decompose_with_chains"),
    ):
        out[f"decomposition.{metric}"] = (
            ms(idx.exclusive(f"decomposition.{fn}", DECOMPOSITION_STAGES)),
            "ms/op",
        )

    auto = idx.named("families.auto_decompose")
    out["families.auto_decompose_ms"] = (ms(idx.inclusive("families.auto_decompose")), "ms/op")
    out["families.accept_ratio"] = (
        sum(s[INFO] or 0 for s in auto) / len(auto) if auto else 0.0,
        "ratio",
    )
    out["hl.decompose_ms"] = (ms(idx.inclusive("hl.hl_decompose")), "ms/op")
    out["type_a.recognize_ms"] = (
        ms(
            sum(
                idx.duration(s)
                for s in idx.named("type_a.is_type_a")
                if s[PARENT] is not None
                and idx.by_id[s[PARENT]][NAME] == "families.auto_decompose"
            )
        ),
        "ms/op",
    )
    out["type_d.recognize_ms"] = (ms(idx.inclusive("type_d.classify_type_d")), "ms/op")
    out["cycles.decompose_ms"] = (
        ms(idx.inclusive("cycles.all_cycles_oriented_decompose")),
        "ms/op",
    )
    enum = idx.named("cycles.enumerate_simple_cycles")
    out["cycles.enumerate_calls"] = (per_op(len(enum)), "count/op")
    out["cycles.cycles_listed"] = (per_op(sum(s[INFO] or 0 for s in enum)), "count/op")
    out["cycles.budget_errors"] = (
        per_op(sum(s[ERROR] == "CycleBudgetExceededError" for s in enum)),
        "count/op",
    )

    out["oracle.count_ms"] = (ms(idx.inclusive("oracle.oracle_report", "oracle.count_mgs")), "ms/op")
    out["oracle.min_ms"] = (ms(idx.inclusive("oracle.min_mgs_length")), "ms/op")
    gens = idx.named("oracle.enumerate_green_sequences")
    listed = sum(s[INFO][0] for s in gens if s[INFO])
    maximal = sum(s[INFO][1] for s in gens if s[INFO])
    out["oracle.sequences_enumerated"] = (per_op(listed), "count/op")
    out["oracle.maximal_ratio"] = (maximal / listed if listed else 0.0, "ratio")
    out["trace.spans_per_op"] = (per_op(len(spans)), "count/op")
    return out
