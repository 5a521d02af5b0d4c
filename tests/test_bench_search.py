"""The benchmark's ``search`` workload at toy sizes: every operation and probe checks out."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_toy_search_ops_and_probes_all_pass(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file executes
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    work = workloads.build_search(7, tmp_path, toy=True)
    assert work.ops
    assert len(work.probes) == 2
    assert [op.call() for op in work.ops] == [None] * len(work.ops)
    # the infinite-green-path probes: exit 3 with the budget reported exhausted
    assert [probe.call() for probe in work.probes] == [None, None]
