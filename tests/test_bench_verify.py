"""The benchmark's ``verify`` workload at toy sizes: every operation checks out."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_toy_verify_ops_all_pass(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file executes
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    work = workloads.build_verify(7, tmp_path, toy=True)
    assert work.ops
    assert [op.call() for op in work.ops] == [None] * len(work.ops)
