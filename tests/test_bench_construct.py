"""The benchmark's ``construct`` workload at toy sizes: every operation checks out."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from greenseq.decomposition import construct_mgs, decomposition_from_dict, underlying_quiver
from greenseq.quiver import is_maximal_green_sequence

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_toy_construct_ops_all_pass(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file executes
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    work = workloads.build_construct(7, tmp_path, toy=True)
    # record the dict each op loads, to verify its sequence afterwards
    loaded = []
    real_op = workloads.construct_op

    def recorded(data):
        loaded.append(data)
        return real_op(data)

    monkeypatch.setattr(workloads, "construct_op", recorded)
    assert work.ops
    assert [op.call() for op in work.ops] == [None] * len(work.ops)
    assert len(loaded) == len(work.ops)
    for data in loaded:
        dec = decomposition_from_dict(data)
        assert is_maximal_green_sequence(underlying_quiver(dec), construct_mgs(dec))
