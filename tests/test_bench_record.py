"""``tools/bench_record.py``'s work section: counts that repeat to the byte."""

import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import gjk2d

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"


def test_work_section_repeats_byte_for_byte(monkeypatch):
    # reading perfbench's workloads puts perfbench/ on sys.path
    monkeypatch.setattr(sys, "path", sys.path[:])
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    tiny = {
        name: dataclasses.replace(workload, chunks=1, cases=2)
        for name, workload in tool.perfbench_workloads().items()
    }
    runs = [json.dumps(tool.work_section(gjk2d, tiny, 7)).encode() for _ in range(2)]
    assert runs[0] == runs[1]
    cells = json.loads(runs[0])["cells"]
    assert [(c["workload"], c["regime"], c["query"]) for c in cells] == [
        (name, regime, query)
        for name in tiny
        for regime in ("distant", "touching", "overlap")
        for query in ("distance", "intersects")
    ]
    for cell in cells:
        assert cell["pairs"] == 2 * len(tiny[cell["workload"]].sizes)
        assert cell["support_calls"] >= 1.0
        assert cell["opcodes"] > 0.0
